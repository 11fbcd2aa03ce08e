/** @file Unit tests for the calendar kernel's wake queue. */

#include <gtest/gtest.h>

#include <random>
#include <vector>

#include "sim/calendar.hh"

namespace ccsim::sim {
namespace {

std::vector<int>
drainAt(WakeQueue &q, CpuCycle now)
{
    std::vector<int> out;
    q.drainUpTo(now, [&](int core) { out.push_back(core); });
    return out;
}

TEST(WakeQueue, DeliversAtExactCycle)
{
    WakeQueue q;
    q.post(100, 1);
    q.post(103, 2);
    EXPECT_EQ(q.nextEventAt(), 100u);
    EXPECT_TRUE(drainAt(q, 99).empty());
    EXPECT_EQ(drainAt(q, 100), std::vector<int>{1});
    EXPECT_EQ(q.nextEventAt(), 103u);
    EXPECT_EQ(drainAt(q, 103), std::vector<int>{2});
    EXPECT_EQ(q.nextEventAt(), kNoCycle);
    EXPECT_EQ(q.size(), 0u);
}

TEST(WakeQueue, PartialDrainKeepsLaterEntries)
{
    WakeQueue q;
    q.post(5, 10);
    q.post(60, 11);
    EXPECT_EQ(drainAt(q, 5), std::vector<int>{10});
    EXPECT_EQ(q.nextEventAt(), 60u);
    EXPECT_EQ(drainAt(q, 64), std::vector<int>{11});
}

TEST(WakeQueue, BulkDrainDeliversEveryDueEntry)
{
    WakeQueue q;
    q.post(10, 1);
    q.post(1000, 2);
    q.post(50000, 3);
    EXPECT_EQ(drainAt(q, 60000), (std::vector<int>{1, 2, 3}));
}

TEST(WakeQueue, DueEntriesArriveInCycleThenCoreOrder)
{
    // Equal cycles posted in descending core order still come out by
    // core id, and an earlier cycle precedes a smaller core id.
    WakeQueue q;
    q.post(20, 7);
    q.post(20, 5);
    q.post(20, 2);
    q.post(12, 6);
    q.post(12, 3);
    q.post(30, 0); // Not due.
    q.post(15, 9);
    EXPECT_EQ(drainAt(q, 25), (std::vector<int>{3, 6, 9, 2, 5, 7}));
    EXPECT_EQ(q.nextEventAt(), 30u);
    EXPECT_EQ(q.size(), 1u);
}

TEST(WakeQueue, DistantEntriesAreDelivered)
{
    WakeQueue q;
    q.post(70000, 1);
    q.post(1 << 20, 2);
    q.post(40, 3);
    EXPECT_EQ(q.size(), 3u);
    EXPECT_EQ(q.nextEventAt(), 40u);
    EXPECT_EQ(drainAt(q, 50), std::vector<int>{3});
    EXPECT_EQ(q.nextEventAt(), 70000u);
    EXPECT_EQ(drainAt(q, 70000), std::vector<int>{1});
    EXPECT_EQ(q.nextEventAt(), CpuCycle(1 << 20));
    EXPECT_EQ(drainAt(q, 2 << 20), std::vector<int>{2});
    EXPECT_EQ(q.size(), 0u);
}

TEST(WakeQueue, DeliversAfterLongIdleStretch)
{
    WakeQueue q;
    q.post(10, 1);
    EXPECT_EQ(drainAt(q, 10), std::vector<int>{1});
    // Quiet for 100M cycles.
    for (CpuCycle t = 11; t < 100000000; t += 9999999)
        EXPECT_TRUE(drainAt(q, t).empty());
    q.post(100000100, 7);
    EXPECT_EQ(q.nextEventAt(), 100000100u);
    EXPECT_TRUE(drainAt(q, 100000099).empty());
    EXPECT_EQ(drainAt(q, 100000100), std::vector<int>{7});
}

TEST(WakeQueue, ManyEventsArriveExactlyOnceInCycleOrder)
{
    // Randomized soak: every posted event is delivered exactly once,
    // never before its cycle, and at the first drain at or after it.
    std::mt19937_64 rng(12345);
    WakeQueue q;
    std::vector<CpuCycle> due(4000);
    CpuCycle base = 0;
    for (std::size_t i = 0; i < due.size(); ++i)
        due[i] = base + 1 + rng() % 3000;
    for (std::size_t i = 0; i < due.size(); ++i)
        q.post(due[i], static_cast<int>(i));
    std::vector<CpuCycle> seen(due.size(), kNoCycle);
    CpuCycle t = 0;
    while (q.size() > 0) {
        t += 1 + rng() % 50;
        q.drainUpTo(t, [&](int i) {
            ASSERT_EQ(seen[i], kNoCycle) << "double delivery";
            seen[i] = t;
        });
    }
    for (std::size_t i = 0; i < due.size(); ++i) {
        ASSERT_NE(seen[i], kNoCycle) << "lost event " << i;
        EXPECT_GE(seen[i], due[i]);
        EXPECT_LT(seen[i] - due[i], 51u);
    }
}

TEST(WakeQueue, PostIntoPastAsserts)
{
    WakeQueue q;
    q.post(200, 1);
    drainAt(q, 200);
    EXPECT_THROW(q.post(5, 2), PanicError);
    EXPECT_THROW(q.post(199, 2), PanicError);
    // The drain cycle itself is not the past: it is due at the next
    // drain, like every entry posted after this one.
    q.post(200, 3);
    q.post(250, 4);
    EXPECT_EQ(q.size(), 2u);
    EXPECT_EQ(drainAt(q, 400), (std::vector<int>{3, 4}));
}

TEST(WakeQueue, NextEventAtTracksMinimumAcrossPosts)
{
    WakeQueue q;
    EXPECT_EQ(q.nextEventAt(), kNoCycle);
    q.post(500, 1);
    q.post(200, 2);
    q.post(900, 3);
    EXPECT_EQ(q.nextEventAt(), 200u);
    EXPECT_EQ(drainAt(q, 200), std::vector<int>{2});
    EXPECT_EQ(q.nextEventAt(), 500u);
    q.post(300, 4);
    EXPECT_EQ(q.nextEventAt(), 300u);
}

} // namespace
} // namespace ccsim::sim
