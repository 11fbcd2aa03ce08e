/** @file Controller-level tests: scheduling, refresh, RLTL, policies. */

#include <gtest/gtest.h>

#include "common/log.hh"
#include "common/random.hh"
#include "ctrl/controller.hh"
#include "ctrl/refresh.hh"
#include "ctrl/rltl.hh"
#include "helpers.hh"

namespace ccsim::ctrl {
namespace {

using test::CtrlHarness;

TEST(Controller, SingleReadCompletes)
{
    CtrlHarness h;
    ASSERT_TRUE(h.read(0, 100, 0));
    h.drain();
    ASSERT_EQ(h.completions.size(), 1u);
    // ACT at some cycle c, RD at c+tRCD, data at +tCL+tBL.
    EXPECT_GE(h.completions[0].second, Cycle(11 + 11 + 4));
    EXPECT_TRUE(h.violations().empty());
    EXPECT_EQ(h.mc->stats().reads, 1u);
    EXPECT_EQ(h.mc->stats().rowMisses, 1u);
}

TEST(Controller, RowHitServedWithoutNewAct)
{
    CtrlHarness h;
    h.read(0, 100, 0);
    h.read(0, 100, 1);
    h.read(0, 100, 2);
    h.drain();
    EXPECT_EQ(h.mc->stats().acts, 1u);
    EXPECT_EQ(h.mc->stats().rowHits, 2u);
    EXPECT_EQ(h.mc->stats().rowMisses, 1u);
    EXPECT_TRUE(h.violations().empty());
}

TEST(Controller, RowConflictPrechargesFirst)
{
    CtrlHarness h;
    h.read(0, 100, 0);
    h.drain();
    h.read(0, 200, 0); // Conflict with open row 100.
    h.drain();
    EXPECT_EQ(h.mc->stats().rowConflicts, 1u);
    EXPECT_EQ(h.mc->stats().acts, 2u);
    EXPECT_GE(h.mc->stats().pres, 1u);
    EXPECT_TRUE(h.violations().empty());
}

TEST(Controller, FrFcfsPrefersReadyRowHitOverOlderConflict)
{
    CtrlHarness h;
    h.read(0, 100, 0);
    h.drain();
    // Oldest: conflict in bank 0. Younger: hit in bank 0 row 100.
    h.read(0, 200, 0);
    h.read(0, 100, 5);
    h.drain();
    ASSERT_EQ(h.completions.size(), 3u);
    // The row hit (col 5) must complete before the conflict (row 200).
    Addr hit_key = (Addr(0) << 40) | (Addr(100) << 8) | 5;
    Addr conflict_key = (Addr(0) << 40) | (Addr(200) << 8) | 0;
    Cycle hit_done = 0, conflict_done = 0;
    for (auto &[key, done] : h.completions) {
        if (key == hit_key)
            hit_done = done;
        if (key == conflict_key)
            conflict_done = done;
    }
    EXPECT_LT(hit_done, conflict_done);
}

TEST(Controller, BankParallelismOverlapsActivations)
{
    CtrlHarness h;
    h.read(0, 100, 0);
    h.read(1, 100, 0);
    h.drain();
    // Both should finish well before two serialized row cycles.
    Cycle last = std::max(h.completions[0].second,
                          h.completions[1].second);
    EXPECT_LT(last, Cycle(2 * (11 + 11 + 4)));
    EXPECT_TRUE(h.violations().empty());
}

TEST(Controller, WritesDrainAndComplete)
{
    CtrlHarness h;
    for (int i = 0; i < 20; ++i)
        ASSERT_TRUE(h.write(i % 8, 10 + i, i));
    h.drain();
    EXPECT_EQ(h.mc->stats().writes, 20u);
    EXPECT_EQ(h.mc->queuedRequests(), 0u);
    EXPECT_TRUE(h.violations().empty());
}

TEST(Controller, ReadForwardedFromWriteQueue)
{
    CtrlHarness h;
    // Ensure the write lingers in the queue (reads have priority).
    h.write(3, 50, 7);
    h.read(3, 50, 7);
    h.run(2);
    // The read completes from the write queue without DRAM access.
    EXPECT_EQ(h.mc->stats().readForwards, 1u);
    h.drain();
    EXPECT_TRUE(h.violations().empty());
}

TEST(Controller, WriteCoalescing)
{
    CtrlHarness h;
    h.write(1, 5, 3);
    h.write(1, 5, 3); // Same line: coalesced.
    EXPECT_EQ(h.mc->stats().writes, 1u);
}

TEST(Controller, QueueFullRejectsViaCanAccept)
{
    CtrlHarness h;
    int accepted = 0;
    for (int i = 0; i < 100; ++i)
        accepted += h.read(i % 8, i, 0);
    EXPECT_EQ(accepted, h.config.readQueueSize);
    EXPECT_FALSE(h.mc->canAccept(ReqType::Read));
    h.drain();
    EXPECT_TRUE(h.violations().empty());
}

TEST(Controller, RefreshIssuedApproximatelyEveryTrefi)
{
    CtrlHarness h;
    Cycle window = h.spec.timing.tREFI * 10 + 100;
    h.run(window);
    EXPECT_EQ(h.mc->stats().refs, 10u);
    EXPECT_TRUE(h.violations().empty());
}

TEST(Controller, RefreshClosesOpenRows)
{
    CtrlHarness h;
    h.read(0, 100, 0);
    h.drain();
    // Row 100 is open (open-row policy). Run past a refresh.
    h.run(h.spec.timing.tREFI + 1000);
    EXPECT_GE(h.mc->stats().refs, 1u);
    // Bank was precharged for the refresh.
    EXPECT_EQ(h.mc->channel().rank(0).bank(0).state(),
              dram::Bank::State::Idle);
    EXPECT_TRUE(h.violations().empty());
}

TEST(Controller, TrafficUnderRefreshStormIsProtocolClean)
{
    CtrlHarness h;
    Rng rng(3);
    Cycle issued = 0;
    for (Cycle c = 0; c < 40000; ++c) {
        if (rng.chance(0.05) && h.read(static_cast<int>(rng.below(8)),
                                       static_cast<int>(rng.below(64)),
                                       static_cast<int>(rng.below(16))))
            ++issued;
        h.mc->tick();
    }
    h.drain();
    EXPECT_GT(issued, 100u);
    EXPECT_GE(h.mc->stats().refs, 5u); // ~6 refresh windows.
    auto v = h.violations();
    EXPECT_TRUE(v.empty()) << (v.empty() ? "" : v[0]);
}

TEST(Controller, ClosedRowPolicyUsesAutoPrecharge)
{
    CtrlHarness h(RowPolicy::Closed);
    h.read(0, 100, 0);
    h.drain();
    EXPECT_EQ(h.mc->stats().autoPres, 1u);
    EXPECT_EQ(h.mc->channel().rank(0).bank(0).state(),
              dram::Bank::State::Idle);
    EXPECT_TRUE(h.violations().empty());
}

TEST(Controller, ClosedRowPolicyKeepsRowForQueuedHits)
{
    CtrlHarness h(RowPolicy::Closed);
    h.read(0, 100, 0);
    h.read(0, 100, 1);
    h.drain();
    // Only the last access should carry the auto-precharge.
    EXPECT_EQ(h.mc->stats().acts, 1u);
    EXPECT_EQ(h.mc->stats().autoPres, 1u);
    EXPECT_EQ(h.mc->stats().rowHits, 1u);
    EXPECT_TRUE(h.violations().empty());
}

/** Records the type of every command a controller issues. */
struct CmdLog : CommandListener {
    std::vector<dram::CmdType> types;
    void
    onCommand(const dram::Command &cmd, Cycle,
              const dram::EffActTiming *) override
    {
        types.push_back(cmd.type);
    }
};

TEST(Controller, ClosedRowQueuedWriteHitKeepsReadAsPlainRd)
{
    CtrlHarness h(RowPolicy::Closed);
    CmdLog log;
    h.mc->addListener(&log);
    dram::DramAddr a;
    a.bank = 0;
    a.row = 100;
    h.read(0, 100, 0);
    h.write(0, 100, 1); // Same row, other queue.
    while (h.mc->channel().rank(0).bank(0).state() !=
           dram::Bank::State::Active)
        h.mc->tick();
    EXPECT_EQ(h.mc->openRowHits(a), 2);
    h.drain();
    // Reads go first; the queued write hit keeps the row open, so the
    // read is a plain RD and the write carries the auto-precharge.
    EXPECT_EQ(log.types, (std::vector<dram::CmdType>{dram::CmdType::ACT,
                                                     dram::CmdType::RD,
                                                     dram::CmdType::WRA}));
    EXPECT_EQ(h.mc->stats().acts, 1u);
    EXPECT_EQ(h.mc->stats().autoPres, 1u);
    EXPECT_EQ(h.mc->openRowHits(a), 0);
    EXPECT_TRUE(h.violations().empty());
}

TEST(Controller, OpenRowHitCountsReturnToZeroOnPreAndRda)
{
    dram::DramAddr a;
    a.bank = 2;
    a.row = 7;

    // RDA: the last queued hit auto-precharges; the other requests to
    // the bank target another row and must not count as hits.
    CtrlHarness closed(RowPolicy::Closed);
    closed.read(2, 7, 0);
    closed.read(2, 9, 0);
    closed.write(2, 9, 1);
    while (closed.mc->stats().autoPres == 0) {
        if (closed.mc->channel().rank(0).bank(2).state() ==
            dram::Bank::State::Active) {
            EXPECT_EQ(closed.mc->openRowHits(a), 1);
        }
        closed.mc->tick();
    }
    EXPECT_EQ(closed.mc->openRowHits(a), 0);
    dram::DramAddr b = a;
    b.row = 9;
    EXPECT_EQ(closed.mc->openRowHits(b), 0) << "bank is idle after RDA";
    closed.drain();
    EXPECT_EQ(closed.mc->stats().acts, 2u);
    EXPECT_EQ(closed.mc->openRowHits(b), 0);

    // PRE: refresh closes an open row while hits to it are queued
    // (open-row policy leaves the row open after the first read).
    CtrlHarness open;
    open.read(2, 7, 0);
    open.drain();
    Cycle until_ref = open.spec.timing.tREFI;
    while (open.mc->now() + 2 < until_ref)
        open.mc->tick();
    open.read(2, 7, 1);
    open.read(2, 7, 2);
    EXPECT_EQ(open.mc->openRowHits(a), 2);
    const std::uint64_t pres = open.mc->stats().pres;
    while (open.mc->stats().pres == pres)
        open.mc->tick();
    EXPECT_EQ(open.mc->channel().rank(0).bank(2).state(),
              dram::Bank::State::Idle);
    EXPECT_EQ(open.mc->openRowHits(a), 0);
    open.drain();
    EXPECT_EQ(open.mc->stats().reads, 3u);
    EXPECT_EQ(open.mc->openRowHits(a), 0);
    EXPECT_TRUE(open.violations().empty());
    EXPECT_TRUE(closed.violations().empty());
}

TEST(Controller, ChargeCacheHitLowersReadLatency)
{
    auto make_cc = []() {
        chargecache::ChargeCacheParams p;
        p.trcdReduced = 7;
        p.trasReduced = 20;
        p.durationCycles = 800000;
        return p;
    };
    dram::DramSpec spec = dram::DramSpec::ddr3_1600(1);

    // Baseline: conflict pattern row A -> row B -> row A.
    CtrlHarness base;
    base.read(0, 1, 0);
    base.drain();
    base.read(0, 2, 0);
    base.drain();
    Cycle t0 = base.mc->now();
    base.read(0, 1, 1);
    base.drain();
    Cycle base_latency = base.completions[2].second - t0;

    // ChargeCache: same pattern; third access hits the HCRAC.
    auto prov = std::make_unique<chargecache::ChargeCacheProvider>(
        spec.timing, make_cc(), 1);
    auto *prov_raw = prov.get();
    CtrlHarness cc(RowPolicy::Open, std::move(prov));
    cc.read(0, 1, 0);
    cc.drain();
    cc.read(0, 2, 0);
    cc.drain();
    Cycle t1 = cc.mc->now();
    cc.read(0, 1, 1);
    cc.drain();
    Cycle cc_latency = cc.completions[2].second - t1;

    EXPECT_EQ(prov_raw->reducedActivations, 1u);
    // The ChargeCache hit saves exactly tRCD(4) cycles on this path.
    EXPECT_EQ(base_latency - cc_latency, 4u);
    EXPECT_TRUE(cc.violations().empty());
}

TEST(Controller, ResetStatsZeroesCountersButKeepsState)
{
    CtrlHarness h;
    h.read(0, 100, 0);
    h.drain();
    h.mc->resetStats();
    EXPECT_EQ(h.mc->stats().reads, 0u);
    EXPECT_EQ(h.mc->stats().acts, 0u);
    // Row is still open; a new access to it is a row hit.
    h.read(0, 100, 9);
    h.drain();
    EXPECT_EQ(h.mc->stats().rowHits, 1u);
}

// ---------------------------------------------------------------------
// RefreshScheduler.

TEST(RefreshScheduler, RowsPerRefMatchesGeometry)
{
    dram::DramSpec spec = dram::DramSpec::ddr3_1600(1);
    RefreshScheduler rs(spec);
    EXPECT_EQ(rs.rowsPerRef(), 8); // 65536 rows / 8192 REFs.
}

TEST(RefreshScheduler, DueFollowsTrefi)
{
    dram::DramSpec spec = dram::DramSpec::ddr3_1600(1);
    RefreshScheduler rs(spec);
    EXPECT_FALSE(rs.due(0, spec.timing.tREFI - 1));
    EXPECT_TRUE(rs.due(0, spec.timing.tREFI));
    rs.onRefIssued(0, spec.timing.tREFI);
    EXPECT_FALSE(rs.due(0, spec.timing.tREFI + 1));
    EXPECT_TRUE(rs.due(0, 2 * spec.timing.tREFI));
}

TEST(RefreshScheduler, LastRefreshTracksGroups)
{
    dram::DramSpec spec = dram::DramSpec::ddr3_1600(1);
    RefreshScheduler rs(spec);
    // The first REF covers the rank's start group (mid-array, so the
    // schedule is uncorrelated with low-address data).
    int start_group = 8192 / 2;
    int row = start_group * rs.rowsPerRef();
    EXPECT_LT(rs.lastRefreshCycle(0, 0, row, 0), 0);
    rs.onRefIssued(0, 10000);
    EXPECT_EQ(rs.lastRefreshCycle(0, 0, row, 20000), 10000);
    EXPECT_EQ(rs.lastRefreshCycle(0, 0, row + 7, 20000), 10000);
    // The next group still has its steady-state (negative) stamp.
    EXPECT_LT(rs.lastRefreshCycle(0, 0, row + 8, 20000), 0);
}

TEST(RefreshScheduler, SteadyStateAgesAreUniformOverTheWindow)
{
    dram::DramSpec spec = dram::DramSpec::ddr3_1600(1);
    RefreshScheduler rs(spec);
    // At cycle 0 the refresh ages are pseudo-random over [0, tREFW):
    // all in range, mean near tREFW/2, and ~12.5% younger than 8 ms
    // (the paper's Figure 3 premise).
    double sum = 0;
    int young = 0;
    const int n_groups = 8192;
    std::int64_t window = std::int64_t(spec.timing.tREFW);
    std::int64_t ms8 = std::int64_t(spec.timing.msToCycles(8.0));
    for (int g = 0; g < n_groups; ++g) {
        std::int64_t age =
            -rs.lastRefreshCycle(0, 0, g * rs.rowsPerRef(), 0);
        ASSERT_GT(age, 0);
        ASSERT_LE(age, window);
        sum += double(age);
        young += age <= ms8;
    }
    EXPECT_NEAR(sum / n_groups / double(window), 0.5, 0.02);
    EXPECT_NEAR(double(young) / n_groups, 0.125, 0.02);
}

// ---------------------------------------------------------------------
// RltlTracker.

TEST(Rltl, CountsActivationsWithinWindows)
{
    RltlTracker t({100, 1000}, 10000, nullptr);
    dram::DramAddr a;
    a.bank = 0;
    a.row = 5;
    t.onActivate(a, 0);  // No prior precharge: counts in neither.
    t.onPrecharge(a, 5, 50);
    t.onActivate(a, 100); // Delta 50: within both windows.
    t.onPrecharge(a, 5, 150);
    t.onActivate(a, 700); // Delta 550: only within 1000.
    EXPECT_EQ(t.activations(), 3u);
    EXPECT_NEAR(t.rltl(0), 1.0 / 3.0, 1e-9);
    EXPECT_NEAR(t.rltl(1), 2.0 / 3.0, 1e-9);
}

TEST(Rltl, DifferentRowsTrackedIndependently)
{
    RltlTracker t({100}, 10000, nullptr);
    dram::DramAddr a;
    a.row = 1;
    dram::DramAddr b;
    b.row = 2;
    t.onPrecharge(a, 1, 0);
    t.onActivate(b, 50); // Row 2 never precharged: no RLTL count.
    EXPECT_DOUBLE_EQ(t.rltl(0), 0.0);
}

TEST(Rltl, ThresholdsMustAscend)
{
    EXPECT_THROW(RltlTracker({100, 50}, 1000, nullptr), PanicError);
}

TEST(Rltl, ResetKeepsPrechargeHistory)
{
    RltlTracker t({100}, 10000, nullptr);
    dram::DramAddr a;
    a.row = 3;
    t.onPrecharge(a, 3, 0);
    t.resetStats();
    t.onActivate(a, 50);
    EXPECT_DOUBLE_EQ(t.rltl(0), 1.0);
}

} // namespace
} // namespace ccsim::ctrl
