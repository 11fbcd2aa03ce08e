/** @file Unit tests for common utilities. */

#include <gtest/gtest.h>

#include <deque>
#include <set>
#include <vector>

#include "common/log.hh"
#include "common/random.hh"
#include "common/ring.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "obs/telemetry.hh"
#include "resilience/error.hh"
#include "resilience/serial.hh"

namespace ccsim {
namespace {

TEST(Ring, WrapsAroundInFifoOrder)
{
    Ring<int> ring(3); // Stored 4 wide: the wrap exercises the mask.
    std::deque<int> model;
    int next = 0;
    for (int round = 0; round < 20; ++round) {
        while (!ring.full()) {
            ring.push_back(next);
            model.push_back(next++);
        }
        for (int k = 0; k < 1 + round % 3; ++k) {
            ASSERT_EQ(ring.front(), model.front());
            ring.pop_front();
            model.pop_front();
        }
        ASSERT_EQ(ring.size(), model.size());
        for (std::size_t i = 0; i < model.size(); ++i)
            ASSERT_EQ(ring[i], model[i]) << "round " << round;
        if (!model.empty()) {
            ASSERT_EQ(ring.back(), model.back());
        }
    }
}

TEST(Ring, FullAtCapacityNotStorageWidth)
{
    Ring<int> ring(5);
    EXPECT_EQ(ring.capacity(), 5u);
    EXPECT_TRUE(ring.empty());
    for (int i = 0; i < 5; ++i) {
        EXPECT_FALSE(ring.full());
        ring.push_back(i);
    }
    EXPECT_TRUE(ring.full());
    EXPECT_EQ(ring.size(), 5u);
    ring.pop_front();
    ring.push_back(5); // Room again after a pop.
    EXPECT_TRUE(ring.full());
    EXPECT_EQ(ring.front(), 1);
    EXPECT_EQ(ring.back(), 5);
    ring.clear();
    EXPECT_TRUE(ring.empty());
    EXPECT_FALSE(ring.full());
}

TEST(Ring, SnapshotRoundTripMatchesDequeLayout)
{
    Ring<std::pair<std::uint64_t, std::uint64_t>> ring(4);
    std::deque<std::pair<std::uint64_t, std::uint64_t>> model;
    for (std::uint64_t i = 0; i < 7; ++i) { // Wraps the storage.
        if (ring.full()) {
            ring.pop_front();
            model.pop_front();
        }
        ring.push_back({i, 100 + i});
        model.push_back({i, 100 + i});
    }
    resilience::SnapshotWriter ring_w, deque_w;
    ring_w.putRing(ring);
    deque_w.putDeque(model);
    EXPECT_EQ(ring_w.bytes(), deque_w.bytes());

    Ring<std::pair<std::uint64_t, std::uint64_t>> back(4);
    back.push_back({9, 9}); // Replaced, not appended to.
    resilience::SnapshotReader r(ring_w.bytes());
    r.getRing(back);
    EXPECT_TRUE(r.atEnd());
    ASSERT_EQ(back.size(), model.size());
    for (std::size_t i = 0; i < model.size(); ++i)
        EXPECT_EQ(back[i], model[i]);
}

TEST(Ring, LoaderRefusesCountAboveCapacity)
{
    Ring<std::uint32_t> big(6);
    for (std::uint32_t i = 0; i < 6; ++i)
        big.push_back(i);
    resilience::SnapshotWriter w;
    w.putRing(big);
    Ring<std::uint32_t> small(5);
    resilience::SnapshotReader r(w.bytes());
    try {
        r.getRing(small);
        FAIL() << "expected CorruptSnapshot";
    } catch (const resilience::SimError &e) {
        EXPECT_EQ(e.kind(), resilience::ErrorKind::CorruptSnapshot);
    }
}

TEST(Log2, ExactPowers)
{
    EXPECT_EQ(log2Exact(1), 0);
    EXPECT_EQ(log2Exact(2), 1);
    EXPECT_EQ(log2Exact(65536), 16);
    EXPECT_EQ(log2Exact(1ull << 40), 40);
}

TEST(Log2, NonPowersReturnMinusOne)
{
    EXPECT_EQ(log2Exact(0), -1);
    EXPECT_EQ(log2Exact(3), -1);
    EXPECT_EQ(log2Exact(65535), -1);
}

TEST(Log2, Ceil)
{
    EXPECT_EQ(log2Ceil(1), 0);
    EXPECT_EQ(log2Ceil(2), 1);
    EXPECT_EQ(log2Ceil(3), 2);
    EXPECT_EQ(log2Ceil(65536), 16);
    EXPECT_EQ(log2Ceil(65537), 17);
}

TEST(IsPow2, Basic)
{
    EXPECT_TRUE(isPow2(1));
    EXPECT_TRUE(isPow2(1024));
    EXPECT_FALSE(isPow2(0));
    EXPECT_FALSE(isPow2(1023));
}

TEST(Rng, DeterministicAcrossInstances)
{
    Rng a(123), b(123);
    for (int i = 0; i < 1000; ++i)
        ASSERT_EQ(a.next64(), b.next64());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next64() == b.next64();
    EXPECT_LT(same, 2);
}

TEST(Rng, BelowIsInRange)
{
    Rng rng(7);
    for (std::uint64_t bound : {1ull, 2ull, 7ull, 1000ull, 1ull << 40}) {
        for (int i = 0; i < 200; ++i)
            ASSERT_LT(rng.below(bound), bound);
    }
}

TEST(Rng, BelowCoversRange)
{
    Rng rng(11);
    bool seen[8] = {};
    for (int i = 0; i < 1000; ++i)
        seen[rng.below(8)] = true;
    for (bool s : seen)
        EXPECT_TRUE(s);
}

TEST(Rng, UniformMeanIsHalf)
{
    Rng rng(5);
    double sum = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        sum += rng.uniform();
    EXPECT_NEAR(sum / n, 0.5, 0.01);
}

TEST(Rng, ChanceRespectsProbability)
{
    Rng rng(9);
    int hits = 0;
    const int n = 100000;
    for (int i = 0; i < n; ++i)
        hits += rng.chance(0.25);
    EXPECT_NEAR(double(hits) / n, 0.25, 0.01);
}

TEST(Rng, ReseedReproduces)
{
    Rng rng(77);
    std::uint64_t first = rng.next64();
    rng.next64();
    rng.reseed(77);
    EXPECT_EQ(rng.next64(), first);
}

TEST(Panic, ThrowsPanicError)
{
    EXPECT_THROW(CCSIM_PANIC("boom ", 42), PanicError);
}

TEST(Fatal, ThrowsFatalError)
{
    EXPECT_THROW(CCSIM_FATAL("bad config"), FatalError);
}

TEST(Assert, PassAndFail)
{
    EXPECT_NO_THROW(CCSIM_ASSERT(1 + 1 == 2, "fine"));
    EXPECT_THROW(CCSIM_ASSERT(1 + 1 == 3, "nope"), PanicError);
}

TEST(Mix64, DistinctInputsDistinctOutputs)
{
    // Sanity: no collisions over a small dense range.
    std::set<std::uint64_t> seen;
    for (std::uint64_t i = 0; i < 10000; ++i)
        seen.insert(mix64(i));
    EXPECT_EQ(seen.size(), 10000u);
}

TEST(Histogram, BucketBoundaries)
{
    // Bucket 0 holds {0}, bucket 1 {1}, bucket i [2^(i-1), 2^i - 1].
    EXPECT_EQ(Histogram::bucketOf(0), 0);
    EXPECT_EQ(Histogram::bucketOf(1), 1);
    EXPECT_EQ(Histogram::bucketOf(2), 2);
    EXPECT_EQ(Histogram::bucketOf(3), 2);
    EXPECT_EQ(Histogram::bucketOf(4), 3);
    for (int k = 2; k < 64; ++k) {
        const std::uint64_t p = std::uint64_t(1) << k;
        EXPECT_EQ(Histogram::bucketOf(p - 1), k);
        EXPECT_EQ(Histogram::bucketOf(p), k + 1);
    }
    EXPECT_EQ(Histogram::bucketOf(~std::uint64_t(0)), 64);

    // Lo/Hi are consistent with bucketOf at every edge.
    for (int i = 0; i < Histogram::kBuckets; ++i) {
        EXPECT_EQ(Histogram::bucketOf(Histogram::bucketLo(i)), i);
        EXPECT_EQ(Histogram::bucketOf(Histogram::bucketHi(i)), i);
    }

    Histogram h;
    h.sample(0);
    h.sample(1);
    h.sample(2);
    h.sample(3);
    h.sample(4);
    EXPECT_EQ(h.bucketCount(0), 1u);
    EXPECT_EQ(h.bucketCount(1), 1u);
    EXPECT_EQ(h.bucketCount(2), 2u);
    EXPECT_EQ(h.bucketCount(3), 1u);
    EXPECT_EQ(h.count(), 5u);
    EXPECT_EQ(h.sum(), 10u);
    EXPECT_DOUBLE_EQ(h.mean(), 2.0);
}

TEST(Histogram, PercentileAndMerge)
{
    Histogram h;
    EXPECT_EQ(h.percentileUpperBound(0.5), 0u);
    for (int i = 0; i < 90; ++i)
        h.sample(10); // bucket 4 (hi 15)
    for (int i = 0; i < 10; ++i)
        h.sample(1000); // bucket 10 (hi 1023)
    EXPECT_EQ(h.percentileUpperBound(0.5), 15u);
    EXPECT_EQ(h.percentileUpperBound(0.99), 1023u);

    Histogram other;
    other.sample(0);
    other.merge(h);
    EXPECT_EQ(other.count(), 101u);
    EXPECT_EQ(other.bucketCount(0), 1u);
    EXPECT_EQ(other.bucketCount(4), 90u);

    h.reset();
    EXPECT_EQ(h.count(), 0u);
    EXPECT_EQ(h.sum(), 0u);
    for (int i = 0; i < Histogram::kBuckets; ++i)
        EXPECT_EQ(h.bucketCount(i), 0u);
    EXPECT_EQ(h.percentileUpperBound(0.5), 0u);
}

TEST(Histogram, PercentileEdges)
{
    // Empty histogram: every percentile is 0, including the extremes.
    Histogram empty;
    EXPECT_EQ(empty.percentileUpperBound(0.0), 0u);
    EXPECT_EQ(empty.percentileUpperBound(1.0), 0u);

    // Single-bucket population: every percentile lands in that bucket.
    Histogram single;
    for (int i = 0; i < 7; ++i)
        single.sample(10); // bucket 4, hi 15
    EXPECT_EQ(single.percentileUpperBound(0.0), 15u);
    EXPECT_EQ(single.percentileUpperBound(0.5), 15u);
    EXPECT_EQ(single.percentileUpperBound(1.0), 15u);

    // p=0.0 clamps to the smallest sample's bucket, p=1.0 to the
    // largest — and out-of-range p clamps likewise.
    Histogram h;
    h.sample(1);
    h.sample(1000);
    EXPECT_EQ(h.percentileUpperBound(0.0), 1u);
    EXPECT_EQ(h.percentileUpperBound(1.0), 1023u);
    EXPECT_EQ(h.percentileUpperBound(-3.0), 1u);
    EXPECT_EQ(h.percentileUpperBound(2.0), 1023u);

    // The quantile rank must round up: with 2 low and 3 high samples
    // the median (3rd smallest) is high. A truncated rank (2) wrongly
    // returned the low bucket.
    Histogram skew;
    skew.sample(1);
    skew.sample(1);
    skew.sample(1000);
    skew.sample(1000);
    skew.sample(1000);
    EXPECT_EQ(skew.percentileUpperBound(0.5), 1023u);
}

TEST(Stats, ResetAllCoversHistograms)
{
    // The warm-up statistics reset (Telemetry::rebase) must zero every
    // latency histogram — each channel's read-latency and queue-wait,
    // each core's page-walk — not just the first of each kind.
    obs::ObsConfig cfg;
    cfg.enable = true;
    cfg.histograms = true;
    obs::Telemetry tele(cfg, /*channels=*/2, /*cores=*/3,
                        /*cpu_ratio=*/5, /*trfc=*/208);

    std::vector<Histogram *> all;
    for (int ch = 0; ch < 2; ++ch) {
        obs::CtrlHists *c = tele.ctrlHists(ch);
        ASSERT_NE(c, nullptr);
        all.push_back(&c->readLatency);
        all.push_back(&c->queueWait);
    }
    for (int core = 0; core < 3; ++core) {
        ASSERT_NE(tele.ptwHist(core), nullptr);
        all.push_back(tele.ptwHist(core));
    }
    for (Histogram *h : all) {
        h->sample(100);
        h->sample(3);
        ASSERT_EQ(h->count(), 2u);
    }

    tele.rebase();
    for (Histogram *h : all) {
        EXPECT_EQ(h->count(), 0u);
        EXPECT_EQ(h->sum(), 0u);
        for (int i = 0; i < Histogram::kBuckets; ++i)
            EXPECT_EQ(h->bucketCount(i), 0u);
    }
    EXPECT_EQ(tele.mergedReadLatency().count(), 0u);
    EXPECT_EQ(tele.mergedPtwWalk().count(), 0u);
    // The hooks survive a reset (same objects, zeroed).
    EXPECT_EQ(&tele.ctrlHists(1)->queueWait, all[3]);
    EXPECT_EQ(tele.ptwHist(2), all.back());
}

} // namespace
} // namespace ccsim
