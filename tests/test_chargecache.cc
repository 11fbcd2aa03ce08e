/** @file Unit tests for the HCRAC and the latency providers. */

#include <gtest/gtest.h>

#include <memory>

#include "chargecache/hcrac.hh"
#include "chargecache/providers.hh"
#include "common/log.hh"
#include "dram/spec.hh"

namespace ccsim::chargecache {
namespace {

dram::DramAddr
rowAddr(int bank, int row, int rank = 0)
{
    dram::DramAddr a;
    a.rank = rank;
    a.bank = bank;
    a.row = row;
    return a;
}

// ---------------------------------------------------------------------
// Hcrac.

TEST(Hcrac, MissThenInsertThenHit)
{
    Hcrac cache({128, 2});
    EXPECT_FALSE(cache.lookup(42));
    cache.insert(42);
    EXPECT_TRUE(cache.lookup(42));
    EXPECT_EQ(cache.stats().lookups, 2u);
    EXPECT_EQ(cache.stats().hits, 1u);
}

TEST(Hcrac, GeometryChecks)
{
    Hcrac cache({128, 2});
    EXPECT_EQ(cache.numEntries(), 128);
    EXPECT_EQ(cache.numWays(), 2);
    EXPECT_EQ(cache.numSets(), 64);
    EXPECT_THROW(Hcrac({0, 2}), PanicError);
    EXPECT_THROW(Hcrac({127, 2}), PanicError);
}

TEST(Hcrac, LruEvictsLeastRecentlyUsedWithinSet)
{
    // Single-set cache: pure LRU order is observable.
    Hcrac cache({4, 4});
    for (std::uint64_t k = 1; k <= 4; ++k)
        cache.insert(k);
    EXPECT_TRUE(cache.lookup(1)); // Promote key 1.
    cache.insert(5);              // Evicts key 2 (oldest now).
    EXPECT_TRUE(cache.lookup(1));
    EXPECT_FALSE(cache.lookup(2));
    EXPECT_TRUE(cache.lookup(3));
    EXPECT_TRUE(cache.lookup(5));
    EXPECT_EQ(cache.stats().evictions, 1u);
}

TEST(Hcrac, ReinsertPromotesInsteadOfDuplicating)
{
    Hcrac cache({4, 4});
    cache.insert(1);
    cache.insert(2);
    cache.insert(1); // Re-precharge: promote, no duplicate.
    cache.insert(3);
    cache.insert(4);
    cache.insert(5); // Should evict 2 (1 was promoted).
    EXPECT_TRUE(cache.lookup(1));
    EXPECT_FALSE(cache.lookup(2));
    EXPECT_EQ(cache.validCount(), 4);
}

TEST(Hcrac, InvalidateEntryClearsIt)
{
    Hcrac cache({4, 4});
    cache.insert(7);
    EXPECT_EQ(cache.validCount(), 1);
    for (int i = 0; i < 4; ++i)
        cache.invalidateEntry(i);
    EXPECT_EQ(cache.validCount(), 0);
    EXPECT_FALSE(cache.lookup(7));
    // Only the one valid entry counts as a sweep invalidation.
    EXPECT_EQ(cache.stats().sweepInvalidations, 1u);
}

TEST(Hcrac, InvalidateAll)
{
    Hcrac cache({128, 2});
    for (std::uint64_t k = 0; k < 64; ++k)
        cache.insert(k);
    EXPECT_GT(cache.validCount(), 0);
    cache.invalidateAll();
    EXPECT_EQ(cache.validCount(), 0);
}

TEST(Hcrac, FullAssociativityWorks)
{
    Hcrac cache({128, 128});
    EXPECT_EQ(cache.numSets(), 1);
    for (std::uint64_t k = 0; k < 128; ++k)
        cache.insert(k);
    for (std::uint64_t k = 0; k < 128; ++k)
        EXPECT_TRUE(cache.lookup(k));
    cache.insert(1000);
    EXPECT_EQ(cache.validCount(), 128);
}

TEST(Hcrac, LipInsertsAtLruPosition)
{
    Hcrac cache({2, 2, InsertPolicy::Lip});
    cache.insert(1);
    cache.lookup(1); // stamp(1) > 0.
    cache.insert(2); // LIP: stamp 0.
    cache.insert(3); // Evicts 2, not 1.
    EXPECT_TRUE(cache.lookup(1));
    EXPECT_FALSE(cache.lookup(2));
}

TEST(Hcrac, BipMostlyInsertsAtLru)
{
    Hcrac cache({2, 2, InsertPolicy::Bip, 1.0 / 32.0, 1});
    cache.insert(1);
    cache.lookup(1);
    int promoted = 0;
    for (std::uint64_t k = 2; k < 200; ++k) {
        cache.insert(k);
        if (!cache.lookup(1))
            ++promoted; // key 1 evicted => the new key went to MRU.
        cache.insert(1);
        cache.lookup(1);
    }
    // Epsilon = 1/32: a handful of MRU insertions out of ~200.
    EXPECT_LT(promoted, 30);
}

// ---------------------------------------------------------------------
// SweepInvalidator (the paper's IIC/EC counters).

TEST(SweepInvalidator, EveryEntryInvalidatedOncePerDuration)
{
    const Cycle duration = 1280;
    const int entries = 128;
    Hcrac cache({entries, 2});
    SweepInvalidator sweep(duration, entries);
    EXPECT_EQ(sweep.period(), duration / entries);
    for (std::uint64_t k = 0; k < 64; ++k)
        cache.insert(k);
    sweep.advanceTo(duration, cache);
    // After one full duration every slot has been swept at least once.
    EXPECT_EQ(cache.validCount(), 0);
}

TEST(SweepInvalidator, EntryNeverSurvivesLongerThanDuration)
{
    // Insert at a random phase; check gone after `duration`.
    const Cycle duration = 1000;
    const int entries = 10;
    for (Cycle phase = 0; phase < duration; phase += 37) {
        Hcrac cache({entries, 2});
        SweepInvalidator sweep(duration, entries);
        sweep.advanceTo(phase, cache);
        cache.insert(777);
        sweep.advanceTo(phase + duration, cache);
        EXPECT_FALSE(cache.lookup(777)) << "phase " << phase;
    }
}

TEST(SweepInvalidator, SweepsAreIncremental)
{
    const Cycle duration = 1000;
    const int entries = 10; // Period = 100.
    Hcrac cache({entries, entries});
    SweepInvalidator sweep(duration, entries);
    for (std::uint64_t k = 0; k < 10; ++k)
        cache.insert(k);
    sweep.advanceTo(99, cache);
    EXPECT_EQ(cache.validCount(), 10);
    sweep.advanceTo(100, cache);
    EXPECT_EQ(cache.validCount(), 9);
    sweep.advanceTo(499, cache);
    EXPECT_EQ(cache.validCount(), 6);
}

// ---------------------------------------------------------------------
// UnlimitedHcrac.

TEST(UnlimitedHcrac, HitsWithinDurationOnly)
{
    UnlimitedHcrac cache(1000);
    cache.insert(5, 100);
    EXPECT_TRUE(cache.lookup(5, 600));
    EXPECT_TRUE(cache.lookup(5, 1100));
    EXPECT_FALSE(cache.lookup(5, 1101));
}

TEST(UnlimitedHcrac, ReinsertRefreshesAge)
{
    UnlimitedHcrac cache(1000);
    cache.insert(5, 0);
    cache.insert(5, 900);
    EXPECT_TRUE(cache.lookup(5, 1800));
}

TEST(UnlimitedHcrac, NeverEvicts)
{
    UnlimitedHcrac cache(1 << 30);
    for (std::uint64_t k = 0; k < 5000; ++k)
        cache.insert(k, 0);
    int hits = 0;
    for (std::uint64_t k = 0; k < 5000; ++k)
        hits += cache.lookup(k, 100);
    EXPECT_EQ(hits, 5000);
}

// ---------------------------------------------------------------------
// Providers.

struct ProviderTest : ::testing::Test {
    dram::DramSpec spec = dram::DramSpec::ddr3_1600(1);

    ChargeCacheParams
    ccParams()
    {
        ChargeCacheParams p;
        p.table.entries = 128;
        p.table.ways = 2;
        p.durationCycles = 800000;
        p.trcdReduced = 7;
        p.trasReduced = 20;
        return p;
    }
};

TEST_F(ProviderTest, StandardAlwaysStandard)
{
    StandardProvider p(spec.timing);
    auto t = p.onActivate(0, rowAddr(0, 1), 100);
    EXPECT_EQ(t.trcd, 11);
    EXPECT_EQ(t.tras, 28);
    EXPECT_FALSE(t.reduced);
    EXPECT_EQ(p.activations, 1u);
    EXPECT_EQ(p.reducedActivations, 0u);
}

TEST_F(ProviderTest, LlDramAlwaysReduced)
{
    LowLatencyDramProvider p(7, 20);
    auto t = p.onActivate(0, rowAddr(0, 1), 100);
    EXPECT_TRUE(t.reduced);
    EXPECT_EQ(t.trcd, 7);
    EXPECT_DOUBLE_EQ(p.hitRate(), 1.0);
}

TEST_F(ProviderTest, ChargeCacheHitAfterPrecharge)
{
    ChargeCacheProvider p(spec.timing, ccParams(), 1);
    // First ACT: miss (nothing inserted yet).
    auto t0 = p.onActivate(0, rowAddr(2, 77), 1000);
    EXPECT_FALSE(t0.reduced);
    // Row precharged -> inserted.
    p.onPrecharge(0, rowAddr(2, 77), 77, 1100);
    // Re-activation shortly after: hit with reduced timing.
    auto t1 = p.onActivate(0, rowAddr(2, 77), 1200);
    EXPECT_TRUE(t1.reduced);
    EXPECT_EQ(t1.trcd, 7);
    EXPECT_EQ(t1.tras, 20);
}

TEST_F(ProviderTest, ChargeCacheEntryExpiresAfterDuration)
{
    ChargeCacheProvider p(spec.timing, ccParams(), 1);
    p.onPrecharge(0, rowAddr(2, 77), 77, 0);
    auto t = p.onActivate(0, rowAddr(2, 77), 800001);
    EXPECT_FALSE(t.reduced);
}

TEST_F(ProviderTest, PerCoreTablesAreIsolated)
{
    ChargeCacheParams params = ccParams();
    ChargeCacheProvider p(spec.timing, params, 2);
    p.onPrecharge(0, rowAddr(1, 5), 5, 100);
    // Core 1 does not see core 0's insertion.
    EXPECT_FALSE(p.onActivate(1, rowAddr(1, 5), 200).reduced);
    EXPECT_TRUE(p.onActivate(0, rowAddr(1, 5), 300).reduced);
}

TEST_F(ProviderTest, SharedTableIsVisibleToAllCores)
{
    ChargeCacheParams params = ccParams();
    params.sharedTable = true;
    ChargeCacheProvider p(spec.timing, params, 2);
    EXPECT_EQ(p.numTables(), 1);
    p.onPrecharge(0, rowAddr(1, 5), 5, 100);
    EXPECT_TRUE(p.onActivate(1, rowAddr(1, 5), 200).reduced);
}

TEST_F(ProviderTest, DifferentBanksDoNotAlias)
{
    ChargeCacheProvider p(spec.timing, ccParams(), 1);
    p.onPrecharge(0, rowAddr(1, 5), 5, 100);
    EXPECT_FALSE(p.onActivate(0, rowAddr(2, 5), 200).reduced);
    EXPECT_FALSE(p.onActivate(0, rowAddr(1, 6), 300).reduced);
}

TEST_F(ProviderTest, UnlimitedTrackerReportsHigherOrEqualHitRate)
{
    ChargeCacheParams params = ccParams();
    params.table.entries = 4; // Tiny table thrashes.
    params.table.ways = 2;
    params.trackUnlimited = true;
    ChargeCacheProvider p(spec.timing, params, 1);
    for (int r = 0; r < 64; ++r)
        p.onPrecharge(0, rowAddr(r % 8, r), r, 1000 + r);
    int reduced = 0;
    for (int r = 0; r < 64; ++r)
        reduced += p.onActivate(0, rowAddr(r % 8, r), 2000 + r).reduced;
    double limited = double(reduced) / 64.0;
    EXPECT_GE(p.unlimitedHitRate(), limited);
    EXPECT_GT(p.unlimitedHitRate(), 0.9);
}

TEST_F(ProviderTest, InvalidReducedTimingsRejected)
{
    ChargeCacheParams params = ccParams();
    params.trcdReduced = 20;
    params.trasReduced = 7; // tras <= trcd: nonsense.
    EXPECT_THROW(ChargeCacheProvider(spec.timing, params, 1), PanicError);
}

/** RefreshInfo stub with a fixed age for every row. */
struct FixedRefresh : RefreshInfo {
    std::int64_t age;
    explicit FixedRefresh(std::int64_t a) : age(a) {}
    std::int64_t
    lastRefreshCycle(int, int, int, Cycle now) const override
    {
        return static_cast<std::int64_t>(now) - age;
    }
};

NuatParams
twoBins()
{
    NuatParams p;
    p.bins.push_back({4800000, 8, 21});   // < 6 ms.
    p.bins.push_back({12800000, 9, 24});  // < 16 ms.
    return p;
}

TEST_F(ProviderTest, NuatYoungRowGetsFastestBin)
{
    FixedRefresh refresh(1000000); // 1.25 ms old.
    NuatProvider p(spec.timing, twoBins(), refresh);
    auto t = p.onActivate(0, rowAddr(0, 1), 50000000);
    EXPECT_TRUE(t.reduced);
    EXPECT_EQ(t.trcd, 8);
    EXPECT_EQ(t.tras, 21);
}

TEST_F(ProviderTest, NuatMiddleAgeGetsSecondBin)
{
    FixedRefresh refresh(8000000); // 10 ms old.
    NuatProvider p(spec.timing, twoBins(), refresh);
    auto t = p.onActivate(0, rowAddr(0, 1), 50000000);
    EXPECT_TRUE(t.reduced);
    EXPECT_EQ(t.trcd, 9);
}

TEST_F(ProviderTest, NuatOldRowGetsStandard)
{
    FixedRefresh refresh(20000000); // 25 ms old.
    NuatProvider p(spec.timing, twoBins(), refresh);
    auto t = p.onActivate(0, rowAddr(0, 1), 50000000);
    EXPECT_FALSE(t.reduced);
    EXPECT_EQ(t.trcd, 11);
}

TEST_F(ProviderTest, NuatBinsMustAscend)
{
    NuatParams bad;
    bad.bins.push_back({100, 8, 21});
    bad.bins.push_back({50, 9, 24});
    FixedRefresh refresh(0);
    EXPECT_THROW(NuatProvider(spec.timing, bad, refresh), PanicError);
}

TEST_F(ProviderTest, CombinedTakesTheBetterOfBoth)
{
    FixedRefresh refresh(20000000); // NUAT sees an old row.
    auto cc = std::make_unique<ChargeCacheProvider>(spec.timing,
                                                    ccParams(), 1);
    auto nuat = std::make_unique<NuatProvider>(spec.timing, twoBins(),
                                               refresh);
    CombinedProvider p(std::move(cc), std::move(nuat));
    // CC miss + NUAT standard -> standard.
    EXPECT_FALSE(p.onActivate(0, rowAddr(0, 9), 1000).reduced);
    // After a precharge, CC hits even though NUAT would not.
    p.onPrecharge(0, rowAddr(0, 9), 9, 2000);
    auto t = p.onActivate(0, rowAddr(0, 9), 3000);
    EXPECT_TRUE(t.reduced);
    EXPECT_EQ(t.trcd, 7);
}

TEST_F(ProviderTest, ResetStatsClearsCounters)
{
    ChargeCacheProvider p(spec.timing, ccParams(), 1);
    p.onPrecharge(0, rowAddr(0, 1), 1, 0);
    p.onActivate(0, rowAddr(0, 1), 10);
    EXPECT_GT(p.activations, 0u);
    p.resetStats();
    EXPECT_EQ(p.activations, 0u);
    EXPECT_EQ(p.tableStats().lookups, 0u);
}

TEST_F(ProviderTest, RowKeyPacksDistinctCoordinates)
{
    EXPECT_NE(rowKey(rowAddr(0, 1), 1), rowKey(rowAddr(1, 1), 1));
    EXPECT_NE(rowKey(rowAddr(0, 1), 1), rowKey(rowAddr(0, 2), 2));
    EXPECT_NE(rowKey(rowAddr(0, 1, 0), 1), rowKey(rowAddr(0, 1, 1), 1));
}

} // namespace
} // namespace ccsim::chargecache
