/**
 * @file
 * Virtual-memory subsystem tests: TLB replacement, walker level-by-level
 * PTE addresses, allocator determinism, full-system translation flow,
 * and — most load-bearing — kernel equivalence with VM enabled: the
 * PTW-injected DRAM traffic and translation stalls must leave both
 * simulation kernels bit-identical (CCSIM_PARANOID=1 upgrades the
 * equivalence cases to shadow-validated paranoid configs, exactly like
 * tests/test_system.cc).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/random.hh"
#include "sim/config.hh"
#include "sim/system.hh"
#include "system_compare.hh"
#include "vm/address_space.hh"
#include "vm/mmu.hh"
#include "vm/page_alloc.hh"
#include "vm/page_table.hh"
#include "vm/pwc.hh"
#include "vm/tlb.hh"
#include "workloads/profiles.hh"
#include "workloads/trace_file.hh"

namespace ccsim {
namespace {

// ---------------------------------------------------------------------
// TLB replacement.

TEST(Tlb, HitAfterInsertMissBefore)
{
    vm::TlbArray tlb(64, 4);
    Addr ppn = 0;
    EXPECT_FALSE(tlb.lookup(42, ppn));
    tlb.insert(42, 7);
    ASSERT_TRUE(tlb.lookup(42, ppn));
    EXPECT_EQ(ppn, 7u);
}

TEST(Tlb, LruEvictsLeastRecentlyUsedWay)
{
    // 8 entries, 4 ways -> 2 sets; even vpns map to set 0.
    vm::TlbArray tlb(8, 4);
    for (Addr v = 0; v < 8; v += 2)
        tlb.insert(v, v + 100); // Fills set 0: vpns 0,2,4,6.
    Addr ppn = 0;
    ASSERT_TRUE(tlb.lookup(0, ppn)); // Touch 0: vpn 2 is now LRU.
    tlb.insert(8, 108);              // Evicts vpn 2.
    EXPECT_FALSE(tlb.lookup(2, ppn));
    EXPECT_TRUE(tlb.lookup(0, ppn));
    EXPECT_TRUE(tlb.lookup(4, ppn));
    EXPECT_TRUE(tlb.lookup(6, ppn));
    EXPECT_TRUE(tlb.lookup(8, ppn));
}

TEST(Tlb, InsertRefreshesExistingEntryInPlace)
{
    vm::TlbArray tlb(8, 2);
    tlb.insert(4, 1);
    tlb.insert(8, 2); // Same set (4 sets: vpn & 3 == 0).
    tlb.insert(4, 9); // Refresh, not a second copy.
    Addr ppn = 0;
    ASSERT_TRUE(tlb.lookup(4, ppn));
    EXPECT_EQ(ppn, 9u);
    EXPECT_TRUE(tlb.lookup(8, ppn)); // Not evicted by the refresh.
}

TEST(Tlb, FlushDropsEverything)
{
    vm::TlbArray tlb(16, 4);
    tlb.insert(1, 10);
    tlb.flush();
    Addr ppn = 0;
    EXPECT_FALSE(tlb.lookup(1, ppn));
}

// ---------------------------------------------------------------------
// ASID tags: the multi-process isolation contract.

TEST(Tlb, AsidTagsIsolateAddressSpaces)
{
    vm::TlbArray tlb(16, 4);
    tlb.insert(42, 7, /*asid=*/0);
    tlb.insert(42, 9, /*asid=*/1);
    Addr ppn = 0;
    ASSERT_TRUE(tlb.lookup(42, ppn, 0));
    EXPECT_EQ(ppn, 7u);
    ASSERT_TRUE(tlb.lookup(42, ppn, 1));
    EXPECT_EQ(ppn, 9u);
    EXPECT_FALSE(tlb.lookup(42, ppn, 2));
    // Targeted invalidation drops only the named space's entry.
    tlb.invalidate(42, 0);
    EXPECT_FALSE(tlb.probe(42, 0));
    EXPECT_TRUE(tlb.probe(42, 1));
}

TEST(Tlb, FlushAsidDropsOnlyThatSpace)
{
    vm::TlbArray tlb(32, 4);
    for (Addr v = 0; v < 8; ++v) {
        tlb.insert(v, 100 + v, 0);
        tlb.insert(v, 200 + v, 1);
    }
    tlb.flushAsid(1);
    EXPECT_EQ(tlb.validCount(1), 0);
    EXPECT_GT(tlb.validCount(0), 0);
}

TEST(Tlb, PropertyLookupNeverReturnsAnotherSpacesTranslation)
{
    // Seeded randomized sequences of inserts and lookups across four
    // address spaces sharing the same vpn range: a hit must always
    // return the frame that was installed under the *same* asid.
    auto expect_ppn = [](Addr vpn, std::uint32_t asid) {
        return vpn * 17 + asid * 131 + 1;
    };
    vm::TlbArray tlb(64, 4);
    Rng rng(20260726);
    for (int step = 0; step < 20000; ++step) {
        Addr vpn = rng.below(96);
        auto asid = static_cast<std::uint32_t>(rng.below(4));
        if (rng.chance(0.5)) {
            tlb.insert(vpn, expect_ppn(vpn, asid), asid);
        } else {
            Addr ppn = 0;
            if (tlb.lookup(vpn, ppn, asid)) {
                ASSERT_EQ(ppn, expect_ppn(vpn, asid))
                    << "vpn " << vpn << " asid " << asid << " step "
                    << step;
            }
        }
        if (step % 1024 == 1023)
            tlb.flushAsid(static_cast<std::uint32_t>(rng.below(4)));
    }
}

// ---------------------------------------------------------------------
// Page-walk cache.

TEST(Pwc, HitReportsDeepestCachedLevelAndIsolatesAsids)
{
    vm::PwcConfig pc;
    pc.enable = true;
    pc.entriesPerLevel = 16;
    pc.ways = 4;
    vm::Pwc pwc(pc, 4);
    Addr vpn = (Addr(1) << 27) | (Addr(2) << 18) | (Addr(3) << 9) | 4;
    EXPECT_EQ(pwc.deepestCachedLevel(vpn, 0), -1);
    pwc.fill(vpn, 0, 0);
    pwc.fill(vpn, 1, 0);
    EXPECT_EQ(pwc.deepestCachedLevel(vpn, 0), 1);
    // A page sharing the upper tables hits at the same depth; another
    // address space sees nothing.
    EXPECT_EQ(pwc.deepestCachedLevel(vpn + 1, 0), 1);
    EXPECT_EQ(pwc.deepestCachedLevel(vpn, 1), -1);
    pwc.fill(vpn, 2, 0);
    EXPECT_EQ(pwc.deepestCachedLevel(vpn, 0), 2);
    const vm::Pwc::Stats &s = pwc.stats();
    EXPECT_EQ(s.lookups, 5u);
    EXPECT_EQ(s.hitsByLevel[1], 2u);
    EXPECT_EQ(s.hitsByLevel[2], 1u);
    // Hits at level k skip the fetches of levels 0..k.
    EXPECT_EQ(s.skippedFetches, 2u + 2u + 3u);
}

TEST(Pwc, MmuWalkFillsPwcAndShortensTheNextWalk)
{
    vm::VmConfig cfg;
    cfg.enable = true;
    cfg.pwc.enable = true;
    vm::Mmu mmu(cfg, 0, 0, 1ull << 20);
    // Page 0: full 4-level walk (PWC cold).
    ASSERT_EQ(mmu.beginTranslate(0, 0), vm::Mmu::Result::Miss);
    EXPECT_EQ(mmu.walkLevel(), 0);
    while (!mmu.pteReturned(1)) {
    }
    EXPECT_EQ(mmu.stats().pteFetches, 4u);
    // Page 1 shares levels 0..2: the walk starts at the leaf.
    ASSERT_EQ(mmu.beginTranslate(4096, 2), vm::Mmu::Result::Miss);
    EXPECT_EQ(mmu.walkLevel(), 3);
    EXPECT_TRUE(mmu.pteReturned(3));
    EXPECT_EQ(mmu.stats().pteFetches, 5u);
    EXPECT_EQ(mmu.stats().pwcLookups, 2u);
    EXPECT_EQ(mmu.stats().pwcHitsByLevel[2], 1u);
    EXPECT_EQ(mmu.stats().pwcSkippedFetches, 3u);
}

TEST(Pwc, MmuResetStatsClearsPwcCounters)
{
    // The warmup-boundary contract: resetStats must zero the mirrored
    // PWC counters too (same audit as the provider/HCRAC reset path).
    vm::VmConfig cfg;
    cfg.enable = true;
    cfg.pwc.enable = true;
    vm::Mmu mmu(cfg, 0, 0, 1ull << 20);
    ASSERT_EQ(mmu.beginTranslate(0, 0), vm::Mmu::Result::Miss);
    while (!mmu.pteReturned(1)) {
    }
    ASSERT_EQ(mmu.beginTranslate(4096, 2), vm::Mmu::Result::Miss);
    while (!mmu.pteReturned(3)) {
    }
    EXPECT_GT(mmu.stats().pwcLookups, 0u);
    EXPECT_GT(mmu.stats().pwcSkippedFetches, 0u);
    mmu.resetStats();
    EXPECT_EQ(mmu.stats().pwcLookups, 0u);
    EXPECT_EQ(mmu.stats().pwcSkippedFetches, 0u);
    EXPECT_EQ(mmu.stats().pwcHits(), 0u);
    EXPECT_EQ(mmu.stats().walks, 0u);
}

// ---------------------------------------------------------------------
// Address spaces: shared mappings, unmap/remap reclaim.

TEST(AddressSpace, RemapReclaimsOldestMappingAndReportsVictim)
{
    vm::VmConfig cfg;
    cfg.enable = true;
    cfg.mp.processes = 2;
    cfg.mp.remapPeriod = 4;
    vm::AddressSpace as(cfg, 0, 0, 1ull << 20);
    std::uint64_t frame0 = 0;
    for (Addr v = 0; v < 4; ++v) {
        auto out = as.mapPage(v, 0);
        EXPECT_TRUE(out.firstTouch);
        EXPECT_FALSE(out.remapped);
        if (v == 0)
            frame0 = out.ppn;
    }
    // 4th first-touch after the pool started filling: reclaim vpn 0.
    auto out = as.mapPage(100, 0);
    EXPECT_TRUE(out.firstTouch);
    ASSERT_TRUE(out.remapped);
    EXPECT_EQ(out.victimVpn, 0u);
    EXPECT_EQ(out.ppn, frame0);
    std::uint64_t ppn = 0;
    EXPECT_FALSE(as.lookup(0, ppn));
    ASSERT_TRUE(as.lookup(100, ppn));
    EXPECT_EQ(ppn, frame0);
    EXPECT_EQ(as.remaps(), 1u);
}

TEST(AddressSpace, SharedMappingIsStableAcrossTouches)
{
    vm::VmConfig cfg;
    cfg.enable = true;
    vm::AddressSpace as(cfg, 3, 0, 1ull << 20);
    auto first = as.mapPage(7, 10);
    auto again = as.mapPage(7, 99);
    EXPECT_TRUE(first.firstTouch);
    EXPECT_FALSE(again.firstTouch);
    EXPECT_EQ(first.ppn, again.ppn);
}

// ---------------------------------------------------------------------
// Allocator aging.

TEST(PageAllocator, AgingRampGrowsDisplacementOverSimulatedTime)
{
    vm::AgingSpec aging;
    aging.maxDegree = 1.0;
    aging.rampCycles = 1000000;
    vm::PageAllocator a(vm::PageAlloc::Contiguous, 4096, 7, 0.0, 0,
                        aging);
    // Early allocations (degree 0): identity.
    for (std::uint64_t i = 0; i < 1024; ++i)
        ASSERT_EQ(a.frameForAt(i, 0), i);
    // Late allocations (degree 1): heavily displaced.
    double displaced = 0;
    for (std::uint64_t i = 1024; i < 4096; ++i) {
        double d = double(a.frameForAt(i, 2000000)) - double(i);
        displaced += d < 0 ? -d : d;
    }
    EXPECT_GT(displaced / 3072, 64.0);
    EXPECT_DOUBLE_EQ(a.degreeAt(0), 0.0);
    EXPECT_DOUBLE_EQ(a.degreeAt(500000), 0.5);
    EXPECT_DOUBLE_EQ(a.degreeAt(5000000), 1.0);
}

TEST(PageAllocator, AgingIsDeterministicGivenTouchTimes)
{
    vm::AgingSpec aging;
    aging.maxDegree = 0.8;
    aging.rampCycles = 10000;
    vm::PageAllocator a(vm::PageAlloc::Fragmented, 512, 11, 0.1, 2,
                        aging);
    vm::PageAllocator b(vm::PageAlloc::Fragmented, 512, 11, 0.1, 2,
                        aging);
    std::set<std::uint64_t> seen;
    for (std::uint64_t i = 0; i < 512; ++i) {
        CpuCycle now = i * 40;
        std::uint64_t fa = a.frameForAt(i, now);
        ASSERT_EQ(fa, b.frameForAt(i, now)) << i;
        seen.insert(fa);
    }
    EXPECT_EQ(seen.size(), 512u); // Still a bijection.
}

TEST(PageAllocator, AgingDisabledMatchesStaticShuffle)
{
    vm::PageAllocator s(vm::PageAlloc::Fragmented, 256, 99, 0.7, 1);
    vm::PageAllocator d(vm::PageAlloc::Fragmented, 256, 99, 0.7, 1);
    for (std::uint64_t i = 0; i < 512; ++i)
        EXPECT_EQ(d.frameForAt(i, i * 1000), s.frameFor(i)) << i;
}

// ---------------------------------------------------------------------
// Multi-process Mmu: ASID isolation, context switches, shootdowns.

vm::VmConfig
mpVmConfig(int processes, std::uint64_t remap_period)
{
    vm::VmConfig cfg;
    cfg.enable = true;
    cfg.l1Entries = 16;
    cfg.l1Ways = 4;
    cfg.l2Entries = 64;
    cfg.l2Ways = 4;
    cfg.mp.processes = processes;
    cfg.mp.remapPeriod = remap_period;
    return cfg;
}

struct MpRig {
    std::vector<std::unique_ptr<vm::AddressSpace>> owned;
    std::vector<vm::AddressSpace *> spaces;
    std::vector<std::unique_ptr<vm::Mmu>> mmus;

    MpRig(const vm::VmConfig &cfg, int n_cores)
    {
        Addr region = 1ull << 20;
        for (int s = 0; s < cfg.mp.processes; ++s) {
            owned.push_back(std::make_unique<vm::AddressSpace>(
                cfg, s, region * s, region));
            spaces.push_back(owned.back().get());
        }
        for (int c = 0; c < n_cores; ++c)
            mmus.push_back(
                std::make_unique<vm::Mmu>(cfg, c, spaces, 64, 42));
    }

    /** Drive one full translation; returns the physical line. */
    Addr
    translate(int core, Addr vaddr, CpuCycle now)
    {
        vm::Mmu &m = *mmus[core];
        vm::Mmu::Result r = m.beginTranslate(vaddr, now);
        if (r == vm::Mmu::Result::L2Hit)
            m.completeL2();
        if (r == vm::Mmu::Result::Miss)
            while (!m.pteReturned(now)) {
            }
        return m.translatedLine();
    }

    /** System-free shootdown broadcast: what System::shootdownBroadcast
        does to the TLBs, minus the core stalls. */
    bool
    broadcastIfPending(int initiator, std::uint32_t &asid, Addr &vpn)
    {
        if (!mmus[initiator]->takePendingShootdown(asid, vpn))
            return false;
        for (int c = 0; c < static_cast<int>(mmus.size()); ++c)
            if (c != initiator)
                mmus[c]->invalidateTranslation(asid, vpn);
        return true;
    }
};

TEST(Mmu, AsidTagsPreventCrossSpaceTranslationReuse)
{
    vm::VmConfig cfg = mpVmConfig(2, 0);
    MpRig rig(cfg, 1);
    vm::Mmu &m = *rig.mmus[0];
    const std::uint32_t asid_a = m.currentAsid();
    Addr line_a = rig.translate(0, 0x5000, 0);
    // Same vaddr is an L1 hit within the same space...
    ASSERT_EQ(m.beginTranslate(0x5000, 1), vm::Mmu::Result::L1Hit);
    // ...but after a context switch the tags must force a fresh walk
    // into the other space's region.
    m.contextSwitch();
    ASSERT_NE(m.currentAsid(), asid_a);
    ASSERT_EQ(m.beginTranslate(0x5000, 2), vm::Mmu::Result::Miss);
    while (!m.pteReturned(2)) {
    }
    Addr line_b = m.translatedLine();
    EXPECT_NE(line_a, line_b);
    EXPECT_LT(line_a, 1ull << 20);  // Space 0's region.
    EXPECT_GE(line_b, 1ull << 20);  // Space 1's region.
    EXPECT_EQ(m.stats().contextSwitches, 1u);
}

TEST(Mmu, PropertyShootdownLeavesZeroStaleEntriesAcrossAllCores)
{
    // Seeded randomized multi-core stress: after every broadcast, no
    // TLB anywhere may still hold the victim translation — and it must
    // stay gone until the page is touched again.
    vm::VmConfig cfg = mpVmConfig(3, 8);
    const int cores = 4;
    MpRig rig(cfg, cores);
    Rng rng(0xBADA55);
    int shootdowns = 0;
    for (int step = 0; step < 4000; ++step) {
        int c = static_cast<int>(rng.below(cores));
        if (rng.chance(0.02))
            rig.mmus[c]->contextSwitch();
        Addr vaddr = rng.below(64) * 4096 + rng.below(4096);
        rig.translate(c, vaddr, static_cast<CpuCycle>(step) * 10);
        std::uint32_t asid;
        Addr victim;
        if (rig.broadcastIfPending(c, asid, victim)) {
            ++shootdowns;
            for (int k = 0; k < cores; ++k) {
                EXPECT_FALSE(rig.mmus[k]->l1Tlb().probe(victim, asid))
                    << "stale L1 entry on core " << k << " step "
                    << step;
                EXPECT_FALSE(rig.mmus[k]->l2Tlb().probe(victim, asid))
                    << "stale L2 entry on core " << k << " step "
                    << step;
            }
        }
    }
    EXPECT_GT(shootdowns, 10);
}

TEST(Mmu, ContextSwitchScheduleIsDeterministicPerSeed)
{
    vm::VmConfig cfg = mpVmConfig(4, 0);
    MpRig a(cfg, 2), b(cfg, 2);
    for (int i = 0; i < 50; ++i) {
        a.mmus[0]->contextSwitch();
        b.mmus[0]->contextSwitch();
        ASSERT_EQ(a.mmus[0]->currentAsid(), b.mmus[0]->currentAsid());
        ASSERT_EQ(a.mmus[0]->nextQuantum(), b.mmus[0]->nextQuantum());
    }
    // Different cores draw different schedules from the same seed.
    bool diverged = false;
    for (int i = 0; i < 20 && !diverged; ++i) {
        a.mmus[0]->contextSwitch();
        a.mmus[1]->contextSwitch();
        diverged = a.mmus[0]->currentAsid() != a.mmus[1]->currentAsid();
    }
    EXPECT_TRUE(diverged);
}

// ---------------------------------------------------------------------
// Page-table walker address generation.

TEST(PageTable, FourLevelWalkVisitsDistinctTablesPerLevel)
{
    // Pool of 64 table frames starting at line 1000.
    vm::PageTable pt(4, 1000, 64, 64);
    // vpn with distinct 9-bit indices per level:
    //   L0 idx 1, L1 idx 2, L2 idx 3, L3 idx 4.
    Addr vpn = (Addr(1) << 27) | (Addr(2) << 18) | (Addr(3) << 9) | 4;
    // Root is the first frame allocated; each deeper level allocates
    // the next frame on first touch. A 4 KB table is 64 lines; a line
    // holds 8 PTEs, so the line offset within a table is idx / 8.
    EXPECT_EQ(pt.pteLineFor(vpn, 0), 1000u + 0 * 64 + 1 / 8);
    EXPECT_EQ(pt.pteLineFor(vpn, 1), 1000u + 1 * 64 + 2 / 8);
    EXPECT_EQ(pt.pteLineFor(vpn, 2), 1000u + 2 * 64 + 3 / 8);
    EXPECT_EQ(pt.pteLineFor(vpn, 3), 1000u + 3 * 64 + 4 / 8);
    EXPECT_EQ(pt.tablesAllocated(), 4u);
}

TEST(PageTable, AdjacentPagesShareLeafTableAndOftenALine)
{
    vm::PageTable pt(4, 0, 64, 64);
    // Walk page 0 fully, then page 1: levels 0..2 reuse the same
    // tables, and the leaf PTEs of vpn 0 and vpn 1 share one line
    // (8 PTEs per 64 B line) — the page-walk locality that makes PTW
    // rows chargeable in the HCRAC.
    for (int level = 0; level < 4; ++level)
        pt.pteLineFor(0, level);
    EXPECT_EQ(pt.tablesAllocated(), 4u);
    for (int level = 0; level < 3; ++level)
        pt.pteLineFor(1, level);
    EXPECT_EQ(pt.tablesAllocated(), 4u); // No new tables.
    EXPECT_EQ(pt.pteLineFor(1, 3), pt.pteLineFor(0, 3));
    // vpn 8 is the first leaf PTE on the next line of the same table.
    EXPECT_EQ(pt.pteLineFor(8, 3), pt.pteLineFor(0, 3) + 1);
}

TEST(PageTable, ThreeLevelWalkForHugePages)
{
    vm::PageTable pt(3, 500, 16, 64);
    Addr vpn2m = (Addr(1) << 18) | (Addr(2) << 9) | 3;
    EXPECT_EQ(pt.pteLineFor(vpn2m, 0), 500u + 0 * 64 + 0);
    EXPECT_EQ(pt.pteLineFor(vpn2m, 1), 500u + 1 * 64 + 2 / 8);
    EXPECT_EQ(pt.pteLineFor(vpn2m, 2), 500u + 2 * 64 + 3 / 8);
    EXPECT_EQ(pt.tablesAllocated(), 3u);
}

// ---------------------------------------------------------------------
// Allocator determinism.

TEST(PageAllocator, ContiguousIsIdentityInTouchOrder)
{
    vm::PageAllocator a(vm::PageAlloc::Contiguous, 128, 0, 0.0, 0);
    for (std::uint64_t i = 0; i < 128; ++i)
        EXPECT_EQ(a.frameFor(i), i);
    EXPECT_EQ(a.frameFor(130), 2u); // Wraps modulo the pool.
}

TEST(PageAllocator, FragmentedIsAPermutationAndDeterministic)
{
    vm::PageAllocator a(vm::PageAlloc::Fragmented, 256, 99, 0.7, 1);
    vm::PageAllocator b(vm::PageAlloc::Fragmented, 256, 99, 0.7, 1);
    std::set<std::uint64_t> seen;
    for (std::uint64_t i = 0; i < 256; ++i) {
        EXPECT_EQ(a.frameFor(i), b.frameFor(i)) << i;
        EXPECT_LT(a.frameFor(i), 256u);
        seen.insert(a.frameFor(i));
    }
    EXPECT_EQ(seen.size(), 256u); // Bijection: no frame reused.
}

TEST(PageAllocator, SeedAndCoreChangeTheShuffle)
{
    vm::PageAllocator a(vm::PageAlloc::Fragmented, 256, 1, 1.0, 0);
    vm::PageAllocator b(vm::PageAlloc::Fragmented, 256, 2, 1.0, 0);
    vm::PageAllocator c(vm::PageAlloc::Fragmented, 256, 1, 1.0, 1);
    int diff_seed = 0, diff_core = 0;
    for (std::uint64_t i = 0; i < 256; ++i) {
        diff_seed += a.frameFor(i) != b.frameFor(i);
        diff_core += a.frameFor(i) != c.frameFor(i);
    }
    EXPECT_GT(diff_seed, 128);
    EXPECT_GT(diff_core, 128);
}

TEST(PageAllocator, DegreeControlsDisplacement)
{
    // Mean |frame - slot| displacement grows with the degree — the
    // quantity that destroys virtual-adjacency in physical space.
    auto displacement = [](double degree) {
        vm::PageAllocator a(vm::PageAlloc::Fragmented, 4096, 7, degree, 0);
        double sum = 0;
        for (std::uint64_t i = 0; i < 4096; ++i) {
            double d = double(a.frameFor(i)) - double(i);
            sum += d < 0 ? -d : d;
        }
        return sum / 4096;
    };
    double d0 = displacement(0.0);
    double d_half = displacement(0.5);
    double d_full = displacement(1.0);
    EXPECT_EQ(d0, 0.0);
    EXPECT_GT(d_half, 64.0);
    EXPECT_GT(d_full, d_half);
}

// ---------------------------------------------------------------------
// Mmu translation flow.

TEST(Mmu, WalkThenTlbHitsThenCapacityMiss)
{
    vm::VmConfig cfg;
    cfg.enable = true;
    cfg.l1Entries = 8;
    cfg.l1Ways = 4;
    cfg.l2Entries = 16;
    cfg.l2Ways = 4;
    // Region: 1 << 20 lines = 64 MB.
    vm::Mmu mmu(cfg, 0, 0, 1ull << 20);

    // First touch of page 0: full miss, 4-level walk.
    ASSERT_EQ(mmu.beginTranslate(0x234, 0), vm::Mmu::Result::Miss);
    for (int level = 1; level < 4; ++level)
        EXPECT_FALSE(mmu.pteReturned(10 * level));
    EXPECT_TRUE(mmu.pteReturned(40));
    // Contiguous allocator: the first-touched page gets frame 0; the
    // line carries the in-page offset (0x234 >> 6 = line 8).
    EXPECT_EQ(mmu.translatedLine(), mmu.dataBaseLine() + 0x234 / 64);

    // Same page again: L1 hit, same frame.
    ASSERT_EQ(mmu.beginTranslate(0x100, 5), vm::Mmu::Result::L1Hit);
    EXPECT_EQ(mmu.translatedLine(), mmu.dataBaseLine() + 0x100 / 64);

    // Blow out L1 set 0 (2 sets x 4 ways; even vpns land in set 0):
    // walking pages 1..8 pushes four more even vpns through it, so
    // vpn 0 falls out of L1 — but its L2 set ({0,4,8} of 4 ways)
    // still holds it.
    for (Addr p = 1; p <= 8; ++p) {
        if (mmu.beginTranslate(p * 4096, 100 + p) == vm::Mmu::Result::Miss)
            while (!mmu.pteReturned(100 + p)) {
            }
    }
    EXPECT_EQ(mmu.beginTranslate(0x0, 200), vm::Mmu::Result::L2Hit);
    mmu.completeL2();
    EXPECT_EQ(mmu.translatedLine(), mmu.dataBaseLine() + 0u);

    const vm::VmStats &s = mmu.stats();
    EXPECT_EQ(s.walks, 9u); // Pages 0..8 each walked once.
    EXPECT_EQ(s.pteFetches, 9u * 4);
    EXPECT_EQ(s.pagesMapped, 9u);
    EXPECT_GE(s.l2Hits, 1u);
    EXPECT_GT(s.walkCycleSum, 0u);
}

TEST(Mmu, WalkLatencyAccountsBeginToLastPte)
{
    vm::VmConfig cfg;
    cfg.enable = true;
    vm::Mmu mmu(cfg, 0, 0, 1ull << 20);
    ASSERT_EQ(mmu.beginTranslate(0, 1000), vm::Mmu::Result::Miss);
    mmu.pteReturned(1100);
    mmu.pteReturned(1200);
    mmu.pteReturned(1300);
    EXPECT_TRUE(mmu.pteReturned(1400));
    EXPECT_EQ(mmu.stats().walkCycleSum, 400u);
    EXPECT_DOUBLE_EQ(mmu.stats().avgWalkCycles(), 400.0);
}

TEST(Mmu, HugePagesWalkThreeLevelsAndPreserveAdjacency)
{
    vm::VmConfig cfg;
    cfg.enable = true;
    cfg.alloc = vm::PageAlloc::HugePage;
    vm::Mmu mmu(cfg, 0, 0, 1ull << 22); // 256 MB region.
    ASSERT_EQ(mmu.beginTranslate(0, 0), vm::Mmu::Result::Miss);
    EXPECT_FALSE(mmu.pteReturned(1));
    EXPECT_FALSE(mmu.pteReturned(2));
    EXPECT_TRUE(mmu.pteReturned(3)); // 3 levels only.
    Addr line0 = mmu.translatedLine();
    // Any address inside the same 2 MB page is an L1 hit at the
    // expected line offset — adjacency across the whole huge page.
    ASSERT_EQ(mmu.beginTranslate((2 << 20) - 64, 4),
              vm::Mmu::Result::L1Hit);
    EXPECT_EQ(mmu.translatedLine(), line0 + (2 << 20) / 64 - 1);
}

TEST(Mmu, PtPoolLinesAreDisjointFromDataLines)
{
    vm::VmConfig cfg;
    cfg.enable = true;
    vm::Mmu mmu(cfg, 0, 0, 1ull << 20);
    // Walk a few scattered pages and collect PTE lines.
    std::set<Addr> pte_lines;
    for (Addr p : {0ull, 77ull, 512ull, 100000ull}) {
        auto r = mmu.beginTranslate(p * 4096, 0);
        if (r == vm::Mmu::Result::Miss) {
            pte_lines.insert(mmu.pteLine());
            while (!mmu.pteReturned(0))
                pte_lines.insert(mmu.pteLine());
        }
    }
    // Data frames occupy the bottom of the region; every PTE line must
    // sit above the highest possible data line.
    Addr data_top = mmu.dataBaseLine() +
                    mmu.allocator().poolFrames() * (4096 / 64);
    for (Addr line : pte_lines)
        EXPECT_GE(line, data_top);
}

// ---------------------------------------------------------------------
// Full-system behavior with VM enabled.

sim::SimConfig
vmSingle(sim::Scheme scheme, vm::PageAlloc alloc,
         double frag_degree = 0.75)
{
    sim::SimConfig cfg = sim::SimConfig::singleCore();
    cfg.scheme = scheme;
    cfg.targetInsts = 15000;
    cfg.warmupInsts = 3000;
    cfg.vm.enable = true;
    cfg.vm.alloc = alloc;
    cfg.vm.fragDegree = frag_degree;
    cfg.finalizeChargeCache();
    return cfg;
}

TEST(VmSystem, TranslationFlowProducesWalkTrafficAndSaneMetrics)
{
    sim::System sys(vmSingle(sim::Scheme::ChargeCache,
                             vm::PageAlloc::Contiguous),
                    {"apache20"});
    sim::SystemResult r = sys.run();
    EXPECT_GT(r.ipc[0], 0.0);
    EXPECT_GT(r.vm.lookups, 0u);
    EXPECT_GT(r.vm.walks, 0u);
    // 4-level walks; a walk straddling the warm-up stats reset can
    // shift the count by up to one walk's worth of fetches.
    EXPECT_NEAR(double(r.vm.pteFetches), double(r.vm.walks) * 4, 4.0);
    EXPECT_GT(r.ctrl.ptwReads, 0u);             // Walks reached DRAM.
    EXPECT_GT(r.ctrl.ptwActs, 0u);
    EXPECT_LE(r.ctrl.ptwActHits, r.ctrl.ptwActs);
    EXPECT_GT(r.ctrl.ptwActHits, 0u); // PTW rows do charge the HCRAC.
    EXPECT_GT(r.xlatStallCycles, 0u);
    EXPECT_GE(r.vm.l1HitRate(), 0.0);
    EXPECT_LE(r.vm.l1HitRate(), 1.0);
    EXPECT_GT(r.vm.avgWalkCycles(), 0.0);
}

TEST(VmSystem, DisabledVmMatchesLegacyPhysicalModeExactly)
{
    // The byte-identity acceptance criterion, in-tree: a VM-disabled
    // run must equal a run of the same config built before the vm
    // member existed — i.e. the vm field's presence alone must not
    // perturb anything.
    sim::SimConfig cfg = sim::SimConfig::singleCore();
    cfg.scheme = sim::Scheme::ChargeCache;
    cfg.targetInsts = 15000;
    cfg.warmupInsts = 3000;
    cfg.finalizeChargeCache();
    sim::System a(cfg, {"tpch6"});
    sim::System b(cfg, {"tpch6"});
    sim::SystemResult ra = a.run();
    sim::SystemResult rb = b.run();
    EXPECT_EQ(ra.cpuCycles, rb.cpuCycles);
    EXPECT_EQ(ra.activations, rb.activations);
    EXPECT_EQ(ra.vm.lookups, 0u);
    EXPECT_EQ(ra.ctrl.ptwReads, 0u);
    EXPECT_EQ(ra.xlatStallCycles, 0u);
}

TEST(VmSystem, HugePagesRaiseTlbReachAndIpc)
{
    sim::System small(vmSingle(sim::Scheme::Baseline,
                               vm::PageAlloc::Contiguous),
                      {"apache20"});
    sim::System huge(vmSingle(sim::Scheme::Baseline,
                              vm::PageAlloc::HugePage),
                     {"apache20"});
    sim::SystemResult rs = small.run();
    sim::SystemResult rh = huge.run();
    EXPECT_GT(rh.vm.l1HitRate(), rs.vm.l1HitRate());
    EXPECT_LT(rh.vm.missRate(), rs.vm.missRate());
    EXPECT_GT(rh.ipc[0], rs.ipc[0]);
    // 3-level walks (modulo one walk straddling the warm-up reset).
    EXPECT_NEAR(double(rh.vm.pteFetches), double(rh.vm.walks) * 3, 3.0);
}

TEST(VmSystem, FragmentationDegradesChargeCacheHitRate)
{
    // The tentpole claim at test scale: scattering pages destroys the
    // row locality ChargeCache feeds on (bench/abl_vm_fragmentation
    // sweeps this fully).
    sim::System contig(vmSingle(sim::Scheme::ChargeCache,
                                vm::PageAlloc::Contiguous),
                       {"apache20"});
    sim::SimConfig frag_cfg = vmSingle(sim::Scheme::ChargeCache,
                                       vm::PageAlloc::Fragmented, 1.0);
    sim::System frag(frag_cfg, {"apache20"});
    sim::SystemResult rc = contig.run();
    sim::SystemResult rf = frag.run();
    EXPECT_GT(rc.hcracHitRate, rf.hcracHitRate);
}

TEST(VmSystem, DeterministicAcrossRuns)
{
    sim::SimConfig cfg = vmSingle(sim::Scheme::ChargeCache,
                                  vm::PageAlloc::Fragmented, 0.6);
    sim::System a(cfg, {"apache20"});
    sim::System b(cfg, {"apache20"});
    sim::SystemResult ra = a.run();
    sim::SystemResult rb = b.run();
    EXPECT_EQ(ra.cpuCycles, rb.cpuCycles);
    EXPECT_EQ(ra.activations, rb.activations);
    EXPECT_EQ(ra.vm.walks, rb.vm.walks);
    EXPECT_EQ(ra.vm.walkCycleSum, rb.vm.walkCycleSum);
    EXPECT_EQ(ra.ctrl.ptwActHits, rb.ctrl.ptwActHits);
}

// ---------------------------------------------------------------------
// Kernel equivalence with VM enabled: TLB-miss stalls, PTE fetches and
// walk wake-ups ride the existing park/wake machinery, so PerCycle and
// Calendar must still agree bit for bit — including the new VM/PTW
// statistics. Named KernelEquivalence.* so the
// `kernel_equivalence_suite` ctest (labels kernel;equivalence) and the
// CI paranoid job pick these up automatically.

sim::SimConfig
vmTwoCore(sim::Scheme scheme, sim::KernelMode kernel, vm::PageAlloc alloc)
{
    sim::SimConfig cfg;
    cfg.nCores = 2;
    cfg.channels = 1;
    cfg.ctrl.rowPolicy = ctrl::RowPolicy::Closed;
    cfg.ctrl.trackRltl = true;
    cfg.scheme = scheme;
    cfg.targetInsts = 9000;
    cfg.warmupInsts = 1500;
    cfg.kernel = kernel;
    cfg.vm.enable = true;
    cfg.vm.alloc = alloc;
    cfg.vm.fragDegree = 0.8;
    // A small L2 TLB keeps walks frequent at test scale.
    cfg.vm.l2Entries = 64;
    cfg.vm.l2Ways = 4;
    cfg.finalizeChargeCache();
    test::applyEnvParanoia(cfg);
    return cfg;
}

void
expectVmResultsIdentical(const sim::SystemResult &a,
                         const sim::SystemResult &b, const char *label)
{
    SCOPED_TRACE(label);
    ASSERT_EQ(a.ipc.size(), b.ipc.size());
    for (size_t i = 0; i < a.ipc.size(); ++i)
        EXPECT_EQ(a.ipc[i], b.ipc[i]) << "core " << i;
    EXPECT_EQ(a.cpuCycles, b.cpuCycles);
    EXPECT_EQ(a.activations, b.activations);
    EXPECT_EQ(a.providerHitRate, b.providerHitRate);
    EXPECT_EQ(a.hcracHitRate, b.hcracHitRate);
    EXPECT_EQ(a.ctrl.reads, b.ctrl.reads);
    EXPECT_EQ(a.ctrl.writes, b.ctrl.writes);
    EXPECT_EQ(a.ctrl.acts, b.ctrl.acts);
    EXPECT_EQ(a.ctrl.rowHits, b.ctrl.rowHits);
    EXPECT_EQ(a.ctrl.rowConflicts, b.ctrl.rowConflicts);
    EXPECT_EQ(a.ctrl.readLatencySum, b.ctrl.readLatencySum);
    EXPECT_EQ(a.ctrl.ptwReads, b.ctrl.ptwReads);
    EXPECT_EQ(a.ctrl.ptwActs, b.ctrl.ptwActs);
    EXPECT_EQ(a.ctrl.ptwActHits, b.ctrl.ptwActHits);
    EXPECT_EQ(a.llc.accesses, b.llc.accesses);
    EXPECT_EQ(a.llc.hits, b.llc.hits);
    EXPECT_EQ(a.llc.misses, b.llc.misses);
    EXPECT_EQ(a.llc.blockedMshr, b.llc.blockedMshr);
    EXPECT_EQ(a.vm.lookups, b.vm.lookups);
    EXPECT_EQ(a.vm.l1Hits, b.vm.l1Hits);
    EXPECT_EQ(a.vm.l2Hits, b.vm.l2Hits);
    EXPECT_EQ(a.vm.walks, b.vm.walks);
    EXPECT_EQ(a.vm.pteFetches, b.vm.pteFetches);
    EXPECT_EQ(a.vm.walkCycleSum, b.vm.walkCycleSum);
    EXPECT_EQ(a.vm.pagesMapped, b.vm.pagesMapped);
    EXPECT_EQ(a.xlatStallCycles, b.xlatStallCycles);
    EXPECT_EQ(a.energy.totalNj(), b.energy.totalNj());
}

TEST(KernelEquivalence, VmEnabledAllKernelsAgree)
{
    const std::vector<std::string> workloads = {"apache20", "mcf"};
    for (vm::PageAlloc alloc :
         {vm::PageAlloc::Contiguous, vm::PageAlloc::Fragmented,
          vm::PageAlloc::HugePage}) {
        sim::System ref(vmTwoCore(sim::Scheme::ChargeCache,
                                  sim::KernelMode::PerCycle, alloc),
                        workloads);
        sim::SystemResult rr = ref.run();
        ASSERT_GT(rr.vm.walks, 0u) << vm::pageAllocName(alloc);
        sim::System fast(vmTwoCore(sim::Scheme::ChargeCache,
                                   sim::KernelMode::Calendar, alloc),
                         workloads);
        expectVmResultsIdentical(rr, fast.run(),
                                 vm::pageAllocName(alloc));
    }
}

TEST(KernelEquivalence, VmParanoidShadowValidates)
{
    // Every skip/park/wake decision the calendar kernel takes across
    // translation stalls and PTE fetch returns is executed-and-asserted
    // under the per-cycle schedule, with its wake queue and cached
    // horizons shadow-run.
    const std::vector<std::string> workloads = {"apache20", "mcf"};
    sim::System ref(vmTwoCore(sim::Scheme::ChargeCache,
                              sim::KernelMode::PerCycle,
                              vm::PageAlloc::Fragmented),
                    workloads);
    sim::SystemResult rr = ref.run();
    sim::SimConfig cfg = vmTwoCore(sim::Scheme::ChargeCache,
                                   sim::KernelMode::Calendar,
                                   vm::PageAlloc::Fragmented);
    cfg.kernelParanoid = true;
    sim::System paranoid(cfg, workloads);
    expectVmResultsIdentical(rr, paranoid.run(), "paranoid calendar");
}

// ---------------------------------------------------------------------
// Multi-process OS pressure at system level: address-space switches,
// TLB shootdowns, the page-walk cache and allocator aging, live in a
// full System run — and, most load-bearing, the OS-pressure
// equivalence matrix holding both kernels bit-identical through
// Shootdown stalls, switch-induced TLB churn and remap storms.

struct OsPressurePoint {
    int processes;
    std::uint64_t quantum;
    std::uint64_t remapPeriod;
    bool pwc;
    bool flushOnSwitch;
    bool aging;
};

sim::SimConfig
mpSystemConfig(const OsPressurePoint &p, sim::KernelMode kernel,
               int cores = 2, int channels = 1)
{
    sim::SimConfig cfg;
    cfg.nCores = cores;
    cfg.channels = channels;
    cfg.ctrl.rowPolicy = ctrl::RowPolicy::Closed;
    cfg.scheme = sim::Scheme::ChargeCache;
    cfg.targetInsts = 8000;
    cfg.warmupInsts = 1500;
    cfg.kernel = kernel;
    cfg.vm.enable = true;
    // Small TLBs keep translation pressure high at test scale.
    cfg.vm.l1Entries = 16;
    cfg.vm.l1Ways = 4;
    cfg.vm.l2Entries = 64;
    cfg.vm.l2Ways = 4;
    cfg.vm.mp.processes = p.processes;
    cfg.vm.mp.switchQuantum = p.quantum;
    cfg.vm.mp.remapPeriod = p.remapPeriod;
    cfg.vm.mp.shootdownCycles = 64;
    cfg.vm.mp.flushOnSwitch = p.flushOnSwitch;
    cfg.vm.pwc.enable = p.pwc;
    if (p.aging) {
        cfg.vm.aging.maxDegree = 1.0;
        cfg.vm.aging.rampCycles = 30000;
    }
    cfg.finalizeChargeCache();
    test::applyEnvParanoia(cfg);
    return cfg;
}

TEST(MpSystem, SwitchesShootdownsAndStallsAllHappen)
{
    OsPressurePoint p{2, 700, 12, false, false, false};
    const std::vector<std::string> w = {"mcf", "omnetpp"};
    sim::System sys(mpSystemConfig(p, sim::KernelMode::Calendar), w);
    sim::SystemResult r = sys.run();
    EXPECT_GT(r.vm.contextSwitches, 0u);
    EXPECT_GT(r.vm.remaps, 0u);
    EXPECT_GT(r.vm.shootdownsSent, 0u);
    EXPECT_GT(r.vm.shootdownsReceived, 0u);
    EXPECT_GT(r.shootdownStallCycles, 0u);
    EXPECT_GT(r.vm.walks, 0u);
    EXPECT_GT(r.xlatStallCycles, 0u);
    // Every remap raises exactly one broadcast; every broadcast is
    // received by nCores - 1 MMUs.
    EXPECT_EQ(r.vm.shootdownsSent, r.vm.remaps);
    EXPECT_EQ(r.vm.shootdownsReceived, r.vm.shootdownsSent * 1u);
}

TEST(MpSystem, PwcShortensWalksAndCutsUpperLevelPtwReads)
{
    OsPressurePoint off{2, 900, 0, false, false, false};
    OsPressurePoint on{2, 900, 0, true, false, false};
    const std::vector<std::string> w = {"mcf", "tpcc64"};
    sim::SimConfig cfg_off = mpSystemConfig(off, sim::KernelMode::Calendar);
    sim::SimConfig cfg_on = mpSystemConfig(on, sim::KernelMode::Calendar);
    // A small LLC lets upper-level PTE lines miss to DRAM at test
    // scale, so the per-level read counters have something to cut.
    cfg_off.llc.sizeBytes = 64 * 1024;
    cfg_on.llc.sizeBytes = 64 * 1024;
    sim::System a(cfg_off, w);
    sim::System b(cfg_on, w);
    sim::SystemResult roff = a.run();
    sim::SystemResult ron = b.run();
    ASSERT_GT(roff.vm.walks, 0u);
    EXPECT_GT(ron.vm.pwcLookups, 0u);
    EXPECT_GT(ron.vm.pwcHits(), 0u);
    EXPECT_GT(ron.vm.pwcSkippedFetches, 0u);
    // Fewer PTE fetches reach the LLC at all...
    EXPECT_LT(ron.vm.pteFetches, roff.vm.pteFetches);
    // ...and the DRAM-visible upper-level PTW reads shrink (the leaf
    // level is untouched by the PWC, and leaf reads dominate the
    // total, so the aggregate ptwReads is left to the larger-scale
    // abl_multiprocess sweep where timing perturbation averages out).
    std::uint64_t upper_on = ron.ctrl.ptwReadsByLevel[0] +
                             ron.ctrl.ptwReadsByLevel[1] +
                             ron.ctrl.ptwReadsByLevel[2];
    std::uint64_t upper_off = roff.ctrl.ptwReadsByLevel[0] +
                              roff.ctrl.ptwReadsByLevel[1] +
                              roff.ctrl.ptwReadsByLevel[2];
    ASSERT_GT(upper_off, 0u);
    EXPECT_LT(upper_on, upper_off);
}

TEST(MpSystem, AllocatorAgingDegradesHcracHitRate)
{
    // A fast ramp to a fully scrambled free list during the run must
    // cost HCRAC hit rate against the static contiguous baseline — the
    // dynamic version of the abl_vm_fragmentation monotone drop.
    OsPressurePoint fresh{2, 2000, 0, false, false, false};
    OsPressurePoint aged{2, 2000, 0, false, false, true};
    sim::SimConfig cfg_fresh =
        mpSystemConfig(fresh, sim::KernelMode::Calendar);
    sim::SimConfig cfg_aged =
        mpSystemConfig(aged, sim::KernelMode::Calendar);
    cfg_aged.vm.aging.rampCycles = 5000; // Scrambled almost at once.
    const std::vector<std::string> w = {"apache20", "mcf"};
    sim::System a(cfg_fresh, w);
    sim::System b(cfg_aged, w);
    sim::SystemResult rf = a.run();
    sim::SystemResult ra = b.run();
    EXPECT_GT(rf.hcracHitRate, ra.hcracHitRate);
}

TEST(KernelEquivalence, MultiProcessOsPressureMatrixAllKernelsAgree)
{
    // The OS-pressure matrix: processes × switch quantum × shootdown
    // cadence × {PWC, flush-on-switch, aging}, Calendar against the
    // PerCycle oracle. CCSIM_PARANOID upgrades Calendar to its
    // shadow-validated mode.
    const std::vector<OsPressurePoint> points = {
        {2, 1200, 0, false, false, false},  // switches only
        {2, 400, 16, false, false, false},  // + frequent shootdowns
        {3, 900, 24, true, false, false},   // 3 spaces + PWC
        {2, 600, 10, true, true, false},    // non-ASID hardware (flush)
        {2, 500, 12, false, false, true},   // + allocator aging
    };
    const std::vector<std::string> workloads = {"mcf", "omnetpp"};
    for (const OsPressurePoint &p : points) {
        std::ostringstream label;
        label << "P=" << p.processes << " Q=" << p.quantum
              << " remap=" << p.remapPeriod << " pwc=" << p.pwc
              << " flush=" << p.flushOnSwitch << " aging=" << p.aging;
        SCOPED_TRACE(label.str());
        sim::System ref(mpSystemConfig(p, sim::KernelMode::PerCycle),
                        workloads);
        sim::SystemResult rr = ref.run();
        ASSERT_GT(rr.vm.contextSwitches, 0u);
        if (p.remapPeriod) {
            ASSERT_GT(rr.vm.shootdownsSent, 0u);
        }
        sim::System fast(mpSystemConfig(p, sim::KernelMode::Calendar),
                         workloads);
        test::expectIdenticalResults(rr, fast.run(), "calendar");
    }
}

// ---------------------------------------------------------------------
// Seeded randomized multi-process stress: random OS-pressure
// configurations, Calendar against the PerCycle reference.
// CCSIM_PARANOID upgrades the Calendar configs to shadow validation
// (the CI paranoid job path).

TEST(VmStress, RandomizedMultiProcessEquivalence)
{
    std::uint64_t seed = 0x05C1ED;
    if (const char *v = std::getenv("CCSIM_VM_SEED"); v && *v)
        seed = std::strtoull(v, nullptr, 0);
    std::uint64_t count = 6;
    if (const char *v = std::getenv("CCSIM_VM_STRESS_N"); v && *v)
        count = std::strtoull(v, nullptr, 0);
    Rng rng(seed);
    for (std::uint64_t it = 0; it < count; ++it) {
        OsPressurePoint p;
        p.processes = 2 + static_cast<int>(rng.below(3));
        p.quantum = 300 + rng.below(1500);
        p.remapPeriod = rng.chance(0.7) ? 8 + rng.below(32) : 0;
        p.pwc = rng.chance(0.5);
        p.flushOnSwitch = rng.chance(0.3);
        p.aging = rng.chance(0.4);
        int cores = 1 + static_cast<int>(rng.below(3));
        int channels = rng.chance(0.5) ? 2 : 1;
        int mix = 1 + static_cast<int>(rng.below(20));
        auto workloads =
            workloads::mpMixWorkloads(mix, cores);
        std::ostringstream label;
        label << "CCSIM_VM_SEED=" << seed << " iter=" << it
              << " cores=" << cores << " ch=" << channels << " P="
              << p.processes << " Q=" << p.quantum
              << " remap=" << p.remapPeriod << " pwc=" << p.pwc
              << " flush=" << p.flushOnSwitch << " aging=" << p.aging
              << " mix=w" << mix;
        SCOPED_TRACE(label.str());
        sim::SimConfig ref_cfg =
            mpSystemConfig(p, sim::KernelMode::PerCycle, cores,
                           channels);
        ref_cfg.targetInsts = 5000;
        ref_cfg.warmupInsts = 800;
        sim::System ref(ref_cfg, workloads);
        sim::SystemResult rr = ref.run();
        sim::SimConfig cfg = mpSystemConfig(p, sim::KernelMode::Calendar,
                                            cores, channels);
        cfg.targetInsts = 5000;
        cfg.warmupInsts = 800;
        sim::System fast(cfg, workloads);
        test::expectIdenticalResults(rr, fast.run(), "calendar");
        if (::testing::Test::HasFailure()) {
            std::fprintf(stderr,
                         "VmStress failed; reproduce with %s\n",
                         label.str().c_str());
            FAIL();
        }
    }
}

// ---------------------------------------------------------------------
// Finite-trace park/wake under a two-process workload: traces wrap
// mid-run while context switches retag the TLBs and remap-driven
// shootdowns stall parked and awake cores alike — StallKind::Shootdown
// and XlatWait must interact with the park/wake machinery identically
// in both kernels.

class MpFiniteTrace : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        path_ = ::testing::TempDir() + "ccsim_mp_trace_" +
                ::testing::UnitTest::GetInstance()
                    ->current_test_info()
                    ->name() +
                "_" + std::to_string(::getpid()) + ".txt";
        std::ofstream out(path_);
        ASSERT_TRUE(out.good());
        // One-set LLC thrashing with compute gaps (the FiniteTraceFile
        // shape): every wrap keeps missing to DRAM with dirty
        // writebacks — maximal park/wake churn, now with every address
        // translated and periodically shot down.
        out << "# finite trace for two-process park/wake tests\n";
        for (int i = 0; i < 48; ++i) {
            Addr rd = 0x10000 + static_cast<Addr>(i) * 262144;
            out << (i % 7) << " " << rd;
            if (i % 5 == 0)
                out << " " << (0x20000 + static_cast<Addr>(i) * 262144);
            out << "\n";
        }
    }

    void TearDown() override { std::remove(path_.c_str()); }

    sim::SimConfig
    config(sim::KernelMode kernel) const
    {
        // remapPeriod = 1: on a fixed looping page set the remap
        // cascade is self-damping for any longer period (each remap
        // seeds exactly one future first-touch), so only the harshest
        // cadence keeps shootdowns firing past the warm-up reset —
        // every re-touched page immediately evicts the oldest mapping.
        OsPressurePoint p{2, 500, 1, false, false, false};
        sim::SimConfig cfg = mpSystemConfig(p, kernel);
        cfg.nCores = 2;
        cfg.channels = 2;
        cfg.targetInsts = 9000;
        cfg.warmupInsts = 1500;
        // The trace's one-set thrashing pattern relies on
        // virtual == physical; under translation the first-touch
        // allocator compacts the page stride, so a tiny LLC (64 lines,
        // 4 sets) restores the constant DRAM misses the park/wake
        // churn needs — and puts PTE lines under contention too.
        cfg.llc.sizeBytes = 4096;
        return cfg;
    }

    sim::SystemResult
    runWith(sim::SimConfig cfg)
    {
        workloads::RamulatorTraceReader t0(path_);
        workloads::RamulatorTraceReader t1(path_);
        sim::System sys(cfg,
                        std::vector<cpu::TraceSource *>{&t0, &t1});
        return sys.run();
    }

    std::string path_;
};

TEST_F(MpFiniteTrace, AllKernelsAgreeThroughShootdownsAcrossWraps)
{
    sim::SystemResult percycle = runWith(config(sim::KernelMode::PerCycle));
    EXPECT_GT(percycle.activations, 0u);
    EXPECT_GT(percycle.vm.contextSwitches, 0u);
    EXPECT_GT(percycle.vm.shootdownsSent, 0u);
    EXPECT_GT(percycle.shootdownStallCycles, 0u);
    EXPECT_GT(percycle.xlatStallCycles, 0u);
    test::expectIdenticalResults(
        percycle, runWith(config(sim::KernelMode::Calendar)), "calendar");
}

TEST_F(MpFiniteTrace, ParanoidShadowValidatesShootdownParkWake)
{
    // Execute-and-assert every skip decision across shootdown windows:
    // the per-cycle schedule re-runs each would-be-parked tick and the
    // calendar shadow checks its wake queue delivered each
    // Shootdown-window wake at exactly the right cycle.
    sim::SystemResult ref = runWith(config(sim::KernelMode::PerCycle));
    sim::SimConfig cfg = config(sim::KernelMode::Calendar);
    cfg.kernelParanoid = true;
    test::expectIdenticalResults(ref, runWith(cfg), "paranoid calendar");
}

} // namespace
} // namespace ccsim
