/**
 * @file
 * Configuration of the virtual-memory subsystem: TLB shapes, page
 * sizes, the page allocator (with optional aging), the page-walk
 * cache, and the multi-process layer (address spaces, context-switch
 * schedule, unmap/remap-driven TLB shootdowns).
 *
 * Everything here defaults to off/legacy: with `enable == false` no
 * MMU is built at all; with `enable == true` and the sub-features at
 * their defaults the simulator behaves bit-for-bit like the
 * single-address-space VM subsystem of PR 3.
 */

#ifndef CCSIM_VM_VM_CONFIG_HH
#define CCSIM_VM_VM_CONFIG_HH

#include <cstdint>

#include "common/types.hh"
#include "vm/page_alloc.hh"

namespace ccsim::vm {

/** Base page size, and the page size of PageAlloc::HugePage. */
inline constexpr int kPageBytes = 4096;
inline constexpr int kHugePageBytes = 2 * 1024 * 1024;

/**
 * Multi-process layer: the system hosts `processes` address spaces;
 * each core runs one at a time and a deterministic, seed-derived
 * schedule switches it to another every quantum. Address spaces are
 * global (two cores may run the same one concurrently — genuinely
 * shared pages), which is what makes unmap/remap events inter-core:
 * remote TLBs may hold the dying translation and must be shot down.
 */
struct MultiProcessConfig {
    /** Address spaces in the system; <= 1 keeps the legacy
        one-immortal-space-per-core mode. */
    int processes = 0;

    /** Scheduling-slice length in retired instructions. Switch points
        are instruction-indexed (not cycle-indexed), so the schedule is
        trivially identical across simulation kernels. */
    std::uint64_t switchQuantum = 20000;

    /** Flush the TLBs (and PWC) on every context switch instead of
        relying on ASID tags — models pre-ASID hardware / the
        worst-case OS-pressure regime. */
    bool flushOnSwitch = false;

    /**
     * Unmap/remap cadence: every `remapPeriod` first-touches within an
     * address space, the oldest still-mapped page is reclaimed — its
     * frame is handed to the new page and its translation is shot down
     * on every other core. 0 disables remaps (and shootdowns).
     */
    std::uint64_t remapPeriod = 0;

    /** CPU cycles a remote core stalls (StallKind::Shootdown) while
        invalidating on a shootdown IPI. */
    CpuCycle shootdownCycles = 80;

    bool enabled() const { return processes > 1; }
};

/**
 * Page-walk cache: a small per-core cache of upper-level PTEs (all
 * levels but the leaf), consulted when a walk starts. A hit at level k
 * skips the DRAM/LLC fetches of levels 0..k — only uncached levels
 * issue reads, exactly like the partial-walk PWCs in real MMUs.
 */
struct PwcConfig {
    bool enable = false;
    int entriesPerLevel = 16; ///< Entries per upper walk level.
    int ways = 4;
};

struct VmConfig {
    bool enable = false; ///< Off: legacy physical-address mode.

    int l1Entries = 64; ///< L1 D-TLB entries.
    int l1Ways = 4;
    int l2Entries = 1024; ///< Unified L2 TLB entries.
    int l2Ways = 8;

    PageAlloc alloc = PageAlloc::Contiguous;
    double fragDegree = 0.5; ///< Fragmented: shuffle probability.

    /** Allocator aging: fragmentation degree ramps from `fragDegree`
        to `aging.maxDegree` over `aging.rampCycles` simulated CPU
        cycles (disabled by default — static allocators). */
    AgingSpec aging;

    /** Page-walk cache in front of the radix walker. */
    PwcConfig pwc;

    /** Multi-process address spaces, context switches, shootdowns. */
    MultiProcessConfig mp;

    /** Page size the active allocator maps at. */
    int
    effectivePageBytes() const
    {
        return alloc == PageAlloc::HugePage ? kHugePageBytes : kPageBytes;
    }

    /** Radix depth: 2 MB pages stop one level early at the PD. */
    int
    walkLevels() const
    {
        return alloc == PageAlloc::HugePage ? 3 : 4;
    }
};

} // namespace ccsim::vm

#endif // CCSIM_VM_VM_CONFIG_HH
