/**
 * @file
 * One address space (process image): the authoritative vpn→frame map,
 * its radix page table, and its slice of physical memory.
 *
 * In legacy single-process mode each core's Mmu owns exactly one
 * AddressSpace over the core's region — constructed with the same
 * region-split math the pre-multiprocess Mmu used, so translation
 * behavior is bit-identical. In multi-process mode
 * (MultiProcessConfig::processes > 1) the System owns one AddressSpace
 * per process, each over `capacity / processes` lines, and every
 * core's Mmu references all of them; the context-switch schedule picks
 * which one a core is running. Two cores may run the same space
 * concurrently — its pages are then genuinely shared, which is what
 * gives TLB shootdowns an inter-core victim set.
 *
 * First-touch allocation order (and therefore the physical layout) is
 * a pure function of the sequence of mapPage calls, which the
 * bit-identical-schedule invariant makes identical across all
 * simulation kernels (cores always advance in id order).
 *
 * Unmap/remap (MultiProcessConfig::remapPeriod): every remapPeriod-th
 * first-touch reclaims the oldest still-mapped page — the new page
 * takes its frame and the victim translation must be invalidated in
 * every TLB that may hold it. The caller (Mmu → Core → System)
 * broadcasts the shootdown; this class only reports the victim.
 */

#ifndef CCSIM_VM_ADDRESS_SPACE_HH
#define CCSIM_VM_ADDRESS_SPACE_HH

#include <deque>
#include <unordered_map>

#include "common/types.hh"
#include "vm/page_table.hh"
#include "vm/vm_config.hh"

namespace ccsim::resilience {
class SnapshotWriter;
class SnapshotReader;
} // namespace ccsim::resilience

namespace ccsim::vm {

class AddressSpace
{
  public:
    /**
     * @param asid address-space id: the TLB tag, and the shuffle-seed
     *        mix the legacy mode fed the core id into.
     * @param region_base_line first physical line of this space's
     *        region; data frames grow from here, page-table frames
     *        occupy the top ptPoolFraction of the region.
     * @param region_lines region size in cache lines.
     */
    AddressSpace(const VmConfig &config, int asid, Addr region_base_line,
                 Addr region_lines, int line_bytes = 64);

    /** Result of a page touch (see mapPage). */
    struct MapOutcome {
        std::uint64_t ppn = 0; ///< Pool-relative frame of `vpn`.
        bool firstTouch = false; ///< A new mapping was created.
        bool remapped = false;   ///< A victim page was unmapped.
        Addr victimVpn = 0;      ///< Valid when remapped.
    };

    /**
     * Touch `vpn` at CPU cycle `now`: return its frame, creating the
     * mapping on first touch (allocator aging samples `now`), possibly
     * reclaiming a victim page per the remap schedule.
     */
    MapOutcome mapPage(Addr vpn, CpuCycle now);

    /** Lookup without touching; false when `vpn` is unmapped. */
    bool lookup(Addr vpn, std::uint64_t &ppn) const;

    PageTable &pageTable() { return pageTable_; }
    const PageTable &pageTable() const { return pageTable_; }
    const PageAllocator &allocator() const { return alloc_; }

    std::uint32_t asid() const { return asid_; }
    Addr dataBaseLine() const { return dataBaseLine_; }
    std::uint64_t dataFrames() const { return dataFrames_; }
    std::uint64_t mappedPages() const { return pageMap_.size(); }
    std::uint64_t remaps() const { return remaps_; }

    /** Checkpoint: allocator, page table, the vpn→frame map (key-sorted)
        and the remap-age bookkeeping. */
    void saveState(resilience::SnapshotWriter &w) const;
    void loadState(resilience::SnapshotReader &r);

  private:
    /** The region's split into data frames and the page-table pool
        (computed once; both pools derive from the same instance so
        they can never overlap). Identical math to the pre-multiprocess
        Mmu::splitRegion. */
    struct RegionSplit {
        std::uint64_t ptPages;   ///< 4 KB table frames, top of region.
        Addr ptBaseLine;         ///< First line of the PT pool.
        std::uint64_t dataLines; ///< Lines below it, for data frames.
    };

    static RegionSplit splitRegion(const VmConfig &config,
                                   Addr region_base_line,
                                   Addr region_lines, int line_bytes);

    AddressSpace(const VmConfig &config, int asid, Addr region_base_line,
                 int line_bytes, const RegionSplit &split);

    std::uint32_t asid_;
    std::uint64_t remapPeriod_;
    Addr dataBaseLine_;
    std::uint64_t dataFrames_;

    PageAllocator alloc_;
    PageTable pageTable_;

    /** Authoritative page table contents: vpn -> pool-relative frame. */
    std::unordered_map<Addr, std::uint64_t> pageMap_;
    /** Mapping age order (oldest first); maintained only when the
        remap schedule is active. */
    std::deque<Addr> mapOrder_;
    std::uint64_t touchCount_ = 0;
    std::uint64_t touchesSinceRemap_ = 0;
    std::uint64_t remaps_ = 0;
};

} // namespace ccsim::vm

#endif // CCSIM_VM_ADDRESS_SPACE_HH
