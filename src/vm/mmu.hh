/**
 * @file
 * Per-core memory-management unit: ASID-tagged two-level TLBs (a small
 * L1 D-TLB over a larger unified L2) and an optional page-walk cache
 * in front of a radix page-table walker, running over one or more
 * vm::AddressSpace objects — the vpn→frame maps that decide how much
 * of a workload's row-level temporal locality survives translation
 * (the quantity ChargeCache's benefit depends on).
 *
 * The Mmu is a passive state machine driven by cpu::Core, which owns
 * all timing: the core asks to translate, and on a full TLB miss pulls
 * PTE line addresses out of the walker one level at a time, issuing
 * each as a *real* read through the LLC and memory controllers (so
 * page-walk rows charge the HCRAC and interact with RLTL exactly like
 * data rows). One translation is in flight per core at a time, which
 * matches the core's in-order issue of its memory record stream.
 *
 * Multi-process mode (MultiProcessConfig::processes > 1): the Mmu
 * references every address space in the system and a seed-derived
 * schedule (contextSwitch / nextQuantum, driven by the core at
 * instruction-quantum boundaries) decides which one it is running.
 * TLB and PWC entries are ASID-tagged, so a switch needs no flush
 * unless flushOnSwitch asks for one. Remap events surfaced by an
 * address space (a page unmapped under memory pressure) are reported
 * through takePendingShootdown for the System to broadcast as an
 * inter-core TLB shootdown.
 *
 * With VmConfig::enable false (the default) no Mmu is built and cores
 * issue trace addresses as physical, byte-for-byte identical to the
 * pre-VM simulator; with multi-process/PWC/aging at their defaults the
 * Mmu is bit-identical to the single-space PR-3 subsystem.
 */

#ifndef CCSIM_VM_MMU_HH
#define CCSIM_VM_MMU_HH

#include <array>
#include <memory>
#include <vector>

#include "common/random.hh"
#include "common/types.hh"
#include "vm/address_space.hh"
#include "vm/page_alloc.hh"
#include "vm/page_table.hh"
#include "vm/pwc.hh"
#include "vm/tlb.hh"
#include "vm/vm_config.hh"

namespace ccsim::resilience {
class SnapshotWriter;
class SnapshotReader;
} // namespace ccsim::resilience

namespace ccsim::vm {

/** Counters the figures and the OS-pressure ablations consume. */
struct VmStats {
    std::uint64_t lookups = 0;  ///< Translations requested.
    std::uint64_t l1Hits = 0;
    std::uint64_t l2Hits = 0;   ///< L1 misses that hit L2.
    std::uint64_t walks = 0;    ///< Full TLB misses (walks started).
    std::uint64_t pteFetches = 0;    ///< PTE reads injected.
    std::uint64_t walkCycleSum = 0;  ///< CPU cycles, begin→last PTE.
    std::uint64_t pagesMapped = 0;   ///< Data pages first-touched.
    std::uint64_t ptTables = 0;      ///< Table frames allocated (gauge).

    // Multi-process layer.
    std::uint64_t contextSwitches = 0; ///< Address-space switches taken.
    std::uint64_t remaps = 0;          ///< Unmap/remap events initiated.
    std::uint64_t shootdownsSent = 0;  ///< Shootdowns this core raised.
    std::uint64_t shootdownsReceived = 0; ///< Invalidation IPIs taken.

    // Page-walk cache.
    std::uint64_t pwcLookups = 0; ///< Walks that consulted the PWC.
    std::array<std::uint64_t, 4> pwcHitsByLevel{}; ///< By upper level.
    std::uint64_t pwcSkippedFetches = 0; ///< PTE reads avoided.

    double
    l1HitRate() const
    {
        return lookups ? double(l1Hits) / lookups : 0.0;
    }

    double
    missRate() const
    {
        return lookups ? double(walks) / lookups : 0.0;
    }

    double
    avgWalkCycles() const
    {
        return walks ? double(walkCycleSum) / walks : 0.0;
    }

    std::uint64_t
    pwcHits() const
    {
        std::uint64_t s = 0;
        for (std::uint64_t h : pwcHitsByLevel)
            s += h;
        return s;
    }

    VmStats &
    operator+=(const VmStats &o)
    {
        lookups += o.lookups;
        l1Hits += o.l1Hits;
        l2Hits += o.l2Hits;
        walks += o.walks;
        pteFetches += o.pteFetches;
        walkCycleSum += o.walkCycleSum;
        pagesMapped += o.pagesMapped;
        ptTables += o.ptTables;
        contextSwitches += o.contextSwitches;
        remaps += o.remaps;
        shootdownsSent += o.shootdownsSent;
        shootdownsReceived += o.shootdownsReceived;
        pwcLookups += o.pwcLookups;
        for (std::size_t i = 0; i < pwcHitsByLevel.size(); ++i)
            pwcHitsByLevel[i] += o.pwcHitsByLevel[i];
        pwcSkippedFetches += o.pwcSkippedFetches;
        return *this;
    }
};

class Mmu
{
  public:
    enum class Result {
        L1Hit, ///< translatedLine() is valid now.
        L2Hit, ///< Valid after l2HitLatency; call completeL2().
        Miss,  ///< Walk begun; fetch pteLine(), then pteReturned().
    };

    /**
     * Legacy single-space construction: the Mmu owns one AddressSpace
     * over this core's region.
     *
     * @param region_base_line first physical line of this core's
     *        region; data frames grow from here, page-table frames
     *        occupy the top ptPoolFraction of the region.
     * @param region_lines region size in cache lines.
     * @param schedule_seed seed for the (unused in this mode)
     *        context-switch schedule stream.
     */
    Mmu(const VmConfig &config, int core_id, Addr region_base_line,
        Addr region_lines, int line_bytes = 64,
        std::uint64_t schedule_seed = 0);

    /**
     * Multi-process construction: the Mmu references every address
     * space in the system (not owned) and starts on
     * spaces[core_id % spaces.size()].
     */
    Mmu(const VmConfig &config, int core_id,
        const std::vector<AddressSpace *> &spaces, int line_bytes = 64,
        std::uint64_t schedule_seed = 0);

    /** Start translating the byte address `vaddr` at cycle `now`. */
    Result beginTranslate(Addr vaddr, CpuCycle now);

    /** Physical line of the in-progress/completed translation. */
    Addr translatedLine() const { return translatedLine_; }

    /** L2Hit path: install into L1 and finalize the translation. */
    void completeL2();

    /** Walk path: physical line of the current level's PTE. */
    Addr pteLine() const { return pteLine_; }

    /** Walk path: level of the PTE currently being fetched. */
    int walkLevel() const { return walkLevel_; }

    /**
     * Walk path: the current PTE arrived at `now`. Advances the walk;
     * returns true when it finished (TLBs filled, translatedLine()
     * valid) and false when the next level's pteLine() needs fetching.
     */
    bool pteReturned(CpuCycle now);

    // ---- multi-process layer ----------------------------------------

    bool multiProcess() const { return spaces_.size() > 1; }

    /** ASID of the address space currently running on this core. */
    std::uint32_t currentAsid() const { return space_->asid(); }

    /**
     * Take the next scheduling decision: move to a different address
     * space (seed-derived pick), flushing TLBs/PWC when the config
     * models non-ASID hardware.
     */
    void contextSwitch();

    /** Next scheduling-slice length in instructions (seed-derived
        jitter around MultiProcessConfig::switchQuantum). */
    std::uint64_t nextQuantum();

    /**
     * A walk just remapped a page: (asid, victim vpn) of the
     * translation that must be shot down on every other core. Returns
     * false when nothing is pending. Clears the pending event.
     */
    bool takePendingShootdown(std::uint32_t &asid, Addr &vpn);

    /** Shootdown receive side: drop the translation from both TLBs. */
    void invalidateTranslation(std::uint32_t asid, Addr vpn);

    const VmConfig &config() const { return config_; }
    const VmStats &stats() const;
    void resetStats();

    /**
     * Checkpoint. In legacy single-space mode the Mmu owns its address
     * space and serializes it inline; in multi-process mode the spaces
     * are System-owned (serialized once there) and only the index of
     * the currently scheduled space is recorded.
     */
    void saveState(resilience::SnapshotWriter &w) const;
    void loadState(resilience::SnapshotReader &r);

    // Structure access for tests.
    TlbArray &l1Tlb() { return l1_; }
    TlbArray &l2Tlb() { return l2_; }
    Pwc *pwc() { return pwc_.get(); }
    const PageAllocator &allocator() const { return space_->allocator(); }
    const PageTable &pageTable() const { return space_->pageTable(); }
    Addr dataBaseLine() const { return space_->dataBaseLine(); }

  private:
    void finishTranslation(std::uint64_t ppn);
    void initCommon(int line_bytes);

    VmConfig config_;
    int coreId_;
    int lineShift_;   ///< log2(line_bytes).
    int pageShift_;   ///< log2(effectivePageBytes).
    Addr pageLines_;  ///< Lines per page.

    TlbArray l1_;
    TlbArray l2_;
    std::unique_ptr<Pwc> pwc_; ///< Null unless config.pwc.enable.

    std::unique_ptr<AddressSpace> owned_; ///< Legacy mode only.
    std::vector<AddressSpace *> spaces_;  ///< All spaces (size 1 legacy).
    AddressSpace *space_;                 ///< Currently scheduled.
    Rng schedRng_; ///< Context-switch schedule stream (seed-derived).

    // In-flight translation (one at a time, owned by the core's issue).
    Addr xlatVaddr_ = 0;
    Addr translatedLine_ = kNoAddr;
    int walkLevel_ = 0;
    Addr pteLine_ = kNoAddr;
    CpuCycle walkStart_ = 0;

    // Pending shootdown from the last completed walk's remap.
    bool shootdownPending_ = false;
    std::uint32_t shootdownAsid_ = 0;
    Addr shootdownVpn_ = 0;

    mutable VmStats stats_;
};

} // namespace ccsim::vm

#endif // CCSIM_VM_MMU_HH
