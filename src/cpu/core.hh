/**
 * @file
 * Trace-driven out-of-order core model (Table 1: 4 GHz, 3-wide issue,
 * 128-entry instruction window, 8 MSHRs/core — the MSHR limit lives in
 * the LLC).
 *
 * Modeling follows Ramulator's CPU mode: compute instructions complete
 * at issue; loads occupy a window slot until their data returns (LLC
 * hit latency or DRAM round trip); stores retire immediately but still
 * generate cache traffic and consume MSHRs. The window retires in order,
 * up to issue-width per cycle, so a long-latency load at the head
 * eventually stalls the core — the mechanism by which DRAM latency
 * becomes IPC.
 *
 * When a vm::Mmu is attached, trace addresses are virtual: a memory
 * record translates before it issues. An L1 TLB hit is free (part of
 * the load pipeline); an L2 TLB hit self-schedules after a fixed
 * latency; a full miss walks the radix page table, with each PTE
 * fetched as a real read through the LLC — the walk stalls issue until
 * its last PTE returns, via the same hit-queue / miss-callback wake
 * paths data uses, so both simulation kernels stay bit-identical.
 */

#ifndef CCSIM_CPU_CORE_HH
#define CCSIM_CPU_CORE_HH

#include <functional>
#include <limits>
#include <utility>

#include "common/ring.hh"
#include "common/stats.hh"
#include "common/types.hh"
#include "cpu/trace.hh"
#include "mem/llc.hh"
#include "vm/mmu.hh"

namespace ccsim::cpu {

struct CoreStats {
    std::uint64_t retired = 0;
    std::uint64_t memReads = 0;
    std::uint64_t memWrites = 0;
    std::uint64_t stallCyclesFull = 0; ///< Window full at issue.
    std::uint64_t blockedAccesses = 0; ///< LLC said Blocked.
    std::uint64_t xlatStallCycles = 0; ///< Awaiting TLB/page-walk data.
    std::uint64_t shootdownStallCycles = 0; ///< TLB-shootdown IPI stalls.
};

class Core
{
  public:
    /** Instructions issued and retired per cycle at most (Table 1). */
    static constexpr int kIssueWidth = 3;
    /** Instruction-window entries (Table 1). */
    static constexpr int kWindowSize = 128;

    /**
     * Why the most recent tick made no progress. A stalled core ticks
     * to exactly one stall-statistic increment per cycle, which is
     * what lets the calendar kernel park it and account the skipped
     * region in bulk — and what makes a spurious early wake harmless
     * (the extra no-progress tick increments the same statistic the
     * parked accounting would have). See docs/performance.md.
     */
    enum class StallKind {
        None,       ///< Last tick made progress.
        WindowFull, ///< Instruction window full, head incomplete.
        BlockedLlc, ///< Memory op rejected by the LLC (MSHRs full).
        XlatWait,   ///< Translation waiting on TLB/PTE data (VM mode).
        Shootdown,  ///< Stalled on a TLB-shootdown IPI (multi-process).
    };

    /**
     * Raised by a core whose page walk just remapped a page: the
     * System broadcasts the (asid, vpn) invalidation to every other
     * core and stalls them (beginShootdown). Fires inside the
     * initiator's tick, which only ever touches *other* cores — the
     * wake machinery (externalWake / calNoteWake) keeps the result
     * identical across all kernels.
     */
    using ShootdownHook = std::function<void(int initiator,
                                             std::uint32_t asid,
                                             Addr vpn, CpuCycle now)>;

    /** `target_insts`: retire target counted from the last reset. */
    Core(int id, std::uint64_t target_insts, TraceSource &trace,
         mem::Llc &llc, vm::Mmu *mmu = nullptr);

    /** Install the shootdown broadcast hook (multi-process VM mode). */
    void setShootdownHook(ShootdownHook hook)
    {
        shootdownHook_ = std::move(hook);
    }

    /**
     * Shootdown receive side: stall this core until `until` (it makes
     * no progress and accrues one shootdownStallCycles per cycle).
     * Also raises the external-wake flag so a parked core re-ticks —
     * the same per-cycle/parked accounting split every stall obeys.
     */
    void
    beginShootdown(CpuCycle until)
    {
        if (until > shootdownUntil_)
            shootdownUntil_ = until;
        wakePending_ = true;
    }

    /**
     * Advance one CPU cycle. Returns true if the tick made progress
     * (retired, issued, advanced a translation, or fetched a trace
     * record); a false return guarantees that re-ticking on subsequent
     * cycles stays a no-op apart from one stall-statistic increment per
     * cycle, until either `nextEventAt()` is reached or an external
     * completion arrives (`wakePending()`). Delivering scheduled
     * LLC-hit returns is deliberately *not* progress by itself:
     * completing window entries behind an incomplete head is invisible
     * until retire or issue can move, which is what lets the event
     * kernels batch a burst of returns into a single wake.
     */
    bool tick(CpuCycle now);

    /** Completion for an LLC miss issued with `token`. */
    void onMissComplete(std::uint64_t token);

    /** External wake signal for the event kernel (e.g. line installed). */
    void externalWake() { wakePending_ = true; }

    /** True once an external completion arrived since the last tick. */
    bool wakePending() const { return wakePending_; }

    /**
     * Earliest future cycle at which a stalled tick could make progress
     * without external input, or kNoCycle when purely externally
     * driven. Only two self-scheduled events qualify:
     *  - the hit-return of the window *head* (younger returns cannot
     *    retire past an incomplete head and cannot free window space,
     *    so their delivery is deferred to the next wake — the batched
     *    wake optimisation); the hit queue is (cycle, seq)-monotone,
     *    so the head's return, when queued, is its front;
     *  - the translation timer (L2 TLB latency or a PTE LLC-hit
     *    return), unless the window is full — a full window blocks
     *    issue before the translation state machine can advance.
     * While the core is parked it issues and retires nothing, so every
     * input to this horizon is frozen: the calendar kernel posts it to
     * its wake queue once at park time and never needs a repost.
     */
    CpuCycle
    nextEventAt() const
    {
        // A shootdown-stalled core can do nothing before the IPI
        // window ends: deliveries and timers inside it are deferred to
        // the first post-shootdown tick — exactly what the per-cycle
        // reference's early-out does (see tick()).
        if (shootdownUntil_ != 0)
            return shootdownUntil_;
        CpuCycle ev = kNoCycle;
        if (!hitQueue_.empty() &&
            hitQueue_.front().second == windowBaseSeq_)
            ev = hitQueue_.front().first;
        if (xlatEventAt_ < ev && !window_.full())
            ev = xlatEventAt_;
        return ev;
    }

    /** Stall reason of the last no-progress tick. */
    StallKind stallKind() const { return stallKind_; }

    /**
     * Account `cycles` un-ticked cycles spent parked in `stallKind()`:
     * bump the same one-per-cycle stall statistic the per-cycle loop
     * would have. LLC-side counters for BlockedLlc retries are accounted
     * separately by the caller (Llc::accountBlockedProbes).
     */
    void accountStallCycles(CpuCycle cycles);

    /** True once the target count has retired since the last reset. */
    bool reachedTarget() const { return stats_.retired >= targetInsts_; }

    /** Cycle at which the target was reached (valid once reached). */
    CpuCycle targetCycle() const { return targetCycle_; }

    int id() const { return id_; }
    const CoreStats &stats() const { return stats_; }
    const vm::Mmu *mmu() const { return mmu_; }

    /**
     * Attach the telemetry page-walk latency histogram: each completed
     * full walk (L2 TLB miss through last PTE return) samples its
     * start-to-finish CPU-cycle latency. Observation-only.
     */
    void setObsPtwHist(Histogram *hist) { obsPtwHist_ = hist; }
    /** In-flight walk start cycle (kNoCycle = none); checkpointed by
        the System's "obs" section so a resumed run's first completed
        walk still samples the right latency. */
    CpuCycle obsWalkStart() const { return obsWalkStart_; }
    void setObsWalkStart(CpuCycle at) { obsWalkStart_ = at; }

    /**
     * Zero statistics and re-base instruction counting at `now`
     * (end-of-warm-up). In-flight state is preserved.
     */
    void resetStats(CpuCycle now);

    /**
     * Checkpoint the core's complete in-flight state (window, hit
     * queue, translation machine, trace record, stall/target
     * bookkeeping, statistics). References (trace/LLC/MMU/hooks) are
     * re-wired by construction; snapshots carry no park state — a
     * resumed kernel wakes every core, which the spurious-wake
     * contract makes bit-identical (docs/resilience.md).
     */
    void saveState(resilience::SnapshotWriter &w) const;
    void loadState(resilience::SnapshotReader &r);

  private:
    /**
     * Token marking a translation-machine completion (L2 TLB timer or
     * PTE fetch) in the miss callback; distinct from any window seq.
     */
    static constexpr std::uint64_t kXlatToken =
        std::numeric_limits<std::uint64_t>::max();

    struct WinEntry {
        bool completed = true;
        bool isMem = false;
    };

    enum class IssueResult {
        Issued,     ///< Window entry pushed (or translation finished).
        WindowFull, ///< No slot; head incomplete.
        Blocked,    ///< LLC rejected an access (data or PTE).
        XlatStep,   ///< Translation advanced (progress, ends the cycle).
        XlatWait,   ///< Translation waiting on scheduled/external data.
    };

    /** Translation state of the current memory record (VM mode). */
    enum class XlatState {
        None,    ///< Not started (or finished; translatedLine_ valid).
        WaitL2,  ///< L2 TLB hit latency in flight (xlatEventAt_).
        WaitPte, ///< PTE read in flight (LLC hit timer or miss return).
        NeedPte, ///< Next PTE fetch must issue (start or Blocked retry).
    };

    IssueResult issueOne(CpuCycle now);
    IssueResult advanceTranslation(CpuCycle now);
    IssueResult issuePte(CpuCycle now);

    int id_;
    std::uint64_t targetInsts_; ///< Retire target (post-reset).
    TraceSource &trace_;
    mem::Llc &llc_;
    vm::Mmu *mmu_; ///< Null: physical mode (legacy behavior).

    /** Instruction window, kWindowSize entries (checked at issue). */
    Ring<WinEntry> window_;
    std::uint64_t windowBaseSeq_ = 0; ///< Seq number of window_.front().
    std::uint64_t seq_ = 0;           ///< Next entry's seq number.

    /**
     * Self-scheduled completions for LLC data hits: (cycle, seq). Every
     * hit return is scheduled mem::Llc::kHitLatency after its issue, so
     * the queue is monotone in both cycle and seq — the front is at
     * once the earliest return and the oldest (the head's, if queued).
     * Each entry belongs to an incomplete load still in the window, so
     * kWindowSize bounds it.
     */
    Ring<std::pair<CpuCycle, std::uint64_t>> hitQueue_;

    /** Translation timer: L2-hit latency or a PTE LLC-hit return. */
    CpuCycle xlatEventAt_ = kNoCycle;
    XlatState xlatState_ = XlatState::None;
    bool xlatReady_ = false;     ///< Awaited translation data arrived.
    Addr translatedLine_ = kNoAddr; ///< Physical line of the record.

    /** Remaining compute insts of the current trace record. */
    std::uint32_t pendingCompute_ = 0;
    TraceRecord record_;
    bool recordValid_ = false;
    bool memIssued_ = true;

    CpuCycle baseCycle_ = 0;
    CpuCycle targetCycle_ = 0;
    bool targetRecorded_ = false;
    StallKind stallKind_ = StallKind::None;
    bool wakePending_ = false;

    /** Shootdown IPI stall deadline (0 = none; cleared by the first
        tick at or past it). */
    CpuCycle shootdownUntil_ = 0;
    ShootdownHook shootdownHook_;

    /** Context-switch schedule (multi-process VM mode): instructions
        fetched since the last switch and the current slice length
        (0 = scheduling disabled). */
    std::uint64_t instsSinceSwitch_ = 0;
    std::uint64_t switchQuantum_ = 0;

    Histogram *obsPtwHist_ = nullptr; ///< Telemetry walk latency.
    CpuCycle obsWalkStart_ = kNoCycle; ///< In-flight walk start.

    CoreStats stats_;
};

} // namespace ccsim::cpu

#endif // CCSIM_CPU_CORE_HH
