/**
 * @file
 * Shared last-level cache with MSHRs, matching Table 1 of the paper:
 * 4 MB, 16-way, 64 B lines, LRU, write-back/write-allocate, 8 MSHRs per
 * core. Misses are sent to the per-channel memory controllers; dirty
 * victims go through an internal writeback buffer that drains as the
 * controller write queues accept them.
 */

#ifndef CCSIM_MEM_LLC_HH
#define CCSIM_MEM_LLC_HH

#include <deque>
#include <functional>
#include <vector>

#include "common/types.hh"
#include "ctrl/controller.hh"
#include "dram/addr.hh"
#include "mem/mshr_table.hh"

namespace ccsim::resilience {
class SnapshotWriter;
class SnapshotReader;
} // namespace ccsim::resilience

namespace ccsim::mem {

/** Capacity and associativity; lines are kLineBytes. */
struct LlcConfig {
    std::uint64_t sizeBytes = 4ull << 20;
    int ways = 16;
};

struct LlcStats {
    std::uint64_t accesses = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;      ///< Distinct line fetches started.
    std::uint64_t mshrMerges = 0;  ///< Accesses folded into a fetch.
    std::uint64_t writebacks = 0;
    std::uint64_t blockedMshr = 0;
    std::uint64_t blockedMemQueue = 0;
};

class Llc
{
  public:
    enum class Result {
        Hit,     ///< Data after kHitLatency (caller schedules).
        Miss,    ///< Accepted; completion via the miss callback.
        Blocked, ///< Resources exhausted; retry next cycle.
    };

    /** Invoked when a missing line returns from memory. */
    using MissCallback =
        std::function<void(int core, std::uint64_t token)>;

    /** Invoked when a line a Blocked core was waiting for is installed. */
    using WakeCallback = std::function<void(int core)>;

    /**
     * Cores one LLC serves at most: the per-core MSHR counters and park
     * watches are this wide (System and SampledSimulation reject a
     * larger nCores with InvalidConfig).
     */
    static constexpr int kMaxCores = 64;

    /** Outstanding fetches (stores included) per core (Table 1). */
    static constexpr int kMshrsPerCore = 8;

    /** Load-to-use latency of an LLC hit, in CPU cycles. */
    static constexpr CpuCycle kHitLatency = 20;

    /**
     * @param channels the memory controller of each channel, by index
     *        (not owned). Empty for a cache that never fetches
     *        (warmAccess only).
     * @param on_miss_complete completion notification for Miss results.
     */
    Llc(const LlcConfig &config, const dram::AddressMapper &mapper,
        std::vector<ctrl::MemoryController *> channels,
        MissCallback on_miss_complete);

    /**
     * Access `line_addr` for `core`. On Miss, `token` is returned via
     * the miss callback when data arrives. Writes allocate and are
     * acknowledged by the same mechanism (stores occupy MSHRs too).
     * `is_ptw` tags page-table-walker reads so their DRAM requests can
     * be attributed separately by the controller; walker and data
     * lines are disjoint by construction, so a fetch's tag is simply
     * that of its first requester. `ptw_level` carries the walk level
     * of a PTW read for the controller's per-level attribution (the
     * page-walk-cache ablation reads it).
     */
    Result access(int core, Addr line_addr, bool is_write,
                  std::uint64_t token, bool is_ptw = false,
                  int ptw_level = -1);

    /** Drain pending writebacks into the controller write queues. */
    void tick();

    /** True when no fetch or writeback is outstanding. */
    bool
    quiesced() const
    {
        return mshrs_.empty() && writebackQ_.empty();
    }

    // ---- calendar-kernel support -------------------------------------

    /** True when either drain queue is non-empty (tick() is otherwise a
        no-op, so callers may elide the call entirely). */
    bool
    needsAnyDrain() const
    {
        return !fetchRetryQ_.empty() || !writebackQ_.empty();
    }

    /**
     * True when the next tick() could do work: a drain is queued and
     * the last attempt was not left blocked on full controller queues.
     * A blocked drain can only unblock after a controller issues (its
     * queues shrink), which is already an event-kernel wake-up point.
     */
    bool
    needsTick() const
    {
        return (!fetchRetryQ_.empty() || !writebackQ_.empty()) &&
               !drainBlocked_;
    }

    /**
     * Notification target for cores parked on a Blocked access: when
     * the line such a core is waiting for gets installed, the callback
     * fires with the core id so the kernel can wake it. Together with
     * the miss callback this is the complete external-wake surface —
     * the calendar kernel routes both through System::calNoteWake, so
     * a core with no self-scheduled event posts nothing to the wake
     * queue.
     */
    void setWakeCallback(WakeCallback wake) { onWake_ = std::move(wake); }

    /**
     * Account `probes` per-cycle retries of Blocked accesses that the
     * event kernel elided: the per-cycle loop would have charged one
     * access and one blockedMshr per parked core per cycle.
     */
    void
    accountBlockedProbes(std::uint64_t probes)
    {
        stats_.accesses += probes;
        stats_.blockedMshr += probes;
    }

    const LlcStats &stats() const { return stats_; }
    void resetStats() { stats_ = LlcStats(); }

    int numSets() const { return sets_; }

    /**
     * The fill completion the LLC attaches to every fetch Request. A
     * named function (not a capturing lambda) so a restored controller
     * can rebind the raw pointer a snapshot cannot carry: `ctx` is the
     * Llc instance.
     */
    static void fillCallback(void *ctx, const ctrl::Request &req,
                             Cycle done);

    // ---- functional warming (SMARTS-style; trace/sampling.hh) -------

    /**
     * Functional tag-state touch: updates tags/LRU/dirty exactly as a
     * detailed hit or fill would, but with no timing — no MSHRs, drain
     * queues, wake callbacks or statistics. A missing line is installed
     * inline. When the install displaces a dirty victim its line
     * address is stored through `evicted_dirty` (kNoAddr otherwise) so
     * the caller can model the writeback's DRAM traffic. Returns true
     * on hit.
     */
    bool warmAccess(Addr line_addr, bool is_write,
                    Addr *evicted_dirty = nullptr);

    /** Checkpoint: tag/LRU arrays, MSHRs, drain queues, park watches. */
    void saveState(resilience::SnapshotWriter &w) const;
    void loadState(resilience::SnapshotReader &r);

  private:
    /** Tag of a never-filled way (no cached line address maps to it). */
    static constexpr std::uint64_t kInvalidTag = ~std::uint64_t(0);

    /** Flat way index holding `line_addr`, or -1 when it is not cached. */
    std::ptrdiff_t findLine(Addr line_addr) const;
    /** Way an install of `line_addr` takes: the set's first never-filled
        way, else its least recently used one. */
    std::size_t victimFor(Addr line_addr) const;
    void installLine(Addr line_addr, bool dirty);
    bool sendFetch(Addr line_addr, MshrEntry &entry);
    void onFill(Addr line_addr);

    LlcConfig config_;
    const dram::AddressMapper &mapper_;
    std::vector<ctrl::MemoryController *> channels_;
    MissCallback onMissComplete_;

    int sets_;
    int setShift_; ///< log2(sets_): a line's tag is line >> setShift_.
    // Tag store, sets_ * ways entries set-major, split by field so the
    // tag probe reads a contiguous run of 8-byte tags.
    std::vector<std::uint64_t> tags_; ///< kInvalidTag: never filled.
    std::vector<std::uint64_t> lru_;
    std::vector<std::uint8_t> dirty_;
    std::uint64_t lruClock_ = 0;

    MshrTable mshrs_;
    /** onFill's waiter scratch (swapped with the entry's, so neither
        vector gives up its capacity). */
    std::vector<MshrEntry::Waiter> fillWaiters_;
    std::vector<int> mshrInUse_;                ///< Per core.
    std::deque<Addr> fetchRetryQ_; ///< Misses awaiting queue space.
    std::deque<Addr> writebackQ_;  ///< Dirty victims awaiting drain.

    WakeCallback onWake_;
    /**
     * Per-core line a Blocked access is parked on (kNoAddr = none). A
     * core retries one line until it succeeds, so one slot per core
     * suffices; stale slots are cleared on the core's next access.
     */
    std::vector<Addr> blockedLine_;
    int watchCount_ = 0; ///< Non-kNoAddr entries in blockedLine_.
    int watchLimit_ = 0; ///< 1 + highest core id that ever registered.
    /** Last tick left drains pending on full controller queues. */
    bool drainBlocked_ = false;

    LlcStats stats_;
};

} // namespace ccsim::mem

#endif // CCSIM_MEM_LLC_HH
