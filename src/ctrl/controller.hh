/**
 * @file
 * Cycle-accurate single-channel memory controller.
 *
 * Matches the configuration of Table 1 in the ChargeCache paper:
 * 64-entry read/write request queues, FR-FCFS scheduling, open-row or
 * closed-row policy, all-bank refresh every tREFI. Every ACT consults a
 * chargecache::LatencyProvider for its effective tRCD/tRAS; every
 * precharge (explicit or auto) notifies it — that is the complete
 * integration surface of the paper's mechanism.
 */

#ifndef CCSIM_CTRL_CONTROLLER_HH
#define CCSIM_CTRL_CONTROLLER_HH

#include <deque>
#include <memory>
#include <queue>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "chargecache/providers.hh"
#include "common/log.hh"
#include "common/types.hh"
#include "ctrl/refresh.hh"
#include "ctrl/request.hh"
#include "ctrl/rltl.hh"
#include "dram/channel.hh"

namespace ccsim::resilience {
class SnapshotWriter;
class SnapshotReader;
} // namespace ccsim::resilience

namespace ccsim::obs {
struct CtrlHists;
} // namespace ccsim::obs

namespace ccsim::ctrl {

/** Row-buffer management policy (Section 3 / Table 1). */
enum class RowPolicy {
    Open,   ///< Keep rows open until a conflicting request arrives.
    Closed, ///< Auto-precharge after the last queued row hit.
};

const char *rowPolicyName(RowPolicy policy);

struct CtrlConfig {
    int readQueueSize = 64;
    int writeQueueSize = 64;
    RowPolicy rowPolicy = RowPolicy::Open;
    int writeHighWatermark = 48; ///< Enter drain mode at this depth.
    int writeLowWatermark = 16;  ///< Leave drain mode at this depth.
    bool trackRltl = false;
    /** RLTL windows in milliseconds (Figure 4's sweep by default). */
    std::vector<double> rltlWindowsMs = {0.125, 0.25, 0.5, 1.0, 8.0, 32.0};
    double rltlRefreshWindowMs = 8.0;
    /**
     * Cache a scheduler horizon after fruitless FR-FCFS scans and skip
     * scans inside it (part of the event-skipping machinery). Disabled
     * by the PerCycle reference kernel, which scans every tick exactly
     * like the seed loop — so the kernel-equivalence tests also verify
     * the horizon against exhaustive scanning.
     */
    bool useServeHorizon = true;
    /**
     * Debug: run the FR-FCFS scan even inside the cached scheduler
     * horizon and assert it issues nothing — validates every
     * scan-skipping decision (set by SimConfig::kernelParanoid).
     */
    bool paranoidSchedule = false;
    /**
     * Event kernels: keep queued requests on per-bank and per-row
     * arrival-ordered lists so an issuing scan selects the FR-FCFS
     * winner in O(banks touched) instead of walking the queue in
     * arrival order. Must equal useServeHorizon (the per-bank
     * readiness pass is shared; asserted in the constructor) — the
     * PerCycle reference keeps its exhaustive arrival-order scan, so
     * the kernel-equivalence tests verify the list-based selection
     * against it.
     */
    bool useBankLists = true;
};

/** Aggregate controller statistics. */
struct CtrlStats {
    std::uint64_t reads = 0;
    std::uint64_t writes = 0;
    std::uint64_t acts = 0;
    std::uint64_t pres = 0;   ///< Explicit PRE/PREA-closed banks.
    std::uint64_t autoPres = 0;
    std::uint64_t refs = 0;
    std::uint64_t rowHits = 0;
    std::uint64_t rowMisses = 0;
    std::uint64_t rowConflicts = 0;
    std::uint64_t readForwards = 0; ///< Reads served from the write queue.
    std::uint64_t readLatencySum = 0; ///< Sum over reads, ctrl cycles.
    std::uint64_t ptwReads = 0;   ///< Reads injected by page-table walks.
    std::uint64_t ptwActs = 0;    ///< ACTs triggered by PTW reads.
    std::uint64_t ptwActHits = 0; ///< PTW ACTs issued with reduced timing.
    /**
     * PTW reads by walk level (0 = radix root). The page-walk cache
     * suppresses upper-level fetches, so its effect shows up here as
     * levels 0..2 emptying out while the leaf level stays.
     */
    std::uint64_t ptwReadsByLevel[4] = {0, 0, 0, 0};
};

class MemoryController
{
  public:
    /**
     * @param spec device spec (one channel's worth).
     * @param config controller policy knobs.
     * @param provider per-ACT latency decision (not owned).
     * @param refresh refresh scheduler for this channel (not owned; it
     *        is external so NUAT can be built against it first).
     * @param channel_id this controller's channel index.
     */
    MemoryController(const dram::DramSpec &spec, const CtrlConfig &config,
                     chargecache::LatencyProvider &provider,
                     RefreshScheduler &refresh, int channel_id);

    /** Attach a command observer (energy model, oracle...). */
    void addListener(CommandListener *listener);

    /** True if a read/write can be accepted this cycle. */
    bool canAccept(ReqType type) const;

    /**
     * Enqueue a request (must canAccept). Reads complete via
     * `req.callback`; writes are acknowledged immediately.
     */
    void enqueue(Request req);

    /**
     * Advance one controller (DRAM bus) cycle. Returns true if the tick
     * did observable work (delivered read data, or issued a command);
     * an idle tick is pure clock advance and may equivalently be
     * replaced by skipTicks(1).
     */
    bool tick();

    /**
     * Earliest controller cycle (>= now()) at which a tick could do
     * observable work: the earliest of the next read-data delivery, the
     * next refresh falling due, and — while requests are queued — the
     * cached scheduler horizon (the earliest cycle any queued request's
     * next command could become timing-legal; see serveQueueBankLists).
     * Never kNoCycle — refresh is periodic.
     */
    Cycle
    nextEventAt() const
    {
        Cycle ev = refresh_.nextEventAt();
        if (!pending_.empty() && pending_.top().done < ev)
            ev = pending_.top().done;
        if (queuedRequests() != 0 && nextServeTry_ < ev)
            ev = nextServeTry_;
        return ev > now_ ? ev : now_;
    }

    /**
     * Skip `n` provably-idle ticks: requires nextEventAt() >= now() + n.
     * Equivalent to calling tick() n times when each of those ticks
     * would have been pure clock advance.
     */
    void
    skipTicks(Cycle n)
    {
        CCSIM_ASSERT(nextEventAt() >= now_ + n,
                     "skipTicks over a non-idle region");
        now_ += n;
    }

    /**
     * Advance one provably-idle cycle without re-deriving the horizon:
     * the calendar kernel calls this when its cached posted event for
     * this controller lies strictly in the future, which is exactly the
     * nextEventAt() > now() precondition of skipTicks(1). Paranoid mode
     * revalidates every such decision against a real tick.
     */
    void advanceIdle() { ++now_; }

    /**
     * True once since the last call if queue state changed outside a
     * tick (an enqueue) — the calendar kernel's cue to re-read
     * nextEventAt() and repost this controller's event.
     */
    bool
    consumeHorizonDirty()
    {
        bool dirty = horizonDirty_;
        horizonDirty_ = false;
        return dirty;
    }

    /**
     * One controller cycle for the event kernel: run tick() if it could
     * do work this cycle, else elide it as a pure clock advance.
     */
    bool
    tickOrSkip()
    {
        if (nextEventAt() <= now_)
            return tick();
        ++now_; // Provably idle: equivalent to tick() with no work.
        return false;
    }

    Cycle now() const { return now_; }

    /** Queued reads (deque or slot-pool storage, per useBankLists). */
    std::size_t
    readCount() const
    {
        return config_.useBankLists ? readSize_ : readQ_.size();
    }

    /** Queued writes. */
    std::size_t
    writeCount() const
    {
        return config_.useBankLists ? writeSize_ : writeQ_.size();
    }

    /** Outstanding queued requests (reads + writes). */
    size_t queuedRequests() const { return readCount() + writeCount(); }

    /** In-flight reads whose data has not yet returned. */
    size_t pendingReads() const { return pending_.size(); }

    const CtrlStats &stats() const { return stats_; }
    void resetStats();

#if CCSIM_OBS
    /**
     * Attach the telemetry hot-path histograms (read service latency,
     * queue wait). Observation-only: samples mirror values the
     * controller already computes, so attaching them cannot perturb
     * scheduling. Null (the default) skips the hooks with a single
     * pointer test.
     */
    void setObsHists(obs::CtrlHists *hists) { obsHists_ = hists; }
#endif

    const dram::Channel &channel() const { return channel_; }
    RefreshScheduler &refreshScheduler() { return refresh_; }
    const RefreshScheduler &refreshScheduler() const { return refresh_; }
    const CtrlConfig &config() const { return config_; }
    RltlTracker *rltl() { return rltl_.get(); }
    chargecache::LatencyProvider &provider() { return provider_; }

    /**
     * Checkpoint. Queues are dumped in canonical arrival order (and the
     * pending heap as its exact array), so a snapshot from any kernel
     * restores into any other: loadState() rebuilds whatever mirror
     * bookkeeping (key vectors, bank/row lists, slot pool) the
     * restoring controller's config calls for. The scheduler-horizon
     * cache is deliberately NOT carried over — restore re-arms it at 0
     * (full rescan), which the horizon-equivalence machinery proves
     * observationally identical.
     *
     * Requests carry a raw completion-callback pointer that cannot
     * survive a process boundary; saveState records only its presence
     * and loadState rebinds present callbacks to (`cb`, `ctx`) — in
     * this simulator the LLC fill path (Llc::fillCallback) is the sole
     * producer of read callbacks, so a single rebinding target
     * suffices.
     */
    void saveState(resilience::SnapshotWriter &w) const;
    void loadState(resilience::SnapshotReader &r, Request::Callback cb,
                   void *cb_ctx);

  private:
    struct QueuedReq {
        Request req;
        bool serviced = false; ///< Row hit/miss/conflict classified.
    };

    struct PendingRead {
        Request req;
        Cycle done;
        bool operator>(const PendingRead &o) const { return done > o.done; }
    };

    /** One bank's controller-side bookkeeping. */
    struct BankCtl {
        int ownerCore = -1; ///< Core whose request opened the row.
    };

    /**
     * Concrete provider type, resolved once at construction so the
     * per-ACT probe of the two common schemes dispatches statically
     * (the provider classes are final, letting the compiler inline).
     */
    enum class ProviderKind { Generic, Standard, ChargeCache };

    void notify(const dram::Command &cmd, const dram::EffActTiming *eff);
    void issue(const dram::Command &cmd, const dram::EffActTiming *eff);
    void issueAct(const dram::DramAddr &addr, int core_id, bool is_ptw);
    void recordPrechargeOf(int rank, int bank, int row);
    bool tryRefresh();
    bool trickleWrites() const;
    /** Per-bank readiness + horizon-bound pass shared by the optimized
        scans: which banks could issue a row hit / a PRE-ACT driver this
        cycle, and (for the rest) the earliest cycle that could change. */
    void scanBanks(bool is_write, std::uint64_t &hit_ready,
                   std::uint64_t &drive_ready, Cycle &bound);
    /** Event-kernel FR-FCFS scan (EventSkip and Calendar): selects the
        winner directly from the per-bank / per-row arrival-ordered
        lists — O(banks touched), no arrival-order walk. (The interim
        key-mirror scan the EventSkip kernel soaked on was folded away
        once the bank lists proved bit-identical.) Equivalence-tested
        against serveQueueReference. */
    bool serveQueueBankLists(bool is_write);
    /** The seed's two-pass FR-FCFS scan, preserved verbatim as the
        PerCycle reference — the oracle the kernel-equivalence tests
        compare the optimized scan against. */
    bool serveQueueReference(std::deque<QueuedReq> &queue, bool is_write);
    bool anotherHitQueued(const dram::DramAddr &addr,
                          std::uint64_t skip_token) const;
    void classify(QueuedReq &qr);

    // ---- slot-pool storage (useBankLists) ---------------------------
    int allocSlot();
    void enqueueListed(Request req, bool is_write);
    void unlinkSlot(int slot, bool is_write);

    /** Pack a row identity for the key mirrors / row-count maps. */
    static std::uint64_t
    rowKeyOf(int rank, int bank, int row)
    {
        return (std::uint64_t(rank) << 48) | (std::uint64_t(bank) << 40) |
               std::uint64_t(static_cast<std::uint32_t>(row));
    }

    static std::uint64_t
    rowKeyOf(const dram::DramAddr &addr)
    {
        return rowKeyOf(addr.rank, addr.bank, addr.row);
    }

    // Unpack helpers — the single place that mirrors rowKeyOf's layout.
    static int rankOfKey(std::uint64_t key) { return int(key >> 48); }
    static int bankOfKey(std::uint64_t key) { return int(key >> 40) & 0xFF; }
    static int
    rowOfKey(std::uint64_t key)
    {
        return static_cast<int>(key & 0xFFFFFFFF);
    }

    /** Flat index into bankPtr_ for the FR-FCFS scan's hot lookup. */
    std::size_t
    bankIndexOf(const dram::DramAddr &addr) const
    {
        return static_cast<std::size_t>(addr.rank) *
                   static_cast<std::size_t>(spec_.org.banksPerRank) +
               static_cast<std::size_t>(addr.bank);
    }

    dram::DramSpec spec_;
    CtrlConfig config_;
    chargecache::LatencyProvider &provider_;
    ProviderKind providerKind_ = ProviderKind::Generic;
    int channelId_;

    dram::Channel channel_;
    RefreshScheduler &refresh_;
    std::unique_ptr<RltlTracker> rltl_;
    std::vector<CommandListener *> listeners_;

    std::deque<QueuedReq> readQ_;
    std::deque<QueuedReq> writeQ_;
    /**
     * Line addresses currently in writeQ_ (unique: coalescing keeps at
     * most one write per line). Makes read-after-write forwarding and
     * write coalescing O(1) per enqueue instead of a writeQ_ scan.
     */
    std::unordered_set<Addr> writeLines_;
    /**
     * Per-row bookkeeping: request count plus the head/tail of the
     * row's arrival-ordered slot list. The counts let the optimized
     * scan decide a whole bank's readiness (and its contribution to
     * the scheduler-horizon bound) in O(1), and make the closed-row
     * auto-precharge test ("is another hit to this row queued?") O(1)
     * instead of a scan of both queues. Maintained only when
     * useBankLists (== useServeHorizon).
     */
    struct RowList {
        int count = 0;
        int head = -1; ///< Oldest slot for this row (useBankLists).
        int tail = -1;
    };
    std::unordered_map<std::uint64_t, RowList> readRows_;
    std::unordered_map<std::uint64_t, RowList> writeRows_;
    std::vector<int> readBankCount_;  ///< By bankIndexOf.
    std::vector<int> writeBankCount_; ///< By bankIndexOf.

    /**
     * Slot-pool request storage (useBankLists): requests live in a
     * free-listed pool and are threaded onto two intrusive lists each —
     * their bank's and their row's, both in arrival order (seq). The
     * FR pass reads each hit-ready bank's oldest open-row hit straight
     * from the row list head; the FCFS pass reads each drive-ready
     * bank's oldest conflicting request from the bank list; arrival
     * seq numbers arbitrate across banks. Replaces the deques (and the
     * key mirror) entirely in this mode.
     */
    struct Slot {
        QueuedReq qr;
        std::uint64_t key = 0; ///< rowKeyOf the request.
        std::uint64_t seq = 0; ///< Arrival order, monotone.
        int bankNext = -1, bankPrev = -1;
        int rowNext = -1, rowPrev = -1;
    };
    std::vector<Slot> slots_;
    std::vector<int> freeSlots_;
    std::vector<int> readBankHead_, readBankTail_;   ///< By bankIndexOf.
    std::vector<int> writeBankHead_, writeBankTail_; ///< By bankIndexOf.
    std::size_t readSize_ = 0, writeSize_ = 0;
    std::uint64_t arrivalSeq_ = 0;
    using PendingQueue =
        std::priority_queue<PendingRead, std::vector<PendingRead>,
                            std::greater<>>;
    PendingQueue pending_;
    std::vector<std::vector<BankCtl>> bankCtl_; ///< [rank][bank].
    /** Flat [rank * banksPerRank + bank] pointers into channel_. */
    std::vector<const dram::Bank *> bankPtr_;

    bool drainMode_ = false;
    /**
     * Scheduler horizon: no serveQueue scan before this cycle can issue
     * a command. Computed after each fruitless scan from per-request
     * Channel::earliest() lower bounds; reset to 0 (rescan) by anything
     * that changes scheduling state — an enqueue or any issued command.
     */
    Cycle nextServeTry_ = 0;
    Cycle now_ = 0;
    std::uint64_t tokenSeq_ = 1;
    /** Queue state changed outside a tick; see consumeHorizonDirty(). */
    bool horizonDirty_ = true;
    CtrlStats stats_;
#if CCSIM_OBS
    obs::CtrlHists *obsHists_ = nullptr; ///< Telemetry histograms.
#endif
};

} // namespace ccsim::ctrl

#endif // CCSIM_CTRL_CONTROLLER_HH
