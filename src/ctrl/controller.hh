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
};

/**
 * How the FR-FCFS scheduler finds its next command. System::build
 * picks it from the kernel; both list modes must issue exactly what
 * the reference scan does, which the kernel-equivalence tests check.
 */
enum class Scheduler {
    /**
     * The seed loop's exhaustive arrival-order scan, every tick (the
     * PerCycle reference kernel).
     */
    Reference,
    /**
     * The Calendar kernel's scheduler: queued requests sit on per-bank
     * arrival-ordered lists with per-bank open-row hit counts, so an
     * issuing scan selects the FR-FCFS winner in O(banks touched), and
     * a scheduler horizon cached after fruitless scans skips scans
     * inside it.
     */
    BankLists,
    /**
     * BankLists that also scans inside the cached horizon and asserts
     * nothing issues there: validates every scan-skipping decision
     * (the paranoid Calendar kernel, SimConfig::kernelParanoid).
     */
    BankListsChecked,
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
     * @param scheduler how the FR-FCFS scan finds its command.
     */
    MemoryController(const dram::DramSpec &spec, const CtrlConfig &config,
                     chargecache::LatencyProvider &provider,
                     RefreshScheduler &refresh, int channel_id,
                     Scheduler scheduler = Scheduler::BankLists);

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
     * Never kNoCycle — refresh is periodic. A few loads and compares:
     * the calendar kernel asks at every DRAM boundary and every jump,
     * so an enqueue needs no notice to move it.
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
     * skipTicks(1) without its re-check of the horizon: the calendar
     * kernel calls this at a DRAM boundary where it has just found
     * nextEventAt() > now(). Paranoid mode revalidates every such
     * decision against a real tick.
     */
    void advanceIdle() { ++now_; }

    Cycle now() const { return now_; }

    /** Queued reads (slot-pool or deque storage, per the scheduler). */
    std::size_t
    readCount() const
    {
        return bankLists() ? readLists_.size : readQ_.size();
    }

    /** Queued writes. */
    std::size_t
    writeCount() const
    {
        return bankLists() ? writeLists_.size : writeQ_.size();
    }

    /** Outstanding queued requests (reads + writes). */
    size_t queuedRequests() const { return readCount() + writeCount(); }

    /** In-flight reads whose data has not yet returned. */
    size_t pendingReads() const { return pending_.size(); }

    /**
     * Queued requests, reads plus writes, that hit the open row of
     * `addr`'s bank (0 while the bank is idle). Bank-list mode only:
     * the calendar kernel keeps this count exact incrementally.
     */
    int
    openRowHits(const dram::DramAddr &addr) const
    {
        CCSIM_ASSERT(bankLists(),
                     "open-row hit counts are kept in bank-list mode");
        const std::size_t bi = bankIndexOf(addr);
        return readLists_.hits[bi] + writeLists_.hits[bi];
    }

    const CtrlStats &stats() const { return stats_; }
    void resetStats();

    /**
     * Attach the telemetry hot-path histograms (read service latency,
     * queue wait). Observation-only: samples mirror values the
     * controller already computes, so attaching them cannot perturb
     * scheduling. Null (the default) skips the hooks with a single
     * pointer test.
     */
    void setObsHists(obs::CtrlHists *hists) { obsHists_ = hists; }

    const dram::Channel &channel() const { return channel_; }
    const CtrlConfig &config() const { return config_; }
    RltlTracker *rltl() { return rltl_.get(); }

    /**
     * Checkpoint. Queues are dumped in canonical arrival order (and the
     * pending heap as its exact array), so a snapshot from any kernel
     * restores into any other: loadState() rebuilds whatever mirror
     * bookkeeping (bank lists, hit counts, slot pool) the restoring
     * controller's config calls for. The scheduler-horizon
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

    /** Rank capacity of scanBanks' per-scan gate table. */
    static constexpr int kMaxScanRanks = 8;

    /**
     * Slot-pool request storage (bank-list modes): requests live in a
     * free-listed pool, threaded onto their bank's arrival-ordered
     * (seq) list. The FR pass takes each hit-ready bank's oldest
     * open-row hit by walking that list; the FCFS pass takes each
     * drive-ready bank's oldest request not served by a column
     * command; arrival seq numbers arbitrate across banks. Replaces
     * the deques entirely in this mode.
     */
    struct Slot {
        QueuedReq qr;
        std::uint64_t seq = 0; ///< Arrival order, monotone.
        int bankNext = -1, bankPrev = -1;
    };
    /**
     * One queue's bank lists, indexed by bankIndexOf: each bank's list
     * head/tail, its queued-request count, and how many of those hit
     * the bank's open row (0 while it is idle). enqueueListed,
     * unlinkSlot and noteRowChange keep the hit counts exact, so the
     * scan decides a bank's readiness in O(1) and the closed-row
     * auto-precharge test is a sum of two counts.
     */
    struct BankLists {
        std::vector<int> head, tail;
        std::vector<int> count;
        std::vector<int> hits;
        std::uint64_t nonEmpty = 0; ///< Bit per bank with count > 0.
        std::size_t size = 0;       ///< Queued requests.

        void reset(std::size_t banks);
    };

    void notify(const dram::Command &cmd, const dram::EffActTiming *eff);
    void issue(const dram::Command &cmd, const dram::EffActTiming *eff);
    void issueAct(const dram::DramAddr &addr, int core_id, bool is_ptw);
    void recordPrechargeOf(int rank, int bank, int row);
    bool tryRefresh();
    bool trickleWrites() const;
    /** Per-bank readiness + horizon-bound pass of the bank-list scan:
        which banks could issue a row hit / a PRE-ACT driver this cycle,
        and (for the rest) the earliest cycle that could change. */
    void scanBanks(bool is_write, std::uint64_t &hit_ready,
                   std::uint64_t &drive_ready, Cycle &bound);
    /** Calendar-kernel FR-FCFS scan: selects the winner directly from
        the per-bank arrival-ordered lists — O(banks touched), no
        arrival-order walk. Equivalence-tested against
        serveQueueReference. */
    bool serveQueueBankLists(bool is_write);
    /** The seed's two-pass FR-FCFS scan, preserved verbatim as the
        PerCycle reference — the oracle the kernel-equivalence tests
        compare the optimized scan against. */
    bool serveQueueReference(std::deque<QueuedReq> &queue, bool is_write);
    bool anotherHitQueued(const dram::DramAddr &addr,
                          std::uint64_t skip_token) const;
    void classify(QueuedReq &qr);

    // ---- slot-pool storage (bank-list modes) ------------------------
    int allocSlot();
    void enqueueListed(Request req, bool is_write);
    void unlinkSlot(int slot, bool is_write);
    /** Keep the open-row hit counts exact across a command that opens
        (ACT: recount) or closes (PRE/RDA/WRA: zero) a bank's row. */
    void noteRowChange(const dram::Command &cmd);
    /** Queued requests for `row` on the bank list starting at `head`. */
    int countRow(int head, int row) const;

    BankLists &
    lists(bool is_write)
    {
        return is_write ? writeLists_ : readLists_;
    }

    /** Flat bank index: rank above the (power-of-two) bank bits. */
    std::size_t
    bankIndexOf(const dram::DramAddr &addr) const
    {
        return (static_cast<std::size_t>(addr.rank) << bankShift_) |
               static_cast<std::size_t>(addr.bank);
    }

    /** True unless the scheduler is the reference scan. */
    bool bankLists() const { return scheduler_ != Scheduler::Reference; }

    dram::DramSpec spec_;
    CtrlConfig config_;
    Scheduler scheduler_;
    chargecache::LatencyProvider &provider_;
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

    std::vector<Slot> slots_;
    std::vector<int> freeSlots_;
    BankLists readLists_, writeLists_;
    int bankShift_ = 0; ///< log2(banksPerRank).
    std::uint64_t arrivalSeq_ = 0;
    using PendingQueue =
        std::priority_queue<PendingRead, std::vector<PendingRead>,
                            std::greater<>>;
    PendingQueue pending_;
    std::vector<std::vector<BankCtl>> bankCtl_; ///< [rank][bank].
    /** Flat bankIndexOf-indexed pointers into channel_. */
    std::vector<const dram::Bank *> bankPtr_;

    bool drainMode_ = false;
    /**
     * Scheduler horizon: no serveQueue scan before this cycle can issue
     * a command. Computed after each fruitless scan from per-bank
     * earliest-issue lower bounds; reset to 0 (rescan) by anything
     * that changes scheduling state — an enqueue or any issued command.
     */
    Cycle nextServeTry_ = 0;
    Cycle now_ = 0;
    std::uint64_t tokenSeq_ = 1;
    CtrlStats stats_;
    obs::CtrlHists *obsHists_ = nullptr; ///< Telemetry histograms.
};

} // namespace ccsim::ctrl

#endif // CCSIM_CTRL_CONTROLLER_HH
