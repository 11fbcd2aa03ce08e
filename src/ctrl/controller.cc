#include "ctrl/controller.hh"

#include <algorithm>
#include <array>

#include "common/log.hh"
#include "obs/telemetry.hh"
#include "resilience/serial.hh"

namespace ccsim::ctrl {

const char *
rowPolicyName(RowPolicy policy)
{
    return policy == RowPolicy::Open ? "open-row" : "closed-row";
}

MemoryController::MemoryController(const dram::DramSpec &spec,
                                   const CtrlConfig &config,
                                   chargecache::LatencyProvider &provider,
                                   RefreshScheduler &refresh, int channel_id,
                                   Scheduler scheduler)
    : spec_(spec),
      config_(config),
      scheduler_(scheduler),
      provider_(provider),
      channelId_(channel_id),
      channel_(spec),
      refresh_(refresh)
{
    bankCtl_.resize(spec_.org.ranksPerChannel);
    for (auto &per_rank : bankCtl_)
        per_rank.resize(spec_.org.banksPerRank);
    // channel_ validated the spec: banksPerRank is a power of two.
    bankShift_ = log2Exact(static_cast<std::uint64_t>(spec_.org.banksPerRank));
    for (int rank = 0; rank < spec_.org.ranksPerChannel; ++rank)
        for (int bank = 0; bank < spec_.org.banksPerRank; ++bank)
            bankPtr_.push_back(&channel_.rank(rank).bank(bank));
    if (bankLists()) {
        CCSIM_ASSERT(spec_.org.ranksPerChannel <= kMaxScanRanks &&
                         bankPtr_.size() <= 64,
                     "DRAM geometry exceeds the bank-list scan's fixed "
                     "tables");
        readLists_.reset(bankPtr_.size());
        writeLists_.reset(bankPtr_.size());
        slots_.reserve(kReadQueueSize + kWriteQueueSize);
    }
    if (config_.trackRltl) {
        std::vector<Cycle> windows;
        for (double ms : config_.rltlWindowsMs)
            windows.push_back(spec_.timing.msToCycles(ms));
        rltl_ = std::make_unique<RltlTracker>(
            windows, spec_.timing.msToCycles(kRltlRefreshWindowMs),
            &refresh_);
    }
}

void
MemoryController::addListener(CommandListener *listener)
{
    listeners_.push_back(listener);
}

bool
MemoryController::canAccept(ReqType type) const
{
    if (type == ReqType::Read)
        return readCount() < kReadQueueSize;
    return writeCount() < kWriteQueueSize;
}

int
MemoryController::allocSlot()
{
    if (!freeSlots_.empty()) {
        int s = freeSlots_.back();
        freeSlots_.pop_back();
        return s;
    }
    slots_.emplace_back();
    return static_cast<int>(slots_.size() - 1);
}

void
MemoryController::BankLists::reset(std::size_t banks)
{
    head.assign(banks, -1);
    tail.assign(banks, -1);
    count.assign(banks, 0);
    hits.assign(banks, 0);
    nonEmpty = 0;
    size = 0;
}

void
MemoryController::enqueueListed(Request req, bool is_write)
{
    const std::size_t bi = bankIndexOf(req.addr);
    BankLists &q = lists(is_write);
    int s = allocSlot();
    Slot &sl = slots_[s];
    sl.seq = arrivalSeq_++;
    sl.bankNext = -1;
    sl.bankPrev = q.tail[bi];
    sl.qr.req = std::move(req);
    sl.qr.serviced = false;
    if (q.tail[bi] >= 0)
        slots_[q.tail[bi]].bankNext = s;
    else
        q.head[bi] = s;
    q.tail[bi] = s;

    const dram::Bank &b = *bankPtr_[bi];
    if (b.state() == dram::Bank::State::Active &&
        b.openRow() == sl.qr.req.addr.row)
        ++q.hits[bi];
    if (q.count[bi]++ == 0)
        q.nonEmpty |= std::uint64_t(1) << bi;
    ++q.size;
}

void
MemoryController::unlinkSlot(int s, bool is_write)
{
    Slot &sl = slots_[s];
    const std::size_t bi = bankIndexOf(sl.qr.req.addr);
    BankLists &q = lists(is_write);
    if (sl.bankPrev >= 0)
        slots_[sl.bankPrev].bankNext = sl.bankNext;
    else
        q.head[bi] = sl.bankNext;
    if (sl.bankNext >= 0)
        slots_[sl.bankNext].bankPrev = sl.bankPrev;
    else
        q.tail[bi] = sl.bankPrev;

    const dram::Bank &b = *bankPtr_[bi];
    if (b.state() == dram::Bank::State::Active &&
        b.openRow() == sl.qr.req.addr.row)
        --q.hits[bi];
    if (--q.count[bi] == 0)
        q.nonEmpty &= ~(std::uint64_t(1) << bi);
    --q.size;
    freeSlots_.push_back(s);
}

int
MemoryController::countRow(int head, int row) const
{
    int n = 0;
    for (int s = head; s >= 0; s = slots_[s].bankNext)
        n += slots_[s].qr.req.addr.row == row;
    return n;
}

void
MemoryController::noteRowChange(const dram::Command &cmd)
{
    const std::size_t bi = bankIndexOf(cmd.addr);
    switch (cmd.type) {
      case dram::CmdType::ACT:
        readLists_.hits[bi] = countRow(readLists_.head[bi], cmd.addr.row);
        writeLists_.hits[bi] =
            countRow(writeLists_.head[bi], cmd.addr.row);
        break;
      case dram::CmdType::PRE:
      case dram::CmdType::RDA:
      case dram::CmdType::WRA:
        readLists_.hits[bi] = 0;
        writeLists_.hits[bi] = 0;
        break;
      case dram::CmdType::PREA:
        CCSIM_PANIC("the controller closes banks with PRE, never PREA");
      default:
        break; // RD/WR/REF leave every open row as it was.
    }
}

void
MemoryController::enqueue(Request req)
{
    CCSIM_ASSERT(canAccept(req.type), "enqueue into a full queue");
    CCSIM_ASSERT(req.addr.channel == channelId_,
                 "request routed to the wrong channel");
    req.arrive = now_;
    if (req.token == 0)
        req.token = tokenSeq_++;
    if (req.type == ReqType::Read) {
        if (req.isPtw) {
            ++stats_.ptwReads;
            if (req.ptwLevel >= 0 && req.ptwLevel < 4)
                ++stats_.ptwReadsByLevel[req.ptwLevel];
        }
        // Read-after-write forwarding from the write queue. Completion
        // is delivered through the pending heap on the next tick —
        // callbacks must never fire inside enqueue (reentrancy).
        if (writeLines_.count(req.lineAddr)) {
            ++stats_.readForwards;
            // Forwarded reads never enter the read queue: wait is 0.
            if (obsHists_)
                obsHists_->queueWait.sample(0);
            PendingRead pr;
            pr.req = std::move(req);
            pr.done = now_ + 1;
            pending_.push(std::move(pr));
            return;
        }
        nextServeTry_ = 0; // New candidate: the scheduler must rescan.
        if (bankLists()) {
            enqueueListed(std::move(req), false);
            return;
        }
        readQ_.push_back({std::move(req), false});
    } else {
        // Coalesce repeated writebacks of the same line.
        if (!writeLines_.insert(req.lineAddr).second)
            return;
        ++stats_.writes;
        nextServeTry_ = 0; // New candidate: the scheduler must rescan.
        if (bankLists()) {
            enqueueListed(std::move(req), true);
            return;
        }
        writeQ_.push_back({std::move(req), false});
    }
}

void
MemoryController::notify(const dram::Command &cmd,
                         const dram::EffActTiming *eff)
{
    for (auto *l : listeners_)
        l->onCommand(cmd, now_, eff);
}

void
MemoryController::issue(const dram::Command &cmd,
                        const dram::EffActTiming *eff)
{
    nextServeTry_ = 0; // Bank/bus state changed: rescan.
    channel_.issue(cmd, now_, eff);
    if (bankLists())
        noteRowChange(cmd);
    notify(cmd, eff);
}

void
MemoryController::recordPrechargeOf(int rank, int bank, int row)
{
    dram::DramAddr addr;
    addr.channel = channelId_;
    addr.rank = rank;
    addr.bank = bank;
    addr.row = row;
    provider_.onPrecharge(bankCtl_[rank][bank].ownerCore, addr, row, now_);
    if (rltl_)
        rltl_->onPrecharge(addr, row, now_);
}

void
MemoryController::issueAct(const dram::DramAddr &addr, int core_id,
                           bool is_ptw)
{
    const dram::EffActTiming eff = provider_.onActivate(core_id, addr, now_);
    CCSIM_ASSERT(eff.trcd <= spec_.timing.tRCD &&
                     eff.tras <= spec_.timing.tRAS,
                 "provider returned slower-than-standard timing");
    dram::Command cmd{dram::CmdType::ACT, addr};
    issue(cmd, &eff);
    bankCtl_[addr.rank][addr.bank].ownerCore = core_id;
    ++stats_.acts;
    if (is_ptw) {
        // Row opened on behalf of a page-table walk: track how often
        // the walker's rows themselves enjoy HCRAC-reduced timing.
        ++stats_.ptwActs;
        if (eff.reduced)
            ++stats_.ptwActHits;
    }
    if (rltl_)
        rltl_->onActivate(addr, now_);
}

bool
MemoryController::tryRefresh()
{
    for (int rank = 0; rank < spec_.org.ranksPerChannel; ++rank) {
        if (!refresh_.due(rank, now_))
            continue;
        dram::Command ref{dram::CmdType::REF, {}};
        ref.addr.channel = channelId_;
        ref.addr.rank = rank;
        if (channel_.canIssue(ref, now_)) {
            issue(ref, nullptr);
            refresh_.onRefIssued(rank, now_);
            ++stats_.refs;
            return true;
        }
        // Close open banks so REF can issue.
        dram::Rank &r = channel_.rank(rank);
        for (int bank = 0; bank < r.numBanks(); ++bank) {
            const dram::Bank &b = r.bank(bank);
            if (b.state() != dram::Bank::State::Active)
                continue;
            dram::Command pre{dram::CmdType::PRE, {}};
            pre.addr.channel = channelId_;
            pre.addr.rank = rank;
            pre.addr.bank = bank;
            if (channel_.canIssue(pre, now_)) {
                int row = b.openRow();
                issue(pre, nullptr);
                recordPrechargeOf(rank, bank, row);
                ++stats_.pres;
                return true;
            }
        }
    }
    return false;
}

bool
MemoryController::anotherHitQueued(const dram::DramAddr &addr,
                                   std::uint64_t skip_token) const
{
    if (bankLists()) {
        // `addr` hits its bank's open row, so the open-row hit count is
        // this row's count. It includes the candidate itself: "another
        // hit" means two queued requests across both queues.
        return openRowHits(addr) >= 2;
    }
    // Reference path: the seed's queue scan, kept as the oracle the
    // kernel-equivalence tests compare the O(1) row count against.
    auto match = [&](const QueuedReq &qr) {
        return qr.req.token != skip_token && qr.req.addr.rank == addr.rank &&
               qr.req.addr.bank == addr.bank && qr.req.addr.row == addr.row;
    };
    for (const auto &qr : readQ_)
        if (match(qr))
            return true;
    for (const auto &qr : writeQ_)
        if (match(qr))
            return true;
    return false;
}

void
MemoryController::classify(QueuedReq &qr)
{
    if (qr.serviced)
        return;
    qr.serviced = true;
    const dram::Bank &b =
        channel_.rank(qr.req.addr.rank).bank(qr.req.addr.bank);
    if (b.state() == dram::Bank::State::Active) {
        if (b.openRow() == qr.req.addr.row)
            ++stats_.rowHits;
        else
            ++stats_.rowConflicts;
    } else {
        ++stats_.rowMisses;
    }
}

bool
MemoryController::trickleWrites() const
{
    return readCount() == 0 && writeCount() != 0;
}

void
MemoryController::scanBanks(bool is_write, std::uint64_t &hit_ready,
                            std::uint64_t &drive_ready, Cycle &bound)
{
    // Per-bank readiness and horizon-bound pass of the bank-list scan.
    // Two ideas:
    //
    //  1. Rank/bus state is invariant across one scan, so each rank's
    //     part of every command class's earliest-issue cycle is read
    //     once per rank instead of per request.
    //  2. Within one bank every queued request of the same class (row
    //     hit / conflict / idle-bank) shares identical issue timing, so
    //     readiness and the scheduler-horizon bound are decided per
    //     BANK from the per-bank counts — a fruitless scan costs
    //     O(non-empty banks), not O(queue).
    //
    // A command is legal now iff max(rank base, Bank::earliest()) <=
    // now (Rank/Channel::canIssue decompose exactly so), and that max
    // is also its horizon bound. RDA/WRA share RD/WR issue timing, so
    // the plain column class stands in for the auto-precharge variants.
    const dram::CmdType col_cmd =
        is_write ? dram::CmdType::WR : dram::CmdType::RD;
    const BankLists &q = lists(is_write);

    struct RankGate {
        bool refDue;
        Cycle colBase; ///< Rank+bus part of a column cmd's earliest.
        Cycle actBase; ///< Rank part of an ACT's earliest.
        Cycle preBase; ///< Rank part of a PRE's earliest.
    };
    std::array<RankGate, kMaxScanRanks> gates;
    unsigned filled = 0; // Bit per rank whose gate is read.

    hit_ready = 0;   // Bank's open-row hits issuable now.
    drive_ready = 0; // Bank's PRE/ACT issuable now.
    bound = kNoCycle;
    for (std::uint64_t m = q.nonEmpty; m; m &= m - 1) {
        const int bi = ctz64(m);
        const int r = bi >> bankShift_;
        RankGate &g = gates[r];
        if (!(filled & (1u << r))) {
            filled |= 1u << r;
            const dram::Rank &rank = channel_.rank(r);
            g.refDue = refresh_.due(r, now_);
            g.colBase = std::max(rank.columnEarliestBase(is_write),
                                 channel_.busEarliestBase(r, !is_write));
            g.actBase = rank.actEarliestBase();
            g.preBase = rank.preEarliestBase();
        }
        if (g.refDue)
            continue; // Un-gated only by a REF issue (rescans anyway).
        const std::uint64_t bit = std::uint64_t(1) << bi;
        auto gate = [&](Cycle earliest, std::uint64_t &ready) {
            if (earliest <= now_)
                ready |= bit;
            else
                bound = std::min(bound, earliest);
        };
        const dram::Bank &b = *bankPtr_[bi];
        if (b.state() == dram::Bank::State::Active) {
            const int hits = q.hits[bi];
            if (hits > 0)
                gate(std::max(g.colBase, b.earliest(col_cmd)), hit_ready);
            if (q.count[bi] > hits) // Conflicting rows queued: PRE.
                gate(std::max(g.preBase, b.earliest(dram::CmdType::PRE)),
                     drive_ready);
        } else {
            gate(std::max(g.actBase, b.earliest(dram::CmdType::ACT)),
                 drive_ready);
        }
    }
}

bool
MemoryController::serveQueueBankLists(bool is_write)
{
    // Calendar-kernel FR-FCFS scan over the per-bank lists. Selection
    // needs no arrival-order walk:
    //
    //  - FR: a hit-ready bank's oldest open-row hit is the first entry
    //    for the open row on its arrival-ordered list; the winner is
    //    the minimum arrival seq over hit-ready banks. "First ready hit
    //    in arrival order" and "oldest per ready bank, min across
    //    banks" are the same element, which is how this stays
    //    bit-identical to the walk-based reference scan.
    //  - FCFS: a drive-ready bank's oldest driver is the head of its
    //    bank list (idle bank: every entry drives an ACT) or the first
    //    entry past the leading open-row hits (active bank: those are
    //    served by column commands, not PRE); minimum seq across banks
    //    again.
    BankLists &q = lists(is_write);
    if (q.size == 0) {
        nextServeTry_ = kNoCycle; // Re-armed by the next enqueue.
        return false;
    }
    std::uint64_t hit_ready, drive_ready;
    Cycle bound;
    scanBanks(is_write, hit_ready, drive_ready, bound);

    if (hit_ready == 0 && drive_ready == 0) {
        // Nothing is legal before `bound`, and only an enqueue or an
        // issued command (both reset the horizon) can move it earlier.
        nextServeTry_ = std::max(bound, now_ + 1);
        return false;
    }

    if (hit_ready != 0) {
        int best = -1;
        std::uint64_t best_seq = ~std::uint64_t(0);
        for (std::uint64_t m = hit_ready; m; m &= m - 1) {
            const int bi = ctz64(m);
            const int open = bankPtr_[bi]->openRow();
            int s = q.head[bi];
            while (s >= 0 && slots_[s].qr.req.addr.row != open)
                s = slots_[s].bankNext;
            CCSIM_ASSERT(s >= 0, "hit-ready bank without an open-row hit");
            if (slots_[s].seq < best_seq) {
                best_seq = slots_[s].seq;
                best = s;
            }
        }
        Slot &sl = slots_[best];
        QueuedReq &qr = sl.qr;
        const dram::DramAddr a = qr.req.addr;
        dram::Command cmd{is_write ? dram::CmdType::WR : dram::CmdType::RD,
                          a};
        bool auto_pre = config_.rowPolicy == RowPolicy::Closed &&
                        !anotherHitQueued(a, qr.req.token);
        if (auto_pre)
            cmd.type = is_write ? dram::CmdType::WRA : dram::CmdType::RDA;
        classify(qr);
        issue(cmd, nullptr);
        if (auto_pre) {
            recordPrechargeOf(a.rank, a.bank, a.row);
            ++stats_.autoPres;
        }
        if (!is_write) {
            if (obsHists_)
                obsHists_->queueWait.sample(now_ - qr.req.arrive);
            PendingRead pr;
            pr.req = qr.req;
            pr.done = channel_.readDataDone(now_);
            pending_.push(std::move(pr));
        } else {
            writeLines_.erase(qr.req.lineAddr);
        }
        unlinkSlot(best, is_write);
        return true;
    }

    int best = -1;
    std::uint64_t best_seq = ~std::uint64_t(0);
    bool best_is_act = false;
    for (std::uint64_t m = drive_ready; m; m &= m - 1) {
        const int bi = ctz64(m);
        const dram::Bank &b = *bankPtr_[bi];
        int s = q.head[bi];
        const bool is_act = b.state() == dram::Bank::State::Idle;
        if (!is_act) {
            const int open = b.openRow();
            while (s >= 0 && slots_[s].qr.req.addr.row == open)
                s = slots_[s].bankNext;
            CCSIM_ASSERT(s >= 0,
                         "drive-ready bank without a conflicting entry");
        }
        if (slots_[s].seq < best_seq) {
            best_seq = slots_[s].seq;
            best = s;
            best_is_act = is_act;
        }
    }
    CCSIM_ASSERT(best >= 0,
                 "ready bank reported but no candidate slot found");
    QueuedReq &qr = slots_[best].qr;
    const dram::DramAddr &a = qr.req.addr;
    classify(qr);
    if (best_is_act) {
        issueAct(a, qr.req.coreId, qr.req.isPtw);
    } else {
        const dram::Bank &b = *bankPtr_[bankIndexOf(a)];
        int row = b.openRow();
        issue({dram::CmdType::PRE, a}, nullptr);
        recordPrechargeOf(a.rank, a.bank, row);
        ++stats_.pres;
    }
    return true;
}

bool
MemoryController::serveQueueReference(std::deque<QueuedReq> &queue,
                                      bool is_write)
{
    // Pass 1 (FR): oldest ready row hit.
    for (auto it = queue.begin(); it != queue.end(); ++it) {
        const dram::DramAddr &a = it->req.addr;
        if (refresh_.due(a.rank, now_))
            continue;
        const dram::Bank &b = channel_.rank(a.rank).bank(a.bank);
        if (b.state() != dram::Bank::State::Active || b.openRow() != a.row)
            continue;
        bool auto_pre = config_.rowPolicy == RowPolicy::Closed &&
                        !anotherHitQueued(a, it->req.token);
        dram::CmdType type;
        if (is_write)
            type = auto_pre ? dram::CmdType::WRA : dram::CmdType::WR;
        else
            type = auto_pre ? dram::CmdType::RDA : dram::CmdType::RD;
        dram::Command cmd{type, a};
        if (!channel_.canIssue(cmd, now_))
            continue;
        classify(*it);
        int open_row = b.openRow();
        issue(cmd, nullptr);
        if (auto_pre) {
            recordPrechargeOf(a.rank, a.bank, open_row);
            ++stats_.autoPres;
        }
        if (!is_write) {
            if (obsHists_)
                obsHists_->queueWait.sample(now_ - it->req.arrive);
            PendingRead pr;
            pr.req = std::move(it->req);
            pr.done = channel_.readDataDone(now_);
            pending_.push(std::move(pr));
        } else {
            writeLines_.erase(it->req.lineAddr);
        }
        queue.erase(it);
        return true;
    }

    // Pass 2 (FCFS): oldest request drives PRE/ACT toward its row.
    for (auto &qr : queue) {
        const dram::DramAddr &a = qr.req.addr;
        if (refresh_.due(a.rank, now_))
            continue;
        const dram::Bank &b = channel_.rank(a.rank).bank(a.bank);
        if (b.state() == dram::Bank::State::Idle) {
            dram::Command act{dram::CmdType::ACT, a};
            if (channel_.canIssue(act, now_)) {
                classify(qr);
                issueAct(a, qr.req.coreId, qr.req.isPtw);
                return true;
            }
        } else if (b.openRow() != a.row) {
            dram::Command pre{dram::CmdType::PRE, a};
            if (channel_.canIssue(pre, now_)) {
                classify(qr);
                int row = b.openRow();
                issue(pre, nullptr);
                recordPrechargeOf(a.rank, a.bank, row);
                ++stats_.pres;
                return true;
            }
        }
        // Row already open and matching: waiting on tRCD/tCCD; no
        // command needed on its behalf this cycle.
    }
    return false;
}

bool
MemoryController::tick()
{
    bool active = false;

    // Deliver finished read data.
    while (!pending_.empty() && pending_.top().done <= now_) {
        PendingRead pr = pending_.top();
        pending_.pop();
        ++stats_.reads;
        stats_.readLatencySum += pr.done - pr.req.arrive;
        if (obsHists_)
            obsHists_->readLatency.sample(pr.done - pr.req.arrive);
        active = true;
        pr.req.complete(pr.done);
    }

    // Write drain hysteresis.
    if (!drainMode_ && writeCount() >= kWriteHighWatermark)
        drainMode_ = true;
    if (drainMode_ && writeCount() <= kWriteLowWatermark)
        drainMode_ = false;

    // Refresh has absolute priority once due.
    if (tryRefresh()) {
        ++now_;
        return true;
    }

    if (!bankLists()) {
        // Seed-faithful reference: scan every tick, like the original
        // per-cycle loop.
        if (drainMode_ || trickleWrites())
            active |= serveQueueReference(writeQ_, true);
        else
            active |= serveQueueReference(readQ_, false);
    } else if (now_ >= nextServeTry_ ||
               scheduler_ == Scheduler::BankListsChecked) {
        bool within_horizon = now_ < nextServeTry_;
        bool is_write = drainMode_ || trickleWrites();
        bool served = serveQueueBankLists(is_write);
        CCSIM_ASSERT(!(served && within_horizon),
                     "scheduler horizon unsound: a scan inside "
                     "nextServeTry_ issued a command");
        active |= served;
    }

    ++now_;
    return active;
}

void
MemoryController::resetStats()
{
    stats_ = CtrlStats();
    provider_.resetStats();
    if (rltl_)
        rltl_->resetStats();
}


namespace {

// Requests hold raw callback pointers and padding, so they are dumped
// field-wise: byte-deterministic, with the pointer reduced to a
// presence flag that loadState rebinds.
void
putRequest(resilience::SnapshotWriter &w, const Request &req)
{
    w.put(req.type);
    w.put(req.lineAddr);
    w.put(req.addr);
    w.put(req.coreId);
    w.put(req.isPtw);
    w.put(req.ptwLevel);
    w.put(req.arrive);
    w.put(req.token);
    w.put(static_cast<bool>(req.callback != nullptr));
}

void
getRequest(resilience::SnapshotReader &r, Request &req,
           Request::Callback cb, void *cb_ctx)
{
    r.get(req.type);
    r.get(req.lineAddr);
    r.get(req.addr);
    r.get(req.coreId);
    r.get(req.isPtw);
    r.get(req.ptwLevel);
    r.get(req.arrive);
    r.get(req.token);
    bool has_callback = r.get<bool>();
    req.callback = has_callback ? cb : nullptr;
    req.callbackCtx = has_callback ? cb_ctx : nullptr;
}

} // namespace

void
MemoryController::saveState(resilience::SnapshotWriter &w) const
{
    channel_.saveState(w);
    w.put(static_cast<bool>(rltl_));
    if (rltl_)
        rltl_->saveState(w);

    // Queues in canonical (kernel-independent) arrival order. The slot
    // pool stores them unordered, so collect and sort by arrival seq.
    auto put_queue = [&](bool is_write) {
        std::vector<const QueuedReq *> reqs;
        if (bankLists()) {
            std::vector<bool> free_slot(slots_.size(), false);
            for (int s : freeSlots_)
                free_slot[static_cast<std::size_t>(s)] = true;
            std::vector<const Slot *> live;
            for (std::size_t s = 0; s < slots_.size(); ++s) {
                const Slot &sl = slots_[s];
                if (free_slot[s])
                    continue;
                if ((sl.qr.req.type == ReqType::Write) == is_write)
                    live.push_back(&sl);
            }
            std::sort(live.begin(), live.end(),
                      [](const Slot *a, const Slot *b) {
                          return a->seq < b->seq;
                      });
            for (const Slot *sl : live)
                reqs.push_back(&sl->qr);
        } else {
            const std::deque<QueuedReq> &q = is_write ? writeQ_ : readQ_;
            for (const QueuedReq &qr : q)
                reqs.push_back(&qr);
        }
        w.put(static_cast<std::uint64_t>(reqs.size()));
        for (const QueuedReq *qr : reqs) {
            putRequest(w, qr->req);
            w.put(qr->serviced);
        }
    };
    put_queue(false);
    put_queue(true);

    // The pending heap's exact array: completion ties (e.g. two
    // forwarded reads in one cycle) pop in heap order, so restoring a
    // re-sorted copy could reorder same-cycle callbacks. The array
    // itself is kernel-independent (it is a pure function of the
    // bit-identical push/pop history).
    struct Opener : PendingQueue {
        static const std::vector<PendingRead> &
        container(const PendingQueue &q)
        {
            return q.*&Opener::c;
        }
    };
    const std::vector<PendingRead> &heap = Opener::container(pending_);
    w.put(static_cast<std::uint64_t>(heap.size()));
    for (const PendingRead &pr : heap) {
        putRequest(w, pr.req);
        w.put(pr.done);
    }

    for (const auto &per_rank : bankCtl_)
        for (const BankCtl &bc : per_rank)
            w.put(bc.ownerCore);

    w.put(drainMode_);
    w.put(now_);
    w.put(tokenSeq_);
    w.put(stats_);
}

void
MemoryController::loadState(resilience::SnapshotReader &r,
                            Request::Callback cb, void *cb_ctx)
{
    channel_.loadState(r);
    bool has_rltl = r.get<bool>();
    if (has_rltl != static_cast<bool>(rltl_))
        throw resilience::SimError(
            resilience::ErrorKind::CorruptSnapshot,
            "RLTL-tracker presence mismatch in snapshot");
    if (rltl_)
        rltl_->loadState(r);

    // Rebuild queue storage and every mirror for THIS controller's
    // config from the canonical arrival-order dump.
    readQ_.clear();
    writeQ_.clear();
    writeLines_.clear();
    slots_.clear();
    freeSlots_.clear();
    if (bankLists()) {
        readLists_.reset(bankPtr_.size());
        writeLists_.reset(bankPtr_.size());
    }
    arrivalSeq_ = 0;

    auto get_queue = [&](bool is_write) {
        std::uint64_t n = r.get<std::uint64_t>();
        for (std::uint64_t i = 0; i < n; ++i) {
            Request req;
            getRequest(r, req, cb, cb_ctx);
            bool serviced = r.get<bool>();
            if (is_write)
                writeLines_.insert(req.lineAddr);
            if (bankLists()) {
                const std::size_t bi = bankIndexOf(req.addr);
                enqueueListed(std::move(req), is_write);
                int s = lists(is_write).tail[bi];
                slots_[static_cast<std::size_t>(s)].qr.serviced = serviced;
            } else {
                (is_write ? writeQ_ : readQ_)
                    .push_back({std::move(req), serviced});
            }
        }
    };
    get_queue(false);
    get_queue(true);

    struct Opener : PendingQueue {
        static std::vector<PendingRead> &
        container(PendingQueue &q)
        {
            return q.*&Opener::c;
        }
    };
    std::vector<PendingRead> &heap = Opener::container(pending_);
    heap.clear();
    std::uint64_t n_pending = r.get<std::uint64_t>();
    if (n_pending > r.remaining())
        throw resilience::SimError(resilience::ErrorKind::CorruptSnapshot,
                                   "pending-read count exceeds snapshot");
    heap.resize(n_pending);
    for (PendingRead &pr : heap) {
        getRequest(r, pr.req, cb, cb_ctx);
        r.get(pr.done);
    }
    if (!std::is_heap(heap.begin(), heap.end(), std::greater<>()))
        throw resilience::SimError(
            resilience::ErrorKind::CorruptSnapshot,
            "pending-read heap invariant violated in snapshot");

    for (auto &per_rank : bankCtl_)
        for (BankCtl &bc : per_rank)
            r.get(bc.ownerCore);

    r.get(drainMode_);
    r.get(now_);
    r.get(tokenSeq_);
    r.get(stats_);

    // Scheduler-horizon cache: re-arm rather than restore. A horizon of
    // 0 means "rescan", which is always sound, and the rescan issues
    // nothing observable if the saved horizon was still in force.
    nextServeTry_ = 0;
}

} // namespace ccsim::ctrl
