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
                                   RefreshScheduler &refresh, int channel_id)
    : spec_(spec),
      config_(config),
      provider_(provider),
      channelId_(channel_id),
      channel_(spec),
      refresh_(refresh)
{
    if (dynamic_cast<chargecache::StandardProvider *>(&provider_))
        providerKind_ = ProviderKind::Standard;
    else if (dynamic_cast<chargecache::ChargeCacheProvider *>(&provider_))
        providerKind_ = ProviderKind::ChargeCache;
    bankCtl_.resize(spec_.org.ranksPerChannel);
    for (auto &per_rank : bankCtl_)
        per_rank.resize(spec_.org.banksPerRank);
    for (int rank = 0; rank < spec_.org.ranksPerChannel; ++rank)
        for (int bank = 0; bank < spec_.org.banksPerRank; ++bank)
            bankPtr_.push_back(&channel_.rank(rank).bank(bank));
    readBankCount_.assign(bankPtr_.size(), 0);
    writeBankCount_.assign(bankPtr_.size(), 0);
    CCSIM_ASSERT(config_.useBankLists == config_.useServeHorizon,
                 "the serve-horizon scheduler is the bank-list scan: "
                 "both event kernels use it, the per-cycle reference "
                 "uses neither");
    if (config_.useBankLists) {
        readBankHead_.assign(bankPtr_.size(), -1);
        readBankTail_.assign(bankPtr_.size(), -1);
        writeBankHead_.assign(bankPtr_.size(), -1);
        writeBankTail_.assign(bankPtr_.size(), -1);
        slots_.reserve(static_cast<std::size_t>(config_.readQueueSize) +
                       static_cast<std::size_t>(config_.writeQueueSize));
    }
    if (config_.trackRltl) {
        std::vector<Cycle> windows;
        for (double ms : config_.rltlWindowsMs)
            windows.push_back(spec_.timing.msToCycles(ms));
        rltl_ = std::make_unique<RltlTracker>(
            windows, spec_.timing.msToCycles(config_.rltlRefreshWindowMs),
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
        return readCount() < static_cast<size_t>(config_.readQueueSize);
    return writeCount() < static_cast<size_t>(config_.writeQueueSize);
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
MemoryController::enqueueListed(Request req, bool is_write)
{
    const std::size_t bi = bankIndexOf(req.addr);
    const std::uint64_t key = rowKeyOf(req.addr);
    int s = allocSlot();
    Slot &sl = slots_[s];
    sl.qr.req = std::move(req);
    sl.qr.serviced = false;
    sl.key = key;
    sl.seq = arrivalSeq_++;
    sl.bankNext = sl.rowNext = -1;

    std::vector<int> &head = is_write ? writeBankHead_ : readBankHead_;
    std::vector<int> &tail = is_write ? writeBankTail_ : readBankTail_;
    sl.bankPrev = tail[bi];
    if (tail[bi] >= 0)
        slots_[tail[bi]].bankNext = s;
    else
        head[bi] = s;
    tail[bi] = s;

    RowList &row = (is_write ? writeRows_ : readRows_)[key];
    sl.rowPrev = row.tail;
    if (row.tail >= 0)
        slots_[row.tail].rowNext = s;
    else
        row.head = s;
    row.tail = s;
    ++row.count;

    ++(is_write ? writeBankCount_ : readBankCount_)[bi];
    ++(is_write ? writeSize_ : readSize_);
}

void
MemoryController::unlinkSlot(int s, bool is_write)
{
    Slot &sl = slots_[s];
    const std::size_t bi =
        static_cast<std::size_t>(rankOfKey(sl.key)) *
            static_cast<std::size_t>(spec_.org.banksPerRank) +
        static_cast<std::size_t>(bankOfKey(sl.key));

    std::vector<int> &head = is_write ? writeBankHead_ : readBankHead_;
    std::vector<int> &tail = is_write ? writeBankTail_ : readBankTail_;
    if (sl.bankPrev >= 0)
        slots_[sl.bankPrev].bankNext = sl.bankNext;
    else
        head[bi] = sl.bankNext;
    if (sl.bankNext >= 0)
        slots_[sl.bankNext].bankPrev = sl.bankPrev;
    else
        tail[bi] = sl.bankPrev;

    auto &rows = is_write ? writeRows_ : readRows_;
    auto it = rows.find(sl.key);
    CCSIM_ASSERT(it != rows.end() && it->second.count > 0,
                 "row list out of sync");
    RowList &row = it->second;
    if (sl.rowPrev >= 0)
        slots_[sl.rowPrev].rowNext = sl.rowNext;
    else
        row.head = sl.rowNext;
    if (sl.rowNext >= 0)
        slots_[sl.rowNext].rowPrev = sl.rowPrev;
    else
        row.tail = sl.rowPrev;
    if (--row.count == 0)
        rows.erase(it);

    --(is_write ? writeBankCount_ : readBankCount_)[bi];
    --(is_write ? writeSize_ : readSize_);
    freeSlots_.push_back(s);
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
        horizonDirty_ = true;
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
#if CCSIM_OBS
            // Forwarded reads never enter the read queue: wait is 0.
            if (obsHists_)
                obsHists_->queueWait.sample(0);
#endif
            PendingRead pr;
            pr.req = std::move(req);
            pr.done = now_ + 1;
            pending_.push(std::move(pr));
            return;
        }
        nextServeTry_ = 0; // New candidate: the scheduler must rescan.
        if (config_.useBankLists) {
            enqueueListed(std::move(req), false);
            return;
        }
        readQ_.push_back({std::move(req), false});
    } else {
        // Coalesce repeated writebacks of the same line.
        if (!writeLines_.insert(req.lineAddr).second)
            return;
        ++stats_.writes;
        horizonDirty_ = true;
        nextServeTry_ = 0; // New candidate: the scheduler must rescan.
        if (config_.useBankLists) {
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
    dram::EffActTiming eff;
    switch (providerKind_) {
      case ProviderKind::Standard:
        eff = static_cast<chargecache::StandardProvider &>(provider_)
                  .onActivate(core_id, addr, now_);
        break;
      case ProviderKind::ChargeCache:
        eff = static_cast<chargecache::ChargeCacheProvider &>(provider_)
                  .onActivate(core_id, addr, now_);
        break;
      default:
        eff = provider_.onActivate(core_id, addr, now_);
        break;
    }
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
    if (config_.useServeHorizon) {
        // The per-queue row counts include the candidate request
        // itself, so "another hit" means at least two queued requests
        // for this row across both queues.
        int count = 0;
        auto rit = readRows_.find(rowKeyOf(addr));
        if (rit != readRows_.end())
            count += rit->second.count;
        auto wit = writeRows_.find(rowKeyOf(addr));
        if (wit != writeRows_.end())
            count += wit->second.count;
        return count >= 2;
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
    // Per-bank readiness and horizon-bound pass shared by the
    // optimized FR-FCFS scans. Two ideas:
    //
    //  1. Rank/bus gates are invariant across one scan, so they are
    //     evaluated once per rank instead of per entry.
    //  2. Within one bank every queued request of the same class (row
    //     hit / conflict / idle-bank) shares identical issue timing, so
    //     readiness and the scheduler-horizon bound are decided per
    //     BANK from the per-queue row/bank counts — a fruitless scan
    //     costs O(banks), not O(queue).
    //
    // RDA/WRA share RD/WR issue timing, so the plain column class
    // stands in for the auto-precharge variants throughout.
    const dram::CmdType col_cmd =
        is_write ? dram::CmdType::WR : dram::CmdType::RD;
    std::unordered_map<std::uint64_t, RowList> &rows =
        is_write ? writeRows_ : readRows_;
    std::vector<int> &bank_count =
        is_write ? writeBankCount_ : readBankCount_;

    struct RankGate {
        bool valid;
        bool refDue;
        bool colOk;
        bool actOk;
        bool preOk;
        Cycle colBase; ///< Rank+bus part of a column cmd's earliest.
        Cycle actBase; ///< Rank part of an ACT's earliest.
        Cycle preBase; ///< Rank part of a PRE's earliest.
    };
    std::array<RankGate, 8> gates;
    const int n_ranks = spec_.org.ranksPerChannel;
    const int banks_per_rank = spec_.org.banksPerRank;
    const int n_banks = n_ranks * banks_per_rank;
    CCSIM_ASSERT(n_ranks <= static_cast<int>(gates.size()) &&
                     n_banks <= 64,
                 "DRAM geometry exceeds the scan's fixed tables");
    for (int r = 0; r < n_ranks; ++r)
        gates[r].valid = false;
    auto fill_gate = [&](RankGate &g, int r) {
        const dram::Rank &rank = channel_.rank(r);
        bool pre_ok = rank.preReady(now_);
        g.valid = true;
        g.refDue = refresh_.due(r, now_);
        g.preOk = pre_ok;
        g.colOk = pre_ok && rank.columnReady(is_write, now_) &&
                  channel_.busReady(r, !is_write, now_);
        g.actOk = pre_ok && rank.actRankReady(now_);
        g.colBase = std::max(rank.columnEarliestBase(is_write),
                             channel_.busEarliestBase(r, !is_write));
        g.actBase = rank.actEarliestBase();
        g.preBase = rank.preEarliestBase();
    };

    // Per-bank readiness and, for what is not ready, the horizon bound.
    hit_ready = 0;   // Bank's open-row hits issuable now.
    drive_ready = 0; // Bank's PRE/ACT issuable now.
    bound = kNoCycle;
    for (int bi = 0; bi < n_banks; ++bi) {
        int in_queue = bank_count[bi];
        if (in_queue == 0)
            continue;
        const int r = bi / banks_per_rank;
        RankGate &g = gates[r];
        if (!g.valid)
            fill_gate(g, r);
        if (g.refDue)
            continue; // Un-gated only by a REF issue (rescans anyway).
        const dram::Bank &b = *bankPtr_[bi];
        if (b.state() == dram::Bank::State::Active) {
            const int open_row = b.openRow();
            auto rc = rows.find(
                rowKeyOf(r, bi % banks_per_rank, open_row));
            const int hits = rc == rows.end() ? 0 : rc->second.count;
            if (hits > 0) {
                if (g.colOk && now_ >= b.earliest(col_cmd))
                    hit_ready |= std::uint64_t(1) << bi;
                else
                    bound = std::min(
                        bound, std::max(g.colBase, b.earliest(col_cmd)));
            }
            if (in_queue > hits) { // Conflicting rows queued: PRE.
                if (g.preOk && now_ >= b.earliest(dram::CmdType::PRE))
                    drive_ready |= std::uint64_t(1) << bi;
                else
                    bound = std::min(
                        bound,
                        std::max(g.preBase,
                                 b.earliest(dram::CmdType::PRE)));
            }
        } else {
            if (g.actOk && now_ >= b.earliest(dram::CmdType::ACT))
                drive_ready |= std::uint64_t(1) << bi;
            else
                bound = std::min(
                    bound,
                    std::max(g.actBase, b.earliest(dram::CmdType::ACT)));
        }
    }
}

bool
MemoryController::serveQueueBankLists(bool is_write)
{
    // Calendar-kernel FR-FCFS scan over the per-bank / per-row lists.
    // Selection needs no arrival-order walk:
    //
    //  - FR: a hit-ready bank's oldest open-row hit is the head of the
    //    open row's arrival-ordered list; the winner is the minimum
    //    arrival seq over hit-ready banks. "First ready hit in arrival
    //    order" and "oldest per ready bank, min across banks" are the
    //    same element, which is how this stays bit-identical to the
    //    walk-based scans.
    //  - FCFS: a drive-ready bank's oldest driver is the head of its
    //    bank list (idle bank: every entry drives an ACT) or the first
    //    entry past the leading open-row hits (active bank: those are
    //    served by column commands, not PRE); minimum seq across banks
    //    again.
    if ((is_write ? writeSize_ : readSize_) == 0) {
        nextServeTry_ = kNoCycle; // Re-armed by the next enqueue.
        return false;
    }
    std::uint64_t hit_ready, drive_ready;
    Cycle bound;
    scanBanks(is_write, hit_ready, drive_ready, bound);

    if (hit_ready == 0 && drive_ready == 0) {
        // Same horizon-publication soundness argument as serveQueue.
        nextServeTry_ = std::max(bound, now_ + 1);
        return false;
    }

    auto &rows = is_write ? writeRows_ : readRows_;
    const int banks_per_rank = spec_.org.banksPerRank;

    if (hit_ready != 0) {
        int best = -1;
        std::uint64_t best_seq = ~std::uint64_t(0);
        for (std::uint64_t m = hit_ready; m; m &= m - 1) {
            const int bi = ctz64(m);
            const dram::Bank &b = *bankPtr_[bi];
            auto it = rows.find(rowKeyOf(bi / banks_per_rank,
                                         bi % banks_per_rank,
                                         b.openRow()));
            CCSIM_ASSERT(it != rows.end() && it->second.head >= 0,
                         "hit-ready bank without a row list");
            const int s = it->second.head;
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
#if CCSIM_OBS
            if (obsHists_)
                obsHists_->queueWait.sample(now_ - qr.req.arrive);
#endif
            PendingRead pr;
            pr.req = std::move(qr.req);
            pr.done = channel_.readDataDone(now_);
            pending_.push(std::move(pr));
        } else {
            writeLines_.erase(qr.req.lineAddr);
        }
        unlinkSlot(best, is_write);
        return true;
    }

    auto &bank_head = is_write ? writeBankHead_ : readBankHead_;
    int best = -1;
    std::uint64_t best_seq = ~std::uint64_t(0);
    bool best_is_act = false;
    for (std::uint64_t m = drive_ready; m; m &= m - 1) {
        const int bi = ctz64(m);
        const dram::Bank &b = *bankPtr_[bi];
        int s = bank_head[bi];
        const bool is_act = b.state() == dram::Bank::State::Idle;
        if (!is_act) {
            const int open = b.openRow();
            while (s >= 0 && rowOfKey(slots_[s].key) == open)
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
#if CCSIM_OBS
            if (obsHists_)
                obsHists_->queueWait.sample(now_ - it->req.arrive);
#endif
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
#if CCSIM_OBS
        if (obsHists_)
            obsHists_->readLatency.sample(pr.done - pr.req.arrive);
#endif
        active = true;
        pr.req.complete(pr.done);
    }

    // Write drain hysteresis.
    if (!drainMode_ &&
        writeCount() >= static_cast<size_t>(config_.writeHighWatermark))
        drainMode_ = true;
    if (drainMode_ &&
        writeCount() <= static_cast<size_t>(config_.writeLowWatermark))
        drainMode_ = false;

    // Refresh has absolute priority once due.
    if (tryRefresh()) {
        ++now_;
        return true;
    }

    if (!config_.useServeHorizon) {
        // Seed-faithful reference: scan every tick, like the original
        // per-cycle loop.
        if (drainMode_ || trickleWrites())
            active |= serveQueueReference(writeQ_, true);
        else
            active |= serveQueueReference(readQ_, false);
    } else if (now_ >= nextServeTry_ || config_.paranoidSchedule) {
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
        if (config_.useBankLists) {
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
    readRows_.clear();
    writeRows_.clear();
    std::fill(readBankCount_.begin(), readBankCount_.end(), 0);
    std::fill(writeBankCount_.begin(), writeBankCount_.end(), 0);
    slots_.clear();
    freeSlots_.clear();
    if (config_.useBankLists) {
        std::fill(readBankHead_.begin(), readBankHead_.end(), -1);
        std::fill(readBankTail_.begin(), readBankTail_.end(), -1);
        std::fill(writeBankHead_.begin(), writeBankHead_.end(), -1);
        std::fill(writeBankTail_.begin(), writeBankTail_.end(), -1);
    }
    readSize_ = writeSize_ = 0;
    arrivalSeq_ = 0;

    auto get_queue = [&](bool is_write) {
        std::uint64_t n = r.get<std::uint64_t>();
        for (std::uint64_t i = 0; i < n; ++i) {
            Request req;
            getRequest(r, req, cb, cb_ctx);
            bool serviced = r.get<bool>();
            if (is_write)
                writeLines_.insert(req.lineAddr);
            if (config_.useBankLists) {
                const std::size_t bi = bankIndexOf(req.addr);
                enqueueListed(std::move(req), is_write);
                int s = (is_write ? writeBankTail_ : readBankTail_)[bi];
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
    horizonDirty_ = true;
}

} // namespace ccsim::ctrl
