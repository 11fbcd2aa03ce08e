#include "cpu/core.hh"

#include "common/log.hh"
#include "resilience/serial.hh"

namespace ccsim::cpu {

Core::Core(int id, const CoreConfig &config, TraceSource &trace,
           mem::Llc &llc, vm::Mmu *mmu)
    : id_(id), config_(config), trace_(trace), llc_(llc), mmu_(mmu)
{
    CCSIM_ASSERT(config_.issueWidth >= 1 && config_.windowSize >= 1,
                 "bad core configuration");
    if (mmu_ && mmu_->multiProcess())
        switchQuantum_ = mmu_->nextQuantum();
}

void
Core::onMissComplete(std::uint64_t token)
{
    wakePending_ = true;
    if (token == kXlatToken) {
        xlatReady_ = true;
        return;
    }
    if (token < windowBaseSeq_)
        return; // A store that already retired.
    std::uint64_t idx = token - windowBaseSeq_;
    if (idx < window_.size())
        window_[idx].completed = true;
}

Core::IssueResult
Core::issuePte(CpuCycle now)
{
    mem::Llc::Result res =
        llc_.access(id_, mmu_->pteLine(), false, kXlatToken,
                    /*is_ptw=*/true, mmu_->walkLevel());
    if (res == mem::Llc::Result::Blocked) {
        ++stats_.blockedAccesses;
        return IssueResult::Blocked;
    }
    xlatState_ = XlatState::WaitPte;
    xlatReady_ = false;
    if (res == mem::Llc::Result::Hit)
        xlatEventAt_ = now + llc_.config().hitLatencyCpu;
    // Miss: the PTE arrives through onMissComplete(kXlatToken).
    return IssueResult::XlatStep;
}

Core::IssueResult
Core::advanceTranslation(CpuCycle now)
{
    switch (xlatState_) {
      case XlatState::None: {
        vm::Mmu::Result r = mmu_->beginTranslate(record_.addr, now);
        if (r == vm::Mmu::Result::L1Hit) {
            translatedLine_ = mmu_->translatedLine();
            return IssueResult::Issued;
        }
        if (r == vm::Mmu::Result::L2Hit) {
            xlatState_ = XlatState::WaitL2;
            xlatReady_ = false;
            xlatEventAt_ = now + mmu_->config().l2HitLatency;
            return IssueResult::XlatStep;
        }
        xlatState_ = XlatState::NeedPte;
#if CCSIM_OBS
        if (obsPtwHist_)
            obsWalkStart_ = now;
#endif
        return issuePte(now);
      }
      case XlatState::WaitL2:
        if (!xlatReady_) {
            ++stats_.xlatStallCycles;
            return IssueResult::XlatWait;
        }
        xlatReady_ = false;
        mmu_->completeL2();
        translatedLine_ = mmu_->translatedLine();
        xlatState_ = XlatState::None;
        return IssueResult::Issued;
      case XlatState::WaitPte:
        if (!xlatReady_) {
            ++stats_.xlatStallCycles;
            return IssueResult::XlatWait;
        }
        xlatReady_ = false;
        if (mmu_->pteReturned(now)) {
            // A finished walk may have remapped a page: broadcast the
            // victim translation's shootdown to the other cores before
            // the data access issues under the new mapping.
            std::uint32_t sd_asid;
            Addr sd_vpn;
            if (mmu_->takePendingShootdown(sd_asid, sd_vpn) &&
                shootdownHook_)
                shootdownHook_(id_, sd_asid, sd_vpn, now);
            translatedLine_ = mmu_->translatedLine();
            xlatState_ = XlatState::None;
#if CCSIM_OBS
            if (obsPtwHist_ && obsWalkStart_ != kNoCycle) {
                obsPtwHist_->sample(now - obsWalkStart_);
                obsWalkStart_ = kNoCycle;
            }
#endif
            return IssueResult::Issued;
        }
        xlatState_ = XlatState::NeedPte;
        return issuePte(now);
      case XlatState::NeedPte:
        return issuePte(now);
    }
    CCSIM_PANIC("unreachable translation state");
}

Core::IssueResult
Core::issueOne(CpuCycle now)
{
    if (window_.size() >= static_cast<size_t>(config_.windowSize)) {
        ++stats_.stallCyclesFull;
        return IssueResult::WindowFull;
    }
    if (!recordValid_) {
        if (!trace_.next(record_)) {
            trace_.reset();
            if (!trace_.next(record_))
                CCSIM_PANIC("trace source empty even after reset");
        }
        pendingCompute_ = record_.nonMemInsts;
        memIssued_ = false;
        recordValid_ = true;
        translatedLine_ = kNoAddr;
        // Context-switch schedule (multi-process VM): quanta are
        // instruction-indexed and the switch lands on a record
        // boundary — before this record translates — so switch points
        // are trivially identical across all simulation kernels and
        // never interrupt an in-flight walk.
        if (switchQuantum_) {
            instsSinceSwitch_ += record_.nonMemInsts + 1;
            if (instsSinceSwitch_ >= switchQuantum_) {
                instsSinceSwitch_ = 0;
                mmu_->contextSwitch();
                switchQuantum_ = mmu_->nextQuantum();
            }
        }
    }
    if (pendingCompute_ > 0) {
        window_.push_back({true, false});
        ++seq_;
        --pendingCompute_;
        return IssueResult::Issued;
    }
    CCSIM_ASSERT(!memIssued_, "record should have been refreshed");
    Addr line_addr;
    if (mmu_) {
        if (translatedLine_ == kNoAddr) {
            IssueResult xr = advanceTranslation(now);
            if (xr != IssueResult::Issued)
                return xr;
        }
        line_addr = translatedLine_;
    } else {
        line_addr =
            record_.addr / static_cast<Addr>(llc_.config().lineBytes);
    }
    mem::Llc::Result res =
        llc_.access(id_, line_addr, record_.isWrite, seq_);
    if (res == mem::Llc::Result::Blocked) {
        ++stats_.blockedAccesses;
        return IssueResult::Blocked;
    }
    WinEntry entry;
    entry.isMem = true;
    if (record_.isWrite) {
        // Stores retire immediately; traffic already accounted.
        entry.completed = true;
        ++stats_.memWrites;
    } else {
        entry.completed = false;
        ++stats_.memReads;
        if (res == mem::Llc::Result::Hit) {
            CpuCycle ret = now + llc_.config().hitLatencyCpu;
            CCSIM_ASSERT(hitQueue_.empty() ||
                             hitQueue_.back().first <= ret,
                         "hit queue must stay cycle-monotone");
            hitQueue_.emplace_back(ret, seq_);
        }
        // Miss: completion arrives through onMissComplete().
    }
    window_.push_back(entry);
    ++seq_;
    memIssued_ = true;
    recordValid_ = false;
    return IssueResult::Issued;
}

bool
Core::tick(CpuCycle now)
{
    // TLB-shootdown IPI: the pipeline is frozen while the TLB
    // invalidates — no delivery, no retire, no issue. Exactly one
    // stall statistic per cycle, so the event kernels park through the
    // window (nextEventAt returns the deadline) and the bulk
    // accounting settles identically to these early-out ticks.
    if (shootdownUntil_ != 0) {
        if (now < shootdownUntil_) {
            ++stats_.shootdownStallCycles;
            stallKind_ = StallKind::Shootdown;
            wakePending_ = false;
            return false;
        }
        shootdownUntil_ = 0;
    }
    bool progressed = false;
    // Deliver scheduled LLC-hit data returns due by now. Delivery alone
    // is not progress (see core.hh): while the core was parked past
    // some of these cycles, the per-cycle reference performed the same
    // deliveries on ticks whose only other effect was the one
    // stall-statistic increment the parked accounting settles in bulk.
    while (!hitQueue_.empty() && hitQueue_.front().first <= now) {
        std::uint64_t token = hitQueue_.front().second;
        hitQueue_.pop_front();
        onMissComplete(token);
    }
    if (xlatEventAt_ <= now) {
        xlatEventAt_ = kNoCycle;
        xlatReady_ = true;
    }
    // In-order retire, up to issue width.
    for (int i = 0; i < config_.issueWidth && !window_.empty(); ++i) {
        if (!window_.front().completed)
            break;
        window_.pop_front();
        ++windowBaseSeq_;
        ++stats_.retired;
        progressed = true;
    }
    if (!targetRecorded_ && stats_.retired >= config_.targetInsts) {
        targetRecorded_ = true;
        targetCycle_ = now;
    }
    // Issue new instructions, up to issue width.
    IssueResult last = IssueResult::Issued;
    for (int i = 0; i < config_.issueWidth; ++i) {
        last = issueOne(now);
        if (last == IssueResult::XlatStep) {
            // A translation step (TLB timer armed or PTE fetch sent)
            // consumes the rest of this cycle's issue bandwidth.
            progressed = true;
            break;
        }
        if (last != IssueResult::Issued)
            break;
        progressed = true;
    }
    if (progressed) {
        stallKind_ = StallKind::None;
    } else {
        // A no-progress tick always ends in exactly one failed issue:
        // window full, LLC rejection, or a translation still in flight.
        switch (last) {
          case IssueResult::WindowFull:
            stallKind_ = StallKind::WindowFull;
            break;
          case IssueResult::XlatWait:
            stallKind_ = StallKind::XlatWait;
            break;
          default:
            stallKind_ = StallKind::BlockedLlc;
            break;
        }
    }
    wakePending_ = false;
    return progressed;
}

void
Core::accountStallCycles(CpuCycle cycles)
{
    if (stallKind_ == StallKind::WindowFull)
        stats_.stallCyclesFull += cycles;
    else if (stallKind_ == StallKind::BlockedLlc)
        stats_.blockedAccesses += cycles;
    else if (stallKind_ == StallKind::XlatWait)
        stats_.xlatStallCycles += cycles;
    else if (stallKind_ == StallKind::Shootdown)
        stats_.shootdownStallCycles += cycles;
}

void
Core::resetStats(CpuCycle now)
{
    stats_ = CoreStats();
    baseCycle_ = now;
    targetRecorded_ = false;
    targetCycle_ = 0;
}

void
Core::saveState(resilience::SnapshotWriter &w) const
{
    w.putDeque(window_);
    w.put(windowBaseSeq_);
    w.put(seq_);
    w.putDeque(hitQueue_);
    w.put(xlatEventAt_);
    w.put(xlatState_);
    w.put(xlatReady_);
    w.put(translatedLine_);
    w.put(pendingCompute_);
    w.put(record_);
    w.put(recordValid_);
    w.put(memIssued_);
    w.put(baseCycle_);
    w.put(targetCycle_);
    w.put(targetRecorded_);
    w.put(stallKind_);
    w.put(wakePending_);
    w.put(shootdownUntil_);
    w.put(instsSinceSwitch_);
    w.put(switchQuantum_);
    w.put(stats_);
}

void
Core::loadState(resilience::SnapshotReader &r)
{
    r.getDeque(window_);
    r.get(windowBaseSeq_);
    r.get(seq_);
    r.getDeque(hitQueue_);
    r.get(xlatEventAt_);
    r.get(xlatState_);
    r.get(xlatReady_);
    r.get(translatedLine_);
    r.get(pendingCompute_);
    r.get(record_);
    r.get(recordValid_);
    r.get(memIssued_);
    r.get(baseCycle_);
    r.get(targetCycle_);
    r.get(targetRecorded_);
    r.get(stallKind_);
    r.get(wakePending_);
    r.get(shootdownUntil_);
    r.get(instsSinceSwitch_);
    r.get(switchQuantum_);
    r.get(stats_);
}

} // namespace ccsim::cpu
