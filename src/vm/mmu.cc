#include "vm/mmu.hh"

#include "resilience/serial.hh"

#include <algorithm>

#include "common/log.hh"

namespace ccsim::vm {

void
Mmu::initCommon()
{
    pageShift_ = log2Exact(
        static_cast<std::uint64_t>(config_.effectivePageBytes()));
    pageLines_ = static_cast<Addr>(config_.effectivePageBytes()) /
                 kLineBytes;
    if (config_.pwc.enable)
        pwc_ = std::make_unique<Pwc>(config_.pwc, config_.walkLevels());
}

Mmu::Mmu(const VmConfig &config, int core_id, Addr region_base_line,
         Addr region_lines, std::uint64_t schedule_seed)
    : config_(config),
      coreId_(core_id),
      l1_(config.l1Entries, config.l1Ways),
      l2_(config.l2Entries, config.l2Ways),
      owned_(std::make_unique<AddressSpace>(config, core_id,
                                            region_base_line,
                                            region_lines)),
      schedRng_(mix64(schedule_seed ^
                      (0x5C1Dull + std::uint64_t(core_id) *
                                       0x9E3779B97F4A7C15ull)))
{
    spaces_.push_back(owned_.get());
    space_ = owned_.get();
    initCommon();
}

Mmu::Mmu(const VmConfig &config, int core_id,
         const std::vector<AddressSpace *> &spaces,
         std::uint64_t schedule_seed)
    : config_(config),
      coreId_(core_id),
      l1_(config.l1Entries, config.l1Ways),
      l2_(config.l2Entries, config.l2Ways),
      spaces_(spaces),
      schedRng_(mix64(schedule_seed ^
                      (0x5C1Dull + std::uint64_t(core_id) *
                                       0x9E3779B97F4A7C15ull)))
{
    CCSIM_ASSERT(!spaces_.empty(), "Mmu needs at least one address space");
    space_ = spaces_[static_cast<std::size_t>(core_id) % spaces_.size()];
    initCommon();
}

void
Mmu::finishTranslation(std::uint64_t ppn)
{
    translatedLine_ = space_->dataBaseLine() + ppn * pageLines_ +
                      ((xlatVaddr_ >> kLineShift) & (pageLines_ - 1));
}

Mmu::Result
Mmu::beginTranslate(Addr vaddr, CpuCycle now)
{
    xlatVaddr_ = vaddr;
    translatedLine_ = kNoAddr;
    Addr vpn = vaddr >> pageShift_;
    const std::uint32_t asid = space_->asid();
    ++stats_.lookups;
    Addr ppn;
    if (l1_.lookup(vpn, ppn, asid)) {
        ++stats_.l1Hits;
        finishTranslation(ppn);
        return Result::L1Hit;
    }
    if (l2_.lookup(vpn, ppn, asid)) {
        ++stats_.l2Hits;
        l1_.insert(vpn, ppn, asid);
        finishTranslation(ppn);
        // The caller holds the result for kL2HitLatency before using it
        // (completeL2 is a semantic no-op kept as the state handshake).
        return Result::L2Hit;
    }
    ++stats_.walks;
    walkStart_ = now;
    walkLevel_ = 0;
    if (pwc_) {
        // A PWC hit at upper level k skips the fetches of levels 0..k;
        // the walk resumes at the first uncached level.
        int deepest = pwc_->deepestCachedLevel(vpn, asid);
        walkLevel_ = deepest + 1;
    }
    pteLine_ = space_->pageTable().pteLineFor(vpn, walkLevel_);
    ++stats_.pteFetches;
    return Result::Miss;
}

void
Mmu::completeL2()
{
    CCSIM_ASSERT(translatedLine_ != kNoAddr,
                 "completeL2 without a pending L2 hit");
}

bool
Mmu::pteReturned(CpuCycle now)
{
    Addr vpn = xlatVaddr_ >> pageShift_;
    const std::uint32_t asid = space_->asid();
    if (pwc_ && walkLevel_ < space_->pageTable().levels() - 1)
        pwc_->fill(vpn, walkLevel_, asid);
    ++walkLevel_;
    if (walkLevel_ < space_->pageTable().levels()) {
        pteLine_ = space_->pageTable().pteLineFor(vpn, walkLevel_);
        ++stats_.pteFetches;
        return false;
    }
    // Leaf PTE returned: resolve (first touch allocates, possibly
    // reclaiming a victim page), fill TLBs.
    AddressSpace::MapOutcome out = space_->mapPage(vpn, now);
    if (out.firstTouch)
        ++stats_.pagesMapped;
    if (out.remapped) {
        ++stats_.remaps;
        ++stats_.shootdownsSent;
        // Local invalidation is free (the initiator is mid-walk);
        // remote cores pay the shootdown stall via the System hook.
        l1_.invalidate(out.victimVpn, asid);
        l2_.invalidate(out.victimVpn, asid);
        shootdownPending_ = true;
        shootdownAsid_ = asid;
        shootdownVpn_ = out.victimVpn;
    }
    l2_.insert(vpn, out.ppn, asid);
    l1_.insert(vpn, out.ppn, asid);
    finishTranslation(out.ppn);
    stats_.walkCycleSum += now - walkStart_;
    pteLine_ = kNoAddr;
    return true;
}

void
Mmu::contextSwitch()
{
    if (spaces_.size() <= 1)
        return;
    std::size_t cur = 0;
    for (std::size_t i = 0; i < spaces_.size(); ++i)
        if (spaces_[i] == space_)
            cur = i;
    // Seed-derived pick of a *different* space: a switch always
    // changes the address space (a slice given back to the same
    // process is not a switch).
    std::size_t next =
        (cur + 1 + schedRng_.below(spaces_.size() - 1)) % spaces_.size();
    space_ = spaces_[next];
    ++stats_.contextSwitches;
    if (config_.mp.flushOnSwitch) {
        l1_.flush();
        l2_.flush();
        if (pwc_)
            pwc_->flush();
    }
}

std::uint64_t
Mmu::nextQuantum()
{
    std::uint64_t q = config_.mp.switchQuantum;
    auto span = static_cast<std::uint64_t>(double(q) * kQuantumJitter);
    if (span)
        q = q - span + schedRng_.below(2 * span + 1);
    return std::max<std::uint64_t>(q, 1);
}

bool
Mmu::takePendingShootdown(std::uint32_t &asid, Addr &vpn)
{
    if (!shootdownPending_)
        return false;
    shootdownPending_ = false;
    asid = shootdownAsid_;
    vpn = shootdownVpn_;
    return true;
}

void
Mmu::invalidateTranslation(std::uint32_t asid, Addr vpn)
{
    l1_.invalidate(vpn, asid);
    l2_.invalidate(vpn, asid);
    ++stats_.shootdownsReceived;
}

const VmStats &
Mmu::stats() const
{
    // Gauge of table frames: meaningful per-Mmu only when the space is
    // owned (legacy mode); shared spaces are summed once by the System.
    stats_.ptTables = owned_ ? owned_->pageTable().tablesAllocated() : 0;
    if (pwc_) {
        const Pwc::Stats &p = pwc_->stats();
        stats_.pwcLookups = p.lookups;
        for (std::size_t i = 0; i < stats_.pwcHitsByLevel.size(); ++i)
            stats_.pwcHitsByLevel[i] =
                i < p.hitsByLevel.size() ? p.hitsByLevel[i] : 0;
        stats_.pwcSkippedFetches = p.skippedFetches;
    }
    return stats_;
}

void
Mmu::resetStats()
{
    stats_ = VmStats();
    // The PWC keeps its own counters (mirrored into VmStats by
    // stats()); clear them too so warmup-excluded runs report correct
    // hit rates — same contract as the provider/HCRAC reset path.
    if (pwc_)
        pwc_->resetStats();
}


void
Mmu::saveState(resilience::SnapshotWriter &w) const
{
    l1_.saveState(w);
    l2_.saveState(w);
    w.put(static_cast<bool>(pwc_));
    if (pwc_)
        pwc_->saveState(w);
    w.put(static_cast<bool>(owned_));
    if (owned_)
        owned_->saveState(w);
    std::uint32_t space_idx = 0;
    for (std::size_t i = 0; i < spaces_.size(); ++i)
        if (spaces_[i] == space_) {
            space_idx = static_cast<std::uint32_t>(i);
            break;
        }
    w.put(space_idx);
    w.put(schedRng_.state());
    w.put(xlatVaddr_);
    w.put(translatedLine_);
    w.put(walkLevel_);
    w.put(pteLine_);
    w.put(walkStart_);
    w.put(shootdownPending_);
    w.put(shootdownAsid_);
    w.put(shootdownVpn_);
    w.put(stats_);
}

void
Mmu::loadState(resilience::SnapshotReader &r)
{
    l1_.loadState(r);
    l2_.loadState(r);
    bool has_pwc = r.get<bool>();
    if (has_pwc != static_cast<bool>(pwc_))
        throw resilience::SimError(
            resilience::ErrorKind::CorruptSnapshot,
            "page-walk-cache presence mismatch in snapshot");
    if (pwc_)
        pwc_->loadState(r);
    bool owns_space = r.get<bool>();
    if (owns_space != static_cast<bool>(owned_))
        throw resilience::SimError(
            resilience::ErrorKind::CorruptSnapshot,
            "address-space ownership mismatch in snapshot");
    if (owned_)
        owned_->loadState(r);
    std::uint32_t space_idx = r.get<std::uint32_t>();
    if (space_idx >= spaces_.size())
        throw resilience::SimError(
            resilience::ErrorKind::CorruptSnapshot,
            "scheduled address-space index out of range in snapshot");
    space_ = spaces_[space_idx];
    schedRng_.setState(r.get<std::array<std::uint64_t, 4>>());
    r.get(xlatVaddr_);
    r.get(translatedLine_);
    r.get(walkLevel_);
    r.get(pteLine_);
    r.get(walkStart_);
    r.get(shootdownPending_);
    r.get(shootdownAsid_);
    r.get(shootdownVpn_);
    r.get(stats_);
}

} // namespace ccsim::vm
