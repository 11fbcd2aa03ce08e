#include "mem/llc.hh"

#include <algorithm>
#include <string>
#include <utility>

#include "common/log.hh"
#include "resilience/serial.hh"

namespace ccsim::mem {

Llc::Llc(const LlcConfig &config, const dram::AddressMapper &mapper,
         std::vector<ctrl::MemoryController *> channels,
         MissCallback on_miss_complete)
    : config_(config),
      mapper_(mapper),
      channels_(std::move(channels)),
      onMissComplete_(std::move(on_miss_complete))
{
    // Geometry comes from user configuration, so malformed values are
    // reported as structured errors rather than aborting the process.
    if (config_.lineBytes <= 0 || config_.ways <= 0 ||
        config_.sizeBytes %
                static_cast<std::uint64_t>(config_.lineBytes) !=
            0)
        throw resilience::SimError(
            resilience::ErrorKind::InvalidConfig,
            "LLC size must be a positive multiple of the line size");
    std::uint64_t lines =
        config_.sizeBytes / static_cast<std::uint64_t>(config_.lineBytes);
    if (lines % config_.ways != 0)
        throw resilience::SimError(
            resilience::ErrorKind::InvalidConfig,
            "LLC line count must divide evenly into ways");
    sets_ = static_cast<int>(lines / config_.ways);
    if (!isPow2(static_cast<std::uint64_t>(sets_)))
        throw resilience::SimError(
            resilience::ErrorKind::InvalidConfig,
            "LLC set count must be a power of two");
    setShift_ = log2Exact(static_cast<std::uint64_t>(sets_));
    tags_.assign(lines, kInvalidTag);
    lru_.assign(lines, 0);
    dirty_.assign(lines, 0);
    mshrInUse_.assign(kMaxCores, 0);
    blockedLine_.assign(kMaxCores, kNoAddr);
}

std::ptrdiff_t
Llc::findLine(Addr line_addr) const
{
    const std::size_t base =
        static_cast<std::size_t>(line_addr & (sets_ - 1)) *
        static_cast<std::size_t>(config_.ways);
    const std::uint64_t tag = line_addr >> setShift_;
    const std::uint64_t *t = &tags_[base];
    for (int w = 0; w < config_.ways; ++w)
        if (t[w] == tag)
            return static_cast<std::ptrdiff_t>(base) + w;
    return -1;
}

std::size_t
Llc::victimFor(Addr line_addr) const
{
    const std::size_t base =
        static_cast<std::size_t>(line_addr & (sets_ - 1)) *
        static_cast<std::size_t>(config_.ways);
    std::size_t victim = base;
    for (std::size_t i = base; i < base + config_.ways; ++i) {
        if (tags_[i] == kInvalidTag)
            return i;
        if (lru_[i] < lru_[victim])
            victim = i;
    }
    return victim;
}

void
Llc::installLine(Addr line_addr, bool dirty)
{
    // Wake cores parked on a Blocked access to this line: their next
    // probe would now hit, so the event kernel must tick them again.
    if (watchCount_ > 0) {
        for (std::size_t c = 0; c < static_cast<std::size_t>(watchLimit_);
             ++c) {
            if (blockedLine_[c] != line_addr)
                continue;
            blockedLine_[c] = kNoAddr;
            --watchCount_;
            if (onWake_)
                onWake_(static_cast<int>(c));
        }
    }
    const std::size_t v = victimFor(line_addr);
    if (tags_[v] != kInvalidTag && dirty_[v]) {
        Addr victim_addr =
            (tags_[v] << setShift_) | (line_addr & (sets_ - 1));
        writebackQ_.push_back(victim_addr);
        drainBlocked_ = false;
        ++stats_.writebacks;
    }
    tags_[v] = line_addr >> setShift_;
    dirty_[v] = dirty;
    lru_[v] = ++lruClock_;
}

bool
Llc::sendFetch(Addr line_addr, MshrEntry &entry)
{
    ctrl::Request req;
    req.type = ctrl::ReqType::Read;
    req.lineAddr = line_addr;
    req.addr = mapper_.decode(line_addr);
    req.coreId = entry.waiters.front().core;
    req.isPtw = entry.isPtw;
    req.ptwLevel = entry.ptwLevel;
    req.callback = &Llc::fillCallback;
    req.callbackCtx = this;
    ctrl::MemoryController *mc = channels_[req.addr.channel];
    if (!mc->canAccept(ctrl::ReqType::Read))
        return false;
    // Mark before enqueue: `entry` must not be touched afterwards (the
    // controller owns the request from here on).
    entry.issued = true;
    mc->enqueue(std::move(req));
    return true;
}

Llc::Result
Llc::access(int core, Addr line_addr, bool is_write, std::uint64_t token,
            bool is_ptw, int ptw_level)
{
    ++stats_.accesses;
    // Drop a stale park-watch once the core retries (it either
    // succeeds below, or re-registers on another Blocked return).
    if (watchCount_ > 0 && blockedLine_[core] != kNoAddr) {
        blockedLine_[core] = kNoAddr;
        --watchCount_;
    }
    if (std::ptrdiff_t way = findLine(line_addr); way >= 0) {
        lru_[way] = ++lruClock_;
        dirty_[way] |= is_write;
        ++stats_.hits;
        return Result::Hit;
    }
    // Victim-buffer hit: the line was evicted dirty but not yet drained.
    auto wb = std::find(writebackQ_.begin(), writebackQ_.end(), line_addr);
    if (wb != writebackQ_.end()) {
        writebackQ_.erase(wb);
        drainBlocked_ = false; // Queue front may have changed.
        installLine(line_addr, true);
        ++stats_.hits;
        return Result::Hit;
    }
    if (mshrInUse_[core] >= config_.mshrsPerCore) {
        ++stats_.blockedMshr;
        // Park notification (event kernel only): the blocked core will
        // retry this same line until it succeeds, so watch for the line
        // appearing via another core's fill or a victim-buffer
        // promotion (its own MSHRs freeing is reported through the miss
        // callback instead).
        if (onWake_) {
            if (blockedLine_[core] == kNoAddr)
                ++watchCount_;
            blockedLine_[core] = line_addr;
            if (core >= watchLimit_)
                watchLimit_ = core + 1;
        }
        return Result::Blocked;
    }
    if (MshrEntry *merge = mshrs_.find(line_addr)) {
        merge->waiters.push_back({core, token, is_write});
        ++mshrInUse_[core];
        ++stats_.mshrMerges;
        return Result::Miss;
    }
    MshrEntry &entry = mshrs_.insert(line_addr);
    entry.isPtw = is_ptw;
    entry.ptwLevel = static_cast<std::int8_t>(ptw_level);
    entry.waiters.push_back({core, token, is_write});
    ++mshrInUse_[core];
    ++stats_.misses;
    if (!sendFetch(line_addr, entry)) {
        fetchRetryQ_.push_back(line_addr);
        drainBlocked_ = false;
        ++stats_.blockedMemQueue;
    }
    return Result::Miss;
}

void
Llc::onFill(Addr line_addr)
{
    MshrEntry *entry = mshrs_.find(line_addr);
    CCSIM_ASSERT(entry, "fill without MSHR");
    bool dirty = false;
    for (const auto &w : entry->waiters)
        dirty |= w.isWrite;
    installLine(line_addr, dirty);
    // Notify after erasing so callbacks can re-access the cache. The
    // miss callbacks only flag the core, so they never nest a fill.
    CCSIM_ASSERT(fillWaiters_.empty(), "nested LLC fill");
    fillWaiters_.swap(entry->waiters);
    mshrs_.erase(line_addr);
    for (const auto &w : fillWaiters_) {
        --mshrInUse_[w.core];
        CCSIM_ASSERT(mshrInUse_[w.core] >= 0, "MSHR accounting broke");
        if (onMissComplete_)
            onMissComplete_(w.core, w.token);
    }
    fillWaiters_.clear();
}

void
Llc::tick()
{
    while (!fetchRetryQ_.empty()) {
        Addr line_addr = fetchRetryQ_.front();
        MshrEntry *entry = mshrs_.find(line_addr);
        if (!entry || entry->issued) {
            fetchRetryQ_.pop_front(); // stale entry
            continue;
        }
        if (!sendFetch(line_addr, *entry))
            break;
        fetchRetryQ_.pop_front();
    }
    while (!writebackQ_.empty()) {
        Addr line_addr = writebackQ_.front();
        ctrl::Request req;
        req.type = ctrl::ReqType::Write;
        req.lineAddr = line_addr;
        req.addr = mapper_.decode(line_addr);
        req.coreId = -1;
        ctrl::MemoryController *mc = channels_[req.addr.channel];
        if (!mc->canAccept(ctrl::ReqType::Write))
            break;
        mc->enqueue(std::move(req));
        writebackQ_.pop_front();
    }
    drainBlocked_ = !fetchRetryQ_.empty() || !writebackQ_.empty();
}

bool
Llc::warmAccess(Addr line_addr, bool is_write, Addr *evicted_dirty)
{
    if (evicted_dirty)
        *evicted_dirty = kNoAddr;
    if (std::ptrdiff_t way = findLine(line_addr); way >= 0) {
        lru_[way] = ++lruClock_;
        dirty_[way] |= is_write;
        return true;
    }
    const std::size_t v = victimFor(line_addr);
    if (tags_[v] != kInvalidTag && dirty_[v] && evicted_dirty)
        *evicted_dirty =
            (tags_[v] << setShift_) | (line_addr & (sets_ - 1));
    tags_[v] = line_addr >> setShift_;
    dirty_[v] = is_write;
    lru_[v] = ++lruClock_;
    return false;
}

void
Llc::fillCallback(void *ctx, const ctrl::Request &req, Cycle)
{
    static_cast<Llc *>(ctx)->onFill(req.lineAddr);
}

void
Llc::saveState(resilience::SnapshotWriter &w) const
{
    // Field-wise dumps (Waiter carries padding bytes, and snapshots
    // must be byte-deterministic). Each way is (tag, lru, valid,
    // dirty); a never-filled way reads tag 0, not valid.
    w.put(static_cast<std::uint64_t>(tags_.size()));
    for (std::size_t i = 0; i < tags_.size(); ++i) {
        const bool valid = tags_[i] != kInvalidTag;
        w.put(valid ? tags_[i] : std::uint64_t(0));
        w.put(lru_[i]);
        w.put(valid);
        w.put(static_cast<bool>(dirty_[i]));
    }
    w.put(lruClock_);
    // MSHRs in address order (table order depends on its history).
    std::vector<std::pair<Addr, const MshrEntry *>> sorted;
    sorted.reserve(mshrs_.size());
    mshrs_.forEach([&](Addr addr, const MshrEntry &entry) {
        sorted.emplace_back(addr, &entry);
    });
    std::sort(sorted.begin(), sorted.end());
    w.put(static_cast<std::uint64_t>(sorted.size()));
    for (const auto &[addr, entry] : sorted) {
        w.put(addr);
        w.put(static_cast<std::uint64_t>(entry->waiters.size()));
        for (const MshrEntry::Waiter &wt : entry->waiters) {
            w.put(wt.core);
            w.put(wt.token);
            w.put(wt.isWrite);
        }
        w.put(entry->issued);
        w.put(entry->isPtw);
        w.put(entry->ptwLevel);
    }
    w.putVec(mshrInUse_);
    w.putDeque(fetchRetryQ_);
    w.putDeque(writebackQ_);
    w.putVec(blockedLine_);
    w.put(watchCount_);
    w.put(watchLimit_);
    w.put(drainBlocked_);
    w.put(stats_);
}

void
Llc::loadState(resilience::SnapshotReader &r)
{
    auto corrupt = [](const std::string &what) {
        return resilience::SimError(resilience::ErrorKind::CorruptSnapshot,
                                    what);
    };
    std::uint64_t n_lines = r.get<std::uint64_t>();
    if (n_lines != tags_.size())
        throw corrupt("LLC line-array size mismatch in snapshot");
    for (std::size_t i = 0; i < tags_.size(); ++i) {
        const std::uint64_t tag = r.get<std::uint64_t>();
        r.get(lru_[i]);
        const bool valid = r.get<bool>();
        dirty_[i] = r.get<bool>();
        if (valid && tag == kInvalidTag)
            throw corrupt("LLC line carries the reserved invalid tag");
        tags_[i] = valid ? tag : kInvalidTag;
    }
    r.get(lruClock_);
    // Every waiter holds one of its core's MSHRs, so the per-core
    // limit bounds both the entry count and each entry's waiters.
    const std::uint64_t max_waiters =
        std::uint64_t(kMaxCores) *
        static_cast<std::uint64_t>(std::max(config_.mshrsPerCore, 0));
    mshrs_.clear();
    std::uint64_t n_mshrs = r.get<std::uint64_t>();
    if (n_mshrs > max_waiters)
        throw corrupt("snapshot holds " + std::to_string(n_mshrs) +
                      " MSHRs, capacity is " +
                      std::to_string(max_waiters));
    for (std::uint64_t i = 0; i < n_mshrs; ++i) {
        Addr addr = r.get<Addr>();
        if (addr == kNoAddr || mshrs_.find(addr))
            throw corrupt("duplicate or invalid MSHR address in snapshot");
        MshrEntry &entry = mshrs_.insert(addr);
        std::uint64_t n_waiters = r.get<std::uint64_t>();
        if (n_waiters == 0 || n_waiters > max_waiters)
            throw corrupt("MSHR waiter count out of range in snapshot");
        entry.waiters.resize(n_waiters);
        for (MshrEntry::Waiter &wt : entry.waiters) {
            r.get(wt.core);
            r.get(wt.token);
            r.get(wt.isWrite);
            if (wt.core < 0 || wt.core >= kMaxCores)
                throw corrupt("MSHR waiter core out of range in snapshot");
        }
        r.get(entry.issued);
        r.get(entry.isPtw);
        r.get(entry.ptwLevel);
    }
    r.getVec(mshrInUse_);
    r.getDeque(fetchRetryQ_);
    r.getDeque(writebackQ_);
    r.getVec(blockedLine_);
    if (mshrInUse_.size() != std::size_t(kMaxCores) ||
        blockedLine_.size() != std::size_t(kMaxCores))
        throw corrupt("LLC per-core table size mismatch in snapshot");
    r.get(watchCount_);
    r.get(watchLimit_);
    r.get(drainBlocked_);
    r.get(stats_);
}

} // namespace ccsim::mem
