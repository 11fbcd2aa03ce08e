#include "chargecache/providers.hh"

#include "resilience/serial.hh"

#include <algorithm>

#include "common/log.hh"

namespace ccsim::chargecache {

ChargeCacheProvider::ChargeCacheProvider(const dram::DramTiming &timing,
                                         const ChargeCacheParams &params,
                                         int num_cores)
    : timing_(timing), params_(params)
{
    CCSIM_ASSERT(num_cores >= 1, "need at least one core");
    CCSIM_ASSERT(params.trcdReduced >= 1 &&
                     params.trasReduced > params.trcdReduced,
                 "reduced timing must stay a valid (tRCD, tRAS) pair");
    int n_tables = params.sharedTable ? 1 : num_cores;
    for (int i = 0; i < n_tables; ++i) {
        Hcrac::Params tp = params.table;
        tp.seed = params.table.seed + static_cast<std::uint64_t>(i) * 7919;
        tables_.push_back(std::make_unique<Hcrac>(tp));
        invalidators_.emplace_back(params.durationCycles, tp.entries);
    }
    if (params.trackUnlimited)
        unlimited_ = std::make_unique<UnlimitedHcrac>(params.durationCycles);
}

int
ChargeCacheProvider::tableIndex(int core_id) const
{
    if (params_.sharedTable || core_id < 0)
        return 0;
    return core_id % static_cast<int>(tables_.size());
}

dram::EffActTiming
ChargeCacheProvider::onActivate(int core_id, const dram::DramAddr &addr,
                                Cycle now)
{
    ++activations;
    int idx = tableIndex(core_id);
    invalidators_[idx].advanceTo(now, *tables_[idx]);
    std::uint64_t key = rowKey(addr, addr.row);
    if (unlimited_)
        unlimited_->lookup(key, now);
    if (tables_[idx]->lookup(key)) {
        ++reducedActivations;
        return {params_.trcdReduced, params_.trasReduced, true};
    }
    return standard(timing_);
}

void
ChargeCacheProvider::onPrecharge(int owner_core, const dram::DramAddr &addr,
                                 int row, Cycle now)
{
    int idx = tableIndex(owner_core);
    invalidators_[idx].advanceTo(now, *tables_[idx]);
    std::uint64_t key = rowKey(addr, row);
    tables_[idx]->insert(key);
    if (unlimited_)
        unlimited_->insert(key, now);
}

void
ChargeCacheProvider::warmInsert(int owner_core, const dram::DramAddr &addr,
                                int row)
{
    tables_[tableIndex(owner_core)]->insert(rowKey(addr, row));
}

void
ChargeCacheProvider::endWarming()
{
    for (auto &t : tables_)
        t->restartRng();
}

void
ChargeCacheProvider::resetStats()
{
    LatencyProvider::resetStats();
    for (auto &t : tables_)
        t->resetStats();
    if (unlimited_)
        unlimited_->resetStats();
}

Hcrac::Stats
ChargeCacheProvider::tableStats() const
{
    Hcrac::Stats total;
    for (const auto &t : tables_) {
        const Hcrac::Stats &s = t->stats();
        total.lookups += s.lookups;
        total.hits += s.hits;
        total.inserts += s.inserts;
        total.evictions += s.evictions;
        total.sweepInvalidations += s.sweepInvalidations;
    }
    return total;
}

double
ChargeCacheProvider::unlimitedHitRate() const
{
    if (!unlimited_ || unlimited_->stats().lookups == 0)
        return 0.0;
    return double(unlimited_->stats().hits) / unlimited_->stats().lookups;
}

NuatProvider::NuatProvider(const dram::DramTiming &timing,
                           const NuatParams &params,
                           const RefreshInfo &refresh)
    : timing_(timing), params_(params), refresh_(refresh)
{
    CCSIM_ASSERT(!params_.bins.empty(), "NUAT needs at least one bin");
    for (size_t i = 1; i < params_.bins.size(); ++i)
        CCSIM_ASSERT(params_.bins[i].maxAgeCycles >
                         params_.bins[i - 1].maxAgeCycles,
                     "NUAT bins must have increasing age bounds");
}

dram::EffActTiming
NuatProvider::onActivate(int, const dram::DramAddr &addr, Cycle now)
{
    ++activations;
    std::int64_t last =
        refresh_.lastRefreshCycle(addr.rank, addr.bank, addr.row, now);
    std::int64_t age = static_cast<std::int64_t>(now) - last;
    CCSIM_ASSERT(age >= 0, "refresh in the future?");
    for (const auto &bin : params_.bins) {
        if (age < static_cast<std::int64_t>(bin.maxAgeCycles)) {
            // Clamp: a bin never exceeds the standard timing.
            int trcd = std::min(bin.trcd, timing_.tRCD);
            int tras = std::min(bin.tras, timing_.tRAS);
            if (trcd < timing_.tRCD || tras < timing_.tRAS) {
                ++reducedActivations;
                return {trcd, tras, true};
            }
            return standard(timing_);
        }
    }
    return standard(timing_);
}

dram::EffActTiming
CombinedProvider::onActivate(int core_id, const dram::DramAddr &addr,
                             Cycle now)
{
    ++activations;
    dram::EffActTiming cc = cc_->onActivate(core_id, addr, now);
    dram::EffActTiming nu = nuat_->onActivate(core_id, addr, now);
    dram::EffActTiming best;
    best.trcd = std::min(cc.trcd, nu.trcd);
    best.tras = std::min(cc.tras, nu.tras);
    best.reduced = cc.reduced || nu.reduced;
    if (best.reduced)
        ++reducedActivations;
    return best;
}

void
CombinedProvider::onPrecharge(int owner_core, const dram::DramAddr &addr,
                              int row, Cycle now)
{
    cc_->onPrecharge(owner_core, addr, row, now);
    nuat_->onPrecharge(owner_core, addr, row, now);
}

void
LatencyProvider::saveState(resilience::SnapshotWriter &w) const
{
    w.put(activations);
    w.put(reducedActivations);
}

void
LatencyProvider::loadState(resilience::SnapshotReader &r)
{
    r.get(activations);
    r.get(reducedActivations);
}

void
ChargeCacheProvider::saveState(resilience::SnapshotWriter &w) const
{
    LatencyProvider::saveState(w);
    for (const auto &t : tables_)
        t->saveState(w);
    for (const SweepInvalidator &inv : invalidators_)
        inv.saveState(w);
    w.put(static_cast<bool>(unlimited_));
    if (unlimited_)
        unlimited_->saveState(w);
}

void
ChargeCacheProvider::loadState(resilience::SnapshotReader &r)
{
    LatencyProvider::loadState(r);
    for (auto &t : tables_)
        t->loadState(r);
    for (SweepInvalidator &inv : invalidators_)
        inv.loadState(r);
    bool has_unlimited = r.get<bool>();
    if (has_unlimited != static_cast<bool>(unlimited_))
        throw resilience::SimError(
            resilience::ErrorKind::CorruptSnapshot,
            "unlimited-HCRAC presence mismatch in snapshot");
    if (unlimited_)
        unlimited_->loadState(r);
}

void
CombinedProvider::saveState(resilience::SnapshotWriter &w) const
{
    LatencyProvider::saveState(w);
    cc_->saveState(w);
    nuat_->saveState(w);
}

void
CombinedProvider::loadState(resilience::SnapshotReader &r)
{
    LatencyProvider::loadState(r);
    cc_->loadState(r);
    nuat_->loadState(r);
}

} // namespace ccsim::chargecache
