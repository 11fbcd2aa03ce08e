#include "trace/datacenter.hh"

#include <cmath>

#include "resilience/error.hh"
#include "resilience/serial.hh"

namespace ccsim::trace {

using resilience::ErrorKind;
using resilience::SimError;

namespace {

/** Geometric compute gap, same shape as workloads::SyntheticTrace. */
std::uint32_t
sampleGap(Rng &rng, double gap_mean)
{
    double u = rng.uniform();
    double gap = gap_mean > 0.0 ? -std::log1p(-u) * gap_mean : 0.0;
    double cap = 10.0 * gap_mean + 10.0;
    return static_cast<std::uint32_t>(std::min(gap, cap) + 0.5);
}

double
gapMeanFor(double mem_per_inst)
{
    if (mem_per_inst <= 0.0 || mem_per_inst > 1.0)
        throw SimError(ErrorKind::InvalidConfig,
                       "memPerInst must be in (0, 1]");
    return 1.0 / mem_per_inst - 1.0;
}

Addr
lineToAddr(Addr base_line, Addr local, Addr capacity_lines)
{
    return ((base_line + local) % capacity_lines) * 64;
}

/** Phase salt: re-keys rank->entity mappings every phase. */
std::uint64_t
phaseSalt(std::uint64_t seed, std::uint64_t phase)
{
    return mix64(seed ^ (phase * 0x9E3779B97F4A7C15ull));
}

} // namespace

// ------------------------------------------------------------- sampler

ZipfSampler::ZipfSampler(std::uint64_t n, double theta)
    : n_(n), theta_(theta)
{
    if (n == 0)
        throw SimError(ErrorKind::InvalidConfig,
                       "zipf population must be positive");
    if (theta < 0.0 || theta >= 1.0)
        throw SimError(ErrorKind::InvalidConfig,
                       "zipf theta must be in [0, 1)");
    zetan_ = 0.0;
    for (std::uint64_t i = 1; i <= n_; ++i)
        zetan_ += 1.0 / std::pow(static_cast<double>(i), theta_);
    alpha_ = 1.0 / (1.0 - theta_);
    double zeta2 = 1.0 + std::pow(0.5, theta_);
    eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n_), 1.0 - theta_)) /
           (1.0 - zeta2 / zetan_);
}

std::uint64_t
ZipfSampler::rank(Rng &rng) const
{
    double u = rng.uniform();
    double uz = u * zetan_;
    if (uz < 1.0 || n_ == 1)
        return 0;
    if (uz < 1.0 + std::pow(0.5, theta_))
        return 1;
    auto r = static_cast<std::uint64_t>(
        static_cast<double>(n_) *
        std::pow(eta_ * u - eta_ + 1.0, alpha_));
    return r < n_ ? r : n_ - 1;
}

// ---------------------------------------------------------- footprints

std::uint64_t
ZipfianKVConfig::footprintLines() const
{
    return indexLines + nKeys * static_cast<std::uint64_t>(valueLines);
}

std::uint64_t
WebTierConfig::footprintLines() const
{
    return hotLines + nUsers * sessionLines +
           static_cast<std::uint64_t>(fanout) * backendLines;
}

std::uint64_t
AnalyticsScanConfig::footprintLines() const
{
    return nTables * tableLines + dimLines + aggLines;
}

// ------------------------------------------------------------ KV store

ZipfianKVTrace::ZipfianKVTrace(const ZipfianKVConfig &config,
                               std::uint64_t seed, Addr base_line,
                               Addr capacity_lines)
    : cfg_(config),
      seed_(seed),
      baseLine_(base_line),
      capacityLines_(capacity_lines),
      zipf_(config.nKeys, config.theta),
      gapMean_(gapMeanFor(config.memPerInst)),
      rng_(seed)
{
    if (cfg_.valueLines <= 0 || cfg_.indexLines == 0)
        throw SimError(ErrorKind::InvalidConfig,
                       "kv config needs valueLines and indexLines");
}

bool
ZipfianKVTrace::next(cpu::TraceRecord &record)
{
    record.nonMemInsts = sampleGap(rng_, gapMean_);
    if (reqPos_ == 0) {
        // New request: popularity rank -> key through the current
        // phase's salt, so the hot set churns deterministically.
        std::uint64_t phase =
            cfg_.phaseRequests ? requests_ / cfg_.phaseRequests : 0;
        std::uint64_t rank = zipf_.rank(rng_);
        curKey_ = mix64(rank ^ phaseSalt(seed_, phase)) % cfg_.nKeys;
        curIsPut_ = rng_.chance(cfg_.putFraction);
        record.addr = lineToAddr(baseLine_,
                                 mix64(curKey_) % cfg_.indexLines,
                                 capacityLines_);
        record.isWrite = false; // Index probes read even on PUT.
        reqPos_ = 1;
        return true;
    }
    Addr local = cfg_.indexLines +
                 curKey_ * static_cast<Addr>(cfg_.valueLines) +
                 static_cast<Addr>(reqPos_ - 1);
    record.addr = lineToAddr(baseLine_, local, capacityLines_);
    record.isWrite = curIsPut_;
    if (++reqPos_ > cfg_.valueLines) {
        reqPos_ = 0;
        ++requests_;
    }
    return true;
}

void
ZipfianKVTrace::reset()
{
    rng_.reseed(seed_);
    requests_ = 0;
    curKey_ = 0;
    curIsPut_ = false;
    reqPos_ = 0;
}

void
ZipfianKVTrace::saveState(resilience::SnapshotWriter &w) const
{
    w.put(rng_.state());
    w.put(requests_);
    w.put(curKey_);
    w.put(curIsPut_);
    w.put(reqPos_);
}

void
ZipfianKVTrace::loadState(resilience::SnapshotReader &r)
{
    rng_.setState(r.get<std::array<std::uint64_t, 4>>());
    requests_ = r.get<std::uint64_t>();
    curKey_ = r.get<std::uint64_t>();
    curIsPut_ = r.get<bool>();
    reqPos_ = r.get<int>();
}

// ------------------------------------------------------------ web tier

WebTierTrace::WebTierTrace(const WebTierConfig &config,
                           std::uint64_t seed, Addr base_line,
                           Addr capacity_lines)
    : cfg_(config),
      seed_(seed),
      baseLine_(base_line),
      capacityLines_(capacity_lines),
      zipf_(config.nUsers, config.theta),
      gapMean_(gapMeanFor(config.memPerInst)),
      rng_(seed)
{
    if (cfg_.fanout <= 0 || cfg_.hotLines == 0 ||
        cfg_.sessionLines == 0 || cfg_.backendLines == 0)
        throw SimError(ErrorKind::InvalidConfig,
                       "web config needs fanout/hot/session/backend "
                       "sizes");
}

bool
WebTierTrace::next(cpu::TraceRecord &record)
{
    record.nonMemInsts = sampleGap(rng_, gapMean_);
    record.isWrite = false;
    const Addr sessionBase = cfg_.hotLines;
    const Addr backendBase =
        sessionBase + cfg_.nUsers * cfg_.sessionLines;

    if (reqPos_ == 0) {
        std::uint64_t phase =
            cfg_.phaseRequests ? requests_ / cfg_.phaseRequests : 0;
        std::uint64_t rank = zipf_.rank(rng_);
        curUser_ =
            mix64(rank ^ phaseSalt(seed_, phase)) % cfg_.nUsers;
    }

    Addr local = 0;
    if (reqPos_ < 2) {
        // Shared templates/config: the always-hot rows.
        local = rng_.below(cfg_.hotLines);
    } else if (reqPos_ == 2 || reqPos_ == 3) {
        // Session state: read then write-back.
        local = sessionBase + curUser_ * cfg_.sessionLines +
                rng_.below(cfg_.sessionLines);
        record.isWrite = (reqPos_ == 3);
    } else {
        // Backend fan-out across the partitions.
        std::uint64_t k = static_cast<std::uint64_t>(reqPos_) - 4;
        std::uint64_t part =
            (curUser_ + k) % static_cast<std::uint64_t>(cfg_.fanout);
        local = backendBase + part * cfg_.backendLines +
                mix64(curUser_ * 31 + k) % cfg_.backendLines;
        record.isWrite = rng_.chance(cfg_.writeFraction);
    }
    record.addr = lineToAddr(baseLine_, local, capacityLines_);

    if (++reqPos_ >= 4 + cfg_.fanout) {
        reqPos_ = 0;
        ++requests_;
    }
    return true;
}

void
WebTierTrace::reset()
{
    rng_.reseed(seed_);
    requests_ = 0;
    curUser_ = 0;
    reqPos_ = 0;
}

void
WebTierTrace::saveState(resilience::SnapshotWriter &w) const
{
    w.put(rng_.state());
    w.put(requests_);
    w.put(curUser_);
    w.put(reqPos_);
}

void
WebTierTrace::loadState(resilience::SnapshotReader &r)
{
    rng_.setState(r.get<std::array<std::uint64_t, 4>>());
    requests_ = r.get<std::uint64_t>();
    curUser_ = r.get<std::uint64_t>();
    reqPos_ = r.get<int>();
}

// ----------------------------------------------------------- analytics

AnalyticsScanTrace::AnalyticsScanTrace(const AnalyticsScanConfig &config,
                                       std::uint64_t seed,
                                       Addr base_line,
                                       Addr capacity_lines)
    : cfg_(config),
      seed_(seed),
      baseLine_(base_line),
      capacityLines_(capacity_lines),
      gapMean_(gapMeanFor(config.memPerInst)),
      rng_(seed)
{
    if (cfg_.nTables == 0 || cfg_.tableLines == 0 ||
        cfg_.dimLines == 0 || cfg_.aggLines == 0)
        throw SimError(ErrorKind::InvalidConfig,
                       "analytics config needs table/dim/agg sizes");
    if (cfg_.probeProb + cfg_.aggProb >= 1.0)
        throw SimError(ErrorKind::InvalidConfig,
                       "probeProb + aggProb must leave room for scans");
}

bool
AnalyticsScanTrace::next(cpu::TraceRecord &record)
{
    record.nonMemInsts = sampleGap(rng_, gapMean_);
    record.isWrite = false;
    const Addr dimBase = cfg_.nTables * cfg_.tableLines;
    const Addr aggBase = dimBase + cfg_.dimLines;

    double u = rng_.uniform();
    Addr local = 0;
    if (u < cfg_.probeProb) {
        // Join probe into the dimension table.
        local = dimBase + rng_.below(cfg_.dimLines);
    } else if (u < cfg_.probeProb + cfg_.aggProb) {
        // Aggregation buffer update.
        local = aggBase + (aggCursor_++ % cfg_.aggLines);
        record.isWrite = true;
    } else {
        // The scan itself.
        local = table_ * cfg_.tableLines + scanPos_;
        scanPos_ = (scanPos_ + 1) % cfg_.tableLines;
        if (++phaseScanned_ >= cfg_.scanLinesPerPhase) {
            // Column switch: next table, seed-derived start offset.
            table_ = (table_ + 1) % cfg_.nTables;
            scanPos_ = rng_.below(cfg_.tableLines);
            phaseScanned_ = 0;
        }
    }
    record.addr = lineToAddr(baseLine_, local, capacityLines_);
    return true;
}

void
AnalyticsScanTrace::reset()
{
    rng_.reseed(seed_);
    table_ = 0;
    scanPos_ = 0;
    phaseScanned_ = 0;
    aggCursor_ = 0;
}

void
AnalyticsScanTrace::saveState(resilience::SnapshotWriter &w) const
{
    w.put(rng_.state());
    w.put(table_);
    w.put(scanPos_);
    w.put(phaseScanned_);
    w.put(aggCursor_);
}

void
AnalyticsScanTrace::loadState(resilience::SnapshotReader &r)
{
    rng_.setState(r.get<std::array<std::uint64_t, 4>>());
    table_ = r.get<std::uint64_t>();
    scanPos_ = r.get<std::uint64_t>();
    phaseScanned_ = r.get<std::uint64_t>();
    aggCursor_ = r.get<std::uint64_t>();
}

// ------------------------------------------------------------- factory

std::unique_ptr<cpu::TraceSource>
makeDatacenterSource(const std::string &name, std::uint64_t seed,
                     Addr base_line, Addr capacity_lines)
{
    if (name == "kv-zipf")
        return std::make_unique<ZipfianKVTrace>(
            ZipfianKVConfig{}, seed, base_line, capacity_lines);
    if (name == "web-fanout")
        return std::make_unique<WebTierTrace>(
            WebTierConfig{}, seed, base_line, capacity_lines);
    if (name == "analytics-scan")
        return std::make_unique<AnalyticsScanTrace>(
            AnalyticsScanConfig{}, seed, base_line, capacity_lines);
    throw SimError(ErrorKind::InvalidConfig,
                   "unknown datacenter workload '" + name +
                       "' (kv-zipf, web-fanout, analytics-scan)");
}

} // namespace ccsim::trace
