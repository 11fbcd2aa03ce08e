/**
 * @file
 * Datacenter workload generators: deterministic cpu::TraceSources
 * shaped like the three streams a DRAM latency study cares about in a
 * serving fleet, each with seed-derived *phase changes* so sampled
 * simulation (trace/sampling.hh) has real program phases to cluster:
 *
 *  - ZipfianKVTrace: key-value serving. Zipfian(theta) key popularity
 *    (YCSB-style, Gray et al. sampling), each request a hash-index
 *    probe plus a sequential value read; PUTs rewrite the value lines.
 *    The rank->key mapping is re-salted every `phaseRequests` requests
 *    — hot-key churn, the access pattern ChargeCache's 8 ms window
 *    either captures or doesn't.
 *
 *  - WebTierTrace: a web tier fanning each request from a large user
 *    population (Zipfian user popularity) across session state, a hot
 *    shared-template set, and `fanout` backend partitions. Phase
 *    changes rotate which users are hot (diurnal shift).
 *
 *  - AnalyticsScanTrace: scan-heavy analytics. Long sequential column
 *    scans with probabilistic join probes into a dimension table and
 *    aggregation-buffer writes; the scan switches tables (and restarts
 *    at a seed-derived offset) every `scanLinesPerPhase` lines — the
 *    classic streaming phase structure SimPoint exists for.
 *
 * All generators are infinite, deterministic from (config, seed), lay
 * their regions out from `base_line` like workloads::SyntheticTrace,
 * and support checkpoint save/load (rng + cursors only).
 */

#ifndef CCSIM_TRACE_DATACENTER_HH
#define CCSIM_TRACE_DATACENTER_HH

#include <cstdint>
#include <memory>
#include <string>

#include "common/random.hh"
#include "common/types.hh"
#include "cpu/trace.hh"

namespace ccsim::trace {

/**
 * Zipfian rank sampler over [0, n), skew `theta` in [0, 1) — the
 * incremental-zeta method from Gray et al., "Quickly generating
 * billion-record synthetic databases" (the YCSB generator's ancestor).
 * Construction is O(n); sampling is O(1).
 */
class ZipfSampler
{
  public:
    ZipfSampler(std::uint64_t n, double theta);

    /** Popularity rank; 0 is the hottest. */
    std::uint64_t rank(Rng &rng) const;

    std::uint64_t n() const { return n_; }

  private:
    std::uint64_t n_;
    double theta_;
    double alpha_;
    double zetan_;
    double eta_;
};

/** Shared knobs: compute-gap density and the DRAM row shape. */
struct DatacenterBase {
    double memPerInst = 0.2; ///< Memory instructions per instruction.
    int linesPerRow = 128;   ///< 8 KB rows of 64 B lines.
};

struct ZipfianKVConfig : DatacenterBase {
    std::uint64_t nKeys = 1 << 18; ///< Distinct keys.
    double theta = 0.99;           ///< YCSB-default skew.
    int valueLines = 4;            ///< Value payload lines per request.
    double putFraction = 0.05;     ///< PUT (write) share of requests.
    std::uint64_t indexLines = 1 << 14; ///< Hash-index region.
    std::uint64_t phaseRequests = 0;    ///< 0 = stationary hot set.

    std::uint64_t footprintLines() const;
};

struct WebTierConfig : DatacenterBase {
    std::uint64_t nUsers = 1 << 20; ///< Simulated user population.
    double theta = 0.8;             ///< User popularity skew.
    std::uint64_t sessionLines = 8; ///< Per-user session state.
    std::uint64_t hotLines = 1 << 12; ///< Shared templates/config.
    int fanout = 8;                   ///< Backend partitions per request.
    std::uint64_t backendLines = 1 << 16; ///< Per-partition region.
    double writeFraction = 0.15;
    std::uint64_t phaseRequests = 0; ///< 0 = no diurnal shift.

    std::uint64_t footprintLines() const;
};

struct AnalyticsScanConfig : DatacenterBase {
    std::uint64_t tableLines = 1 << 20; ///< One fact table/column.
    std::uint64_t nTables = 4;          ///< Columns rotated per phase.
    std::uint64_t dimLines = 1 << 13;   ///< Join-probe dimension table.
    double probeProb = 0.08;            ///< Probe per scanned line.
    std::uint64_t aggLines = 1 << 8;    ///< Aggregation hash buffer.
    double aggProb = 0.05;              ///< Agg write per scanned line.
    std::uint64_t scanLinesPerPhase = 1 << 19;

    AnalyticsScanConfig() { memPerInst = 0.3; }

    std::uint64_t footprintLines() const;
};

class ZipfianKVTrace : public cpu::TraceSource
{
  public:
    ZipfianKVTrace(const ZipfianKVConfig &config, std::uint64_t seed,
                   Addr base_line, Addr capacity_lines);

    bool next(cpu::TraceRecord &record) override;
    void reset() override;
    void saveState(resilience::SnapshotWriter &w) const override;
    void loadState(resilience::SnapshotReader &r) override;

  private:
    ZipfianKVConfig cfg_;
    std::uint64_t seed_;
    Addr baseLine_, capacityLines_;
    ZipfSampler zipf_;
    double gapMean_;

    Rng rng_;
    std::uint64_t requests_ = 0;
    std::uint64_t curKey_ = 0;
    bool curIsPut_ = false;
    int reqPos_ = 0; ///< 0 = index probe, 1.. = value lines.
};

class WebTierTrace : public cpu::TraceSource
{
  public:
    WebTierTrace(const WebTierConfig &config, std::uint64_t seed,
                 Addr base_line, Addr capacity_lines);

    bool next(cpu::TraceRecord &record) override;
    void reset() override;
    void saveState(resilience::SnapshotWriter &w) const override;
    void loadState(resilience::SnapshotReader &r) override;

  private:
    WebTierConfig cfg_;
    std::uint64_t seed_;
    Addr baseLine_, capacityLines_;
    ZipfSampler zipf_;
    double gapMean_;

    Rng rng_;
    std::uint64_t requests_ = 0;
    std::uint64_t curUser_ = 0;
    int reqPos_ = 0; ///< templates, session r/w, then fanout.
};

class AnalyticsScanTrace : public cpu::TraceSource
{
  public:
    AnalyticsScanTrace(const AnalyticsScanConfig &config,
                       std::uint64_t seed, Addr base_line,
                       Addr capacity_lines);

    bool next(cpu::TraceRecord &record) override;
    void reset() override;
    void saveState(resilience::SnapshotWriter &w) const override;
    void loadState(resilience::SnapshotReader &r) override;

  private:
    AnalyticsScanConfig cfg_;
    std::uint64_t seed_;
    Addr baseLine_, capacityLines_;
    double gapMean_;

    Rng rng_;
    std::uint64_t table_ = 0;
    std::uint64_t scanPos_ = 0;       ///< Line within current table.
    std::uint64_t phaseScanned_ = 0;  ///< Lines since last switch.
    std::uint64_t aggCursor_ = 0;
};

/**
 * Factory for benches/tools: "kv-zipf", "web-fanout",
 * "analytics-scan" with default configs.
 * @throws resilience::SimError{InvalidConfig} on an unknown name.
 */
std::unique_ptr<cpu::TraceSource>
makeDatacenterSource(const std::string &name, std::uint64_t seed,
                     Addr base_line, Addr capacity_lines);

} // namespace ccsim::trace

#endif // CCSIM_TRACE_DATACENTER_HH
