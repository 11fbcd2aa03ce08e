/**
 * @file
 * Latency providers: the policy layer that decides, per activation,
 * which tRCD/tRAS the memory controller uses.
 *
 *  - StandardProvider:     commodity DRAM (baseline).
 *  - ChargeCacheProvider:  the paper's mechanism (HCRAC + sweep
 *                          invalidation; per-core or shared tables).
 *  - NuatProvider:         NUAT [Shin+, HPCA 2014] — lower latency only
 *                          for recently-refreshed rows (5PB binning).
 *  - CombinedProvider:     ChargeCache + NUAT (Section 6's CC+NUAT).
 *  - LowLatencyDramProvider: idealized LL-DRAM (every ACT reduced) —
 *                          the upper bound in Figure 7.
 */

#ifndef CCSIM_CHARGECACHE_PROVIDERS_HH
#define CCSIM_CHARGECACHE_PROVIDERS_HH

#include <memory>
#include <vector>

#include "chargecache/hcrac.hh"
#include "common/types.hh"
#include "dram/command.hh"
#include "dram/spec.hh"

namespace ccsim::resilience {
class SnapshotWriter;
class SnapshotReader;
} // namespace ccsim::resilience

namespace ccsim::chargecache {

/**
 * Interface the controller queries for refresh recency (used by NUAT).
 * Implemented by the controller's refresh scheduler.
 */
class RefreshInfo
{
  public:
    virtual ~RefreshInfo() = default;

    /**
     * Cycle at which `row` of (rank, bank) was last refreshed (may be
     * "negative", i.e. before simulation start; encoded as a signed
     * offset from 0 saturating at a full window).
     */
    virtual std::int64_t lastRefreshCycle(int rank, int bank, int row,
                                          Cycle now) const = 0;
};

class ChargeCacheProvider;

/** Per-ACT timing decision interface. */
class LatencyProvider
{
  public:
    virtual ~LatencyProvider() = default;

    /**
     * The ChargeCacheProvider embedded in this provider, if any — for
     * statistics and functional warming without dynamic_cast scans
     * (Baseline, NUAT and LL-DRAM return nullptr).
     */
    virtual ChargeCacheProvider *chargeCacheView() { return nullptr; }

    /**
     * Decide the effective timing of an ACT at cycle `now` issued on
     * behalf of core `core_id` (-1 when unattributable).
     */
    virtual dram::EffActTiming onActivate(int core_id,
                                          const dram::DramAddr &addr,
                                          Cycle now) = 0;

    /**
     * Observe a precharge of `row` in (rank, bank) at `now`; the row was
     * most recently used by `owner_core`.
     */
    virtual void onPrecharge(int owner_core, const dram::DramAddr &addr,
                             int row, Cycle now) = 0;

    virtual const char *name() const = 0;

    /** Zero statistics (end of warm-up). */
    virtual void
    resetStats()
    {
        activations = 0;
        reducedActivations = 0;
    }

    /** Total ACTs seen / ACTs issued with reduced timing. */
    std::uint64_t activations = 0;
    std::uint64_t reducedActivations = 0;

    /** Fraction of ACTs served with lowered timing parameters. */
    double
    hitRate() const
    {
        return activations ? double(reducedActivations) / activations : 0.0;
    }

    /**
     * Checkpoint. The base implementation covers the two counters —
     * sufficient for the stateless providers (Baseline, NUAT,
     * LL-DRAM); table-bearing providers extend it.
     */
    virtual void saveState(resilience::SnapshotWriter &w) const;
    virtual void loadState(resilience::SnapshotReader &r);

  protected:
    dram::EffActTiming
    standard(const dram::DramTiming &t) const
    {
        return {t.tRCD, t.tRAS, false};
    }
};

/** Pack (rank, bank, row) into an HCRAC tag key. */
inline std::uint64_t
rowKey(const dram::DramAddr &addr, int row)
{
    return (std::uint64_t(addr.rank) << 40) | (std::uint64_t(addr.bank) << 32) |
           std::uint64_t(static_cast<std::uint32_t>(row));
}

/** Baseline: every ACT uses the standard timing. */
class StandardProvider final : public LatencyProvider
{
  public:
    explicit StandardProvider(const dram::DramTiming &timing)
        : timing_(timing)
    {}

    dram::EffActTiming
    onActivate(int, const dram::DramAddr &, Cycle) override
    {
        ++activations;
        return standard(timing_);
    }

    void onPrecharge(int, const dram::DramAddr &, int, Cycle) override {}

    const char *name() const override { return "Baseline"; }

  private:
    const dram::DramTiming &timing_;
};

/** Idealized LL-DRAM: every ACT uses the reduced timing (100% hit). */
class LowLatencyDramProvider final : public LatencyProvider
{
  public:
    LowLatencyDramProvider(int trcd, int tras) : trcd_(trcd), tras_(tras) {}

    dram::EffActTiming
    onActivate(int, const dram::DramAddr &, Cycle) override
    {
        ++activations;
        ++reducedActivations;
        return {trcd_, tras_, true};
    }

    void onPrecharge(int, const dram::DramAddr &, int, Cycle) override {}

    const char *name() const override { return "LL-DRAM"; }

  private:
    int trcd_, tras_;
};

/** ChargeCache configuration. */
struct ChargeCacheParams {
    Hcrac::Params table;           ///< Geometry/policy per table.
    Cycle durationCycles = 800000; ///< Caching duration (1 ms @ 800 MHz).
    int trcdReduced = 7;           ///< tRCD on hit (11 - 4).
    int trasReduced = 20;          ///< tRAS on hit (28 - 8).
    bool sharedTable = false;      ///< One table for all cores (fn. 2).
    bool trackUnlimited = false;   ///< Also model the unlimited table.
};

/** The paper's mechanism. */
class ChargeCacheProvider final : public LatencyProvider
{
  public:
    ChargeCacheProvider(const dram::DramTiming &timing,
                        const ChargeCacheParams &params, int num_cores);

    dram::EffActTiming onActivate(int core_id, const dram::DramAddr &addr,
                                  Cycle now) override;
    void onPrecharge(int owner_core, const dram::DramAddr &addr, int row,
                     Cycle now) override;

    const char *name() const override { return "ChargeCache"; }

    ChargeCacheProvider *chargeCacheView() override { return this; }

    void resetStats() override;

    /** Aggregated HCRAC statistics over all per-core tables. */
    Hcrac::Stats tableStats() const;

    /** Hit rate of the idealized unlimited table (Figure 9 dashes). */
    double unlimitedHitRate() const;

    // ---- functional warming (SMARTS-style; trace/sampling.hh) -------

    /**
     * Functional insert, as a precharge of `row` by `owner_core` would
     * do — but time does not advance during warming, so the sweep
     * invalidator is not run and the unlimited-table model (which
     * needs real insertion cycles) is skipped. Statistics still count
     * the insert; the run's warm-up boundary resets them.
     */
    void warmInsert(int owner_core, const dram::DramAddr &addr, int row);

    /**
     * End a warm window: restart every table's BIP RNG from its seed,
     * so the detailed run draws what it would from a fresh table.
     */
    void endWarming();

    int numTables() const { return static_cast<int>(tables_.size()); }
    const Hcrac &table(int idx) const { return *tables_[idx]; }

    void saveState(resilience::SnapshotWriter &w) const override;
    void loadState(resilience::SnapshotReader &r) override;

  private:
    int tableIndex(int core_id) const;

    const dram::DramTiming &timing_;
    ChargeCacheParams params_;
    std::vector<std::unique_ptr<Hcrac>> tables_;
    std::vector<SweepInvalidator> invalidators_;
    std::unique_ptr<UnlimitedHcrac> unlimited_;
};

/** One NUAT latency bin: rows refreshed less than `maxAge` ago. */
struct NuatBin {
    Cycle maxAgeCycles = 0;
    int trcd = 0;
    int tras = 0;
};

/** NUAT parameters (default 5PB binning as in the NUAT paper). */
struct NuatParams {
    std::vector<NuatBin> bins;
};

/** NUAT: timing from time-since-last-refresh only. */
class NuatProvider final : public LatencyProvider
{
  public:
    NuatProvider(const dram::DramTiming &timing, const NuatParams &params,
                 const RefreshInfo &refresh);

    dram::EffActTiming onActivate(int, const dram::DramAddr &addr,
                                  Cycle now) override;
    void onPrecharge(int, const dram::DramAddr &, int, Cycle) override {}

    const char *name() const override { return "NUAT"; }

  private:
    const dram::DramTiming &timing_;
    NuatParams params_;
    const RefreshInfo &refresh_;
};

/** ChargeCache + NUAT: per ACT, the better of the two mechanisms. */
class CombinedProvider final : public LatencyProvider
{
  public:
    CombinedProvider(std::unique_ptr<ChargeCacheProvider> cc,
                     std::unique_ptr<NuatProvider> nuat)
        : cc_(std::move(cc)), nuat_(std::move(nuat))
    {}

    ChargeCacheProvider *chargeCacheView() override { return cc_.get(); }

    dram::EffActTiming onActivate(int core_id, const dram::DramAddr &addr,
                                  Cycle now) override;
    void onPrecharge(int owner_core, const dram::DramAddr &addr, int row,
                     Cycle now) override;

    const char *name() const override { return "ChargeCache+NUAT"; }

    void
    resetStats() override
    {
        LatencyProvider::resetStats();
        cc_->resetStats();
        nuat_->resetStats();
    }

    void saveState(resilience::SnapshotWriter &w) const override;
    void loadState(resilience::SnapshotReader &r) override;

  private:
    std::unique_ptr<ChargeCacheProvider> cc_;
    std::unique_ptr<NuatProvider> nuat_;
};

} // namespace ccsim::chargecache

#endif // CCSIM_CHARGECACHE_PROVIDERS_HH
