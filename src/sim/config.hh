/**
 * @file
 * Full-system simulation configuration, defaulting to Table 1 of the
 * paper: 1-8 cores at 4 GHz, 3-wide issue, 128-entry window, 8
 * MSHRs/core, 4 MB 16-way LLC, FR-FCFS, open-row (single-core) or
 * closed-row (multi-core) policy, DDR3-1600 with 1-2 channels, and a
 * 128-entry 2-way LRU ChargeCache with 1 ms caching duration and
 * 4/8-cycle tRCD/tRAS reduction on hits.
 */

#ifndef CCSIM_SIM_CONFIG_HH
#define CCSIM_SIM_CONFIG_HH

#include <string>
#include <vector>

#include "chargecache/providers.hh"
#include "circuit/timing_model.hh"
#include "cpu/core.hh"
#include "ctrl/controller.hh"
#include "dram/addr.hh"
#include "dram/spec.hh"
#include "mem/llc.hh"
#include "obs/obs_config.hh"
#include "vm/mmu.hh"

namespace ccsim::sim {

/** Latency scheme under evaluation (Section 6's four mechanisms). */
enum class Scheme {
    Baseline,
    ChargeCache,
    Nuat,
    ChargeCacheNuat,
    LlDram,
};

const char *schemeName(Scheme scheme);

/**
 * Simulation kernel driving System::run(). Both kernels produce
 * bit-identical SystemResult statistics (enforced by
 * tests/test_system.cc): Calendar is the production kernel and
 * strictly a wall-clock optimisation, PerCycle the oracle it is
 * tested against. See docs/performance.md for the invariants.
 */
enum class KernelMode {
    /**
     * Calendar event kernel (default): parked cores post their
     * self-wakes to a wake queue and each controller is ticked only
     * when its horizon is due; parked cores stay off the per-cycle tick
     * path entirely until an event or a memory return wakes them, and
     * the FR-FCFS scheduler issues from per-bank request lists.
     * Iteration cost scales with events, not with awake-core cycles.
     */
    Calendar,
    /** Reference loop: tick every component every cycle (seed loop). */
    PerCycle,
};

const char *kernelModeName(KernelMode mode);

struct SimConfig {
    int nCores = 1;
    int channels = 1;
    std::string dramStandard = "DDR3-1600";
    dram::MapScheme mapping = dram::MapScheme::RoBaRaCoCh;

    ctrl::CtrlConfig ctrl;
    mem::LlcConfig llc;
    cpu::CoreConfig core;
    /**
     * Virtual-memory subsystem (per-core two-level TLBs, radix
     * page-table walker, pluggable page allocator). Disabled by
     * default: cores then issue trace addresses as physical and the
     * simulator behaves byte-for-byte like the pre-VM code.
     */
    vm::VmConfig vm;
    int cpuRatio = 5; ///< CPU cycles per DRAM bus cycle (4 GHz / 800 MHz).

    std::uint64_t warmupInsts = 50000;  ///< Per core.
    std::uint64_t targetInsts = 400000; ///< Per core, post-warm-up.
    CpuCycle maxCpuCycles = 5000000000ull; ///< Runaway guard.

    Scheme scheme = Scheme::Baseline;
    chargecache::ChargeCacheParams cc;
    double ccDurationMs = 1.0;
    /** Derive hit timings from the circuit model instead of cc.*Reduced. */
    bool ccUseTimingModel = false;
    /** NUAT 5PB bin edges (ms); the last edge is the refresh window. */
    std::vector<double> nuatBinEdgesMs = {6, 16, 32, 48, 64};

    std::uint64_t seed = 42;

    KernelMode kernel = KernelMode::Calendar;
    /**
     * Calendar only: run the per-cycle schedule with the calendar
     * kernel shadowed — execute every tick it would skip and assert
     * each one is quiescent, shadow-run its wake queue asserting it
     * delivers every self-wake at exactly the cycle the per-cycle
     * schedule needs it, assert every active controller tick was one
     * its horizon allowed, and scan inside each scheduler horizon too
     * (ctrl::Scheduler::BankListsChecked). A per-cycle-speed
     * equivalence check of every skip decision (tests/debugging).
     */
    bool kernelParanoid = false;

    /**
     * Telemetry (src/obs/, docs/observability.md): interval
     * time-series, hot-path latency histograms, trace-event export.
     * Observation-only — results are bit-identical with telemetry on
     * or off, across kernels (tests/test_obs.cc).
     * Excluded from the snapshot config hash like the other execution-
     * strategy knobs. Inert unless obs.enable is set.
     */
    obs::ObsConfig obs;

    /** Paper single-core system: 1 channel, open-row. */
    static SimConfig singleCore();
    /** Paper eight-core system: 2 channels, closed-row. */
    static SimConfig eightCore();

    dram::DramSpec buildSpec() const;

    /** Apply ccDurationMs: duration cycles and (optionally) timings. */
    void finalizeChargeCache();
};

/**
 * Build NUAT 5PB bins from the circuit timing model: rows refreshed
 * within edge[i] get the worst-case timings for that age.
 */
chargecache::NuatParams makeNuatParams(const circuit::TimingModel &model,
                                       const dram::DramTiming &timing,
                                       const std::vector<double> &edges_ms);

} // namespace ccsim::sim

#endif // CCSIM_SIM_CONFIG_HH
