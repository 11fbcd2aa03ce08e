/**
 * @file
 * Full-system wiring: trace-driven cores -> shared LLC -> per-channel
 * memory controllers with a latency provider (Baseline / ChargeCache /
 * NUAT / CC+NUAT / LL-DRAM), refresh, energy accounting, and RLTL
 * instrumentation. One System::run() produces every metric the paper's
 * figures need.
 */

#ifndef CCSIM_SIM_SYSTEM_HH
#define CCSIM_SIM_SYSTEM_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "cpu/core.hh"
#include "ctrl/controller.hh"
#include "dram/oracle.hh"
#include "energy/energy_model.hh"
#include "mem/llc.hh"
#include "obs/telemetry.hh"
#include "sim/calendar.hh"
#include "sim/config.hh"
#include "workloads/synthetic.hh"

namespace ccsim::sim {

/** Command listener that feeds the protocol oracle (tests/debug). */
class OracleListener : public ctrl::CommandListener
{
  public:
    explicit OracleListener(const dram::DramSpec &spec) : oracle_(spec) {}

    void
    onCommand(const dram::Command &cmd, Cycle cycle,
              const dram::EffActTiming *eff) override
    {
        oracle_.record(cmd, cycle, eff);
    }

    dram::TimingOracle &oracle() { return oracle_; }

  private:
    dram::TimingOracle oracle_;
};

/** Everything a figure could want from one run. */
struct SystemResult {
    std::vector<double> ipc; ///< Per core, post-warm-up.
    CpuCycle cpuCycles = 0;  ///< Warm-up end to last target.

    std::uint64_t activations = 0;
    double providerHitRate = 0.0; ///< Reduced ACTs / all ACTs.
    double hcracHitRate = 0.0;    ///< HCRAC lookup hit rate.
    double unlimitedHitRate = 0.0;
    double rmpkc = 0.0; ///< Activations per kilo CPU cycle.

    ctrl::CtrlStats ctrl; ///< Summed over channels.
    mem::LlcStats llc;
    energy::EnergyBreakdown energy;
    vm::VmStats vm; ///< Summed over cores (zero when VM is disabled).
    std::uint64_t xlatStallCycles = 0; ///< Summed core translation stalls.
    std::uint64_t shootdownStallCycles = 0; ///< Summed shootdown stalls.

    std::vector<double> rltl; ///< Per configured window.
    std::vector<double> rltlWindowsMs;
    double afterRefresh8ms = 0.0;

    double
    ipcSum() const
    {
        double s = 0;
        for (double v : ipc)
            s += v;
        return s;
    }
};

class System
{
  public:
    /** Build with named synthetic workloads (one per core). */
    System(const SimConfig &config,
           const std::vector<std::string> &workloads);

    /** Build with externally-owned trace sources (tests). */
    System(const SimConfig &config,
           const std::vector<cpu::TraceSource *> &traces);

    ~System();

    /** Run warm-up + measurement; return all metrics. */
    SystemResult run();

    /**
     * Warm-state injection for sampled slices (SMARTS-style functional
     * warming, trace/sampling.cc): adopt a functionally warmed LLC's
     * tag/LRU state and, when the scheme carries an HCRAC and an image
     * is supplied for the channel, each channel's table contents. Call
     * between construction and run(); the detailed warm lead-in then
     * only re-warms in-flight machine state (MSHRs, queues, row
     * buffers), not the big arrays. `warm_cc` may be empty (LLC-only
     * injection) or must hold one entry per channel (nullptr = skip).
     */
    void injectWarmState(
        const mem::Llc &warm_llc,
        const std::vector<const chargecache::ChargeCacheProvider *>
            &warm_cc = {});

    // Component access for tests.
    ctrl::MemoryController &controller(int channel);
    mem::Llc &llc() { return *llc_; }
    cpu::Core &core(int idx) { return *cores_[idx]; }
    /** Per-core MMU (null when the VM subsystem is disabled). */
    vm::Mmu *mmu(int idx)
    {
        return mmus_.empty() ? nullptr : mmus_[idx].get();
    }
    /** Shared address space (multi-process VM mode only). */
    vm::AddressSpace *addressSpace(int idx)
    {
        return idx >= 0 && idx < static_cast<int>(spaces_.size())
                   ? spaces_[idx].get()
                   : nullptr;
    }
    int numAddressSpaces() const { return static_cast<int>(spaces_.size()); }
    chargecache::LatencyProvider &provider(int channel);
    OracleListener *oracleListener(int channel);
    const SimConfig &config() const { return config_; }

    /**
     * Telemetry facade (src/obs/, docs/observability.md); null unless
     * config.obs.enable was set and CCSIM_OBS is compiled in. Owned by
     * the System for its lifetime; time-series rows, histograms and
     * the trace-event sink stay readable after run() returns.
     */
    obs::Telemetry *telemetry() { return tele_.get(); }

    // ----- Checkpoint/restore (src/resilience, docs/resilience.md) -----

    /**
     * Hook invoked from the top of the kernel loop (any kernel) the
     * first time simulated time reaches `first_at` and every `interval`
     * CPU cycles thereafter (interval 0 = once). The hook runs at a
     * quiescent point — parked cores have been settled — so
     * serializeSnapshot() is legal inside it. Returning false stops the
     * run: the kernel unwinds with SimError{Interrupted}. The hook is
     * also where the SIGINT/SIGTERM stop flag is typically polled
     * (resilience::stopRequested()), making `interval` the shutdown
     * latency bound.
     */
    using CheckpointHook = std::function<bool(System &)>;
    void setCheckpointHook(CpuCycle first_at, CpuCycle interval,
                           CheckpointHook hook);

    /**
     * Serialize the full simulation state as a versioned snapshot.
     * Callable only from inside a checkpoint hook (the kernel records
     * the quiescent run point the snapshot is anchored to). Resuming
     * from the returned bytes — in a fresh process, or under a
     * different kernel — reproduces the uninterrupted run bit for bit
     * (tests/test_resilience.cc).
     */
    std::vector<std::uint8_t> serializeSnapshot() const;

    /**
     * Restore a snapshot produced by serializeSnapshot() on an
     * identically-configured System (config-hash checked). Must be
     * called before run(); run() then continues from the snapshot's
     * run point instead of cycle 0.
     */
    void restoreSnapshot(const std::vector<std::uint8_t> &bytes);

    /**
     * Hash of every configuration knob that shapes simulated state.
     * Deliberately excludes execution strategy (kernel, paranoia,
     * fault plan) so snapshots resume across kernels.
     */
    std::uint64_t configHash() const;

  private:
    class StallWatchdog;

    void build(const std::vector<cpu::TraceSource *> &traces);
    void makeProviders();
    void resetAllStats(CpuCycle now);

    /**
     * TLB-shootdown broadcast (multi-process VM): invalidate
     * (asid, vpn) in every other core's TLBs and stall those cores for
     * vm.mp.shootdownCycles. Fires from inside the initiating core's
     * tick; the wake flags route through the same machinery LLC
     * completions use, so all kernels see identical schedules.
     */
    void shootdownBroadcast(int initiator, std::uint32_t asid, Addr vpn,
                            CpuCycle now);

    /** Calendar-queue event kernel (KernelMode::Calendar, non-paranoid). */
    SystemResult runCalendar();
    /** LLC wake/completion hook into the calendar kernel (no-op unless
        runCalendar is executing). */
    void calNoteWake(int core);
    /** Unpark `core` at `now`: settle its bulk stall statistics and put
        it back on the sorted awake list. */
    void calUnpark(int core, CpuCycle now);
    /** Account `skipped` elided park cycles of `core`: the same
        one-per-cycle stall statistics the per-cycle loop would have
        accrued (plus the LLC-side retry counters for BlockedLlc).
        `upto` is the absolute cycle the settled region ends at (for
        the telemetry park span; statistics ignore it). */
    void settleCoreStalls(int core, CpuCycle skipped, CpuCycle upto);

    /** Register the fixed probe set on tele_'s time series (build). */
    void registerObsProbes();

    /** True when the time-series sampler wants control at `now`. */
    bool
    obsSampleDue(CpuCycle now) const
    {
#if CCSIM_OBS
        return tele_ && tele_->sampleDue(now);
#else
        (void)now;
        return false;
#endif
    }
    /** Gather every end-of-run metric (shared by all kernels). */
    SystemResult collectResults(CpuCycle now, CpuCycle warm_end);

    /** Quiescent run point a snapshot is anchored to / resumed from. */
    struct RunPoint {
        CpuCycle now = 0;
        bool warm = false;
        CpuCycle warmEnd = 0;
    };

    /** True when the checkpoint hook wants control at `now`. */
    bool
    checkpointDue(CpuCycle now) const
    {
        return ckptHook_ && now >= ckptNextAt_;
    }

    /**
     * Invoke the checkpoint hook. The caller must already have brought
     * the system to a quiescent point (parked cores settled to `now`).
     * Rearms the next fire time; throws SimError{Interrupted} when the
     * hook asks the run to stop.
     */
    void fireCheckpoint(CpuCycle now, bool warm, CpuCycle warm_end);

    SimConfig config_;
    dram::DramSpec spec_;
    std::unique_ptr<dram::AddressMapper> mapper_;
    /** Workload names when name-constructed (snapshot config hash). */
    std::vector<std::string> workloadNames_;

    std::vector<std::unique_ptr<workloads::SyntheticTrace>> ownedTraces_;
    /** Every core's trace source (owned or external), for snapshots. */
    std::vector<cpu::TraceSource *> traceRefs_;
    std::vector<std::unique_ptr<ctrl::RefreshScheduler>> refresh_;
    std::vector<std::unique_ptr<chargecache::LatencyProvider>> providers_;
    std::vector<std::unique_ptr<ctrl::MemoryController>> controllers_;
    std::vector<std::unique_ptr<energy::EnergyModel>> energy_;
    std::vector<std::unique_ptr<OracleListener>> oracles_;
    std::unique_ptr<mem::Llc> llc_;
    /** Shared address spaces (multi-process VM mode; else empty — each
        legacy Mmu owns its single space internally). */
    std::vector<std::unique_ptr<vm::AddressSpace>> spaces_;
    std::vector<std::unique_ptr<vm::Mmu>> mmus_; ///< Empty when VM off.
    std::vector<std::unique_ptr<cpu::Core>> cores_;

    /**
     * Raised by the LLC callbacks whenever a completion or line
     * install touches any core; lets the event kernel skip the whole
     * core phase of a cycle without polling each core's wake state.
     */
    bool wakeSignal_ = false;

    /**
     * Calendar kernel state: allocated for the duration of
     * runCalendar() only. The LLC callbacks (bound once in build())
     * route wakes through it when present.
     */
    std::unique_ptr<CalendarKernelState> cal_;

    /** Telemetry (null unless config.obs.enable && CCSIM_OBS). */
    std::unique_ptr<obs::Telemetry> tele_;

    // Checkpoint/restore plumbing.
    CheckpointHook ckptHook_;
    CpuCycle ckptNextAt_ = kNoCycle;
    CpuCycle ckptInterval_ = 0;
    /** Quiescent point of the in-flight hook (serializeSnapshot anchor). */
    RunPoint ckptPoint_;
    bool inCkptHook_ = false;
    /** Set by restoreSnapshot(); consumed by the next run(). */
    std::optional<RunPoint> resume_;
};

} // namespace ccsim::sim

#endif // CCSIM_SIM_SYSTEM_HH
