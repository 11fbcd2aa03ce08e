/**
 * @file
 * Telemetry facade: one object owned by sim::System tying together the
 * interval time-series, the hot-path latency histograms, and the
 * trace-event sink (see docs/observability.md).
 *
 * Determinism: the facade only ever *reads* simulated state, at
 * quiescent points the kernels already know how to reach (the same
 * settle/quiesce machinery checkpoints use), so enabling any of it
 * leaves the simulated schedule bit-identical. Histograms are
 * per-channel / per-core objects; merge*() folds them in fixed
 * channel/core order.
 */

#ifndef CCSIM_OBS_TELEMETRY_HH
#define CCSIM_OBS_TELEMETRY_HH

#include <map>
#include <memory>
#include <vector>

#include "common/stats.hh"
#include "common/types.hh"
#include "ctrl/request.hh"
#include "obs/obs_config.hh"
#include "obs/timeseries.hh"
#include "obs/trace_event.hh"

namespace ccsim::resilience {
class SnapshotWriter;
class SnapshotReader;
} // namespace ccsim::resilience

namespace ccsim::obs {

/** Hot-path latency histograms for one memory channel (ctrl cycles). */
struct CtrlHists {
    Histogram readLatency; ///< Read arrive -> data return.
    Histogram queueWait;   ///< Read arrive -> issue to DRAM.
};

/**
 * Per-channel CommandListener turning the DRAM command stream into
 * simulated-time spans: one track per bank (ACT -> precharge window),
 * one per-channel refresh track. Attached only when simTrace is on.
 */
class BankSpanTracer : public ctrl::CommandListener
{
  public:
    BankSpanTracer(TraceEventSink &sink, int channel, int cpu_ratio,
                   int trfc);

    void onCommand(const dram::Command &cmd, Cycle cycle,
                   const dram::EffActTiming *eff) override;

  private:
    double usOf(Cycle c) const { return double(c) * cpuRatio_ / 4000.0; }

    TraceEventSink &sink_;
    int channel_;
    int cpuRatio_;
    int trfc_;
    /** (rank<<8|bank) -> open-ACT cycle + reduced-timing flag. */
    std::map<int, std::pair<Cycle, bool>> openAct_;
};

class Telemetry
{
  public:
    Telemetry(const ObsConfig &cfg, int channels, int cores,
              int cpu_ratio, int trfc);

    const ObsConfig &config() const { return cfg_; }
    bool enabled() const { return cfg_.enable; }
    bool histogramsOn() const { return cfg_.enable && cfg_.histograms; }
    bool simTraceOn() const { return cfg_.enable && cfg_.simTrace; }
    bool hostTraceOn() const { return cfg_.enable && cfg_.hostTrace; }
    bool seriesOn() const
    {
        return cfg_.enable && cfg_.sampleInterval > 0;
    }

    TimeSeries &series() { return series_; }
    const TimeSeries &series() const { return series_; }
    TraceEventSink &sink() { return sink_; }

    /** Null when histograms are off (hot paths test the pointer). */
    CtrlHists *ctrlHists(int ch)
    {
        return histogramsOn() ? &ctrlHists_[ch] : nullptr;
    }
    Histogram *ptwHist(int core)
    {
        return histogramsOn() ? &ptwHists_[core] : nullptr;
    }

    /** Null unless simTrace is on. */
    ctrl::CommandListener *bankTracer(int ch);

    // ----- Time-series schedule (docs/observability.md) -----

    CpuCycle nextSampleAt() const { return nextAt_; }
    bool
    sampleDue(CpuCycle now) const
    {
        return seriesOn() && now >= nextAt_;
    }
    /** Arm the first sample at now + interval (fresh runs only). */
    void scheduleFrom(CpuCycle now);
    /** Append a row at `now` (must be quiescent) and re-arm. */
    void takeSample(CpuCycle now);
    /**
     * Warm-up statistics reset: re-anchor the time-series counter
     * baselines and zero the latency histograms, so both report the
     * measured region only — exactly like every other statistic
     * (e.g. mergedReadLatency().count() == post-warm ctrl.reads).
     */
    void rebase();

    // ----- Simulated-time span helpers (pid kPidSim) -----

    static double cpuUs(CpuCycle c) { return double(c) / 4000.0; }

    /** Park span for a core that slept [upto - skipped, upto]. */
    void corePark(int core, CpuCycle skipped, CpuCycle upto);

    // ----- Merged histograms (fixed channel/core order) -----

    Histogram mergedReadLatency() const;
    Histogram mergedQueueWait() const;
    Histogram mergedPtwWalk() const;

    /** Attach/detach the process-wide host tracer to this sink. */
    void attachHost();
    void detachHost();

    /** Write configured output files (atomic) and detach the host sink. */
    void flush();

    /** Checkpoint: schedule + series rows/baselines + histograms. */
    void saveState(resilience::SnapshotWriter &w) const;
    void loadState(resilience::SnapshotReader &r);

  private:
    ObsConfig cfg_;
    int cpuRatio_;
    int trfc_;
    TimeSeries series_;
    TraceEventSink sink_;
    std::vector<CtrlHists> ctrlHists_;
    std::vector<Histogram> ptwHists_;
    std::vector<std::unique_ptr<BankSpanTracer>> tracers_;
    CpuCycle nextAt_ = kNoCycle;
};

} // namespace ccsim::obs

#endif // CCSIM_OBS_TELEMETRY_HH
