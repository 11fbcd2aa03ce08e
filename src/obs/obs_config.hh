/**
 * @file
 * Telemetry configuration (see docs/observability.md).
 *
 * Telemetry is always compiled in; this struct is its run-time
 * switchboard. `enable == false` (the default) reduces every hook to a
 * null-pointer test.
 *
 * The determinism contract: telemetry *reads* simulation state at
 * quiescent points, it never perturbs the schedule — simulated results
 * are bit-identical with telemetry on or off, across every kernel
 * (enforced by tests/test_obs.cc).
 */

#ifndef CCSIM_OBS_OBS_CONFIG_HH
#define CCSIM_OBS_OBS_CONFIG_HH

#include <string>

#include "common/types.hh"

namespace ccsim::obs {

struct ObsConfig {
    /** Master switch; everything below is inert when false. */
    bool enable = false;

    /**
     * Time-series sampling cadence in CPU cycles. Samples land on
     * exact multiples of this interval past the sampling origin
     * (simulation start, re-based at the warm-up boundary), on every
     * kernel: jumping kernels clamp their time hops so no sample point
     * is skipped over. 0 disables the time series.
     */
    CpuCycle sampleInterval = 100000;

    /** Latency histograms on hot paths (read service, queue wait, PTW). */
    bool histograms = true;

    /**
     * Simulated-time spans in the trace-event file (pid 1): bank
     * ACT->PRE windows, refresh, core park/wake.
     */
    bool simTrace = false;

    /** JSONL time-series output path (empty: keep in memory only). */
    std::string timeSeriesPath;

    /** Chrome trace-event JSON output path (empty: in memory only). */
    std::string traceEventPath;
};

} // namespace ccsim::obs

#endif // CCSIM_OBS_OBS_CONFIG_HH
