/**
 * @file
 * Telemetry-overhead microbenchmark and trace-export smoke check.
 *
 * Section 1 (timed): a 4-core calendar-kernel ChargeCache run executed
 * twice — telemetry off, then telemetry on in its production shape
 * (interval time-series + hot-path latency histograms) — best of
 * CCSIM_OBS_REPEAT (default 3) wall-clock runs each. The simulated
 * results must be bit-identical (the observation-only contract of
 * src/obs/, enforced here and in tests/test_obs.cc); the wall-clock
 * ratio is the telemetry overhead. Emits BENCH_obs.json and appends to
 * the perf trajectory when CCSIM_BENCH_TRAJECTORY names a file.
 *
 * With CCSIM_OBS_GATE=1 the binary exits non-zero when the overhead
 * ratio exceeds kMaxOverhead (1.05, the documented <= 5% budget) —
 * the CI perf-trajectory job's telemetry gate.
 *
 * Section 2 (untimed): a short run with the simulated-time trace-event
 * exporter on, written to CCSIM_OBS_TRACE_PATH (default
 * ccsim_trace.json) — CI parses it as JSON and archives it. Bank/
 * refresh span tracing is deliberately not part of the timed section:
 * it is an opt-in debugging view with per-DRAM-command cost, not part
 * of the always-on telemetry shape the 5% budget covers.
 *
 * Scale via CCSIM_OBS_INSTS (default 40000 insts/core).
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "resilience/io.hh"
#include "workloads/profiles.hh"

namespace {

using namespace ccsim;
using sim::envU64;

// Gate ceiling on the telemetry-on / telemetry-off wall-clock ratio:
// the documented <= 5% overhead budget (docs/observability.md).
constexpr double kMaxOverhead = 1.05;

sim::SimConfig
baseConfig(std::uint64_t insts)
{
    sim::SimConfig cfg = sim::SimConfig::eightCore();
    cfg.nCores = 4;
    cfg.scheme = sim::Scheme::ChargeCache;
    cfg.kernel = sim::KernelMode::Calendar;
    cfg.targetInsts = insts;
    cfg.warmupInsts = insts / 8;
    cfg.finalizeChargeCache();
    return cfg;
}

struct Timed {
    double wallSeconds = 0.0;
    sim::SystemResult result;
};

Timed
timedRun(const sim::SimConfig &cfg, int mix, std::uint64_t repeat)
{
    Timed best;
    for (std::uint64_t r = 0; r < repeat; ++r) {
        sim::System system(cfg, workloads::mixWorkloads(mix, cfg.nCores));
        auto start = std::chrono::steady_clock::now();
        sim::SystemResult res = system.run();
        auto end = std::chrono::steady_clock::now();
        double wall = std::chrono::duration<double>(end - start).count();
        if (r == 0 || wall < best.wallSeconds) {
            best.wallSeconds = wall;
            best.result = res;
        }
    }
    return best;
}

bool
sameResult(const sim::SystemResult &a, const sim::SystemResult &b)
{
    return a.cpuCycles == b.cpuCycles && a.ipc == b.ipc &&
           a.activations == b.activations &&
           a.hcracHitRate == b.hcracHitRate &&
           a.ctrl.reads == b.ctrl.reads &&
           a.ctrl.writes == b.ctrl.writes &&
           a.ctrl.acts == b.ctrl.acts &&
           a.ctrl.rowHits == b.ctrl.rowHits &&
           a.ctrl.readLatencySum == b.ctrl.readLatencySum &&
           a.llc.hits == b.llc.hits && a.llc.misses == b.llc.misses &&
           a.energy.totalNj() == b.energy.totalNj();
}

} // namespace

int
main()
{
    bench::printHeader("micro_obs: telemetry overhead + trace export",
                       "observability contract (docs/observability.md)");

    const std::uint64_t insts = envU64("CCSIM_OBS_INSTS", 40000);
    const std::uint64_t repeat =
        std::max<std::uint64_t>(1, envU64("CCSIM_OBS_REPEAT", 3));
    const int mix = 1;

    // ---- Section 1: overhead of the always-on telemetry shape ----
    sim::SimConfig off = baseConfig(insts);
    Timed t_off = timedRun(off, mix, repeat);

    sim::SimConfig on = baseConfig(insts);
    on.obs.enable = true;
    on.obs.sampleInterval = 25000;
    on.obs.histograms = true;
    Timed t_on = timedRun(on, mix, repeat);

    if (!sameResult(t_off.result, t_on.result)) {
        std::fprintf(stderr,
                     "ERROR: telemetry changed the simulated results "
                     "(observation-only contract violated)\n");
        return 1;
    }

    const double overhead = t_off.wallSeconds > 0
                                ? t_on.wallSeconds / t_off.wallSeconds
                                : 1.0;
    std::printf("telemetry off: %.4f s   on: %.4f s   ratio: %.3f\n",
                t_off.wallSeconds, t_on.wallSeconds, overhead);

    // ---- Section 2: trace-event export smoke (untimed) ----
    const char *trace_env = std::getenv("CCSIM_OBS_TRACE_PATH");
    const std::string trace_path =
        trace_env && *trace_env ? trace_env : "ccsim_trace.json";
    std::size_t trace_events = 0;
    {
        sim::SimConfig tr = baseConfig(insts / 4 ? insts / 4 : insts);
        tr.obs.enable = true;
        tr.obs.sampleInterval = 25000;
        tr.obs.simTrace = true;
        tr.obs.traceEventPath = trace_path;
        sim::System system(tr,
                           workloads::mixWorkloads(mix, tr.nCores));
        (void)system.run(); // flush() writes the trace file.
        trace_events = system.telemetry()->sink().size();
        if (trace_events == 0) {
            std::fprintf(stderr,
                         "ERROR: trace run recorded no events\n");
            return 1;
        }
    }
    std::printf("trace export: %zu events -> %s\n", trace_events,
                trace_path.c_str());

    const std::string record = bench::captureRecord([&](std::FILE *f) {
        std::fprintf(
            f,
            "{\"bench\": \"obs\", \"compiled\": 1, "
            "\"insts_per_core\": %llu, "
            "\"wall_off_s\": %.4f, \"wall_on_s\": %.4f, "
            "\"overhead_ratio\": %.4f, "
            "\"sim_cycles\": %llu, \"trace_events\": %zu}\n",
            (unsigned long long)insts, t_off.wallSeconds,
            t_on.wallSeconds, overhead,
            (unsigned long long)t_off.result.cpuCycles, trace_events);
    });
    if (!resilience::tryAtomicWriteFile("BENCH_obs.json", record)) {
        std::fprintf(stderr, "cannot write BENCH_obs.json\n");
        return 1;
    }
    std::printf("wrote BENCH_obs.json\n");

    if (const char *traj = std::getenv("CCSIM_BENCH_TRAJECTORY");
        traj && *traj) {
        if (!resilience::tryAtomicAppendFile(traj, record)) {
            std::fprintf(stderr, "cannot append to %s\n", traj);
            return 1;
        }
        std::printf("appended to %s\n", traj);
    }

    if (envU64("CCSIM_OBS_GATE", 0)) {
        if (overhead > kMaxOverhead) {
            std::fprintf(stderr,
                         "GATE FAILURE: telemetry overhead %.3f exceeds "
                         "%.3f\n",
                         overhead, kMaxOverhead);
            return 1;
        }
        std::printf("gate ok: overhead %.3f <= %.3f\n", overhead,
                    kMaxOverhead);
    }
    return 0;
}
