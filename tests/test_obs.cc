/**
 * @file
 * Observability contract tests (src/obs/, docs/observability.md):
 *
 *  - telemetry on/off bit-identity: enabling the time series, the
 *    latency histograms and the trace-event exporters changes no
 *    SystemResult field, on every kernel;
 *  - time-series determinism: the sampled rows are bit-identical
 *    across {PerCycle, EventSkip, Calendar};
 *  - checkpoint/resume continuity: a run killed at a checkpoint and
 *    resumed in a fresh System (same or different kernel) reproduces
 *    the uninterrupted series with no gap and no duplicate;
 *  - histogram accounting: the merged read-latency histogram agrees
 *    exactly with the controller statistics of the measured region;
 *  - trace-event export: the emitted JSON has the Chrome trace shape.
 *
 * Every suite is named Obs* so CMake's obs_suite can select them.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>
#include <vector>

#include "obs/telemetry.hh"
#include "resilience/error.hh"
#include "sim/system.hh"
#include "system_compare.hh"
#include "workloads/profiles.hh"

namespace ccsim::sim {
namespace {

using resilience::ErrorKind;
using resilience::SimError;
using test::applyEnvParanoia;
using test::expectIdenticalResults;

constexpr CpuCycle kSampleInterval = 5000;

SimConfig
obsConfig(bool telemetry, bool vm = false)
{
    SimConfig cfg;
    cfg.nCores = 4;
    cfg.channels = 2;
    cfg.ctrl.rowPolicy = ctrl::RowPolicy::Closed;
    cfg.scheme = Scheme::ChargeCache;
    cfg.targetInsts = 6000;
    cfg.warmupInsts = 1000;
    cfg.vm.enable = vm;
    if (telemetry) {
        cfg.obs.enable = true;
        cfg.obs.sampleInterval = kSampleInterval;
        cfg.obs.histograms = true;
        cfg.obs.simTrace = true; // Bank/refresh/park span tracing too.
    }
    cfg.finalizeChargeCache();
    return cfg;
}

std::vector<std::string>
obsWorkloads(int cores)
{
    return workloads::mixWorkloads(3, cores);
}

/** Flatten a time series into comparable (cycle, values...) rows. */
struct SeriesDump {
    std::vector<std::string> columns;
    std::vector<CpuCycle> cycles;
    std::vector<std::vector<double>> values;
};

SeriesDump
dumpSeries(System &sys)
{
    SeriesDump out;
    obs::Telemetry *t = sys.telemetry();
    if (!t)
        return out;
    const obs::TimeSeries &ts = t->series();
    for (std::size_t c = 0; c < ts.columns(); ++c)
        out.columns.push_back(ts.columnName(c));
    for (std::size_t r = 0; r < ts.rows(); ++r) {
        out.cycles.push_back(ts.rowCycle(r));
        std::vector<double> row;
        for (std::size_t c = 0; c < ts.columns(); ++c)
            row.push_back(ts.value(r, c));
        out.values.push_back(std::move(row));
    }
    return out;
}

void
expectIdenticalSeries(const SeriesDump &a, const SeriesDump &b,
                      const char *label)
{
    SCOPED_TRACE(label);
    ASSERT_EQ(a.columns, b.columns);
    ASSERT_EQ(a.cycles.size(), b.cycles.size());
    for (std::size_t r = 0; r < a.cycles.size(); ++r) {
        EXPECT_EQ(a.cycles[r], b.cycles[r]) << "row " << r;
        for (std::size_t c = 0; c < a.columns.size(); ++c)
            EXPECT_EQ(a.values[r][c], b.values[r][c])
                << "row " << r << " col " << a.columns[c];
    }
}

// ---------------------------------------------------------------------
// On/off bit-identity across every kernel.

TEST(ObsEquivalence, OnOffBitIdenticalAllKernels)
{
    for (bool vm : {false, true}) {
        const auto w = obsWorkloads(4);
        for (KernelMode k : {KernelMode::PerCycle, KernelMode::EventSkip,
                             KernelMode::Calendar}) {
            SimConfig off = obsConfig(false, vm);
            off.kernel = k;
            applyEnvParanoia(off);
            System off_sys(off, w);
            SystemResult off_res = off_sys.run();

            SimConfig on = obsConfig(true, vm);
            on.kernel = k;
            applyEnvParanoia(on);
            System on_sys(on, w);
            SystemResult on_res = on_sys.run();

            std::string label = std::string("obs-on-vs-off/") +
                                kernelModeName(k) +
                                (vm ? "/vm" : "/novm");
            expectIdenticalResults(off_res, on_res, label.c_str());
            ASSERT_NE(on_sys.telemetry(), nullptr);
            EXPECT_GT(on_sys.telemetry()->series().rows(), 0u);
        }
    }
}

// ---------------------------------------------------------------------
// The time series itself is deterministic across execution strategies.

TEST(ObsSeries, IdenticalAcrossKernels)
{
    const auto w = obsWorkloads(4);

    SimConfig ref_cfg = obsConfig(true);
    ref_cfg.kernel = KernelMode::PerCycle;
    System ref_sys(ref_cfg, w);
    ref_sys.run();
    SeriesDump ref = dumpSeries(ref_sys);
    ASSERT_GT(ref.cycles.size(), 2u)
        << "run too short to exercise the sampler";

    // Sample cycles land exactly on the configured grid.
    for (std::size_t r = 0; r < ref.cycles.size(); ++r)
        EXPECT_EQ(ref.cycles[r] % kSampleInterval, 0u) << "row " << r;

    for (KernelMode k : {KernelMode::EventSkip, KernelMode::Calendar}) {
        SimConfig cfg = obsConfig(true);
        cfg.kernel = k;
        applyEnvParanoia(cfg);
        System sys(cfg, w);
        sys.run();
        SeriesDump got = dumpSeries(sys);
        expectIdenticalSeries(ref, got, kernelModeName(k));
    }
}

// ---------------------------------------------------------------------
// Checkpoint/resume: the series continues with no gap, no duplicate.

std::vector<std::uint8_t>
killAt(const SimConfig &cfg, const std::vector<std::string> &w,
       CpuCycle at)
{
    System sys(cfg, w);
    std::vector<std::uint8_t> snap;
    sys.setCheckpointHook(at, 0, [&](System &s) {
        snap = s.serializeSnapshot();
        return false;
    });
    try {
        sys.run();
        ADD_FAILURE() << "run completed before checkpoint cycle " << at;
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), ErrorKind::Interrupted);
    }
    EXPECT_FALSE(snap.empty());
    return snap;
}

TEST(ObsSeries, SurvivesCheckpointResume)
{
    const auto w = obsWorkloads(4);
    SimConfig cfg = obsConfig(true);
    cfg.kernel = KernelMode::Calendar;

    System ref_sys(cfg, w);
    SystemResult ref = ref_sys.run();
    SeriesDump ref_series = dumpSeries(ref_sys);
    ASSERT_GT(ref_series.cycles.size(), 3u);

    // Kill exactly ON a sample cycle: the snapshot must already carry
    // that row (samples fire before same-cycle checkpoints), so the
    // resumed run neither re-samples it nor skips the next one.
    const CpuCycle kill_cycles[] = {3 * kSampleInterval,
                                    3 * kSampleInterval + 1234};
    for (CpuCycle at : kill_cycles) {
        std::vector<std::uint8_t> snap = killAt(cfg, w, at);

        for (KernelMode k : {KernelMode::Calendar, KernelMode::PerCycle}) {
            SimConfig rcfg = cfg;
            rcfg.kernel = k;
            System sys(rcfg, w);
            sys.restoreSnapshot(snap);
            SystemResult res = sys.run();
            std::string label = std::string("resume-") + kernelModeName(k) +
                                "@" + std::to_string(at);
            expectIdenticalResults(ref, res, label.c_str());
            expectIdenticalSeries(ref_series, dumpSeries(sys),
                                  label.c_str());
        }
    }
}

TEST(ObsSeries, ResumeEnableMismatchRefused)
{
    const auto w = obsWorkloads(4);
    SimConfig cfg = obsConfig(true);
    cfg.kernel = KernelMode::Calendar;
    std::vector<std::uint8_t> snap = killAt(cfg, w, 2 * kSampleInterval);

    SimConfig off = obsConfig(false);
    off.kernel = KernelMode::Calendar;
    System sys(off, w);
    EXPECT_THROW(sys.restoreSnapshot(snap), SimError);
}

// ---------------------------------------------------------------------
// Histogram accounting.

TEST(ObsHistogram, ReadLatencyMatchesCtrlStats)
{
    const auto w = obsWorkloads(4);
    SimConfig cfg = obsConfig(true, /*vm=*/true);
    cfg.kernel = KernelMode::Calendar;
    System sys(cfg, w);
    SystemResult res = sys.run();
    obs::Telemetry *t = sys.telemetry();
    ASSERT_NE(t, nullptr);

    // The delivery hook fires exactly where ++ctrl.reads and
    // readLatencySum accrue, and rebase() zeroes the histograms at the
    // same warm-up boundary — so they must agree exactly.
    Histogram read_lat = t->mergedReadLatency();
    EXPECT_EQ(read_lat.count(), res.ctrl.reads);
    EXPECT_EQ(read_lat.sum(), res.ctrl.readLatencySum);

    // Queue-wait samples at issue time; every read issues at most once.
    EXPECT_GT(t->mergedQueueWait().count(), 0u);

    // VM is on, so page walks completed and were timed.
    EXPECT_GT(t->mergedPtwWalk().count(), 0u);
}

TEST(ObsHistogram, DisabledHooksReturnNull)
{
    const auto w = obsWorkloads(4);
    SimConfig cfg = obsConfig(true);
    cfg.obs.histograms = false;
    System sys(cfg, w);
    ASSERT_NE(sys.telemetry(), nullptr);
    EXPECT_EQ(sys.telemetry()->ctrlHists(0), nullptr);
    EXPECT_EQ(sys.telemetry()->ptwHist(0), nullptr);
    EXPECT_EQ(sys.telemetry()->mergedReadLatency().count(), 0u);
}

// ---------------------------------------------------------------------
// Trace-event export shape.

TEST(ObsTrace, JsonHasChromeTraceShape)
{
    const auto w = obsWorkloads(4);
    SimConfig cfg = obsConfig(true);
    cfg.kernel = KernelMode::Calendar;
    System sys(cfg, w);
    sys.run();
    obs::Telemetry *t = sys.telemetry();
    ASSERT_NE(t, nullptr);
    ASSERT_GT(t->sink().size(), 0u);

    const std::string json = t->sink().toJson();
    ASSERT_FALSE(json.empty());
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '\n');
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"displayTimeUnit\""), std::string::npos);
    // Bank spans and park spans made it in.
    EXPECT_NE(json.find("\"row\""), std::string::npos);
    EXPECT_NE(json.find("\"refresh\""), std::string::npos);
    // Process-name metadata for both synthetic pids.
    EXPECT_NE(json.find("simulated time"), std::string::npos);
    EXPECT_NE(json.find("host wall-clock"), std::string::npos);

    // Braces and brackets balance (cheap structural validity check;
    // CI additionally runs the file through a real JSON parser).
    long depth = 0;
    bool in_str = false;
    for (std::size_t i = 0; i < json.size(); ++i) {
        char c = json[i];
        if (in_str) {
            if (c == '\\')
                ++i;
            else if (c == '"')
                in_str = false;
            continue;
        }
        if (c == '"')
            in_str = true;
        else if (c == '{' || c == '[')
            ++depth;
        else if (c == '}' || c == ']')
            --depth;
        ASSERT_GE(depth, 0);
    }
    EXPECT_EQ(depth, 0);
    EXPECT_FALSE(in_str);
}

TEST(ObsTrace, EventCapCountsDrops)
{
    obs::TraceEventSink sink;
    sink.setLimit(2);
    sink.complete(obs::kPidSim, 0, "a", "t", 0.0, 1.0);
    sink.instant(obs::kPidSim, 0, "b", "t", 2.0);
    sink.complete(obs::kPidSim, 0, "c", "t", 3.0, 1.0);
    EXPECT_EQ(sink.size(), 2u);
    EXPECT_EQ(sink.droppedCount(), 1u);
    const std::string json = sink.toJson();
    EXPECT_NE(json.find("\"droppedEvents\":1"), std::string::npos);
}

} // namespace
} // namespace ccsim::sim
