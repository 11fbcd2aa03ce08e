/** @file End-to-end integration tests for the full system. */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>

#include "helpers.hh"
#include "sim/config.hh"
#include "sim/experiment.hh"
#include "sim/system.hh"
#include "system_compare.hh"
#include "workloads/profiles.hh"
#include "workloads/trace_file.hh"

namespace ccsim::sim {
namespace {

using test::applyEnvParanoia;
using test::expectIdenticalCoreStats;
using test::expectIdenticalResults;

SimConfig
tinySingle(Scheme scheme)
{
    SimConfig cfg = SimConfig::singleCore();
    cfg.scheme = scheme;
    cfg.targetInsts = 20000;
    cfg.warmupInsts = 4000;
    cfg.finalizeChargeCache();
    return cfg;
}

SimConfig
tinyEight(Scheme scheme)
{
    SimConfig cfg = SimConfig::eightCore();
    cfg.scheme = scheme;
    cfg.targetInsts = 8000;
    cfg.warmupInsts = 1000;
    cfg.finalizeChargeCache();
    return cfg;
}

TEST(System, BaselineRunProducesSaneMetrics)
{
    System sys(tinySingle(Scheme::Baseline), {"tpch6"});
    SystemResult r = sys.run();
    ASSERT_EQ(r.ipc.size(), 1u);
    EXPECT_GT(r.ipc[0], 0.0);
    EXPECT_LT(r.ipc[0], 3.01);
    EXPECT_GT(r.activations, 0u);
    EXPECT_GT(r.cpuCycles, 0u);
    EXPECT_GT(r.ctrl.reads, 0u);
    EXPECT_GT(r.energy.totalNj(), 0.0);
    EXPECT_DOUBLE_EQ(r.providerHitRate, 0.0);
}

TEST(System, DeterministicAcrossRuns)
{
    System a(tinySingle(Scheme::ChargeCache), {"tpch6"});
    System b(tinySingle(Scheme::ChargeCache), {"tpch6"});
    SystemResult ra = a.run();
    SystemResult rb = b.run();
    EXPECT_DOUBLE_EQ(ra.ipc[0], rb.ipc[0]);
    EXPECT_EQ(ra.activations, rb.activations);
    EXPECT_DOUBLE_EQ(ra.hcracHitRate, rb.hcracHitRate);
}

TEST(System, ChargeCacheNeverSlowsDown)
{
    // Paper: "As ChargeCache can only reduce the latency of certain
    // accesses, it does not degrade performance."
    for (const char *w : {"tpch6", "mcf", "STREAMcopy"}) {
        System base(tinySingle(Scheme::Baseline), {w});
        System cc(tinySingle(Scheme::ChargeCache), {w});
        double ipc_base = base.run().ipc[0];
        double ipc_cc = cc.run().ipc[0];
        EXPECT_GE(ipc_cc, ipc_base * 0.999) << w;
    }
}

TEST(System, LlDramBoundsChargeCache)
{
    // LL-DRAM == ChargeCache with a 100% hit rate: upper bound.
    System cc(tinySingle(Scheme::ChargeCache), {"tpch6"});
    System ll(tinySingle(Scheme::LlDram), {"tpch6"});
    SystemResult rcc = cc.run();
    SystemResult rll = ll.run();
    EXPECT_GE(rll.ipc[0], rcc.ipc[0] * 0.999);
    EXPECT_DOUBLE_EQ(rll.providerHitRate, 1.0);
}

TEST(System, HitRatesAreFractions)
{
    System sys(tinySingle(Scheme::ChargeCache), {"apache20"});
    SystemResult r = sys.run();
    EXPECT_GE(r.hcracHitRate, 0.0);
    EXPECT_LE(r.hcracHitRate, 1.0);
    EXPECT_GE(r.providerHitRate, 0.0);
    EXPECT_LE(r.providerHitRate, 1.0);
    EXPECT_GT(r.hcracHitRate, 0.01); // Some locality must be captured.
}

TEST(System, UnlimitedTableUpperBoundsRealTable)
{
    SimConfig cfg = tinySingle(Scheme::ChargeCache);
    cfg.cc.trackUnlimited = true;
    System sys(cfg, {"apache20"});
    SystemResult r = sys.run();
    EXPECT_GE(r.unlimitedHitRate + 1e-9, r.hcracHitRate);
}

TEST(System, HmmerGeneratesAlmostNoDramTraffic)
{
    // Paper footnote 1. Warm-up must cover the (small) footprint so the
    // measured window sees only LLC hits; a tiny tail of cold misses is
    // acceptable.
    SimConfig cfg = tinySingle(Scheme::Baseline);
    cfg.warmupInsts = 20000;
    System sys(cfg, {"hmmer"});
    SystemResult r = sys.run();
    EXPECT_LT(r.rmpkc, 1.0);
    EXPECT_GT(r.ipc[0], 1.5);
}

TEST(System, RltlMonotoneInWindow)
{
    SimConfig cfg = tinySingle(Scheme::Baseline);
    cfg.ctrl.trackRltl = true;
    System sys(cfg, {"tpch6"});
    SystemResult r = sys.run();
    ASSERT_EQ(r.rltl.size(), cfg.ctrl.rltlWindowsMs.size());
    for (size_t i = 1; i < r.rltl.size(); ++i)
        EXPECT_GE(r.rltl[i] + 1e-12, r.rltl[i - 1]);
    for (double v : r.rltl) {
        EXPECT_GE(v, 0.0);
        EXPECT_LE(v, 1.0);
    }
    EXPECT_GE(r.afterRefresh8ms, 0.0);
    EXPECT_LE(r.afterRefresh8ms, 1.0);
}

TEST(System, RltlExceedsRefreshFraction)
{
    // The paper's core motivational claim (Figure 3): accesses land
    // within 8 ms of a precharge far more often than within 8 ms of a
    // refresh.
    SimConfig cfg = tinySingle(Scheme::Baseline);
    cfg.ctrl.trackRltl = true;
    System sys(cfg, {"apache20"});
    SystemResult r = sys.run();
    // Window index 4 is 8 ms in the default config.
    ASSERT_EQ(cfg.ctrl.rltlWindowsMs[4], 8.0);
    EXPECT_GT(r.rltl[4], r.afterRefresh8ms);
}

TEST(System, EightCoreRunsAllSchemes)
{
    for (Scheme s : {Scheme::Baseline, Scheme::ChargeCache,
                     Scheme::Nuat, Scheme::ChargeCacheNuat,
                     Scheme::LlDram}) {
        System sys(tinyEight(s), workloads::mixWorkloads(3));
        SystemResult r = sys.run();
        ASSERT_EQ(r.ipc.size(), 8u) << schemeName(s);
        for (double ipc : r.ipc)
            EXPECT_GT(ipc, 0.0) << schemeName(s);
        EXPECT_GT(r.activations, 0u) << schemeName(s);
    }
}

TEST(System, Ddr4PresetRuns)
{
    SimConfig cfg = tinySingle(Scheme::ChargeCache);
    cfg.dramStandard = "DDR4-2400";
    cfg.cpuRatio = 4; // ~4.8 GHz : 1.2 GHz.
    cfg.finalizeChargeCache();
    System sys(cfg, {"tpch6"});
    SystemResult r = sys.run();
    EXPECT_GT(r.ipc[0], 0.0);
    EXPECT_GT(r.activations, 0u);
}

// ---------------------------------------------------------------------
// Protocol safety: every scheme, driven by real workloads, must produce
// an oracle-clean command stream. This is the paper's implicit claim
// that ChargeCache requires no DRAM interface changes — reduced timings
// must still satisfy (their own) JEDEC-style rules.

struct SchemeWorkload {
    Scheme scheme;
    const char *workload;
};

class OracleCleanProperty
    : public ::testing::TestWithParam<SchemeWorkload>
{
};

/** One channel's device spec, as System gives each controller. */
dram::DramSpec
channelSpec(const SimConfig &cfg)
{
    dram::DramSpec spec = cfg.buildSpec();
    spec.org.channels = 1;
    return spec;
}

TEST_P(OracleCleanProperty, CommandStreamVerifies)
{
    SimConfig cfg = tinySingle(GetParam().scheme);
    cfg.targetInsts = 10000;
    cfg.warmupInsts = 0;
    System sys(cfg, {GetParam().workload});
    // No command issues before run(), so the probe sees the whole
    // stream.
    test::OracleProbe probe(channelSpec(cfg));
    sys.controller(0).addListener(&probe);
    sys.run();
    EXPECT_GT(probe.oracle.size(), 100u);
    auto v = probe.oracle.verify();
    EXPECT_TRUE(v.empty()) << (v.empty() ? "" : v[0]);
}

INSTANTIATE_TEST_SUITE_P(
    SchemesXWorkloads, OracleCleanProperty,
    ::testing::Values(
        SchemeWorkload{Scheme::Baseline, "tpch6"},
        SchemeWorkload{Scheme::Baseline, "mcf"},
        SchemeWorkload{Scheme::ChargeCache, "tpch6"},
        SchemeWorkload{Scheme::ChargeCache, "mcf"},
        SchemeWorkload{Scheme::ChargeCache, "STREAMcopy"},
        SchemeWorkload{Scheme::Nuat, "tpch6"},
        SchemeWorkload{Scheme::Nuat, "omnetpp"},
        SchemeWorkload{Scheme::ChargeCacheNuat, "tpch6"},
        SchemeWorkload{Scheme::ChargeCacheNuat, "apache20"},
        SchemeWorkload{Scheme::LlDram, "tpch6"},
        SchemeWorkload{Scheme::LlDram, "lbm"}),
    [](const auto &info) {
        std::string name = std::string(schemeName(info.param.scheme)) +
                           "_" + info.param.workload;
        std::string safe;
        for (char c : name)
            if (std::isalnum(static_cast<unsigned char>(c)) || c == '_')
                safe += c;
        return safe;
    });

TEST(System, EightCoreOracleClean)
{
    SimConfig cfg = tinyEight(Scheme::ChargeCacheNuat);
    System sys(cfg, workloads::mixWorkloads(1));
    std::vector<std::unique_ptr<test::OracleProbe>> probes;
    for (int ch = 0; ch < cfg.channels; ++ch) {
        probes.push_back(
            std::make_unique<test::OracleProbe>(channelSpec(cfg)));
        sys.controller(ch).addListener(probes.back().get());
    }
    sys.run();
    for (int ch = 0; ch < cfg.channels; ++ch) {
        auto v = probes[ch]->oracle.verify();
        EXPECT_TRUE(v.empty())
            << "channel " << ch << ": " << (v.empty() ? "" : v[0]);
    }
}

TEST(System, SharedTableAblationRuns)
{
    SimConfig cfg = tinyEight(Scheme::ChargeCache);
    cfg.cc.sharedTable = true;
    System sys(cfg, workloads::mixWorkloads(2));
    SystemResult r = sys.run();
    EXPECT_GT(r.hcracHitRate, 0.0);
}

TEST(System, NuatBinsDerivedFromCircuitModel)
{
    circuit::TimingModel model;
    dram::DramTiming t;
    auto params = makeNuatParams(model, t, {6, 16, 32, 48, 64});
    ASSERT_EQ(params.bins.size(), 5u);
    // Youngest bin fastest; bins weaken monotonically.
    for (size_t i = 1; i < params.bins.size(); ++i) {
        EXPECT_GE(params.bins[i].trcd, params.bins[i - 1].trcd);
        EXPECT_GE(params.bins[i].tras, params.bins[i - 1].tras);
        EXPECT_GT(params.bins[i].maxAgeCycles,
                  params.bins[i - 1].maxAgeCycles);
    }
    // The oldest bin must be standard timing (no benefit at 64 ms).
    EXPECT_EQ(params.bins.back().trcd, t.tRCD);
    EXPECT_EQ(params.bins.back().tras, t.tRAS);
    // The youngest bin must actually help.
    EXPECT_LT(params.bins.front().trcd, t.tRCD);
}

TEST(System, ConfigPresetsMatchTable1)
{
    SimConfig s = SimConfig::singleCore();
    EXPECT_EQ(s.nCores, 1);
    EXPECT_EQ(s.channels, 1);
    EXPECT_EQ(s.ctrl.rowPolicy, ctrl::RowPolicy::Open);
    SimConfig e = SimConfig::eightCore();
    EXPECT_EQ(e.nCores, 8);
    EXPECT_EQ(e.channels, 2);
    EXPECT_EQ(e.ctrl.rowPolicy, ctrl::RowPolicy::Closed);
    EXPECT_EQ(e.cc.table.entries, 128);
    EXPECT_EQ(e.cc.table.ways, 2);
    EXPECT_EQ(e.cc.durationCycles, 800000u); // 1 ms at 800 MHz.
    EXPECT_EQ(e.cc.trcdReduced, 7);
    EXPECT_EQ(e.cc.trasReduced, 20);
}

TEST(System, TimingModelDurationOverride)
{
    SimConfig cfg = SimConfig::singleCore();
    cfg.ccDurationMs = 16.0;
    cfg.ccUseTimingModel = true;
    cfg.finalizeChargeCache();
    EXPECT_EQ(cfg.cc.durationCycles, 12800000u);
    EXPECT_GT(cfg.cc.trcdReduced, 7); // Weaker than the 1 ms timings.
}

// ---------------------------------------------------------------------
// Kernel equivalence: the calendar-queue kernel must be a pure
// wall-clock optimisation — every statistic a figure could consume has
// to come out bit-identical to the per-cycle reference loop.

SimConfig
tinyTwoCore(Scheme scheme, KernelMode kernel)
{
    SimConfig cfg;
    cfg.nCores = 2;
    cfg.channels = 1;
    cfg.ctrl.rowPolicy = ctrl::RowPolicy::Closed;
    cfg.ctrl.trackRltl = true;
    cfg.scheme = scheme;
    cfg.cc.trackUnlimited = true;
    cfg.targetInsts = 12000;
    cfg.warmupInsts = 2000;
    cfg.kernel = kernel;
    cfg.finalizeChargeCache();
    applyEnvParanoia(cfg);
    return cfg;
}

TEST(KernelEquivalence, CalendarMatchesPerCycleAllSchemes)
{
    // The calendar-queue kernel (the default) against the seed
    // reference, for every scheme: posted events, per-bank request
    // lists and the sorted awake list must reproduce the per-cycle
    // schedule bit for bit.
    const std::vector<std::string> workloads = {"tpch6", "mcf"};
    for (Scheme s : {Scheme::Baseline, Scheme::ChargeCache, Scheme::Nuat,
                     Scheme::ChargeCacheNuat, Scheme::LlDram}) {
        System ref(tinyTwoCore(s, KernelMode::PerCycle), workloads);
        System fast(tinyTwoCore(s, KernelMode::Calendar), workloads);
        SystemResult rr = ref.run();
        SystemResult rf = fast.run();
        expectIdenticalResults(rr, rf, schemeName(s));
        expectIdenticalCoreStats(ref, fast, 2, schemeName(s));
    }
}

TEST(KernelEquivalence, OpenRowSingleCoreAllSchemes)
{
    // The paper's single-core system is open-row: cover the optimized
    // scheduler's open-row paths (no auto-precharge decisions) too.
    for (Scheme s : {Scheme::Baseline, Scheme::ChargeCache, Scheme::Nuat,
                     Scheme::ChargeCacheNuat, Scheme::LlDram}) {
        SimConfig ref_cfg = tinySingle(s);
        ref_cfg.ctrl.trackRltl = true;
        ref_cfg.cc.trackUnlimited = true;
        ref_cfg.kernel = KernelMode::PerCycle;
        SimConfig fast_cfg = ref_cfg;
        fast_cfg.kernel = KernelMode::Calendar;
        applyEnvParanoia(fast_cfg);
        System ref(ref_cfg, {"apache20"});
        System fast(fast_cfg, {"apache20"});
        SystemResult rr = ref.run();
        SystemResult rf = fast.run();
        expectIdenticalResults(rr, rf, schemeName(s));
        expectIdenticalCoreStats(ref, fast, 1, schemeName(s));
    }
}

TEST(KernelEquivalence, CalendarParanoidShadowValidates)
{
    // Calendar paranoia runs the per-cycle schedule, executes every
    // tick the calendar kernel would skip and asserts it is quiescent,
    // shadow-runs the wake queue and checks each controller's horizon:
    // an unsound skip, a missed or late wake delivery, or a horizon
    // that would have skipped an active controller tick, panics.
    // Results must still be bit-identical to the reference (it *is*
    // the per-cycle schedule).
    const std::vector<std::string> workloads = {"apache20", "STREAMcopy"};
    for (Scheme s : {Scheme::Baseline, Scheme::ChargeCache}) {
        System ref(tinyTwoCore(s, KernelMode::PerCycle), workloads);
        SimConfig cfg = tinyTwoCore(s, KernelMode::Calendar);
        cfg.kernelParanoid = true;
        System paranoid(cfg, workloads);
        SystemResult rr = ref.run();
        SystemResult rp = paranoid.run();
        expectIdenticalResults(rr, rp, schemeName(s));
    }
}

TEST(KernelEquivalence, EightCoreTwoChannel)
{
    // Multi-channel: controller clock fast-forwarding must stay in
    // lockstep across channels.
    SimConfig ref_cfg = tinyEight(Scheme::ChargeCacheNuat);
    ref_cfg.kernel = KernelMode::PerCycle;
    SimConfig fast_cfg = tinyEight(Scheme::ChargeCacheNuat);
    fast_cfg.kernel = KernelMode::Calendar;
    applyEnvParanoia(fast_cfg);
    System ref(ref_cfg, workloads::mixWorkloads(2));
    System fast(fast_cfg, workloads::mixWorkloads(2));
    expectIdenticalResults(ref.run(), fast.run(), "calendar");
}

// ---------------------------------------------------------------------
// Trace-file workloads (ROADMAP open item): finite traces end mid-run
// and wrap through TraceSource::reset(), so a parked core's wake
// pattern crosses the wrap point. The calendar park/wake invariants
// must hold and both kernels must still agree bit for bit.

class FiniteTraceFile : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        // Unique per test *and* process: ctest runs each test in its
        // own process, possibly concurrently.
        path_ = ::testing::TempDir() + "ccsim_finite_trace_" +
                ::testing::UnitTest::GetInstance()
                    ->current_test_info()
                    ->name() +
                "_" + std::to_string(::getpid()) + ".txt";
        std::ofstream out(path_);
        ASSERT_TRUE(out.good());
        // A short trace with compute gaps, strided reads over several
        // rows/banks, and occasional writes; far shorter than the
        // instruction target so every core wraps it many times and the
        // run repeatedly crosses the end-of-trace reset mid-flight.
        out << "# finite trace for kernel park/wake tests\n";
        // 256 KiB stride = 4096 lines: every access maps to the same
        // LLC set, so the 16-way set thrashes and every trace wrap
        // keeps missing to DRAM (plus dirty writebacks) — the traffic
        // the park/wake machinery has to stay sound under.
        for (int i = 0; i < 48; ++i) {
            Addr rd = 0x10000 + static_cast<Addr>(i) * 262144;
            out << (i % 7) << " " << rd;
            if (i % 5 == 0)
                out << " " << (0x20000 + static_cast<Addr>(i) * 262144);
            out << "\n";
        }
    }

    void TearDown() override { std::remove(path_.c_str()); }

    SimConfig
    config(KernelMode kernel) const
    {
        SimConfig cfg;
        cfg.nCores = 2;
        cfg.channels = 1;
        cfg.ctrl.rowPolicy = ctrl::RowPolicy::Closed;
        cfg.targetInsts = 9000;
        cfg.warmupInsts = 1500;
        cfg.kernel = kernel;
        cfg.finalizeChargeCache();
        return cfg;
    }

    SystemResult
    runWith(SimConfig cfg)
    {
        workloads::RamulatorTraceReader t0(path_);
        workloads::RamulatorTraceReader t1(path_);
        System sys(cfg, std::vector<cpu::TraceSource *>{&t0, &t1});
        return sys.run();
    }

    std::string path_;
};

TEST_F(FiniteTraceFile, AllKernelsAgree)
{
    SystemResult ref = runWith(config(KernelMode::PerCycle));
    EXPECT_GT(ref.activations, 0u);
    SimConfig cfg = config(KernelMode::Calendar);
    applyEnvParanoia(cfg);
    expectIdenticalResults(ref, runWith(cfg), "calendar");
}

TEST_F(FiniteTraceFile, CalendarParanoidParkWakeInvariantsHold)
{
    // Every park, wake and cached-horizon decision the calendar kernel
    // would take over the wrapping trace is executed-and-asserted.
    SimConfig cfg = config(KernelMode::Calendar);
    cfg.kernelParanoid = true;
    SystemResult r = runWith(cfg);
    SystemResult ref = runWith(config(KernelMode::PerCycle));
    expectIdenticalResults(ref, r, "paranoid calendar on finite trace");
}

TEST_F(FiniteTraceFile, ChargeCacheSchemeOnTraces)
{
    // The provider stack on trace-driven workloads, calendar kernel.
    SimConfig cfg = config(KernelMode::Calendar);
    cfg.scheme = Scheme::ChargeCache;
    cfg.finalizeChargeCache();
    applyEnvParanoia(cfg);
    SystemResult r = runWith(cfg);
    SimConfig ref_cfg = config(KernelMode::PerCycle);
    ref_cfg.scheme = Scheme::ChargeCache;
    ref_cfg.finalizeChargeCache();
    SystemResult ref = runWith(ref_cfg);
    expectIdenticalResults(ref, r, "ChargeCache on finite trace");
    EXPECT_GE(r.hcracHitRate, 0.0);
    EXPECT_LE(r.hcracHitRate, 1.0);
}

TEST(Experiment, WeightedSpeedupOfIdenticalIpcIsCoreCount)
{
    // With IPCshared == IPCalone for every app, WS == nCores.
    std::vector<std::string> mix = {"tpch6", "tpch6"};
    const double alone = runSingle("tpch6", Scheme::Baseline).ipc.at(0);
    double ws = weightedSpeedup(mix, {alone, alone}, {{"tpch6", alone}});
    EXPECT_NEAR(ws, 2.0, 1e-9);
}

TEST(Experiment, SweepMatchesSerialRuns)
{
    // Whole runs are the unit of parallelism: concurrent Systems share
    // no mutable state, so every sweep point must come out bit-identical
    // to the same configuration run alone.
    struct Point {
        Scheme scheme;
        int cores;
        bool vm;
    };
    std::vector<Point> points;
    for (Scheme s : {Scheme::Baseline, Scheme::ChargeCache}) {
        points.push_back({s, 1, false});
        points.push_back({s, 4, false});
        points.push_back({s, 4, true});
    }
    auto run_point = [&points](std::size_t i) {
        const Point &p = points[i];
        SimConfig cfg = p.cores == 1 ? tinySingle(p.scheme)
                                     : tinyEight(p.scheme);
        cfg.nCores = p.cores;
        cfg.vm.enable = p.vm;
        std::vector<std::string> w =
            p.cores == 1 ? std::vector<std::string>{"tpch6"}
                         : workloads::mixWorkloads(2, p.cores);
        System sys(cfg, w);
        return sys.run();
    };
    std::vector<SystemResult> swept = runSweep(points.size(), run_point, 3);
    ASSERT_EQ(swept.size(), points.size());
    for (std::size_t i = 0; i < points.size(); ++i) {
        std::string label = std::string(schemeName(points[i].scheme)) +
                            "/" + std::to_string(points[i].cores) + "c" +
                            (points[i].vm ? "/vm" : "");
        expectIdenticalResults(run_point(i), swept[i], label.c_str());
    }
}

} // namespace
} // namespace ccsim::sim
