/**
 * @file
 * SimPoint-style sampled simulation suite (`trace` ctest label):
 * interval accounting, clustering determinism (across runs AND across
 * the three kernels — functional warming must be a pure function of
 * the record streams), config validation, warm-state injection
 * surfaces, multi-core co-phase sampling, and sampled-vs-full accuracy
 * on phase-rich analytics traces. The tight 3% acceptance gate at
 * >= 100M instructions lives in bench/abl_sampling.cpp
 * (CCSIM_SAMPLING_GATE); this suite pins the mechanisms at test scale
 * with loose tolerances.
 */

#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "chargecache/providers.hh"
#include "dram/addr.hh"
#include "mem/llc.hh"
#include "resilience/error.hh"
#include "sim/config.hh"
#include "sim/system.hh"
#include "trace/convert.hh"
#include "trace/datacenter.hh"
#include "trace/replay.hh"
#include "trace/sampling.hh"

namespace ccsim::sim {
namespace {

using resilience::ErrorKind;
using resilience::SimError;

std::string
tmpPath(const std::string &tag)
{
    return ::testing::TempDir() + "ccsim_" + tag + "_" +
           ::testing::UnitTest::GetInstance()
               ->current_test_info()
               ->name() +
           "_" + std::to_string(::getpid()) + ".cctr";
}

SimConfig
sampleConfig()
{
    SimConfig cfg;
    cfg.nCores = 1;
    cfg.channels = 1;
    cfg.scheme = Scheme::ChargeCache;
    cfg.kernel = KernelMode::Calendar;
    cfg.finalizeChargeCache();
    return cfg;
}

/**
 * Phase-rich analytics stream. Tables are sized past the 4 MB LLC so
 * scans stream to DRAM in the full run and the sampled slices alike —
 * an LLC-resident working set would make every slice pay compulsory
 * misses the full run amortizes once, which is a warmup-length
 * problem, not a clustering problem (docs/traces.md, error model).
 */
std::string
writeAnalyticsTrace(std::uint64_t records, std::uint64_t seed = 42,
                    Addr base = 0, const std::string &tag = "an")
{
    trace::AnalyticsScanConfig an;
    an.tableLines = 1 << 17;
    an.nTables = 4;
    an.dimLines = 1 << 16; // Also past the LLC: probes hit DRAM too.
    an.aggLines = 1 << 8;
    an.scanLinesPerPhase = 1 << 14;
    const std::string path = tmpPath(tag);
    trace::AnalyticsScanTrace gen(an, seed, base, 1 << 22);
    trace::writeTrace(gen, path, records);
    return path;
}

TEST(Sampling, RejectsBadConfigs)
{
    const std::string path = writeAnalyticsTrace(1000);
    trace::SamplingConfig sc;

    // Multi-core is supported now, but demands one trace per core.
    SimConfig two = sampleConfig();
    two.nCores = 2;
    EXPECT_THROW(trace::SampledSimulation(two, path, sc), SimError);
    EXPECT_THROW(trace::SampledSimulation(
                     sampleConfig(),
                     std::vector<std::string>{path, path}, sc),
                 SimError);

    trace::SamplingConfig warm = sc;
    warm.warmupInsts = warm.intervalInsts;
    EXPECT_THROW(trace::SampledSimulation(sampleConfig(), path, warm),
                 SimError);

    trace::SamplingConfig zero = sc;
    zero.intervalInsts = 0;
    EXPECT_THROW(trace::SampledSimulation(sampleConfig(), path, zero),
                 SimError);

    trace::SamplingConfig cap = sc;
    cap.maxIntervals = 1;
    EXPECT_THROW(trace::SampledSimulation(sampleConfig(), path, cap),
                 SimError);
    std::remove(path.c_str());
}

TEST(Sampling, EmptyTraceThrowsMalformedTrace)
{
    // A record-free trace is valid CCTR framing but bad *content*: the
    // structured-error contract files it under MalformedTrace, not
    // InvalidConfig (the config is fine).
    const std::string path = tmpPath("empty");
    {
        trace::TraceWriter w(path);
        w.close();
    }
    trace::SamplingConfig sc;
    trace::SampledSimulation sim(sampleConfig(), path, sc);
    try {
        sim.run();
        FAIL() << "expected SimError for an empty trace";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), ErrorKind::MalformedTrace)
            << "got " << e.what();
    }
    std::remove(path.c_str());
}

TEST(Sampling, IntervalAccountingIsExact)
{
    const std::string path = writeAnalyticsTrace(120000);
    trace::SamplingConfig sc;
    sc.intervalInsts = 50000;
    sc.warmupInsts = 10000;
    sc.maxClusters = 4;
    trace::SampledSimulation sim(sampleConfig(), path, sc);
    trace::SampledResult res = sim.run();

    ASSERT_FALSE(res.intervals.empty());
    std::uint64_t sum = 0;
    for (std::size_t i = 0; i < res.intervals.size(); ++i) {
        const auto &iv = res.intervals[i];
        ASSERT_EQ(iv.cores.size(), 1u);
        const auto &pc = iv.cores[0];
        sum += iv.insts;
        EXPECT_EQ(iv.insts, pc.insts);
        EXPECT_GE(pc.startInst, i * sc.intervalInsts);
        EXPECT_GE(pc.startRecord, pc.warmStartRecord);
        EXPECT_LE(pc.startInst - pc.warmStartInst, sc.warmupInsts + 64);
        EXPECT_GE(iv.cluster, 0);
        EXPECT_LT(iv.cluster, res.clusters);
    }
    EXPECT_EQ(sum, res.totalInsts);

    double weight = 0;
    for (const auto &s : res.slices)
        weight += s.weight;
    EXPECT_NEAR(weight, 1.0, 1e-9);
    EXPECT_LE(res.slices.size(),
              static_cast<std::size_t>(res.clusters));
    EXPECT_LT(res.detailedInsts, res.totalInsts);
    std::remove(path.c_str());
}

TEST(Sampling, BoundedRamProfileCoarsens)
{
    // A tiny maxIntervals forces the streaming profile to merge
    // adjacent intervals and double the effective length — accounting
    // must stay exact through the coarsening.
    const std::string path = writeAnalyticsTrace(120000);
    trace::SamplingConfig sc;
    sc.intervalInsts = 10000;
    sc.warmupInsts = 2000;
    sc.maxClusters = 3;
    sc.maxIntervals = 4;
    trace::SampledSimulation sim(sampleConfig(), path, sc);
    trace::SampledResult res = sim.run();

    EXPECT_LE(res.intervals.size(), static_cast<std::size_t>(4));
    std::uint64_t sum = 0;
    for (const auto &iv : res.intervals)
        sum += iv.insts;
    EXPECT_EQ(sum, res.totalInsts);
    double weight = 0;
    for (const auto &s : res.slices)
        weight += s.weight;
    EXPECT_NEAR(weight, 1.0, 1e-9);
    std::remove(path.c_str());
}

TEST(Sampling, ZeroRecordIntervalJoinsNearestRealCluster)
{
    // A record whose compute gap spans whole intervals produces
    // instruction-only (zero-record) intervals with all-zero
    // signatures. Those must never seed a k-means++ center or be
    // picked as a representative; they join the nearest real cluster.
    const std::string path = tmpPath("gap");
    {
        trace::TraceWriter w(path);
        cpu::TraceRecord r;
        for (int i = 0; i < 12000; ++i) {
            r.nonMemInsts = 3;
            r.addr = static_cast<Addr>((i * 64) % (1 << 20));
            r.isWrite = (i % 7) == 0;
            w.append(r);
        }
        r.nonMemInsts = 70000; // Spans > 3 of the 20k intervals below.
        r.addr = 1 << 20;
        r.isWrite = false;
        w.append(r);
        for (int i = 0; i < 12000; ++i) {
            r.nonMemInsts = 3;
            r.addr = static_cast<Addr>((1 << 22) + (i * 64) % (1 << 20));
            r.isWrite = (i % 5) == 0;
            w.append(r);
        }
        w.close();
    }

    trace::SamplingConfig sc;
    sc.intervalInsts = 20000;
    sc.warmupInsts = 4000;
    sc.maxClusters = 4;
    trace::SampledSimulation sim(sampleConfig(), path, sc);
    trace::SampledResult res = sim.run();

    std::size_t zero_intervals = 0;
    for (const auto &iv : res.intervals) {
        if (iv.records == 0)
            ++zero_intervals;
        EXPECT_GE(iv.cluster, 0);
        EXPECT_LT(iv.cluster, res.clusters);
    }
    EXPECT_GT(zero_intervals, 0u)
        << "trace construction should have produced a compute-only "
           "interval";
    for (const auto &s : res.slices)
        EXPECT_GT(res.intervals[s.interval].records, 0u)
            << "a zero-record interval was chosen as representative";
    std::uint64_t sum = 0;
    for (const auto &iv : res.intervals)
        sum += iv.insts;
    EXPECT_EQ(sum, res.totalInsts);
    std::remove(path.c_str());
}

TEST(Sampling, DeterministicAcrossKernelsAndRuns)
{
    // Functional warming is a pure function of the record streams, so
    // a sampled run must be bit-identical across the three kernels and
    // across repeat invocations.
    const std::string path = writeAnalyticsTrace(120000);
    trace::SamplingConfig sc;
    sc.intervalInsts = 40000;
    sc.warmupInsts = 8000;
    sc.maxClusters = 4;

    std::vector<trace::SampledResult> rs;
    for (KernelMode mode : {KernelMode::Calendar, KernelMode::EventSkip,
                            KernelMode::PerCycle,
                            KernelMode::Calendar}) {
        SimConfig cfg = sampleConfig();
        cfg.kernel = mode;
        trace::SampledSimulation sim(cfg, path, sc);
        rs.push_back(sim.run());
        EXPECT_GT(rs.back().functionalInsts, 0u);
    }
    const trace::SampledResult &ra = rs[0];
    for (std::size_t r = 1; r < rs.size(); ++r) {
        const trace::SampledResult &rb = rs[r];
        ASSERT_EQ(ra.slices.size(), rb.slices.size());
        for (std::size_t i = 0; i < ra.slices.size(); ++i) {
            EXPECT_EQ(ra.slices[i].interval, rb.slices[i].interval);
            EXPECT_EQ(ra.slices[i].weight, rb.slices[i].weight);
            EXPECT_EQ(ra.slices[i].result.cpuCycles,
                      rb.slices[i].result.cpuCycles);
            EXPECT_EQ(ra.slices[i].result.activations,
                      rb.slices[i].result.activations);
        }
        EXPECT_EQ(ra.functionalInsts, rb.functionalInsts);
        EXPECT_EQ(ra.aggregate.ipc[0], rb.aggregate.ipc[0]);
        EXPECT_EQ(ra.aggregate.hcracHitRate,
                  rb.aggregate.hcracHitRate);
    }
    std::remove(path.c_str());
}

TEST(Sampling, WarmInjectLlcTagState)
{
    SimConfig cfg = sampleConfig();
    dram::DramSpec spec = cfg.buildSpec();
    dram::AddressMapper mapper(spec.org, cfg.mapping);
    mem::Llc warm(cfg.llc, mapper, {}, nullptr);
    const Addr sets = static_cast<Addr>(warm.numSets());
    const int ways = cfg.llc.ways;

    // Cold miss installs; the second touch hits and can dirty it.
    EXPECT_FALSE(warm.warmAccess(5, false));
    EXPECT_TRUE(warm.warmAccess(5, true));

    // Fill the rest of set 5; no evictions while invalid ways remain.
    for (int w = 1; w < ways; ++w) {
        Addr victim = 123;
        EXPECT_FALSE(
            warm.warmAccess(5 + static_cast<Addr>(w) * sets, false,
                            &victim));
        EXPECT_EQ(victim, kNoAddr);
    }
    // One more line in the set evicts the LRU line (5, dirty).
    Addr victim = kNoAddr;
    EXPECT_FALSE(warm.warmAccess(5 + static_cast<Addr>(ways) * sets,
                                 false, &victim));
    EXPECT_EQ(victim, static_cast<Addr>(5));

    // Injection: a detailed-path access on the receiving LLC hits for
    // a warmed line without any memory traffic.
    mem::Llc cold(cfg.llc, mapper, {}, nullptr);
    cold.warmCopyTagsFrom(warm);
    EXPECT_EQ(cold.access(0, 5 + sets, false, 0),
              mem::Llc::Result::Hit);
    EXPECT_TRUE(cold.warmAccess(5 + static_cast<Addr>(ways) * sets,
                                false));

    // Geometry mismatches are structured errors, not corruption.
    mem::LlcConfig small_cfg = cfg.llc;
    small_cfg.sizeBytes = 1 << 20;
    mem::Llc small(small_cfg, mapper, {}, nullptr);
    EXPECT_THROW(small.warmCopyTagsFrom(warm), SimError);
}

TEST(Sampling, WarmInjectHcracAndProvider)
{
    chargecache::Hcrac::Params hp;
    chargecache::Hcrac a(hp), b(hp);
    a.insert(0x123);
    a.insert(0x456);
    b.warmCopyFrom(a);
    EXPECT_TRUE(b.lookup(0x123));
    EXPECT_TRUE(b.lookup(0x456));
    EXPECT_FALSE(b.lookup(0x789));

    chargecache::Hcrac::Params small = hp;
    small.entries = hp.entries / 2;
    chargecache::Hcrac c(small);
    EXPECT_THROW(c.warmCopyFrom(a), SimError);

    // Provider-level warm insert feeds the same table onActivate
    // probes, and warmCopyFrom carries it into a cold provider.
    SimConfig cfg = sampleConfig();
    dram::DramSpec spec = cfg.buildSpec();
    chargecache::ChargeCacheProvider warm_cc(spec.timing, cfg.cc, 1);
    dram::DramAddr da;
    da.channel = 0;
    da.rank = 0;
    da.bank = 1;
    da.row = 7;
    warm_cc.warmInsert(0, da, da.row);

    chargecache::ChargeCacheProvider cold_cc(spec.timing, cfg.cc, 1);
    cold_cc.warmCopyFrom(warm_cc);
    EXPECT_TRUE(cold_cc.onActivate(0, da, 0).reduced);
    dram::DramAddr other = da;
    other.row = 9;
    EXPECT_FALSE(cold_cc.onActivate(0, other, 0).reduced);
}

TEST(Sampling, SampledTracksFullRunAtTestScale)
{
    // ~2M instructions of phase-rich analytics. The bench holds the
    // tight 3%/10x acceptance gate at 100M+; at this scale we demand
    // the mechanism lands in the right neighbourhood: IPC within 10%,
    // HCRAC hit rate within 0.1 absolute, detailed instructions well
    // under half the trace.
    const std::string path = writeAnalyticsTrace(600000);

    trace::SamplingConfig sc;
    sc.intervalInsts = 100000;
    sc.warmupInsts = 50000;
    sc.maxClusters = 6;
    trace::SampledSimulation sampled(sampleConfig(), path, sc);
    trace::SampledResult s = sampled.run();

    SimConfig full_cfg = sampleConfig();
    full_cfg.warmupInsts = 20000;
    full_cfg.targetInsts = s.totalInsts - full_cfg.warmupInsts;
    trace::TraceReplaySource src(path);
    System full(full_cfg, std::vector<cpu::TraceSource *>{&src});
    SystemResult f = full.run();

    ASSERT_GT(f.ipc[0], 0.0);
    ASSERT_GT(s.aggregate.ipc[0], 0.0);
    double ipc_err = std::fabs(s.aggregate.ipc[0] - f.ipc[0]) / f.ipc[0];
    EXPECT_LT(ipc_err, 0.10) << "sampled " << s.aggregate.ipc[0]
                             << " vs full " << f.ipc[0];
    EXPECT_LT(std::fabs(s.aggregate.hcracHitRate - f.hcracHitRate), 0.1)
        << "sampled " << s.aggregate.hcracHitRate << " vs full "
        << f.hcracHitRate;
    EXPECT_LT(s.detailedInsts, s.totalInsts / 2);
    std::remove(path.c_str());
}

TEST(Sampling, MultiCoreSampledTracksFullRun)
{
    // Two cores with phase-shifted analytics streams: co-phase
    // clustering must keep per-core IPC and the shared HCRAC estimate
    // in the full run's neighbourhood at test scale.
    const std::string p0 = writeAnalyticsTrace(400000, 42, 0, "mc0");
    const std::string p1 =
        writeAnalyticsTrace(400000, 91, 1 << 21, "mc1");

    SimConfig cfg = sampleConfig();
    cfg.nCores = 2;
    trace::SamplingConfig sc;
    sc.intervalInsts = 100000;
    sc.warmupInsts = 20000;
    sc.maxClusters = 5;
    trace::SampledSimulation sampled(
        cfg, std::vector<std::string>{p0, p1}, sc);
    trace::SampledResult s = sampled.run();
    ASSERT_EQ(s.aggregate.ipc.size(), 2u);
    ASSERT_GT(s.slices.size(), 0u);
    for (const auto &sl : s.slices)
        ASSERT_EQ(sl.coreWeight.size(), 2u);

    SimConfig full_cfg = cfg;
    full_cfg.warmupInsts = 20000;
    full_cfg.targetInsts = s.totalInsts / 2 - full_cfg.warmupInsts;
    trace::TraceReplaySource s0(p0), s1(p1);
    System full(full_cfg, std::vector<cpu::TraceSource *>{&s0, &s1});
    SystemResult f = full.run();

    ASSERT_GT(f.ipcSum(), 0.0);
    ASSERT_GT(s.aggregate.ipcSum(), 0.0);
    double ipc_err =
        std::fabs(s.aggregate.ipcSum() - f.ipcSum()) / f.ipcSum();
    EXPECT_LT(ipc_err, 0.12) << "sampled " << s.aggregate.ipcSum()
                             << " vs full " << f.ipcSum();
    EXPECT_LT(std::fabs(s.aggregate.hcracHitRate - f.hcracHitRate), 0.1)
        << "sampled " << s.aggregate.hcracHitRate << " vs full "
        << f.hcracHitRate;
    std::remove(p0.c_str());
    std::remove(p1.c_str());
}

} // namespace
} // namespace ccsim::sim
