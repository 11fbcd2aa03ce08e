/**
 * @file
 * SimPoint-style sampled simulation suite (`trace` ctest label):
 * interval accounting, clustering determinism (across runs AND across
 * both kernels — functional warming must be a pure function of
 * the record streams), config validation, warm-state injection
 * surfaces, the profile pass's decode pool (same intervals at one
 * worker and four, the same errors as a sequential read), the slice
 * pool (same results at one worker and four, errors surfaced,
 * telemetry files kept serial), multi-core co-phase sampling, and
 * sampled-vs-full accuracy on phase-rich analytics traces. The tight
 * 3% acceptance gate at >= 100M instructions lives in
 * bench/abl_sampling.cpp
 * (CCSIM_SAMPLING_GATE); this suite pins the mechanisms at test scale
 * with loose tolerances.
 */

#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <functional>
#include <iterator>
#include <string>
#include <utility>
#include <vector>

#include "chargecache/providers.hh"
#include "common/random.hh"
#include "dram/addr.hh"
#include "helpers.hh"
#include "mem/llc.hh"
#include "resilience/error.hh"
#include "resilience/io.hh"
#include "resilience/serial.hh"
#include "sim/config.hh"
#include "sim/system.hh"
#include "trace/convert.hh"
#include "trace/datacenter.hh"
#include "trace/replay.hh"
#include "trace/sampling.hh"
#include "system_compare.hh"

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
                    Addr base = 0, const std::string &tag = "an",
                    std::uint32_t records_per_block = 16384)
{
    trace::AnalyticsScanConfig an;
    an.tableLines = 1 << 17;
    an.nTables = 4;
    an.dimLines = 1 << 16; // Also past the LLC: probes hit DRAM too.
    an.aggLines = 1 << 8;
    an.scanLinesPerPhase = 1 << 14;
    const std::string path = tmpPath(tag);
    trace::AnalyticsScanTrace gen(an, seed, base, 1 << 22);
    trace::writeTrace(gen, path, records, records_per_block);
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
    // a sampled run must be bit-identical across both kernels and
    // across repeat invocations.
    const std::string path = writeAnalyticsTrace(120000);
    trace::SamplingConfig sc;
    sc.intervalInsts = 40000;
    sc.warmupInsts = 8000;
    sc.maxClusters = 4;

    std::vector<trace::SampledResult> rs;
    for (KernelMode mode : {KernelMode::Calendar, KernelMode::PerCycle,
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

/** Every field of two sampled results: interval by interval, then
    slice by slice. */
void
expectIdenticalSampled(const trace::SampledResult &a,
                       const trace::SampledResult &b)
{
    ASSERT_EQ(a.intervals.size(), b.intervals.size());
    for (std::size_t i = 0; i < a.intervals.size(); ++i) {
        SCOPED_TRACE("interval " + std::to_string(i));
        const trace::IntervalInfo &ia = a.intervals[i], &ib = b.intervals[i];
        ASSERT_EQ(ia.cores.size(), ib.cores.size());
        for (std::size_t c = 0; c < ia.cores.size(); ++c) {
            const auto &ca = ia.cores[c], &cb = ib.cores[c];
            EXPECT_EQ(ca.startRecord, cb.startRecord) << "core " << c;
            EXPECT_EQ(ca.startInst, cb.startInst) << "core " << c;
            EXPECT_EQ(ca.warmStartRecord, cb.warmStartRecord) << "core " << c;
            EXPECT_EQ(ca.warmStartInst, cb.warmStartInst) << "core " << c;
            EXPECT_EQ(ca.insts, cb.insts) << "core " << c;
            EXPECT_EQ(ca.records, cb.records) << "core " << c;
        }
        EXPECT_EQ(ia.insts, ib.insts);
        EXPECT_EQ(ia.records, ib.records);
        EXPECT_EQ(ia.signature, ib.signature);
        EXPECT_EQ(ia.cluster, ib.cluster);
    }
    ASSERT_EQ(a.slices.size(), b.slices.size());
    for (std::size_t i = 0; i < a.slices.size(); ++i) {
        const trace::SampledSlice &sa = a.slices[i], &sb = b.slices[i];
        EXPECT_EQ(sa.interval, sb.interval);
        EXPECT_EQ(sa.weight, sb.weight);
        EXPECT_EQ(sa.coreWeight, sb.coreWeight);
        EXPECT_EQ(sa.measuredInsts, sb.measuredInsts);
        const std::string label = "slice " + std::to_string(i);
        test::expectIdenticalResults(sa.result, sb.result, label.c_str());
    }
    test::expectIdenticalResults(a.aggregate, b.aggregate, "aggregate");
    EXPECT_EQ(a.functionalInsts, b.functionalInsts);
    EXPECT_EQ(a.detailedInsts, b.detailedInsts);
    EXPECT_EQ(a.totalInsts, b.totalInsts);
    EXPECT_EQ(a.clusters, b.clusters);
}

trace::SampledResult
runWithThreads(const char *threads, const SimConfig &cfg,
               const std::vector<std::string> &paths,
               const trace::SamplingConfig &sc)
{
    test::ScopedEnv env("CCSIM_THREADS", threads);
    return trace::SampledSimulation(cfg, paths, sc).run();
}

TEST(Sampling, SlicePoolMatchesOneWorkerRun)
{
    // The profile pass decodes on a pool and folds in stream order, and
    // slices run on a pool and fold back in cluster order, so one
    // worker and four give the same result, field for field. The
    // 64-record-block leg gives the profile window thousands of jobs,
    // so its buffers are reused many times over. The telemetry leg
    // writes no files, so it keeps its four workers, each slice
    // recording histograms and trace spans into its own System's sinks.
    const std::string p0 = writeAnalyticsTrace(160000, 42, 0, "pool0");
    const std::string p1 =
        writeAnalyticsTrace(160000, 91, 1 << 21, "pool1");
    const std::string s0 =
        writeAnalyticsTrace(160000, 42, 0, "small0", 64);
    const std::string s1 =
        writeAnalyticsTrace(160000, 91, 1 << 21, "small1", 64);
    trace::SamplingConfig sc;
    sc.intervalInsts = 40000;
    sc.warmupInsts = 8000;
    sc.functionalWarmInsts = 40000;
    sc.maxClusters = 4;

    SimConfig single = sampleConfig();
    SimConfig multi = sampleConfig();
    multi.nCores = 2;
    SimConfig traced = multi;
    traced.obs.enable = true;
    traced.obs.histograms = true;
    traced.obs.simTrace = true;
    const std::vector<std::string> one{p0}, two{p0, p1}, small{s0, s1};
    for (const auto &[cfg, paths] :
         {std::pair{single, one}, std::pair{multi, two},
          std::pair{multi, small}, std::pair{traced, two}}) {
        SCOPED_TRACE(std::to_string(cfg.nCores) + " core(s), " +
                     paths[0] +
                     (cfg.obs.enable ? ", telemetry on" : ""));
        const trace::SampledResult inl =
            runWithThreads("1", cfg, paths, sc);
        const trace::SampledResult pooled =
            runWithThreads("4", cfg, paths, sc);
        ASSERT_GE(inl.slices.size(), 2u) << "the pool needs slices";
        EXPECT_GT(inl.functionalInsts, 0u);
        expectIdenticalSampled(inl, pooled);
    }
    // Block size does not change the stream, so it changes no result.
    expectIdenticalSampled(runWithThreads("4", multi, two, sc),
                           runWithThreads("4", multi, small, sc));
    for (const std::string &p : {p0, p1, s0, s1})
        std::remove(p.c_str());
}

/** Kind and message of the SimError `run` throws. */
std::pair<ErrorKind, std::string>
errorOf(const std::function<void()> &run)
{
    try {
        run();
    } catch (const SimError &e) {
        return {e.kind(), e.what()};
    }
    ADD_FAILURE() << "expected a SimError";
    return {ErrorKind::InvalidConfig, ""};
}

/** The error a sequential read of `path` to its end raises. */
std::pair<ErrorKind, std::string>
drainError(const std::string &path)
{
    return errorOf([&] {
        trace::TraceReader rd(path);
        cpu::TraceRecord r;
        while (rd.next(r)) {
        }
    });
}

/** The error a sampled run over `paths` raises at `threads` workers. */
std::pair<ErrorKind, std::string>
sampledError(const std::vector<std::string> &paths, const char *threads)
{
    SimConfig cfg = sampleConfig();
    cfg.nCores = static_cast<int>(paths.size());
    trace::SamplingConfig sc;
    sc.intervalInsts = 2000;
    sc.warmupInsts = 400;
    sc.maxClusters = 2;
    return errorOf([&] { runWithThreads(threads, cfg, paths, sc); });
}

/** File offset of block `block`'s payload in CCTR `bytes`. */
std::size_t
payloadAt(const std::vector<std::uint8_t> &bytes, int block)
{
    std::size_t at = 16; // File header.
    for (int b = 0; b < block; ++b) {
        std::uint32_t payload;
        std::memcpy(&payload, bytes.data() + at + 5, 4);
        at += 9 + payload + 4; // Header, payload, CRC.
    }
    return at + 9;
}

TEST(Sampling, ProfileErrorsMatchASequentialRead)
{
    // The profile pass decodes blocks ahead on a pool, but a damaged
    // trace must fail it with the kind and message a sequential read
    // raises at the first bad block, at any worker count. Ten blocks:
    // the decode window reaches the end of the file before the fold
    // reaches block 3.
    const std::string path = writeAnalyticsTrace(640, 42, 0, "dmg", 64);
    const std::vector<std::uint8_t> good = resilience::readFileBytes(path);
    auto flipBlock3 = [](std::vector<std::uint8_t> &b) {
        b[payloadAt(b, 3) + 5] ^= 0x10;
    };
    const std::pair<const char *,
                    std::function<void(std::vector<std::uint8_t> &)>>
        damages[] = {
            {"payload bit flip in block 3", flipBlock3},
            {"cut mid-block",
             [](auto &b) { b.resize(payloadAt(b, 6) + 7); }},
            {"end block dropped",
             [](auto &b) { b.resize(b.size() - 29); }},
            {"bytes after the end block",
             [](auto &b) { b.insert(b.end(), {0xab, 0xcd}); }},
            {"undecodable record under a valid CRC",
             [](auto &b) {
                 const std::size_t at = payloadAt(b, 3);
                 std::uint32_t payload;
                 std::memcpy(&payload, b.data() + at - 4, 4);
                 b[at + payload - 1] |= 0x80; // The varint runs on.
                 const std::uint32_t crc =
                     resilience::crc32(b.data() + at - 9, 9 + payload);
                 std::memcpy(b.data() + at + payload, &crc, 4);
             }},
            {"bit flip in block 3, then a cut near the end",
             [&](auto &b) {
                 flipBlock3(b);
                 b.resize(b.size() - 40);
             }},
        };
    for (const auto &[name, damage] : damages) {
        SCOPED_TRACE(name);
        std::vector<std::uint8_t> bytes = good;
        damage(bytes);
        resilience::atomicWriteFile(path, bytes);
        const auto expected = drainError(path);
        for (const char *threads : {"1", "4"}) {
            const auto got = sampledError({path}, threads);
            EXPECT_EQ(got.first, expected.first) << threads << " workers";
            EXPECT_EQ(got.second, expected.second) << threads << " workers";
        }
    }
    // A truncated tail never pre-empts the corrupt block before it.
    EXPECT_EQ(drainError(path).first, ErrorKind::MalformedTrace);
    std::remove(path.c_str());
}

TEST(Sampling, ProfileRaisesTheErrorTheLockstepFoldReachesFirst)
{
    // Core 0's trace is corrupt late and core 1's early. The lockstep
    // fold reaches core 1's bad block first, so that is the error, even
    // though core 0's comes first in core order.
    const std::string p0 = writeAnalyticsTrace(3000, 42, 0, "late", 64);
    const std::string p1 =
        writeAnalyticsTrace(3000, 91, 1 << 21, "early", 64);
    for (const auto &[path, block] : {std::pair{p0, 40}, std::pair{p1, 3}}) {
        std::vector<std::uint8_t> bytes = resilience::readFileBytes(path);
        bytes[payloadAt(bytes, block) + 5] ^= 0x10;
        resilience::atomicWriteFile(path, bytes);
    }
    const auto expected = drainError(p1);
    for (const char *threads : {"1", "4"}) {
        const auto got = sampledError({p0, p1}, threads);
        EXPECT_EQ(got.first, ErrorKind::MalformedTrace) << threads;
        EXPECT_EQ(got.second, expected.second) << threads;
    }
    std::remove(p0.c_str());
    std::remove(p1.c_str());
}

TEST(Sampling, GarbageFuzzCorpusFailsTheProfilePass)
{
    // The trace-format fuzz corpus (random bytes behind a valid header)
    // through a whole sampled run: every sample is rejected with a
    // structured trace error, never simulated.
    const std::string path = tmpPath("fuzz");
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        std::vector<std::uint8_t> bytes(16);
        const std::uint32_t head[3] = {trace::kTraceMagic,
                                       trace::kTraceVersion, 0};
        std::memcpy(bytes.data(), head, 12);
        const std::uint32_t crc = resilience::crc32(bytes.data(), 12);
        std::memcpy(bytes.data() + 12, &crc, 4);
        Rng rng(seed);
        const std::size_t n = 1 + rng.below(400);
        for (std::size_t i = 0; i < n; ++i)
            bytes.push_back(static_cast<std::uint8_t>(rng.next64()));
        resilience::atomicWriteFile(path, bytes);
        const ErrorKind kind = sampledError({path}, "4").first;
        EXPECT_TRUE(kind == ErrorKind::MalformedTrace ||
                    kind == ErrorKind::TraceIo)
            << "seed " << seed;
    }
    std::remove(path.c_str());
}

TEST(Sampling, SlicePoolSurfacesSliceErrors)
{
    // Every slice's System build fails (the LLC's 65536 lines do not
    // divide into 3 ways, which only the LLC checks); the pool must hand
    // back the structured error, not hang or terminate.
    const std::string path = writeAnalyticsTrace(120000);
    trace::SamplingConfig sc;
    sc.intervalInsts = 40000;
    sc.warmupInsts = 8000;
    sc.maxClusters = 4;
    SimConfig cfg = sampleConfig();
    cfg.llc.ways = 3;
    test::ScopedEnv env("CCSIM_THREADS", "4");
    try {
        trace::SampledSimulation(cfg, path, sc).run();
        FAIL() << "expected InvalidConfig";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), ErrorKind::InvalidConfig);
    }
    std::remove(path.c_str());
}

TEST(Sampling, SlicePoolKeepsTelemetryFilesSerial)
{
    // Every slice writes the configured time-series path, so such runs
    // stay serial: the file is the same at one thread and at four.
    const std::string path = writeAnalyticsTrace(120000);
    const std::string series = tmpPath("series") + ".jsonl";
    trace::SamplingConfig sc;
    sc.intervalInsts = 40000;
    sc.warmupInsts = 8000;
    sc.maxClusters = 4;
    SimConfig cfg = sampleConfig();
    cfg.obs.enable = true;
    cfg.obs.sampleInterval = 5000;
    cfg.obs.timeSeriesPath = series;
    auto fileBytes = [&](const char *threads) {
        std::remove(series.c_str());
        const trace::SampledResult r =
            runWithThreads(threads, cfg, {path}, sc);
        EXPECT_GE(r.slices.size(), 2u);
        std::ifstream in(series, std::ios::binary);
        return std::string(std::istreambuf_iterator<char>(in), {});
    };
    const std::string inl = fileBytes("1");
    EXPECT_FALSE(inl.empty());
    EXPECT_EQ(inl, fileBytes("4"));
    std::remove(series.c_str());
    std::remove(path.c_str());
}

TEST(Sampling, WarmInjectLlcTagState)
{
    // Functional warming touches a slice System's own fresh LLC in
    // place: no second cache, no copy.
    SimConfig cfg = sampleConfig();
    System sys(cfg, std::vector<std::string>{"mcf"});
    mem::Llc &llc = sys.llc();
    const Addr sets = static_cast<Addr>(llc.numSets());
    const int ways = cfg.llc.ways;

    // Cold miss installs; the second touch hits and can dirty it.
    EXPECT_FALSE(llc.warmAccess(5, false));
    EXPECT_TRUE(llc.warmAccess(5, true));

    // Fill the rest of set 5; no evictions while invalid ways remain.
    for (int w = 1; w < ways; ++w) {
        Addr victim = 123;
        EXPECT_FALSE(
            llc.warmAccess(5 + static_cast<Addr>(w) * sets, false,
                           &victim));
        EXPECT_EQ(victim, kNoAddr);
    }
    // One more line in the set evicts the LRU line (5, dirty).
    Addr victim = kNoAddr;
    EXPECT_FALSE(llc.warmAccess(5 + static_cast<Addr>(ways) * sets,
                                false, &victim));
    EXPECT_EQ(victim, static_cast<Addr>(5));

    // Warming leaves no statistics and no in-flight state behind.
    EXPECT_EQ(llc.stats().accesses, 0u);
    EXPECT_TRUE(llc.quiesced());

    // The detailed path hits a warmed line without memory traffic.
    EXPECT_EQ(llc.access(0, 5 + sets, false, 0), mem::Llc::Result::Hit);
    EXPECT_EQ(llc.stats().hits, 1u);
    EXPECT_TRUE(llc.quiesced());
    EXPECT_EQ(sys.controller(0).queuedRequests(), 0u);
}

TEST(Sampling, WarmInjectHcracAndProvider)
{
    // A warm insert lands in the table onActivate probes; its count
    // goes with the stats reset at the warm-up boundary, the entry
    // stays.
    SimConfig cfg = sampleConfig();
    dram::DramSpec spec = cfg.buildSpec();
    chargecache::ChargeCacheProvider cc(spec.timing, cfg.cc, 1);
    dram::DramAddr da;
    da.channel = 0;
    da.rank = 0;
    da.bank = 1;
    da.row = 7;
    cc.warmInsert(0, da, da.row);
    cc.endWarming();
    EXPECT_EQ(cc.tableStats().inserts, 1u);
    cc.resetStats();
    EXPECT_EQ(cc.tableStats().inserts, 0u);
    EXPECT_TRUE(cc.onActivate(0, da, 0).reduced);
    dram::DramAddr other = da;
    other.row = 9;
    EXPECT_FALSE(cc.onActivate(0, other, 0).reduced);

    // BIP draws from the table's RNG at every new insert. After
    // restartRng() a warmed table draws what a fresh one does: with
    // every entry invalidated, the same inserts leave both with the
    // same survivors (a larger recency clock keeps the same order).
    chargecache::Hcrac::Params bip;
    bip.entries = 4;
    bip.ways = 2;
    bip.policy = chargecache::InsertPolicy::Bip;
    bip.bipEpsilon = 0.5;
    auto survivors = [](chargecache::Hcrac &t) {
        t.invalidateAll();
        std::vector<bool> out;
        for (std::uint64_t k = 0; k < 64; ++k) {
            t.insert(k);
            out.push_back(k >= 3 && t.lookup(k - 3));
        }
        return out;
    };
    chargecache::Hcrac fresh(bip), warmed(bip), unrestarted(bip);
    for (std::uint64_t k = 100; k < 132; ++k) {
        warmed.insert(k);
        unrestarted.insert(k);
    }
    warmed.restartRng();
    const std::vector<bool> want = survivors(fresh);
    EXPECT_EQ(survivors(warmed), want);
    EXPECT_NE(survivors(unrestarted), want);
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
