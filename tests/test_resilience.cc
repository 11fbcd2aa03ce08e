/**
 * @file
 * Resilience subsystem tests (docs/resilience.md):
 *
 *  - snapshot container units: section round-trip, CRC corruption,
 *    version/name mismatch, truncation;
 *  - atomic file I/O (temp+rename write, read-modify-replace append);
 *  - checkpoint/restore equivalence matrix: a run checkpointed
 *    mid-flight and resumed on a fresh System is bit-identical to the
 *    uninterrupted run, across every kernel, VM on/off, and across
 *    kernel changes at the resume boundary;
 *  - autosave-and-continue identity (the hook itself is schedule-
 *    neutral) and the SIGINT/SIGTERM stop flag (final snapshot, then
 *    SimError{Interrupted});
 *  - structured input-validation errors (SimError, not aborts) and
 *    the sweep runner's error rule: every point runs, and the lowest
 *    failing index's error is the one reported;
 *  - malformed / truncated trace regression tests.
 */

#include <gtest/gtest.h>
#include <sched.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <new>
#include <string>
#include <thread>
#include <type_traits>
#include <utility>
#include <vector>

#include "chargecache/hcrac.hh"
#include "dram/addr.hh"
#include "dram/rank.hh"
#include "helpers.hh"
#include "mem/llc.hh"
#include "resilience/checkpoint.hh"
#include "resilience/error.hh"
#include "resilience/io.hh"
#include "resilience/serial.hh"
#include "sim/experiment.hh"
#include "sim/system.hh"
#include "system_compare.hh"
#include "trace/sampling.hh"
#include "workloads/profiles.hh"
#include "workloads/trace_file.hh"

namespace ccsim::sim {
namespace {

using resilience::ErrorKind;
using resilience::SimError;
using test::expectIdenticalResults;

// ---------------------------------------------------------------------
// Snapshot container units.

TEST(Resilience, SerializerSectionRoundTrip)
{
    resilience::SnapshotWriter w;
    w.beginSection("alpha", 3);
    w.put<std::uint64_t>(0xdeadbeefcafe1234ull);
    w.put<double>(2.5);
    w.putString("hello");
    w.putVec(std::vector<std::uint32_t>{1, 2, 3});
    w.put(std::pair<std::uint32_t, std::uint64_t>{7, 9});
    w.endSection();
    w.beginSection("beta", 1);
    w.putDeque(std::deque<std::uint16_t>{5, 6});
    w.endSection();

    resilience::SnapshotReader r(w.bytes());
    EXPECT_EQ(r.openSection("alpha", 3), 3u);
    EXPECT_EQ(r.get<std::uint64_t>(), 0xdeadbeefcafe1234ull);
    EXPECT_EQ(r.get<double>(), 2.5);
    EXPECT_EQ(r.getString(), "hello");
    std::vector<std::uint32_t> v;
    r.getVec(v);
    EXPECT_EQ(v, (std::vector<std::uint32_t>{1, 2, 3}));
    std::pair<std::uint32_t, std::uint64_t> p;
    r.get(p);
    EXPECT_EQ(p.first, 7u);
    EXPECT_EQ(p.second, 9u);
    r.closeSection();
    EXPECT_EQ(r.openSection("beta", 2), 1u);
    std::deque<std::uint16_t> d;
    r.getDeque(d);
    ASSERT_EQ(d.size(), 2u);
    EXPECT_EQ(d[0], 5);
    r.closeSection();
    EXPECT_TRUE(r.atEnd());
}

TEST(Resilience, SerializerDetectsCorruption)
{
    resilience::SnapshotWriter w;
    w.beginSection("s", 1);
    w.put<std::uint64_t>(42);
    w.endSection();
    std::vector<std::uint8_t> bytes = w.take();

    // Flip one payload bit: the CRC check at closeSection must throw.
    std::vector<std::uint8_t> flipped = bytes;
    flipped[flipped.size() - 8] ^= 0x10;
    resilience::SnapshotReader r(flipped);
    r.openSection("s", 1);
    r.get<std::uint64_t>();
    try {
        r.closeSection();
        FAIL() << "expected CRC mismatch";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), ErrorKind::CorruptSnapshot);
    }

    // Wrong section name.
    resilience::SnapshotReader r2(bytes);
    EXPECT_THROW(r2.openSection("other", 1), SimError);

    // Stored version above the reader's maximum.
    resilience::SnapshotReader r3(bytes);
    EXPECT_THROW(r3.openSection("s", 0), SimError);

    // Truncated stream.
    resilience::SnapshotReader r4(bytes.data(), bytes.size() / 2);
    try {
        r4.openSection("s", 1);
        r4.get<std::uint64_t>();
        r4.closeSection();
        FAIL() << "expected truncation error";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), ErrorKind::CorruptSnapshot);
    }
}

/** Run `load`, requiring it to throw SimError{CorruptSnapshot}. */
template <typename F>
void
expectCorrupt(F &&load, const char *what)
{
    try {
        load();
        ADD_FAILURE() << what << ": expected CorruptSnapshot";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), ErrorKind::CorruptSnapshot) << what;
    }
}

void
patchU64(std::vector<std::uint8_t> &bytes, std::size_t at,
         std::uint64_t v)
{
    ASSERT_LE(at + sizeof(v), bytes.size());
    std::memcpy(bytes.data() + at, &v, sizeof(v));
}

TEST(Resilience, VectorCountsCannotWrapTheSizeCheck)
{
    // 2^61 + 1 eight-byte elements is 2^64 + 8 bytes: a multiplied
    // size check wraps to 8 and passes against 8 remaining bytes.
    resilience::SnapshotWriter w;
    w.put<std::uint64_t>((std::uint64_t(1) << 61) + 1);
    w.put<std::uint64_t>(0);
    std::vector<std::uint64_t> v;
    resilience::SnapshotReader r(w.bytes());
    expectCorrupt([&] { r.getVec(v); }, "trivially copyable getVec");

    // Element-wise branch: the count is checked before resizing.
    using Pair = std::pair<std::uint32_t, std::uint64_t>;
    static_assert(!std::is_trivially_copyable<Pair>::value,
                  "must exercise the element-wise branch");
    resilience::SnapshotWriter w2;
    w2.put<std::uint64_t>(std::uint64_t(1) << 40);
    w2.put<std::uint64_t>(0);
    std::vector<Pair> pairs;
    resilience::SnapshotReader r2(w2.bytes());
    expectCorrupt([&] { r2.getVec(pairs); }, "element-wise getVec");
}

TEST(Resilience, RankLoaderRefusesOversizedTfawWindow)
{
    dram::DramSpec spec = dram::DramSpec::ddr3_1600(1);
    dram::Rank rank(spec.org, spec.timing);
    resilience::SnapshotWriter w;
    rank.saveState(w);
    std::vector<std::uint8_t> bytes = w.take();
    // Layout: nextActRank u64, then the window's count.
    patchU64(bytes, sizeof(std::uint64_t), 5);
    for (int i = 0; i < 5; ++i) // Enough payload to read 5 entries.
        bytes.insert(bytes.begin() + 16, 8, std::uint8_t(0));
    resilience::SnapshotReader r(bytes);
    expectCorrupt([&] { rank.loadState(r); }, "tFAW window of 5");
}

TEST(Resilience, ControllerLoaderRefusesHugePendingCount)
{
    test::CtrlHarness h;
    resilience::SnapshotWriter w;
    h.mc->saveState(w);
    std::vector<std::uint8_t> bytes = w.take();
    {
        resilience::SnapshotReader r(bytes);
        h.mc->loadState(r, nullptr, nullptr); // The untouched dump loads.
        EXPECT_TRUE(r.atEnd());
    }
    // An idle controller's dump ends: pending count, one owner-core int
    // per bank, drainMode, now, tokenSeq, statistics.
    const std::size_t banks = static_cast<std::size_t>(
        h.spec.org.ranksPerChannel * h.spec.org.banksPerRank);
    const std::size_t tail =
        8 + banks * sizeof(int) + 1 + 8 + 8 + sizeof(ctrl::CtrlStats);
    ASSERT_GT(bytes.size(), tail);
    patchU64(bytes, bytes.size() - tail, std::uint64_t(1) << 40);
    resilience::SnapshotReader r(bytes);
    expectCorrupt([&] { h.mc->loadState(r, nullptr, nullptr); },
                  "pending-read count 2^40");
}

TEST(Resilience, LlcLoaderRefusesMshrOverflowAndDuplicates)
{
    dram::DramSpec spec = dram::DramSpec::ddr3_1600(1);
    dram::AddressMapper mapper(spec.org, dram::MapScheme::RoBaRaCoCh);
    mem::LlcConfig cfg;
    cfg.sizeBytes = 8192;
    cfg.ways = 2;
    mem::Llc llc(cfg, mapper, {}, nullptr);
    resilience::SnapshotWriter w;
    llc.saveState(w);
    const std::vector<std::uint8_t> clean = w.take();
    // Lines (count + 18 bytes each), then lruClock, then the MSHR count.
    const std::size_t lines = cfg.sizeBytes / kLineBytes;
    const std::size_t mshr_count_at = 8 + lines * 18 + 8;
    {
        resilience::SnapshotReader r(clean);
        llc.loadState(r); // The untouched dump loads.
        EXPECT_TRUE(r.atEnd());
    }

    std::vector<std::uint8_t> huge = clean;
    patchU64(huge, mshr_count_at, std::uint64_t(1) << 40);
    resilience::SnapshotReader r1(huge);
    expectCorrupt([&] { llc.loadState(r1); }, "MSHR count 2^40");

    // A dump holding `lines` (one well-formed entry each, one waiter).
    auto with_mshrs = [&](const std::vector<Addr> &entries) {
        resilience::SnapshotWriter d;
        d.putRaw(clean.data(), mshr_count_at);
        d.put<std::uint64_t>(entries.size());
        for (std::size_t i = 0; i < entries.size(); ++i) {
            d.put<Addr>(entries[i]);
            d.put<std::uint64_t>(1); // One waiter.
            d.put<int>(static_cast<int>(i % mem::Llc::kMaxCores));
            d.put<std::uint64_t>(5 + i);
            d.put<bool>(false);
            d.put<bool>(true);  // issued
            d.put<bool>(false); // isPtw
            d.put<std::int8_t>(-1);
        }
        d.putRaw(clean.data() + mshr_count_at + 8,
                 clean.size() - mshr_count_at - 8);
        return d.take();
    };
    const std::uint64_t cap =
        std::uint64_t(mem::Llc::kMaxCores) * mem::Llc::kMshrsPerCore;
    std::vector<Addr> distinct;
    for (Addr a = 1; a <= cap + 1; ++a)
        distinct.push_back(a);
    const std::vector<std::uint8_t> over = with_mshrs(distinct);
    resilience::SnapshotReader r2(over);
    expectCorrupt([&] { llc.loadState(r2); }, "MSHR count above capacity");
    distinct.pop_back(); // Exactly at capacity: loads.
    const std::vector<std::uint8_t> full = with_mshrs(distinct);
    resilience::SnapshotReader r_full(full);
    EXPECT_NO_THROW(llc.loadState(r_full));

    const std::vector<std::uint8_t> dup = with_mshrs({77, 77});
    resilience::SnapshotReader r3(dup);
    expectCorrupt([&] { llc.loadState(r3); }, "duplicate MSHR address");
}

TEST(Resilience, AtomicFileWriteAndAppend)
{
    const std::string path =
        ::testing::TempDir() + "/ccsim_atomic_test.txt";
    std::remove(path.c_str());

    resilience::atomicWriteFile(path, std::string("first\n"));
    EXPECT_TRUE(resilience::fileExists(path));
    resilience::atomicAppendFile(path, "second\n");
    std::vector<std::uint8_t> bytes = resilience::readFileBytes(path);
    EXPECT_EQ(std::string(bytes.begin(), bytes.end()), "first\nsecond\n");

    // Atomic replace: the old content must vanish entirely.
    resilience::atomicWriteFile(path, std::string("third\n"));
    bytes = resilience::readFileBytes(path);
    EXPECT_EQ(std::string(bytes.begin(), bytes.end()), "third\n");
    std::remove(path.c_str());

    // Unwritable directory: try-variants report, throwing variants throw.
    EXPECT_FALSE(
        resilience::tryAtomicWriteFile("/nonexistent/dir/x.txt", "y"));
    try {
        resilience::atomicWriteFile("/nonexistent/dir/x.txt",
                                    std::string("y"));
        FAIL() << "expected IoError";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), ErrorKind::IoError);
    }
    EXPECT_THROW(resilience::readFileBytes("/nonexistent/dir/x.txt"),
                 SimError);
}

// ---------------------------------------------------------------------
// Checkpoint/restore equivalence matrix.

SimConfig
ckptConfig(KernelMode kernel, bool vm)
{
    SimConfig cfg;
    cfg.nCores = 4;
    cfg.channels = 2;
    cfg.ctrl.rowPolicy = ctrl::RowPolicy::Closed;
    cfg.ctrl.trackRltl = true;
    cfg.cc.trackUnlimited = true;
    cfg.scheme = Scheme::ChargeCache;
    cfg.targetInsts = 6000;
    cfg.warmupInsts = 1000;
    cfg.vm.enable = vm;
    cfg.kernel = kernel;
    cfg.finalizeChargeCache();
    // CCSIM_PARANOID=1 (the CI resilience run) upgrades the configs
    // under checkpoint testing to shadow-validation. kernelParanoid is
    // not in the snapshot config hash, so resume stays legal either
    // way.
    test::applyEnvParanoia(cfg);
    return cfg;
}

std::vector<std::string>
ckptWorkloads(int cores)
{
    return workloads::mixWorkloads(3, cores);
}

/** Run to the first checkpoint at `at`, capture the snapshot, stop. */
std::vector<std::uint8_t>
captureAt(const SimConfig &cfg, CpuCycle at)
{
    System sys(cfg, ckptWorkloads(cfg.nCores));
    std::vector<std::uint8_t> snap;
    sys.setCheckpointHook(at, 0, [&](System &s) {
        snap = s.serializeSnapshot();
        return false; // Stop the run: kill-and-resume, not autosave.
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

SystemResult
resumeRun(const SimConfig &cfg, const std::vector<std::uint8_t> &snap)
{
    System sys(cfg, ckptWorkloads(cfg.nCores));
    sys.restoreSnapshot(snap);
    return sys.run();
}

SystemResult
referenceRun(const SimConfig &cfg)
{
    System sys(cfg, ckptWorkloads(cfg.nCores));
    return sys.run();
}

TEST(Resilience, CheckpointMatrixAllKernels)
{
    for (bool vm : {false, true}) {
        for (KernelMode k : {KernelMode::PerCycle, KernelMode::Calendar}) {
            SimConfig cfg = ckptConfig(k, vm);
            SystemResult ref = referenceRun(cfg);
            // Mid-measurement checkpoint (warm-up ends ~5-6k cycles in).
            SystemResult res = resumeRun(cfg, captureAt(cfg, 20000));
            std::string label = std::string(kernelModeName(k)) +
                                (vm ? "/vm" : "") + " resume";
            expectIdenticalResults(ref, res, label.c_str());
        }
    }
}

TEST(Resilience, CheckpointDuringWarmup)
{
    SimConfig cfg = ckptConfig(KernelMode::Calendar, false);
    SystemResult ref = referenceRun(cfg);
    SystemResult res = resumeRun(cfg, captureAt(cfg, 2000));
    expectIdenticalResults(ref, res, "pre-warm resume");
}

TEST(Resilience, CheckpointCrossKernelResume)
{
    // The config hash deliberately excludes the execution strategy: a
    // snapshot taken under one kernel resumes under the other.
    SimConfig cal = ckptConfig(KernelMode::Calendar, true);
    SystemResult ref = referenceRun(cal);
    std::vector<std::uint8_t> snap = captureAt(cal, 20000);

    expectIdenticalResults(
        ref, resumeRun(ckptConfig(KernelMode::PerCycle, true), snap),
        "calendar snapshot -> percycle");

    // And back: a per-cycle snapshot resumed on the calendar kernel.
    std::vector<std::uint8_t> ref_snap =
        captureAt(ckptConfig(KernelMode::PerCycle, true), 20000);
    expectIdenticalResults(
        ref, resumeRun(cal, ref_snap), "percycle snapshot -> calendar");
}

TEST(Resilience, AutosaveAndContinueIsScheduleNeutral)
{
    // A periodic hook that lets the run continue must not perturb the
    // schedule — quiescing (parked-core settling) is provably
    // idempotent.
    SimConfig cfg = ckptConfig(KernelMode::Calendar, true);
    SystemResult ref = referenceRun(cfg);
    System sys(cfg, ckptWorkloads(cfg.nCores));
    int fires = 0;
    sys.setCheckpointHook(3000, 5000, [&](System &s) {
        ++fires;
        (void)s.serializeSnapshot(); // Legal inside the hook.
        return true;
    });
    SystemResult res = sys.run();
    EXPECT_GE(fires, 2) << "autosave hook should fire repeatedly";
    expectIdenticalResults(ref, res, "autosave continue");
}

TEST(Resilience, SnapshotRejectsWrongConfigAndCorruption)
{
    SimConfig cfg = ckptConfig(KernelMode::Calendar, false);
    std::vector<std::uint8_t> snap = captureAt(cfg, 20000);

    // Different simulated-state shape -> config-hash mismatch.
    SimConfig other = cfg;
    other.seed = cfg.seed + 1;
    System sys(other, ckptWorkloads(other.nCores));
    try {
        sys.restoreSnapshot(snap);
        FAIL() << "expected config-hash rejection";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), ErrorKind::CorruptSnapshot);
    }

    // Every other field is hashed too: the snapshot must not restore
    // into a System with another row policy, HCRAC insertion policy or
    // LLC associativity. Before those were hashed, each of these
    // restored and ran to the end.
    SimConfig open_row = cfg;
    open_row.ctrl.rowPolicy = ctrl::RowPolicy::Open;
    SimConfig bip = cfg;
    bip.cc.table.policy = chargecache::InsertPolicy::Bip;
    SimConfig llc8 = cfg;
    llc8.llc.ways = 8;
    const std::pair<const char *, SimConfig> variants[] = {
        {"open-row", open_row}, {"BIP", bip}, {"8-way LLC", llc8}};
    for (const auto &[label, c] : variants) {
        System s(c, ckptWorkloads(c.nCores));
        try {
            s.restoreSnapshot(snap);
            ADD_FAILURE() << label << ": expected config-hash rejection";
        } catch (const SimError &e) {
            EXPECT_EQ(e.kind(), ErrorKind::CorruptSnapshot) << label;
        }
    }

    // Execution strategy is NOT part of the hash.
    const std::uint64_t hash =
        System(cfg, ckptWorkloads(cfg.nCores)).configHash();
    SimConfig per_cycle = cfg;
    per_cycle.kernel = KernelMode::PerCycle;
    SimConfig paranoid = cfg;
    paranoid.kernelParanoid = true;
    for (const SimConfig &c : {per_cycle, paranoid})
        EXPECT_EQ(hash, System(c, ckptWorkloads(c.nCores)).configHash())
            << kernelModeName(c.kernel);

    // A flipped byte in some section payload fails its CRC.
    std::vector<std::uint8_t> bad = snap;
    bad[bad.size() / 2] ^= 0x40;
    System sys2(cfg, ckptWorkloads(cfg.nCores));
    EXPECT_THROW(sys2.restoreSnapshot(bad), SimError);

    // Truncation is caught, not read past.
    std::vector<std::uint8_t> cut(snap.begin(),
                                  snap.begin() + snap.size() / 3);
    System sys3(cfg, ckptWorkloads(cfg.nCores));
    EXPECT_THROW(sys3.restoreSnapshot(cut), SimError);

    // serializeSnapshot outside a checkpoint hook is refused.
    System sys4(cfg, ckptWorkloads(cfg.nCores));
    try {
        (void)sys4.serializeSnapshot();
        FAIL() << "expected Unsupported";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), ErrorKind::Unsupported);
    }

    // A version-1 "meta" section (one more byte after the run point)
    // is refused, not misread.
    resilience::SnapshotWriter v1;
    resilience::writeSnapshotHeader(v1, sys4.configHash());
    v1.beginSection("meta", 1);
    v1.put<CpuCycle>(20000);
    v1.put(true);
    v1.put<CpuCycle>(5000);
    v1.put(false);
    v1.endSection();
    try {
        sys4.restoreSnapshot(v1.take());
        FAIL() << "expected CorruptSnapshot";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), ErrorKind::CorruptSnapshot);
    }
}

TEST(Resilience, StopFlagSavesFinalSnapshotAndResumes)
{
    // SIGINT/SIGTERM path, driven programmatically: the kernel polls
    // the stop flag at watchdog cadence, fires the hook one final
    // time, and unwinds with Interrupted. Resuming that final snapshot
    // completes the run bit-identically.
    SimConfig cfg = ckptConfig(KernelMode::Calendar, false);
    cfg.targetInsts = 50000; // Long enough to cross the watchdog check.
    SystemResult ref = referenceRun(cfg);

    resilience::clearStopFlag();
    resilience::requestStop();
    System sys(cfg, ckptWorkloads(cfg.nCores));
    std::vector<std::uint8_t> snap;
    sys.setCheckpointHook(kNoCycle - 1, 0,
                          [&](System &s) { // Only the final fire.
                              snap = s.serializeSnapshot();
                              return true;
                          });
    try {
        sys.run();
        FAIL() << "expected Interrupted";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), ErrorKind::Interrupted);
    }
    resilience::clearStopFlag();
    ASSERT_FALSE(snap.empty());
    expectIdenticalResults(ref, resumeRun(cfg, snap),
                           "stop-flag final snapshot resume");
}

// ---------------------------------------------------------------------
// Structured input validation + sweep errors.

TEST(Resilience, ConfigValidationThrowsStructuredErrors)
{
    SimConfig cfg = ckptConfig(KernelMode::Calendar, false);
    cfg.nCores = 0;
    try {
        System sys(cfg, std::vector<std::string>{});
        FAIL() << "expected InvalidConfig";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), ErrorKind::InvalidConfig);
    }

    SimConfig cfg2 = ckptConfig(KernelMode::Calendar, false);
    EXPECT_THROW(System(cfg2, std::vector<std::string>{"mcf"}), SimError)
        << "one workload per core";

    SimConfig cfg3 = ckptConfig(KernelMode::Calendar, false);
    cfg3.dramStandard = "DDR9-99999";
    EXPECT_THROW(cfg3.buildSpec(), SimError);
}

TEST(Resilience, MoreCoresThanTheLlcServesAreRejected)
{
    // The LLC's per-core MSHR counters and park watches are kMaxCores
    // wide; one more core used to index past them on its first miss.
    SimConfig cfg = ckptConfig(KernelMode::Calendar, false);
    cfg.nCores = mem::Llc::kMaxCores + 1;
    std::vector<std::string> names(cfg.nCores, "mcf");
    try {
        System sys(cfg, names);
        FAIL() << "expected InvalidConfig for " << cfg.nCores << " cores";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), ErrorKind::InvalidConfig);
    }

    std::vector<std::string> paths(cfg.nCores, "never-opened.cctr");
    try {
        trace::SampledSimulation sim(cfg, paths, trace::SamplingConfig{});
        FAIL() << "expected InvalidConfig for a sampled run";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), ErrorKind::InvalidConfig);
    }

    cfg.nCores = mem::Llc::kMaxCores; // The limit itself is legal.
    names.resize(cfg.nCores);
    EXPECT_NO_THROW(System sys(cfg, names));
}

TEST(Resilience, SweepPropagatesDeterministicErrors)
{
    std::atomic<int> calls{0};
    auto point = [&](std::size_t i) -> SystemResult {
        if (i == 0) {
            calls.fetch_add(1);
            throw SimError(ErrorKind::InvalidConfig, "bad point");
        }
        return SystemResult{};
    };
    EXPECT_THROW(runSweep(2, point, 1), SimError);
    EXPECT_EQ(calls.load(), 1) << "a failed point must run only once";
}

TEST(Resilience, SweepReportsTheLowestFailingPoint)
{
    // Two workers: point 1 fails first, point 0 fails only after it.
    // The sweep must still report point 0, whatever the timing.
    std::atomic<bool> oneFailed{false};
    std::atomic<int> ran{0};
    auto point = [&](std::size_t i) -> SystemResult {
        ++ran;
        if (i == 1) {
            oneFailed = true;
            throw SimError(ErrorKind::TraceIo, "point 1");
        }
        if (i == 0) {
            while (!oneFailed)
                std::this_thread::yield();
            throw SimError(ErrorKind::InvalidConfig, "point 0");
        }
        return SystemResult{};
    };
    try {
        runSweep(4, point, 2);
        FAIL() << "expected the sweep to throw";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), ErrorKind::InvalidConfig) << e.what();
    }
    EXPECT_EQ(ran.load(), 4) << "every point runs";
}

TEST(Resilience, EnvScalarValidationThrows)
{
    setenv("CCSIM_TEST_SCALAR", "12x", 1);
    EXPECT_THROW(envU64("CCSIM_TEST_SCALAR", 0), SimError);
    EXPECT_THROW(envF64("CCSIM_TEST_SCALAR", 0.0), SimError);
    setenv("CCSIM_TEST_SCALAR", "12", 1);
    EXPECT_EQ(envU64("CCSIM_TEST_SCALAR", 0), 12u);
    unsetenv("CCSIM_TEST_SCALAR");

    // strtoull wraps "-1" and saturates an overflow to 2^64 - 1; strtod
    // takes nan (no gate compares true with it), inf and 1e999.
    auto expectRejected = [](const char *value, auto parse) {
        test::ScopedEnv env("CCSIM_TEST_SCALAR", value);
        try {
            parse();
            ADD_FAILURE() << "'" << value << "' should be rejected";
        } catch (const SimError &e) {
            EXPECT_EQ(e.kind(), ErrorKind::InvalidConfig);
            EXPECT_NE(std::string(e.what()).find("CCSIM_TEST_SCALAR"),
                      std::string::npos)
                << e.what();
        }
    };
    for (const char *v : {"-1", "-0", "99999999999999999999999"})
        expectRejected(v, [] { envU64("CCSIM_TEST_SCALAR", 0); });
    for (const char *v : {"nan", "inf", "-inf", "1e999"})
        expectRejected(v, [] { envF64("CCSIM_TEST_SCALAR", 0.0); });
    {
        test::ScopedEnv env("CCSIM_TEST_SCALAR", "18446744073709551615");
        EXPECT_EQ(envU64("CCSIM_TEST_SCALAR", 0), ~std::uint64_t(0));
    }
}

TEST(Resilience, ThreadCountEnvIsCapped)
{
    // The parsed value used to be cast to int: 2^32 made a pool of no
    // workers (runSweep then waited forever), 2^32 + 1 silently meant
    // one, and 99999999999 asked for ~1.2 billion threads. Past the
    // cap it is a structured error naming the variable.
    const std::string overCap =
        std::to_string(ParallelRunner::kMaxThreads + 1);
    for (const char *v :
         {"4294967296", "4294967297", "99999999999", overCap.c_str()}) {
        test::ScopedEnv env("CCSIM_THREADS", v);
        try {
            ParallelRunner::defaultThreads();
            FAIL() << "CCSIM_THREADS=" << v << " should be rejected";
        } catch (const SimError &e) {
            EXPECT_EQ(e.kind(), ErrorKind::InvalidConfig);
            EXPECT_NE(std::string(e.what()).find("CCSIM_THREADS"),
                      std::string::npos)
                << e.what();
        }
        // A sweep reports it instead of waiting on an empty pool.
        EXPECT_THROW(runSweep(1, [](std::size_t) { return SystemResult{}; }),
                     SimError);
    }
    {
        const std::string cap = std::to_string(ParallelRunner::kMaxThreads);
        test::ScopedEnv env("CCSIM_THREADS", cap.c_str());
        EXPECT_EQ(ParallelRunner::defaultThreads(),
                  ParallelRunner::kMaxThreads);
    }
    // Unset or 0: the CPUs this thread may run on.
    cpu_set_t mask{};
    ASSERT_EQ(sched_getaffinity(0, sizeof mask, &mask), 0);
    const int cpus =
        std::min(CPU_COUNT(&mask), ParallelRunner::kMaxThreads);
    for (const char *v : {static_cast<const char *>(nullptr), "0"}) {
        test::ScopedEnv env("CCSIM_THREADS", v);
        EXPECT_EQ(ParallelRunner::defaultThreads(), cpus);
    }
    try {
        ParallelRunner pool(ParallelRunner::kMaxThreads + 1);
        FAIL() << "an oversized pool should be rejected";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), ErrorKind::InvalidConfig);
    }
}

TEST(Resilience, DefaultThreadsFollowsTheAffinityMask)
{
    // Under `taskset -c 0` every default pool used to start a worker per
    // host CPU, all time-slicing the one CPU they may use.
    cpu_set_t all{};
    ASSERT_EQ(sched_getaffinity(0, sizeof all, &all), 0);
    if (CPU_COUNT(&all) < 2)
        GTEST_SKIP() << "needs two CPUs to pin to one";
    int cpu = 0;
    while (!CPU_ISSET(cpu, &all))
        ++cpu;
    cpu_set_t one{};
    CPU_SET(cpu, &one);
    ASSERT_EQ(sched_setaffinity(0, sizeof one, &one), 0);
    int pinned = 0, overridden = 0;
    {
        test::ScopedEnv env("CCSIM_THREADS", nullptr);
        pinned = ParallelRunner::defaultThreads();
    }
    {
        test::ScopedEnv env("CCSIM_THREADS", "3");
        overridden = ParallelRunner::defaultThreads();
    }
    ASSERT_EQ(sched_setaffinity(0, sizeof all, &all), 0);
    EXPECT_EQ(pinned, 1);
    EXPECT_EQ(overridden, 3); // The variable still wins.
}

// ---------------------------------------------------------------------
// Byte-deterministic snapshots: no struct padding reaches the bytes.

namespace {

struct FixedTrace : cpu::TraceSource {
    bool
    next(cpu::TraceRecord &record) override
    {
        record = cpu::TraceRecord{3, 0x1000, false};
        return true;
    }
};

/** Bytes [17, 24) of every 24-byte table slot after a u64 count. */
std::vector<std::uint8_t>
slotPadding(const std::vector<std::uint8_t> &bytes)
{
    std::uint64_t n = 0;
    std::memcpy(&n, bytes.data(), 8);
    std::vector<std::uint8_t> pad;
    for (std::uint64_t i = 0; i < n; ++i)
        for (std::size_t b = 17; b < 24; ++b)
            pad.push_back(bytes.at(8 + i * 24 + b));
    return pad;
}

/** Overwrite that padding, as a raw struct dump may have left it. */
void
dirtySlotPadding(std::vector<std::uint8_t> &bytes)
{
    std::uint64_t n = 0;
    std::memcpy(&n, bytes.data(), 8);
    for (std::uint64_t i = 0; i < n; ++i)
        for (std::size_t b = 17; b < 24; ++b)
            bytes.at(8 + i * 24 + b) = 0xcd;
}

} // namespace

TEST(Resilience, SnapshotBytesCarryNoPadding)
{
    // The core's current trace record has 11 padding bytes. Build the
    // same core in storage pre-filled with two different patterns:
    // its snapshot bytes must not differ.
    SimConfig cfg = SimConfig::singleCore();
    dram::DramSpec spec = cfg.buildSpec();
    dram::AddressMapper mapper(spec.org, cfg.mapping);
    mem::Llc llc(cfg.llc, mapper, {}, nullptr);
    FixedTrace src;
    auto coreBytes = [&](unsigned char fill) {
        alignas(cpu::Core) unsigned char buf[sizeof(cpu::Core)];
        std::memset(buf, fill, sizeof buf);
        auto *core =
            new (buf) cpu::Core(0, cfg.targetInsts, src, llc, nullptr);
        resilience::SnapshotWriter w;
        core->saveState(w);
        core->~Core();
        return w.take();
    };
    EXPECT_EQ(coreBytes(0x00), coreBytes(0xa5));

    // HCRAC and unlimited-table slots keep the 24-byte snapshot layout
    // with zero padding.
    chargecache::Hcrac::Params hp;
    hp.entries = 8;
    chargecache::Hcrac hcrac(hp);
    chargecache::UnlimitedHcrac unlimited(1000);
    for (std::uint64_t k = 1; k <= 6; ++k) {
        hcrac.insert(k * 0x10001);
        unlimited.insert(k * 0x10001, k * 10);
    }
    resilience::SnapshotWriter hw, uw;
    hcrac.saveState(hw);
    unlimited.saveState(uw);
    for (const auto *bytes : {&hw.bytes(), &uw.bytes()})
        for (std::uint8_t b : slotPadding(*bytes))
            ASSERT_EQ(b, 0);
}

TEST(Resilience, TableSlotsLoadFromRawDumps)
{
    // Snapshots written before the field-wise slot layout dumped the
    // structs raw, padding included. They must still load.
    chargecache::Hcrac::Params hp;
    hp.entries = 8;
    chargecache::Hcrac hcrac(hp);
    chargecache::UnlimitedHcrac unlimited(1000);
    for (std::uint64_t k = 1; k <= 6; ++k) {
        hcrac.insert(k * 0x10001);
        unlimited.insert(k * 0x10001, 100);
    }
    resilience::SnapshotWriter hw, uw;
    hcrac.saveState(hw);
    unlimited.saveState(uw);

    std::vector<std::uint8_t> hRaw = hw.bytes(), uRaw = uw.bytes();
    dirtySlotPadding(hRaw);
    dirtySlotPadding(uRaw);
    chargecache::Hcrac hLoaded(hp);
    chargecache::UnlimitedHcrac uLoaded(1000);
    resilience::SnapshotReader hr(hRaw), ur(uRaw);
    hLoaded.loadState(hr);
    uLoaded.loadState(ur);
    EXPECT_TRUE(hr.atEnd());
    EXPECT_TRUE(ur.atEnd());

    // Same contents: re-saving gives the clean bytes back.
    resilience::SnapshotWriter hw2, uw2;
    hLoaded.saveState(hw2);
    uLoaded.saveState(uw2);
    EXPECT_EQ(hw2.bytes(), hw.bytes());
    EXPECT_EQ(uw2.bytes(), uw.bytes());
    EXPECT_EQ(uLoaded.size(), 6u);
    EXPECT_TRUE(uLoaded.lookup(3 * 0x10001, 150));
    EXPECT_FALSE(uLoaded.lookup(7 * 0x10001, 150));

    // A slot count the table cannot hold is refused.
    std::vector<std::uint8_t> bad = hw.bytes();
    bad[0] ^= 1;
    chargecache::Hcrac hBad(hp);
    resilience::SnapshotReader br(bad);
    EXPECT_THROW(hBad.loadState(br), SimError);
}

// ---------------------------------------------------------------------
// Malformed trace regression.

TEST(Resilience, GarbageTraceReportsMalformedTrace)
{
    const std::string path =
        ::testing::TempDir() + "/ccsim_resil_garbage.txt";
    {
        std::ofstream out(path);
        out << "2 0x1000\nnot a trace line at all\n";
    }
    workloads::RamulatorTraceReader reader(path);
    cpu::TraceRecord rec;
    EXPECT_TRUE(reader.next(rec));
    try {
        while (reader.next(rec)) {
        }
        FAIL() << "expected MalformedTrace";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), ErrorKind::MalformedTrace);
    }
    std::remove(path.c_str());
}

} // namespace
} // namespace ccsim::sim
