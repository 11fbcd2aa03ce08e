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
 *  - deterministic fault injection (an allocation failure surfaces as
 *    a retryable SimError) and its environment overrides;
 *  - structured input-validation errors (SimError, not aborts) and
 *    the sweep runner's retry/backoff on retryable kinds;
 *  - malformed / truncated trace regression tests.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>
#include <vector>

#include "resilience/checkpoint.hh"
#include "resilience/error.hh"
#include "resilience/fault.hh"
#include "resilience/io.hh"
#include "resilience/serial.hh"
#include "sim/experiment.hh"
#include "sim/system.hh"
#include "system_compare.hh"
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
        EXPECT_TRUE(e.retryable());
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
        for (KernelMode k : {KernelMode::PerCycle, KernelMode::EventSkip,
                             KernelMode::Calendar}) {
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
    // snapshot taken under one kernel resumes under any other.
    SimConfig cal = ckptConfig(KernelMode::Calendar, true);
    SystemResult ref = referenceRun(cal);
    std::vector<std::uint8_t> snap = captureAt(cal, 20000);

    expectIdenticalResults(
        ref, resumeRun(ckptConfig(KernelMode::PerCycle, true), snap),
        "calendar snapshot -> percycle");
    expectIdenticalResults(
        ref, resumeRun(ckptConfig(KernelMode::EventSkip, true), snap),
        "calendar snapshot -> eventskip");

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

    // Execution strategy is NOT part of the hash.
    SimConfig ek = cfg;
    ek.kernel = KernelMode::EventSkip;
    ek.kernelParanoid = true;
    EXPECT_EQ(System(cfg, ckptWorkloads(cfg.nCores)).configHash(),
              System(ek, ckptWorkloads(ek.nCores)).configHash());

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
// Fault injection.

TEST(Resilience, AllocFailureIsRetryableSimError)
{
    SimConfig cfg = ckptConfig(KernelMode::Calendar, false);
    cfg.faults.seed = 7;
    cfg.faults.kind = resilience::FaultKind::AllocFail;
    try {
        System sys(cfg, ckptWorkloads(cfg.nCores));
        FAIL() << "expected ResourceExhausted";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), ErrorKind::ResourceExhausted);
        EXPECT_TRUE(e.retryable());
    }
}

TEST(Resilience, EnvFaultOverridesParse)
{
    setenv("CCSIM_FAULT_SEED", "31337", 1);
    setenv("CCSIM_FAULT_KIND", "alloc-fail", 1);
    resilience::FaultConfig fc;
    resilience::applyEnvFaults(fc);
    EXPECT_EQ(fc.seed, 31337u);
    EXPECT_EQ(fc.kind, resilience::FaultKind::AllocFail);
    EXPECT_TRUE(resilience::injectsAllocFailure(fc));

    // Kinds that never injected anything are rejected, not ignored.
    for (const char *gone : {"trace-truncate", "worker-death",
                             "meteor-strike"}) {
        setenv("CCSIM_FAULT_KIND", gone, 1);
        EXPECT_THROW(resilience::applyEnvFaults(fc), SimError) << gone;
    }
    unsetenv("CCSIM_FAULT_SEED");
    unsetenv("CCSIM_FAULT_KIND");
}

TEST(Resilience, EnvFaultScalarsRejectGarbage)
{
    // strtoull with a nullptr end pointer used to parse these as 0 —
    // i.e. a typo'd fault spec silently became "no fault injected".
    // Each scalar must throw InvalidConfig naming the variable.
    struct Case {
        const char *name;
        const char *value;
    };
    const Case cases[] = {{"CCSIM_FAULT_SEED", "abc"},
                          {"CCSIM_FAULT_SEED", "12abc"},
                          {"CCSIM_FAULT_SEED", "7 "},
                          {"CCSIM_FAULT_SEED", "0x2"}};
    for (const Case &c : cases) {
        setenv(c.name, c.value, 1);
        resilience::FaultConfig fc;
        try {
            resilience::applyEnvFaults(fc);
            FAIL() << c.name << "='" << c.value
                   << "' should have been rejected";
        } catch (const SimError &e) {
            EXPECT_EQ(e.kind(), ErrorKind::InvalidConfig);
            EXPECT_NE(std::string(e.what()).find(c.name),
                      std::string::npos)
                << "error must name the offending variable: "
                << e.what();
        }
        unsetenv(c.name);
    }

    // Valid values still parse.
    setenv("CCSIM_FAULT_SEED", "42", 1);
    resilience::FaultConfig fc;
    resilience::applyEnvFaults(fc);
    EXPECT_EQ(fc.seed, 42u);
    unsetenv("CCSIM_FAULT_SEED");
}

// ---------------------------------------------------------------------
// Structured input validation + sweep retry.

TEST(Resilience, ConfigValidationThrowsStructuredErrors)
{
    SimConfig cfg = ckptConfig(KernelMode::Calendar, false);
    cfg.nCores = 0;
    try {
        System sys(cfg, std::vector<std::string>{});
        FAIL() << "expected InvalidConfig";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), ErrorKind::InvalidConfig);
        EXPECT_FALSE(e.retryable());
    }

    SimConfig cfg2 = ckptConfig(KernelMode::Calendar, false);
    EXPECT_THROW(System(cfg2, std::vector<std::string>{"mcf"}), SimError)
        << "one workload per core";

    SimConfig cfg3 = ckptConfig(KernelMode::Calendar, false);
    cfg3.dramStandard = "DDR9-99999";
    EXPECT_THROW(cfg3.buildSpec(), SimError);
}

TEST(Resilience, SweepRetriesTransientFailures)
{
    std::atomic<int> attempts{0};
    auto point = [&](std::size_t i) -> SystemResult {
        if (i == 1 && attempts.fetch_add(1) == 0)
            throw SimError(ErrorKind::ResourceExhausted,
                           "transient allocation failure");
        SystemResult r;
        r.cpuCycles = 100 + i;
        return r;
    };
    std::vector<SystemResult> out = runSweep(3, point, 2);
    ASSERT_EQ(out.size(), 3u);
    EXPECT_EQ(out[1].cpuCycles, 101u);
    EXPECT_EQ(attempts.load(), 2) << "one failure + one retry";
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
    EXPECT_EQ(calls.load(), 1) << "InvalidConfig must not be retried";
}

TEST(Resilience, EnvScalarValidationThrows)
{
    setenv("CCSIM_TEST_SCALAR", "12x", 1);
    EXPECT_THROW(envU64("CCSIM_TEST_SCALAR", 0), SimError);
    EXPECT_THROW(envF64("CCSIM_TEST_SCALAR", 0.0), SimError);
    setenv("CCSIM_TEST_SCALAR", "12", 1);
    EXPECT_EQ(envU64("CCSIM_TEST_SCALAR", 0), 12u);
    unsetenv("CCSIM_TEST_SCALAR");
}

// ---------------------------------------------------------------------
// Malformed / truncated trace regression.

TEST(Resilience, TruncatedTraceReportsTraceIo)
{
    const std::string path =
        ::testing::TempDir() + "/ccsim_resil_trace.txt";
    {
        std::ofstream out(path);
        for (int i = 0; i < 10; ++i)
            out << "3 0x" << std::hex << (0x1000 + i * 64) << std::dec
                << "\n";
    }
    workloads::RamulatorTraceReader reader(path);
    reader.injectTruncateAfter(4);
    cpu::TraceRecord rec;
    try {
        for (int i = 0; i < 10; ++i)
            reader.next(rec);
        FAIL() << "expected injected truncation";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), ErrorKind::TraceIo);
    }
    std::remove(path.c_str());
}

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
