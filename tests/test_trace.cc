/**
 * @file
 * CCTR trace frontend suite (`trace` ctest label):
 *
 *  - format round-trip, rewind/seek/skip, and writer atomicity;
 *  - the full error contract: truncation -> TraceIo, vanish-mid-read
 *    -> IoError (never a silent empty stream), corruption ->
 *    MalformedTrace, plus a seeded garbage-byte fuzz corpus;
 *  - replay equivalence: traced replay of every synthetic workload is
 *    bit-identical to in-process generation, across both kernels;
 *  - checkpoint/resume through a replayed trace (PR-6 hooks);
 *  - datacenter generators: determinism, checkpointability, Zipfian
 *    skew sanity, and driving a System end to end.
 */

#include <gtest/gtest.h>
#include <unistd.h>

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "common/random.hh"
#include "dram/addr.hh"
#include "resilience/error.hh"
#include "resilience/io.hh"
#include "resilience/serial.hh"
#include "sim/config.hh"
#include "sim/system.hh"
#include "system_compare.hh"
#include "trace/convert.hh"
#include "trace/datacenter.hh"
#include "trace/format.hh"
#include "trace/replay.hh"
#include "workloads/profiles.hh"
#include "workloads/synthetic.hh"

namespace ccsim::sim {
namespace {

using resilience::ErrorKind;
using resilience::SimError;
using test::applyEnvParanoia;
using test::expectIdenticalResults;

std::string
tmpPath(const std::string &tag)
{
    return ::testing::TempDir() + "ccsim_" + tag + "_" +
           ::testing::UnitTest::GetInstance()
               ->current_test_info()
               ->name() +
           "_" + std::to_string(::getpid()) + ".cctr";
}

/** Deterministic record stream for format-level tests. */
std::vector<cpu::TraceRecord>
sampleRecords(std::size_t n, std::uint64_t seed = 7)
{
    workloads::SyntheticTrace src(workloads::profileByName("tpch6"),
                                  seed, 0, 1 << 22);
    std::vector<cpu::TraceRecord> out(n);
    for (auto &r : out)
        EXPECT_TRUE(src.next(r));
    return out;
}

void
writeAll(const std::string &path,
         const std::vector<cpu::TraceRecord> &recs,
         std::uint32_t per_block)
{
    trace::TraceWriter w(path, per_block);
    for (const auto &r : recs)
        w.append(r);
    trace::TraceMeta meta = w.close();
    EXPECT_EQ(meta.totalRecords, recs.size());
}

// ---------------------------------------------------------------------
// Format round-trip.

TEST(TraceFormat, RoundTripAcrossBlockBoundaries)
{
    const std::string path = tmpPath("fmt");
    auto recs = sampleRecords(5000);
    writeAll(path, recs, 64); // Many small blocks.

    trace::TraceReader rd(path);
    cpu::TraceRecord r;
    for (std::size_t i = 0; i < recs.size(); ++i) {
        ASSERT_TRUE(rd.next(r)) << "record " << i;
        EXPECT_EQ(r.addr, recs[i].addr) << "record " << i;
        EXPECT_EQ(r.nonMemInsts, recs[i].nonMemInsts) << "record " << i;
        EXPECT_EQ(r.isWrite, recs[i].isWrite) << "record " << i;
    }
    EXPECT_FALSE(rd.next(r));
    ASSERT_TRUE(rd.metaValid());
    EXPECT_EQ(rd.meta().totalRecords, recs.size());
    EXPECT_EQ(rd.position(), recs.size());
    std::remove(path.c_str());
}

TEST(TraceFormat, RewindSeekAndSkipAgreeWithSequentialRead)
{
    const std::string path = tmpPath("seek");
    auto recs = sampleRecords(3000);
    writeAll(path, recs, 128);

    trace::TraceReader rd(path);
    cpu::TraceRecord r;
    // Skip straddles whole-block seeks and partial-block decodes.
    for (std::uint64_t skip : {1ull, 127ull, 128ull, 1000ull, 2999ull}) {
        rd.rewind();
        rd.skipRecords(skip);
        EXPECT_EQ(rd.position(), skip);
        ASSERT_TRUE(rd.next(r));
        EXPECT_EQ(r.addr, recs[skip].addr) << "skip " << skip;
        rd.seekRecord(skip);
        ASSERT_TRUE(rd.next(r));
        EXPECT_EQ(r.addr, recs[skip].addr) << "seek " << skip;
    }
    rd.rewind();
    EXPECT_THROW(rd.skipRecords(recs.size() + 1), SimError);
    std::remove(path.c_str());
}

TEST(TraceFormat, EmptyTraceIsValidAndConverterRefusesToWriteOne)
{
    const std::string path = tmpPath("empty");
    {
        trace::TraceWriter w(path);
        trace::TraceMeta meta = w.close();
        EXPECT_EQ(meta.totalRecords, 0u);
    }
    trace::TraceReader rd(path);
    cpu::TraceRecord r;
    EXPECT_FALSE(rd.next(r));
    EXPECT_TRUE(rd.metaValid());

    workloads::SyntheticTrace src(workloads::profileByName("tpch6"), 1,
                                  0, 1 << 20);
    try {
        trace::writeTrace(src, path + ".n0", 0);
        FAIL() << "expected InvalidConfig";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), ErrorKind::InvalidConfig);
    }
    std::remove(path.c_str());
}

TEST(TraceFormat, WriterPublishesAtomicallyAndCleansUpOnAbandon)
{
    const std::string path = tmpPath("atomic");
    {
        trace::TraceWriter w(path, 32);
        cpu::TraceRecord r;
        r.addr = 0x1000;
        w.append(r);
        // Not closed yet: nothing under the real name.
        EXPECT_FALSE(resilience::fileExists(path));
    }
    // Abandoned (destructor without close): still nothing, and the
    // temp file is gone too.
    EXPECT_FALSE(resilience::fileExists(path));
    EXPECT_FALSE(resilience::fileExists(
        path + ".tmp." + std::to_string(::getpid())));
}

// ---------------------------------------------------------------------
// Error contract.

TEST(TraceFormat, TruncationReportsTraceIo)
{
    const std::string path = tmpPath("trunc");
    auto recs = sampleRecords(1000);
    writeAll(path, recs, 100);
    auto bytes = resilience::readFileBytes(path);

    // Cut mid-block and cut the end block entirely; both are TraceIo.
    for (std::size_t cut : {bytes.size() - 5, bytes.size() - 29,
                            std::size_t(16 + 4)}) {
        std::vector<std::uint8_t> short_bytes(bytes.begin(),
                                              bytes.begin() + cut);
        resilience::atomicWriteFile(path, short_bytes);
        trace::TraceReader rd(path);
        cpu::TraceRecord r;
        try {
            while (rd.next(r)) {
            }
            FAIL() << "expected TraceIo at cut " << cut;
        } catch (const SimError &e) {
            EXPECT_EQ(e.kind(), ErrorKind::TraceIo) << "cut " << cut;
        }
    }

    // A missing file is TraceIo at open.
    std::remove(path.c_str());
    EXPECT_THROW(trace::TraceReader rd(path), SimError);
}

TEST(TraceFormat, VanishBetweenRefillsReportsIoErrorNotSilentEnd)
{
    // The ISSUE-7 fix: a trace file that becomes unreadable between
    // readahead refills must surface SimError{IoError} — a reader
    // that mapped stream failure to "no more records" would silently
    // simulate a shorter trace.
    const std::string path = tmpPath("vanish");
    writeAll(path, sampleRecords(500), 64);

    trace::TraceReader rd(path);
    rd.injectVanishAfter(3); // Refills 1-2 fine, refill 3 dies.
    cpu::TraceRecord r;
    std::uint64_t delivered = 0;
    try {
        while (rd.next(r))
            ++delivered;
        FAIL() << "reader ended silently after " << delivered;
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), ErrorKind::IoError);
        EXPECT_EQ(delivered, 128u); // Two 64-record blocks.
    }

    // Same contract through the replay source + a full System run.
    trace::TraceReplaySource src(path);
    src.reader().injectVanishAfter(2);
    SimConfig cfg;
    cfg.nCores = 1;
    cfg.channels = 1;
    cfg.targetInsts = 50000;
    cfg.warmupInsts = 1000;
    cfg.finalizeChargeCache();
    System sys(cfg, std::vector<cpu::TraceSource *>{&src});
    try {
        sys.run();
        FAIL() << "expected IoError to propagate out of run()";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), ErrorKind::IoError);
    }
    std::remove(path.c_str());
}

TEST(TraceFormat, CorruptionReportsMalformedTrace)
{
    const std::string path = tmpPath("corrupt");
    writeAll(path, sampleRecords(300), 100);
    const auto good = resilience::readFileBytes(path);

    auto expectMalformed = [&](std::vector<std::uint8_t> bytes,
                               const char *what) {
        SCOPED_TRACE(what);
        resilience::atomicWriteFile(path, bytes);
        cpu::TraceRecord r;
        try {
            trace::TraceReader rd(path);
            while (rd.next(r)) {
            }
            FAIL() << "expected MalformedTrace";
        } catch (const SimError &e) {
            EXPECT_EQ(e.kind(), ErrorKind::MalformedTrace);
        }
    };

    auto bad = good;
    bad[0] ^= 0xff; // Magic.
    expectMalformed(bad, "bad magic");

    bad = good;
    bad[13] ^= 0x01; // Header CRC.
    expectMalformed(bad, "header crc");

    bad = good;
    bad[16] = 99; // First block kind.
    expectMalformed(bad, "unknown block kind");

    bad = good;
    bad[16 + 5] = 0xff; // payloadBytes low byte.
    bad[16 + 8] = 0xff; // payloadBytes high byte: > kMaxBlockPayload.
    expectMalformed(bad, "oversized block");

    bad = good;
    bad[16 + 9 + 3] ^= 0x40; // A payload byte: block CRC mismatch.
    expectMalformed(bad, "payload bit flip");

    bad = good;
    bad.push_back(0xab); // Trailing garbage after the end block.
    expectMalformed(bad, "trailing bytes");

    std::remove(path.c_str());
}

TEST(TraceFormat, UndecodableRecordsUnderAValidCrcAreMalformed)
{
    // Hand-built files whose block CRCs match: only record decoding can
    // catch these, and it must do so at the call that loads the block.
    const std::string path = tmpPath("records");
    auto put32 = [](std::vector<std::uint8_t> &b, std::uint32_t v) {
        for (int i = 0; i < 4; ++i)
            b.push_back(static_cast<std::uint8_t>(v >> (8 * i)));
    };
    auto putBlock = [&](std::vector<std::uint8_t> &b, std::uint8_t kind,
                        std::uint32_t count,
                        const std::vector<std::uint8_t> &payload) {
        const std::size_t start = b.size();
        b.push_back(kind);
        put32(b, count);
        put32(b, static_cast<std::uint32_t>(payload.size()));
        b.insert(b.end(), payload.begin(), payload.end());
        put32(b, resilience::crc32(b.data() + start, b.size() - start));
    };
    auto writeTrace = [&](std::uint32_t count,
                          const std::vector<std::uint8_t> &payload) {
        std::vector<std::uint8_t> b;
        put32(b, trace::kTraceMagic);
        put32(b, trace::kTraceVersion);
        put32(b, 0);
        put32(b, resilience::crc32(b.data(), 12));
        putBlock(b, trace::kBlockRecords, count, payload);
        std::vector<std::uint8_t> end(16, 0);
        end[0] = static_cast<std::uint8_t>(count); // totalRecords.
        putBlock(b, trace::kBlockEnd, 0, end);
        resilience::atomicWriteFile(path, b);
    };

    // The hand-built layout itself reads back: a write after a
    // 200-instruction gap (a varint) at 42, then reads 2 bytes apart.
    writeTrace(4, {0xff, 0xc8, 0x01, 0x2a, 0x00, 0x04, 0x00, 0x04, 0x00,
                   0x04});
    {
        trace::TraceReader rd(path);
        cpu::TraceRecord r;
        ASSERT_TRUE(rd.next(r));
        EXPECT_TRUE(r.isWrite);
        EXPECT_EQ(r.nonMemInsts, 200u);
        EXPECT_EQ(r.addr, 42u);
        for (Addr a = 44; a <= 48; a += 2) {
            ASSERT_TRUE(rd.next(r));
            EXPECT_FALSE(r.isWrite);
            EXPECT_EQ(r.nonMemInsts, 0u);
            EXPECT_EQ(r.addr, a);
        }
        EXPECT_FALSE(rd.next(r));
    }

    auto expectMalformed = [&](std::uint32_t count,
                               const std::vector<std::uint8_t> &payload,
                               const std::string &why) {
        SCOPED_TRACE(why);
        writeTrace(count, payload);
        trace::TraceReader rd(path);
        cpu::TraceRecord r;
        try {
            rd.next(r);
            FAIL() << "expected MalformedTrace from the first next()";
        } catch (const SimError &e) {
            EXPECT_EQ(e.kind(), ErrorKind::MalformedTrace);
            EXPECT_NE(std::string(e.what()).find(why), std::string::npos)
                << e.what();
        }
    };
    // `head`, then a read with no compute gap whose address varint
    // opens with nine zero groups and goes on with `tail`.
    auto addrVarint = [](std::vector<std::uint8_t> head,
                         std::initializer_list<std::uint8_t> tail) {
        head.push_back(0x00);
        for (int i = 0; i < 9; ++i)
            head.push_back(0x80);
        for (std::uint8_t b : tail)
            head.push_back(b);
        return head;
    };
    // Bit 64 set in the tenth byte.
    expectMalformed(1, addrVarint({}, {0x02}), "overflows 64 bits");
    // A payload bit past the tenth byte, behind a zero bit 63.
    expectMalformed(1, addrVarint({}, {0x80, 0x01}), "overflows 64 bits");
    expectMalformed(1, addrVarint({}, {0x81, 0x80, 0x40}),
                    "overflows 64 bits");
    // A 2^35 - 1 compute gap, then two good records.
    expectMalformed(3,
                    {0x7f, 0xff, 0xff, 0xff, 0xff, 0x7f, 0x00, 0x00, 0x02,
                     0x00, 0x02},
                    "gap overflows 32 bits");
    expectMalformed(1, {0x00, 0x80}, "runs past block payload");
    // The second record is bad; the first must not be handed out.
    expectMalformed(2, addrVarint({0x00, 0x2a}, {0x02}),
                    "overflows 64 bits");
    expectMalformed(2, {0x00, 0x2a, 0x00, 0xff}, "runs past block payload");
    expectMalformed(2, {0x00, 0x2a}, "shorter than its record count");
    expectMalformed(1, {0x00, 0x2a, 0x00}, "trailing bytes");

    std::remove(path.c_str());
}

TEST(TraceFormat, GarbageFuzzCorpusNeverCrashesOrSucceeds)
{
    // Seeded random bytes behind a valid header: every sample must be
    // rejected with a structured SimError (CRC makes an accidental
    // pass a ~2^-32 event), never crash, hang, or decode quietly.
    const std::string path = tmpPath("fuzz");
    for (std::uint64_t seed = 1; seed <= 40; ++seed) {
        // Valid 16-byte header...
        std::vector<std::uint8_t> bytes(16);
        std::uint32_t magic = trace::kTraceMagic,
                      version = trace::kTraceVersion, flags = 0;
        std::memcpy(bytes.data() + 0, &magic, 4);
        std::memcpy(bytes.data() + 4, &version, 4);
        std::memcpy(bytes.data() + 8, &flags, 4);
        std::uint32_t crc = resilience::crc32(bytes.data(), 12);
        std::memcpy(bytes.data() + 12, &crc, 4);
        // ...then garbage.
        Rng rng(seed);
        std::size_t n = 1 + rng.below(400);
        for (std::size_t i = 0; i < n; ++i)
            bytes.push_back(static_cast<std::uint8_t>(rng.next64()));
        resilience::atomicWriteFile(path, bytes);

        cpu::TraceRecord r;
        bool threw = false;
        try {
            trace::TraceReader rd(path);
            for (int guard = 0; guard < 100000 && rd.next(r); ++guard) {
            }
        } catch (const SimError &e) {
            threw = true;
            EXPECT_TRUE(e.kind() == ErrorKind::MalformedTrace ||
                        e.kind() == ErrorKind::TraceIo)
                << "seed " << seed;
        }
        EXPECT_TRUE(threw) << "seed " << seed << " decoded garbage";
    }
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Replay equivalence: the ISSUE-7 acceptance matrix.

SimConfig
replayConfig(int cores, int channels, KernelMode kernel)
{
    SimConfig cfg;
    cfg.nCores = cores;
    cfg.channels = channels;
    cfg.ctrl.rowPolicy = ctrl::RowPolicy::Closed;
    cfg.targetInsts = 6000;
    cfg.warmupInsts = 1000;
    cfg.kernel = kernel;
    cfg.finalizeChargeCache();
    return cfg;
}

Addr
capacityLinesOf(const SimConfig &cfg)
{
    return dram::AddressMapper(cfg.buildSpec().org, cfg.mapping)
        .numLines();
}

TEST(TraceReplay, EveryWorkloadBitIdenticalToInProcess)
{
    // Every named synthetic profile: record the generator to a file,
    // replay it, and demand the full SystemResult matches in-process
    // generation bit for bit. 16k records per 7k-instruction run means
    // the finite file never wraps.
    const SimConfig cfg = replayConfig(1, 1, KernelMode::Calendar);
    const Addr capacity = capacityLinesOf(cfg);
    for (const auto &profile : workloads::allProfiles()) {
        const std::string path = tmpPath("wl_" + profile.name);
        trace::writeSyntheticTrace(profile.name, cfg.seed, 0, 1,
                                   capacity, path, 16000);
        System inproc(cfg, std::vector<std::string>{profile.name});
        trace::TraceReplaySource src(path);
        System replay(cfg, std::vector<cpu::TraceSource *>{&src});
        expectIdenticalResults(inproc.run(), replay.run(),
                               profile.name.c_str());
        std::remove(path.c_str());
    }
}

TEST(TraceReplay, KernelMatrix)
{
    // Two cores, four channels: traced replay must agree with the
    // in-process reference across {PerCycle, Calendar}.
    const SimConfig base = replayConfig(2, 4, KernelMode::PerCycle);
    const Addr capacity = capacityLinesOf(base);
    const std::vector<std::string> names = workloads::mixWorkloads(2, 2);

    std::vector<std::string> paths;
    for (int i = 0; i < 2; ++i) {
        paths.push_back(tmpPath("mx" + std::to_string(i)));
        trace::writeSyntheticTrace(names[i], base.seed, i, 2, capacity,
                                   paths[i], 16000);
    }
    auto runReplay = [&](SimConfig cfg) {
        trace::TraceReplaySource t0(paths[0]);
        trace::TraceReplaySource t1(paths[1]);
        System sys(cfg, std::vector<cpu::TraceSource *>{&t0, &t1});
        return sys.run();
    };

    System ref_sys(base, names);
    const SystemResult ref = ref_sys.run();

    for (KernelMode k : {KernelMode::PerCycle, KernelMode::Calendar}) {
        SimConfig cfg = replayConfig(2, 4, k);
        applyEnvParanoia(cfg);
        expectIdenticalResults(ref, runReplay(cfg), kernelModeName(k));
    }
    for (const auto &p : paths)
        std::remove(p.c_str());
}

TEST(TraceReplay, CheckpointResumeThroughReplayedTrace)
{
    // The PR-6 hooks ride the replay source: interrupt a traced run at
    // a checkpoint, resume it in a fresh System over a fresh reader,
    // and land bit-identical to the uninterrupted run.
    const SimConfig cfg = replayConfig(1, 1, KernelMode::Calendar);
    const Addr capacity = capacityLinesOf(cfg);
    const std::string path = tmpPath("ckpt");
    trace::writeSyntheticTrace("tpch6", cfg.seed, 0, 1, capacity, path,
                               16000);

    trace::TraceReplaySource s0(path);
    System uninterrupted(cfg, std::vector<cpu::TraceSource *>{&s0});
    const SystemResult ref = uninterrupted.run();

    std::vector<std::uint8_t> snap;
    trace::TraceReplaySource s1(path);
    System first(cfg, std::vector<cpu::TraceSource *>{&s1});
    first.setCheckpointHook(4000, 0, [&](System &s) {
        snap = s.serializeSnapshot();
        return false; // Stop here.
    });
    try {
        first.run();
        FAIL() << "expected Interrupted";
    } catch (const SimError &e) {
        EXPECT_EQ(e.kind(), ErrorKind::Interrupted);
    }
    ASSERT_FALSE(snap.empty());

    trace::TraceReplaySource s2(path);
    System resumed(cfg, std::vector<cpu::TraceSource *>{&s2});
    resumed.restoreSnapshot(snap);
    expectIdenticalResults(ref, resumed.run(), "resumed replay");
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------
// Datacenter generators.

TEST(Datacenter, GeneratorsAreDeterministic)
{
    for (const char *name :
         {"kv-zipf", "web-fanout", "analytics-scan"}) {
        SCOPED_TRACE(name);
        auto a = trace::makeDatacenterSource(name, 99, 0, 1 << 22);
        auto b = trace::makeDatacenterSource(name, 99, 0, 1 << 22);
        auto c = trace::makeDatacenterSource(name, 100, 0, 1 << 22);
        cpu::TraceRecord ra, rb, rc;
        bool differs = false;
        for (int i = 0; i < 2000; ++i) {
            ASSERT_TRUE(a->next(ra));
            ASSERT_TRUE(b->next(rb));
            ASSERT_TRUE(c->next(rc));
            EXPECT_EQ(ra.addr, rb.addr);
            EXPECT_EQ(ra.nonMemInsts, rb.nonMemInsts);
            EXPECT_EQ(ra.isWrite, rb.isWrite);
            differs |= ra.addr != rc.addr;
        }
        EXPECT_TRUE(differs) << "seed must matter";
        // reset() replays the identical stream.
        a->reset();
        b->reset();
        for (int i = 0; i < 500; ++i) {
            ASSERT_TRUE(a->next(ra));
            ASSERT_TRUE(b->next(rb));
            EXPECT_EQ(ra.addr, rb.addr);
        }
    }
}

TEST(Datacenter, GeneratorsCheckpointAndResume)
{
    for (const char *name :
         {"kv-zipf", "web-fanout", "analytics-scan"}) {
        SCOPED_TRACE(name);
        auto a = trace::makeDatacenterSource(name, 5, 0, 1 << 22);
        cpu::TraceRecord r;
        for (int i = 0; i < 700; ++i)
            ASSERT_TRUE(a->next(r));
        resilience::SnapshotWriter w;
        w.beginSection("src", 1);
        a->saveState(w);
        w.endSection();
        std::vector<cpu::TraceRecord> expect(300);
        for (auto &e : expect)
            ASSERT_TRUE(a->next(e));

        auto b = trace::makeDatacenterSource(name, 5, 0, 1 << 22);
        resilience::SnapshotReader rd(w.bytes());
        rd.openSection("src", 1);
        b->loadState(rd);
        rd.closeSection();
        for (const auto &e : expect) {
            ASSERT_TRUE(b->next(r));
            EXPECT_EQ(r.addr, e.addr);
            EXPECT_EQ(r.nonMemInsts, e.nonMemInsts);
            EXPECT_EQ(r.isWrite, e.isWrite);
        }
    }
}

TEST(Datacenter, ZipfSamplerIsSkewed)
{
    trace::ZipfSampler zipf(1024, 0.99);
    Rng rng(123);
    std::uint64_t rank0 = 0, tail = 0;
    double sum = 0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        std::uint64_t r = zipf.rank(rng);
        ASSERT_LT(r, 1024u);
        sum += static_cast<double>(r);
        rank0 += r == 0;
        tail += r >= 512;
    }
    // theta=0.99 over 1k items: the hottest rank alone dwarfs the
    // whole cold half, and the mean sits far below uniform's 512.
    EXPECT_GT(rank0, static_cast<std::uint64_t>(0.05 * n));
    EXPECT_GT(rank0, tail);
    EXPECT_LT(sum / n, 200.0);
}

TEST(Datacenter, TracedDatacenterStreamDrivesSystem)
{
    // kv-zipf with a small footprint, recorded and replayed through a
    // ChargeCache system: the stream must produce real DRAM traffic
    // and a sane HCRAC hit rate, and replay must match the in-process
    // generator bit for bit here too.
    trace::ZipfianKVConfig kv;
    kv.nKeys = 1 << 12;
    kv.indexLines = 1 << 10;
    kv.phaseRequests = 2000;
    SimConfig cfg = replayConfig(1, 1, KernelMode::Calendar);
    cfg.scheme = Scheme::ChargeCache;
    cfg.finalizeChargeCache();
    const Addr capacity = capacityLinesOf(cfg);

    const std::string path = tmpPath("kv");
    {
        trace::ZipfianKVTrace gen(kv, cfg.seed, 0, capacity);
        trace::writeTrace(gen, path, 16000);
    }
    trace::ZipfianKVTrace inproc_gen(kv, cfg.seed, 0, capacity);
    System inproc(cfg,
                  std::vector<cpu::TraceSource *>{&inproc_gen});
    trace::TraceReplaySource src(path);
    System replay(cfg, std::vector<cpu::TraceSource *>{&src});
    const SystemResult a = inproc.run();
    const SystemResult b = replay.run();
    expectIdenticalResults(a, b, "kv-zipf replay");
    EXPECT_GT(a.activations, 0u);
    EXPECT_GE(a.hcracHitRate, 0.0);
    EXPECT_LE(a.hcracHitRate, 1.0);
    std::remove(path.c_str());
}

} // namespace
} // namespace ccsim::sim
