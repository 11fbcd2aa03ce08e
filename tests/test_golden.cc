/**
 * @file
 * Pinned-result regression test. Kernel-vs-kernel equivalence cannot
 * see a change that moves every kernel alike (the core tick, the
 * LLC-to-controller routing); this test can. It runs the Calendar
 * kernel over a small fixed matrix — {Baseline, ChargeCache} ×
 * {4-core 2-channel closed-row, 1-core open-row} × {VM off, VM on},
 * plus one multi-process VM config whose remaps fire TLB shootdowns —
 * and compares a 64-bit FNV-1a digest over every SystemResult field
 * (tests/system_compare.hh) with constants recorded from a known-good
 * build.
 *
 * A second test digests the bytes of every autosave snapshot of two of
 * those Calendar runs, hooked off the DRAM-boundary grid, so it also
 * catches a change that keeps every result but moves where the
 * kernel's jumps stop.
 *
 * A third test does what the first does for sampled simulation: a
 * single-core and a two-core SampledSimulation over small generated
 * CCTR traces, written with small blocks so each profile pass crosses
 * many blocks, one run coarsened by a small maxIntervals, and the
 * single-core run again under the BIP insertion policy, whose HCRAC
 * draws from its RNG while slices warm. Its digest
 * covers every profiled interval field (signature doubles bit for
 * bit), the cluster count, the instruction totals, every slice and the
 * aggregate.
 *
 * A refactor that is meant to keep results must pass this unedited. A
 * deliberate model change re-records the constants the failure message
 * prints, and says so in its commit.
 */

#include <gtest/gtest.h>
#include <unistd.h>

#include <cinttypes>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "sim/config.hh"
#include "sim/system.hh"
#include "system_compare.hh"
#include "trace/convert.hh"
#include "trace/datacenter.hh"
#include "trace/sampling.hh"

namespace ccsim::sim {
namespace {

enum class Shape { FourCoreClosed, OneCoreOpen, MultiProcess };

struct PinnedCase {
    const char *name;
    Shape shape;
    Scheme scheme;
    bool vm;
    std::uint64_t digest;
    /** fieldPrint() of the recorded result: names the first field that
        moved when the digest does. */
    const char *print;
};

const PinnedCase kCases[] = {
    {"Baseline/4c2ch-closed/vm-off", Shape::FourCoreClosed,
     Scheme::Baseline, false, 0x44b18e37b179f9a8ull,
     "41bc45ecfe979bc5c5c53cb4c59ba2118391115ac599c5c5c5c5c5c5c5c5c5c5"
     "c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c9071ac5c5f9c58684c510c866c583"
     "0a0a0a0a0a0a830818a8b8e545b7"},
    {"Baseline/4c2ch-closed/vm-on", Shape::FourCoreClosed,
     Scheme::Baseline, true, 0x2072dc9bdc105410ull,
     "41d17152d997c4c5c5c5dfb1c5c453bb93312cb1c58868c0c5c5c5515c7146c5"
     "210649d31cc5c5c5c5c5c5c5c5c5c565c54236b1c5c535c57724c5b61cbfc583"
     "222222222222830818a8b8e545f8"},
    {"Baseline/1c1ch-open/vm-off", Shape::OneCoreOpen, Scheme::Baseline,
     false, 0xa42e51820fad8427ull,
     "a427554ac5c5c5b6a9c54aa5c50752b420c5adc5c5c5c5c5c5c5c5c5c5c5c5c5"
     "c5c5c5c5c5c5c5c5c5c5c5c5c5c5c862a9c5c53cc507d8c5e7ca49c583e4e4e4"
     "e4e4e4830818a8b8e54577"},
    {"Baseline/1c1ch-open/vm-on", Shape::OneCoreOpen, Scheme::Baseline,
     true, 0xc88faea507fa31a9ull,
     "a4df84fdc5c5c5d2e6c5fdaac562317353c5a3e887c5c5c5c5e87228c59d2f4d"
     "f62ec5c5c5c5c5c5c5c5c5c58cc570cc54c5c5c5c5efa8c5ba9f67c583171717"
     "171717830818a8b8e545fb"},
    {"ChargeCache/4c2ch-closed/vm-off", Shape::FourCoreClosed,
     Scheme::ChargeCache, false, 0xaa6a7d4ee6dbbbd4ull,
     "41523433f745038080400be1c5030340833f033fc56fc5c5c5c5c5c5c5c5c5c5"
     "c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c5c56e0723c5c5dfc55e54c5104a436e83"
     "404040404040830818a8b8e54570"},
    {"ChargeCache/4c2ch-closed/vm-on", Shape::FourCoreClosed,
     Scheme::ChargeCache, true, 0xcb14d217de1b2e24ull,
     "41165081b7e5156666462ffcc515a757517efc35c5609a0576c5c5513e3d6ec5"
     "236270f51cc5c5c5c5c5c5c5c5c5c5c7c54d70fdc5c54dc5566bc5863f772b83"
     "464646464646830818a8b8e5451d"},
    {"ChargeCache/1c1ch-open/vm-off", Shape::OneCoreOpen,
     Scheme::ChargeCache, false, 0x6ea5c8a4f61635e4ull,
     "a4daa67821217ffcecc578dbc5072128dec5a6c5c5c5c5c5c5c5c5c5c5c5c5c5"
     "c5c5c5c5c5c5c5c5c5c5c5c5c5c5c162ecc5c59ec5209cc5e7894916837f7f7f"
     "7f7f7f830818a8b8e545fe"},
    {"ChargeCache/1c1ch-open/vm-on", Shape::OneCoreOpen,
     Scheme::ChargeCache, true, 0x0359e63fc29ab825ull,
     "a4f2a2fbf4f4aee5e6c5fbb0c5623194f2c537e835cdc5c5c5e87228c59d2f6c"
     "f62ec5c5c5c5c5c5c5c5c5c53ec570cc54c5c5c5c540a8c5ba5b0dc783aeaeae"
     "aeaeae830818a8b8e54582"},
    {"ChargeCache/4c2ch-closed/multi-process", Shape::MultiProcess,
     Scheme::ChargeCache, true, 0x319b81600cbc3633ull,
     "4185e9d68de905b2b24896b6c5058b47d53ccb07c545f9e20dc5c5414579ec57"
     "f39fec970789d7d75af321c582a2c57e3e48e2b6c5c583c5d76bc537e3de9a83"
     "484848484848830818a8b8e5450b"},
};

SimConfig
configFor(const PinnedCase &c)
{
    SimConfig cfg = c.shape == Shape::OneCoreOpen ? SimConfig::singleCore()
                                                  : SimConfig::eightCore();
    cfg.scheme = c.scheme;
    cfg.ctrl.trackRltl = true;
    cfg.cc.trackUnlimited = true;
    if (c.shape == Shape::OneCoreOpen) {
        cfg.targetInsts = 20000;
        cfg.warmupInsts = 4000;
    } else {
        cfg.nCores = 4;
        cfg.targetInsts = 8000;
        cfg.warmupInsts = 1000;
    }
    if (c.vm) {
        cfg.vm.enable = true;
        cfg.vm.alloc = vm::PageAlloc::Fragmented;
        cfg.vm.fragDegree = 0.8;
        // A small L2 TLB keeps walks frequent at test scale.
        cfg.vm.l2Entries = 64;
        cfg.vm.l2Ways = 4;
    }
    if (c.shape == Shape::MultiProcess) {
        cfg.vm.l1Entries = 16;
        cfg.vm.l1Ways = 4;
        cfg.vm.mp.processes = 2;
        cfg.vm.mp.switchQuantum = 700;
        cfg.vm.mp.remapPeriod = 12;
        cfg.vm.mp.shootdownCycles = 64;
        cfg.vm.pwc.enable = true;
    }
    cfg.finalizeChargeCache();
    test::applyEnvParanoia(cfg);
    return cfg;
}

std::vector<std::string>
workloadsFor(Shape shape)
{
    switch (shape) {
      case Shape::FourCoreClosed:
        return {"mcf", "tpch6", "apache20", "STREAMcopy"};
      case Shape::OneCoreOpen:
        return {"apache20"};
      case Shape::MultiProcess:
        return {"mcf", "omnetpp", "tpcc64", "apache20"};
    }
    return {};
}

/** One byte (two hex digits) per field: the low byte of its digest. */
std::string
fieldPrint(const std::vector<test::ResultField> &fields)
{
    std::string out;
    for (const test::ResultField &f : fields) {
        char hex[3];
        std::snprintf(hex, sizeof hex, "%02x",
                      unsigned(test::resultDigest({f}) & 0xff));
        out += hex;
    }
    return out;
}

/** Name of the first field whose fingerprint differs from `pinned`. */
std::string
firstMovedField(const std::vector<test::ResultField> &fields,
                const std::string &pinned)
{
    const std::string now = fieldPrint(fields);
    for (std::size_t i = 0; i < fields.size(); ++i) {
        if (2 * i + 2 > pinned.size())
            return fields[i].name + " (the pinned walk is shorter)";
        if (now.compare(2 * i, 2, pinned, 2 * i, 2) != 0)
            return fields[i].name + " = " + fields[i].text;
    }
    if (now.size() != pinned.size())
        return "none (the pinned walk is longer)";
    return "none identifiable (every field fingerprint collides)";
}

/** The re-record line for kCases, print split into 64-digit literals. */
std::string
recordLine(const std::vector<test::ResultField> &fields,
           std::uint64_t digest)
{
    char head[40];
    std::snprintf(head, sizeof head, "0x%016" PRIx64 "ull,", digest);
    std::string out = head;
    const std::string print = fieldPrint(fields);
    for (std::size_t i = 0; i < print.size(); i += 64)
        out += "\n     \"" + print.substr(i, 64) + "\"";
    return out;
}

TEST(GoldenResults, CalendarMatchesPinnedDigests)
{
    for (const PinnedCase &c : kCases) {
        SCOPED_TRACE(c.name);
        System sys(configFor(c), workloadsFor(c.shape));
        const SystemResult res = sys.run();
        if (c.shape == Shape::MultiProcess) {
            EXPECT_GT(res.vm.shootdownsSent, 0u);
            EXPECT_GT(res.shootdownStallCycles, 0u);
        }
        const std::vector<test::ResultField> fields =
            test::resultFields(res);
        const std::uint64_t digest = test::resultDigest(fields);
        if (digest == c.digest)
            continue;
        ADD_FAILURE() << "result digest moved; first differing field: "
                      << firstMovedField(fields, c.print)
                      << "\nnew digest and field print: "
                      << recordLine(fields, digest);
    }
}

TEST(GoldenResults, CalendarSnapshotsMatchPinnedDigest)
{
    // An autosave fires at the first cycle the Calendar kernel visits
    // at or past its due cycle, so its bytes pin where the kernel's
    // jumps stop, which no result digest sees. The prime interval keeps
    // the fires off the DRAM-boundary grid. The multi-process case is
    // the only one whose parked cores post wakes.
    const struct {
        const char *name;
        std::uint64_t digest;
    } pins[] = {
        {"ChargeCache/4c2ch-closed/vm-off", 0x628b002622db9266ull},
        {"ChargeCache/4c2ch-closed/multi-process", 0x5df8ab5724bdcbfaull},
    };
    for (const auto &pin : pins) {
        SCOPED_TRACE(pin.name);
        const PinnedCase *c = nullptr;
        for (const PinnedCase &k : kCases)
            if (std::strcmp(k.name, pin.name) == 0)
                c = &k;
        ASSERT_NE(c, nullptr);
        SimConfig cfg = configFor(*c);
        cfg.kernelParanoid = false; // The fires must land where it jumps.
        System sys(cfg, workloadsFor(c->shape));
        std::uint64_t digest = 0xcbf29ce484222325ull; // FNV-1a, 64-bit.
        int snapshots = 0;
        sys.setCheckpointHook(5000, 7919, [&](System &s) {
            for (std::uint8_t b : s.serializeSnapshot()) {
                digest ^= b;
                digest *= 0x100000001b3ull;
            }
            ++snapshots;
            return true;
        });
        sys.run();
        EXPECT_GE(snapshots, 10);
        char hex[24];
        std::snprintf(hex, sizeof hex, "0x%016" PRIx64 "ull", digest);
        EXPECT_EQ(digest, pin.digest)
            << "snapshot digest moved over " << snapshots
            << " snapshots; new: " << hex;
    }
}

/**
 * Every SampledResult field in a fixed order. Slices and the aggregate
 * enter as their SystemResult digests.
 */
std::vector<test::ResultField>
sampledFields(const trace::SampledResult &s)
{
    std::vector<test::ResultField> out;
    auto u64 = [&out](std::string name, std::uint64_t v) {
        out.push_back({std::move(name), v, std::to_string(v)});
    };
    auto f64 = [&u64](std::string name, double v) {
        std::uint64_t bits;
        std::memcpy(&bits, &v, sizeof v);
        u64(std::move(name), bits);
    };
    auto digestOf = [](const SystemResult &r) {
        return test::resultDigest(test::resultFields(r));
    };

    u64("intervals.size", s.intervals.size());
    for (std::size_t i = 0; i < s.intervals.size(); ++i) {
        const trace::IntervalInfo &iv = s.intervals[i];
        const std::string at = "intervals[" + std::to_string(i) + "].";
        u64(at + "cores.size", iv.cores.size());
        for (const trace::IntervalInfo::PerCore &pc : iv.cores) {
            u64(at + "startRecord", pc.startRecord);
            u64(at + "startInst", pc.startInst);
            u64(at + "warmStartRecord", pc.warmStartRecord);
            u64(at + "warmStartInst", pc.warmStartInst);
            u64(at + "cores.insts", pc.insts);
            u64(at + "cores.records", pc.records);
        }
        u64(at + "insts", iv.insts);
        u64(at + "records", iv.records);
        u64(at + "signature.size", iv.signature.size());
        for (double v : iv.signature)
            f64(at + "signature", v);
        u64(at + "cluster", static_cast<std::uint64_t>(iv.cluster));
    }
    u64("clusters", static_cast<std::uint64_t>(s.clusters));
    u64("totalInsts", s.totalInsts);
    u64("detailedInsts", s.detailedInsts);
    u64("functionalInsts", s.functionalInsts);
    u64("slices.size", s.slices.size());
    for (std::size_t i = 0; i < s.slices.size(); ++i) {
        const trace::SampledSlice &sl = s.slices[i];
        const std::string at = "slices[" + std::to_string(i) + "].";
        u64(at + "interval", sl.interval);
        f64(at + "weight", sl.weight);
        u64(at + "coreWeight.size", sl.coreWeight.size());
        for (double w : sl.coreWeight)
            f64(at + "coreWeight", w);
        u64(at + "measuredInsts", sl.measuredInsts);
        u64(at + "result", digestOf(sl.result));
    }
    u64("aggregate", digestOf(s.aggregate));
    return out;
}

struct PinnedSampledCase {
    const char *name;
    /** Datacenter generator per core (trace::makeDatacenterSource). */
    std::vector<const char *> generators;
    std::uint64_t records;       ///< Per trace.
    std::uint32_t recordsPerBlock;
    trace::SamplingConfig sampling;
    /** HCRAC insertion policy; BIP is the one that draws from its RNG. */
    chargecache::InsertPolicy policy;
    std::uint64_t digest;
};

trace::SamplingConfig
pinnedSampling(std::uint64_t interval, std::uint64_t warmup,
               std::uint64_t func_warm, std::uint32_t max_intervals)
{
    trace::SamplingConfig sc;
    sc.intervalInsts = interval;
    sc.warmupInsts = warmup;
    sc.functionalWarmInsts = func_warm;
    sc.maxClusters = 3;
    sc.maxIntervals = max_intervals;
    return sc;
}

TEST(GoldenResults, SampledMatchesPinnedDigests)
{
    const PinnedSampledCase cases[] = {
        {"1c/kv-zipf", {"kv-zipf"}, 40000, 64,
         pinnedSampling(20000, 4000, 30000, 4096),
         chargecache::InsertPolicy::Lru, 0x4a9fccdd595abdc1ull},
        {"2c/analytics+web/coarsened", {"analytics-scan", "web-fanout"},
         30000, 100, pinnedSampling(10000, 2000, 20000, 6),
         chargecache::InsertPolicy::Lru, 0x4bb14241d3bdd6cbull},
        {"1c/kv-zipf/bip", {"kv-zipf"}, 40000, 64,
         pinnedSampling(20000, 4000, 30000, 4096),
         chargecache::InsertPolicy::Bip, 0x70ccf25796b5bb90ull},
    };
    for (const PinnedSampledCase &c : cases) {
        SCOPED_TRACE(c.name);
        const int n = static_cast<int>(c.generators.size());
        std::vector<std::string> paths;
        for (int i = 0; i < n; ++i) {
            paths.push_back(::testing::TempDir() + "ccsim_golden_" +
                            std::to_string(i) + "_" +
                            std::to_string(::getpid()) + ".cctr");
            auto gen = trace::makeDatacenterSource(
                c.generators[i], 11 + i, static_cast<Addr>(i) << 21,
                1 << 22);
            trace::writeTrace(*gen, paths.back(), c.records,
                              c.recordsPerBlock);
        }
        SimConfig cfg = SimConfig::singleCore();
        cfg.nCores = n;
        cfg.scheme = Scheme::ChargeCache;
        cfg.cc.trackUnlimited = true;
        cfg.cc.table.policy = c.policy;
        cfg.finalizeChargeCache();
        test::applyEnvParanoia(cfg);
        const trace::SampledResult res =
            trace::SampledSimulation(cfg, paths, c.sampling).run();
        for (const std::string &p : paths)
            std::remove(p.c_str());

        EXPECT_GE(res.slices.size(), 2u);
        EXPECT_GT(res.functionalInsts, 0u);
        if (c.sampling.maxIntervals < 16) { // The profile must coarsen.
            EXPECT_GE(res.intervals.at(0).cores.at(0).insts,
                      2 * c.sampling.intervalInsts);
        }
        const std::uint64_t digest = test::resultDigest(sampledFields(res));
        char hex[24];
        std::snprintf(hex, sizeof hex, "0x%016" PRIx64 "ull", digest);
        EXPECT_EQ(digest, c.digest) << "sampled digest moved; new: " << hex;
    }
}

} // namespace
} // namespace ccsim::sim
