/**
 * @file
 * Shared kernel-equivalence scaffolding: the SystemResult field walk
 * behind the bit-identical comparators and the pinned digests
 * (tests/test_golden.cc), plus the CCSIM_PARANOID env upgrade.
 */

#ifndef CCSIM_TESTS_SYSTEM_COMPARE_HH
#define CCSIM_TESTS_SYSTEM_COMPARE_HH

#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "sim/config.hh"
#include "sim/system.hh"

namespace ccsim::test {

/**
 * CCSIM_PARANOID=1 (the dedicated CI job) upgrades every optimised
 * kernel under test to its shadow-validation mode: all skip decisions
 * are executed-and-asserted instead of taken on faith, and the
 * calendar kernel's wake queue and controller horizons are
 * cross-checked against the per-cycle schedule.
 */
inline bool
envParanoid()
{
    const char *v = std::getenv("CCSIM_PARANOID");
    return v && *v && *v != '0';
}

inline void
applyEnvParanoia(sim::SimConfig &cfg)
{
    if (cfg.kernel != sim::KernelMode::PerCycle && envParanoid())
        cfg.kernelParanoid = true;
}

/** One SystemResult field as resultFields() walks it. */
struct ResultField {
    std::string name;
    std::uint64_t bits = 0; ///< Exact value bits (doubles bit-cast).
    std::string text;       ///< Printable value.
};

/**
 * Every SystemResult field, in a fixed order. The one definition of
 * "the result" shared by expectIdenticalResults and the pinned digests
 * (tests/test_golden.cc), so a new field cannot be compared by one and
 * missed by the other: add it here and both see it.
 */
inline std::vector<ResultField>
resultFields(const sim::SystemResult &r)
{
    std::vector<ResultField> out;
    auto u64 = [&out](std::string name, std::uint64_t v) {
        out.push_back({std::move(name), v, std::to_string(v)});
    };
    auto f64 = [&out](std::string name, double v) {
        ResultField f{std::move(name), 0, ""};
        std::memcpy(&f.bits, &v, sizeof v);
        char buf[40];
        std::snprintf(buf, sizeof buf, "%.17g", v);
        f.text = buf;
        out.push_back(std::move(f));
    };
    auto at = [](const char *base, std::size_t i) {
        return std::string(base) + "[" + std::to_string(i) + "]";
    };

    u64("ipc.size", r.ipc.size());
    for (std::size_t i = 0; i < r.ipc.size(); ++i)
        f64(at("ipc", i), r.ipc[i]);
    u64("cpuCycles", r.cpuCycles);
    u64("activations", r.activations);
    f64("providerHitRate", r.providerHitRate);
    f64("hcracHitRate", r.hcracHitRate);
    f64("unlimitedHitRate", r.unlimitedHitRate);
    f64("rmpkc", r.rmpkc);

    const ctrl::CtrlStats &c = r.ctrl;
    u64("ctrl.reads", c.reads);
    u64("ctrl.writes", c.writes);
    u64("ctrl.acts", c.acts);
    u64("ctrl.pres", c.pres);
    u64("ctrl.autoPres", c.autoPres);
    u64("ctrl.refs", c.refs);
    u64("ctrl.rowHits", c.rowHits);
    u64("ctrl.rowMisses", c.rowMisses);
    u64("ctrl.rowConflicts", c.rowConflicts);
    u64("ctrl.readForwards", c.readForwards);
    u64("ctrl.readLatencySum", c.readLatencySum);
    u64("ctrl.ptwReads", c.ptwReads);
    u64("ctrl.ptwActs", c.ptwActs);
    u64("ctrl.ptwActHits", c.ptwActHits);
    for (std::size_t l = 0; l < 4; ++l)
        u64(at("ctrl.ptwReadsByLevel", l), c.ptwReadsByLevel[l]);

    const vm::VmStats &v = r.vm;
    u64("vm.lookups", v.lookups);
    u64("vm.l1Hits", v.l1Hits);
    u64("vm.l2Hits", v.l2Hits);
    u64("vm.walks", v.walks);
    u64("vm.pteFetches", v.pteFetches);
    u64("vm.walkCycleSum", v.walkCycleSum);
    u64("vm.pagesMapped", v.pagesMapped);
    u64("vm.ptTables", v.ptTables);
    u64("vm.contextSwitches", v.contextSwitches);
    u64("vm.remaps", v.remaps);
    u64("vm.shootdownsSent", v.shootdownsSent);
    u64("vm.shootdownsReceived", v.shootdownsReceived);
    u64("vm.pwcLookups", v.pwcLookups);
    u64("vm.pwcSkippedFetches", v.pwcSkippedFetches);
    for (std::size_t l = 0; l < v.pwcHitsByLevel.size(); ++l)
        u64(at("vm.pwcHitsByLevel", l), v.pwcHitsByLevel[l]);
    u64("xlatStallCycles", r.xlatStallCycles);
    u64("shootdownStallCycles", r.shootdownStallCycles);

    const mem::LlcStats &l = r.llc;
    u64("llc.accesses", l.accesses);
    u64("llc.hits", l.hits);
    u64("llc.misses", l.misses);
    u64("llc.mshrMerges", l.mshrMerges);
    u64("llc.writebacks", l.writebacks);
    u64("llc.blockedMshr", l.blockedMshr);
    u64("llc.blockedMemQueue", l.blockedMemQueue);

    const energy::EnergyBreakdown &e = r.energy;
    f64("energy.actPreNj", e.actPreNj);
    f64("energy.readNj", e.readNj);
    f64("energy.writeNj", e.writeNj);
    f64("energy.refreshNj", e.refreshNj);
    f64("energy.actStandbyNj", e.actStandbyNj);
    f64("energy.preStandbyNj", e.preStandbyNj);
    f64("energy.controllerNj", e.controllerNj);

    u64("rltl.size", r.rltl.size());
    for (std::size_t i = 0; i < r.rltl.size(); ++i)
        f64(at("rltl", i), r.rltl[i]);
    u64("rltlWindowsMs.size", r.rltlWindowsMs.size());
    for (std::size_t i = 0; i < r.rltlWindowsMs.size(); ++i)
        f64(at("rltlWindowsMs", i), r.rltlWindowsMs[i]);
    f64("afterRefresh8ms", r.afterRefresh8ms);
    return out;
}

/** 64-bit FNV-1a over the walked value bits, 8 little-endian bytes each. */
inline std::uint64_t
resultDigest(const std::vector<ResultField> &fields)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (const ResultField &f : fields)
        for (int byte = 0; byte < 8; ++byte) {
            h ^= (f.bits >> (8 * byte)) & 0xff;
            h *= 0x100000001b3ull;
        }
    return h;
}

/** Every field of SystemResult must agree bit for bit. */
inline void
expectIdenticalResults(const sim::SystemResult &a,
                       const sim::SystemResult &b, const char *label)
{
    SCOPED_TRACE(label);
    const std::vector<ResultField> fa = resultFields(a);
    const std::vector<ResultField> fb = resultFields(b);
    for (std::size_t i = 0; i < fa.size() && i < fb.size(); ++i) {
        // A vector-length mismatch (reported by its ".size" field)
        // misaligns the names after it; stop there instead of
        // cascading.
        ASSERT_EQ(fa[i].name, fb[i].name);
        EXPECT_EQ(fa[i].bits, fb[i].bits)
            << fa[i].name << ": " << fa[i].text << " vs " << fb[i].text;
    }
    EXPECT_EQ(fa.size(), fb.size());
}

/** Per-core statistics must also agree (park/wake bulk accounting). */
inline void
expectIdenticalCoreStats(sim::System &a, sim::System &b, int cores,
                         const char *label)
{
    SCOPED_TRACE(label);
    for (int i = 0; i < cores; ++i) {
        const cpu::CoreStats &sa = a.core(i).stats();
        const cpu::CoreStats &sb = b.core(i).stats();
        EXPECT_EQ(sa.retired, sb.retired) << "core " << i;
        EXPECT_EQ(sa.memReads, sb.memReads) << "core " << i;
        EXPECT_EQ(sa.memWrites, sb.memWrites) << "core " << i;
        EXPECT_EQ(sa.stallCyclesFull, sb.stallCyclesFull) << "core " << i;
        EXPECT_EQ(sa.blockedAccesses, sb.blockedAccesses) << "core " << i;
        EXPECT_EQ(sa.xlatStallCycles, sb.xlatStallCycles) << "core " << i;
        EXPECT_EQ(sa.shootdownStallCycles, sb.shootdownStallCycles)
            << "core " << i;
    }
}

} // namespace ccsim::test

#endif // CCSIM_TESTS_SYSTEM_COMPARE_HH
