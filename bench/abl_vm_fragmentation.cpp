/**
 * @file
 * Ablation: how the virtual->physical page mapping shapes ChargeCache.
 *
 * Sweeps the page allocator — Contiguous, Fragmented at increasing
 * shuffle degrees, HugePage(2MB) — over multiprogrammed 4-core mixes
 * with the full VM subsystem enabled (per-core two-level TLBs + radix
 * page-table walks injected as real DRAM reads). Reports, per point:
 *
 *   - HCRAC hit rate: the quantity fragmentation destroys (adjacent
 *     virtual pages scatter across unrelated rows, so row revisits
 *     spread over more distinct rows and thrash the table);
 *   - PTW-row HCRAC hits: how often the walker's own rows re-activate
 *     within the caching duration (page-table locality is real row
 *     locality — walks are DRAM traffic, not magic);
 *   - TLB miss rate / average walk latency / IPC.
 *
 * Emits BENCH_vm.json (JSON lines: one record per allocator point plus
 * a trailing summary whose `monotone_drop` flags the acceptance
 * property — HCRAC hit rate falling monotonically from Contiguous
 * through Fragmented(1.0)). Appends the summary to the file named by
 * CCSIM_BENCH_TRAJECTORY when set, following BENCH_kernel.json's
 * JSONL-trajectory convention.
 *
 * With CCSIM_VM_GATE=1 (the CI perf-trajectory job) the run exits
 * non-zero when either trajectory invariant regresses, mirroring
 * CCSIM_KERNEL_GATE:
 *   - the HCRAC-hit monotone-drop invariant (`monotone_drop`) fails, or
 *   - the huge-page IPC uplift over the contiguous 4K baseline falls
 *     below kMinHugePageUplift (1.10x; the sweep measures ~1.2-1.3x).
 *
 * Scale via CCSIM_VM_INSTS (default 40000 insts/core; CI smoke uses
 * less), CCSIM_VM_MIXES (default 2) and CCSIM_THREADS.
 */

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

// Gate floor on the huge-page IPC uplift. The sweep is deterministic
// at a fixed CCSIM_VM_INSTS and measures ~1.24x at CI smoke scale, so
// 1.10 leaves real margin; a reading below it is a regression.
constexpr double kMinHugePageUplift = 1.10;

struct AllocPoint {
    vm::PageAlloc alloc;
    double degree; ///< Fragmented only.
    const char *label;
};

struct PointResult {
    double hcracHitRate = 0;
    double providerHitRate = 0;
    double ipcSum = 0;
    double tlbMissRate = 0;
    double avgWalkCycles = 0;
    std::uint64_t ptwReads = 0;
    std::uint64_t ptwActs = 0;
    std::uint64_t ptwActHits = 0;
    std::uint64_t walks = 0;
    std::uint64_t pagesMapped = 0;
};

sim::SimConfig
vmConfig(const AllocPoint &p, std::uint64_t insts)
{
    sim::SimConfig cfg = sim::SimConfig::eightCore();
    cfg.nCores = 4;
    cfg.scheme = sim::Scheme::ChargeCache;
    cfg.targetInsts = insts;
    cfg.warmupInsts = insts / 8;
    cfg.vm.enable = true;
    cfg.vm.alloc = p.alloc;
    cfg.vm.fragDegree = p.degree;
    cfg.finalizeChargeCache();
    return cfg;
}

} // namespace

int
main()
{
    bench::printHeader("abl_vm_fragmentation",
                       "VM page-allocation ablation: mapping vs "
                       "ChargeCache row locality (RLTL paper Sec. 2; "
                       "Virtuoso-style translation stack)");

    const std::uint64_t insts = envU64("CCSIM_VM_INSTS", 40000);
    const int mixes =
        static_cast<int>(envU64("CCSIM_VM_MIXES", 2));

    const std::vector<AllocPoint> points = {
        {vm::PageAlloc::Contiguous, 0.0, "contiguous"},
        {vm::PageAlloc::Fragmented, 0.25, "frag-0.25"},
        {vm::PageAlloc::Fragmented, 0.50, "frag-0.50"},
        {vm::PageAlloc::Fragmented, 0.75, "frag-0.75"},
        {vm::PageAlloc::Fragmented, 1.00, "frag-1.00"},
        {vm::PageAlloc::HugePage, 0.0, "hugepage-2M"},
    };

    // Working-set metadata via the profile plumbing: pages per mix at
    // both granularities (context for the TLB-reach numbers below).
    for (int mix = 1; mix <= mixes; ++mix) {
        std::uint64_t pages4k = 0, pages2m = 0;
        for (const auto &prof : workloads::mixProfiles(mix, 4)) {
            pages4k += prof.footprintPages(vm::kPageBytes);
            pages2m += prof.footprintPages(vm::kHugePageBytes);
        }
        std::printf("mix w%-2d working set: %llu x 4K pages, "
                    "%llu x 2M pages\n",
                    mix, (unsigned long long)pages4k,
                    (unsigned long long)pages2m);
    }

    // All (allocator x mix) runs through the parallel runner; fold per
    // allocator afterwards.
    std::vector<sim::SystemResult> results =
        sim::runSweep(points.size() * mixes, [&](std::size_t i) {
            const AllocPoint &p = points[i / mixes];
            int mix = static_cast<int>(i % mixes) + 1;
            sim::SimConfig cfg = vmConfig(p, insts);
            sim::System system(cfg,
                               workloads::mixWorkloads(mix, cfg.nCores));
            return system.run();
        });

    std::printf("\n%-12s %10s %10s %9s %10s %10s %12s\n", "allocator",
                "hcrac-hit", "tlb-miss", "ipc-sum", "walk-cyc",
                "ptw-acts", "ptw-act-hits");

    std::vector<PointResult> folded(points.size());
    for (std::size_t pi = 0; pi < points.size(); ++pi) {
        PointResult &f = folded[pi];
        for (int m = 0; m < mixes; ++m) {
            const sim::SystemResult &r = results[pi * mixes + m];
            f.hcracHitRate += r.hcracHitRate / mixes;
            f.providerHitRate += r.providerHitRate / mixes;
            f.ipcSum += r.ipcSum() / mixes;
            f.tlbMissRate += r.vm.missRate() / mixes;
            f.avgWalkCycles += r.vm.avgWalkCycles() / mixes;
            f.ptwReads += r.ctrl.ptwReads;
            f.ptwActs += r.ctrl.ptwActs;
            f.ptwActHits += r.ctrl.ptwActHits;
            f.walks += r.vm.walks;
            f.pagesMapped += r.vm.pagesMapped;
        }
        std::printf("%-12s %10.4f %10.4f %9.3f %10.1f %10llu %12llu\n",
                    points[pi].label, f.hcracHitRate, f.tlbMissRate,
                    f.ipcSum, f.avgWalkCycles,
                    (unsigned long long)f.ptwActs,
                    (unsigned long long)f.ptwActHits);
    }

    // Acceptance property: HCRAC hit rate drops monotonically from
    // Contiguous through the fragmentation degrees (points 0..4; the
    // huge-page point is a separate regime).
    bool monotone = true;
    for (std::size_t pi = 1; pi + 1 < points.size(); ++pi)
        if (folded[pi].hcracHitRate >
            folded[pi - 1].hcracHitRate + 1e-12)
            monotone = false;
    std::printf("\nmonotone hcrac drop contiguous -> frag(1.0): %s\n",
                monotone ? "yes" : "NO");

    auto write_points = [&](std::FILE *f) {
        for (std::size_t pi = 0; pi < points.size(); ++pi) {
            const PointResult &r = folded[pi];
            std::fprintf(
                f,
                "{\"bench\": \"vm_fragmentation\", \"alloc\": \"%s\", "
                "\"frag_degree\": %.2f, \"mixes\": %d, "
                "\"insts_per_core\": %llu, "
                "\"hcrac_hit_rate\": %.6f, \"provider_hit_rate\": %.6f, "
                "\"ipc_sum\": %.4f, \"tlb_miss_rate\": %.6f, "
                "\"avg_walk_cycles\": %.2f, \"walks\": %llu, "
                "\"pages_mapped\": %llu, \"ptw_reads\": %llu, "
                "\"ptw_acts\": %llu, \"ptw_act_hits\": %llu}\n",
                points[pi].label, points[pi].degree, mixes,
                (unsigned long long)insts, r.hcracHitRate,
                r.providerHitRate, r.ipcSum, r.tlbMissRate,
                r.avgWalkCycles, (unsigned long long)r.walks,
                (unsigned long long)r.pagesMapped,
                (unsigned long long)r.ptwReads,
                (unsigned long long)r.ptwActs,
                (unsigned long long)r.ptwActHits);
        }
    };
    // Huge-page IPC uplift over the contiguous 4K baseline — the other
    // gated trajectory invariant (TLB reach + walk elimination must
    // keep paying off).
    const double huge_ipc_uplift =
        folded[0].ipcSum > 0 ? folded[5].ipcSum / folded[0].ipcSum : 0.0;

    auto write_summary = [&](std::FILE *f) {
        std::fprintf(
            f,
            "{\"bench\": \"vm_fragmentation_summary\", "
            "\"insts_per_core\": %llu, \"mixes\": %d, "
            "\"monotone_drop\": %s, "
            "\"hcrac_contiguous\": %.6f, \"hcrac_frag_full\": %.6f, "
            "\"hcrac_hugepage\": %.6f, "
            "\"huge_ipc_uplift\": %.4f}\n",
            (unsigned long long)insts, mixes,
            monotone ? "true" : "false", folded[0].hcracHitRate,
            folded[4].hcracHitRate, folded[5].hcracHitRate,
            huge_ipc_uplift);
    };

    const std::string record = bench::captureRecord([&](std::FILE *f) {
        write_points(f);
        write_summary(f);
    });
    if (!resilience::tryAtomicWriteFile("BENCH_vm.json", record)) {
        std::fprintf(stderr, "cannot write BENCH_vm.json\n");
        return 1;
    }
    std::printf("wrote BENCH_vm.json\n");

    if (const char *traj = std::getenv("CCSIM_BENCH_TRAJECTORY");
        traj && *traj) {
        const std::string summary =
            bench::captureRecord([&](std::FILE *f) { write_summary(f); });
        if (!resilience::tryAtomicAppendFile(traj, summary)) {
            std::fprintf(stderr, "cannot append to %s\n", traj);
            return 1;
        }
        std::printf("appended summary to %s\n", traj);
    }

    // CI regression gate over the two trajectory invariants (mirrors
    // CCSIM_KERNEL_GATE in micro_kernel).
    if (envU64("CCSIM_VM_GATE", 0)) {
        if (!monotone) {
            std::fprintf(stderr,
                         "GATE FAILED: HCRAC hit rate no longer drops "
                         "monotonically contiguous -> frag(1.0)\n");
            return 2;
        }
        if (huge_ipc_uplift < kMinHugePageUplift) {
            std::fprintf(stderr,
                         "GATE FAILED: huge-page IPC uplift %.3fx < "
                         "%.3fx over the contiguous baseline\n",
                         huge_ipc_uplift, kMinHugePageUplift);
            return 2;
        }
        std::printf("vm gate passed: monotone drop holds, huge-page "
                    "uplift %.2fx (threshold %.2f)\n",
                    huge_ipc_uplift, kMinHugePageUplift);
    }
    return 0;
}
