/**
 * @file
 * Ablation: SimPoint-style sampled simulation vs the full run.
 *
 * For each datacenter trace workload (kv-zipf, web-fanout,
 * analytics-scan — src/trace/datacenter.hh), generates a CCTR trace of
 * CCSIM_SAMPLING_INSTS instructions, runs it twice through a
 * single-core ChargeCache system:
 *
 *   - full: every instruction detailed (the ground truth);
 *   - sampled: profile -> cluster -> representative slices with
 *     SMARTS-style functional warming during the fast-forward plus a
 *     short detailed warmup (src/trace/sampling.hh).
 *
 * and reports, per workload: IPC and HCRAC-hit-rate relative error of
 * the sampled estimate, detailed-instruction fraction, and wall-clock
 * speedup. The sampled run's slices execute on a pool of
 * min(slices, CCSIM_THREADS or all hardware threads) workers, so
 * t_sampled_s and the speedup include that parallelism: compare
 * records only at equal prov.hw_threads (and CCSIM_THREADS).
 *
 * A second section runs the paper's 8-core configuration (2 channels,
 * closed-row) on a heterogeneous datacenter mix — cores 0-2 kv-zipf,
 * 3-5 web-fanout, 6-7 analytics-scan, each with a private seed and
 * address-space slice — and validates the multi-core co-phase sampler
 * against the full 8-core run (aggregate IPC throughput and shared
 * HCRAC hit rate). Scale with CCSIM_SAMPLING_MC_INSTS (per-core
 * instructions, default 2.5M -> 20M total; 0 disables the section;
 * the soak dispatch runs 25M -> 200M total).
 *
 * Emits BENCH_sampling.json (JSON lines: one record per workload plus
 * a trailing summary) and appends the summary to the JSONL trajectory
 * named by CCSIM_BENCH_TRAJECTORY, following BENCH_vm.json's
 * conventions.
 *
 * With CCSIM_SAMPLING_GATE=1 (the CI perf-trajectory job) the run
 * exits non-zero when:
 *   - any workload's IPC or HCRAC relative error exceeds
 *     kMaxRelError (3%, the sampler's accuracy target), or
 *   - the all-workload wall-clock speedup falls below
 *     CCSIM_SAMPLING_SPEEDUP (default 10.0; push/PR CI smoke runs at
 *     reduced trace length and sets a lower floor, the
 *     workflow_dispatch soak runs full length with the 10x floor —
 *     speedup scales with trace length at fixed cluster count).
 *
 * Scale via CCSIM_SAMPLING_INSTS (default 20M; the checked-in record
 * was produced at 200M), CCSIM_SAMPLING_INTERVAL (1M),
 * CCSIM_SAMPLING_WARMUP (100k — functional warming carries the cache
 * state, so the detailed lead-in only settles timing),
 * CCSIM_SAMPLING_FUNCWARM (4M; 0 reverts to cold-start fast-forward),
 * CCSIM_SAMPLING_CLUSTERS (6), CCSIM_SAMPLING_MC_INTERVAL (500k).
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "dram/addr.hh"
#include "resilience/io.hh"
#include "trace/datacenter.hh"
#include "trace/format.hh"
#include "trace/replay.hh"
#include "trace/sampling.hh"

namespace {

using namespace ccsim;
using sim::envF64;
using sim::envU64;

// Gate ceiling on every workload's (and the 8-core mix's) sampled IPC
// and HCRAC-hit-rate relative error. The 200M record reads at most
// 1.28%.
constexpr double kMaxRelError = 0.03;

double
now_s()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

sim::SimConfig
samplingConfig()
{
    sim::SimConfig cfg;
    cfg.nCores = 1;
    cfg.channels = 1;
    cfg.scheme = sim::Scheme::ChargeCache;
    cfg.kernel = sim::KernelMode::Calendar;
    cfg.finalizeChargeCache();
    return cfg;
}

/** LLC-busting datacenter configs (see tests/test_sampling.cc: an
    LLC-resident working set turns warmup length into the error
    budget; production serving footprints dwarf a 4 MB LLC anyway). */
std::unique_ptr<cpu::TraceSource>
makeWorkload(const std::string &name, std::uint64_t seed, Addr base,
             Addr capacity)
{
    if (name == "kv-zipf") {
        trace::ZipfianKVConfig kv;
        kv.nKeys = 1 << 15;
        kv.valueLines = 32; // 2 KB values over a 64 MB region: the
                            // HCRAC hit mass is intra-request
                            // (sequential value lines re-hitting the
                            // just-activated row), inside the sampling
                            // validity envelope (docs/traces.md).
        kv.theta = 0.6;
        kv.indexLines = 1 << 14;
        kv.phaseRequests = 40000; // Hot-key churn phases (~3M insts).
        return std::make_unique<trace::ZipfianKVTrace>(kv, seed, base,
                                                       capacity);
    }
    if (name == "web-fanout") {
        trace::WebTierConfig web;
        web.nUsers = 1 << 20; // Session region far past the LLC.
        web.phaseRequests = 200000; // Diurnal hot-user shift.
        return std::make_unique<trace::WebTierTrace>(web, seed, base,
                                                     capacity);
    }
    trace::AnalyticsScanConfig an;
    an.tableLines = 1 << 17; // 8 MB per column, 4 columns.
    an.dimLines = 1 << 16;   // 4 MB dimension table.
    an.scanLinesPerPhase = 1 << 17;
    return std::make_unique<trace::AnalyticsScanTrace>(an, seed, base,
                                                       capacity);
}

struct WorkloadResult {
    std::string name;
    std::uint64_t records = 0;
    std::uint64_t insts = 0;
    std::uint64_t intervals = 0;
    int clusters = 0;
    std::uint64_t detailedInsts = 0;
    std::uint64_t functionalInsts = 0;
    double ipcFull = 0, ipcSampled = 0, ipcErr = 0;
    double hcracFull = 0, hcracSampled = 0, hcracErr = 0;
    double tFull = 0, tSampled = 0;
};

double
relErr(double sampled, double full)
{
    return full > 0 ? std::fabs(sampled - full) / full : 0.0;
}

} // namespace

int
main()
{
    bench::printHeader(
        "abl_sampling",
        "SimPoint-style sampled simulation accuracy/speedup on "
        "datacenter traces (Sherwood et al. ASPLOS'02 methodology; "
        "HCRAC claims on realistic streams)");

    const std::uint64_t targetInsts =
        envU64("CCSIM_SAMPLING_INSTS", 20'000'000);
    trace::SamplingConfig sc;
    sc.intervalInsts = envU64("CCSIM_SAMPLING_INTERVAL", 1'000'000);
    sc.warmupInsts = envU64("CCSIM_SAMPLING_WARMUP", 100'000);
    sc.functionalWarmInsts =
        envU64("CCSIM_SAMPLING_FUNCWARM", 4'000'000);
    sc.maxClusters = static_cast<std::uint32_t>(
        envU64("CCSIM_SAMPLING_CLUSTERS", 6));

    const sim::SimConfig cfg = samplingConfig();
    const Addr capacity =
        dram::AddressMapper(cfg.buildSpec().org, cfg.mapping).numLines();

    const std::vector<std::string> names = {"kv-zipf", "web-fanout",
                                            "analytics-scan"};
    std::vector<WorkloadResult> results;
    double tFullTotal = 0, tSampledTotal = 0;

    for (const auto &name : names) {
        WorkloadResult wr;
        wr.name = name;
        const std::string path = "abl_sampling_" + name + ".cctr";

        // Generate to the instruction target (records are variable
        // length in instructions, so write until the meta crosses it).
        {
            auto gen = makeWorkload(name, cfg.seed, 0, capacity);
            trace::TraceWriter w(path);
            cpu::TraceRecord rec;
            while (w.meta().totalInsts < targetInsts && gen->next(rec))
                w.append(rec);
            trace::TraceMeta meta = w.close();
            wr.records = meta.totalRecords;
            wr.insts = meta.totalInsts;
        }

        // Sampled: profile + cluster + representative slices.
        double t0 = now_s();
        trace::SampledSimulation sampled(cfg, path, sc);
        trace::SampledResult s = sampled.run();
        wr.tSampled = now_s() - t0;
        wr.intervals = s.intervals.size();
        wr.clusters = s.clusters;
        wr.detailedInsts = s.detailedInsts;
        wr.functionalInsts = s.functionalInsts;
        wr.ipcSampled = s.aggregate.ipc[0];
        wr.hcracSampled = s.aggregate.hcracHitRate;

        if (envU64("CCSIM_SAMPLING_VERBOSE", 0)) {
            for (const auto &sl : s.slices)
                std::printf("  slice iv=%llu w=%.3f ipc=%.4f "
                            "hcrac=%.4f acts=%llu\n",
                            (unsigned long long)sl.interval, sl.weight,
                            sl.result.ipc[0], sl.result.hcracHitRate,
                            (unsigned long long)sl.result.activations);
        }

        // Full: every instruction detailed, same warmup discipline.
        t0 = now_s();
        sim::SimConfig full = cfg;
        full.warmupInsts = sc.warmupInsts;
        full.targetInsts = wr.insts - sc.warmupInsts;
        trace::TraceReplaySource src(path);
        sim::System sys(full,
                        std::vector<cpu::TraceSource *>{&src});
        sim::SystemResult f = sys.run();
        wr.tFull = now_s() - t0;
        wr.ipcFull = f.ipc[0];
        wr.hcracFull = f.hcracHitRate;
        if (envU64("CCSIM_SAMPLING_VERBOSE", 0))
            std::printf("  full acts=%llu acts/inst=%.5f\n",
                        (unsigned long long)f.activations,
                        static_cast<double>(f.activations) /
                            static_cast<double>(full.targetInsts));

        wr.ipcErr = relErr(wr.ipcSampled, wr.ipcFull);
        wr.hcracErr = relErr(wr.hcracSampled, wr.hcracFull);
        tFullTotal += wr.tFull;
        tSampledTotal += wr.tSampled;
        results.push_back(wr);
        std::remove(path.c_str());

        std::printf("%-14s insts %llu recs %llu intervals %llu k=%d "
                    "detailed %.1f%%\n",
                    name.c_str(), (unsigned long long)wr.insts,
                    (unsigned long long)wr.records,
                    (unsigned long long)wr.intervals, wr.clusters,
                    100.0 * wr.detailedInsts / wr.insts);
        std::printf(
            "  ipc   full %.4f sampled %.4f err %5.2f%%   "
            "hcrac full %.4f sampled %.4f err %5.2f%%\n",
            wr.ipcFull, wr.ipcSampled, 100.0 * wr.ipcErr, wr.hcracFull,
            wr.hcracSampled, 100.0 * wr.hcracErr);
        std::printf("  time  full %.2fs sampled %.2fs speedup %.1fx\n",
                    wr.tFull, wr.tSampled,
                    wr.tSampled > 0 ? wr.tFull / wr.tSampled : 0.0);
    }

    const double speedup =
        tSampledTotal > 0 ? tFullTotal / tSampledTotal : 0.0;
    double maxIpcErr = 0, maxHcracErr = 0;
    for (const auto &wr : results) {
        maxIpcErr = std::max(maxIpcErr, wr.ipcErr);
        maxHcracErr = std::max(maxHcracErr, wr.hcracErr);
    }
    std::printf("\nall workloads: speedup %.1fx, max ipc err %.2f%%, "
                "max hcrac err %.2f%%\n",
                speedup, 100.0 * maxIpcErr, 100.0 * maxHcracErr);

    // 8-core datacenter mix (paper configuration: 2 channels,
    // closed-row). Heterogeneous per-core workloads with private
    // seeds and address-space slices exercise the co-phase sampler:
    // the clustered signature is the concatenation of all cores'
    // per-interval signatures, and the shared LLC + HCRAC are warmed
    // functionally across the merged streams.
    const std::uint64_t mcPerCore =
        envU64("CCSIM_SAMPLING_MC_INSTS", 2'500'000);
    const bool ranMix = mcPerCore > 0;
    WorkloadResult mc;
    trace::SamplingConfig msc = sc;
    if (ranMix) {
        mc.name = "mix-8core";
        sim::SimConfig mcfg = sim::SimConfig::eightCore();
        mcfg.scheme = sim::Scheme::ChargeCache;
        mcfg.kernel = sim::KernelMode::Calendar;
        mcfg.finalizeChargeCache();
        const Addr mcCap =
            dram::AddressMapper(mcfg.buildSpec().org, mcfg.mapping)
                .numLines();

        // Per-core intervals are shorter than the single-core default
        // so the smoke scale (2.5M insts/core) still yields enough
        // intervals to cluster.
        msc.intervalInsts =
            envU64("CCSIM_SAMPLING_MC_INTERVAL", 500'000);
        if (msc.warmupInsts >= msc.intervalInsts)
            msc.warmupInsts = msc.intervalInsts / 5;

        static const char *kMix[8] = {
            "kv-zipf",    "kv-zipf",    "kv-zipf",
            "web-fanout", "web-fanout", "web-fanout",
            "analytics-scan", "analytics-scan"};
        std::vector<std::string> paths;
        for (int c = 0; c < mcfg.nCores; ++c) {
            const std::string p =
                "abl_sampling_mix_c" + std::to_string(c) + ".cctr";
            auto gen = makeWorkload(kMix[c], mcfg.seed + 11 * c + 1,
                                    (mcCap / mcfg.nCores) * c, mcCap);
            trace::TraceWriter w(p);
            cpu::TraceRecord rec;
            while (w.meta().totalInsts < mcPerCore && gen->next(rec))
                w.append(rec);
            trace::TraceMeta meta = w.close();
            mc.insts += meta.totalInsts;
            mc.records += meta.totalRecords;
            paths.push_back(p);
        }

        double t0 = now_s();
        trace::SampledSimulation sampled(mcfg, paths, msc);
        trace::SampledResult s = sampled.run();
        mc.tSampled = now_s() - t0;
        mc.intervals = s.intervals.size();
        mc.clusters = s.clusters;
        mc.detailedInsts = s.detailedInsts;
        mc.functionalInsts = s.functionalInsts;
        for (double v : s.aggregate.ipc)
            mc.ipcSampled += v;
        mc.hcracSampled = s.aggregate.hcracHitRate;

        t0 = now_s();
        sim::SimConfig full = mcfg;
        full.warmupInsts = msc.warmupInsts;
        full.targetInsts = mcPerCore - msc.warmupInsts;
        std::vector<std::unique_ptr<trace::TraceReplaySource>> srcs;
        std::vector<cpu::TraceSource *> raw;
        for (const auto &p : paths) {
            srcs.push_back(
                std::make_unique<trace::TraceReplaySource>(p));
            raw.push_back(srcs.back().get());
        }
        sim::System sys(full, raw);
        sim::SystemResult f = sys.run();
        mc.tFull = now_s() - t0;
        for (double v : f.ipc)
            mc.ipcFull += v;
        mc.hcracFull = f.hcracHitRate;
        for (const auto &p : paths)
            std::remove(p.c_str());

        mc.ipcErr = relErr(mc.ipcSampled, mc.ipcFull);
        mc.hcracErr = relErr(mc.hcracSampled, mc.hcracFull);

        std::printf("\n%-14s insts %llu recs %llu intervals %llu k=%d "
                    "detailed %.1f%% functional %.1f%%\n",
                    mc.name.c_str(), (unsigned long long)mc.insts,
                    (unsigned long long)mc.records,
                    (unsigned long long)mc.intervals, mc.clusters,
                    100.0 * mc.detailedInsts / mc.insts,
                    100.0 * mc.functionalInsts / mc.insts);
        std::printf(
            "  ipc   full %.4f sampled %.4f err %5.2f%%   "
            "hcrac full %.4f sampled %.4f err %5.2f%%\n",
            mc.ipcFull, mc.ipcSampled, 100.0 * mc.ipcErr, mc.hcracFull,
            mc.hcracSampled, 100.0 * mc.hcracErr);
        std::printf("  time  full %.2fs sampled %.2fs speedup %.1fx\n",
                    mc.tFull, mc.tSampled,
                    mc.tSampled > 0 ? mc.tFull / mc.tSampled : 0.0);
    }

    auto write_points = [&](std::FILE *f) {
        for (const auto &wr : results) {
            std::fprintf(
                f,
                "{\"bench\": \"sampling\", \"workload\": \"%s\", "
                "\"insts\": %llu, \"records\": %llu, "
                "\"intervals\": %llu, \"clusters\": %d, "
                "\"interval_insts\": %llu, \"warmup_insts\": %llu, "
                "\"funcwarm_insts\": %llu, "
                "\"detailed_insts\": %llu, "
                "\"functional_insts\": %llu, "
                "\"ipc_full\": %.6f, \"ipc_sampled\": %.6f, "
                "\"ipc_err\": %.6f, "
                "\"hcrac_full\": %.6f, \"hcrac_sampled\": %.6f, "
                "\"hcrac_err\": %.6f, "
                "\"t_full_s\": %.3f, \"t_sampled_s\": %.3f, "
                "\"speedup\": %.3f}\n",
                wr.name.c_str(), (unsigned long long)wr.insts,
                (unsigned long long)wr.records,
                (unsigned long long)wr.intervals, wr.clusters,
                (unsigned long long)sc.intervalInsts,
                (unsigned long long)sc.warmupInsts,
                (unsigned long long)sc.functionalWarmInsts,
                (unsigned long long)wr.detailedInsts,
                (unsigned long long)wr.functionalInsts, wr.ipcFull,
                wr.ipcSampled, wr.ipcErr, wr.hcracFull, wr.hcracSampled,
                wr.hcracErr, wr.tFull, wr.tSampled,
                wr.tSampled > 0 ? wr.tFull / wr.tSampled : 0.0);
        }
        if (ranMix) {
            std::fprintf(
                f,
                "{\"bench\": \"sampling_mix\", \"cores\": 8, "
                "\"insts\": %llu, \"records\": %llu, "
                "\"intervals\": %llu, \"clusters\": %d, "
                "\"interval_insts\": %llu, \"warmup_insts\": %llu, "
                "\"funcwarm_insts\": %llu, "
                "\"detailed_insts\": %llu, "
                "\"functional_insts\": %llu, "
                "\"ipc_full\": %.6f, \"ipc_sampled\": %.6f, "
                "\"ipc_err\": %.6f, "
                "\"hcrac_full\": %.6f, \"hcrac_sampled\": %.6f, "
                "\"hcrac_err\": %.6f, "
                "\"t_full_s\": %.3f, \"t_sampled_s\": %.3f, "
                "\"speedup\": %.3f}\n",
                (unsigned long long)mc.insts,
                (unsigned long long)mc.records,
                (unsigned long long)mc.intervals, mc.clusters,
                (unsigned long long)msc.intervalInsts,
                (unsigned long long)msc.warmupInsts,
                (unsigned long long)msc.functionalWarmInsts,
                (unsigned long long)mc.detailedInsts,
                (unsigned long long)mc.functionalInsts, mc.ipcFull,
                mc.ipcSampled, mc.ipcErr, mc.hcracFull, mc.hcracSampled,
                mc.hcracErr, mc.tFull, mc.tSampled,
                mc.tSampled > 0 ? mc.tFull / mc.tSampled : 0.0);
        }
    };
    auto write_summary = [&](std::FILE *f) {
        std::fprintf(
            f,
            "{\"bench\": \"sampling_summary\", \"insts\": %llu, "
            "\"workloads\": %d, \"max_ipc_err\": %.6f, "
            "\"max_hcrac_err\": %.6f, \"speedup\": %.3f, "
            "\"t_full_s\": %.3f, \"t_sampled_s\": %.3f, "
            "\"mix_insts\": %llu, \"mix_ipc_err\": %.6f, "
            "\"mix_hcrac_err\": %.6f, \"mix_speedup\": %.3f}\n",
            (unsigned long long)targetInsts,
            static_cast<int>(results.size()), maxIpcErr, maxHcracErr,
            speedup, tFullTotal, tSampledTotal,
            (unsigned long long)mc.insts, mc.ipcErr, mc.hcracErr,
            mc.tSampled > 0 ? mc.tFull / mc.tSampled : 0.0);
    };

    const std::string record = bench::captureRecord([&](std::FILE *f) {
        write_points(f);
        write_summary(f);
    });
    if (!resilience::tryAtomicWriteFile("BENCH_sampling.json", record)) {
        std::fprintf(stderr, "cannot write BENCH_sampling.json\n");
        return 1;
    }
    std::printf("wrote BENCH_sampling.json\n");

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

    // CI accuracy gate (mirrors CCSIM_VM_GATE / CCSIM_KERNEL_GATE).
    if (envU64("CCSIM_SAMPLING_GATE", 0)) {
        const double floor = envF64("CCSIM_SAMPLING_SPEEDUP", 10.0);
        if (maxIpcErr > kMaxRelError || maxHcracErr > kMaxRelError) {
            std::fprintf(stderr,
                         "GATE FAILED: sampling error ipc %.2f%% / "
                         "hcrac %.2f%% exceeds %.2f%%\n",
                         100.0 * maxIpcErr, 100.0 * maxHcracErr,
                         100.0 * kMaxRelError);
            return 2;
        }
        if (ranMix &&
            (mc.ipcErr > kMaxRelError || mc.hcracErr > kMaxRelError)) {
            std::fprintf(stderr,
                         "GATE FAILED: 8-core mix error ipc %.2f%% / "
                         "hcrac %.2f%% exceeds %.2f%%\n",
                         100.0 * mc.ipcErr, 100.0 * mc.hcracErr,
                         100.0 * kMaxRelError);
            return 2;
        }
        if (speedup < floor) {
            std::fprintf(stderr,
                         "GATE FAILED: sampled speedup %.1fx below "
                         "%.1fx floor\n",
                         speedup, floor);
            return 2;
        }
        std::printf("sampling gate passed: err ipc %.2f%% hcrac %.2f%% "
                    "mix ipc %.2f%% mix hcrac %.2f%% (tol %.1f%%), "
                    "speedup %.1fx (floor %.1fx)\n",
                    100.0 * maxIpcErr, 100.0 * maxHcracErr,
                    100.0 * mc.ipcErr, 100.0 * mc.hcracErr,
                    100.0 * kMaxRelError, speedup, floor);
    }
    return 0;
}
