/**
 * @file
 * Ablation (paper footnote 2, left as future work): sharing one
 * ChargeCache across all cores instead of replicating per core. A
 * shared table of the same *total* capacity saves nothing; the
 * interesting question is whether a shared table with 1/8 the total
 * storage retains most of the hit rate.
 */

#include <cstdio>

#include "bench_common.hh"
#include "workloads/profiles.hh"

int
main()
{
    using namespace ccsim;
    bench::printHeader("abl_shared_cc",
                       "Footnote 2 (per-core vs shared HCRAC, 8-core)");

    struct Variant {
        const char *name;
        bool shared;
        int entries;
    };
    const Variant variants[] = {
        {"per-core 128 (paper)", false, 128},
        {"shared 128 (1/8 storage)", true, 128},
        {"shared 256 (1/4 storage)", true, 256},
        {"shared 1024 (same storage)", true, 1024},
    };

    const auto mixes = bench::sweepMixes();
    const auto alone = sim::aloneIpcs(mixes);
    std::vector<sim::SystemResult> base = sim::runSweep(
        mixes.size(), [&](size_t i) {
            return sim::runMix(mixes[i], sim::Scheme::Baseline);
        });
    std::vector<double> base_ws;
    for (size_t i = 0; i < mixes.size(); ++i) {
        auto names = workloads::mixWorkloads(mixes[i]);
        base_ws.push_back(sim::weightedSpeedup(names, base[i].ipc, alone));
    }

    std::printf("\n%-28s %10s %10s\n", "configuration", "hit rate",
                "speedup");
    for (const Variant &v : variants) {
        auto tweak = [&v](sim::SimConfig &cfg) {
            cfg.cc.sharedTable = v.shared;
            cfg.cc.table.entries = v.entries;
        };
        std::vector<sim::SystemResult> res = sim::runSweep(
            mixes.size(), [&](size_t i) {
                return sim::runMix(mixes[i], sim::Scheme::ChargeCache,
                                   tweak);
            });
        std::vector<double> hit, sp;
        for (size_t i = 0; i < mixes.size(); ++i) {
            auto names = workloads::mixWorkloads(mixes[i]);
            hit.push_back(res[i].hcracHitRate);
            sp.push_back(sim::weightedSpeedup(names, res[i].ipc, alone) /
                         base_ws[i]);
        }
        std::printf("%-28s %9.1f%% %+9.2f%%\n", v.name,
                    100 * bench::mean(hit),
                    100 * (bench::geomean(sp) - 1));
    }
    std::printf("\npaper: 'sharing ChargeCache across cores can result "
                "in even lower overheads' (unevaluated there).\n");
    return 0;
}
