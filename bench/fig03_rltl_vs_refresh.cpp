/**
 * @file
 * Figure 3: fraction of row activations that occur within 8 ms after
 * the row's previous precharge (8ms-RLTL) versus within 8 ms after the
 * row's last refresh — the paper's core motivation. 3a: 22 single-core
 * workloads (open-row); 3b: 20 eight-core mixes (closed-row).
 *
 * Paper result: 8ms-RLTL averages 86% (1-core) and is even higher for
 * 8-core, while the after-refresh fraction averages only ~12%.
 */

#include <algorithm>
#include <cstdio>

#include "bench_common.hh"

int
main()
{
    using namespace ccsim;
    bench::printHeader("fig03_rltl_vs_refresh",
                       "Figure 3a/3b (8ms-RLTL vs refresh recency)");

    auto tweak = [](sim::SimConfig &cfg) {
        cfg.ctrl.trackRltl = true;
        // The 8 ms metric needs milliseconds of simulated time.
        cfg.targetInsts = std::max(cfg.targetInsts, bench::rltlInsts());
    };
    // Default RLTL windows: index 4 is 8 ms.
    const size_t k8ms = 4;

    std::printf("\n-- Figure 3a: single-core workloads --\n");
    std::printf("%-12s %18s %22s\n", "workload", "8ms-RLTL",
                "accessed<=8ms after REF");
    const std::vector<std::string> singles = bench::singleWorkloads();
    // Every workload is an independent point: fan them out with
    // runSweep (like the other figures) and print in order.
    std::vector<sim::SystemResult> res3a =
        sim::runSweep(singles.size(), [&](size_t i) {
            return sim::runSingle(singles[i], sim::Scheme::Baseline,
                                  tweak);
        });
    std::vector<double> rltls, refs;
    for (size_t i = 0; i < singles.size(); ++i) {
        const sim::SystemResult &r = res3a[i];
        double rltl = r.activations ? r.rltl[k8ms] : 0.0;
        double ref = r.activations ? r.afterRefresh8ms : 0.0;
        std::printf("%-12s %17.1f%% %21.1f%%\n", singles[i].c_str(),
                    100 * rltl, 100 * ref);
        if (r.activations > 100) { // hmmer-style: no DRAM traffic.
            rltls.push_back(rltl);
            refs.push_back(ref);
        }
    }
    std::printf("%-12s %17.1f%% %21.1f%%\n", "AVG",
                100 * bench::mean(rltls), 100 * bench::mean(refs));

    std::printf("\n-- Figure 3b: eight-core workloads --\n");
    std::printf("%-12s %18s %22s\n", "mix", "8ms-RLTL",
                "accessed<=8ms after REF");
    const std::vector<int> mixes = bench::mainMixes();
    std::vector<sim::SystemResult> res3b =
        sim::runSweep(mixes.size(), [&](size_t i) {
            return sim::runMix(mixes[i], sim::Scheme::Baseline, tweak);
        });
    std::vector<double> rltls8, refs8;
    for (size_t i = 0; i < mixes.size(); ++i) {
        const sim::SystemResult &r = res3b[i];
        std::printf("w%-11d %17.1f%% %21.1f%%\n", mixes[i],
                    100 * r.rltl[k8ms], 100 * r.afterRefresh8ms);
        rltls8.push_back(r.rltl[k8ms]);
        refs8.push_back(r.afterRefresh8ms);
    }
    std::printf("%-12s %17.1f%% %21.1f%%\n", "AVG",
                100 * bench::mean(rltls8), 100 * bench::mean(refs8));
    std::printf("\npaper: 1-core avg 8ms-RLTL 86%% vs 12%% after-REF; "
                "8-core RLTL higher still, after-REF unchanged.\n");
    return 0;
}
