/**
 * @file
 * Figure 4: RLTL for time intervals {0.125, 0.25, 0.5, 1, 32} ms under
 * both open-row and closed-row policies; 4a single-core, 4b eight-core.
 *
 * Paper result: average 0.125ms-RLTL is already 66% (1-core) and 77%
 * (8-core); the row-buffer policy barely matters.
 */

#include <algorithm>
#include <cstdio>

#include "bench_common.hh"

namespace {

using namespace ccsim;

const std::vector<double> kWindows = {0.125, 0.25, 0.5, 1.0, 32.0};

sim::ConfigTweak
tweak(ctrl::RowPolicy policy, bool single_core)
{
    return [policy, single_core](sim::SimConfig &cfg) {
        cfg.ctrl.trackRltl = true;
        cfg.ctrl.rltlWindowsMs = kWindows;
        cfg.ctrl.rowPolicy = policy;
        if (single_core)
            cfg.targetInsts =
                std::max(cfg.targetInsts, bench::rltlInsts());
    };
}

void
printRow(const std::string &label, const sim::SystemResult &r)
{
    std::printf("%-12s", label.c_str());
    for (size_t i = 0; i < kWindows.size(); ++i)
        std::printf(" %7.1f%%", 100 * (r.activations ? r.rltl[i] : 0.0));
    std::printf("\n");
}

void
printPolicyHeader()
{
    std::printf("%-12s", "workload");
    for (double w : kWindows)
        std::printf(" %6.3gms", w);
    std::printf("   (cumulative RLTL)\n");
}

} // namespace

int
main()
{
    bench::printHeader("fig04_rltl_intervals",
                       "Figure 4a/4b (RLTL at 0.125..32 ms, "
                       "open-row vs closed-row)");

    // Each (policy, workload) point is independent: fan them out with
    // runSweep (like the other figures) and print in order.
    const std::vector<std::string> singles = bench::singleWorkloads();
    for (auto policy : {ctrl::RowPolicy::Open, ctrl::RowPolicy::Closed}) {
        std::printf("\n-- Figure 4a: single-core, %s --\n",
                    ctrl::rowPolicyName(policy));
        printPolicyHeader();
        std::vector<sim::SystemResult> res =
            sim::runSweep(singles.size(), [&](size_t i) {
                return sim::runSingle(singles[i], sim::Scheme::Baseline,
                                      tweak(policy, true));
            });
        std::vector<std::vector<double>> acc(kWindows.size());
        for (size_t w = 0; w < singles.size(); ++w) {
            const sim::SystemResult &r = res[w];
            printRow(singles[w], r);
            if (r.activations > 100)
                for (size_t i = 0; i < kWindows.size(); ++i)
                    acc[i].push_back(r.rltl[i]);
        }
        std::printf("%-12s", "AVG");
        for (size_t i = 0; i < kWindows.size(); ++i)
            std::printf(" %7.1f%%", 100 * bench::mean(acc[i]));
        std::printf("\n");
    }

    const std::vector<int> mixes = bench::mainMixes();
    for (auto policy : {ctrl::RowPolicy::Open, ctrl::RowPolicy::Closed}) {
        std::printf("\n-- Figure 4b: eight-core, %s --\n",
                    ctrl::rowPolicyName(policy));
        printPolicyHeader();
        std::vector<sim::SystemResult> res =
            sim::runSweep(mixes.size(), [&](size_t i) {
                return sim::runMix(mixes[i], sim::Scheme::Baseline,
                                   tweak(policy, false));
            });
        std::vector<std::vector<double>> acc(kWindows.size());
        for (size_t m = 0; m < mixes.size(); ++m) {
            const sim::SystemResult &r = res[m];
            printRow("w" + std::to_string(mixes[m]), r);
            for (size_t i = 0; i < kWindows.size(); ++i)
                acc[i].push_back(r.rltl[i]);
        }
        std::printf("%-12s", "AVG");
        for (size_t i = 0; i < kWindows.size(); ++i)
            std::printf(" %7.1f%%", 100 * bench::mean(acc[i]));
        std::printf("\n");
    }
    std::printf("\npaper: avg 0.125ms-RLTL 66%% (1-core) / 77%% "
                "(8-core); policy has little effect.\n");
    return 0;
}
