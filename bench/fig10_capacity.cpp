/**
 * @file
 * Figure 10: speedup versus ChargeCache capacity (single-core IPC
 * speedup; eight-core weighted speedup).
 *
 * Paper result: 8.8% at 128 entries and 10.6% at 1024 entries for the
 * eight-core system — benefits diminish with capacity.
 */

#include <cstdio>
#include <map>
#include <string>

#include "bench_common.hh"
#include "workloads/profiles.hh"

int
main()
{
    using namespace ccsim;
    bench::printHeader("fig10_capacity",
                       "Figure 10 (speedup vs ChargeCache capacity)");

    const int capacities[] = {32, 64, 128, 256, 512, 1024};
    const auto workload_names = bench::singleWorkloads();
    const auto mixes = bench::sweepMixes();
    const size_t n1 = workload_names.size();

    // Baselines once. Every mix draws from the single-core workloads,
    // so their baseline runs are the alone IPCs of weighted speedup.
    std::vector<sim::SystemResult> base = sim::runSweep(
        n1 + mixes.size(), [&](size_t i) {
            return i < n1 ? sim::runSingle(workload_names[i],
                                           sim::Scheme::Baseline)
                          : sim::runMix(mixes[i - n1],
                                        sim::Scheme::Baseline);
        });
    std::vector<double> base_single, base_eight;
    std::map<std::string, double> alone;
    for (size_t i = 0; i < n1; ++i) {
        base_single.push_back(base[i].ipc[0]);
        alone[workload_names[i]] = base[i].ipc[0];
    }
    for (size_t i = 0; i < mixes.size(); ++i) {
        auto names = workloads::mixWorkloads(mixes[i]);
        base_eight.push_back(
            sim::weightedSpeedup(names, base[n1 + i].ipc, alone));
    }

    std::printf("\n%-10s %14s %14s\n", "entries", "single-core",
                "eight-core");
    for (int entries : capacities) {
        auto tweak = [entries](sim::SimConfig &cfg) {
            cfg.cc.table.entries = entries;
        };
        std::vector<sim::SystemResult> res = sim::runSweep(
            n1 + mixes.size(), [&](size_t i) {
                return i < n1 ? sim::runSingle(workload_names[i],
                                               sim::Scheme::ChargeCache,
                                               tweak)
                              : sim::runMix(mixes[i - n1],
                                            sim::Scheme::ChargeCache,
                                            tweak);
            });
        std::vector<double> single, eight;
        for (size_t i = 0; i < n1; ++i)
            single.push_back(res[i].ipc[0] / base_single[i]);
        for (size_t i = 0; i < mixes.size(); ++i) {
            auto names = workloads::mixWorkloads(mixes[i]);
            eight.push_back(
                sim::weightedSpeedup(names, res[n1 + i].ipc, alone) /
                base_eight[i]);
        }
        std::printf("%-10d %+13.2f%% %+13.2f%%\n", entries,
                    100 * (bench::geomean(single) - 1),
                    100 * (bench::geomean(eight) - 1));
    }
    std::printf("\npaper (8-core): +8.8%% at 128 entries, +10.6%% at "
                "1024; diminishing returns.\n");
    return 0;
}
