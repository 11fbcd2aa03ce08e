/**
 * @file
 * Figure 8: DRAM energy reduction of ChargeCache over the baseline —
 * average and maximum, single-core and eight-core. Energy includes the
 * ChargeCache structure's own static power (Section 6.3), so reported
 * savings are net.
 *
 * Paper result: up to 6.9% / avg 1.8% (1-core); up to 14.1% / avg 7.9%
 * (8-core).
 */

#include <algorithm>
#include <cstdio>

#include "bench_common.hh"

int
main()
{
    using namespace ccsim;
    bench::printHeader("fig08_energy",
                       "Figure 8 (DRAM energy reduction of ChargeCache)");

    // Every (workload or mix, scheme) point runs in one parallel sweep;
    // point 2k is the baseline and 2k + 1 ChargeCache of the k-th
    // workload, then of the k-th mix.
    const auto workloads_1c = bench::singleWorkloads();
    const auto mixes = bench::mainMixes();
    const size_t n1 = workloads_1c.size();
    std::vector<sim::SystemResult> res = sim::runSweep(
        2 * (n1 + mixes.size()), [&](size_t i) {
            const sim::Scheme scheme = i % 2 ? sim::Scheme::ChargeCache
                                             : sim::Scheme::Baseline;
            const size_t k = i / 2;
            return k < n1 ? sim::runSingle(workloads_1c[k], scheme)
                          : sim::runMix(mixes[k - n1], scheme);
        });

    std::printf("\n-- single-core --\n");
    std::printf("%-12s %14s %14s %10s\n", "workload", "base (mJ)",
                "CC (mJ)", "saving");
    std::vector<double> single;
    for (size_t k = 0; k < n1; ++k) {
        const sim::SystemResult &base = res[2 * k];
        const sim::SystemResult &cc = res[2 * k + 1];
        double saving = 1.0 - cc.energy.totalNj() / base.energy.totalNj();
        std::printf("%-12s %14.3f %14.3f %9.2f%%\n",
                    workloads_1c[k].c_str(), base.energy.totalNj() * 1e-6,
                    cc.energy.totalNj() * 1e-6, 100 * saving);
        if (base.activations > 100)
            single.push_back(saving);
    }

    std::printf("\n-- eight-core --\n");
    std::printf("%-12s %14s %14s %10s\n", "mix", "base (mJ)", "CC (mJ)",
                "saving");
    std::vector<double> eight;
    for (size_t m = 0; m < mixes.size(); ++m) {
        const sim::SystemResult &base = res[2 * (n1 + m)];
        const sim::SystemResult &cc = res[2 * (n1 + m) + 1];
        double saving = 1.0 - cc.energy.totalNj() / base.energy.totalNj();
        std::printf("w%-11d %14.3f %14.3f %9.2f%%\n", mixes[m],
                    base.energy.totalNj() * 1e-6,
                    cc.energy.totalNj() * 1e-6, 100 * saving);
        eight.push_back(saving);
    }

    auto max_of = [](const std::vector<double> &v) {
        return v.empty() ? 0.0 : *std::max_element(v.begin(), v.end());
    };
    std::printf("\n%-14s %10s %10s\n", "", "average", "maximum");
    std::printf("%-14s %9.2f%% %9.2f%%   (paper: 1.8%% / 6.9%%)\n",
                "single-core", 100 * bench::mean(single),
                100 * max_of(single));
    std::printf("%-14s %9.2f%% %9.2f%%   (paper: 7.9%% / 14.1%%)\n",
                "eight-core", 100 * bench::mean(eight),
                100 * max_of(eight));
    return 0;
}
