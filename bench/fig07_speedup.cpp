/**
 * @file
 * Figure 7: speedup of NUAT, ChargeCache, ChargeCache+NUAT and the
 * idealized LL-DRAM over the DDR3-1600 baseline.
 *   7a: 22 single-core workloads, sorted by RMPKC (IPC speedup).
 *   7b: 20 eight-core mixes (weighted speedup).
 *
 * Paper result: 1-core avg 2.1% (CC), up to 9.3%; 8-core avg 8.6% (CC),
 * 2.5% (NUAT), 9.6% (CC+NUAT), with LL-DRAM ~13% as the upper bound.
 */

#include <algorithm>
#include <cstdio>
#include <cstring>

#include "bench_common.hh"
#include "workloads/profiles.hh"

namespace {

using namespace ccsim;

/** Point 5i + s of a sweep runs workload or mix i under kSchemes[s]. */
const sim::Scheme kSchemes[] = {
    sim::Scheme::Baseline, sim::Scheme::Nuat, sim::Scheme::ChargeCache,
    sim::Scheme::ChargeCacheNuat, sim::Scheme::LlDram};

void
runSingleCore()
{
    std::printf("\n-- Figure 7a: single-core (sorted by RMPKC) --\n");
    struct Row {
        std::string workload;
        double rmpkc;
        double speedup[4];
    };
    const auto workloads = bench::singleWorkloads();
    const std::vector<sim::SystemResult> res =
        sim::runSweep(workloads.size() * 5, [&](size_t p) {
            return sim::runSingle(workloads[p / 5], kSchemes[p % 5]);
        });
    std::vector<Row> rows;
    for (size_t i = 0; i < workloads.size(); ++i) {
        const sim::SystemResult &base = res[5 * i];
        Row row;
        row.workload = workloads[i];
        row.rmpkc = base.rmpkc;
        for (int s = 0; s < 4; ++s)
            row.speedup[s] = res[5 * i + 1 + s].ipc[0] / base.ipc[0];
        rows.push_back(row);
    }
    std::sort(rows.begin(), rows.end(),
              [](const Row &a, const Row &b) { return a.rmpkc < b.rmpkc; });

    std::printf("%-12s %7s %8s %8s %9s %9s\n", "workload", "RMPKC",
                "NUAT", "CC", "CC+NUAT", "LL-DRAM");
    std::vector<double> avg[4];
    for (const auto &row : rows) {
        std::printf("%-12s %7.2f %+7.2f%% %+7.2f%% %+8.2f%% %+8.2f%%\n",
                    row.workload.c_str(), row.rmpkc,
                    100 * (row.speedup[0] - 1), 100 * (row.speedup[1] - 1),
                    100 * (row.speedup[2] - 1),
                    100 * (row.speedup[3] - 1));
        for (int s = 0; s < 4; ++s)
            avg[s].push_back(row.speedup[s]);
    }
    std::printf("%-12s %7s", "AVG", "");
    for (int s = 0; s < 4; ++s)
        std::printf(" %+7.2f%%", 100 * (bench::geomean(avg[s]) - 1));
    std::printf("\npaper 7a AVG: NUAT<2.1%%, CC +2.1%% (max +9.3%%), "
                "LL-DRAM above CC.\n");
}

void
runEightCore()
{
    std::printf("\n-- Figure 7b: eight-core (weighted speedup) --\n");
    std::printf("%-6s %7s %8s %8s %9s %9s\n", "mix", "RMPKC", "NUAT",
                "CC", "CC+NUAT", "LL-DRAM");
    const auto mixes = bench::mainMixes();
    const auto alone = sim::aloneIpcs(mixes);
    const std::vector<sim::SystemResult> res =
        sim::runSweep(mixes.size() * 5, [&](size_t p) {
            return sim::runMix(mixes[p / 5], kSchemes[p % 5]);
        });
    std::vector<double> avg[4];
    for (size_t i = 0; i < mixes.size(); ++i) {
        const sim::SystemResult &base = res[5 * i];
        auto names = workloads::mixWorkloads(mixes[i]);
        double ws_base = sim::weightedSpeedup(names, base.ipc, alone);
        double sp[4];
        for (int s = 0; s < 4; ++s) {
            sp[s] = sim::weightedSpeedup(names, res[5 * i + 1 + s].ipc,
                                         alone) /
                    ws_base;
            avg[s].push_back(sp[s]);
        }
        std::printf("w%-5zu %7.2f %+7.2f%% %+7.2f%% %+8.2f%% %+8.2f%%\n",
                    static_cast<size_t>(mixes[i]), base.rmpkc,
                    100 * (sp[0] - 1), 100 * (sp[1] - 1),
                    100 * (sp[2] - 1), 100 * (sp[3] - 1));
    }
    std::printf("%-6s %7s", "AVG", "");
    for (int s = 0; s < 4; ++s)
        std::printf(" %+7.2f%%", 100 * (bench::geomean(avg[s]) - 1));
    std::printf("\npaper 7b AVG: NUAT +2.5%%, CC +8.6%%, CC+NUAT +9.6%%, "
                "LL-DRAM +13.4%%.\n");
}

} // namespace

int
main(int argc, char **argv)
{
    bench::printHeader("fig07_speedup",
                       "Figure 7a/7b (speedup of NUAT/CC/CC+NUAT/LL-DRAM)");
    bool only_single = argc > 1 && !std::strcmp(argv[1], "--single");
    bool only_eight = argc > 1 && !std::strcmp(argv[1], "--eight");
    if (!only_eight)
        runSingleCore();
    if (!only_single)
        runEightCore();
    return 0;
}
