/**
 * @file
 * Eight-core contention study: runs one multiprogrammed mix (Table 1's
 * eight-core system: 2 channels, closed-row policy) under all five
 * latency schemes and reports weighted speedup — demonstrating the
 * paper's key system-level result that bank conflicts in multi-core
 * systems amplify RLTL and hence ChargeCache's benefit.
 *
 * Usage: multicore_contention [mixId=1]
 */

#include <cstdio>
#include <cstdlib>
#include <iterator>

#include "sim/experiment.hh"
#include "workloads/profiles.hh"

int
main(int argc, char **argv)
{
    using namespace ccsim;

    int mix_id = argc > 1 ? std::atoi(argv[1]) : 1;
    auto mix = workloads::mixWorkloads(mix_id);

    printf("Eight-core mix w%d:", mix_id);
    for (const auto &w : mix)
        printf(" %s", w.c_str());
    printf("\n\n");

    const sim::Scheme schemes[] = {
        sim::Scheme::Baseline, sim::Scheme::Nuat,
        sim::Scheme::ChargeCache, sim::Scheme::ChargeCacheNuat,
        sim::Scheme::LlDram};

    // The five schemes and the alone runs are independent Systems, so
    // both fan out across the CPUs (CCSIM_THREADS).
    const auto alone = sim::aloneIpcs({mix_id});
    const std::vector<sim::SystemResult> runs =
        sim::runSweep(std::size(schemes), [&](std::size_t i) {
            return sim::runMix(mix_id, schemes[i]);
        });

    double base_ws = 0.0;
    printf("%-18s %10s %9s %8s %9s\n", "scheme", "wspeedup", "vs base",
           "hitrate", "RMPKC");
    for (std::size_t i = 0; i < std::size(schemes); ++i) {
        const sim::SystemResult &r = runs[i];
        double ws = sim::weightedSpeedup(mix, r.ipc, alone);
        if (schemes[i] == sim::Scheme::Baseline)
            base_ws = ws;
        printf("%-18s %10.4f %+8.2f%% %7.1f%% %9.2f\n",
               sim::schemeName(schemes[i]), ws,
               100.0 * (ws / base_ws - 1.0), 100.0 * r.providerHitRate,
               r.rmpkc);
    }
    return 0;
}
