/**
 * @file
 * Ablation (Section 6.1, left as future work): thrash-resistant HCRAC
 * insertion policies for high row-reuse-distance applications (mcf,
 * omnetpp), where plain LRU cannot hold rows long enough.
 */

#include <cstdio>
#include <iterator>

#include "bench_common.hh"

int
main()
{
    using namespace ccsim;
    bench::printHeader(
        "abl_insertion_policy",
        "Section 6.1 future work (LRU vs LIP/BIP insertion)");

    const char *workloads[] = {"mcf", "omnetpp", "tpcc64", "apache20",
                               "tpch6"};
    const chargecache::InsertPolicy policies[] = {
        chargecache::InsertPolicy::Lru, chargecache::InsertPolicy::Lip,
        chargecache::InsertPolicy::Bip};

    std::printf("\n%-12s", "workload");
    for (auto p : policies)
        std::printf(" %11s", chargecache::insertPolicyName(p));
    std::printf("   (HCRAC hit rate; speedup vs baseline in parens)\n");

    // One sweep over the baseline and each policy of every workload:
    // point k*i is workload i's baseline and k*i+1+p its run under
    // policies[p], for k = 1 + n_policies; printed in order afterwards.
    const size_t n_workloads = std::size(workloads);
    const size_t n_policies = std::size(policies);
    const size_t k = 1 + n_policies;
    const std::vector<sim::SystemResult> res =
        sim::runSweep(n_workloads * k, [&](size_t pt) {
            const char *w = workloads[pt / k];
            if (pt % k == 0)
                return sim::runSingle(w, sim::Scheme::Baseline);
            const auto policy = policies[pt % k - 1];
            return sim::runSingle(w, sim::Scheme::ChargeCache,
                                  [policy](sim::SimConfig &cfg) {
                                      cfg.cc.table.policy = policy;
                                  });
        });
    for (size_t i = 0; i < n_workloads; ++i) {
        std::printf("%-12s", workloads[i]);
        const sim::SystemResult &base = res[k * i];
        for (size_t p = 0; p < n_policies; ++p) {
            const sim::SystemResult &r = res[k * i + 1 + p];
            std::printf("  %5.1f%%(%+.1f%%)", 100 * r.hcracHitRate,
                        100 * (r.ipc[0] / base.ipc[0] - 1));
        }
        std::printf("\n");
    }
    std::printf("\npaper: suggests reuse/thrash-aware policies may help "
                "mcf/omnetpp-style workloads (future work there).\n");
    return 0;
}
