/**
 * @file
 * SimPoint-style sampled simulation of CCTR traces, multi-core with
 * SMARTS-style functional warming.
 *
 * The full methodology (Sherwood et al., ASPLOS 2002, adapted from
 * basic-block vectors to memory-access signatures — the simulator is
 * trace-driven, so the access stream *is* the program behaviour;
 * warming follows Wunderlich et al., ISCA 2003):
 *
 *  1. Profile: one streaming pass advances every core's trace in
 *     lockstep over shared `intervalInsts` boundaries and builds a
 *     per-interval signature — the concatenation of each core's
 *     normalized row-address histogram plus memory intensity and
 *     write fraction. Clustering that concatenated vector is co-phase
 *     clustering: a representative interval fixes every core's phase
 *     simultaneously. Decoding runs in parallel: each core's block
 *     headers are walked (TraceReader::walkBlock) and jobs of two whole
 *     blocks decode on a sim::ParallelRunner of min(defaultThreads(),
 *     8) workers, while the calling thread folds the records into
 *     intervals in stream order. A block with no interval cut or warm
 *     lead-in capture inside it folds in one step from its totals. So
 *     every field, and the first error in fold order, is the same as a
 *     sequential read's at any thread count. RAM is bounded: at most 8
 *     decode jobs over all cores run ahead of the fold, and when the
 *     interval count would exceed `maxIntervals`, adjacent intervals
 *     merge (raw counts add) and the effective interval length
 *     doubles, so arbitrarily long traces profile in bounded RAM.
 *  2. Cluster: deterministic k-means++ (common/random.hh Rng) groups
 *     intervals by signature distance. Zero-record intervals (a long
 *     compute-only gap spanning a whole interval) are excluded from
 *     center seeding — their all-zero signatures would seed degenerate
 *     centers — and are assigned to the nearest real cluster after
 *     Lloyd's loop converges.
 *  3. Simulate: each cluster's representative (the member closest to
 *     the recomputed centroid) runs detailed. Fast-forward is a
 *     whole-block seek-skip (TraceReader::skipRecords, no decode);
 *     the last `functionalWarmInsts` before the detailed lead-in are
 *     replayed *functionally* through the same readers the slice then
 *     runs on — records update the slice System's own LLC
 *     tags/LRU/dirty and HCRAC tables in place with no timing, and
 *     each table's BIP RNG then restarts from its seed, as a fresh
 *     table's starts — so the detailed lead-in only
 *     re-warms in-flight machine state and `warmupInsts` can drop
 *     from the ~1.5M-instruction LLC horizon to ~100k. Slices are
 *     independent by construction and run as the points of one
 *     sim::runSweep on min(slices, defaultThreads()) workers
 *     (CCSIM_THREADS), in cluster order, so every result field is the
 *     same at any thread count and the lowest cluster's error wins.
 *     Each slice's System keeps its own telemetry; only telemetry that
 *     writes files keeps the sweep at one worker, since every slice
 *     writes the same output paths.
 *  4. Aggregate: per-core IPC combines as an instruction-weighted
 *     harmonic mean over each core's own instruction shares; shared
 *     LLC/HCRAC hit rates weight by each slice's activation rate —
 *     into a SystemResult standing in for the full run. Error model
 *     and knobs: docs/traces.md.
 *
 * Functional warming is a pure function of the record streams, so the
 * sampled result stays bit-identical across the PerCycle and Calendar
 * kernels and repeat invocations (tests/test_sampling.cc).
 */

#ifndef CCSIM_TRACE_SAMPLING_HH
#define CCSIM_TRACE_SAMPLING_HH

#include <cstdint>
#include <string>
#include <vector>

#include "sim/system.hh"
#include "trace/format.hh"

namespace ccsim::trace {

/** Row-hash histogram width of an interval signature, per core. */
constexpr std::uint32_t kSignatureBuckets = 32;

struct SamplingConfig {
    std::uint64_t intervalInsts = 1'000'000; ///< Slice length (per core).
    std::uint64_t warmupInsts = 100'000;     ///< Detailed lead-in.
    /**
     * Functional warm window per slice (instructions per core): the
     * stretch before the detailed lead-in replayed into LLC/HCRAC tag
     * state without timing. 0 disables functional warming; it is also
     * skipped when the VM subsystem is enabled (the functional model
     * has no MMU, so trace addresses would not match post-translation
     * traffic).
     */
    std::uint64_t functionalWarmInsts = 4'000'000;
    std::uint32_t maxClusters = 8; ///< k (SimPoint maxK).
    /**
     * Bounded-RAM profiling cap: when a trace yields more intervals
     * than this, adjacent intervals merge and the effective interval
     * length doubles (streaming aggregation of the raw counts).
     */
    std::uint32_t maxIntervals = 4096;
    std::uint64_t seed = 42; ///< Clustering RNG seed.
};

/** One profiled co-phase interval (indices are absolute positions). */
struct IntervalInfo {
    /** Per-core cut of the interval over that core's trace stream. */
    struct PerCore {
        std::uint64_t startRecord = 0;
        std::uint64_t startInst = 0;
        std::uint64_t warmStartRecord = 0; ///< Detailed lead-in start.
        std::uint64_t warmStartInst = 0;
        std::uint64_t insts = 0;   ///< Actual instructions inside.
        std::uint64_t records = 0; ///< Records inside.
    };
    std::vector<PerCore> cores;
    std::uint64_t insts = 0;   ///< Summed over cores.
    std::uint64_t records = 0; ///< Summed over cores.
    /**
     * Concatenated per-core chunks, each kSignatureBuckets + 2 wide:
     * the row-hash histogram, memory intensity and write fraction.
     */
    std::vector<double> signature;
    int cluster = -1;
};

/** One representative slice's detailed run. */
struct SampledSlice {
    std::uint64_t interval = 0; ///< Index into intervals.
    double weight = 0.0;        ///< Cluster share of total instructions.
    /** Per-core cluster share of that core's own instructions. */
    std::vector<double> coreWeight;
    std::uint64_t measuredInsts = 0; ///< nCores × targetInsts.
    sim::SystemResult result;
};

struct SampledResult {
    /**
     * Weighted stand-in for the full run. Headline metrics are
     * populated (per-core ipc, cpuCycles, activations, hcracHitRate,
     * providerHitRate, unlimitedHitRate, rmpkc); subsystem breakdowns
     * stay at their defaults — read them per-slice instead.
     */
    sim::SystemResult aggregate;
    std::vector<IntervalInfo> intervals;
    std::vector<SampledSlice> slices;
    std::uint64_t totalInsts = 0;    ///< Summed over all cores' traces.
    std::uint64_t detailedInsts = 0; ///< Actually simulated detailed.
    std::uint64_t functionalInsts = 0; ///< Replayed functionally.
    int clusters = 0;
};

class SampledSimulation
{
  public:
    /**
     * Multi-core entry point: one trace per core.
     *
     * @param config SimConfig whose kernel/scheme/etc. apply to each
     *        representative slice. warmupInsts/targetInsts are ignored
     *        (the sampler owns them per slice).
     * @throws resilience::SimError{InvalidConfig} unless
     *         trace_paths.size() == config.nCores and the sampling
     *         parameters are coherent.
     */
    SampledSimulation(const sim::SimConfig &config,
                      const std::vector<std::string> &trace_paths,
                      const SamplingConfig &sampling);

    /** Single-core convenience wrapper. */
    SampledSimulation(const sim::SimConfig &config,
                      const std::string &trace_path,
                      const SamplingConfig &sampling);

    /** Profile + cluster + simulate representatives + aggregate. */
    SampledResult run();

  private:
    /** One representative's slice: planned serially, run as one point. */
    struct SliceJob {
        sim::SimConfig config; ///< With the slice's warm-up and target.
        SampledSlice slice;    ///< Planned fields; run() adds result.
        std::uint64_t functionalInsts = 0;
    };

    /**
     * Open the traces, fast-forward, functionally warm and run the
     * detailed System of `job`, returning its result. Reads only `ivs`
     * and members; writes only `job.functionalInsts`, so slices may run
     * concurrently.
     */
    sim::SystemResult simulateSlice(const std::vector<IntervalInfo> &ivs,
                                    SliceJob &job) const;
    /** @param per_core_insts out: each core's total instructions. */
    std::vector<IntervalInfo>
    profileTrace(std::vector<std::uint64_t> &per_core_insts);
    /** k-means++ over signatures; returns cluster count. */
    int clusterIntervals(std::vector<IntervalInfo> &intervals);

    sim::SimConfig config_;
    std::vector<std::string> paths_; ///< One per core.
    SamplingConfig sampling_;
};

} // namespace ccsim::trace

#endif // CCSIM_TRACE_SAMPLING_HH
