/**
 * @file
 * Shared experiment plumbing for the reproduction harness (bench/):
 * canonical single-core and eight-core configurations, parallel sweeps,
 * alone IPCs and weighted speedup (the paper's multi-core metric
 * [Snavely & Tullsen, ASPLOS 2000]).
 *
 * Scale knobs come from the environment so the full suite finishes on a
 * laptop while remaining faithful in shape:
 *   CCSIM_INSTS  - instructions per core after warm-up (default 100k)
 *   CCSIM_WARMUP - warm-up instructions per core (default 10k)
 */

#ifndef CCSIM_SIM_EXPERIMENT_HH
#define CCSIM_SIM_EXPERIMENT_HH

#include <condition_variable>
#include <deque>
#include <functional>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "sim/system.hh"

namespace ccsim::sim {

/** Scale parameters (env-overridable). */
struct ExpScale {
    std::uint64_t insts = 100000;
    std::uint64_t warmup = 10000;
};

/** Read CCSIM_INSTS / CCSIM_WARMUP from the environment. */
ExpScale expScale();

/**
 * Validated environment scalars: unset/empty returns `def`; anything
 * that does not parse fully throws SimError{InvalidConfig} naming the
 * variable (a typo'd scale or gate knob must never silently become 0).
 * So does an integer with a sign or past 2^64 - 1, and a nan, inf or
 * overflowing number. User input is a structured, catchable error —
 * not an abort.
 */
std::uint64_t envU64(const char *name, std::uint64_t def);
double envF64(const char *name, double def);

/** Optional config mutation applied before a run. */
using ConfigTweak = std::function<void(SimConfig &)>;

/** Canonical Table 1 single-core config for `scheme`. */
SimConfig makeSingleConfig(Scheme scheme, const ExpScale &scale);

/** Canonical Table 1 eight-core config for `scheme`. */
SimConfig makeEightConfig(Scheme scheme, const ExpScale &scale);

/** Run one single-core workload. */
SystemResult runSingle(const std::string &workload, Scheme scheme,
                       const ConfigTweak &tweak = nullptr);

/** Run one eight-core mix (1..20). */
SystemResult runMix(int mix_id, Scheme scheme,
                    const ConfigTweak &tweak = nullptr);

/**
 * Baseline single-core IPC of every workload of the eight-core `mixes`
 * (one runSweep): the denominators of weighted speedup.
 */
std::map<std::string, double> aloneIpcs(const std::vector<int> &mixes);

/**
 * Weighted speedup of a mix run: sum_i IPCshared_i / IPCalone_i, with
 * IPCalone_i = alone.at(mix[i]).
 */
double weightedSpeedup(const std::vector<std::string> &mix,
                       const std::vector<double> &ipc_shared,
                       const std::map<std::string, double> &alone);

// ---------------------------------------------------------------------
// Parallel sweep execution. Every (scheme, workload, config) point of a
// sweep is an independent System — per-instance RNG seeding, no shared
// mutable state — so points fan cleanly across hardware threads.

/**
 * Fixed-size thread pool executing enqueued jobs FIFO. A job must not
 * throw (one that does ends the process): each user, runSweep and the
 * sampled profile pass, catches its own errors.
 */
class ParallelRunner
{
  public:
    /** Most workers one pool may start (and CCSIM_THREADS may ask for). */
    static constexpr int kMaxThreads = 1024;

    /**
     * `threads` <= 0 selects defaultThreads().
     * @throws resilience::SimError{InvalidConfig} above kMaxThreads,
     *         {ResourceExhausted} when a worker cannot be started (the
     *         workers already running are joined first).
     */
    explicit ParallelRunner(int threads = 0);

    /** Joins the workers; outstanding jobs are completed first. */
    ~ParallelRunner();

    ParallelRunner(const ParallelRunner &) = delete;
    ParallelRunner &operator=(const ParallelRunner &) = delete;

    /** Enqueue a job for asynchronous execution on the pool. */
    void enqueue(std::function<void()> job);

    /**
     * CCSIM_THREADS when set and non-zero, else the number of CPUs in
     * the calling thread's affinity mask (std::thread::
     * hardware_concurrency when that cannot be read), at most
     * kMaxThreads.
     * @throws resilience::SimError{InvalidConfig} naming the variable
     *         when it does not parse or exceeds kMaxThreads.
     */
    static int defaultThreads();

  private:
    void workerLoop();
    /** Stop and join every started worker. */
    void joinAll();

    std::vector<std::thread> workers_;
    std::deque<std::function<void()>> queue_;
    std::mutex mutex_;
    std::condition_variable workCv_; ///< Queue became non-empty / stop.
    bool stop_ = false;
};

/**
 * Evaluate `point(i)` once for each i in [0, n) on a pool of
 * min(n, threads) workers and return the results in index order: the
 * one way independent simulations run in parallel. `threads` <= 0
 * selects ParallelRunner::defaultThreads(). Every point runs even when
 * another fails; once all have finished, the exception of the lowest
 * failing index is rethrown, so the error reported does not depend on
 * thread timing.
 */
std::vector<SystemResult>
runSweep(std::size_t n, const std::function<SystemResult(std::size_t)> &point,
         int threads = 0);

} // namespace ccsim::sim

#endif // CCSIM_SIM_EXPERIMENT_HH
