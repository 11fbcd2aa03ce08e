#include "sim/experiment.hh"

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cstdlib>
#include <future>
#include <map>

#include "common/log.hh"
#include "resilience/error.hh"
#include "workloads/profiles.hh"

namespace ccsim::sim {

std::uint64_t
envU64(const char *name, std::uint64_t def)
{
    const char *v = std::getenv(name);
    if (!v || !*v)
        return def;
    char *end = nullptr;
    std::uint64_t parsed = std::strtoull(v, &end, 10);
    if (end == v || *end != '\0')
        throw resilience::SimError(
            resilience::ErrorKind::InvalidConfig,
            std::string("environment variable ") + name + "='" + v +
                "' is not an integer");
    return parsed;
}

double
envF64(const char *name, double def)
{
    const char *v = std::getenv(name);
    if (!v || !*v)
        return def;
    char *end = nullptr;
    double parsed = std::strtod(v, &end);
    if (end == v || *end != '\0')
        throw resilience::SimError(
            resilience::ErrorKind::InvalidConfig,
            std::string("environment variable ") + name + "='" + v +
                "' is not a number");
    return parsed;
}

ExpScale
expScale()
{
    ExpScale s;
    s.insts = envU64("CCSIM_INSTS", s.insts);
    s.warmup = envU64("CCSIM_WARMUP", s.warmup);
    return s;
}

SimConfig
makeSingleConfig(Scheme scheme, const ExpScale &scale)
{
    SimConfig cfg = SimConfig::singleCore();
    cfg.scheme = scheme;
    cfg.targetInsts = scale.insts;
    cfg.warmupInsts = scale.warmup;
    cfg.finalizeChargeCache();
    return cfg;
}

SimConfig
makeEightConfig(Scheme scheme, const ExpScale &scale)
{
    SimConfig cfg = SimConfig::eightCore();
    cfg.scheme = scheme;
    cfg.targetInsts = scale.insts;
    cfg.warmupInsts = scale.warmup;
    cfg.finalizeChargeCache();
    return cfg;
}

SystemResult
runSingle(const std::string &workload, Scheme scheme,
          const ConfigTweak &tweak)
{
    SimConfig cfg = makeSingleConfig(scheme, expScale());
    if (tweak)
        tweak(cfg);
    System system(cfg, std::vector<std::string>{workload});
    return system.run();
}

SystemResult
runMix(int mix_id, Scheme scheme, const ConfigTweak &tweak)
{
    SimConfig cfg = makeEightConfig(scheme, expScale());
    if (tweak)
        tweak(cfg);
    System system(cfg, workloads::mixWorkloads(mix_id, cfg.nCores));
    return system.run();
}

double
aloneIpc(const std::string &workload)
{
    // Per-workload shared_future memo: the first caller computes (off
    // the lock), concurrent callers for the same workload wait on the
    // same future instead of duplicating the simulation.
    static std::mutex memo_mutex;
    static std::map<std::string, std::shared_future<double>> memo;

    std::packaged_task<double()> task;
    std::shared_future<double> result;
    {
        std::lock_guard<std::mutex> lock(memo_mutex);
        auto it = memo.find(workload);
        if (it != memo.end()) {
            result = it->second;
        } else {
            task = std::packaged_task<double()>([workload] {
                return runSingle(workload, Scheme::Baseline).ipc.at(0);
            });
            result = task.get_future().share();
            memo.emplace(workload, result);
        }
    }
    if (task.valid())
        task();
    return result.get();
}

// ---------------------------------------------------------------------
// ParallelRunner

int
ParallelRunner::defaultThreads()
{
    const std::uint64_t env = envU64("CCSIM_THREADS", 0);
    if (env > static_cast<std::uint64_t>(kMaxThreads))
        throw resilience::SimError(
            resilience::ErrorKind::InvalidConfig,
            "environment variable CCSIM_THREADS=" + std::to_string(env) +
                " exceeds the cap of " + std::to_string(kMaxThreads) +
                " threads");
    if (env > 0)
        return static_cast<int>(env);
    // The CPUs this thread may run on (taskset, cpusets), not all of the
    // host's: a worker per host CPU on one allowed CPU only time-slices.
    unsigned cpus = 0;
    cpu_set_t mask{};
    if (sched_getaffinity(0, sizeof mask, &mask) == 0)
        cpus = static_cast<unsigned>(CPU_COUNT(&mask));
    if (cpus == 0)
        cpus = std::thread::hardware_concurrency();
    return cpus > 0 ? static_cast<int>(std::min<unsigned>(cpus, kMaxThreads))
                    : 1;
}

ParallelRunner::ParallelRunner(int threads)
{
    if (threads <= 0)
        threads = defaultThreads();
    if (threads > kMaxThreads)
        throw resilience::SimError(
            resilience::ErrorKind::InvalidConfig,
            "a thread pool of " + std::to_string(threads) +
                " exceeds the cap of " + std::to_string(kMaxThreads));
    try {
        workers_.reserve(static_cast<std::size_t>(threads));
        for (int i = 0; i < threads; ++i)
            workers_.emplace_back([this] { workerLoop(); });
    } catch (const std::exception &e) {
        // Destroying a joinable std::thread terminates the process.
        const std::size_t started = workers_.size();
        joinAll();
        throw resilience::SimError(
            resilience::ErrorKind::ResourceExhausted,
            "cannot start worker " + std::to_string(started) + " of " +
                std::to_string(threads) + ": " + e.what());
    }
}

ParallelRunner::~ParallelRunner()
{
    joinAll();
}

void
ParallelRunner::joinAll()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stop_ = true;
    }
    workCv_.notify_all();
    for (std::thread &w : workers_)
        w.join();
    workers_.clear();
}

void
ParallelRunner::enqueue(std::function<void()> job)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        CCSIM_ASSERT(!stop_, "enqueue after shutdown");
        queue_.push_back(std::move(job));
    }
    workCv_.notify_one();
}

void
ParallelRunner::waitAll()
{
    std::unique_lock<std::mutex> lock(mutex_);
    idleCv_.wait(lock,
                 [this] { return queue_.empty() && inFlight_ == 0; });
    if (firstError_) {
        std::exception_ptr err = firstError_;
        firstError_ = nullptr;
        std::rethrow_exception(err);
    }
}

void
ParallelRunner::workerLoop()
{
    std::unique_lock<std::mutex> lock(mutex_);
    while (true) {
        workCv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
        if (queue_.empty())
            return; // stop_ and drained.
        std::function<void()> job = std::move(queue_.front());
        queue_.pop_front();
        ++inFlight_;
        lock.unlock();
        std::exception_ptr err;
        try {
            job();
        } catch (...) {
            err = std::current_exception();
        }
        lock.lock();
        --inFlight_;
        if (err && !firstError_)
            firstError_ = err;
        if (queue_.empty() && inFlight_ == 0)
            idleCv_.notify_all();
    }
}

std::vector<SystemResult>
runSweep(std::size_t n, const std::function<SystemResult(std::size_t)> &point,
         int threads)
{
    // Transient failures (SimError::retryable(): resource exhaustion,
    // I/O) get a bounded retry with exponential backoff — a sweep of
    // hundreds of points should not die because one point hit a
    // momentary allocation or filesystem hiccup. Deterministic errors
    // (bad config, malformed trace, corrupt data) propagate on first
    // throw.
    const int attempts =
        static_cast<int>(envU64("CCSIM_SWEEP_RETRIES", 2)) + 1;
    std::vector<SystemResult> results(n);
    ParallelRunner pool(threads);
    for (std::size_t i = 0; i < n; ++i)
        pool.enqueue([i, &point, &results, attempts] {
            for (int attempt = 1;; ++attempt) {
                try {
                    results[i] = point(i);
                    return;
                } catch (const resilience::SimError &e) {
                    if (!e.retryable() || attempt >= attempts)
                        throw;
                    auto backoff = std::chrono::milliseconds(
                        1u << (attempt < 10 ? attempt : 10));
                    CCSIM_WARN("sweep point ", i, " attempt ", attempt,
                               " failed (", e.what(), "); retrying");
                    std::this_thread::sleep_for(backoff);
                }
            }
        });
    pool.waitAll();
    return results;
}

double
weightedSpeedup(const std::vector<std::string> &mix,
                const std::vector<double> &ipc_shared)
{
    CCSIM_ASSERT(mix.size() == ipc_shared.size(),
                 "mix/IPC size mismatch");
    double ws = 0.0;
    for (size_t i = 0; i < mix.size(); ++i)
        ws += ipc_shared[i] / aloneIpc(mix[i]);
    return ws;
}

} // namespace ccsim::sim
