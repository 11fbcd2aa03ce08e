#include "sim/experiment.hh"

#include <sched.h>

#include <algorithm>
#include <cstdlib>
#include <exception>
#include <set>

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
ParallelRunner::workerLoop()
{
    std::unique_lock<std::mutex> lock(mutex_);
    while (true) {
        workCv_.wait(lock, [this] { return stop_ || !queue_.empty(); });
        if (queue_.empty())
            return; // stop_ and drained.
        std::function<void()> job = std::move(queue_.front());
        queue_.pop_front();
        lock.unlock();
        job();
        lock.lock();
    }
}

std::vector<SystemResult>
runSweep(std::size_t n, const std::function<SystemResult(std::size_t)> &point,
         int threads)
{
    if (threads <= 0)
        threads = ParallelRunner::defaultThreads();
    std::vector<SystemResult> results(n);
    std::vector<std::exception_ptr> errors(n);
    const std::size_t workers =
        std::clamp<std::size_t>(n, 1, static_cast<std::size_t>(threads));
    {
        // The pool's destructor runs every queued point before it joins.
        ParallelRunner pool(static_cast<int>(workers));
        for (std::size_t i = 0; i < n; ++i)
            pool.enqueue([i, &point, &results, &errors] {
                try {
                    results[i] = point(i);
                } catch (...) {
                    errors[i] = std::current_exception();
                }
            });
    }
    for (const std::exception_ptr &err : errors)
        if (err)
            std::rethrow_exception(err);
    return results;
}

std::map<std::string, double>
aloneIpcs(const std::vector<int> &mixes)
{
    std::set<std::string> distinct;
    for (int mix : mixes)
        for (const std::string &w : workloads::mixWorkloads(mix))
            distinct.insert(w);
    const std::vector<std::string> names(distinct.begin(), distinct.end());
    const std::vector<SystemResult> runs =
        runSweep(names.size(), [&names](std::size_t i) {
            return runSingle(names[i], Scheme::Baseline);
        });
    std::map<std::string, double> alone;
    for (std::size_t i = 0; i < names.size(); ++i)
        alone.emplace(names[i], runs[i].ipc.at(0));
    return alone;
}

double
weightedSpeedup(const std::vector<std::string> &mix,
                const std::vector<double> &ipc_shared,
                const std::map<std::string, double> &alone)
{
    CCSIM_ASSERT(mix.size() == ipc_shared.size(),
                 "mix/IPC size mismatch");
    double ws = 0.0;
    for (size_t i = 0; i < mix.size(); ++i)
        ws += ipc_shared[i] / alone.at(mix[i]);
    return ws;
}

} // namespace ccsim::sim
