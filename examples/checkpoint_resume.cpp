/**
 * @file
 * Kill-and-resume harness for the checkpoint subsystem
 * (docs/resilience.md). Runs a deterministic two-channel ChargeCache
 * simulation with periodic autosave; a later invocation with
 * CCSIM_RESUME=1 restores the newest snapshot and finishes the run.
 * The final stats JSON is written atomically and printed with full
 * precision, so CI can SIGKILL the first run mid-flight, resume, and
 * assert the result is byte-identical to an uninterrupted run.
 *
 * Environment:
 *   CCSIM_SNAPSHOT       snapshot path (default ccsim_resume.snap)
 *   CCSIM_RESULT         result JSON path (default RESUME_result.json)
 *   CCSIM_CKPT_INTERVAL  autosave period, CPU cycles (default 200000)
 *   CCSIM_RESUME         1 = restore CCSIM_SNAPSHOT before running
 *   CCSIM_RESUME_KERNEL  percycle | calendar (default)
 *   CCSIM_INSTS          instructions/core after warm-up (default 60000)
 *   CCSIM_SLOWDOWN_US    optional per-autosave sleep, microseconds —
 *                        stretches wall-clock so a CI kill lands
 *                        mid-run without inflating the simulation
 *
 * Exit codes: 0 run complete, 2 usage/config error, 3 interrupted by
 * SIGINT/SIGTERM (a final snapshot was saved first).
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "resilience/checkpoint.hh"
#include "resilience/error.hh"
#include "resilience/io.hh"
#include "sim/experiment.hh"
#include "sim/system.hh"
#include "workloads/profiles.hh"

using namespace ccsim;

namespace {

std::string
envStr(const char *name, const char *def)
{
    const char *v = std::getenv(name);
    return v && *v ? v : def;
}

sim::KernelMode
parseKernel(const std::string &name)
{
    if (name == "percycle")
        return sim::KernelMode::PerCycle;
    if (name == "calendar")
        return sim::KernelMode::Calendar;
    throw resilience::SimError(resilience::ErrorKind::InvalidConfig,
                               "CCSIM_RESUME_KERNEL '" + name +
                                   "' is not a kernel name");
}

void
writeResult(const std::string &path, const sim::SystemResult &res)
{
    std::string json = "{\"bench\": \"checkpoint_resume\"";
    char buf[64];
    auto num = [&](const char *key, double v) {
        std::snprintf(buf, sizeof(buf), ", \"%s\": %.17g", key, v);
        json += buf;
    };
    auto u64 = [&](const char *key, std::uint64_t v) {
        std::snprintf(buf, sizeof(buf), ", \"%s\": %llu", key,
                      (unsigned long long)v);
        json += buf;
    };
    u64("cpu_cycles", res.cpuCycles);
    json += ", \"ipc\": [";
    for (std::size_t i = 0; i < res.ipc.size(); ++i) {
        std::snprintf(buf, sizeof(buf), "%s%.17g", i ? ", " : "",
                      res.ipc[i]);
        json += buf;
    }
    json += "]";
    u64("activations", res.activations);
    num("provider_hit_rate", res.providerHitRate);
    num("hcrac_hit_rate", res.hcracHitRate);
    num("rmpkc", res.rmpkc);
    u64("llc_misses", res.llc.misses);
    u64("reads", res.ctrl.reads);
    u64("writes", res.ctrl.writes);
    u64("read_latency_sum", res.ctrl.readLatencySum);
    num("energy_total_nj", res.energy.totalNj());
    json += "}\n";
    resilience::atomicWriteFile(path, json);
    std::fputs(json.c_str(), stdout);
}

} // namespace

int
main()
{
    const std::string snap_path =
        envStr("CCSIM_SNAPSHOT", "ccsim_resume.snap");
    const std::string result_path =
        envStr("CCSIM_RESULT", "RESUME_result.json");
    const CpuCycle interval = sim::envU64("CCSIM_CKPT_INTERVAL", 200000);
    const bool resume = sim::envU64("CCSIM_RESUME", 0) != 0;
    const std::uint64_t slow_us = sim::envU64("CCSIM_SLOWDOWN_US", 0);

    try {
        sim::SimConfig cfg = sim::SimConfig::eightCore();
        cfg.nCores = 2;
        cfg.scheme = sim::Scheme::ChargeCache;
        cfg.targetInsts = sim::envU64("CCSIM_INSTS", 60000);
        cfg.warmupInsts = cfg.targetInsts / 8;
        cfg.kernel = parseKernel(envStr("CCSIM_RESUME_KERNEL", "calendar"));
        cfg.finalizeChargeCache();

        const std::vector<std::string> workloads{"mcf", "libquantum"};
        sim::System system(cfg, workloads);

        resilience::installStopSignalHandler();
        system.setCheckpointHook(
            interval, interval, [&](sim::System &sys) {
                resilience::atomicWriteFile(snap_path,
                                            sys.serializeSnapshot());
                if (slow_us)
                    std::this_thread::sleep_for(
                        std::chrono::microseconds(slow_us));
                return !resilience::stopRequested();
            });

        if (resume) {
            system.restoreSnapshot(resilience::readFileBytes(snap_path));
            std::fprintf(stderr, "resumed from %s\n", snap_path.c_str());
        }

        sim::SystemResult res = system.run();
        writeResult(result_path, res);
        return 0;
    } catch (const resilience::SimError &e) {
        if (e.kind() == resilience::ErrorKind::Interrupted) {
            std::fprintf(stderr,
                         "interrupted; final snapshot in %s (%s)\n",
                         snap_path.c_str(), e.what());
            return 3;
        }
        std::fprintf(stderr, "error: %s\n", e.what());
        return 2;
    }
}
