/**
 * @file
 * Host-throughput benchmark of the ccsim simulator: runs one workload's
 * fixed simulated work repeatedly for a given number of seconds, one
 * serial calendar-kernel simulation at a time, checks every result, and
 * prints the metrics of METRICS.md. The last stdout line is one JSON
 * object: {"correct", "attempted", "failed", "metrics"}.
 *
 *   ccsim_perfbench --workload mix8_closed|single_open|sampled_dc
 *                   --seed N --seconds S --trace 0|1 --out DIR
 *                   [--perturb]
 *
 * --trace 0 reports the end-to-end metrics, measured without probes.
 * --trace 1 alternates unprobed and probed repetitions of the same work
 * and reports the per-layer metrics from the probed ones (decorated
 * trace sources, command listeners, obs histograms, host spans written
 * to DIR as Chrome trace JSON). --perturb flips one bit of one result to
 * show that the correctness checks catch it.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <map>
#include <memory>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "bench_common.hh"
#include "dram/addr.hh"
#include "probes.hh"
#include "resilience/io.hh"
#include "sim/experiment.hh"
#include "trace/datacenter.hh"
#include "trace/format.hh"
#include "trace/replay.hh"
#include "trace/sampling.hh"
#include "workloads/profiles.hh"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif
#ifndef PERFBENCH_SANITIZE
#define PERFBENCH_SANITIZE "OFF"
#endif

namespace {

using namespace ccsim;
using namespace perfbench;

// ChargeCache paper (HPCA 2016) headline numbers the model is compared
// with: Fig. 7b/7a average speedup of ChargeCache over Baseline, and
// Fig. 9 HCRAC hit rate at 128 entries.
constexpr double kPaperGain8CorePct = 8.6;
constexpr double kPaperGain1CorePct = 2.1;
constexpr double kPaperHcrac8CorePct = 66.0;
constexpr double kPaperHcrac1CorePct = 38.0;

struct Options {
    std::string workload;
    std::uint64_t seed = 0;
    double seconds = 0.0;
    bool trace = false;
    bool perturb = false;
    std::string outDir;
};

// ------------------------------------------------------------ workloads

/** Scale of one workload's fixed simulated work. */
struct Sizing {
    std::uint64_t warmup = 0;  ///< Full runs: warm-up insts per core.
    std::uint64_t insts = 0;   ///< Full runs: measured insts per core.
    std::uint64_t shortDiv = 1; ///< Warm-up/oracle passes: insts / this.
    std::uint64_t traceInsts = 0;  ///< Sampled: instructions per trace.
    std::uint64_t oracleTraceInsts = 0; ///< Sampled: oracle-pass traces.
    int setupRepeats = 1; ///< Set-ups timed for setup_s (median).
};

/** One simulation of the work unit; points alternate Baseline and
    ChargeCache over each input. */
struct Point {
    std::string label;
    sim::SimConfig cfg;
    std::vector<std::string> apps; ///< Full runs: profile per core.
    std::size_t trace = 0;         ///< Sampled runs: index into traces.
};

struct Workload {
    std::string name;
    bool sampled = false;
    bool eightCore = false;
    Sizing size;
    std::vector<Point> points;
    trace::SamplingConfig sampling;
    std::vector<std::string> generators; ///< Sampled: one trace each.
};

const sim::Scheme kSchemes[2] = {sim::Scheme::Baseline,
                                 sim::Scheme::ChargeCache};

/** Derive independent per-input seeds from the benchmark seed. */
std::uint64_t
mixSeed(std::uint64_t seed, std::uint64_t k)
{
    std::uint64_t z = seed * 0x9E3779B97F4A7C15ull + k + 1;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
}

Workload
makeWorkload(const std::string &name, std::uint64_t seed)
{
    Workload w;
    w.name = name;
    if (name == "mix8_closed") {
        // Table 1 eight-core system; a fixed subset of the w1..w20 mixes.
        w.eightCore = true;
        w.size.warmup = 10000;
        w.size.insts = 60000;
        w.size.shortDiv = 10;
        w.size.setupRepeats = 5;
        const int mixes[] = {1, 6, 11, 16};
        for (int mix : mixes)
            for (sim::Scheme scheme : kSchemes) {
                Point p;
                p.label = "w" + std::to_string(mix) + "/" +
                          sim::schemeName(scheme);
                p.cfg = sim::makeEightConfig(
                    scheme, {w.size.insts, w.size.warmup});
                p.cfg.seed = seed;
                p.apps = workloads::mixWorkloads(mix, p.cfg.nCores);
                w.points.push_back(p);
            }
    } else if (name == "single_open") {
        // Table 1 single-core system, all 22 profiles.
        w.size.warmup = 10000;
        w.size.insts = 100000;
        w.size.shortDiv = 5;
        w.size.setupRepeats = 7;
        const auto &names = workloads::allProfileNames();
        for (std::size_t i = 0; i < names.size(); ++i)
            for (sim::Scheme scheme : kSchemes) {
                Point p;
                p.label = names[i] + "/" + sim::schemeName(scheme);
                p.cfg = sim::makeSingleConfig(
                    scheme, {w.size.insts, w.size.warmup});
                p.cfg.seed = seed;
                p.apps = {names[i]};
                w.points.push_back(p);
            }
    } else if (name == "sampled_dc") {
        // Datacenter CCTR traces through SampledSimulation, single-core.
        w.sampled = true;
        w.size.traceInsts = 12'000'000;
        w.size.oracleTraceInsts = 1'200'000;
        w.size.setupRepeats = 5;
        w.sampling.intervalInsts = 500'000;
        w.sampling.warmupInsts = 50'000;
        w.sampling.functionalWarmInsts = 1'000'000;
        w.sampling.maxClusters = 4;
        w.sampling.seed = seed;
        w.generators = {"kv-zipf", "web-fanout", "analytics-scan"};
        for (std::size_t t = 0; t < w.generators.size(); ++t)
            for (sim::Scheme scheme : kSchemes) {
                Point p;
                p.label = w.generators[t] + "/" + sim::schemeName(scheme);
                p.cfg = sim::SimConfig::singleCore();
                p.cfg.scheme = scheme;
                p.cfg.seed = seed;
                p.cfg.finalizeChargeCache();
                p.trace = t;
                w.points.push_back(p);
            }
    } else {
        throw std::runtime_error("unknown workload '" + name +
                                 "' (mix8_closed, single_open, "
                                 "sampled_dc)");
    }
    // Model the idealized unlimited table too (Fig. 9's dashed bars).
    for (Point &p : w.points)
        p.cfg.cc.trackUnlimited = true;
    return w;
}

/** LLC-busting datacenter generator configs (as in bench/abl_sampling). */
std::unique_ptr<cpu::TraceSource>
makeGenerator(const std::string &name, std::uint64_t seed, Addr capacity)
{
    if (name == "kv-zipf") {
        trace::ZipfianKVConfig kv;
        kv.nKeys = 1 << 15;
        kv.valueLines = 32;
        kv.theta = 0.6;
        kv.indexLines = 1 << 14;
        kv.phaseRequests = 40000;
        return std::make_unique<trace::ZipfianKVTrace>(kv, seed, 0,
                                                       capacity);
    }
    if (name == "web-fanout") {
        trace::WebTierConfig web;
        web.nUsers = 1 << 20;
        web.phaseRequests = 200000;
        return std::make_unique<trace::WebTierTrace>(web, seed, 0,
                                                     capacity);
    }
    trace::AnalyticsScanConfig an;
    an.tableLines = 1 << 17;
    an.dimLines = 1 << 16;
    an.scanLinesPerPhase = 1 << 17;
    return std::make_unique<trace::AnalyticsScanTrace>(an, seed, 0,
                                                       capacity);
}

Addr
capacityLines(const sim::SimConfig &cfg)
{
    return dram::AddressMapper(cfg.buildSpec().org, cfg.mapping).numLines();
}

/**
 * The per-core synthetic sources System's name constructor would build
 * (same seeds and regions), so a System built from them with or without
 * decorators simulates exactly what System(cfg, names) does.
 */
std::vector<std::unique_ptr<cpu::TraceSource>>
syntheticSources(const sim::SimConfig &cfg,
                 const std::vector<std::string> &apps)
{
    const Addr capacity = capacityLines(cfg);
    const Addr region = capacity / static_cast<Addr>(cfg.nCores);
    std::vector<std::unique_ptr<cpu::TraceSource>> out;
    for (int i = 0; i < cfg.nCores; ++i)
        out.push_back(std::make_unique<workloads::SyntheticTrace>(
            workloads::profileByName(apps[i]),
            cfg.seed + 0x9E37 * (i + 1), region * i, capacity));
    return out;
}

/** `cfg` with warm-up and measured lengths divided by `div`. */
sim::SimConfig
shortened(sim::SimConfig cfg, std::uint64_t div)
{
    cfg.targetInsts = std::max<std::uint64_t>(1000, cfg.targetInsts / div);
    cfg.warmupInsts /= div;
    return cfg;
}

// ------------------------------------------------------------- running

/** Probe readings of one probed full run. */
struct Probes {
    CommandCounts cmds;
    std::uint64_t cmdMismatches = 0;
    std::uint64_t providerReduced = 0;
    std::uint64_t records = 0;
    double nextS = 0.0;
    Histogram readLatency, queueWait;
    bool obs = false;
};

/** Everything one point's simulation yields. */
struct Outcome {
    bool ok = true;
    std::string error;
    std::uint64_t digest = 0;
    double buildS = 0.0, runS = 0.0;
    sim::SystemResult result; ///< Sampled: the aggregate.
    std::uint64_t detailedInsts = 0, coveredInsts = 0, simCycles = 0;
    double energyNj = 0.0;
    // Full runs.
    cpu::CoreStats core; ///< Summed over cores.
    Probes probes;
    // Sampled runs.
    std::uint64_t intervals = 0, functionalInsts = 0;
    int clusters = 0;
};

struct Failures {
    std::uint64_t attempted = 0, failed = 0;

    void
    fail(const std::string &what)
    {
        ++failed;
        std::fprintf(stderr, "CHECK FAILED: %s\n", what.c_str());
    }
};

/**
 * One full-system run from `sources`. With `probe`, every source is
 * wrapped in a TimedSource, every channel gets a CommandCounter and the
 * obs histograms are on; otherwise the System is built the same way
 * from the bare sources.
 */
Outcome
runFull(sim::SimConfig cfg, std::vector<cpu::TraceSource *> sources,
        bool probe, SpanLog *spans, const std::string &label,
        std::vector<std::vector<cpu::TraceRecord>> *capture = nullptr)
{
    Outcome out;
    std::vector<std::unique_ptr<TimedSource>> timed;
    if (probe) {
        cfg.obs.enable = true;
        cfg.obs.histograms = true;
        cfg.obs.sampleInterval = 0;
        if (capture)
            capture->assign(sources.size(), {});
        for (std::size_t i = 0; i < sources.size(); ++i) {
            timed.push_back(std::make_unique<TimedSource>(
                *sources[i], capture ? &(*capture)[i] : nullptr));
            sources[i] = timed.back().get();
        }
    }
    Clock::time_point t0 = Clock::now();
    std::unique_ptr<sim::System> sys;
    {
        ScopedSpan span(spans, "System::System " + label);
        sys = std::make_unique<sim::System>(cfg, sources);
    }
    out.buildS = secondsSince(t0);
    std::vector<std::unique_ptr<CommandCounter>> counters;
    if (probe)
        for (int ch = 0; ch < cfg.channels; ++ch) {
            counters.push_back(
                std::make_unique<CommandCounter>(sys->controller(ch)));
            sys->controller(ch).addListener(counters.back().get());
        }
    t0 = Clock::now();
    {
        ScopedSpan span(spans, "System::run " + label);
        out.result = sys->run();
    }
    out.runS = secondsSince(t0);

    for (int i = 0; i < cfg.nCores; ++i) {
        cpu::Core &core = sys->core(i);
        const cpu::CoreStats &s = core.stats();
        out.core.retired += s.retired;
        out.core.memReads += s.memReads;
        out.core.memWrites += s.memWrites;
        out.core.stallCyclesFull += s.stallCyclesFull;
        out.core.blockedAccesses += s.blockedAccesses;
        if (!core.reachedTarget()) {
            out.ok = false;
            out.error = "core " + std::to_string(i) + " retired " +
                        std::to_string(s.retired) + " < target";
        }
        out.simCycles = std::max<std::uint64_t>(out.simCycles,
                                                core.targetCycle());
    }
    out.detailedInsts = static_cast<std::uint64_t>(cfg.nCores) *
                        (cfg.warmupInsts + cfg.targetInsts);
    out.coveredInsts = out.detailedInsts;
    out.energyNj = out.result.energy.totalNj();
    out.digest = digest(out.result);

    if (probe) {
        Probes &p = out.probes;
        for (int ch = 0; ch < cfg.channels; ++ch) {
            p.cmds += counters[ch]->counts();
            p.cmdMismatches += counters[ch]->mismatches();
            p.providerReduced += sys->provider(ch).reducedActivations;
        }
        for (const auto &t : timed) {
            p.records += t->records();
            p.nextS += t->nextSeconds();
        }
        if (obs::Telemetry *tele = sys->telemetry()) {
            p.obs = true;
            p.readLatency = tele->mergedReadLatency();
            p.queueWait = tele->mergedQueueWait();
        }
        // Reconciliation: listeners, obs and the controller agree.
        std::string bad;
        if (p.cmdMismatches)
            bad = "listener/controller ACT counts diverged mid-run";
        else if (p.cmds.acts != out.result.ctrl.acts)
            bad = "listener ACTs " + std::to_string(p.cmds.acts) +
                  " != ctrl.acts " + std::to_string(out.result.ctrl.acts);
        else if (p.cmds.reducedActs != p.providerReduced)
            bad = "listener reduced ACTs != provider count";
        else if (p.obs && p.readLatency.count() != out.result.ctrl.reads)
            bad = "obs read-latency count " +
                  std::to_string(p.readLatency.count()) +
                  " != ctrl.reads " + std::to_string(out.result.ctrl.reads);
        if (!bad.empty() && out.ok) {
            out.ok = false;
            out.error = bad;
        }
    }
    return out;
}

/** Fold a sampled result into one digest: aggregate, then each slice. */
std::uint64_t
sampledDigest(const trace::SampledResult &s)
{
    std::uint64_t h = digest(s.aggregate);
    for (const auto &sl : s.slices)
        h = digest(sl.result, h ^ (sl.interval * 0x100000001B3ull));
    return h ^ s.detailedInsts ^ (s.functionalInsts << 1) ^
           (static_cast<std::uint64_t>(s.clusters) << 48);
}

Outcome
runSampled(const Point &p, const std::string &path,
           const trace::SamplingConfig &sampling, SpanLog *spans)
{
    Outcome out;
    Clock::time_point t0 = Clock::now();
    std::unique_ptr<trace::SampledSimulation> sim;
    {
        ScopedSpan span(spans, "SampledSimulation " + p.label);
        sim = std::make_unique<trace::SampledSimulation>(p.cfg, path,
                                                         sampling);
    }
    out.buildS = secondsSince(t0);
    trace::SampledResult s;
    t0 = Clock::now();
    {
        ScopedSpan span(spans, "SampledSimulation::run " + p.label);
        s = sim->run();
    }
    out.runS = secondsSince(t0);
    out.result = s.aggregate;
    out.detailedInsts = s.detailedInsts;
    out.coveredInsts = s.totalInsts;
    out.functionalInsts = s.functionalInsts;
    out.intervals = s.intervals.size();
    out.clusters = s.clusters;
    for (const auto &sl : s.slices) {
        out.simCycles += sl.result.cpuCycles;
        out.energyNj += sl.result.energy.totalNj();
    }
    out.digest = sampledDigest(s);
    return out;
}

/** A written CCTR trace. */
struct TraceFile {
    std::string path;
    trace::TraceMeta meta;
    std::uint64_t bytes = 0;
};

std::uint64_t
fileBytes(const std::string &path)
{
    std::FILE *f = std::fopen(path.c_str(), "rb");
    if (!f)
        return 0;
    std::fseek(f, 0, SEEK_END);
    long n = std::ftell(f);
    std::fclose(f);
    return n > 0 ? static_cast<std::uint64_t>(n) : 0;
}

/** Inputs and reference data made before the first timed simulation. */
struct Setup {
    std::map<std::string, double> aloneIpc; ///< mix8_closed.
    std::vector<TraceFile> traces;          ///< sampled_dc.
    double writeS = 0.0;
    std::uint64_t genRecords = 0;
    double genNextS = 0.0;
};

std::vector<TraceFile>
writeTraces(const Workload &w, std::uint64_t seed, std::uint64_t insts,
            const std::string &dir, const std::string &tag, Setup *probe,
            SpanLog *spans)
{
    std::vector<TraceFile> out;
    const Addr capacity = capacityLines(w.points.front().cfg);
    for (std::size_t t = 0; t < w.generators.size(); ++t) {
        TraceFile tf;
        tf.path = dir + "/" + tag + "_" + w.generators[t] + ".cctr";
        auto gen = makeGenerator(w.generators[t], mixSeed(seed, t),
                                 capacity);
        TimedSource timed(*gen);
        cpu::TraceSource &src = probe ? timed : *gen;
        Clock::time_point t0 = Clock::now();
        {
            ScopedSpan span(spans, "TraceWriter " + w.generators[t]);
            trace::TraceWriter writer(tf.path);
            cpu::TraceRecord rec;
            while (writer.meta().totalInsts < insts && src.next(rec))
                writer.append(rec);
            tf.meta = writer.close();
        }
        if (probe) {
            probe->writeS += secondsSince(t0);
            probe->genRecords += timed.records();
            probe->genNextS += timed.nextSeconds();
        }
        out.push_back(tf);
    }
    return out;
}

Setup
runSetup(const Workload &w, const Options &opt, bool probe, SpanLog *spans)
{
    Setup s;
    if (w.sampled) {
        s.traces = writeTraces(w, opt.seed, w.size.traceInsts, opt.outDir,
                               "dc", probe ? &s : nullptr, spans);
        return s;
    }
    // Warm-up pass: every point, shortened, so lazy initialisation and
    // allocator growth land before the first timed simulation.
    for (const Point &p : w.points) {
        const sim::SimConfig cfg = shortened(p.cfg, w.size.shortDiv);
        auto owned = syntheticSources(cfg, p.apps);
        std::vector<cpu::TraceSource *> raw;
        for (auto &src : owned)
            raw.push_back(src.get());
        runFull(cfg, raw, false, spans, p.label + " warm-up");
    }
    if (w.eightCore) {
        // Weighted speedup needs each application's IPC running alone
        // on the single-core system at the same scale.
        std::set<std::string> apps;
        for (const Point &p : w.points)
            apps.insert(p.apps.begin(), p.apps.end());
        for (const std::string &app : apps) {
            ScopedSpan span(spans, "alone IPC " + app);
            sim::SimConfig cfg = sim::makeSingleConfig(
                sim::Scheme::Baseline, {w.size.insts, w.size.warmup});
            cfg.seed = opt.seed;
            sim::System sys(cfg, std::vector<std::string>{app});
            s.aloneIpc[app] = sys.run().ipc.at(0);
        }
    }
    return s;
}

/** One repetition of the work unit. */
struct Unit {
    double wallS = 0.0;
    std::vector<Outcome> points;
};

Unit
runUnit(const Workload &w, const Setup &setup, bool probe, SpanLog *spans,
        bool perturb, Failures &fails)
{
    Unit u;
    ScopedSpan unitSpan(spans, probe ? "unit (probed)" : "unit");
    const Clock::time_point t0 = Clock::now();
    for (std::size_t i = 0; i < w.points.size(); ++i) {
        const Point &p = w.points[i];
        Outcome o;
        ++fails.attempted;
        try {
            if (w.sampled) {
                o = runSampled(p, setup.traces[p.trace].path, w.sampling,
                               spans);
            } else {
                auto owned = syntheticSources(p.cfg, p.apps);
                std::vector<cpu::TraceSource *> raw;
                for (auto &s : owned)
                    raw.push_back(s.get());
                o = runFull(p.cfg, raw, probe, spans, p.label);
            }
        } catch (const std::exception &e) {
            o.ok = false;
            o.error = e.what();
        }
        if (perturb && i == 0) {
            o.result.ipc.at(0) =
                std::nextafter(o.result.ipc.at(0), 1e9);
            o.digest = w.sampled ? o.digest ^ 1 : digest(o.result);
        }
        u.points.push_back(std::move(o));
    }
    u.wallS = secondsSince(t0);
    return u;
}

/** Points whose digest differs from the reference unit's count as failed. */
void
checkUnit(const Workload &w, const Unit &u, const Unit &ref,
          Failures &fails)
{
    for (std::size_t i = 0; i < u.points.size(); ++i) {
        const Outcome &o = u.points[i];
        if (!o.ok)
            fails.fail(w.points[i].label + ": " + o.error);
        else if (o.digest != ref.points[i].digest)
            fails.fail(w.points[i].label +
                       ": result differs from the first repetition");
    }
}

// ---------------------------------------------------------- oracle pass

/**
 * Untimed PerCycle-oracle pass over a shortened copy of every point: the
 * calendar kernel must match the PerCycle reference field by field. Full
 * runs use the probed build (decorators, listeners, obs), so the
 * reconciliation checks run too, and build the reference through
 * System's name constructor, which also checks that the benchmark's own
 * source construction is the System's. Sampled runs get short traces.
 */
void
oraclePass(const Workload &w, const Options &opt, Failures &fails)
{
    if (w.sampled) {
        const std::vector<TraceFile> shortTraces =
            writeTraces(w, opt.seed, w.size.oracleTraceInsts, opt.outDir,
                        "oracle", nullptr, nullptr);
        trace::SamplingConfig sc = w.sampling;
        sc.intervalInsts /= 4;
        sc.warmupInsts /= 4;
        sc.functionalWarmInsts /= 4;
        for (const Point &p : w.points) {
            ++fails.attempted;
            try {
                sim::SimConfig refCfg = p.cfg;
                refCfg.kernel = sim::KernelMode::PerCycle;
                const std::string &path = shortTraces[p.trace].path;
                trace::SampledResult a =
                    trace::SampledSimulation(p.cfg, path, sc).run();
                trace::SampledResult b =
                    trace::SampledSimulation(refCfg, path, sc).run();
                std::string diff = firstDifference(a.aggregate,
                                                   b.aggregate);
                if (diff.empty() && sampledDigest(a) != sampledDigest(b))
                    diff = "slices";
                if (!diff.empty())
                    fails.fail(p.label + ": PerCycle oracle differs at " +
                               diff);
            } catch (const std::exception &e) {
                fails.fail(p.label + ": oracle pass threw: " + e.what());
            }
        }
        for (const TraceFile &tf : shortTraces)
            std::remove(tf.path.c_str());
        return;
    }
    for (const Point &p : w.points) {
        ++fails.attempted;
        try {
            const sim::SimConfig cfg = shortened(p.cfg, w.size.shortDiv);
            auto owned = syntheticSources(cfg, p.apps);
            std::vector<cpu::TraceSource *> raw;
            for (auto &s : owned)
                raw.push_back(s.get());
            Outcome cal = runFull(cfg, raw, true, nullptr, p.label);
            sim::SimConfig refCfg = cfg;
            refCfg.kernel = sim::KernelMode::PerCycle;
            sim::System refSys(refCfg, p.apps);
            const sim::SystemResult ref = refSys.run();
            if (!cal.ok)
                fails.fail(p.label + " (oracle copy): " + cal.error);
            else if (std::string d = firstDifference(cal.result, ref);
                     !d.empty())
                fails.fail(p.label + ": PerCycle oracle differs at " + d);
        } catch (const std::exception &e) {
            fails.fail(p.label + ": oracle pass threw: " + e.what());
        }
    }
}

// ------------------------------------------------------------- metrics

struct Metric {
    std::string name;
    double value;
    std::string unit;
};

double
ratio(double num, double den)
{
    return den != 0.0 ? num / den : 0.0;
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

std::vector<double>
wallTimes(const std::vector<Unit> &units)
{
    std::vector<double> v;
    for (const Unit &u : units)
        v.push_back(u.wallS);
    return v;
}

double
peakRssMib()
{
    struct rusage ru;
    std::memset(&ru, 0, sizeof ru);
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux.
}

/** Sums over a unit's points. */
struct Totals {
    std::uint64_t detailed = 0, covered = 0, cycles = 0;
};

Totals
totals(const Unit &u)
{
    Totals t;
    for (const Outcome &o : u.points) {
        t.detailed += o.detailedInsts;
        t.covered += o.coveredInsts;
        t.cycles += o.simCycles;
    }
    return t;
}

/** Model outputs: ChargeCache gain and hit rates vs the paper. */
struct ModelOutputs {
    double gainPct = 0.0, paperGainPct = 0.0;
    double hcrac = 0.0, provider = 0.0, unlimited = 0.0;
    double paperHcracPct = 0.0;
    double energyNj = 0.0, ccSavingPct = 0.0;
};

ModelOutputs
modelOutputs(const Workload &w, const Setup &setup, const Unit &u)
{
    ModelOutputs m;
    std::vector<double> speedups, hcrac, provider, unlimited;
    double eBase = 0.0, eCc = 0.0;
    // Points come in (Baseline, ChargeCache) pairs over one input.
    for (std::size_t i = 0; i + 1 < w.points.size(); i += 2) {
        const sim::SystemResult &base = u.points[i].result;
        const sim::SystemResult &cc = u.points[i + 1].result;
        eBase += u.points[i].energyNj;
        eCc += u.points[i + 1].energyNj;
        hcrac.push_back(cc.hcracHitRate);
        provider.push_back(cc.providerHitRate);
        unlimited.push_back(cc.unlimitedHitRate);
        if (base.ipc.empty() || base.ipc.size() != cc.ipc.size())
            continue;
        if (w.eightCore) {
            // Weighted speedup: sum_i IPCshared_i / IPCalone_i.
            const std::vector<std::string> &apps = w.points[i].apps;
            double wsBase = 0.0, wsCc = 0.0;
            for (std::size_t c = 0; c < apps.size(); ++c) {
                const double alone = setup.aloneIpc.at(apps[c]);
                wsBase += base.ipc[c] / alone;
                wsCc += cc.ipc[c] / alone;
            }
            speedups.push_back(ratio(wsCc, wsBase));
        } else {
            speedups.push_back(ratio(cc.ipc[0], base.ipc[0]));
        }
    }
    m.gainPct = 100.0 * (bench::geomean(speedups) - 1.0);
    m.paperGainPct = w.eightCore ? kPaperGain8CorePct : kPaperGain1CorePct;
    m.paperHcracPct = w.eightCore ? kPaperHcrac8CorePct
                                  : kPaperHcrac1CorePct;
    m.hcrac = bench::mean(hcrac);
    m.provider = bench::mean(provider);
    m.unlimited = bench::mean(unlimited);
    m.energyNj = eBase + eCc;
    m.ccSavingPct = 100.0 * (1.0 - ratio(eCc, eBase));
    return m;
}

/** Counts of the layers below the kernel, over full runs. */
struct LayerCounts {
    cpu::CoreStats core;
    double ipcSum = 0.0;
    mem::LlcStats llc;
    ctrl::CtrlStats ctrl;
    CommandCounts cmds;
    Histogram queueWait;
    double runS = 0.0;
    std::uint64_t records = 0;
    double nextS = 0.0;
};

LayerCounts
layerCounts(const std::vector<const Outcome *> &runs)
{
    LayerCounts lc;
    for (const Outcome *o : runs) {
        lc.core.retired += o->core.retired;
        lc.core.memReads += o->core.memReads;
        lc.core.memWrites += o->core.memWrites;
        lc.core.stallCyclesFull += o->core.stallCyclesFull;
        lc.core.blockedAccesses += o->core.blockedAccesses;
        lc.ipcSum += o->result.ipcSum() / runs.size();
        const mem::LlcStats &l = o->result.llc;
        lc.llc.accesses += l.accesses;
        lc.llc.hits += l.hits;
        lc.llc.mshrMerges += l.mshrMerges;
        lc.llc.blockedMshr += l.blockedMshr;
        lc.llc.blockedMemQueue += l.blockedMemQueue;
        lc.llc.writebacks += l.writebacks;
        const ctrl::CtrlStats &c = o->result.ctrl;
        lc.ctrl.reads += c.reads;
        lc.ctrl.writes += c.writes;
        lc.ctrl.readForwards += c.readForwards;
        lc.ctrl.rowHits += c.rowHits;
        lc.ctrl.rowMisses += c.rowMisses;
        lc.ctrl.rowConflicts += c.rowConflicts;
        lc.ctrl.readLatencySum += c.readLatencySum;
        lc.cmds += o->probes.cmds;
        lc.queueWait.merge(o->probes.queueWait);
        lc.runS += o->runS;
        lc.records += o->probes.records;
        lc.nextS += o->probes.nextS;
    }
    return lc;
}

/** Trace-layer readings (CCTR write and standalone decode). */
struct TraceLayer {
    std::uint64_t records = 0, bytes = 0;
    double writeS = 0.0, decodeS = 0.0;
    std::uint64_t intervals = 0, clusters = 0;
    double detailedFrac = 0.0, functionalFrac = 0.0;
    double ipcErrPct = 0.0, hcracErrPct = 0.0;
};

/** Standalone TraceReader pass; returns records decoded. */
std::uint64_t
decodePass(const std::vector<TraceFile> &files, SpanLog *spans,
           double &seconds)
{
    std::uint64_t n = 0;
    const Clock::time_point t0 = Clock::now();
    for (const TraceFile &tf : files) {
        ScopedSpan span(spans, "TraceReader " + tf.path);
        trace::TraceReader rd(tf.path);
        cpu::TraceRecord rec;
        while (rd.next(rec))
            ++n;
    }
    seconds = secondsSince(t0);
    return n;
}

void
addLayerMetrics(std::vector<Metric> &m, const LayerCounts &lc)
{
    const ctrl::CtrlStats &c = lc.ctrl;
    const std::uint64_t rowOps = c.rowHits + c.rowMisses + c.rowConflicts;
    m.push_back({"cpu.retired", double(lc.core.retired), "insts"});
    m.push_back({"cpu.ipc_sum", lc.ipcSum, "ipc"});
    m.push_back({"cpu.mem_reads", double(lc.core.memReads), "count"});
    m.push_back({"cpu.mem_writes", double(lc.core.memWrites), "count"});
    m.push_back({"cpu.window_full_cycles", double(lc.core.stallCyclesFull),
                 "cycles"});
    m.push_back({"cpu.blocked_accesses", double(lc.core.blockedAccesses),
                 "count"});
    m.push_back({"mem.llc_accesses", double(lc.llc.accesses), "count"});
    m.push_back({"mem.llc_hit_rate",
                 ratio(double(lc.llc.hits), double(lc.llc.accesses)),
                 "ratio"});
    m.push_back({"mem.llc_mshr_merges", double(lc.llc.mshrMerges), "count"});
    m.push_back({"mem.llc_blocked_mshr", double(lc.llc.blockedMshr),
                 "count"});
    m.push_back({"mem.llc_blocked_memq", double(lc.llc.blockedMemQueue),
                 "count"});
    m.push_back({"mem.llc_writebacks", double(lc.llc.writebacks), "count"});
    m.push_back({"ctrl.reads", double(c.reads), "count"});
    m.push_back({"ctrl.writes", double(c.writes), "count"});
    m.push_back({"ctrl.read_forwards", double(c.readForwards), "count"});
    m.push_back({"ctrl.row_hit_rate", ratio(double(c.rowHits), double(rowOps)),
                 "ratio"});
    m.push_back({"ctrl.row_conflicts", double(c.rowConflicts), "count"});
    m.push_back({"ctrl.avg_read_latency_cyc",
                 ratio(double(c.readLatencySum), double(c.reads)), "cycles"});
    m.push_back({"ctrl.queue_wait_p50_cyc",
                 double(lc.queueWait.percentileUpperBound(0.5)), "cycles"});
    m.push_back({"ctrl.queue_wait_p99_cyc",
                 double(lc.queueWait.percentileUpperBound(0.99)), "cycles"});
    m.push_back({"ctrl.ns_per_request",
                 ratio(lc.runS * 1e9, double(c.reads + c.writes)), "ns"});
    const CommandCounts &d = lc.cmds;
    m.push_back({"dram.acts", double(d.acts), "count"});
    m.push_back({"dram.pres", double(d.pres), "count"});
    m.push_back({"dram.rds", double(d.rds), "count"});
    m.push_back({"dram.wrs", double(d.wrs), "count"});
    m.push_back({"dram.refs", double(d.refs), "count"});
    m.push_back({"dram.cmds", double(d.cmds), "count"});
    m.push_back({"dram.ns_per_cmd", ratio(lc.runS * 1e9, double(d.cmds)),
                 "ns"});
}

// --------------------------------------------------------------- output

std::string
fmt(double v)
{
    if (!std::isfinite(v))
        v = 0.0;
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
metricsJson(const std::vector<Metric> &metrics)
{
    std::string out = "{";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        if (i)
            out += ", ";
        out += "\"" + metrics[i].name + "\": {\"value\": " +
               fmt(metrics[i].value) + ", \"unit\": \"" + metrics[i].unit +
               "\"}";
    }
    return out + "}";
}

void
usage()
{
    std::fprintf(stderr,
                 "usage: ccsim_perfbench --workload NAME --seed N "
                 "--seconds S --trace 0|1 --out DIR [--perturb]\n");
}

bool
parseArgs(int argc, char **argv, Options &opt)
{
    bool haveSeed = false, haveSeconds = false, haveTrace = false;
    for (int i = 1; i < argc; ++i) {
        const std::string a = argv[i];
        if (a == "--perturb") {
            opt.perturb = true;
            continue;
        }
        if (i + 1 >= argc)
            return false;
        const std::string v = argv[++i];
        char *end = nullptr;
        if (a == "--workload") {
            opt.workload = v;
        } else if (a == "--seed") {
            opt.seed = std::strtoull(v.c_str(), &end, 10);
            haveSeed = end && *end == '\0' && !v.empty();
        } else if (a == "--seconds") {
            opt.seconds = std::strtod(v.c_str(), &end);
            haveSeconds = end && *end == '\0' && opt.seconds > 0;
        } else if (a == "--trace") {
            haveTrace = v == "0" || v == "1";
            opt.trace = v == "1";
        } else if (a == "--out") {
            opt.outDir = v;
        } else {
            return false;
        }
    }
    return !opt.workload.empty() && haveSeed && haveSeconds && haveTrace &&
           !opt.outDir.empty();
}

/** Refuse builds whose timings mean nothing; cap CCSIM_THREADS. */
bool
environmentGuard(std::string &why)
{
#ifndef NDEBUG
    why = "assertions enabled (build with -DCMAKE_BUILD_TYPE=Release)";
    return false;
#endif
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
    why = "sanitizer build";
    return false;
#endif
    if (std::string(PERFBENCH_BUILD_TYPE) == "Debug") {
        why = "Debug build";
        return false;
    }
    const std::string san = PERFBENCH_SANITIZE;
    if (!san.empty() && san != "OFF" && san != "0" && san != "FALSE") {
        why = "sanitizer build (CCSIM_SANITIZE=" + san + ")";
        return false;
    }
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    if (sim::envU64("CCSIM_THREADS", 0) > hw)
        setenv("CCSIM_THREADS", std::to_string(hw).c_str(), 1);
    return true;
}

/**
 * sampled_dc: a full detailed run of every trace under ChargeCache. It
 * is the reference for the sampling error, and it supplies the layer
 * counts SampledSimulation keeps inside its slice Systems.
 */
std::vector<Outcome>
sampledReference(const Workload &w, const Setup &setup, const Unit &rep,
                 SpanLog *spans, Failures &fails, TraceLayer &tl)
{
    std::vector<Outcome> refs;
    double ipcErr = 0.0, hcracErr = 0.0;
    for (std::size_t i = 0; i < w.points.size(); ++i) {
        const Point &p = w.points[i];
        if (p.cfg.scheme != sim::Scheme::ChargeCache)
            continue;
        ++fails.attempted;
        try {
            sim::SimConfig full = p.cfg;
            full.warmupInsts = w.sampling.warmupInsts;
            full.targetInsts = setup.traces[p.trace].meta.totalInsts -
                               w.sampling.warmupInsts;
            trace::TraceReplaySource src(setup.traces[p.trace].path);
            Outcome o =
                runFull(full, {&src}, true, spans, p.label + " full");
            if (!o.ok)
                fails.fail(p.label + " (full): " + o.error);
            const sim::SystemResult &s = rep.points[i].result;
            ipcErr = std::max(
                ipcErr,
                std::fabs(ratio(s.ipc.at(0), o.result.ipc.at(0)) - 1.0));
            hcracErr = std::max(
                hcracErr,
                std::fabs(ratio(s.hcracHitRate, o.result.hcracHitRate) -
                          1.0));
            refs.push_back(std::move(o));
        } catch (const std::exception &e) {
            fails.fail(p.label + " (full): " + e.what());
        }
    }
    tl.ipcErrPct = 100.0 * ipcErr;
    tl.hcracErrPct = 100.0 * hcracErr;
    std::uint64_t total = 0, detailed = 0, functional = 0;
    for (const Outcome &o : rep.points) {
        tl.intervals += o.intervals;
        tl.clusters += static_cast<std::uint64_t>(o.clusters);
        total += o.coveredInsts;
        detailed += o.detailedInsts;
        functional += o.functionalInsts;
    }
    tl.detailedFrac = ratio(double(detailed), double(total));
    tl.functionalFrac = ratio(double(functional), double(total));
    return refs;
}

/**
 * Full-run workloads: re-run the first point with a capturing decorator
 * (its digest must not change) and write each core's record stream as a
 * CCTR trace.
 */
std::vector<TraceFile>
captureFirstPoint(const Workload &w, const Options &opt, const Unit &ref,
                  SpanLog *spans, Failures &fails, TraceLayer &tl)
{
    const Point &p = w.points.front();
    std::vector<std::vector<cpu::TraceRecord>> capture;
    ++fails.attempted;
    auto owned = syntheticSources(p.cfg, p.apps);
    std::vector<cpu::TraceSource *> raw;
    for (auto &src : owned)
        raw.push_back(src.get());
    const Outcome cap =
        runFull(p.cfg, raw, true, spans, p.label + " capture", &capture);
    if (!cap.ok || cap.digest != ref.points.front().digest)
        fails.fail(p.label + ": capture run differs");
    std::vector<TraceFile> files;
    const Clock::time_point t0 = Clock::now();
    for (std::size_t c = 0; c < capture.size(); ++c) {
        TraceFile tf;
        tf.path = opt.outDir + "/capture_core" + std::to_string(c) + ".cctr";
        ScopedSpan span(spans, "TraceWriter " + tf.path);
        trace::TraceWriter writer(tf.path);
        for (const cpu::TraceRecord &r : capture[c])
            writer.append(r);
        tf.meta = writer.close();
        files.push_back(tf);
    }
    tl.writeS = secondsSince(t0);
    return files;
}

/** Per-layer metrics from the probed repetitions (--trace 1). */
std::vector<Metric>
perLayerMetrics(const Workload &w, const Options &opt, const Setup &setup,
                const std::vector<Unit> &plain,
                const std::vector<Unit> &probed, const ModelOutputs &model,
                SpanLog &spanLog, Failures &fails)
{
    SpanLog *spans = &spanLog;
    // The probed repetition with the median wall time stands for the
    // layers.
    const double wall = median(wallTimes(plain));
    const double tracedWall = median(wallTimes(probed));
    const Unit *rep = &probed.front();
    for (const Unit &u : probed)
        if (std::fabs(u.wallS - tracedWall) <
            std::fabs(rep->wallS - tracedWall))
            rep = &u;
    double buildS = 0.0, runS = 0.0;
    for (const Outcome &o : rep->points) {
        buildS += o.buildS;
        runS += o.runS;
    }

    TraceLayer tl;
    std::vector<Outcome> refs;
    std::vector<const Outcome *> layerRuns;
    std::vector<TraceFile> traceFiles;
    if (w.sampled) {
        refs = sampledReference(w, setup, *rep, spans, fails, tl);
        for (const Outcome &o : refs)
            layerRuns.push_back(&o);
        traceFiles = setup.traces;
        tl.writeS = setup.writeS;
    } else {
        for (const Outcome &o : rep->points)
            layerRuns.push_back(&o);
        traceFiles =
            captureFirstPoint(w, opt, plain.front(), spans, fails, tl);
    }
    for (TraceFile &tf : traceFiles) {
        tf.bytes = fileBytes(tf.path);
        tl.records += tf.meta.totalRecords;
        tl.bytes += tf.bytes;
    }
    if (decodePass(traceFiles, spans, tl.decodeS) != tl.records)
        fails.fail("standalone decode pass record count");
    if (!w.sampled)
        for (const TraceFile &tf : traceFiles)
            std::remove(tf.path.c_str());

    const LayerCounts lc = layerCounts(layerRuns);
    const Totals repTot = totals(*rep);
    // sampled_dc: the generators, timed while the traces were written.
    const std::uint64_t wlRecords = w.sampled ? setup.genRecords
                                              : lc.records;
    const double wlNextS = w.sampled ? setup.genNextS : lc.nextS;

    std::vector<Metric> m;
    m.push_back({"sim.points", double(w.points.size()), "count"});
    m.push_back({"sim.build_s", buildS, "s"});
    m.push_back({"sim.run_s", runS, "s"});
    m.push_back({"sim.ns_per_cycle", ratio(runS * 1e9, double(repTot.cycles)),
                 "ns"});
    m.push_back({"sim.ns_per_inst",
                 ratio(runS * 1e9, double(repTot.detailed)), "ns"});
    addLayerMetrics(m, lc);
    m.push_back({"chargecache.hcrac_hit_rate", model.hcrac, "ratio"});
    m.push_back({"chargecache.provider_hit_rate", model.provider, "ratio"});
    m.push_back({"chargecache.unlimited_hit_rate", model.unlimited,
                 "ratio"});
    m.push_back({"chargecache.reduced_acts", double(lc.cmds.reducedActs),
                 "count"});
    m.push_back({"chargecache.gain_pct", model.gainPct, "%"});
    m.push_back({"chargecache.paper_gap_pct",
                 model.gainPct - model.paperGainPct, "%"});
    m.push_back({"energy.total_nj", model.energyNj, "nJ"});
    m.push_back({"energy.cc_saving_pct", model.ccSavingPct, "%"});
    m.push_back({"workloads.records", double(wlRecords), "count"});
    m.push_back({"workloads.next_s", wlNextS, "s"});
    m.push_back({"workloads.ns_per_record",
                 ratio(wlNextS * 1e9, double(wlRecords)), "ns"});
    m.push_back({"trace.records", double(tl.records), "count"});
    m.push_back({"trace.bytes", double(tl.bytes), "B"});
    m.push_back({"trace.write_s", tl.writeS, "s"});
    m.push_back({"trace.decode_mb_per_s",
                 ratio(double(tl.bytes) / 1e6, tl.decodeS), "MB/s"});
    m.push_back({"trace.intervals", double(tl.intervals), "count"});
    m.push_back({"trace.clusters", double(tl.clusters), "count"});
    m.push_back({"trace.detailed_frac", tl.detailedFrac, "ratio"});
    m.push_back({"trace.functional_frac", tl.functionalFrac, "ratio"});
    m.push_back({"trace.ipc_err_pct", tl.ipcErrPct, "%"});
    m.push_back({"trace.hcrac_err_pct", tl.hcracErrPct, "%"});
    m.push_back({"bench.trace_overhead_pct",
                 100.0 * (ratio(tracedWall, wall) - 1.0), "%"});

    const std::string spansPath = opt.outDir + "/spans_" + w.name + ".json";
    if (!resilience::tryAtomicWriteFile(spansPath, spanLog.chromeJson()))
        std::fprintf(stderr, "cannot write %s\n", spansPath.c_str());
    return m;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opt;
    if (!parseArgs(argc, argv, opt)) {
        usage();
        return 2;
    }
    try {
        std::string why;
        if (!environmentGuard(why)) {
            std::fprintf(stderr, "refusing to benchmark: %s\n", why.c_str());
            return 2;
        }
        const Workload w = makeWorkload(opt.workload, opt.seed);
        Failures fails;
        SpanLog spanLog;
        SpanLog *spans = opt.trace ? &spanLog : nullptr;

        // Set-up runs once before the first unit. When reporting
        // setup_s it runs again (same inputs) at evenly spaced points of
        // the timed loop, so its median spans the host's speed phases
        // like the units' does.
        std::vector<double> setupTimes;
        Setup setup;
        const std::size_t setups = opt.trace ? 1 : w.size.setupRepeats;
        auto timedSetup = [&] {
            const Clock::time_point t0 = Clock::now();
            setup = runSetup(w, opt, opt.trace, spans);
            setupTimes.push_back(secondsSince(t0));
        };
        timedSetup();

        // Timed repetitions of the work unit (probed ones alternate with
        // unprobed ones when tracing).
        std::vector<Unit> plain, probed;
        const Clock::time_point start = Clock::now();
        const std::size_t minUnits = 3;
        for (std::size_t k = 0;; ++k) {
            const bool probe = opt.trace && k % 2 == 1;
            Unit u = runUnit(w, setup, probe, spans, opt.perturb && k == 1,
                             fails);
            const Unit &ref = plain.empty() ? u : plain.front();
            checkUnit(w, u, ref, fails);
            (probe ? probed : plain).push_back(std::move(u));
            const double elapsed = secondsSince(start);
            if (setupTimes.size() < setups &&
                elapsed >= opt.seconds * setupTimes.size() / setups)
                timedSetup();
            if (elapsed >= opt.seconds && plain.size() >= minUnits &&
                (!opt.trace || probed.size() >= minUnits))
                break;
        }
        while (setupTimes.size() < setups)
            timedSetup();

        oraclePass(w, opt, fails);

        const double wall = median(wallTimes(plain));
        const Totals tot = totals(plain.front());
        std::vector<Metric> metrics;
        const ModelOutputs model = modelOutputs(w, setup, plain.front());

        if (!opt.trace) {
            metrics.push_back({"wall_s", wall, "s"});
            metrics.push_back({"sim_insts_per_s",
                               ratio(double(tot.detailed), wall),
                               "insts/s"});
            metrics.push_back({"sim_cycles_per_s",
                               ratio(double(tot.cycles), wall), "cycles/s"});
            metrics.push_back({"covered_insts_per_s",
                               ratio(double(tot.covered), wall), "insts/s"});
            metrics.push_back({"setup_s", median(setupTimes), "s"});
            metrics.push_back({"peak_rss_mib", peakRssMib(), "MiB"});
        } else {
            metrics = perLayerMetrics(w, opt, setup, plain, probed, model,
                                      spanLog, fails);
        }
        if (w.sampled)
            for (const TraceFile &tf : setup.traces)
                std::remove(tf.path.c_str());

        // Human-readable report, then the record with provenance.
        const std::string scale =
            w.sampled ? std::to_string(w.size.traceInsts) +
                            " insts per trace"
                      : std::to_string(w.size.warmup) + "+" +
                            std::to_string(w.size.insts) + " insts/core";
        std::printf("workload %s seed %" PRIu64 ": %zu points (%s), "
                    "%zu plain + %zu probed repetitions\n",
                    w.name.c_str(), opt.seed, w.points.size(), scale.c_str(),
                    plain.size(), probed.size());
        std::printf("  unit wall times (s):");
        for (const std::vector<Unit> *units : {&plain, &probed})
            for (const Unit &u : *units)
                std::printf(" %.3f%s", u.wallS, units == &plain ? "" : "p");
        std::printf("\n");
        for (const Metric &m : metrics)
            std::printf("  %-32s %16.6g %s\n", m.name.c_str(), m.value,
                        m.unit.c_str());
        std::printf("  %-32s %16.6g ratio (%" PRIu64 " of %" PRIu64
                    " points)\n",
                    "ops_failed_frac",
                    ratio(double(fails.failed), double(fails.attempted)),
                    fails.failed, fails.attempted);
        std::printf("model vs paper (unvalidated against hardware; %s, "
                    "%s): ChargeCache gain %+.2f%% vs paper %+.1f%%; "
                    "HCRAC hit rate %.1f%% vs paper %.0f%%\n",
                    scale.c_str(),
                    w.eightCore ? "mixes w1 w6 w11 w16, Fig. 7b/9"
                                : "single-core system, Fig. 7a/9",
                    model.gainPct, model.paperGainPct, 100.0 * model.hcrac,
                    model.paperHcracPct);

        const std::string record = bench::captureRecord([&](std::FILE *f) {
            std::fprintf(f,
                         "{\"bench\": \"perfbench\", \"workload\": \"%s\", "
                         "\"seed\": %" PRIu64 ", \"trace\": %d, "
                         "\"build_type\": \"%s\", \"ccsim_obs\": %d, "
                         "\"ccsim_threads\": \"%s\", "
                         "\"paper_gain_pct\": %s, "
                         "\"paper_hcrac_pct\": %s, "
                         "\"attempted\": %" PRIu64 ", \"failed\": %" PRIu64
                         ", \"metrics\": %s}\n",
                         w.name.c_str(), opt.seed, opt.trace ? 1 : 0,
                         PERFBENCH_BUILD_TYPE, CCSIM_OBS,
                         std::getenv("CCSIM_THREADS")
                             ? std::getenv("CCSIM_THREADS")
                             : "",
                         fmt(model.paperGainPct).c_str(),
                         fmt(model.paperHcracPct).c_str(), fails.attempted,
                         fails.failed, metricsJson(metrics).c_str());
        });
        const std::string recordPath = opt.outDir + "/record_" + w.name +
                                       (opt.trace ? "_trace" : "") + ".json";
        if (resilience::tryAtomicWriteFile(recordPath, record))
            std::printf("record: %s\n", recordPath.c_str());
        else
            std::fprintf(stderr, "cannot write %s\n", recordPath.c_str());

        std::printf("{\"correct\": %s, \"attempted\": %" PRIu64
                    ", \"failed\": %" PRIu64 ", \"metrics\": %s}\n",
                    fails.failed == 0 ? "true" : "false", fails.attempted,
                    fails.failed, metricsJson(metrics).c_str());
        std::fflush(stdout);
        return 0;
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s\n", e.what());
        return 1;
    }
}
