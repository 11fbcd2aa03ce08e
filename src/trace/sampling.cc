#include "trace/sampling.hh"

#include <algorithm>
#include <cmath>
#include <limits>
#include <memory>

#include "common/random.hh"
#include "obs/trace_event.hh"
#include "resilience/error.hh"
#include "sim/experiment.hh"
#include "trace/replay.hh"

namespace ccsim::trace {

using resilience::ErrorKind;
using resilience::SimError;

namespace {

double
dist2(const std::vector<double> &a, const std::vector<double> &b)
{
    double d = 0;
    for (std::size_t i = 0; i < a.size(); ++i) {
        double t = a[i] - b[i];
        d += t * t;
    }
    return d;
}

/** Per-core streaming profile cursor. */
struct CoreScan {
    explicit CoreScan(const std::string &path) : rd(path) {}

    TraceReader rd;
    std::uint64_t cum = 0;    ///< Instructions consumed.
    std::uint64_t recIdx = 0; ///< Records consumed.
    // Warm lead-in start for the NEXT interval: the first record at or
    // past (boundary - W) instructions, captured in the same pass.
    std::uint64_t pendWarmRec = 0, pendWarmInst = 0;
    bool pendValid = false;
    bool eof = false;
};

/**
 * Raw (un-normalized) interval counts, kept so adjacent intervals can
 * merge exactly when the bounded-RAM cap coarsens the profile.
 */
struct RawInterval {
    std::vector<IntervalInfo::PerCore> cores;
    std::vector<std::uint64_t> hist; ///< nCores × B, core-major.
    std::vector<std::uint64_t> writes; ///< Per core.
};

} // namespace

SampledSimulation::SampledSimulation(
    const sim::SimConfig &config,
    const std::vector<std::string> &trace_paths,
    const SamplingConfig &sampling)
    : config_(config), paths_(trace_paths), sampling_(sampling)
{
    if (config_.nCores < 1 ||
        paths_.size() != static_cast<std::size_t>(config_.nCores))
        throw SimError(ErrorKind::InvalidConfig,
                       "sampled simulation needs exactly one trace per "
                       "core");
    if (config_.nCores > mem::Llc::kMaxCores)
        throw SimError(ErrorKind::InvalidConfig,
                       "sampled simulation supports at most " +
                           std::to_string(mem::Llc::kMaxCores) +
                           " cores (the shared LLC's per-core tables)");
    if (sampling_.intervalInsts == 0)
        throw SimError(ErrorKind::InvalidConfig,
                       "sampling intervalInsts must be positive");
    if (sampling_.warmupInsts >= sampling_.intervalInsts)
        throw SimError(ErrorKind::InvalidConfig,
                       "sampling warmup must be shorter than the "
                       "interval");
    if (sampling_.maxClusters == 0 || sampling_.signatureBuckets <= 0)
        throw SimError(ErrorKind::InvalidConfig,
                       "sampling needs clusters and signature buckets");
    if (sampling_.maxIntervals < 2)
        throw SimError(ErrorKind::InvalidConfig,
                       "sampling maxIntervals must be at least 2");
}

SampledSimulation::SampledSimulation(const sim::SimConfig &config,
                                     const std::string &trace_path,
                                     const SamplingConfig &sampling)
    : SampledSimulation(config,
                        std::vector<std::string>{trace_path}, sampling)
{
}

std::vector<IntervalInfo>
SampledSimulation::profileTrace(std::vector<std::uint64_t> &per_core_insts)
{
    std::uint64_t L = sampling_.intervalInsts;
    const std::uint64_t W = sampling_.warmupInsts;
    const auto B =
        static_cast<std::uint64_t>(sampling_.signatureBuckets);
    // The bucket reduction runs once per record over the whole trace;
    // a hardware divide there costs more than the rest of the loop
    // body, so the power-of-two default takes a mask instead (same
    // value as % B).
    const bool bPow2 = (B & (B - 1)) == 0;
    const std::uint64_t bMask = B - 1;
    const int n = config_.nCores;

    std::vector<std::unique_ptr<CoreScan>> cores;
    cores.reserve(n);
    for (const auto &p : paths_)
        cores.push_back(std::make_unique<CoreScan>(p));

    std::vector<RawInterval> raws;
    std::uint64_t boundary = 0;

    auto all_eof = [&] {
        for (const auto &c : cores)
            if (!c->eof)
                return false;
        return true;
    };

    while (!all_eof()) {
        boundary += L;
        RawInterval raw;
        raw.cores.resize(n);
        raw.hist.assign(static_cast<std::size_t>(n) * B, 0);
        raw.writes.assign(n, 0);
        for (int c = 0; c < n; ++c) {
            CoreScan &cs = *cores[c];
            IntervalInfo::PerCore &pc = raw.cores[c];
            pc.startRecord = cs.recIdx;
            pc.startInst = cs.cum;
            pc.warmStartRecord = cs.pendValid ? cs.pendWarmRec : cs.recIdx;
            pc.warmStartInst = cs.pendValid ? cs.pendWarmInst : cs.cum;
            cs.pendValid = false;
            cpu::TraceRecord rec;
            // A core whose previous record overshot past `boundary`
            // contributes zero records here — a compute-only interval.
            while (cs.cum < boundary && !cs.eof) {
                if (!cs.rd.next(rec)) {
                    cs.eof = true;
                    break;
                }
                if (!cs.pendValid && cs.cum >= boundary - W) {
                    cs.pendWarmRec = cs.recIdx;
                    cs.pendWarmInst = cs.cum;
                    cs.pendValid = true;
                }
                // 8 KB row granularity: the ChargeCache locality unit.
                const std::uint64_t h = mix64(rec.addr >> 13);
                ++raw.hist[static_cast<std::size_t>(c) * B +
                           (bPow2 ? (h & bMask) : (h % B))];
                raw.writes[c] += rec.isWrite ? 1 : 0;
                cs.cum += rec.nonMemInsts + 1;
                ++cs.recIdx;
                ++pc.records;
            }
            pc.insts = cs.cum - pc.startInst;
        }
        // A trace ending exactly on a boundary would otherwise leave a
        // fully-empty trailing interval behind — drop it.
        std::uint64_t got = 0;
        for (const auto &pc : raw.cores)
            got += pc.insts + pc.records;
        if (got == 0 && all_eof())
            break;
        raws.push_back(std::move(raw));

        // Bounded-RAM coarsening: merge adjacent intervals (raw counts
        // add exactly) and double the effective interval length. Warm
        // lead-ins stay valid — a merged interval keeps its first
        // member's start and warm-start positions.
        if (raws.size() > sampling_.maxIntervals) {
            std::vector<RawInterval> merged;
            merged.reserve(raws.size() / 2 + 1);
            for (std::size_t j = 0; j + 1 < raws.size(); j += 2) {
                RawInterval m = std::move(raws[j]);
                const RawInterval &b = raws[j + 1];
                for (int c = 0; c < n; ++c) {
                    m.cores[c].insts += b.cores[c].insts;
                    m.cores[c].records += b.cores[c].records;
                    m.writes[c] += b.writes[c];
                }
                for (std::size_t h = 0; h < m.hist.size(); ++h)
                    m.hist[h] += b.hist[h];
                merged.push_back(std::move(m));
            }
            if (raws.size() % 2 == 1)
                merged.push_back(std::move(raws.back()));
            raws = std::move(merged);
            L *= 2;
        }
    }

    per_core_insts.assign(n, 0);
    for (int c = 0; c < n; ++c) {
        per_core_insts[c] = cores[c]->cum;
        if (cores[c]->cum == 0)
            throw SimError(ErrorKind::MalformedTrace,
                           "trace '" + paths_[c] +
                               "' holds no instructions");
    }
    if (raws.empty())
        throw SimError(ErrorKind::MalformedTrace,
                       "trace '" + paths_[0] + "' holds no instructions");

    // Normalize the raw counts into the concatenated co-phase
    // signature; a core's zero-record chunk stays all-zero.
    std::vector<IntervalInfo> out;
    out.reserve(raws.size());
    for (auto &raw : raws) {
        IntervalInfo iv;
        iv.cores = std::move(raw.cores);
        iv.signature.assign(static_cast<std::size_t>(n) * (B + 2), 0.0);
        for (int c = 0; c < n; ++c) {
            const IntervalInfo::PerCore &pc = iv.cores[c];
            iv.insts += pc.insts;
            iv.records += pc.records;
            if (pc.records == 0)
                continue;
            const std::size_t base =
                static_cast<std::size_t>(c) * (B + 2);
            for (std::uint64_t b = 0; b < B; ++b)
                iv.signature[base + b] =
                    static_cast<double>(
                        raw.hist[static_cast<std::size_t>(c) * B + b]) /
                    static_cast<double>(pc.records);
            iv.signature[base + B] =
                static_cast<double>(pc.records) /
                static_cast<double>(pc.insts);
            iv.signature[base + B + 1] =
                static_cast<double>(raw.writes[c]) /
                static_cast<double>(pc.records);
        }
        out.push_back(std::move(iv));
    }
    return out;
}

int
SampledSimulation::clusterIntervals(std::vector<IntervalInfo> &ivs)
{
    // Zero-record intervals carry an all-zero signature that k-means++
    // would happily seed as a degenerate center; they are excluded
    // from seeding and from Lloyd's loop, then assigned to the nearest
    // real cluster afterwards.
    std::vector<std::size_t> nz;
    nz.reserve(ivs.size());
    for (std::size_t i = 0; i < ivs.size(); ++i)
        if (ivs[i].records > 0)
            nz.push_back(i);
    if (nz.empty()) {
        for (auto &iv : ivs)
            iv.cluster = 0;
        return 1;
    }

    const auto n = nz.size();
    int k = static_cast<int>(
        std::min<std::uint64_t>(sampling_.maxClusters, n));
    std::vector<std::vector<double>> centers;
    if (k <= 1) {
        centers.push_back(ivs[nz[0]].signature);
        for (auto idx : nz)
            ivs[idx].cluster = 0;
        k = 1;
    } else {
        Rng rng(sampling_.seed);
        centers.reserve(k);
        centers.push_back(ivs[nz[rng.below(n)]].signature);

        // k-means++ seeding: next center drawn proportional to squared
        // distance from the chosen set.
        std::vector<double> d2(n, std::numeric_limits<double>::max());
        while (static_cast<int>(centers.size()) < k) {
            double total = 0;
            for (std::size_t i = 0; i < n; ++i) {
                d2[i] = std::min(
                    d2[i], dist2(ivs[nz[i]].signature, centers.back()));
                total += d2[i];
            }
            if (total <= 0) {
                // All remaining points coincide with a center.
                k = static_cast<int>(centers.size());
                break;
            }
            double r = rng.uniform() * total, acc = 0;
            std::size_t pick = n - 1;
            for (std::size_t i = 0; i < n; ++i) {
                acc += d2[i];
                if (acc >= r) {
                    pick = i;
                    break;
                }
            }
            centers.push_back(ivs[nz[pick]].signature);
        }

        // Lloyd iterations; assignments are deterministic (ties
        // resolve to the lowest center index).
        std::vector<int> assign(n, -1);
        for (std::uint32_t iter = 0; iter < sampling_.kmeansIters;
             ++iter) {
            bool changed = false;
            for (std::size_t i = 0; i < n; ++i) {
                int best = 0;
                double bestD = dist2(ivs[nz[i]].signature, centers[0]);
                for (int c = 1; c < k; ++c) {
                    double d = dist2(ivs[nz[i]].signature, centers[c]);
                    if (d < bestD) {
                        bestD = d;
                        best = c;
                    }
                }
                if (assign[i] != best) {
                    assign[i] = best;
                    changed = true;
                }
            }
            if (!changed)
                break;
            std::vector<std::vector<double>> sum(
                k, std::vector<double>(ivs[nz[0]].signature.size(), 0.0));
            std::vector<std::uint64_t> cnt(k, 0);
            for (std::size_t i = 0; i < n; ++i) {
                auto &s = sum[assign[i]];
                for (std::size_t j = 0; j < s.size(); ++j)
                    s[j] += ivs[nz[i]].signature[j];
                ++cnt[assign[i]];
            }
            for (int c = 0; c < k; ++c) {
                if (cnt[c] == 0)
                    continue; // Keep the old center for empty clusters.
                for (auto &v : sum[c])
                    v /= static_cast<double>(cnt[c]);
                centers[c] = std::move(sum[c]);
            }
        }
        for (std::size_t i = 0; i < n; ++i)
            ivs[nz[i]].cluster = assign[i];
    }

    // Zero-record intervals join the nearest real cluster.
    for (auto &iv : ivs) {
        if (iv.records > 0)
            continue;
        int best = 0;
        double bestD = dist2(iv.signature, centers[0]);
        for (int c = 1; c < k; ++c) {
            double d = dist2(iv.signature, centers[c]);
            if (d < bestD) {
                bestD = d;
                best = c;
            }
        }
        iv.cluster = best;
    }
    return k;
}

void
SampledSimulation::simulateSlice(const std::vector<IntervalInfo> &ivs,
                                 SliceJob &job) const
{
    const int n = config_.nCores;
    const std::size_t rep = job.slice.interval;
    const IntervalInfo &iv = ivs[rep];
    const sim::SimConfig &cfg = job.config;

    // Functional warming needs the physical address stream; with the
    // VM subsystem enabled the cores translate first, so warming is
    // skipped and the detailed lead-in carries the full burden.
    const bool funcWarm =
        sampling_.functionalWarmInsts > 0 && !config_.vm.enable;

    // One reader per core serves the warm window and then the detailed
    // run. Fast-forward is a whole-block seek-skip (no decoding) to the
    // warm window's start, or straight to the detailed lead-in without
    // warming. The window start snaps to the latest profiled interval
    // boundary at least functionalWarmInsts before the lead-in,
    // because record indices are only known at boundaries.
    struct WarmCursor {
        std::uint64_t recIdx = 0;
        std::uint64_t stopRec = 0;
        std::uint64_t pos = 0; ///< Absolute instruction index.
    };
    std::vector<WarmCursor> cur(n);
    std::vector<std::unique_ptr<TraceReplaySource>> srcs;
    std::vector<cpu::TraceSource *> traces;
    for (int cc = 0; cc < n; ++cc) {
        srcs.push_back(std::make_unique<TraceReplaySource>(paths_[cc]));
        traces.push_back(srcs.back().get());
        WarmCursor &wc = cur[cc];
        wc.recIdx = wc.stopRec = iv.cores[cc].warmStartRecord;
        if (funcWarm) {
            std::size_t j = rep;
            while (j > 0) {
                const std::uint64_t s = ivs[j].cores[cc].startInst;
                if (s <= iv.cores[cc].warmStartInst &&
                    iv.cores[cc].warmStartInst - s >=
                        sampling_.functionalWarmInsts)
                    break;
                --j;
            }
            wc.recIdx = ivs[j].cores[cc].startRecord;
            wc.pos = ivs[j].cores[cc].startInst;
        }
        srcs.back()->reader().skipRecords(wc.recIdx);
    }
    sim::System sys(cfg, traces);

    if (funcWarm) {
        // SMARTS-style functional warming: replay the warm window into
        // the slice's own fresh LLC (tag/LRU/dirty state, no timing)
        // and into HCRAC twins whose tables are then injected. The
        // twins stay separate because an insert bumps the table's
        // statistics and, under BIP, draws from its RNG.
        obs::HostSpan span("sampling: functional warm", "sampling");
        const dram::DramSpec spec = cfg.buildSpec();
        const dram::AddressMapper mapper(spec.org, cfg.mapping);
        mem::Llc &llc = sys.llc();
        std::vector<std::unique_ptr<chargecache::ChargeCacheProvider>>
            warmCc;
        if (cfg.scheme == sim::Scheme::ChargeCache ||
            cfg.scheme == sim::Scheme::ChargeCacheNuat)
            for (int ch = 0; ch < cfg.channels; ++ch)
                warmCc.push_back(
                    std::make_unique<chargecache::ChargeCacheProvider>(
                        spec.timing, cfg.cc, n));

        // Merge the per-core streams by absolute instruction position
        // (ties to the lowest core id) — a deterministic stand-in for
        // the detailed interleave.
        const int lineBytes = cfg.llc.lineBytes;
        const bool linePow2 = (lineBytes & (lineBytes - 1)) == 0;
        const int lineShift =
            linePow2 ? log2Exact(static_cast<std::uint64_t>(lineBytes))
                     : 0;
        cpu::TraceRecord rec;
        while (true) {
            int pick = -1;
            std::uint64_t best = std::numeric_limits<std::uint64_t>::max();
            for (int cc = 0; cc < n; ++cc) {
                if (cur[cc].recIdx >= cur[cc].stopRec)
                    continue;
                if (cur[cc].pos < best) {
                    best = cur[cc].pos;
                    pick = cc;
                }
            }
            if (pick < 0)
                break;
            WarmCursor &wc = cur[pick];
            if (!srcs[pick]->reader().next(rec)) {
                wc.stopRec = wc.recIdx; // Defensive: short trace.
                continue;
            }
            Addr line = linePow2
                            ? rec.addr >> lineShift
                            : rec.addr / static_cast<Addr>(lineBytes);
            Addr victim = kNoAddr;
            bool hit = llc.warmAccess(line, rec.isWrite, &victim);
            if (!warmCc.empty()) {
                // An LLC miss activates (and later precharges) the
                // row, inserting it into the HCRAC; so does the
                // writeback of a displaced dirty victim.
                if (!hit) {
                    dram::DramAddr da = mapper.decode(line);
                    warmCc[da.channel]->warmInsert(pick, da, da.row);
                }
                if (victim != kNoAddr) {
                    dram::DramAddr da = mapper.decode(victim);
                    warmCc[da.channel]->warmInsert(-1, da, da.row);
                }
            }
            wc.pos += rec.nonMemInsts + 1;
            ++wc.recIdx;
            ++job.functionalInsts;
        }
        // A replay cut short leaves its reader before the lead-in;
        // seek there as the plain fast-forward would have.
        for (int cc = 0; cc < n; ++cc)
            if (srcs[cc]->reader().position() !=
                iv.cores[cc].warmStartRecord)
                srcs[cc]->reader().seekRecord(
                    iv.cores[cc].warmStartRecord);
        if (!warmCc.empty()) {
            std::vector<const chargecache::ChargeCacheProvider *> views;
            for (const auto &p : warmCc)
                views.push_back(p.get());
            sys.injectWarmState(views);
        }
    }

    obs::HostSpan span("sampling: detailed slice", "sampling");
    job.slice.result = sys.run();
}

SampledResult
SampledSimulation::run()
{
    const int n = config_.nCores;
    SampledResult out;
    std::vector<std::uint64_t> perCoreInsts;
    {
        // Host wall-clock spans for the sampled-simulation stages
        // (no-ops unless a telemetry sink is attached; the detailed
        // slices attach their own per-System sinks below).
        obs::HostSpan span("sampling: profile", "sampling");
        out.intervals = profileTrace(perCoreInsts);
    }
    out.totalInsts = 0;
    for (auto v : perCoreInsts)
        out.totalInsts += v;
    {
        obs::HostSpan span("sampling: cluster", "sampling");
        out.clusters = clusterIntervals(out.intervals);
    }
    const auto &ivs = out.intervals;

    // Representative per cluster: the member closest to the recomputed
    // centroid (Lloyd's loop no longer holds it). Zero-record members
    // contribute neither to the centroid nor as candidates — their
    // signatures are synthetic zeros.
    const std::size_t dim = ivs[0].signature.size();
    std::vector<SliceJob> jobs;
    for (int c = 0; c < out.clusters; ++c) {
        std::vector<double> centroid(dim, 0.0);
        std::uint64_t members = 0, clusterInsts = 0;
        std::vector<std::uint64_t> clusterCoreInsts(n, 0);
        for (const auto &iv : ivs) {
            if (iv.cluster != c)
                continue;
            clusterInsts += iv.insts;
            for (int cc = 0; cc < n; ++cc)
                clusterCoreInsts[cc] += iv.cores[cc].insts;
            if (iv.records == 0)
                continue;
            for (std::size_t j = 0; j < dim; ++j)
                centroid[j] += iv.signature[j];
            ++members;
        }
        if (members == 0)
            continue;
        for (auto &v : centroid)
            v /= static_cast<double>(members);

        std::size_t rep = 0;
        double bestD = std::numeric_limits<double>::max();
        for (std::size_t i = 0; i < ivs.size(); ++i) {
            if (ivs[i].cluster != c || ivs[i].records == 0)
                continue;
            double d = dist2(ivs[i].signature, centroid);
            if (d < bestD) {
                bestD = d;
                rep = i;
            }
        }

        const IntervalInfo &iv = ivs[rep];
        SliceJob &job = jobs.emplace_back();
        sim::SimConfig &cfg = job.config;
        cfg = config_;
        cfg.warmupInsts = 0;
        cfg.targetInsts = std::numeric_limits<std::uint64_t>::max();
        for (int cc = 0; cc < n; ++cc) {
            const auto &pc = iv.cores[cc];
            cfg.warmupInsts = std::max(cfg.warmupInsts,
                                       pc.startInst - pc.warmStartInst);
            if (pc.insts > 0)
                cfg.targetInsts = std::min(cfg.targetInsts, pc.insts);
        }
        if (cfg.targetInsts ==
            std::numeric_limits<std::uint64_t>::max())
            cfg.targetInsts = sampling_.intervalInsts;

        SampledSlice &slice = job.slice;
        slice.interval = rep;
        slice.weight = static_cast<double>(clusterInsts) /
                       static_cast<double>(out.totalInsts);
        slice.coreWeight.assign(n, 0.0);
        for (int cc = 0; cc < n; ++cc)
            if (perCoreInsts[cc] > 0)
                slice.coreWeight[cc] =
                    static_cast<double>(clusterCoreInsts[cc]) /
                    static_cast<double>(perCoreInsts[cc]);
        slice.measuredInsts =
            static_cast<std::uint64_t>(n) * cfg.targetInsts;
    }

    // The slices are independent by construction (each opens its own
    // readers and builds its own System), so they run on a pool and
    // fold back in cluster order: every field is the same at any
    // thread count. Telemetry that writes host spans or files keeps
    // them serial: the host-span sink is process-global, and every
    // slice writes the same output paths.
    const obs::ObsConfig &obsCfg = config_.obs;
    const bool sharedSinks =
        obsCfg.enable && (obsCfg.hostTrace ||
                          !obsCfg.timeSeriesPath.empty() ||
                          !obsCfg.traceEventPath.empty());
    const int threads =
        sharedSinks ? 1
                    : std::clamp<int>(static_cast<int>(jobs.size()), 1,
                                      sim::ParallelRunner::defaultThreads());
    {
        sim::ParallelRunner pool(threads);
        for (SliceJob &job : jobs)
            pool.enqueue([this, &ivs, &job] {
                try {
                    simulateSlice(ivs, job);
                } catch (...) {
                    job.error = std::current_exception();
                }
            });
        pool.waitAll();
    }
    // When several slices fail, the lowest cluster's error wins.
    for (SliceJob &job : jobs) {
        if (job.error)
            std::rethrow_exception(job.error);
        out.functionalInsts += job.functionalInsts;
        out.detailedInsts +=
            static_cast<std::uint64_t>(n) *
            (job.config.warmupInsts + job.config.targetInsts);
        out.slices.push_back(std::move(job.slice));
    }

    // Aggregate headline metrics. Per-core IPC combines as a harmonic
    // mean weighted by the cluster's share of that core's own
    // instructions (cycles add); hit rates weight by each slice's
    // activation rate so memory-quiet phases don't dilute memory-busy
    // ones.
    std::vector<double> cpi(n, 0.0);
    double actPerInst = 0;
    double hcracNum = 0, provNum = 0, unlNum = 0;
    for (const auto &s : out.slices) {
        for (int cc = 0; cc < n; ++cc) {
            double ipc = cc < static_cast<int>(s.result.ipc.size())
                             ? s.result.ipc[cc]
                             : 0.0;
            cpi[cc] += s.coreWeight[cc] / std::max(ipc, 1e-12);
        }
        double insts = static_cast<double>(s.measuredInsts);
        double api =
            insts > 0
                ? static_cast<double>(s.result.activations) / insts
                : 0.0;
        actPerInst += s.weight * api;
        hcracNum += s.weight * api * s.result.hcracHitRate;
        provNum += s.weight * api * s.result.providerHitRate;
        unlNum += s.weight * api * s.result.unlimitedHitRate;
    }
    auto &agg = out.aggregate;
    agg.ipc.assign(n, 0.0);
    double maxCycles = 0;
    for (int cc = 0; cc < n; ++cc) {
        agg.ipc[cc] = cpi[cc] > 0 ? 1.0 / cpi[cc] : 0.0;
        maxCycles =
            std::max(maxCycles, static_cast<double>(perCoreInsts[cc]) *
                                    cpi[cc]);
    }
    agg.cpuCycles = static_cast<CpuCycle>(maxCycles);
    agg.activations = static_cast<std::uint64_t>(
        actPerInst * static_cast<double>(out.totalInsts));
    if (actPerInst > 0) {
        agg.hcracHitRate = hcracNum / actPerInst;
        agg.providerHitRate = provNum / actPerInst;
        agg.unlimitedHitRate = unlNum / actPerInst;
    }
    agg.rmpkc = agg.cpuCycles > 0
                    ? static_cast<double>(agg.activations) /
                          (static_cast<double>(agg.cpuCycles) / 1000.0)
                    : 0.0;
    return out;
}

} // namespace ccsim::trace
