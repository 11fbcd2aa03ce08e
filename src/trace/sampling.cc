#include "trace/sampling.hh"

#include <algorithm>
#include <cmath>
#include <condition_variable>
#include <deque>
#include <exception>
#include <functional>
#include <limits>
#include <memory>
#include <mutex>

#include "common/random.hh"
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

/**
 * Profile-pass decode jobs cover kJobBlocks whole blocks of one core's
 * trace. At most kWindowChunks jobs, over all cores together, are
 * queued, decoding or decoded ahead of the fold.
 */
constexpr std::uint32_t kJobBlocks = 2;
constexpr int kWindowChunks = 8;

/** Lloyd iterations at most, if the assignments keep changing. */
constexpr std::uint32_t kKmeansIters = 50;

/**
 * Signature bucket of a record address: a hash of its 8 KB row, the
 * ChargeCache locality unit, masked to kSignatureBuckets (a power of
 * two, so no divide in this once-per-record step).
 */
std::uint32_t
bucketOf(Addr addr)
{
    static_assert((kSignatureBuckets & (kSignatureBuckets - 1)) == 0);
    return static_cast<std::uint32_t>(mix64(addr >> 13) &
                                      (kSignatureBuckets - 1));
}

/** A decoded record, as the fold needs it. */
struct ProfRec {
    std::uint32_t insts;  ///< nonMemInsts + 1.
    std::uint32_t bucket; ///< Signature bucket; kWriteBit marks a write.
};
constexpr std::uint32_t kWriteBit = 1u << 31; ///< Above every bucket.

/** Totals of one decoded block, so that it can fold in one step. */
struct BlockSum {
    std::uint32_t first = 0; ///< Index of its first record in recs.
    std::uint32_t records = 0;
    std::uint64_t insts = 0;
    std::uint64_t lastStart = 0; ///< Instructions before its last record.
    std::uint64_t writes = 0;
};

/**
 * One decode job: walked blocks in, decoded records out. The buffers
 * keep their capacity from job to job.
 */
struct Chunk {
    std::vector<TraceReader::BlockSpan> spans;
    TraceReader::BlockSpan start; ///< Where the job's reader starts.
    bool toEnd = false; ///< Read on to the end of the trace after spans.

    std::vector<ProfRec> recs;
    std::vector<BlockSum> blocks;
    std::vector<std::uint32_t> hist; ///< Per block, kSignatureBuckets wide.
    std::exception_ptr error; ///< What stopped the job after recs.
    bool end = false;         ///< The trace ended cleanly after recs.
    bool ready = false; ///< Decoded, not yet taken; under the window mutex.
};

/**
 * Decode `ch` from its own reader of `path`: the walked blocks with
 * per-block totals, then, for the job that covers the point where the
 * walk stopped, the rest of the trace. Whatever stops it is kept in
 * ch.error, after the records decoded before it.
 */
void
decodeChunk(const std::string &path, Chunk &ch)
{
    ch.recs.clear();
    ch.blocks.clear();
    ch.hist.assign(ch.spans.size() * kSignatureBuckets, 0);
    ch.error = nullptr;
    ch.end = false;
    try {
        TraceReader rd(path);
        rd.seekBlock(ch.start);
        cpu::TraceRecord rec;
        auto changed = [&] {
            return SimError(ErrorKind::IoError,
                            "trace file '" + path +
                                "' changed while it was profiled");
        };
        for (const TraceReader::BlockSpan &span : ch.spans) {
            BlockSum &b = ch.blocks.emplace_back();
            b.first = static_cast<std::uint32_t>(ch.recs.size());
            std::uint32_t *hist =
                ch.hist.data() + (ch.blocks.size() - 1) * kSignatureBuckets;
            for (std::uint32_t i = 0; i < span.records; ++i) {
                if (!rd.next(rec))
                    throw changed();
                const std::uint32_t insts = rec.nonMemInsts + 1;
                const std::uint32_t bucket = bucketOf(rec.addr);
                ++hist[bucket];
                b.lastStart = b.insts;
                b.insts += insts;
                ++b.records;
                b.writes += rec.isWrite ? 1 : 0;
                ch.recs.push_back(
                    {insts, bucket | (rec.isWrite ? kWriteBit : 0)});
            }
        }
        // The walk stopped at the end block or at something a reader
        // rejects, so no record can follow.
        if (ch.toEnd) {
            if (rd.next(rec))
                throw changed();
            ch.end = true;
        }
    } catch (...) {
        ch.error = std::current_exception();
    }
}

/**
 * The decode side of the profile pass. A walker per core steps over
 * block headers (TraceReader::walkBlock) only as far as the window
 * reaches, and each kJobBlocks walked blocks become a decode job on a
 * sim::ParallelRunner; the job covering the point where a walk stopped
 * reads on to the end with the ordinary checks. Speculative jobs go to
 * the core whose next chunk `rank` puts first and leave one window
 * slot free, so the core the fold waits on can always get a job.
 * Besides the window, the fold holds the chunk it is reading for each
 * core.
 */
class DecodeWindow
{
  public:
    /** Fold order of core c's chunk that starts at record `rec`. */
    using Rank = std::function<std::uint64_t(int c, std::uint64_t rec)>;

    DecodeWindow(const std::vector<std::string> &paths, Rank rank)
        : paths_(paths), rank_(std::move(rank)),
          lanes_(openLanes(paths)),
          pool_(std::min(sim::ParallelRunner::defaultThreads(),
                         kWindowChunks))
    {
    }

    DecodeWindow(const DecodeWindow &) = delete; // Jobs hold `this`.
    DecodeWindow &operator=(const DecodeWindow &) = delete;

    /** Core c's next chunk in stream order, once it is decoded. */
    const Chunk &
    take(int c)
    {
        Lane &lane = *lanes_[c];
        if (lane.queued.empty())
            launch(c); // Into the slot speculative jobs leave free.
        lane.held = lane.queued.front();
        lane.queued.pop_front();
        --inWindow_;
        topUp();
        std::unique_lock<std::mutex> lock(mutex_);
        decoded_.wait(lock, [&lane] { return lane.held->ready; });
        lane.held->ready = false; // Until its next job has run.
        return *lane.held;
    }

    /** Hand back the chunk take(c) returned, for reuse. */
    void
    release(int c)
    {
        free_.push_back(lanes_[c]->held);
        lanes_[c]->held = nullptr;
    }

  private:
    struct Lane {
        explicit Lane(const std::string &path) : walker(path) {}
        TraceReader walker;
        std::deque<Chunk *> queued; ///< Launched, not yet taken.
        Chunk *held = nullptr;      ///< Taken by the fold.
        bool walked = false;        ///< The walk stopped; no more jobs.
    };

    /** One walker per core, opened in core order like a plain read. */
    static std::vector<std::unique_ptr<Lane>>
    openLanes(const std::vector<std::string> &paths)
    {
        std::vector<std::unique_ptr<Lane>> lanes;
        for (const std::string &p : paths)
            lanes.push_back(std::make_unique<Lane>(p));
        return lanes;
    }

    void
    launch(int c)
    {
        Lane &lane = *lanes_[c];
        CCSIM_ASSERT(!lane.walked, "decode job past the end of a trace");
        if (free_.empty()) {
            chunks_.push_back(std::make_unique<Chunk>());
            free_.push_back(chunks_.back().get());
        }
        Chunk *ch = free_.back();
        free_.pop_back();
        ch->spans.clear();
        TraceReader::BlockSpan span;
        while (ch->spans.size() < kJobBlocks && lane.walker.walkBlock(span))
            ch->spans.push_back(span);
        ch->toEnd = lane.walked = ch->spans.size() < kJobBlocks;
        ch->start = ch->spans.empty() ? span : ch->spans.front();
        lane.queued.push_back(ch);
        ++inWindow_;
        pool_.enqueue([this, ch, &path = paths_[c]] {
            decodeChunk(path, *ch);
            {
                std::lock_guard<std::mutex> lock(mutex_);
                ch->ready = true;
            }
            decoded_.notify_one();
        });
    }

    void
    topUp()
    {
        while (inWindow_ < kWindowChunks - 1) {
            int best = -1;
            std::uint64_t bestRank = 0;
            for (int c = 0; c < static_cast<int>(lanes_.size()); ++c) {
                if (lanes_[c]->walked)
                    continue;
                const std::uint64_t r =
                    rank_(c, lanes_[c]->walker.position());
                if (best < 0 || r < bestRank) {
                    best = c;
                    bestRank = r;
                }
            }
            if (best < 0)
                return;
            launch(best);
        }
    }

    const std::vector<std::string> &paths_;
    const Rank rank_;
    std::vector<std::unique_ptr<Lane>> lanes_;
    std::vector<std::unique_ptr<Chunk>> chunks_;
    std::vector<Chunk *> free_;
    int inWindow_ = 0; ///< Launched chunks not yet taken.
    std::mutex mutex_;
    std::condition_variable decoded_;
    /** Last member: its destructor finishes the queued jobs, which
        write the chunks above, before they go. */
    sim::ParallelRunner pool_;
};

/** Per-core fold state of the profile pass. */
struct CoreScan {
    std::uint64_t cum = 0;    ///< Instructions consumed.
    std::uint64_t recIdx = 0; ///< Records consumed.
    // Warm lead-in start for the NEXT interval: the first record at or
    // past (boundary - W) instructions, captured in the same pass.
    std::uint64_t pendWarmRec = 0, pendWarmInst = 0;
    bool pendValid = false;
    bool eof = false;
    const Chunk *chunk = nullptr; ///< From DecodeWindow::take, if any.
    std::size_t block = 0, rec = 0; ///< Fold cursor in chunk.
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
    if (sampling_.maxClusters == 0)
        throw SimError(ErrorKind::InvalidConfig,
                       "sampling needs at least one cluster");
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
    const std::uint64_t B = kSignatureBuckets;
    const int n = config_.nCores;

    std::vector<CoreScan> cores(n);
    std::vector<RawInterval> raws;
    std::uint64_t boundary = 0;

    // Decode jobs go out in the order this fold needs their records:
    // interval by interval, and core by core within an interval. A
    // chunk's first instruction is estimated from its core's
    // instructions per record so far.
    DecodeWindow window(paths_, [&](int c, std::uint64_t rec) {
        const CoreScan &cs = cores[c];
        const std::uint64_t perRec = cs.recIdx ? cs.cum / cs.recIdx : 1;
        const std::uint64_t at = cs.cum + (rec - cs.recIdx) * perRec;
        const std::uint64_t ahead =
            at < boundary ? 0 : 1 + (at - boundary) / L;
        return ahead * n + c;
    });

    auto all_eof = [&] {
        for (const auto &c : cores)
            if (!c.eof)
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
            CoreScan &cs = cores[c];
            IntervalInfo::PerCore &pc = raw.cores[c];
            pc.startRecord = cs.recIdx;
            pc.startInst = cs.cum;
            pc.warmStartRecord = cs.pendValid ? cs.pendWarmRec : cs.recIdx;
            pc.warmStartInst = cs.pendValid ? cs.pendWarmInst : cs.cum;
            cs.pendValid = false;
            std::uint64_t *hist = raw.hist.data() +
                                  static_cast<std::size_t>(c) * B;
            // A core whose previous record overshot past `boundary`
            // contributes zero records here — a compute-only interval.
            while (cs.cum < boundary && !cs.eof) {
                if (!cs.chunk) {
                    cs.chunk = &window.take(c);
                    cs.block = cs.rec = 0;
                }
                const Chunk &ch = *cs.chunk;
                if (cs.rec == ch.recs.size()) {
                    // A failure surfaces where a sequential read would
                    // raise it: after the records decoded before it.
                    if (ch.error)
                        std::rethrow_exception(ch.error);
                    if (ch.end) {
                        cs.eof = true;
                        break;
                    }
                    window.release(c);
                    cs.chunk = nullptr;
                    continue;
                }
                // The next cut is the warm lead-in capture while that is
                // pending, else the boundary. A block whose records all
                // start before it would be taken whole by the walk
                // below without a capture, so its totals fold at once.
                const BlockSum &b = ch.blocks[cs.block];
                const std::uint64_t cut =
                    cs.pendValid ? boundary : boundary - W;
                if (cs.rec == b.first && cs.cum + b.lastStart < cut) {
                    const std::uint32_t *bh = ch.hist.data() + cs.block * B;
                    for (std::uint64_t k = 0; k < B; ++k)
                        hist[k] += bh[k];
                    raw.writes[c] += b.writes;
                    cs.cum += b.insts;
                    cs.recIdx += b.records;
                    pc.records += b.records;
                    cs.rec += b.records;
                    ++cs.block;
                    continue;
                }
                const std::size_t stop = b.first + b.records;
                while (cs.rec < stop && cs.cum < boundary) {
                    const ProfRec r = ch.recs[cs.rec++];
                    if (!cs.pendValid && cs.cum >= boundary - W) {
                        cs.pendWarmRec = cs.recIdx;
                        cs.pendWarmInst = cs.cum;
                        cs.pendValid = true;
                    }
                    ++hist[r.bucket & ~kWriteBit];
                    raw.writes[c] += (r.bucket & kWriteBit) ? 1 : 0;
                    cs.cum += r.insts;
                    ++cs.recIdx;
                    ++pc.records;
                }
                if (cs.rec == stop)
                    ++cs.block;
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
        per_core_insts[c] = cores[c].cum;
        if (cores[c].cum == 0)
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
        for (std::uint32_t iter = 0; iter < kKmeansIters; ++iter) {
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

sim::SystemResult
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
        // and HCRAC tables. The inserts' statistics go at the warm-up
        // boundary like every other counter; the tables' BIP RNGs
        // restart from their seeds once the window is done.
        const dram::DramSpec spec = cfg.buildSpec();
        const dram::AddressMapper mapper(spec.org, cfg.mapping);
        mem::Llc &llc = sys.llc();
        // Every channel runs the same scheme: one table set per
        // channel, or none.
        std::vector<chargecache::ChargeCacheProvider *> warmCc;
        for (int ch = 0; ch < cfg.channels; ++ch)
            if (auto *p = sys.provider(ch).chargeCacheView())
                warmCc.push_back(p);

        // Merge the per-core streams by absolute instruction position
        // (ties to the lowest core id) — a deterministic stand-in for
        // the detailed interleave.
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
            Addr line = rec.addr >> kLineShift;
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
        for (chargecache::ChargeCacheProvider *p : warmCc)
            p->endWarming();
    }

    return sys.run();
}

SampledResult
SampledSimulation::run()
{
    const int n = config_.nCores;
    SampledResult out;
    std::vector<std::uint64_t> perCoreInsts;
    out.intervals = profileTrace(perCoreInsts);
    out.totalInsts = 0;
    for (auto v : perCoreInsts)
        out.totalInsts += v;
    out.clusters = clusterIntervals(out.intervals);
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
    // readers and builds its own System), so they run as one sweep,
    // whose results and error come back in cluster order whatever the
    // thread count. Each slice's telemetry lives in its own System;
    // telemetry that writes files keeps the sweep at one worker,
    // because every slice writes the same output paths.
    const obs::ObsConfig &obsCfg = config_.obs;
    const bool sharedFiles =
        obsCfg.enable && (!obsCfg.timeSeriesPath.empty() ||
                          !obsCfg.traceEventPath.empty());
    std::vector<sim::SystemResult> results = sim::runSweep(
        jobs.size(),
        [this, &ivs, &jobs](std::size_t i) {
            return simulateSlice(ivs, jobs[i]);
        },
        sharedFiles ? 1 : 0);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        SliceJob &job = jobs[i];
        job.slice.result = std::move(results[i]);
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
