/**
 * @file
 * Outside-in probes for the host-throughput benchmark: everything here
 * observes the simulator through its public hooks only.
 *
 *  - TimedSource: cpu::TraceSource decorator that counts records and
 *    times the wrapped source's next() (the workloads layer's self time);
 *    it can also keep a copy of the stream for a CCTR capture.
 *  - CommandCounter: per-channel ctrl::CommandListener counting DRAM
 *    commands and reduced-timing ACTs after the warm-up statistics reset.
 *  - SpanLog: host wall-clock spans kept in memory and written once as
 *    Chrome trace-event JSON.
 *  - forEachField: one visitor over every SystemResult field, shared by
 *    the digest and the field-by-field oracle comparison.
 */

#ifndef CCSIM_PERFBENCH_PROBES_HH
#define CCSIM_PERFBENCH_PROBES_HH

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <string>
#include <vector>

#include "cpu/trace.hh"
#include "ctrl/controller.hh"
#include "sim/system.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

class TimedSource : public ccsim::cpu::TraceSource
{
  public:
    /** `capture`, when non-null, receives a copy of every record. */
    TimedSource(ccsim::cpu::TraceSource &inner,
                std::vector<ccsim::cpu::TraceRecord> *capture = nullptr)
        : inner_(inner), capture_(capture)
    {
    }

    bool
    next(ccsim::cpu::TraceRecord &record) override
    {
        const Clock::time_point t0 = Clock::now();
        const bool ok = inner_.next(record);
        nextNs_ += std::chrono::duration<double, std::nano>(Clock::now() -
                                                            t0)
                       .count();
        if (ok) {
            ++records_;
            if (capture_)
                capture_->push_back(record);
        }
        return ok;
    }

    void reset() override { inner_.reset(); }

    std::uint64_t records() const { return records_; }
    double nextSeconds() const { return nextNs_ * 1e-9; }

  private:
    ccsim::cpu::TraceSource &inner_;
    std::vector<ccsim::cpu::TraceRecord> *capture_;
    std::uint64_t records_ = 0;
    double nextNs_ = 0.0;
};

/** DRAM command counts for one channel's measured (post-warm-up) region. */
struct CommandCounts {
    std::uint64_t acts = 0, reducedActs = 0, pres = 0, rds = 0, wrs = 0,
                  refs = 0, cmds = 0;

    CommandCounts &
    operator+=(const CommandCounts &o)
    {
        acts += o.acts;
        reducedActs += o.reducedActs;
        pres += o.pres;
        rds += o.rds;
        wrs += o.wrs;
        refs += o.refs;
        cmds += o.cmds;
        return *this;
    }
};

/**
 * Counts the commands one controller issues. The System zeroes the
 * controller's statistics once, at the end of warm-up, without telling
 * listeners; the counter notices because the controller's monotone
 * command counters read lower than at the previous command, and starts
 * over, so its totals cover the same region as SystemResult::ctrl. At
 * every ACT it also checks that the controller has counted exactly the
 * ACTs it has seen (the controller bumps its counter after notifying).
 */
class CommandCounter : public ccsim::ctrl::CommandListener
{
  public:
    explicit CommandCounter(const ccsim::ctrl::MemoryController &mc)
        : mc_(mc)
    {
    }

    void
    onCommand(const ccsim::dram::Command &cmd, ccsim::Cycle,
              const ccsim::dram::EffActTiming *eff) override
    {
        using ccsim::dram::CmdType;
        const ccsim::ctrl::CtrlStats &s = mc_.stats();
        const std::uint64_t mark = s.acts + s.pres + s.autoPres + s.refs;
        if (mark < lastMark_) {
            counts_ = CommandCounts();
            ++resets_;
        }
        ++counts_.cmds;
        switch (cmd.type) {
          case CmdType::ACT:
            if (s.acts != counts_.acts)
                ++mismatches_;
            ++counts_.acts;
            if (eff && eff->reduced)
                ++counts_.reducedActs;
            break;
          case CmdType::PRE:
          case CmdType::PREA:
            ++counts_.pres;
            break;
          case CmdType::RD:
            ++counts_.rds;
            break;
          case CmdType::RDA:
            ++counts_.rds;
            ++counts_.pres;
            break;
          case CmdType::WR:
            ++counts_.wrs;
            break;
          case CmdType::WRA:
            ++counts_.wrs;
            ++counts_.pres;
            break;
          case CmdType::REF:
            ++counts_.refs;
            break;
        }
        // The commands the controller counts bump `mark` by one once
        // this notification returns.
        lastMark_ = mark + (cmd.type == CmdType::RD ||
                                    cmd.type == CmdType::WR
                                ? 0
                                : 1);
    }

    const CommandCounts &counts() const { return counts_; }
    int resets() const { return resets_; }
    std::uint64_t mismatches() const { return mismatches_; }

  private:
    const ccsim::ctrl::MemoryController &mc_;
    CommandCounts counts_;
    std::uint64_t lastMark_ = 0;
    std::uint64_t mismatches_ = 0;
    int resets_ = 0;
};

/** Host wall-clock spans, written at exit as Chrome trace-event JSON. */
class SpanLog
{
  public:
    SpanLog() : origin_(Clock::now()) {}

    /** Open a span under the innermost open one; returns its id. */
    int
    begin(const std::string &name)
    {
        const int parent = open_.empty() ? -1 : open_.back();
        spans_.push_back({name, usNow(), 0.0, parent});
        open_.push_back(static_cast<int>(spans_.size()) - 1);
        return open_.back();
    }

    void
    end(int id)
    {
        spans_[id].durUs = usNow() - spans_[id].startUs;
        if (!open_.empty() && open_.back() == id)
            open_.pop_back();
    }

    /** Serialize every closed span ("X" events, parent id in args). */
    std::string
    chromeJson() const
    {
        std::string out = "{\"traceEvents\": [";
        char buf[128];
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            const Span &s = spans_[i];
            std::string name;
            for (char c : s.name)
                name += (c == '"' || c == '\\') ? '_' : c;
            std::snprintf(buf, sizeof buf,
                          "\", \"ph\": \"X\", \"pid\": 1, \"tid\": 1, "
                          "\"ts\": %.3f, \"dur\": %.3f, ",
                          s.startUs, s.durUs);
            out += (i ? ",\n" : "\n");
            out += "{\"name\": \"" + name + buf;
            std::snprintf(buf, sizeof buf,
                          "\"args\": {\"id\": %zu, \"parent\": %d}}", i,
                          s.parent);
            out += buf;
        }
        out += "\n]}\n";
        return out;
    }

  private:
    struct Span {
        std::string name;
        double startUs;
        double durUs;
        int parent;
    };

    double
    usNow() const
    {
        return std::chrono::duration<double, std::micro>(Clock::now() -
                                                         origin_)
            .count();
    }

    Clock::time_point origin_;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/** RAII span on an optional log (null: no-op). */
class ScopedSpan
{
  public:
    ScopedSpan(SpanLog *log, const std::string &name)
        : log_(log), id_(log ? log->begin(name) : -1)
    {
    }
    ~ScopedSpan()
    {
        if (log_)
            log_->end(id_);
    }
    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

  private:
    SpanLog *log_;
    int id_;
};

inline std::uint64_t
bitsOf(double v)
{
    std::uint64_t b;
    std::memcpy(&b, &v, sizeof b);
    return b;
}

/**
 * Call `f(name, bits)` for every field of `r`, doubles by bit pattern,
 * so two results compare equal exactly when they are bit-identical.
 */
template <typename F>
void
forEachField(const ccsim::sim::SystemResult &r, F &&f)
{
    f("ipc.size", r.ipc.size());
    for (std::size_t i = 0; i < r.ipc.size(); ++i)
        f("ipc[" + std::to_string(i) + "]", bitsOf(r.ipc[i]));
    f("cpuCycles", r.cpuCycles);
    f("activations", r.activations);
    f("providerHitRate", bitsOf(r.providerHitRate));
    f("hcracHitRate", bitsOf(r.hcracHitRate));
    f("unlimitedHitRate", bitsOf(r.unlimitedHitRate));
    f("rmpkc", bitsOf(r.rmpkc));
    const ccsim::ctrl::CtrlStats &c = r.ctrl;
    f("ctrl.reads", c.reads);
    f("ctrl.writes", c.writes);
    f("ctrl.acts", c.acts);
    f("ctrl.pres", c.pres);
    f("ctrl.autoPres", c.autoPres);
    f("ctrl.refs", c.refs);
    f("ctrl.rowHits", c.rowHits);
    f("ctrl.rowMisses", c.rowMisses);
    f("ctrl.rowConflicts", c.rowConflicts);
    f("ctrl.readForwards", c.readForwards);
    f("ctrl.readLatencySum", c.readLatencySum);
    f("ctrl.ptwReads", c.ptwReads);
    f("ctrl.ptwActs", c.ptwActs);
    f("ctrl.ptwActHits", c.ptwActHits);
    const ccsim::mem::LlcStats &l = r.llc;
    f("llc.accesses", l.accesses);
    f("llc.hits", l.hits);
    f("llc.misses", l.misses);
    f("llc.mshrMerges", l.mshrMerges);
    f("llc.writebacks", l.writebacks);
    f("llc.blockedMshr", l.blockedMshr);
    f("llc.blockedMemQueue", l.blockedMemQueue);
    const ccsim::energy::EnergyBreakdown &e = r.energy;
    f("energy.actPreNj", bitsOf(e.actPreNj));
    f("energy.readNj", bitsOf(e.readNj));
    f("energy.writeNj", bitsOf(e.writeNj));
    f("energy.refreshNj", bitsOf(e.refreshNj));
    f("energy.actStandbyNj", bitsOf(e.actStandbyNj));
    f("energy.preStandbyNj", bitsOf(e.preStandbyNj));
    f("energy.controllerNj", bitsOf(e.controllerNj));
    f("xlatStallCycles", r.xlatStallCycles);
    f("shootdownStallCycles", r.shootdownStallCycles);
    f("rltl.size", r.rltl.size());
    for (std::size_t i = 0; i < r.rltl.size(); ++i)
        f("rltl[" + std::to_string(i) + "]", bitsOf(r.rltl[i]));
    f("afterRefresh8ms", bitsOf(r.afterRefresh8ms));
}

/** FNV-1a over every field of `r`. */
inline std::uint64_t
digest(const ccsim::sim::SystemResult &r,
       std::uint64_t h = 1469598103934665603ull)
{
    forEachField(r, [&h](const std::string &, std::uint64_t v) {
        for (int i = 0; i < 8; ++i) {
            h ^= (v >> (8 * i)) & 0xFF;
            h *= 1099511628211ull;
        }
    });
    return h;
}

/** Name of the first field where `a` and `b` differ ("" if none). */
inline std::string
firstDifference(const ccsim::sim::SystemResult &a,
                const ccsim::sim::SystemResult &b)
{
    std::vector<std::pair<std::string, std::uint64_t>> fa, fb;
    forEachField(a, [&fa](const std::string &n, std::uint64_t v) {
        fa.emplace_back(n, v);
    });
    forEachField(b, [&fb](const std::string &n, std::uint64_t v) {
        fb.emplace_back(n, v);
    });
    for (std::size_t i = 0; i < fa.size() && i < fb.size(); ++i)
        if (fa[i] != fb[i])
            return fa[i].first;
    return fa.size() == fb.size() ? "" : "size";
}

} // namespace perfbench

#endif // CCSIM_PERFBENCH_PROBES_HH
