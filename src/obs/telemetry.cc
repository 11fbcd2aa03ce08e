#include "obs/telemetry.hh"

#include "dram/command.hh"
#include "resilience/serial.hh"

namespace ccsim::obs {

namespace {

// Simulated-time (pid kPidSim) track layout: cores on tids 0..N-1,
// bank windows and refresh on per-channel blocks above 10000 (see
// docs/observability.md).

int
bankTid(int channel, int rank, int bank)
{
    return 10000 + channel * 1000 + rank * 100 + bank;
}

int
refreshTid(int channel)
{
    return 10000 + channel * 1000 + 999;
}

void
putHist(resilience::SnapshotWriter &w, const Histogram &h)
{
    for (int i = 0; i < Histogram::kBuckets; ++i)
        w.put<std::uint64_t>(h.bucketCount(i));
    w.put<std::uint64_t>(h.count());
    w.put<std::uint64_t>(h.sum());
}

void
getHist(resilience::SnapshotReader &r, Histogram &h)
{
    std::array<std::uint64_t, Histogram::kBuckets> buckets;
    for (int i = 0; i < Histogram::kBuckets; ++i)
        buckets[i] = r.get<std::uint64_t>();
    std::uint64_t count = r.get<std::uint64_t>();
    std::uint64_t sum = r.get<std::uint64_t>();
    h.restore(buckets, count, sum);
}

} // namespace

BankSpanTracer::BankSpanTracer(TraceEventSink &sink, int channel,
                               int cpu_ratio, int trfc)
    : sink_(sink), channel_(channel), cpuRatio_(cpu_ratio), trfc_(trfc)
{}

void
BankSpanTracer::onCommand(const dram::Command &cmd, Cycle cycle,
                          const dram::EffActTiming *eff)
{
    using dram::CmdType;
    int key = (cmd.addr.rank << 8) | cmd.addr.bank;
    switch (cmd.type) {
      case CmdType::ACT:
        openAct_[key] = {cycle, eff && eff->reduced};
        break;
      case CmdType::PRE:
      case CmdType::RDA:
      case CmdType::WRA: {
        auto it = openAct_.find(key);
        if (it == openAct_.end())
            break;
        sink_.complete(bankTid(channel_, cmd.addr.rank, cmd.addr.bank),
                       it->second.second ? "row (hcrac hit)" : "row",
                       "bank", usOf(it->second.first),
                       usOf(cycle) - usOf(it->second.first));
        openAct_.erase(it);
        break;
      }
      case CmdType::PREA: {
        for (auto it = openAct_.begin(); it != openAct_.end();) {
            if ((it->first >> 8) == cmd.addr.rank) {
                sink_.complete(
                    bankTid(channel_, cmd.addr.rank, it->first & 0xff),
                    it->second.second ? "row (hcrac hit)" : "row",
                    "bank", usOf(it->second.first),
                    usOf(cycle) - usOf(it->second.first));
                it = openAct_.erase(it);
            } else {
                ++it;
            }
        }
        break;
      }
      case CmdType::REF:
        sink_.complete(refreshTid(channel_), "refresh", "ref", usOf(cycle),
                       usOf(cycle + trfc_) - usOf(cycle));
        break;
      default:
        break;
    }
}

Telemetry::Telemetry(const ObsConfig &cfg, int channels, int cores,
                     int cpu_ratio, int trfc)
    : cfg_(cfg), cpuRatio_(cpu_ratio), trfc_(trfc),
      ctrlHists_(std::size_t(channels)), ptwHists_(std::size_t(cores))
{
    if (simTraceOn()) {
        tracers_.reserve(std::size_t(channels));
        for (int ch = 0; ch < channels; ++ch) {
            tracers_.push_back(std::make_unique<BankSpanTracer>(
                sink_, ch, cpuRatio_, trfc_));
        }
    }
}

ctrl::CommandListener *
Telemetry::bankTracer(int ch)
{
    if (!simTraceOn())
        return nullptr;
    return tracers_[std::size_t(ch)].get();
}

void
Telemetry::scheduleFrom(CpuCycle now)
{
    nextAt_ = seriesOn() ? now + cfg_.sampleInterval : kNoCycle;
}

void
Telemetry::takeSample(CpuCycle now)
{
    series_.sample(now);
    nextAt_ += cfg_.sampleInterval;
}

void
Telemetry::rebase()
{
    series_.rebase();
    for (CtrlHists &c : ctrlHists_) {
        c.readLatency.reset();
        c.queueWait.reset();
    }
    for (Histogram &h : ptwHists_)
        h.reset();
}

void
Telemetry::corePark(int core, CpuCycle skipped, CpuCycle upto)
{
    if (!simTraceOn() || skipped == 0)
        return;
    sink_.complete(core, "parked", "core", cpuUs(upto - skipped),
                   cpuUs(upto) - cpuUs(upto - skipped));
}

Histogram
Telemetry::mergedReadLatency() const
{
    Histogram h;
    for (const CtrlHists &c : ctrlHists_)
        h.merge(c.readLatency);
    return h;
}

Histogram
Telemetry::mergedQueueWait() const
{
    Histogram h;
    for (const CtrlHists &c : ctrlHists_)
        h.merge(c.queueWait);
    return h;
}

Histogram
Telemetry::mergedPtwWalk() const
{
    Histogram h;
    for (const Histogram &p : ptwHists_)
        h.merge(p);
    return h;
}

void
Telemetry::flush()
{
    if (!enabled())
        return;
    if (!cfg_.timeSeriesPath.empty())
        series_.writeJsonl(cfg_.timeSeriesPath);
    if (!cfg_.traceEventPath.empty())
        sink_.writeJson(cfg_.traceEventPath);
}

void
Telemetry::saveState(resilience::SnapshotWriter &w) const
{
    w.put(nextAt_);
    series_.saveState(w);
    w.put<std::uint64_t>(ctrlHists_.size());
    for (const CtrlHists &c : ctrlHists_) {
        putHist(w, c.readLatency);
        putHist(w, c.queueWait);
    }
    w.put<std::uint64_t>(ptwHists_.size());
    for (const Histogram &h : ptwHists_)
        putHist(w, h);
}

void
Telemetry::loadState(resilience::SnapshotReader &r)
{
    r.get(nextAt_);
    series_.loadState(r);
    std::uint64_t nCtrl = r.get<std::uint64_t>();
    if (nCtrl != ctrlHists_.size()) {
        throw resilience::SimError(resilience::ErrorKind::CorruptSnapshot,
                                   "telemetry channel count mismatch");
    }
    for (CtrlHists &c : ctrlHists_) {
        getHist(r, c.readLatency);
        getHist(r, c.queueWait);
    }
    std::uint64_t nPtw = r.get<std::uint64_t>();
    if (nPtw != ptwHists_.size()) {
        throw resilience::SimError(resilience::ErrorKind::CorruptSnapshot,
                                   "telemetry core count mismatch");
    }
    for (Histogram &h : ptwHists_)
        getHist(r, h);
}

} // namespace ccsim::obs
