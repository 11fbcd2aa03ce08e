#include "workloads/synthetic.hh"

#include <cmath>

#include "common/log.hh"
#include "resilience/serial.hh"

namespace ccsim::workloads {

std::uint64_t
SyntheticProfile::footprintLines() const
{
    std::uint64_t lines =
        (hotRows + poolRows) * static_cast<std::uint64_t>(linesPerRow);
    for (const auto &s : streams)
        lines += s.regionLines;
    return lines;
}

std::uint64_t
SyntheticProfile::footprintPages(int page_bytes) const
{
    if (vmPages)
        return vmPages;
    std::uint64_t lines_per_page =
        static_cast<std::uint64_t>(page_bytes) / kLineBytes;
    CCSIM_ASSERT(lines_per_page > 0, "page smaller than a line");
    return (footprintLines() + lines_per_page - 1) / lines_per_page;
}

SyntheticTrace::SyntheticTrace(const SyntheticProfile &profile,
                               std::uint64_t seed, Addr base_line,
                               Addr capacity_lines)
    : profile_(profile),
      seed_(seed),
      baseLine_(base_line),
      capacityLines_(capacity_lines),
      rng_(seed)
{
    CCSIM_ASSERT(profile_.memPerInst > 0.0 && profile_.memPerInst <= 1.0,
                 "memPerInst must be in (0, 1]");
    gapMean_ = 1.0 / profile_.memPerInst - 1.0;

    double total = profile_.hotWeight + profile_.poolWeight;
    for (const auto &s : profile_.streams)
        total += s.weight;
    CCSIM_ASSERT(total > 0.0, "profile has no access components");

    double acc = 0.0;
    acc += profile_.hotWeight / total;
    cumWeight_.push_back(acc);
    acc += profile_.poolWeight / total;
    cumWeight_.push_back(acc);
    for (const auto &s : profile_.streams) {
        acc += s.weight / total;
        cumWeight_.push_back(acc);
    }

    // Lay out components back to back in generator-local line space.
    Addr cursor = 0;
    hotBase_ = cursor;
    cursor += profile_.hotRows * profile_.linesPerRow;
    poolBase_ = cursor;
    cursor += profile_.poolRows * profile_.linesPerRow;
    for (const auto &s : profile_.streams) {
        streamBase_.push_back(cursor);
        cursor += s.regionLines;
    }
    CCSIM_ASSERT(cursor > 0, "empty profile footprint");
    streamPos_.assign(profile_.streams.size(), 0);
}

void
SyntheticTrace::reset()
{
    rng_.reseed(seed_);
    streamPos_.assign(profile_.streams.size(), 0);
}

void
SyntheticTrace::saveState(resilience::SnapshotWriter &w) const
{
    w.put(rng_.state());
    w.putVec(streamPos_);
}

void
SyntheticTrace::loadState(resilience::SnapshotReader &r)
{
    rng_.setState(r.get<std::array<std::uint64_t, 4>>());
    r.getVec(streamPos_);
}

Addr
SyntheticTrace::pickLine()
{
    const double u = rng_.uniform();
    size_t comp = 0;
    while (comp + 1 < cumWeight_.size() && u >= cumWeight_[comp])
        ++comp;

    const int lpr = profile_.linesPerRow;
    if (comp == 0 && profile_.hotRows > 0) {
        Addr row = rng_.below(profile_.hotRows);
        return hotBase_ + row * lpr + rng_.below(lpr);
    }
    if (comp <= 1 && profile_.poolRows > 0) {
        Addr row = rng_.below(profile_.poolRows);
        return poolBase_ + row * lpr + rng_.below(lpr);
    }
    if (comp < 2) {
        // Weighted toward a missing component; fall through to the
        // first stream if one exists.
        comp = 2;
    }
    size_t s = comp - 2;
    if (s >= profile_.streams.size()) {
        CCSIM_ASSERT(!profile_.streams.empty(), "no stream to fall to");
        s = profile_.streams.size() - 1;
    }
    const StreamSpec &spec = profile_.streams[s];
    if (rng_.chance(spec.seqProb))
        streamPos_[s] = (streamPos_[s] + 1) % spec.regionLines;
    else
        streamPos_[s] = rng_.below(spec.regionLines);
    return streamBase_[s] + streamPos_[s];
}

bool
SyntheticTrace::next(cpu::TraceRecord &record)
{
    // Geometric compute gap with mean gapMean_ (rounded, not floored,
    // so the sample mean matches the profile's memPerInst).
    double u = rng_.uniform();
    double gap = gapMean_ > 0.0 ? -std::log1p(-u) * gapMean_ : 0.0;
    double cap = 10.0 * gapMean_ + 10.0;
    record.nonMemInsts =
        static_cast<std::uint32_t>(std::min(gap, cap) + 0.5);

    Addr line = (baseLine_ + pickLine()) % capacityLines_;
    record.addr = line * 64;
    record.isWrite = rng_.chance(profile_.writeFraction);
    return true;
}

} // namespace ccsim::workloads
