#include "dram/channel.hh"

#include "resilience/serial.hh"

#include "common/log.hh"

namespace ccsim::dram {

Channel::Channel(const DramSpec &spec) : spec_(spec)
{
    spec_.validate();
    ranks_.reserve(spec_.org.ranksPerChannel);
    for (int i = 0; i < spec_.org.ranksPerChannel; ++i)
        ranks_.emplace_back(spec_.org, spec_.timing);
}

bool
Channel::canIssue(const Command &cmd, Cycle now) const
{
    const Rank &r = ranks_[cmd.addr.rank];
    if (!r.canIssue(cmd, now))
        return false;
    if (isColumnCmd(cmd.type) && cmd.addr.rank != lastBusRank_ &&
        lastBusRank_ >= 0) {
        const DramTiming &t = spec_.timing;
        Cycle data_start =
            now + (isReadCmd(cmd.type) ? Cycle(t.tCL) : Cycle(t.tCWL));
        if (data_start < busFreeAt_ + Cycle(t.tRTRS))
            return false;
    }
    return true;
}

void
Channel::issue(const Command &cmd, Cycle now, const EffActTiming *eff)
{
    CCSIM_ASSERT(canIssue(cmd, now), "illegal channel command ",
                 cmdName(cmd.type), " at cycle ", now);
    ranks_[cmd.addr.rank].issue(cmd, now, eff);
    if (isColumnCmd(cmd.type)) {
        const DramTiming &t = spec_.timing;
        Cycle data_start =
            now + (isReadCmd(cmd.type) ? Cycle(t.tCL) : Cycle(t.tCWL));
        busFreeAt_ = data_start + t.tBL;
        lastBusRank_ = cmd.addr.rank;
    }
}


void
Channel::saveState(resilience::SnapshotWriter &w) const
{
    w.put(busFreeAt_);
    w.put(lastBusRank_);
    for (const Rank &rk : ranks_)
        rk.saveState(w);
}

void
Channel::loadState(resilience::SnapshotReader &r)
{
    r.get(busFreeAt_);
    r.get(lastBusRank_);
    for (Rank &rk : ranks_)
        rk.loadState(r);
}

} // namespace ccsim::dram
