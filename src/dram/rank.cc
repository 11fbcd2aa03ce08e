#include "dram/rank.hh"

#include "resilience/serial.hh"

#include <algorithm>

#include "common/log.hh"

namespace ccsim::dram {

Rank::Rank(const DramOrg &org, const DramTiming &timing) : timing_(timing)
{
    banks_.reserve(org.banksPerRank);
    for (int i = 0; i < org.banksPerRank; ++i)
        banks_.emplace_back(timing);
}

bool
Rank::allBanksIdle() const
{
    for (const auto &b : banks_)
        if (b.state() != Bank::State::Idle)
            return false;
    return true;
}

bool
Rank::anyBankActive() const
{
    return !allBanksIdle();
}

bool
Rank::canIssue(const Command &cmd, Cycle now) const
{
    if (now < busyUntil_)
        return false;
    const Bank &b = banks_[cmd.addr.bank];
    switch (cmd.type) {
      case CmdType::ACT: {
        if (!b.canIssue(CmdType::ACT, cmd.addr.row, now))
            return false;
        if (now < nextActRank_)
            return false;
        if (acts_.full() && now < acts_.front() + Cycle(timing_.tFAW))
            return false;
        return true;
      }
      case CmdType::PRE:
        return b.canIssue(CmdType::PRE, cmd.addr.row, now);
      case CmdType::PREA: {
        for (const auto &bk : banks_)
            if (!bk.canIssue(CmdType::PRE, -1, now))
                return false;
        return true;
      }
      case CmdType::RD:
      case CmdType::RDA:
        return now >= nextRd_ && b.canIssue(cmd.type, cmd.addr.row, now);
      case CmdType::WR:
      case CmdType::WRA:
        return now >= nextWr_ && b.canIssue(cmd.type, cmd.addr.row, now);
      case CmdType::REF: {
        // All banks must be precharged and past their tRP.
        for (const auto &bk : banks_) {
            if (bk.state() != Bank::State::Idle)
                return false;
            if (now < bk.earliest(CmdType::ACT))
                return false;
        }
        return true;
      }
    }
    return false;
}

void
Rank::issue(const Command &cmd, Cycle now, const EffActTiming *eff)
{
    CCSIM_ASSERT(canIssue(cmd, now), "illegal rank command ",
                 cmdName(cmd.type), " at cycle ", now);
    Bank &b = banks_[cmd.addr.bank];
    const DramTiming &t = timing_;
    switch (cmd.type) {
      case CmdType::ACT:
        b.issue(CmdType::ACT, cmd.addr.row, now, eff);
        nextActRank_ = now + t.tRRD;
        if (acts_.full())
            acts_.pop_front();
        acts_.push_back(now);
        break;
      case CmdType::PRE:
        b.issue(CmdType::PRE, -1, now, nullptr);
        break;
      case CmdType::PREA:
        for (auto &bk : banks_)
            bk.issue(CmdType::PRE, -1, now, nullptr);
        break;
      case CmdType::RD:
      case CmdType::RDA:
        b.issue(cmd.type, cmd.addr.row, now, nullptr);
        nextRd_ = std::max(nextRd_, now + Cycle(t.tCCD));
        nextWr_ = std::max(nextWr_, now + Cycle(t.readToWrite()));
        break;
      case CmdType::WR:
      case CmdType::WRA:
        b.issue(cmd.type, cmd.addr.row, now, nullptr);
        nextWr_ = std::max(nextWr_, now + Cycle(t.tCCD));
        nextRd_ = std::max(nextRd_, now + Cycle(t.writeToRead()));
        break;
      case CmdType::REF:
        busyUntil_ = now + t.tRFC;
        break;
    }
}


void
Rank::saveState(resilience::SnapshotWriter &w) const
{
    w.put(nextActRank_);
    w.putRing(acts_);
    w.put(nextRd_);
    w.put(nextWr_);
    w.put(busyUntil_);
    for (const Bank &b : banks_)
        b.saveState(w);
}

void
Rank::loadState(resilience::SnapshotReader &r)
{
    r.get(nextActRank_);
    r.getRing(acts_);
    r.get(nextRd_);
    r.get(nextWr_);
    r.get(busyUntil_);
    for (Bank &b : banks_)
        b.loadState(r);
}

} // namespace ccsim::dram
