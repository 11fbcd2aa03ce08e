/**
 * @file
 * Channel-scope DRAM model: owns the ranks behind one command/data bus
 * and enforces cross-rank data-bus constraints (tRTRS). This is the
 * device-facing API used by the memory controller.
 */

#ifndef CCSIM_DRAM_CHANNEL_HH
#define CCSIM_DRAM_CHANNEL_HH

#include <vector>

#include "common/types.hh"
#include "dram/rank.hh"

namespace ccsim::resilience {
class SnapshotWriter;
class SnapshotReader;
} // namespace ccsim::resilience

namespace ccsim::dram {

class Channel
{
  public:
    explicit Channel(const DramSpec &spec);

    Rank &rank(int idx) { return ranks_[idx]; }
    const Rank &rank(int idx) const { return ranks_[idx]; }

    const DramSpec &spec() const { return spec_; }

    /** Full (channel+rank+bank scope) legality of `cmd` at `now`. */
    bool canIssue(const Command &cmd, Cycle now) const;

    /**
     * Channel-scope component of a column command's earliest issue
     * cycle on `rank` (0 when no cross-rank turnaround applies) — the
     * tRTRS check of canIssue(), hoisted per rank for schedulers.
     */
    Cycle
    busEarliestBase(int rank, bool is_read) const
    {
        if (rank == lastBusRank_ || lastBusRank_ < 0)
            return 0;
        const DramTiming &t = spec_.timing;
        Cycle lat = is_read ? Cycle(t.tCL) : Cycle(t.tCWL);
        Cycle need = busFreeAt_ + Cycle(t.tRTRS);
        return need > lat ? need - lat : 0;
    }

    /** Apply `cmd` at `now`; `eff` required for ACT. */
    void issue(const Command &cmd, Cycle now, const EffActTiming *eff);

    /** Cycle at which read data for a RD issued at `issue_cycle` is done. */
    Cycle
    readDataDone(Cycle issue_cycle) const
    {
        const DramTiming &t = spec_.timing;
        return issue_cycle + t.tCL + t.tBL;
    }

    /** Checkpoint: data-bus gate + every rank and bank. */
    void saveState(resilience::SnapshotWriter &w) const;
    void loadState(resilience::SnapshotReader &r);

  private:
    DramSpec spec_;
    std::vector<Rank> ranks_;

    // Cross-rank data bus tracking. Within one rank tCCD/turnaround
    // already spaces bursts; across ranks we add tRTRS.
    Cycle busFreeAt_ = 0;
    int lastBusRank_ = -1;
};

} // namespace ccsim::dram

#endif // CCSIM_DRAM_CHANNEL_HH
