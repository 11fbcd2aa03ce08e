/**
 * @file
 * Rank-scope DRAM timing: tRRD, tFAW, column-to-column (tCCD), read/write
 * turnaround, and all-bank refresh (tRFC). Owns the per-bank state
 * machines.
 */

#ifndef CCSIM_DRAM_RANK_HH
#define CCSIM_DRAM_RANK_HH

#include <vector>

#include "common/ring.hh"
#include "common/types.hh"
#include "dram/bank.hh"

namespace ccsim::resilience {
class SnapshotWriter;
class SnapshotReader;
} // namespace ccsim::resilience

namespace ccsim::dram {

class Rank
{
  public:
    Rank(const DramOrg &org, const DramTiming &timing);

    Bank &bank(int idx) { return banks_[idx]; }
    const Bank &bank(int idx) const { return banks_[idx]; }
    int numBanks() const { return static_cast<int>(banks_.size()); }

    /** True when every bank is precharged. */
    bool allBanksIdle() const;

    /** True when any bank has an open row (for background energy). */
    bool anyBankActive() const;

    /** Rank+bank-scope legality of `cmd` at `now`. */
    bool canIssue(const Command &cmd, Cycle now) const;

    // Rank-scope earliest issue cycles of ACT, PRE and column commands,
    // for schedulers that combine them with the per-bank terms inline:
    // such a command is rank-legal at `now` iff max(base,
    // Bank::earliest()) <= now (rank state only changes when a command
    // issues, so the FR-FCFS scan reads these once per rank).

    /** Rank part of a column command's earliest cycle. */
    Cycle
    columnEarliestBase(bool is_write) const
    {
        Cycle t = is_write ? nextWr_ : nextRd_;
        return t > busyUntil_ ? t : busyUntil_;
    }

    /** Rank part of an ACT's earliest cycle. */
    Cycle
    actEarliestBase() const
    {
        Cycle t = nextActRank_ > busyUntil_ ? nextActRank_ : busyUntil_;
        if (acts_.full()) {
            Cycle faw = acts_.front() + Cycle(timing_.tFAW);
            t = faw > t ? faw : t;
        }
        return t;
    }

    /** Rank part of a PRE's earliest cycle. */
    Cycle preEarliestBase() const { return busyUntil_; }

    /** Apply `cmd` at `now`; `eff` required for ACT. */
    void issue(const Command &cmd, Cycle now, const EffActTiming *eff);

    /** Checkpoint: rank gates + tFAW window + every bank. */
    void saveState(resilience::SnapshotWriter &w) const;
    void loadState(resilience::SnapshotReader &r);

  private:
    const DramTiming &timing_;
    std::vector<Bank> banks_;

    Cycle nextActRank_ = 0;        ///< tRRD gate.
    Ring<Cycle> acts_{4};          ///< Last up-to-4 ACT cycles (tFAW).
    Cycle nextRd_ = 0;             ///< Column read gate (tCCD/WTR).
    Cycle nextWr_ = 0;             ///< Column write gate (tCCD/RTW).
    Cycle busyUntil_ = 0;          ///< tRFC window after REF.
};

} // namespace ccsim::dram

#endif // CCSIM_DRAM_RANK_HH
