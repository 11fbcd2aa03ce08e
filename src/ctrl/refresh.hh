/**
 * @file
 * Refresh scheduling and per-row refresh recency.
 *
 * Issues an all-bank REF per rank every tREFI; each REF advances a
 * sequential row-group pointer so the whole bank is covered once per
 * tREFW (8 rows per REF in the paper's DDR3 configuration). The
 * scheduler also implements chargecache::RefreshInfo so NUAT can query
 * "when was this row last refreshed" — including the pre-simulation
 * steady state, which is staggered so row-refresh phase has no
 * correlation with application start (the property Section 3 of the
 * paper leans on).
 */

#ifndef CCSIM_CTRL_REFRESH_HH
#define CCSIM_CTRL_REFRESH_HH

#include <vector>

#include "chargecache/providers.hh"
#include "common/types.hh"
#include "dram/spec.hh"

namespace ccsim::resilience {
class SnapshotWriter;
class SnapshotReader;
} // namespace ccsim::resilience

namespace ccsim::ctrl {

class RefreshScheduler : public chargecache::RefreshInfo
{
  public:
    explicit RefreshScheduler(const dram::DramSpec &spec);

    /** True when rank `rank` owes a REF at `now` (gates new ACTs). */
    bool
    due(int rank, Cycle now) const
    {
        return now >= nextDue_[rank];
    }

    /** Record that REF was issued to `rank` at `cycle`. */
    void onRefIssued(int rank, Cycle cycle);

    /**
     * Earliest cycle at which any rank next owes a REF — the refresh
     * horizon for the calendar kernel. Always finite: refresh is the
     * periodic heartbeat that bounds every skip. Cached (updated on
     * every REF issue) so the controller's horizon query is O(1)
     * instead of a per-rank scan.
     */
    Cycle nextEventAt() const { return cachedNext_; }

    /** Rows refreshed by each REF command. */
    int rowsPerRef() const { return rowsPerRef_; }

    // chargecache::RefreshInfo
    std::int64_t lastRefreshCycle(int rank, int bank, int row,
                                  Cycle now) const override;

    /** Checkpoint: due times, counts, and per-group refresh recency
        (startGroup_ is seed-deterministic but saved for safety). */
    void saveState(resilience::SnapshotWriter &w) const;
    void loadState(resilience::SnapshotReader &r);

  private:
    dram::DramSpec spec_;
    int rowsPerRef_;
    int groups_; ///< Row groups per refresh window.
    /**
     * Group covered by a rank's first REF. Offset (and staggered per
     * rank) so the refresh schedule has no correlation with where
     * applications place their data — the property Section 3 of the
     * paper relies on.
     */
    std::vector<int> startGroup_;
    std::vector<Cycle> nextDue_;         ///< Per rank.
    Cycle cachedNext_ = kNoCycle;        ///< min(nextDue_), kept current.
    std::vector<std::uint64_t> refCount_; ///< Per rank.
    /** lastRef_[rank][group]: cycle of the group's most recent REF. */
    std::vector<std::vector<std::int64_t>> lastRef_;
};

} // namespace ccsim::ctrl

#endif // CCSIM_CTRL_REFRESH_HH
