/**
 * @file
 * Row-Level Temporal Locality (RLTL) measurement (Section 3 of the
 * paper).
 *
 * t-RLTL = fraction of row activations that occur within time t after
 * the previous *precharge* of the same row. The tracker also measures
 * the fraction of activations within t of the row's last *refresh*,
 * which is the quantity NUAT exploits (Figure 3's second series).
 */

#ifndef CCSIM_CTRL_RLTL_HH
#define CCSIM_CTRL_RLTL_HH

#include <unordered_map>
#include <vector>

#include "chargecache/providers.hh"
#include "common/types.hh"
#include "dram/command.hh"

namespace ccsim::resilience {
class SnapshotWriter;
class SnapshotReader;
} // namespace ccsim::resilience

namespace ccsim::ctrl {

class RltlTracker
{
  public:
    /**
     * @param thresholds_cycles RLTL windows t, in controller cycles,
     *        ascending.
     * @param refresh_threshold_cycles window for the after-refresh
     *        metric (8 ms in the paper).
     * @param refresh source of per-row refresh recency (may be null to
     *        disable the refresh metric).
     */
    RltlTracker(std::vector<Cycle> thresholds_cycles,
                Cycle refresh_threshold_cycles,
                const chargecache::RefreshInfo *refresh);

    /** Observe an ACT. */
    void onActivate(const dram::DramAddr &addr, Cycle now);

    /** Observe a (possibly auto-) precharge of `row`. */
    void onPrecharge(const dram::DramAddr &addr, int row, Cycle now);

    /** Reset counters (end of warm-up), keeping last-precharge state. */
    void resetStats();

    std::uint64_t activations() const { return activations_; }

    /** Fraction of ACTs within thresholds_cycles[i] of the last PRE. */
    double rltl(size_t threshold_idx) const;

    /** Fraction of ACTs within the refresh window of the last REF. */
    double afterRefreshFraction() const;

    /** Checkpoint: counters + last-precharge map (lookup-only; dumped
        key-sorted so snapshots are byte-deterministic). */
    void saveState(resilience::SnapshotWriter &w) const;
    void loadState(resilience::SnapshotReader &r);

  private:
    std::vector<Cycle> thresholds_;
    Cycle refreshThreshold_;
    const chargecache::RefreshInfo *refresh_;

    std::unordered_map<std::uint64_t, Cycle> lastPre_;
    std::uint64_t activations_ = 0;
    std::vector<std::uint64_t> withinThreshold_;
    std::uint64_t withinRefresh_ = 0;
};

} // namespace ccsim::ctrl

#endif // CCSIM_CTRL_RLTL_HH
