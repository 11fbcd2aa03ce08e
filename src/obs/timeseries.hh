/**
 * @file
 * Deterministic interval time-series over registered statistics.
 *
 * Probes are registered once at system build (in a fixed order) and
 * point at live statistic fields; sample(now) appends one row whose
 * values are computed purely from simulated state, so the series is
 * bit-identical across kernels as long as samples are taken at the
 * same simulated cycles from quiescent state (the kernels
 * guarantee both; see docs/observability.md).
 *
 * Three probe kinds:
 *   Delta — counter increase since the previous sample,
 *   Ratio — delta(num)/delta(den) over the interval (hit rates, IPC),
 *   Gauge — instantaneous value via callback (queue depth).
 *
 * Rows and per-probe baselines serialize through checkpoint/restore,
 * so a resumed run continues the series with no gap and no duplicate.
 */

#ifndef CCSIM_OBS_TIMESERIES_HH
#define CCSIM_OBS_TIMESERIES_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "common/types.hh"

namespace ccsim::resilience {
class SnapshotWriter;
class SnapshotReader;
} // namespace ccsim::resilience

namespace ccsim::obs {

class TimeSeries
{
  public:
    using Gauge = std::function<double()>;

    /** Per-interval increase of *src. */
    void addDelta(const std::string &name, const std::uint64_t *src);

    /** Per-interval delta(num)/delta(den); 0 when den did not move. */
    void addRatio(const std::string &name, const std::uint64_t *num,
                  const std::uint64_t *den);

    /** Per-interval delta(*src) / elapsed cycles (e.g. IPC). */
    void addRate(const std::string &name, const std::uint64_t *src);

    /** Instantaneous value at sample time. */
    void addGauge(const std::string &name, Gauge fn);

    /**
     * Re-anchor every delta/ratio baseline to the counters' current
     * values (called right after the warm-up statistics reset so the
     * first post-warm-up interval doesn't see a negative delta).
     */
    void rebase();

    /** Append one row at simulated cycle `now`. */
    void sample(CpuCycle now);

    std::size_t rows() const { return rows_.size(); }
    std::size_t columns() const { return probes_.size(); }
    const std::string &columnName(std::size_t c) const;
    CpuCycle rowCycle(std::size_t r) const { return rows_[r].cycle; }
    double value(std::size_t r, std::size_t c) const;

    /** One JSON object per row: {"cycle":N,"col":v,...}. */
    std::string toJsonl() const;

    /** Atomic write of toJsonl() to `path`. */
    void writeJsonl(const std::string &path) const;

    /** Serialize rows + baselines (probes must already be registered). */
    void saveState(resilience::SnapshotWriter &w) const;

    /** Restore rows + baselines; throws CorruptSnapshot on shape drift. */
    void loadState(resilience::SnapshotReader &r);

  private:
    struct Probe {
        enum class Kind { Delta, Ratio, Rate, Gauge };
        Kind kind;
        std::string name;
        const std::uint64_t *a = nullptr;
        const std::uint64_t *b = nullptr;
        Gauge fn;
        std::uint64_t baseA = 0;
        std::uint64_t baseB = 0;
    };

    struct Row {
        CpuCycle cycle;
        std::vector<double> vals;
    };

    std::vector<Probe> probes_;
    std::vector<Row> rows_;
    /** Cycle of the previous sample (Rate denominators). */
    CpuCycle prevCycle_ = 0;
};

} // namespace ccsim::obs

#endif // CCSIM_OBS_TIMESERIES_HH
