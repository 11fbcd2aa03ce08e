/**
 * @file
 * Chrome trace-event (Perfetto-loadable) export.
 *
 * One TraceEventSink per System collects simulated-time events on one
 * synthetic process, pid 1 ("simulated time"): timestamps are
 * simulated microseconds (CPU cycles / 4000 at the paper's 4 GHz
 * clock) for bank ACT->PRE windows, refresh and core park spans.
 *
 * Load the written file at https://ui.perfetto.dev or
 * chrome://tracing. Only the System's own run writes its sink, so the
 * sink takes no lock; the event cap turns overflow into a drop counter
 * rather than unbounded memory.
 */

#ifndef CCSIM_OBS_TRACE_EVENT_HH
#define CCSIM_OBS_TRACE_EVENT_HH

#include <cstdint>
#include <string>
#include <vector>

namespace ccsim::obs {

/** Synthetic pid for simulated-time events. */
constexpr int kPidSim = 1;

class TraceEventSink
{
  public:
    /**
     * Cap buffered events (2^20 unless set); extra events increment
     * droppedCount().
     */
    void setLimit(std::size_t max_events);

    /**
     * Complete ("X") event on kPidSim: a [ts, ts+dur] span,
     * microseconds.
     */
    void complete(int tid, const std::string &name, const char *cat,
                  double ts_us, double dur_us);

    std::size_t size() const { return events_.size(); }
    std::uint64_t droppedCount() const { return dropped_; }

    /** Whole-trace JSON object ({"traceEvents":[...], ...}). */
    std::string toJson() const;

    /** Atomic write (temp + rename) of toJson() to `path`. */
    void writeJson(const std::string &path) const;

  private:
    struct Event {
        int tid;
        std::string name;
        const char *cat;
        double ts;
        double dur;
    };

    std::vector<Event> events_;
    std::size_t limit_ = std::size_t(1) << 20;
    std::uint64_t dropped_ = 0;
};

} // namespace ccsim::obs

#endif // CCSIM_OBS_TRACE_EVENT_HH
