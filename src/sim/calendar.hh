/**
 * @file
 * Wake queue and per-run state of the KernelMode::Calendar simulation
 * kernel.
 *
 * The wake queue holds the self-wakes of parked cores: a core that
 * parks on a self-scheduled event posts (cycle, core id) once, and the
 * kernel asks the queue when the next one is due instead of polling
 * every parked core. Controller horizons do not go here: runCalendar
 * asks each controller for its nextEventAt() at every DRAM boundary and
 * at every jump. The traffic is small: a parked core mostly waits on
 * an external completion and posts nothing, so a queue holds at most
 * about a dozen live entries (docs/performance.md, "Wake queue").
 *
 * Entries are lazily invalidated: the queue may deliver a wake whose
 * core has since been woken by other means, and the kernel revalidates
 * against the core on delivery. A stale stop costs one idle iteration
 * and can never skip a real event, because posting only adds entries.
 */

#ifndef CCSIM_SIM_CALENDAR_HH
#define CCSIM_SIM_CALENDAR_HH

#include <algorithm>
#include <functional>
#include <vector>

#include "common/log.hh"
#include "common/types.hh"

namespace ccsim::sim {

/** Binary min-heap of (cycle, core id) wake entries. */
class WakeQueue
{
  public:
    /** Schedule a wake of `core` at cycle `t` (must not be in the past). */
    void
    post(CpuCycle t, int core)
    {
        CCSIM_ASSERT(t >= drainedTo_, "posting a wake into the past");
        heap_.push_back({t, core});
        std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
    }

    /**
     * Deliver (and remove) every entry with cycle <= `now`, in (cycle,
     * core) order. `now` must be non-decreasing across calls. The
     * common case, nothing due, is one compare against the top.
     */
    template <typename Fn>
    void
    drainUpTo(CpuCycle now, Fn &&deliver)
    {
        if (now < heap_.front().t)
            return;
        drainedTo_ = now;
        do {
            std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
            const int core = heap_.back().core;
            heap_.pop_back();
            deliver(core);
        } while (heap_.front().t <= now);
    }

    /**
     * Earliest scheduled cycle, or kNoCycle when empty. After
     * drainUpTo(now) this is strictly greater than `now`: the jump
     * horizon for the calendar kernel.
     */
    CpuCycle nextEventAt() const { return heap_.front().t; }

    /** Scheduled entries. */
    std::size_t size() const { return heap_.size() - 1; }

  private:
    struct Entry {
        CpuCycle t;
        int core;

        bool
        operator>(const Entry &o) const
        {
            return t != o.t ? t > o.t : core > o.core;
        }
    };

    /** Holds a kNoCycle sentinel that is never due, so the top
        always exists and an empty queue reports kNoCycle. */
    std::vector<Entry> heap_{{kNoCycle, 0}};
    /** Cycle of the last drain that delivered anything. */
    CpuCycle drainedTo_ = 0;
};

/**
 * Per-run state of the calendar kernel, owned by System while
 * System::runCalendar() executes. The LLC wake callbacks are bound
 * once at System::build() time; they route through this block (when
 * present) so a completion can move a parked core to the pending-wake
 * list — or directly into the awake set when it fires mid-core-phase
 * for a core the id-ordered walk has not reached yet, matching the
 * per-cycle reference's visit order exactly.
 */
struct CalendarKernelState {
    explicit CalendarKernelState(std::size_t cores)
        : parkedSince(cores, kNoCycle), wakeQueued(cores, 0)
    {
        awake.reserve(cores);
        for (std::size_t i = 0; i < cores; ++i)
            awake.push_back(static_cast<int>(i));
    }

    WakeQueue wakes;
    /** Cycle since which core i's ticks are elided (kNoCycle = awake). */
    std::vector<CpuCycle> parkedSince;
    /** Awake core ids, sorted ascending (the reference tick order). */
    std::vector<int> awake;
    /** Cores to unpark at the next core phase (deduplicated). */
    std::vector<int> pendingWake;
    std::vector<char> wakeQueued;
    CpuCycle now = 0; ///< Cycle the kernel is currently executing.
    bool inCorePhase = false;
    int currentCore = -1;
};

} // namespace ccsim::sim

#endif // CCSIM_SIM_CALENDAR_HH
