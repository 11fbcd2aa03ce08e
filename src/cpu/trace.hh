/**
 * @file
 * Instruction-trace abstraction for the trace-driven core model.
 *
 * A record is "N compute instructions, then one memory instruction",
 * the same shape as Ramulator CPU traces ("<num-cpu-inst> <addr>
 * [<write-addr>]"). Sources are infinite (generators) or looping (file
 * readers); the core stops at its instruction target.
 */

#ifndef CCSIM_CPU_TRACE_HH
#define CCSIM_CPU_TRACE_HH

#include "common/types.hh"
#include "resilience/error.hh"

namespace ccsim::resilience {
class SnapshotWriter;
class SnapshotReader;
} // namespace ccsim::resilience

namespace ccsim::cpu {

/** One trace step: compute burst followed by one memory access. */
struct TraceRecord {
    std::uint32_t nonMemInsts = 0; ///< Compute instructions first.
    Addr addr = 0;                 ///< Byte address of the memory op.
    bool isWrite = false;
};

/**
 * Snapshot a record field by field at its in-memory offsets, padding
 * zeroed (a raw dump would copy whatever the padding holds); the
 * loader reads both this and the raw dumps of older snapshots.
 */
void saveRecord(resilience::SnapshotWriter &w, const TraceRecord &record);
void loadRecord(resilience::SnapshotReader &r, TraceRecord &record);

class TraceSource
{
  public:
    virtual ~TraceSource() = default;

    /** Produce the next record; false only for finite sources. */
    virtual bool next(TraceRecord &record) = 0;

    /** Restart from the beginning (deterministic sources re-seed). */
    virtual void reset() {}

    /**
     * Checkpoint support. Sources that can serialize their position
     * override both; the default refuses, which makes snapshots of
     * systems driven by such sources fail with a structured error
     * instead of silently resuming from a wrong stream position.
     */
    virtual void
    saveState(resilience::SnapshotWriter &) const
    {
        throw resilience::SimError(
            resilience::ErrorKind::Unsupported,
            "this trace source cannot be checkpointed");
    }

    virtual void
    loadState(resilience::SnapshotReader &)
    {
        throw resilience::SimError(
            resilience::ErrorKind::Unsupported,
            "this trace source cannot be checkpointed");
    }
};

} // namespace ccsim::cpu

#endif // CCSIM_CPU_TRACE_HH
