/**
 * @file
 * Snapshot container header and run-interruption plumbing.
 *
 * A snapshot file is
 *
 *     magic "CCSNAP01" | format u32 | config-hash u64 | sections...
 *
 * where the sections are sim::System state (see system.cc and
 * docs/resilience.md). The config hash covers the workload names and
 * every sim::SimConfig field — controller, LLC, core, VM, ChargeCache
 * table and timings, NUAT bins, seeds, instruction targets — except
 * three: it deliberately EXCLUDES the execution strategy (kernel mode,
 * paranoia), because both kernels produce bit-identical schedules, so
 * a snapshot taken under Calendar may be resumed under PerCycle,
 * paranoid or not, and back; and telemetry (SimConfig::obs), which the
 * snapshot's "obs" section checks instead.
 *
 * The stop flag is the SIGINT/SIGTERM half of graceful shutdown:
 * installStopSignalHandler() arms an async-signal-safe flag that
 * System's kernels poll at watchdog cadence; when raised, the run
 * invokes its checkpoint hook one final time (the "final snapshot")
 * and unwinds with SimError{Interrupted}. SIGKILL cannot be caught —
 * surviving it is the job of periodic autosave.
 */

#ifndef CCSIM_RESILIENCE_CHECKPOINT_HH
#define CCSIM_RESILIENCE_CHECKPOINT_HH

#include <cstdint>

namespace ccsim::resilience {

class SnapshotWriter;
class SnapshotReader;

/** Bump when the section container or file header layout changes. */
constexpr std::uint32_t kSnapshotFormat = 1;

/** Write the snapshot file header. */
void writeSnapshotHeader(SnapshotWriter &w, std::uint64_t config_hash);

/**
 * Validate the snapshot file header; throws SimError{CorruptSnapshot}
 * on a bad magic/format and when the stored config hash differs from
 * `config_hash`.
 */
void readSnapshotHeader(SnapshotReader &r, std::uint64_t config_hash);

/** Arm the SIGINT/SIGTERM stop flag (idempotent). */
void installStopSignalHandler();

/** Whether a stop signal has been received since the handler was armed. */
bool stopRequested();

/** Clear the stop flag (tests; between runs of one process). */
void clearStopFlag();

/** Raise the stop flag programmatically (tests). */
void requestStop();

} // namespace ccsim::resilience

#endif // CCSIM_RESILIENCE_CHECKPOINT_HH
