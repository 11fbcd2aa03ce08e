/**
 * @file
 * Ramulator-format CPU trace reader, for users with real Pintool
 * traces. Each line is
 *
 *     <num-cpu-inst> <read-addr> [<write-addr>]
 *
 * (decimal or 0x-prefixed hex). A line expands into a read record and,
 * when the third field is present, a write record.
 *
 * Trace files are user input: a missing file, a garbage token, or a
 * truncated stream raises resilience::SimError (TraceIo /
 * MalformedTrace) rather than aborting the process, so sweep runners
 * and bench mains can report the offending file and carry on.
 */

#ifndef CCSIM_WORKLOADS_TRACE_FILE_HH
#define CCSIM_WORKLOADS_TRACE_FILE_HH

#include <fstream>
#include <optional>
#include <string>

#include "cpu/trace.hh"

namespace ccsim::workloads {

class RamulatorTraceReader : public cpu::TraceSource
{
  public:
    /** @throws resilience::SimError{TraceIo} when `path` cannot open. */
    explicit RamulatorTraceReader(const std::string &path);

    /**
     * @throws resilience::SimError{MalformedTrace} on an unparseable
     *         line, resilience::SimError{TraceIo} on a mid-file read
     *         failure.
     */
    bool next(cpu::TraceRecord &record) override;
    void reset() override;

    /** Checkpoint: stream offset + pending write + line count. */
    void saveState(resilience::SnapshotWriter &w) const override;
    void loadState(resilience::SnapshotReader &r) override;

  private:
    std::string path_;
    std::ifstream in_;
    std::optional<cpu::TraceRecord> pendingWrite_;
    std::uint64_t linesParsed_ = 0;
};

} // namespace ccsim::workloads

#endif // CCSIM_WORKLOADS_TRACE_FILE_HH
