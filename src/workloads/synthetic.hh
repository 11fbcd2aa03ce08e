/**
 * @file
 * Deterministic synthetic memory-trace generators.
 *
 * Substitute for the paper's SPEC CPU2006 / TPC / STREAM Pintool traces
 * (see DESIGN.md). Each profile is a stationary mixture of components
 * chosen because they directly control the two quantities ChargeCache's
 * benefit depends on — RLTL and memory intensity (RMPKC):
 *
 *  - hot set: a few rows revisited constantly (very high RLTL; what a
 *    128-entry HCRAC captures easily);
 *  - pool: uniform accesses over `poolRows` rows (models high
 *    row-reuse-distance applications like mcf/omnetpp: revisits happen
 *    within 8 ms but far outside a small table's reach);
 *  - streams: sequentially-walked regions with occasional jumps
 *    (STREAM/lbm/bwaves-like; interleaved streams create bank conflicts
 *    that close and re-open rows — the paper's main source of RLTL).
 *
 * Compute gaps between memory instructions are geometric with mean
 * (1/memPerInst - 1), giving bursty, realistic arrival patterns.
 */

#ifndef CCSIM_WORKLOADS_SYNTHETIC_HH
#define CCSIM_WORKLOADS_SYNTHETIC_HH

#include <string>
#include <vector>

#include "common/random.hh"
#include "common/types.hh"
#include "cpu/trace.hh"

namespace ccsim::workloads {

/** One sequential-stream component. */
struct StreamSpec {
    double weight = 0.0;   ///< Relative access share.
    double seqProb = 0.95; ///< P(advance by one line) vs random jump.
    std::uint64_t regionLines = 1 << 20; ///< Region size in lines.
};

struct SyntheticProfile {
    std::string name;
    double memPerInst = 0.1;    ///< Memory instructions per instruction.
    double writeFraction = 0.3; ///< Stores among memory instructions.
    std::uint64_t hotRows = 0;  ///< Hot row-set size.
    double hotWeight = 0.0;
    std::uint64_t poolRows = 0; ///< Uniform row-pool size.
    double poolWeight = 0.0;
    std::vector<StreamSpec> streams;
    int linesPerRow = 128; ///< 8 KB rows of 64 B lines.

    /**
     * Virtual-memory working set in pages (vm subsystem). 0 means
     * "derive from footprintLines()"; profiles or benches can override
     * to model a sparser page footprint than the line footprint
     * implies (e.g. pointer-chasing over scattered pages).
     */
    std::uint64_t vmPages = 0;

    /** Total footprint of the generator in lines. */
    std::uint64_t footprintLines() const;

    /**
     * Working-set page count at `page_bytes` granularity: the explicit
     * `vmPages` override when set, else the page-rounded line
     * footprint. Sizes TLB-reach and allocator-pressure expectations
     * in the VM benches.
     */
    std::uint64_t footprintPages(int page_bytes) const;
};

class SyntheticTrace : public cpu::TraceSource
{
  public:
    /**
     * @param base_line this core's base line address (keeps cores in
     *        disjoint regions as in the paper's multi-programmed runs).
     * @param capacity_lines wraparound bound (DRAM size in lines).
     */
    SyntheticTrace(const SyntheticProfile &profile, std::uint64_t seed,
                   Addr base_line, Addr capacity_lines);

    bool next(cpu::TraceRecord &record) override;
    void reset() override;

    /** Checkpoint: the RNG stream and the stream cursors are the only
        mutable state; everything else derives from the profile. */
    void saveState(resilience::SnapshotWriter &w) const override;
    void loadState(resilience::SnapshotReader &r) override;

    const SyntheticProfile &profile() const { return profile_; }

  private:
    Addr pickLine();

    SyntheticProfile profile_;
    std::uint64_t seed_;
    Addr baseLine_;
    Addr capacityLines_;
    double gapMean_;

    Rng rng_;
    std::vector<double> cumWeight_; ///< hot, pool, then streams.
    std::vector<Addr> streamBase_;  ///< In generator-local lines.
    std::vector<Addr> streamPos_;
    Addr hotBase_ = 0;
    Addr poolBase_ = 0;
};

} // namespace ccsim::workloads

#endif // CCSIM_WORKLOADS_SYNTHETIC_HH
