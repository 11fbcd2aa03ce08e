/**
 * @file
 * Charge-aware DRAM timing model (the evaluation-facing half of the
 * paper's SPICE study).
 *
 * Calibrated to the published anchors of Table 2:
 *
 *     caching duration   tRCD      tRAS
 *     baseline (64 ms)   13.75 ns  35 ns
 *     1 ms               8 ns      22 ns
 *     16 ms              11 ns     28 ns
 *
 * The 4 ms row (9 ns / 24 ns) is *predicted* by the fit and checked in
 * tests — a genuine cross-validation of the model. Cycle conversion
 * applies a configurable guard band (default +2 tRAS cycles), which
 * reconciles Table 2's nanosecond values with the paper's stated
 * "4/8 cycle reduction" operating point at 1 ms (tRCD 11->7,
 * tRAS 28->20 at 800 MHz).
 */

#ifndef CCSIM_CIRCUIT_TIMING_MODEL_HH
#define CCSIM_CIRCUIT_TIMING_MODEL_HH

#include "circuit/fit.hh"
#include "dram/spec.hh"

namespace ccsim::circuit {

/** Reduced timings for one caching duration. */
struct DerivedTimings {
    double trcdNs = 0.0;
    double trasNs = 0.0;
    int trcdCycles = 0;
    int trasCycles = 0;
};

class TimingModel
{
  public:
    struct Anchors {
        // tRCD(age): 1 ms, 16 ms, 64 ms(baseline).
        double trcd1 = 8.0, trcd16 = 11.0, trcd64 = 13.75;
        // tRAS(age).
        double tras1 = 22.0, tras16 = 28.0, tras64 = 35.0;
    };

    /** Calibrate to the paper's Table 2 anchors. */
    TimingModel();

    explicit TimingModel(const Anchors &anchors,
                         int tras_guard_cycles = 2);

    /** Worst-case tRCD for a cell `age_ms` after its last precharge. */
    double trcdNs(double age_ms) const { return trcdFit_.eval(age_ms); }

    /** Worst-case tRAS for a cell of the given age. */
    double trasNs(double age_ms) const { return trasFit_.eval(age_ms); }

    /**
     * Timing pair a controller may use for rows cached up to
     * `duration_ms` (i.e. worst-case age = duration), converted to
     * cycles of `timing` and clamped to the standard values.
     */
    DerivedTimings timingsForDuration(double duration_ms,
                                      const dram::DramTiming &timing) const;

  private:
    StretchedFit trcdFit_;
    StretchedFit trasFit_;
    int trasGuardCycles_;
};

} // namespace ccsim::circuit

#endif // CCSIM_CIRCUIT_TIMING_MODEL_HH
