/**
 * @file
 * Deterministic fault injection.
 *
 * A FaultConfig (sim::SimConfig::faults) with a non-zero seed makes
 * System::build throw SimError{ResourceExhausted}, which exercises the
 * sweep runner's retry/backoff. The decision never depends on
 * wall-clock or thread timing, so the recovery path is reproducible in
 * CI, and the simulation is untouched when seed == 0.
 *
 * Trace-reader truncation is injected directly through the readers'
 * injectTruncateAfter() hooks (workloads/trace_file.hh,
 * trace/format.hh), not through a FaultConfig.
 */

#ifndef CCSIM_RESILIENCE_FAULT_HH
#define CCSIM_RESILIENCE_FAULT_HH

#include <cstdint>

namespace ccsim::resilience {

/** Declarative fault selection (lives in SimConfig). */
struct FaultConfig {
    /** 0 disables injection entirely. */
    std::uint64_t seed = 0;

    bool enabled() const { return seed != 0; }
};

} // namespace ccsim::resilience

#endif // CCSIM_RESILIENCE_FAULT_HH
