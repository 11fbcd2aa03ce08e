/**
 * @file
 * Deterministic fault injection.
 *
 * A FaultConfig (sim::SimConfig::faults, env-overridable via
 * CCSIM_FAULT_SEED / CCSIM_FAULT_KIND) names one fault to inject into a
 * run:
 *
 *  - AllocFail: System::build throws SimError{ResourceExhausted}
 *               (exercises sweep-runner retry/backoff).
 *
 * The decision never depends on wall-clock or thread timing, so the
 * recovery path is reproducible in CI, and the simulation is untouched
 * when seed == 0.
 *
 * Trace-reader truncation is injected directly through the readers'
 * injectTruncateAfter() hooks (workloads/trace_file.hh,
 * trace/format.hh), not through a FaultConfig.
 */

#ifndef CCSIM_RESILIENCE_FAULT_HH
#define CCSIM_RESILIENCE_FAULT_HH

#include <cstdint>

namespace ccsim::resilience {

enum class FaultKind : std::uint8_t {
    None = 0,
    AllocFail,
};

/** Declarative fault selection (lives in SimConfig). */
struct FaultConfig {
    /** 0 disables injection entirely. */
    std::uint64_t seed = 0;
    /** None + seed != 0 selects AllocFail, the only kind. */
    FaultKind kind = FaultKind::None;

    bool enabled() const { return seed != 0; }
};

/** Apply CCSIM_FAULT_* environment overrides onto `cfg`. */
void applyEnvFaults(FaultConfig &cfg);

/** True when `cfg` injects an allocation failure into System::build. */
bool injectsAllocFailure(const FaultConfig &cfg);

} // namespace ccsim::resilience

#endif // CCSIM_RESILIENCE_FAULT_HH
