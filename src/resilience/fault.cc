#include "resilience/fault.hh"

#include <cstdlib>
#include <string>

#include "resilience/error.hh"

namespace ccsim::resilience {

void
applyEnvFaults(FaultConfig &cfg)
{
    auto env = [](const char *name) -> const char * {
        const char *v = std::getenv(name);
        return v && *v ? v : nullptr;
    };
    // The seed parse validates the end pointer: strtoull with a nullptr
    // end silently reads garbage like "abc" as 0, which turns a typo'd
    // fault spec into "no fault injected" — the one failure mode a
    // fault harness must not have.
    if (const char *v = env("CCSIM_FAULT_SEED")) {
        char *end = nullptr;
        auto parsed = std::strtoull(v, &end, 10);
        if (end == v || *end != '\0')
            throw SimError(ErrorKind::InvalidConfig,
                           std::string("CCSIM_FAULT_SEED='") + v +
                               "' is not an unsigned integer");
        cfg.seed = parsed;
    }
    if (const char *v = env("CCSIM_FAULT_KIND")) {
        std::string k = v;
        if (k == "alloc-fail")
            cfg.kind = FaultKind::AllocFail;
        else if (k == "none")
            cfg.kind = FaultKind::None;
        else
            throw SimError(ErrorKind::InvalidConfig,
                           "CCSIM_FAULT_KIND='" + k + "' is not a fault");
    }
}

bool
injectsAllocFailure(const FaultConfig &cfg)
{
    return cfg.enabled() && (cfg.kind == FaultKind::AllocFail ||
                             cfg.kind == FaultKind::None);
}

} // namespace ccsim::resilience
