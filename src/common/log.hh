/**
 * @file
 * Error reporting, following the gem5 panic()/fatal() split: panic()
 * for internal invariant violations (simulator bugs), fatal() for
 * unrecoverable user/configuration errors.
 *
 * Error-contract audit (see also src/resilience/error.hh):
 *
 *  - CCSIM_PANIC / CCSIM_ASSERT are for *invariants* — conditions that
 *    can only be false if the simulator itself is buggy (DRAM protocol
 *    violations, impossible component state, internal bookkeeping
 *    mismatches). They throw PanicError with
 *    source location; no caller is expected to recover.
 *  - Anything triggered by *input* — user configuration, environment
 *    variables, trace files, snapshot files, the filesystem — throws
 *    resilience::SimError with a structured ErrorKind instead, so
 *    bench mains can report the failure without tearing the process
 *    down.
 *  - CCSIM_FATAL remains for unrecoverable setup errors in contexts
 *    where no caller could sensibly continue (e.g. the kMaxCpuCycles
 *    runaway guard); new input-validation code should prefer SimError.
 */

#ifndef CCSIM_COMMON_LOG_HH
#define CCSIM_COMMON_LOG_HH

#include <sstream>
#include <stdexcept>
#include <string>

namespace ccsim {

/** Exception thrown by panic(); never ever expected during correct use. */
struct PanicError : std::logic_error {
    using std::logic_error::logic_error;
};

/** Exception thrown by fatal(); a user/configuration error. */
struct FatalError : std::runtime_error {
    using std::runtime_error::runtime_error;
};

namespace detail {

[[noreturn]] void panicImpl(const char *file, int line, const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line, const std::string &msg);

template <typename... Args>
std::string
format(Args &&...args)
{
    std::ostringstream os;
    (os << ... << args);
    return os.str();
}
} // namespace detail

} // namespace ccsim

/** Internal invariant violated: throw PanicError with location info. */
#define CCSIM_PANIC(...) \
    ::ccsim::detail::panicImpl(__FILE__, __LINE__, \
                               ::ccsim::detail::format(__VA_ARGS__))

/** Unrecoverable user error: throw FatalError with location info. */
#define CCSIM_FATAL(...) \
    ::ccsim::detail::fatalImpl(__FILE__, __LINE__, \
                               ::ccsim::detail::format(__VA_ARGS__))

/** Assert an invariant; on failure panic with the stringified condition. */
#define CCSIM_ASSERT(cond, ...) \
    do { \
        if (!(cond)) { \
            CCSIM_PANIC("assertion '", #cond, "' failed. ", \
                        ::ccsim::detail::format(__VA_ARGS__)); \
        } \
    } while (0)

#endif // CCSIM_COMMON_LOG_HH
