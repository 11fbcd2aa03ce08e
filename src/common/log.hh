/**
 * @file
 * Error and status reporting, following the gem5 panic()/fatal() split:
 * panic() for internal invariant violations (simulator bugs), fatal() for
 * unrecoverable user/configuration errors, warn()/inform() for status.
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
 *    resilience::SimError with a structured ErrorKind instead, so the
 *    sweep runner can retry transient kinds and bench mains can report
 *    the failure without tearing the process down.
 *  - CCSIM_FATAL remains for unrecoverable setup errors in contexts
 *    where no caller could sensibly continue (e.g. the maxCpuCycles
 *    runaway guard); new input-validation code should prefer SimError.
 */

#ifndef CCSIM_COMMON_LOG_HH
#define CCSIM_COMMON_LOG_HH

#include <atomic>
#include <cstdint>
#include <sstream>
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

/**
 * Severity for the structured logger. The active threshold comes from
 * the CCSIM_LOG_LEVEL environment variable ("error", "warn", "info",
 * "debug", or 0-3; default "info") and can be overridden with
 * setLogLevel(). Messages above the threshold are dropped before
 * formatting.
 */
enum class LogLevel : int {
    Error = 0,
    Warn = 1,
    Info = 2,
    Debug = 3,
};

/** Parse a CCSIM_LOG_LEVEL value; unrecognized strings map to Info. */
LogLevel parseLogLevel(const std::string &s);

/** Active threshold (env-derived unless overridden). */
LogLevel logLevel();

/** Override the threshold (tests / embedding tools). */
void setLogLevel(LogLevel lvl);

/** Would a message at this level be emitted? */
bool logEnabled(LogLevel lvl);

/**
 * Each CCSIM_LOG call site owns one of these (function-local static in
 * the macro): after kLogSiteLimit messages the site goes quiet with a
 * one-time suppression notice, so a warning inside a per-cycle loop
 * cannot flood stderr. Counters keep accumulating while suppressed.
 */
namespace detail {

struct LogSite {
    std::atomic<std::uint64_t> emitted{0};
    std::atomic<std::uint64_t> suppressed{0};
};

constexpr std::uint64_t kLogSiteLimit = 20;

[[noreturn]] void panicImpl(const char *file, int line, const std::string &msg);
[[noreturn]] void fatalImpl(const char *file, int line, const std::string &msg);
void logImpl(LogLevel lvl, const char *component, LogSite &site,
             const std::string &msg);

template <typename... Args>
std::string
format(Args &&...args)
{
    std::ostringstream os;
    (os << ... << args);
    return os.str();
}
} // namespace detail

/**
 * Squelch log output entirely (used by tests). Rate-limit accounting
 * still runs so LogSite counters stay testable.
 */
void setQuiet(bool quiet);

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

/**
 * Structured, rate-limited log statement:
 *   CCSIM_LOG(LogLevel::Warn, "ctrl", "queue full on channel ", ch);
 * emits "[warn] ctrl: queue full on channel 3". Formatting is skipped
 * when the level is filtered; each call site self-limits after
 * detail::kLogSiteLimit messages.
 */
#define CCSIM_LOG(level, component, ...) \
    do { \
        if (::ccsim::logEnabled(level)) { \
            static ::ccsim::detail::LogSite ccsimLogSite_; \
            ::ccsim::detail::logImpl( \
                level, component, ccsimLogSite_, \
                ::ccsim::detail::format(__VA_ARGS__)); \
        } \
    } while (0)

/** Non-fatal warning (level Warn, component "sim"). */
#define CCSIM_WARN(...) \
    CCSIM_LOG(::ccsim::LogLevel::Warn, "sim", __VA_ARGS__)

/** Informational message (level Info, component "sim"). */
#define CCSIM_INFORM(...) \
    CCSIM_LOG(::ccsim::LogLevel::Info, "sim", __VA_ARGS__)

#endif // CCSIM_COMMON_LOG_HH
