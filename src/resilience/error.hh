/**
 * @file
 * Structured simulator errors.
 *
 * SimError is the recoverable counterpart of CCSIM_PANIC/CCSIM_FATAL:
 * anything caused by user input (bad config, malformed trace files,
 * unreadable snapshots), by the environment (I/O, allocation), or by a
 * deliberately injected fault is thrown as a SimError so callers — the
 * sweep runner, bench mains — can catch it, retry, or report it
 * without tearing the process down.
 * Invariant violations stay CCSIM_ASSERT/CCSIM_PANIC (see
 * common/log.hh for the contract).
 *
 * This header is dependency-free on purpose: every layer, including
 * common/ and workloads/, may throw SimError without pulling in the
 * rest of the resilience subsystem.
 */

#ifndef CCSIM_RESILIENCE_ERROR_HH
#define CCSIM_RESILIENCE_ERROR_HH

#include <stdexcept>
#include <string>

namespace ccsim::resilience {

/** What went wrong, at the granularity recovery policy needs. */
enum class ErrorKind {
    InvalidConfig,     ///< User-supplied configuration rejected.
    MalformedTrace,    ///< Trace file contents unparseable.
    TraceIo,           ///< Trace file missing, unreadable, or truncated.
    IoError,           ///< Snapshot/result file I/O failed.
    CorruptSnapshot,   ///< Snapshot failed CRC/version/hash validation.
    Interrupted,       ///< Stop flag (SIGINT/SIGTERM) honored mid-run.
    ResourceExhausted, ///< Allocation failure (transient, retryable).
    Unsupported,       ///< Operation not available on this object.
};

inline const char *
errorKindName(ErrorKind kind)
{
    switch (kind) {
      case ErrorKind::InvalidConfig:     return "InvalidConfig";
      case ErrorKind::MalformedTrace:    return "MalformedTrace";
      case ErrorKind::TraceIo:           return "TraceIo";
      case ErrorKind::IoError:           return "IoError";
      case ErrorKind::CorruptSnapshot:   return "CorruptSnapshot";
      case ErrorKind::Interrupted:       return "Interrupted";
      case ErrorKind::ResourceExhausted: return "ResourceExhausted";
      case ErrorKind::Unsupported:       return "Unsupported";
    }
    return "Unknown";
}

class SimError : public std::runtime_error
{
  public:
    SimError(ErrorKind kind, const std::string &message)
        : std::runtime_error(std::string(errorKindName(kind)) + ": " +
                             message),
          kind_(kind)
    {}

    ErrorKind kind() const { return kind_; }

    /**
     * Whether a sweep runner may sensibly retry the failed point:
     * transient resource/I-O conditions are; bad input and corrupted
     * state are not.
     */
    bool
    retryable() const
    {
        return kind_ == ErrorKind::ResourceExhausted ||
               kind_ == ErrorKind::IoError;
    }

  private:
    ErrorKind kind_;
};

} // namespace ccsim::resilience

#endif // CCSIM_RESILIENCE_ERROR_HH
