#include "common/log.hh"

#include <iostream>
#include <mutex>

namespace ccsim::detail {

void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::ostringstream os;
    os << "panic: " << msg << " @ " << file << ":" << line;
    throw PanicError(os.str());
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    std::ostringstream os;
    os << "fatal: " << msg << " @ " << file << ":" << line;
    throw FatalError(os.str());
}

void
warnImpl(const std::string &msg)
{
    // Serializes stderr writes so concurrent sweep points log
    // line-atomically.
    static std::mutex m;
    std::lock_guard<std::mutex> lock(m);
    std::cerr << "[warn] sim: " << msg << "\n";
}

} // namespace ccsim::detail
