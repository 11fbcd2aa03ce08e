#include "common/log.hh"

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

} // namespace ccsim::detail
