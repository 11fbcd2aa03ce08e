#include "obs/trace_event.hh"

#include <iomanip>
#include <sstream>

#include "resilience/io.hh"

namespace ccsim::obs {

namespace {

void
appendEscaped(std::ostream &os, const std::string &s)
{
    for (char c : s) {
        switch (c) {
          case '"':
            os << "\\\"";
            break;
          case '\\':
            os << "\\\\";
            break;
          case '\n':
            os << "\\n";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20)
                os << ' ';
            else
                os << c;
        }
    }
}

} // namespace

void
TraceEventSink::setLimit(std::size_t max_events)
{
    limit_ = max_events;
}

void
TraceEventSink::complete(int tid, const std::string &name, const char *cat,
                         double ts_us, double dur_us)
{
    if (events_.size() >= limit_) {
        ++dropped_;
        return;
    }
    events_.push_back(Event{tid, name, cat, ts_us, dur_us});
}

std::string
TraceEventSink::toJson() const
{
    std::ostringstream os;
    os << std::setprecision(15);
    os << "{\"traceEvents\":[\n";
    os << "{\"ph\":\"M\",\"pid\":" << kPidSim
       << ",\"tid\":0,\"name\":\"process_name\","
          "\"args\":{\"name\":\"simulated time\"}}";
    for (const Event &e : events_) {
        os << ",\n{\"ph\":\"X\",\"pid\":" << kPidSim
           << ",\"tid\":" << e.tid << ",\"name\":\"";
        appendEscaped(os, e.name);
        os << "\",\"cat\":\"" << e.cat << "\",\"ts\":" << e.ts
           << ",\"dur\":" << e.dur << "}";
    }
    os << "\n],\"displayTimeUnit\":\"ms\",\"droppedEvents\":" << dropped_
       << "}\n";
    return os.str();
}

void
TraceEventSink::writeJson(const std::string &path) const
{
    resilience::atomicWriteFile(path, toJson());
}

} // namespace ccsim::obs
