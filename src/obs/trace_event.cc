#include "obs/trace_event.hh"

#include <chrono>
#include <functional>
#include <iomanip>
#include <sstream>
#include <thread>

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
    std::lock_guard<std::mutex> lock(mu_);
    limit_ = max_events;
}

void
TraceEventSink::record(Event &&e)
{
    std::lock_guard<std::mutex> lock(mu_);
    if (events_.size() >= limit_) {
        ++dropped_;
        return;
    }
    events_.push_back(std::move(e));
}

void
TraceEventSink::complete(int pid, int tid, const std::string &name,
                         const char *cat, double ts_us, double dur_us)
{
    record(Event{'X', pid, tid, name, cat, ts_us, dur_us});
}

void
TraceEventSink::instant(int pid, int tid, const std::string &name,
                        const char *cat, double ts_us)
{
    record(Event{'i', pid, tid, name, cat, ts_us, 0.0});
}

std::size_t
TraceEventSink::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return events_.size();
}

std::uint64_t
TraceEventSink::droppedCount() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return dropped_;
}

void
TraceEventSink::clear()
{
    std::lock_guard<std::mutex> lock(mu_);
    events_.clear();
    dropped_ = 0;
}

std::string
TraceEventSink::toJson() const
{
    std::lock_guard<std::mutex> lock(mu_);
    std::ostringstream os;
    os << std::setprecision(15);
    os << "{\"traceEvents\":[\n";
    os << "{\"ph\":\"M\",\"pid\":" << kPidSim
       << ",\"tid\":0,\"name\":\"process_name\","
          "\"args\":{\"name\":\"simulated time\"}},\n";
    os << "{\"ph\":\"M\",\"pid\":" << kPidHost
       << ",\"tid\":0,\"name\":\"process_name\","
          "\"args\":{\"name\":\"host wall-clock\"}}";
    for (const Event &e : events_) {
        os << ",\n{\"ph\":\"" << e.ph << "\",\"pid\":" << e.pid
           << ",\"tid\":" << e.tid << ",\"name\":\"";
        appendEscaped(os, e.name);
        os << "\",\"cat\":\"" << e.cat << "\",\"ts\":" << e.ts;
        if (e.ph == 'X')
            os << ",\"dur\":" << e.dur;
        if (e.ph == 'i')
            os << ",\"s\":\"t\"";
        os << "}";
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

HostTracer::HostTracer()
{
    epochNs_ = std::chrono::duration_cast<std::chrono::nanoseconds>(
                   std::chrono::steady_clock::now().time_since_epoch())
                   .count();
}

HostTracer &
HostTracer::instance()
{
    static HostTracer tracer;
    return tracer;
}

void
HostTracer::attach(TraceEventSink *sink)
{
    sink_.store(sink, std::memory_order_release);
}

void
HostTracer::detach()
{
    sink_.store(nullptr, std::memory_order_release);
}

double
HostTracer::nowUs() const
{
    std::uint64_t ns =
        std::chrono::duration_cast<std::chrono::nanoseconds>(
            std::chrono::steady_clock::now().time_since_epoch())
            .count();
    return double(ns - epochNs_) / 1e3;
}

int
HostTracer::currentTid()
{
    std::uint64_t h =
        std::hash<std::thread::id>{}(std::this_thread::get_id());
    std::lock_guard<std::mutex> lock(tidMu_);
    for (std::size_t i = 0; i < tids_.size(); ++i) {
        if (tids_[i] == h)
            return int(i);
    }
    tids_.push_back(h);
    return int(tids_.size() - 1);
}

void
HostTracer::span(const std::string &name, const char *cat, double t0_us,
                 double t1_us)
{
    TraceEventSink *sink = sink_.load(std::memory_order_acquire);
    if (!sink)
        return;
    sink->complete(kPidHost, currentTid(), name, cat, t0_us,
                   t1_us - t0_us);
}

} // namespace ccsim::obs
