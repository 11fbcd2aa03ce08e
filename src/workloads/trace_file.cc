#include "workloads/trace_file.hh"

#include <sstream>

#include "resilience/error.hh"
#include "resilience/serial.hh"

namespace ccsim::workloads {

using resilience::ErrorKind;
using resilience::SimError;

namespace {

/**
 * Parse one address token (decimal or 0x-hex). std::stoull throws raw
 * std::invalid_argument / std::out_of_range on garbage; surface a
 * structured error naming the token instead.
 */
std::uint64_t
parseAddr(const std::string &token, const std::string &line,
          const std::string &path)
{
    std::size_t used = 0;
    std::uint64_t value = 0;
    try {
        value = std::stoull(token, &used, 0);
    } catch (const std::exception &) {
        used = 0;
    }
    if (used != token.size())
        throw SimError(ErrorKind::MalformedTrace,
                       "bad address token '" + token + "' in line '" +
                           line + "' of " + path);
    return value;
}

} // namespace

RamulatorTraceReader::RamulatorTraceReader(const std::string &path)
    : path_(path), in_(path)
{
    if (!in_)
        throw SimError(ErrorKind::TraceIo,
                       "cannot open trace file '" + path + "'");
}

void
RamulatorTraceReader::reset()
{
    in_.clear();
    in_.seekg(0);
    pendingWrite_.reset();
}

bool
RamulatorTraceReader::next(cpu::TraceRecord &record)
{
    if (pendingWrite_) {
        record = *pendingWrite_;
        pendingWrite_.reset();
        return true;
    }
    std::string line;
    while (std::getline(in_, line)) {
        if (line.empty() || line[0] == '#')
            continue;
        std::istringstream ss(line);
        std::uint64_t gap = 0;
        std::string rd, wr;
        if (!(ss >> gap >> rd))
            throw SimError(ErrorKind::MalformedTrace,
                           "malformed trace line '" + line + "' in " +
                               path_);
        ss >> wr;
        ++linesParsed_;
        record.nonMemInsts = static_cast<std::uint32_t>(gap);
        record.addr = parseAddr(rd, line, path_);
        record.isWrite = false;
        if (!wr.empty()) {
            cpu::TraceRecord w;
            w.nonMemInsts = 0;
            w.addr = parseAddr(wr, line, path_);
            w.isWrite = true;
            pendingWrite_ = w;
        }
        return true;
    }
    if (in_.bad())
        throw SimError(ErrorKind::TraceIo,
                       "read error in trace file '" + path_ + "'");
    return false;
}

void
RamulatorTraceReader::saveState(resilience::SnapshotWriter &w) const
{
    // tellg() needs a non-const stream handle; the reader's logical
    // state is (offset-or-eof, pending write, line count).
    auto &in = const_cast<std::ifstream &>(in_);
    bool eof = in.eof();
    std::int64_t pos = eof ? -1 : static_cast<std::int64_t>(in.tellg());
    w.put(pos);
    w.put(pendingWrite_.has_value());
    cpu::saveRecord(w, pendingWrite_ ? *pendingWrite_ : cpu::TraceRecord());
    w.put(linesParsed_);
}

void
RamulatorTraceReader::loadState(resilience::SnapshotReader &r)
{
    std::int64_t pos = r.get<std::int64_t>();
    bool has_pending = r.get<bool>();
    cpu::TraceRecord pending;
    cpu::loadRecord(r, pending);
    r.get(linesParsed_);
    in_.clear();
    if (pos < 0)
        in_.seekg(0, std::ios::end);
    else
        in_.seekg(static_cast<std::streamoff>(pos));
    if (!in_)
        throw SimError(ErrorKind::TraceIo,
                       "cannot seek trace file '" + path_ +
                           "' to checkpointed offset");
    pendingWrite_.reset();
    if (has_pending)
        pendingWrite_ = pending;
    if (pos < 0)
        in_.setstate(std::ios::eofbit);
}

} // namespace ccsim::workloads
