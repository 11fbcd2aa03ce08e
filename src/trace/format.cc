#include "trace/format.hh"

#include <unistd.h>

#include <cstdio>
#include <cstring>

#include "resilience/serial.hh"

namespace ccsim::trace {

using resilience::ErrorKind;
using resilience::SimError;

namespace {

/** Zigzag encode a signed delta into an unsigned varint payload. */
std::uint64_t
zigzag(std::int64_t v)
{
    return (static_cast<std::uint64_t>(v) << 1) ^
           static_cast<std::uint64_t>(v >> 63);
}

std::int64_t
unzigzag(std::uint64_t v)
{
    return static_cast<std::int64_t>(v >> 1) ^
           -static_cast<std::int64_t>(v & 1);
}

/** Wire block header: kind u8 | recordCount u32 | payloadBytes u32. */
constexpr std::size_t kBlockHdrBytes = 9;

struct BlockHdr {
    std::uint8_t kind = 0;
    std::uint32_t recordCount = 0;
    std::uint32_t payloadBytes = 0;
};

void
packHdr(const BlockHdr &h, std::uint8_t out[kBlockHdrBytes])
{
    out[0] = h.kind;
    std::memcpy(out + 1, &h.recordCount, 4);
    std::memcpy(out + 5, &h.payloadBytes, 4);
}

BlockHdr
unpackHdr(const std::uint8_t in[kBlockHdrBytes])
{
    BlockHdr h;
    h.kind = in[0];
    std::memcpy(&h.recordCount, in + 1, 4);
    std::memcpy(&h.payloadBytes, in + 5, 4);
    return h;
}

/** What the block header at the stream position says. */
enum class Peek {
    Records,   ///< A records block within the payload cap.
    End,       ///< The end block.
    Short,     ///< EOF inside the header.
    ReadError, ///< The read failed for another reason.
    BadKind,
    Oversized,
    Empty,     ///< A records block claiming no records.
};

/** Read the next block header into `raw` and `h` and classify it. */
Peek
peekHeader(std::istream &in, std::uint8_t raw[kBlockHdrBytes], BlockHdr &h)
{
    in.read(reinterpret_cast<char *>(raw), kBlockHdrBytes);
    if (in.gcount() != static_cast<std::streamsize>(kBlockHdrBytes))
        return in.eof() ? Peek::Short : Peek::ReadError;
    h = unpackHdr(raw);
    if (h.kind == kBlockEnd)
        return Peek::End;
    if (h.kind != kBlockRecords)
        return Peek::BadKind;
    if (h.payloadBytes > kMaxBlockPayload)
        return Peek::Oversized;
    if (h.recordCount == 0)
        return Peek::Empty;
    return Peek::Records;
}

/**
 * One varint from p[pos..n), advancing pos. Returns nullptr, or why
 * the bytes do not decode.
 */
const char *
readVarint(const std::uint8_t *p, std::size_t n, std::size_t &pos,
           std::uint64_t &v)
{
    v = 0;
    for (int shift = 0;; shift += 7) {
        if (pos >= n)
            return "record varint runs past block payload";
        const std::uint8_t b = p[pos++];
        // Bit 63 is the last payload bit that fits.
        if ((shift == 63 && (b & 0x7e)) || (shift > 63 && (b & 0x7f)))
            return "record varint overflows 64 bits";
        if (shift < 64)
            v |= static_cast<std::uint64_t>(b & 0x7f) << shift;
        if (!(b & 0x80))
            return nullptr;
    }
}

/**
 * Decode the record at p[pos] (the caller has checked pos < n),
 * advancing pos; `first` selects the block's absolute-address form,
 * otherwise the address is a zigzag delta from `prev`, which is
 * updated. Returns nullptr, or why the record does not decode.
 */
const char *
decodeRecord(const std::uint8_t *p, std::size_t n, bool first,
             std::size_t &pos, Addr &prev, cpu::TraceRecord &rec)
{
    const std::uint8_t lead = p[pos++];
    rec.isWrite = (lead & 0x80) != 0;
    std::uint64_t gap = lead & 0x7f;
    if (gap == 127) {
        if (const char *err = readVarint(p, n, pos, gap))
            return err;
        if (gap > 0xffffffffull)
            return "compute gap overflows 32 bits";
    }
    rec.nonMemInsts = static_cast<std::uint32_t>(gap);
    std::uint64_t a = 0;
    if (const char *err = readVarint(p, n, pos, a))
        return err;
    rec.addr = first ? a
                     : static_cast<Addr>(static_cast<std::int64_t>(prev) +
                                         unzigzag(a));
    prev = rec.addr;
    return nullptr;
}

/**
 * Check that p[0..n) holds exactly `count` records that decode,
 * without decoding them. Returns nullptr, or decodeRecord's reason.
 * Most records are stepped over with one load: when the lead byte
 * announces no gap varint and the address varint's last byte (top bit
 * clear) is among the next eight, that varint holds at most 56 bits
 * and is well formed. Every other record goes through decodeRecord.
 */
const char *
checkRecords(const std::uint8_t *p, std::size_t n, std::uint32_t count)
{
    std::size_t pos = 0;
    Addr prev = 0;
    cpu::TraceRecord rec;
    for (std::uint32_t i = 0; i < count; ++i) {
        if (pos >= n)
            return "block payload shorter than its record count";
        if ((p[pos] & 0x7f) != 127 && n - pos > 8) {
            std::uint64_t w;
            std::memcpy(&w, p + pos + 1, 8);
            if (const std::uint64_t ends = ~w & 0x8080808080808080ull) {
                pos += 2 + static_cast<std::size_t>(ctz64(ends) >> 3);
                continue;
            }
        }
        if (const char *err = decodeRecord(p, n, i == 0, pos, prev, rec))
            return err;
    }
    return pos == n ? nullptr : "trailing bytes in block payload";
}

} // namespace

// ------------------------------------------------------------------ writer

TraceWriter::TraceWriter(const std::string &path,
                         std::uint32_t records_per_block)
    : path_(path), recordsPerBlock_(records_per_block)
{
    if (recordsPerBlock_ == 0)
        throw SimError(ErrorKind::InvalidConfig,
                       "records_per_block must be positive");
    tmpPath_ = path_ + ".tmp." +
               std::to_string(static_cast<unsigned long>(::getpid()));
    out_.open(tmpPath_, std::ios::binary | std::ios::trunc);
    if (!out_)
        throw SimError(ErrorKind::IoError,
                       "cannot create trace temp file '" + tmpPath_ +
                           "'");
    std::uint8_t hdr[16];
    std::uint32_t magic = kTraceMagic, version = kTraceVersion, flags = 0;
    std::memcpy(hdr + 0, &magic, 4);
    std::memcpy(hdr + 4, &version, 4);
    std::memcpy(hdr + 8, &flags, 4);
    std::uint32_t crc = resilience::crc32(hdr, 12);
    std::memcpy(hdr + 12, &crc, 4);
    out_.write(reinterpret_cast<const char *>(hdr), sizeof(hdr));
}

TraceWriter::~TraceWriter()
{
    if (!closed_) {
        out_.close();
        std::remove(tmpPath_.c_str());
    }
}

void
TraceWriter::putVarint(std::uint64_t v)
{
    while (v >= 0x80) {
        putU8(static_cast<std::uint8_t>(v) | 0x80);
        v >>= 7;
    }
    putU8(static_cast<std::uint8_t>(v));
}

void
TraceWriter::append(const cpu::TraceRecord &record)
{
    std::uint8_t lead = record.isWrite ? 0x80 : 0;
    if (record.nonMemInsts < 127) {
        putU8(lead | static_cast<std::uint8_t>(record.nonMemInsts));
    } else {
        putU8(lead | 127);
        putVarint(record.nonMemInsts);
    }
    if (blockRecords_ == 0)
        putVarint(record.addr);
    else
        putVarint(zigzag(static_cast<std::int64_t>(record.addr) -
                         static_cast<std::int64_t>(prevAddr_)));
    prevAddr_ = record.addr;

    ++blockRecords_;
    ++meta_.totalRecords;
    meta_.totalInsts += record.nonMemInsts + 1;
    if (blockRecords_ >= recordsPerBlock_)
        flushBlock(kBlockRecords);
}

void
TraceWriter::flushBlock(std::uint8_t kind)
{
    BlockHdr h;
    h.kind = kind;
    h.recordCount = blockRecords_;
    h.payloadBytes = static_cast<std::uint32_t>(payload_.size());
    std::uint8_t hdr[kBlockHdrBytes];
    packHdr(h, hdr);
    std::uint32_t crc = resilience::crc32(hdr, kBlockHdrBytes);
    crc = resilience::crc32(payload_.data(), payload_.size(), crc);
    out_.write(reinterpret_cast<const char *>(hdr), kBlockHdrBytes);
    if (!payload_.empty())
        out_.write(reinterpret_cast<const char *>(payload_.data()),
                   static_cast<std::streamsize>(payload_.size()));
    out_.write(reinterpret_cast<const char *>(&crc), 4);
    payload_.clear();
    blockRecords_ = 0;
}

TraceMeta
TraceWriter::close()
{
    if (closed_)
        throw SimError(ErrorKind::Unsupported,
                       "trace writer already closed");
    if (blockRecords_ > 0)
        flushBlock(kBlockRecords);
    // End block: totals, CRC-covered like any other block.
    payload_.resize(16);
    std::memcpy(payload_.data() + 0, &meta_.totalRecords, 8);
    std::memcpy(payload_.data() + 8, &meta_.totalInsts, 8);
    flushBlock(kBlockEnd);
    out_.flush();
    if (!out_) {
        out_.close();
        std::remove(tmpPath_.c_str());
        closed_ = true;
        throw SimError(ErrorKind::IoError,
                       "short write to trace temp file '" + tmpPath_ +
                           "'");
    }
    out_.close();
    if (std::rename(tmpPath_.c_str(), path_.c_str()) != 0) {
        std::remove(tmpPath_.c_str());
        closed_ = true;
        throw SimError(ErrorKind::IoError,
                       "rename '" + tmpPath_ + "' -> '" + path_ +
                           "' failed");
    }
    closed_ = true;
    return meta_;
}

// ------------------------------------------------------------------ reader

TraceReader::TraceReader(const std::string &path)
    : path_(path), in_(path, std::ios::binary)
{
    if (!in_)
        throw SimError(ErrorKind::TraceIo,
                       "cannot open trace file '" + path + "'");
    readHeader();
}

void
TraceReader::throwTruncated(const std::string &what) const
{
    throw SimError(ErrorKind::TraceIo,
                   "trace file '" + path_ + "' truncated: " + what);
}

void
TraceReader::throwMalformed(const std::string &what) const
{
    throw SimError(ErrorKind::MalformedTrace,
                   "trace file '" + path_ + "': " + what);
}

void
TraceReader::readHeader()
{
    std::uint8_t hdr[16];
    in_.read(reinterpret_cast<char *>(hdr), sizeof(hdr));
    if (in_.gcount() != sizeof(hdr))
        throwTruncated("short header");
    std::uint32_t magic, version, flags, crc;
    std::memcpy(&magic, hdr + 0, 4);
    std::memcpy(&version, hdr + 4, 4);
    std::memcpy(&flags, hdr + 8, 4);
    std::memcpy(&crc, hdr + 12, 4);
    if (magic != kTraceMagic)
        throwMalformed("bad magic");
    if (crc != resilience::crc32(hdr, 12))
        throwMalformed("header CRC mismatch");
    if (version > kTraceVersion)
        throwMalformed("unsupported version " + std::to_string(version));
    if (flags != 0)
        throwMalformed("unknown flags");
}

void
TraceReader::loadBlock(std::uint32_t record_count)
{
    if (const char *err =
            checkRecords(payload_.data(), payload_.size(), record_count))
        throwMalformed(err);
    payloadPos_ = 0;
    blockLeft_ = record_count;
    prevAddr_ = 0;
}

void
TraceReader::decodeNext(cpu::TraceRecord &record)
{
    decodeRecord(payload_.data(), payload_.size(), payloadPos_ == 0,
                 payloadPos_, prevAddr_, record);
    --blockLeft_;
}

bool
TraceReader::refill()
{
    if (atEnd_)
        return false;
    ++refills_;
    if (vanishAfterRefills_ && refills_ >= vanishAfterRefills_)
        throw SimError(ErrorKind::IoError,
                       "trace file '" + path_ +
                           "' vanished between readahead refills "
                           "(injected)");

    std::uint8_t hdr[kBlockHdrBytes];
    in_.read(reinterpret_cast<char *>(hdr), kBlockHdrBytes);
    if (in_.gcount() == 0 && in_.eof())
        throwTruncated("end of file without an end block");
    if (in_.gcount() != static_cast<std::streamsize>(kBlockHdrBytes)) {
        if (in_.eof())
            throwTruncated("short block header");
        throw SimError(ErrorKind::IoError,
                       "read error in trace file '" + path_ + "'");
    }
    BlockHdr h = unpackHdr(hdr);
    if (h.kind != kBlockRecords && h.kind != kBlockEnd)
        throwMalformed("unknown block kind " + std::to_string(h.kind));
    if (h.payloadBytes > kMaxBlockPayload)
        throwMalformed("block payload claims " +
                       std::to_string(h.payloadBytes) +
                       " bytes (cap " + std::to_string(kMaxBlockPayload) +
                       ")");
    payload_.resize(h.payloadBytes);
    if (h.payloadBytes) {
        in_.read(reinterpret_cast<char *>(payload_.data()),
                 h.payloadBytes);
        if (in_.gcount() != static_cast<std::streamsize>(h.payloadBytes)) {
            if (in_.eof())
                throwTruncated("short block payload");
            throw SimError(ErrorKind::IoError,
                           "read error in trace file '" + path_ + "'");
        }
    }
    std::uint32_t stored = 0;
    in_.read(reinterpret_cast<char *>(&stored), 4);
    if (in_.gcount() != 4) {
        if (in_.eof())
            throwTruncated("short block CRC");
        throw SimError(ErrorKind::IoError,
                       "read error in trace file '" + path_ + "'");
    }
    std::uint32_t crc = resilience::crc32(hdr, kBlockHdrBytes);
    crc = resilience::crc32(payload_.data(), payload_.size(), crc);
    if (stored != crc)
        throwMalformed("block CRC mismatch");

    if (h.kind == kBlockEnd) {
        if (h.recordCount != 0 || payload_.size() != 16)
            throwMalformed("malformed end block");
        std::memcpy(&meta_.totalRecords, payload_.data() + 0, 8);
        std::memcpy(&meta_.totalInsts, payload_.data() + 8, 8);
        metaValid_ = true;
        // The end block must end the file.
        char extra;
        in_.read(&extra, 1);
        if (in_.gcount() != 0)
            throwMalformed("trailing bytes after end block");
        atEnd_ = true;
        blockLeft_ = 0;
        return false;
    }
    if (h.recordCount == 0)
        throwMalformed("empty records block");
    loadBlock(h.recordCount);
    return true;
}

bool
TraceReader::next(cpu::TraceRecord &record)
{
    while (blockLeft_ == 0)
        if (!refill())
            return false;
    decodeNext(record);
    ++position_;
    return true;
}

void
TraceReader::rewind()
{
    seekBlock({16, 0, 0}); // The first block follows the file header.
}

void
TraceReader::seekBlock(const BlockSpan &span)
{
    in_.clear();
    in_.seekg(static_cast<std::streamoff>(span.offset));
    if (!in_)
        throw SimError(ErrorKind::IoError,
                       "cannot seek in trace file '" + path_ + "'");
    payload_.clear();
    blockLeft_ = 0;
    position_ = span.firstRecord;
    atEnd_ = false;
}

bool
TraceReader::walkBlock(BlockSpan &span)
{
    if (fileBytes_ == 0) {
        const std::streampos at = in_.tellg();
        in_.seekg(0, std::ios::end);
        fileBytes_ = static_cast<std::uint64_t>(in_.tellg());
        in_.seekg(at);
    }
    span = {static_cast<std::uint64_t>(in_.tellg()), position_, 0};
    std::uint8_t hdr[kBlockHdrBytes];
    BlockHdr h;
    if (peekHeader(in_, hdr, h) != Peek::Records ||
        span.offset + kBlockHdrBytes + h.payloadBytes + 4 > fileBytes_)
        return false;
    in_.seekg(static_cast<std::streamoff>(h.payloadBytes) + 4,
              std::ios::cur);
    span.records = h.recordCount;
    position_ += h.recordCount;
    return true;
}

void
TraceReader::skipRecords(std::uint64_t n)
{
    cpu::TraceRecord rec;
    while (n > 0) {
        if (blockLeft_ > 0) {
            // Resident records still decode one by one: each address
            // is a delta from the one before.
            decodeNext(rec);
            ++position_;
            --n;
            continue;
        }
        if (atEnd_)
            throwTruncated("skip past end of trace");
        // Peek the next block header; skip its payload wholesale when
        // the whole block falls inside the skip window.
        ++refills_;
        if (vanishAfterRefills_ && refills_ >= vanishAfterRefills_)
            throw SimError(ErrorKind::IoError,
                           "trace file '" + path_ +
                               "' vanished between readahead refills "
                               "(injected)");
        std::uint8_t hdr[kBlockHdrBytes];
        BlockHdr h;
        switch (peekHeader(in_, hdr, h)) {
          case Peek::Records:
            break;
          case Peek::Short:
            throwTruncated("short block header");
          case Peek::ReadError:
            throw SimError(ErrorKind::IoError,
                           "read error in trace file '" + path_ + "'");
          case Peek::End:
            throwTruncated("skip past end of trace");
          case Peek::BadKind:
            throwMalformed("unknown block kind " +
                           std::to_string(h.kind));
          case Peek::Oversized:
            throwMalformed("block payload claims " +
                           std::to_string(h.payloadBytes) + " bytes");
          case Peek::Empty:
            throwMalformed("empty records block");
        }
        if (h.recordCount <= n) {
            in_.seekg(static_cast<std::streamoff>(h.payloadBytes) + 4,
                      std::ios::cur);
            if (!in_ || in_.peek() == std::char_traits<char>::eof()) {
                // Seeking past EOF is silent; force the detection the
                // next header read would have produced, but keep a
                // clean stream for it (peek may set eofbit at the
                // exact file end, which is legal when the end block
                // is next).
                if (!in_)
                    throwTruncated("short block payload");
                in_.clear();
                in_.seekg(0, std::ios::end);
                throwTruncated("short block payload");
            }
            position_ += h.recordCount;
            n -= h.recordCount;
            continue;
        }
        // Partial block: validate and decode it like refill() would.
        payload_.resize(h.payloadBytes);
        in_.read(reinterpret_cast<char *>(payload_.data()),
                 h.payloadBytes);
        if (in_.gcount() !=
            static_cast<std::streamsize>(h.payloadBytes)) {
            if (in_.eof())
                throwTruncated("short block payload");
            throw SimError(ErrorKind::IoError,
                           "read error in trace file '" + path_ + "'");
        }
        std::uint32_t stored = 0;
        in_.read(reinterpret_cast<char *>(&stored), 4);
        if (in_.gcount() != 4) {
            if (in_.eof())
                throwTruncated("short block CRC");
            throw SimError(ErrorKind::IoError,
                           "read error in trace file '" + path_ + "'");
        }
        std::uint32_t crc = resilience::crc32(hdr, kBlockHdrBytes);
        crc = resilience::crc32(payload_.data(), payload_.size(), crc);
        if (stored != crc)
            throwMalformed("block CRC mismatch");
        loadBlock(h.recordCount);
    }
}

void
TraceReader::seekRecord(std::uint64_t pos)
{
    rewind();
    skipRecords(pos);
}

} // namespace ccsim::trace
