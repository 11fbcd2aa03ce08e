/**
 * @file
 * CCTR: a versioned, CRC-checked compact binary instruction-trace
 * format, in the spirit of Sniper's SIFT frontend — a record stream a
 * billion instructions long that a simulator can pull through a small,
 * bounded readahead buffer instead of a text parser.
 *
 * Layout (all integers little-endian as stored; the format follows the
 * resilience/serial.hh conventions: every variable-size unit carries
 * its own CRC32 so truncation and bit rot are detected at the unit
 * that broke):
 *
 *     file   := header | block* | end-block
 *     header := magic u32 ("CCTR") | version u32 | flags u32
 *             | crc32 u32 (over magic..flags)
 *     block  := kind u8 | recordCount u32 | payloadBytes u32
 *             | payload | crc32 u32 (over kind..payload)
 *
 * Block kinds: 1 = records, 2 = end-of-trace. The end block's payload
 * is `totalRecords u64 | totalInsts u64`; a reader that hits raw EOF
 * without having consumed an end block reports a truncated trace. The
 * end block must be the last bytes of the file.
 *
 * Records are delta-compressed within a block (the delta base resets
 * per block so whole blocks can be skipped without decoding):
 *
 *     record := lead u8 | [gap varint] | addr varint
 *     lead   : bit7 = isWrite, bits 0..6 = nonMemInsts (127 means a
 *              full varint gap follows)
 *     addr   : first record of a block stores the absolute byte
 *              address; subsequent records store the zigzag-encoded
 *              byte delta from the previous record's address
 *
 * A sequential stream costs ~2 bytes per record; a random datacenter
 * mix ~5-6 — roughly 4-8x smaller than the Ramulator text format,
 * and decodable at memory speed.
 *
 * Error contract (resilience/error.hh):
 *  - missing file at open, raw EOF mid-block or a missing end block
 *    -> SimError{TraceIo} (truncated/unreadable input);
 *  - a read that fails for any reason other than end-of-file between
 *    readahead refills (the NFS-gone / disk-yanked case)
 *    -> SimError{IoError}, never a silent empty stream;
 *  - bad magic/version, a CRC mismatch, an oversized or unknown block,
 *    trailing bytes after the end block, or a record that does not
 *    decode -> SimError{MalformedTrace}.
 */

#ifndef CCSIM_TRACE_FORMAT_HH
#define CCSIM_TRACE_FORMAT_HH

#include <cstdint>
#include <fstream>
#include <string>
#include <vector>

#include "common/types.hh"
#include "cpu/trace.hh"
#include "resilience/error.hh"

namespace ccsim::trace {

/** "CCTR" as a little-endian u32. */
inline constexpr std::uint32_t kTraceMagic = 0x52544343u;
inline constexpr std::uint32_t kTraceVersion = 1;

inline constexpr std::uint8_t kBlockRecords = 1;
inline constexpr std::uint8_t kBlockEnd = 2;

/**
 * Hard ceiling on one block's payload. Real writers emit ~64 KiB
 * blocks; anything larger in a file is garbage masquerading as a
 * length field, and rejecting it keeps the reader's readahead bounded
 * no matter what the bytes claim.
 */
inline constexpr std::uint32_t kMaxBlockPayload = 1u << 20;

/** Totals carried by the end block (and tallied by the writer). */
struct TraceMeta {
    std::uint64_t totalRecords = 0;
    std::uint64_t totalInsts = 0; ///< Sum of nonMemInsts + 1 per record.
};

/**
 * Streaming trace writer. Records are buffered into blocks and flushed
 * as each block fills; close() appends the end block and atomically
 * renames the temp file over `path` (resilience/io.hh convention: a
 * concurrent reader sees the complete old trace or the complete new
 * one, and a crashed writer leaves no half-trace under the real name).
 */
class TraceWriter
{
  public:
    /**
     * @param records_per_block block granularity; the default keeps
     *        payloads near 64 KiB. Tests shrink it to force many
     *        blocks from tiny traces.
     * @throws resilience::SimError{IoError} when the temp file cannot
     *         be created.
     */
    explicit TraceWriter(const std::string &path,
                         std::uint32_t records_per_block = 16384);

    /** Abandoned writers (no close()) delete their temp file. */
    ~TraceWriter();

    TraceWriter(const TraceWriter &) = delete;
    TraceWriter &operator=(const TraceWriter &) = delete;

    void append(const cpu::TraceRecord &record);

    /**
     * Flush, write the end block, and publish the file under `path`.
     * Returns the final totals. Idempotent-hostile by design: the
     * writer is dead after close().
     */
    TraceMeta close();

    const TraceMeta &meta() const { return meta_; }

  private:
    void flushBlock(std::uint8_t kind);
    void putU8(std::uint8_t v) { payload_.push_back(v); }
    void putVarint(std::uint64_t v);

    std::string path_;
    std::string tmpPath_;
    std::ofstream out_;
    std::uint32_t recordsPerBlock_;

    std::vector<std::uint8_t> payload_;
    std::uint32_t blockRecords_ = 0;
    Addr prevAddr_ = 0;
    TraceMeta meta_;
    bool closed_ = false;
};

/**
 * Streaming trace reader with bounded readahead: exactly one block's
 * compressed payload is resident at a time, so memory stays O(block)
 * however long the trace is. A block is validated whole when it loads
 * (CRC and every record's encoding, so a malformed block fails at the
 * call that loaded it), then its records decode on demand straight
 * from the payload. Implements the error contract in the file header
 * above.
 */
class TraceReader
{
  public:
    /** @throws resilience::SimError{TraceIo} when `path` cannot open,
        {MalformedTrace} when the header does not validate. */
    explicit TraceReader(const std::string &path);

    /** Next record; false once the end block has been consumed. */
    bool next(cpu::TraceRecord &record);

    /** Rewind to the first record. */
    void rewind();

    /**
     * Skip `n` records without handing them out. Whole blocks are
     * skipped by seeking past their payload using the block header's
     * record count — the functional fast-forward the sampled-
     * simulation frontend is built on (CRC validation of fully
     * skipped blocks is deliberately elided; any block that
     * contributes records is validated).
     */
    void skipRecords(std::uint64_t n);

    /** Records handed out or skipped since the last rewind. */
    std::uint64_t position() const { return position_; }

    /** Totals from the end block (valid once it has been reached). */
    const TraceMeta &meta() const { return meta_; }
    bool metaValid() const { return metaValid_; }

    /**
     * Reposition to absolute record index `pos` (rewind + skip).
     * Used by checkpoint restore and by sampled-slice launches.
     */
    void seekRecord(std::uint64_t pos);

    /** A records block found by walkBlock(). */
    struct BlockSpan {
        std::uint64_t offset = 0;      ///< File offset of its header.
        std::uint64_t firstRecord = 0; ///< Index of its first record.
        std::uint32_t records = 0;     ///< Record count in its header.
    };

    /**
     * Step over the next block by its header alone (the header peek
     * skipRecords uses; the payload is neither read nor CRC-checked)
     * and describe it in `span`. Returns false at anything the header
     * cannot vouch for: EOF or a read error inside it, a block that
     * runs past the end of the file, an unknown kind, an oversized or
     * empty block, or the end block. `span` then marks that point with
     * no records, and the walk is over. A reader started there with
     * seekBlock() reads on with the ordinary checks, so it reports
     * what a sequential read would.
     */
    bool walkBlock(BlockSpan &span);

    /**
     * Continue from a block boundary that walkBlock() found, on this or
     * another reader of the same file: the next record handed out is
     * record `span.firstRecord`.
     */
    void seekBlock(const BlockSpan &span);

    /**
     * Fault injection: make readahead refill number `refills` (1-based)
     * behave as if the trace file vanished between refills — the
     * stream errors out and the reader must surface
     * SimError{IoError}, not a silent empty stream.
     */
    void injectVanishAfter(std::uint64_t refills)
    {
        vanishAfterRefills_ = refills;
    }

  private:
    void readHeader();
    /** Refill the readahead with the next block; false at clean end. */
    bool refill();
    /** Count one readahead refill: where injectVanishAfter fires. */
    void countRefill();
    /**
     * Read the payload and CRC of the block whose header `hdr` was just
     * read and check the CRC. A records block becomes the resident
     * block once all its records decode; the end block records the
     * totals, must end the file, and returns false.
     */
    bool loadBlock(const std::uint8_t *hdr);
    /** Read `n` bytes; EOF before them is truncation `what`. */
    void readExact(void *dst, std::size_t n, const char *what);
    /** Decode the resident block's next record (validated on load). */
    void decodeNext(cpu::TraceRecord &record);

    [[noreturn]] void throwTruncated(const std::string &what) const;
    [[noreturn]] void throwMalformed(const std::string &what) const;
    [[noreturn]] void throwReadError() const;

    std::string path_;
    std::ifstream in_;

    std::vector<std::uint8_t> payload_; ///< Resident block payload.
    std::size_t payloadPos_ = 0;  ///< Next record's offset in payload_.
    std::uint32_t blockLeft_ = 0; ///< Resident records not handed out.
    Addr prevAddr_ = 0;           ///< Delta base: last decoded address.
    std::uint64_t position_ = 0;
    bool atEnd_ = false;
    std::uint64_t fileBytes_ = 0; ///< Read by the first walkBlock().

    TraceMeta meta_;
    bool metaValid_ = false;

    std::uint64_t refills_ = 0;
    std::uint64_t vanishAfterRefills_ = 0;
};

} // namespace ccsim::trace

#endif // CCSIM_TRACE_FORMAT_HH
