/**
 * @file
 * Versioned, checksummed binary serialization for simulation snapshots.
 *
 * A snapshot is a flat byte stream of named *sections*. Each section
 * carries its own format version and a CRC32 over its payload, so a
 * truncated or bit-flipped snapshot is detected at the section that
 * broke, and a component can evolve its format independently of the
 * others. The container layout is
 *
 *     section := name-len u8 | name bytes | version u32
 *              | payload-size u64 | payload | crc32 u32
 *
 * on top of raw little-endian-as-stored field writes (snapshots are
 * host-format artifacts, not an interchange format; the file header
 * written by sim::System additionally pins a config hash so a snapshot
 * is only ever read back by a compatible simulation).
 *
 * Readers throw resilience::SimError{CorruptSnapshot} on any mismatch:
 * wrong section name, unexpected version, short payload, trailing
 * payload bytes, or CRC failure. Writers never fail.
 */

#ifndef CCSIM_RESILIENCE_SERIAL_HH
#define CCSIM_RESILIENCE_SERIAL_HH

#include <cstdint>
#include <cstring>
#include <deque>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "common/ring.hh"
#include "resilience/error.hh"

namespace ccsim::resilience {

/**
 * CRC-32 (IEEE, reflected) over `n` bytes, chainable via `seed`.
 *
 * Slicing-by-8: eight independent table lookups per 8-byte chunk
 * instead of one serially dependent lookup per byte. The byte-at-a-
 * time loop's latency chain (each step needs the previous CRC) caps
 * it near 1 GB/s; every trace block and snapshot section funnels
 * through here, and the sampled-simulation profile pass reads whole
 * traces, so this is a measured hot spot. Same polynomial, identical
 * digests.
 */
inline std::uint32_t
crc32(const void *data, std::size_t n, std::uint32_t seed = 0)
{
    using Table = std::uint32_t[256];
    static const Table *tables = [] {
        static std::uint32_t t[8][256];
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1) ? 0xedb88320u ^ (c >> 1) : c >> 1;
            t[0][i] = c;
        }
        for (std::uint32_t i = 0; i < 256; ++i)
            for (int j = 1; j < 8; ++j)
                t[j][i] = (t[j - 1][i] >> 8) ^ t[0][t[j - 1][i] & 0xffu];
        return t;
    }();
    std::uint32_t c = seed ^ 0xffffffffu;
    const auto *p = static_cast<const unsigned char *>(data);
    while (n >= 8) {
        const std::uint32_t lo =
            c ^ (static_cast<std::uint32_t>(p[0]) |
                 static_cast<std::uint32_t>(p[1]) << 8 |
                 static_cast<std::uint32_t>(p[2]) << 16 |
                 static_cast<std::uint32_t>(p[3]) << 24);
        const std::uint32_t hi =
            static_cast<std::uint32_t>(p[4]) |
            static_cast<std::uint32_t>(p[5]) << 8 |
            static_cast<std::uint32_t>(p[6]) << 16 |
            static_cast<std::uint32_t>(p[7]) << 24;
        c = tables[7][lo & 0xffu] ^ tables[6][(lo >> 8) & 0xffu] ^
            tables[5][(lo >> 16) & 0xffu] ^ tables[4][lo >> 24] ^
            tables[3][hi & 0xffu] ^ tables[2][(hi >> 8) & 0xffu] ^
            tables[1][(hi >> 16) & 0xffu] ^ tables[0][hi >> 24];
        p += 8;
        n -= 8;
    }
    while (n--)
        c = tables[0][(c ^ *p++) & 0xffu] ^ (c >> 8);
    return c ^ 0xffffffffu;
}

class SnapshotWriter
{
  public:
    /** Append a trivially-copyable value verbatim. */
    template <typename T>
    void
    put(const T &v)
    {
        static_assert(std::is_trivially_copyable<T>::value,
                      "put() needs a trivially copyable type");
        append(&v, sizeof(T));
    }

    /** Pairs are dumped field-wise (std::pair is not trivially
        copyable, and raw dumps could carry padding anyway). */
    template <typename A, typename B>
    void
    put(const std::pair<A, B> &p)
    {
        put(p.first);
        put(p.second);
    }

    void
    putString(const std::string &s)
    {
        put<std::uint64_t>(s.size());
        append(s.data(), s.size());
    }

    /** Raw bytes, length implied by context (e.g. fixed-size magic). */
    void putRaw(const void *p, std::size_t n) { append(p, n); }

    /**
     * `n` zero bytes: the padding of a struct written field by field
     * at its in-memory offsets. put() of a padded struct would copy
     * whatever its padding holds, and snapshots must be
     * byte-deterministic.
     */
    void putZeros(std::size_t n) { buf_.insert(buf_.end(), n, 0); }

    template <typename T>
    void
    putVec(const std::vector<T> &v)
    {
        put<std::uint64_t>(v.size());
        if constexpr (std::is_trivially_copyable<T>::value) {
            if (!v.empty())
                append(v.data(), v.size() * sizeof(T));
        } else {
            for (const T &e : v)
                put(e);
        }
    }

    template <typename T>
    void
    putDeque(const std::deque<T> &d)
    {
        put<std::uint64_t>(d.size());
        for (const T &v : d)
            put(v);
    }

    /** Same layout as putDeque: count, then front to back. */
    template <typename T>
    void
    putRing(const Ring<T> &ring)
    {
        put<std::uint64_t>(ring.size());
        for (std::size_t i = 0; i < ring.size(); ++i)
            put(ring[i]);
    }

    /** Open a named, versioned section; every write until the matching
        endSection() lands in its payload. Sections do not nest. */
    void
    beginSection(const std::string &name, std::uint32_t version)
    {
        put<std::uint8_t>(static_cast<std::uint8_t>(name.size()));
        append(name.data(), name.size());
        put<std::uint32_t>(version);
        sizeAt_ = buf_.size();
        put<std::uint64_t>(0); // patched by endSection
        payloadAt_ = buf_.size();
    }

    void
    endSection()
    {
        std::uint64_t size = buf_.size() - payloadAt_;
        std::memcpy(buf_.data() + sizeAt_, &size, sizeof(size));
        std::uint32_t crc = crc32(buf_.data() + payloadAt_, size);
        put<std::uint32_t>(crc);
    }

    const std::vector<std::uint8_t> &bytes() const { return buf_; }
    std::vector<std::uint8_t> take() { return std::move(buf_); }

  private:
    void
    append(const void *p, std::size_t n)
    {
        const auto *b = static_cast<const std::uint8_t *>(p);
        buf_.insert(buf_.end(), b, b + n);
    }

    std::vector<std::uint8_t> buf_;
    std::size_t sizeAt_ = 0;
    std::size_t payloadAt_ = 0;
};

class SnapshotReader
{
  public:
    SnapshotReader(const std::uint8_t *data, std::size_t size)
        : data_(data), size_(size)
    {}

    explicit SnapshotReader(const std::vector<std::uint8_t> &bytes)
        : SnapshotReader(bytes.data(), bytes.size())
    {}

    template <typename T>
    T
    get()
    {
        static_assert(std::is_trivially_copyable<T>::value,
                      "get() needs a trivially copyable type");
        T v;
        copyOut(&v, sizeof(T));
        return v;
    }

    template <typename T>
    void
    get(T &v)
    {
        v = get<T>();
    }

    template <typename A, typename B>
    void
    get(std::pair<A, B> &p)
    {
        get(p.first);
        get(p.second);
    }

    /** Raw bytes, length implied by context (e.g. fixed-size magic). */
    void getRaw(void *dst, std::size_t n) { copyOut(dst, n); }

    /** Skip `n` padding bytes (older snapshots may hold any value). */
    void
    skip(std::size_t n)
    {
        checkAvail(n);
        pos_ += n;
    }

    std::string
    getString()
    {
        std::uint64_t n = get<std::uint64_t>();
        checkAvail(n);
        std::string s(reinterpret_cast<const char *>(data_ + pos_),
                      static_cast<std::size_t>(n));
        pos_ += n;
        return s;
    }

    template <typename T>
    void
    getVec(std::vector<T> &v)
    {
        std::uint64_t n = get<std::uint64_t>();
        if constexpr (std::is_trivially_copyable<T>::value) {
            // Divide rather than multiply: n * sizeof(T) can wrap.
            if (n > remaining() / sizeof(T))
                throw SimError(ErrorKind::CorruptSnapshot,
                               "snapshot truncated");
            v.resize(static_cast<std::size_t>(n));
            if (n)
                copyOut(v.data(), v.size() * sizeof(T));
        } else {
            checkAvail(n); // Every element takes at least one byte.
            v.clear();
            v.resize(static_cast<std::size_t>(n));
            for (T &e : v)
                get(e);
        }
    }

    template <typename T>
    void
    getDeque(std::deque<T> &d)
    {
        std::uint64_t n = get<std::uint64_t>();
        checkAvail(n);
        d.clear();
        for (std::uint64_t i = 0; i < n; ++i) {
            d.emplace_back();
            get(d.back());
        }
    }

    /** Refill `ring` from a putRing/putDeque dump; a count above the
        ring's capacity is a corrupt snapshot. */
    template <typename T>
    void
    getRing(Ring<T> &ring)
    {
        std::uint64_t n = get<std::uint64_t>();
        if (n > ring.capacity())
            throw SimError(ErrorKind::CorruptSnapshot,
                           "snapshot queue holds " + std::to_string(n) +
                               " entries, capacity is " +
                               std::to_string(ring.capacity()));
        ring.clear();
        for (std::uint64_t i = 0; i < n; ++i) {
            T v{};
            get(v);
            ring.push_back(v);
        }
    }

    /**
     * Open the section that must come next; throws when the stored name
     * differs or the stored version exceeds `max_version`. Returns the
     * stored version so loaders can branch on older formats.
     */
    std::uint32_t
    openSection(const std::string &name, std::uint32_t max_version)
    {
        std::uint8_t len = get<std::uint8_t>();
        checkAvail(len);
        std::string stored(reinterpret_cast<const char *>(data_ + pos_),
                           len);
        pos_ += len;
        if (stored != name)
            throw SimError(ErrorKind::CorruptSnapshot,
                           "expected section '" + name + "', found '" +
                               stored + "'");
        std::uint32_t version = get<std::uint32_t>();
        if (version > max_version)
            throw SimError(ErrorKind::CorruptSnapshot,
                           "section '" + name + "' has version " +
                               std::to_string(version) +
                               " > supported " +
                               std::to_string(max_version));
        std::uint64_t size = get<std::uint64_t>();
        checkAvail(size);
        sectionEnd_ = pos_ + static_cast<std::size_t>(size);
        sectionStart_ = pos_;
        sectionName_ = name;
        return version;
    }

    /** Verify the open section was consumed exactly and its CRC holds. */
    void
    closeSection()
    {
        if (pos_ != sectionEnd_)
            throw SimError(ErrorKind::CorruptSnapshot,
                           "section '" + sectionName_ +
                               "' size mismatch on read");
        std::uint32_t stored = get<std::uint32_t>();
        std::uint32_t actual = crc32(data_ + sectionStart_,
                                     sectionEnd_ - sectionStart_);
        if (stored != actual)
            throw SimError(ErrorKind::CorruptSnapshot,
                           "section '" + sectionName_ + "' CRC mismatch");
    }

    bool atEnd() const { return pos_ == size_; }

    /** Unread bytes: an upper bound on any count still to come. */
    std::size_t remaining() const { return size_ - pos_; }

  private:
    void
    checkAvail(std::uint64_t n)
    {
        if (n > size_ - pos_)
            throw SimError(ErrorKind::CorruptSnapshot,
                           "snapshot truncated");
    }

    void
    copyOut(void *dst, std::size_t n)
    {
        checkAvail(n);
        std::memcpy(dst, data_ + pos_, n);
        pos_ += n;
    }

    const std::uint8_t *data_;
    std::size_t size_;
    std::size_t pos_ = 0;
    std::size_t sectionStart_ = 0;
    std::size_t sectionEnd_ = 0;
    std::string sectionName_;
};

} // namespace ccsim::resilience

#endif // CCSIM_RESILIENCE_SERIAL_HH
