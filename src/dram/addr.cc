#include "dram/addr.hh"

#include "common/log.hh"

namespace ccsim::dram {

const char *
mapSchemeName(MapScheme scheme)
{
    switch (scheme) {
      case MapScheme::RoBaRaCoCh:
        return "RoBaRaCoCh";
      case MapScheme::RoRaBaCoCh:
        return "RoRaBaCoCh";
      case MapScheme::RoCoBaRaCh:
        return "RoCoBaRaCh";
    }
    return "?";
}

AddressMapper::AddressMapper(const DramOrg &org, MapScheme scheme)
    : scheme_(scheme)
{
    chBits_ = log2Exact(static_cast<std::uint64_t>(org.channels));
    raBits_ = log2Exact(static_cast<std::uint64_t>(org.ranksPerChannel));
    baBits_ = log2Exact(static_cast<std::uint64_t>(org.banksPerRank));
    roBits_ = log2Exact(static_cast<std::uint64_t>(org.rowsPerBank));
    coBits_ = log2Exact(static_cast<std::uint64_t>(org.columnsPerRow()));
    const int line_bits =
        log2Exact(static_cast<std::uint64_t>(org.lineBytes));
    CCSIM_ASSERT(chBits_ >= 0 && raBits_ >= 0 && baBits_ >= 0 &&
                     roBits_ >= 0 && coBits_ >= 0 && line_bits >= 0,
                 "organization fields must be powers of two");
    numLines_ = Addr(1) << (chBits_ + raBits_ + baBits_ + roBits_ + coBits_);
}

namespace {

/** Pop `bits` LSBs from `v`. */
inline int
take(Addr &v, int bits)
{
    int field = static_cast<int>(v & ((Addr(1) << bits) - 1));
    v >>= bits;
    return field;
}

/** Append `field` (of width `bits`) above the current value. */
inline void
put(Addr &v, int &shift, int field, int bits)
{
    v |= static_cast<Addr>(field) << shift;
    shift += bits;
}

} // namespace

DramAddr
AddressMapper::decode(Addr line_addr) const
{
    CCSIM_ASSERT(line_addr < numLines_, "line address out of range");
    DramAddr a;
    Addr v = line_addr;
    // Fields are listed LSB-first (reverse of the scheme name).
    switch (scheme_) {
      case MapScheme::RoBaRaCoCh:
        a.channel = take(v, chBits_);
        a.col = take(v, coBits_);
        a.rank = take(v, raBits_);
        a.bank = take(v, baBits_);
        a.row = take(v, roBits_);
        break;
      case MapScheme::RoRaBaCoCh:
        a.channel = take(v, chBits_);
        a.col = take(v, coBits_);
        a.bank = take(v, baBits_);
        a.rank = take(v, raBits_);
        a.row = take(v, roBits_);
        break;
      case MapScheme::RoCoBaRaCh:
        a.channel = take(v, chBits_);
        a.rank = take(v, raBits_);
        a.bank = take(v, baBits_);
        a.col = take(v, coBits_);
        a.row = take(v, roBits_);
        break;
    }
    return a;
}

Addr
AddressMapper::encode(const DramAddr &a) const
{
    Addr v = 0;
    int shift = 0;
    switch (scheme_) {
      case MapScheme::RoBaRaCoCh:
        put(v, shift, a.channel, chBits_);
        put(v, shift, a.col, coBits_);
        put(v, shift, a.rank, raBits_);
        put(v, shift, a.bank, baBits_);
        put(v, shift, a.row, roBits_);
        break;
      case MapScheme::RoRaBaCoCh:
        put(v, shift, a.channel, chBits_);
        put(v, shift, a.col, coBits_);
        put(v, shift, a.bank, baBits_);
        put(v, shift, a.rank, raBits_);
        put(v, shift, a.row, roBits_);
        break;
      case MapScheme::RoCoBaRaCh:
        put(v, shift, a.channel, chBits_);
        put(v, shift, a.rank, raBits_);
        put(v, shift, a.bank, baBits_);
        put(v, shift, a.col, coBits_);
        put(v, shift, a.row, roBits_);
        break;
    }
    return v;
}

} // namespace ccsim::dram
