/**
 * @file
 * DRAM coordinates and physical-address interleaving.
 *
 * The mapper translates cache-line-aligned physical addresses into
 * (channel, rank, bank, row, column) coordinates and back. Naming follows
 * Ramulator: scheme "RoBaRaCoCh" lists fields from most-significant to
 * least-significant address bits.
 */

#ifndef CCSIM_DRAM_ADDR_HH
#define CCSIM_DRAM_ADDR_HH

#include "common/types.hh"
#include "dram/spec.hh"

namespace ccsim::dram {

/** Decoded DRAM coordinates of one cache line. */
struct DramAddr {
    int channel = 0;
    int rank = 0;
    int bank = 0;
    int row = 0;
    int col = 0;

    bool
    operator==(const DramAddr &o) const
    {
        return channel == o.channel && rank == o.rank && bank == o.bank &&
               row == o.row && col == o.col;
    }
};

/** Bit-interleaving scheme (field order from MSB to LSB). */
enum class MapScheme {
    RoBaRaCoCh, ///< Row:Bank:Rank:Column:Channel (Ramulator default).
    RoRaBaCoCh, ///< Row:Rank:Bank:Column:Channel.
    RoCoBaRaCh, ///< Row:Column:Bank:Rank:Channel (bank-interleaved lines).
};

/** Scheme name for printing. */
const char *mapSchemeName(MapScheme scheme);

/**
 * Address mapper for a fixed DramOrg. Operates on line addresses
 * (physical address >> kLineShift).
 */
class AddressMapper
{
  public:
    AddressMapper(const DramOrg &org, MapScheme scheme);

    /** Decode a line address into DRAM coordinates. */
    DramAddr decode(Addr line_addr) const;

    /** Inverse of decode(). */
    Addr encode(const DramAddr &addr) const;

    /** Number of distinct line addresses. */
    Addr numLines() const { return numLines_; }

    MapScheme scheme() const { return scheme_; }

  private:
    MapScheme scheme_;
    int chBits_, raBits_, baBits_, roBits_, coBits_;
    Addr numLines_;
};

} // namespace ccsim::dram

#endif // CCSIM_DRAM_ADDR_HH
