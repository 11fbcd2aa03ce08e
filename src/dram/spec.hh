/**
 * @file
 * DRAM device specification: organization and timing parameters.
 *
 * Timing values are in DRAM command-bus cycles (tCK). The DDR3-1600
 * preset matches the configuration in Table 1 of the ChargeCache paper
 * (HPCA 2016): 800 MHz bus, 1 rank/channel, 8 banks/rank, 64K rows/bank,
 * 8 KB row buffer, tRCD/tRAS = 11/28 cycles.
 */

#ifndef CCSIM_DRAM_SPEC_HH
#define CCSIM_DRAM_SPEC_HH

#include <string>

#include "common/types.hh"

namespace ccsim::dram {

/** Physical organization of the DRAM system. */
struct DramOrg {
    int channels = 1;          ///< Independent memory channels.
    int ranksPerChannel = 1;   ///< Ranks sharing one channel bus.
    int banksPerRank = 8;      ///< Independent banks per rank.
    int rowsPerBank = 65536;   ///< Rows per bank.
    int rowBufferBytes = 8192; ///< Row buffer (page) size per rank row.

    /** Cache lines (kLineBytes, the access granularity) per row. */
    int columnsPerRow() const { return rowBufferBytes / kLineBytes; }

    /** Total capacity in bytes. */
    std::uint64_t
    capacityBytes() const
    {
        return static_cast<std::uint64_t>(channels) * ranksPerChannel *
               banksPerRank * rowsPerBank * rowBufferBytes;
    }
};

/** Timing parameters in tCK cycles (plus the clock period itself). */
struct DramTiming {
    double tCkNs = 1.25; ///< Command-bus clock period (ns).

    int tRCD = 11;  ///< ACT to RD/WR.
    int tCL = 11;   ///< RD to first data beat.
    int tCWL = 8;   ///< WR to first data beat.
    int tRP = 11;   ///< PRE to ACT.
    int tRAS = 28;  ///< ACT to PRE.
    int tBL = 4;    ///< Data burst duration (BL8 at DDR).
    int tCCD = 4;   ///< Column command to column command.
    int tRTP = 6;   ///< RD to PRE.
    int tWR = 12;   ///< End of write data to PRE.
    int tWTR = 6;   ///< End of write data to RD (same rank).
    int tRRD = 5;   ///< ACT to ACT, different banks, same rank.
    int tFAW = 24;  ///< Four-activate window per rank.
    int tRFC = 208; ///< REF to next command (same rank).
    int tRTRS = 2;  ///< Rank-to-rank data bus switch penalty.

    Cycle tREFI = 6250;     ///< Periodic refresh interval (64 ms / 8192).
    Cycle tREFW = 51200000; ///< Retention window (64 ms at 800 MHz).

    /** ACT to ACT, same bank. */
    int tRC() const { return tRAS + tRP; }
    /** Minimum RD to WR command spacing on one rank. */
    int readToWrite() const { return tCL + tBL + 2 - tCWL; }
    /** Minimum WR to RD command spacing on one rank. */
    int writeToRead() const { return tCWL + tBL + tWTR; }
    /** Minimum WR to PRE command spacing. */
    int writeToPre() const { return tCWL + tBL + tWR; }

    /** Convert nanoseconds to (ceiled) cycles. */
    int
    nsToCycles(double ns) const
    {
        return static_cast<int>(ns / tCkNs + 0.999999);
    }
    /** Convert cycles to nanoseconds. */
    double cyclesToNs(Cycle c) const { return c * tCkNs; }
    /** Convert milliseconds to cycles. */
    Cycle
    msToCycles(double ms) const
    {
        return static_cast<Cycle>(ms * 1.0e6 / tCkNs + 0.5);
    }
};

/** Full device specification. */
struct DramSpec {
    std::string name = "DDR3-1600";
    DramOrg org;
    DramTiming timing;

    /**
     * DDR3-1600 11-11-11, 4 Gb x8 devices, one rank of eight chips:
     * the baseline configuration of the ChargeCache paper (Table 1).
     */
    static DramSpec ddr3_1600(int channels = 1);

    /**
     * DDR4-2400 17-17-17 preset. Demonstrates Section 7.2 of the paper:
     * ChargeCache applies to any DDRx standard with explicit ACT/PRE.
     */
    static DramSpec ddr4_2400(int channels = 1);

    /** Sanity-check invariants; throws FatalError on nonsense configs. */
    void validate() const;
};

} // namespace ccsim::dram

#endif // CCSIM_DRAM_SPEC_HH
