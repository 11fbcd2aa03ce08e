#include "dram/spec.hh"

#include "common/log.hh"
#include "resilience/error.hh"

namespace ccsim::dram {

DramSpec
DramSpec::ddr3_1600(int channels)
{
    DramSpec spec;
    spec.name = "DDR3-1600";
    spec.org.channels = channels;
    spec.org.ranksPerChannel = 1;
    spec.org.banksPerRank = 8;
    spec.org.rowsPerBank = 65536;
    spec.org.rowBufferBytes = 8192;
    // Timing defaults in DramTiming already encode DDR3-1600 11-11-11.
    spec.validate();
    return spec;
}

DramSpec
DramSpec::ddr4_2400(int channels)
{
    DramSpec spec;
    spec.name = "DDR4-2400";
    spec.org.channels = channels;
    spec.org.ranksPerChannel = 1;
    spec.org.banksPerRank = 16;
    spec.org.rowsPerBank = 32768;
    spec.org.rowBufferBytes = 8192;

    DramTiming &t = spec.timing;
    t.tCkNs = 1.0 / 1.2; // 1200 MHz command clock.
    t.tRCD = 17;
    t.tCL = 17;
    t.tCWL = 12;
    t.tRP = 17;
    t.tRAS = 39;
    t.tBL = 4;
    t.tCCD = 6; // tCCD_L
    t.tRTP = 9;
    t.tWR = 18;
    t.tWTR = 9; // tWTR_L
    t.tRRD = 6; // tRRD_L
    t.tFAW = 26;
    t.tRFC = 420;                       // 350 ns at 8 Gb.
    t.tREFW = t.msToCycles(64.0);       // 76.8e6 cycles at 1200 MHz.
    t.tREFI = t.tREFW / 8192;           // 7.8125 us.
    spec.validate();
    return spec;
}

void
DramSpec::validate() const
{
    if (org.channels < 1 || org.ranksPerChannel < 1 || org.banksPerRank < 1)
        throw resilience::SimError(
            resilience::ErrorKind::InvalidConfig,
            "DramSpec '" + name + "': organization must be positive");
    if (!isPow2(static_cast<std::uint64_t>(org.rowsPerBank)) ||
        !isPow2(static_cast<std::uint64_t>(org.banksPerRank)) ||
        !isPow2(static_cast<std::uint64_t>(org.channels)) ||
        !isPow2(static_cast<std::uint64_t>(org.ranksPerChannel)))
        throw resilience::SimError(
            resilience::ErrorKind::InvalidConfig,
            "DramSpec '" + name + "': org fields must be powers of 2");
    if (org.rowBufferBytes % kLineBytes != 0 ||
        !isPow2(static_cast<std::uint64_t>(org.columnsPerRow())))
        throw resilience::SimError(
            resilience::ErrorKind::InvalidConfig,
            "DramSpec '" + name + "': bad row buffer geometry");
    if (timing.tRAS <= timing.tRCD)
        throw resilience::SimError(
            resilience::ErrorKind::InvalidConfig,
            "DramSpec '" + name + "': tRAS must exceed tRCD");
    if (timing.tREFI == 0 || timing.tREFW == 0 ||
        timing.tREFW % timing.tREFI != 0)
        throw resilience::SimError(
            resilience::ErrorKind::InvalidConfig,
            "DramSpec '" + name + "': tREFW must be a multiple of tREFI");
    Cycle refs_per_window = timing.tREFW / timing.tREFI;
    if (static_cast<Cycle>(org.rowsPerBank) % refs_per_window != 0)
        throw resilience::SimError(
            resilience::ErrorKind::InvalidConfig,
            "DramSpec '" + name + "': rowsPerBank must divide evenly into refresh bins");
}

} // namespace ccsim::dram
