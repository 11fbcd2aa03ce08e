/**
 * @file
 * Fundamental integral types shared across the simulator.
 *
 * Unless otherwise noted, `Cycle` values are in DRAM bus cycles (one per
 * command-bus slot, e.g. 1.25 ns for DDR3-1600) and `CpuCycle` values are
 * in processor core cycles (e.g. 0.25 ns at 4 GHz).
 */

#ifndef CCSIM_COMMON_TYPES_HH
#define CCSIM_COMMON_TYPES_HH

#include <cstdint>
#include <limits>

namespace ccsim {

/** Physical byte address (also used for cache-line-aligned addresses). */
using Addr = std::uint64_t;

/** DRAM bus clock cycle count. */
using Cycle = std::uint64_t;

/** CPU core clock cycle count. */
using CpuCycle = std::uint64_t;

/** Sentinel for "no cycle"/"not scheduled". */
inline constexpr Cycle kNoCycle = std::numeric_limits<Cycle>::max();

/** Sentinel for an invalid address. */
inline constexpr Addr kNoAddr = std::numeric_limits<Addr>::max();

/** Integer log2 for exact powers of two; returns -1 otherwise. */
constexpr int
log2Exact(std::uint64_t v)
{
    if (v == 0 || (v & (v - 1)) != 0)
        return -1;
    int n = 0;
    while (v > 1) {
        v >>= 1;
        ++n;
    }
    return n;
}

/** Ceiling log2 (bits needed to index `v` items); log2Ceil(1) == 0. */
constexpr int
log2Ceil(std::uint64_t v)
{
    int n = 0;
    std::uint64_t p = 1;
    while (p < v) {
        p <<= 1;
        ++n;
    }
    return n;
}

/** True if `v` is a power of two (and non-zero). */
constexpr bool
isPow2(std::uint64_t v)
{
    return v != 0 && (v & (v - 1)) == 0;
}

/**
 * Cache-line size (Table 1): the LLC line, the DRAM access granularity
 * and the page walker's PTE fetch unit. A line address is a byte
 * address shifted right by kLineShift.
 */
inline constexpr int kLineBytes = 64;
inline constexpr int kLineShift = log2Exact(kLineBytes);
static_assert(kLineShift > 0, "the line size must be a power of two");

/** Count trailing zero bits; `v` must be non-zero. */
inline int
ctz64(std::uint64_t v)
{
#if defined(__GNUC__) || defined(__clang__)
    return __builtin_ctzll(v);
#else
    int n = 0;
    while (!(v & 1)) {
        v >>= 1;
        ++n;
    }
    return n;
#endif
}

} // namespace ccsim

#endif // CCSIM_COMMON_TYPES_HH
