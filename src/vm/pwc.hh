/**
 * @file
 * Page-walk cache: a small per-core cache of upper-level PTEs that
 * lets the radix walker skip the fetches of levels it has seen
 * recently — only uncached levels issue LLC/DRAM reads.
 *
 * One set-associative LRU array per upper walk level (every level but
 * the leaf), tagged by (asid, table prefix): the level-k entry caches
 * the pointer to the level-(k+1) table for the vpn bits above level
 * k's 9-bit index — the split-PWC design of real x86 MMUs (and of the
 * translation stacks in Virtuoso/Sniper). A walk consults the PWC once
 * at start, from the deepest upper level up, and begins fetching at
 * the first uncached level; every upper-level PTE that does get
 * fetched is filled back in.
 *
 * The PWC is core-local state consulted at deterministic points of the
 * core's issue stream, so it needs no cross-kernel machinery: all
 * three kernels see identical hit/miss sequences by construction.
 */

#ifndef CCSIM_VM_PWC_HH
#define CCSIM_VM_PWC_HH

#include <array>
#include <vector>

#include "common/types.hh"
#include "vm/page_table.hh"
#include "vm/tlb.hh"
#include "vm/vm_config.hh"

namespace ccsim::resilience {
class SnapshotWriter;
class SnapshotReader;
} // namespace ccsim::resilience

namespace ccsim::vm {

class Pwc
{
  public:
    static constexpr int kMaxLevels = 4;

    /** @param levels radix depth of the walker this PWC fronts. */
    Pwc(const PwcConfig &config, int levels);

    /**
     * Deepest upper level whose entry for `vpn` is cached (walks may
     * then start at that level + 1), or -1 on a complete miss. Counts
     * one lookup and at most one per-level hit.
     */
    int deepestCachedLevel(Addr vpn, std::uint32_t asid);

    /** Fill the level-`level` entry covering `vpn` (upper levels only). */
    void fill(Addr vpn, int level, std::uint32_t asid);

    /** Drop everything (context switch without ASID tags). */
    void flush();

    struct Stats {
        std::uint64_t lookups = 0; ///< Walks that consulted the PWC.
        /** Hits by the level they were satisfied at (upper levels). */
        std::array<std::uint64_t, kMaxLevels> hitsByLevel{};
        std::uint64_t skippedFetches = 0; ///< PTE reads avoided.
    };

    const Stats &stats() const { return stats_; }
    void resetStats() { stats_ = Stats(); }

    int upperLevels() const { return levels_ - 1; }

    /** Checkpoint: every per-level array + counters. */
    void saveState(resilience::SnapshotWriter &w) const;
    void loadState(resilience::SnapshotReader &r);

  private:
    /** Tag for level `l`: the vpn bits above that level's index. */
    Addr
    prefixOf(Addr vpn, int level) const
    {
        return vpn >> (PageTable::kIndexBits * (levels_ - 1 - level));
    }

    int levels_;
    std::vector<TlbArray> arrays_; ///< One per upper level.
    Stats stats_;
};

} // namespace ccsim::vm

#endif // CCSIM_VM_PWC_HH
