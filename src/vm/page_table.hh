/**
 * @file
 * Radix page table modeled after x86-64 4-level walks.
 *
 * Each level's table is one 4 KB frame of 512 eight-byte entries; the
 * virtual page number splits into 9-bit indices from the root down
 * (PML4 → PDPT → PD → PT for 4 KB pages; walks for 2 MB huge pages
 * stop one level earlier at the PD). Table frames are allocated on
 * demand, sequentially, from a reserved page-table pool at the top of
 * the owning core's physical region — so PTE fetches land in DRAM rows
 * of their own, distinct from data rows, and charge the HCRAC exactly
 * like data traffic does.
 *
 * Only PTE *addresses* are modeled (the simulator carries no data):
 * `pteLineFor` yields the physical cache-line address the walker must
 * fetch for a given (vpn, level), allocating intermediate table frames
 * the first time a walk touches them. Allocation order follows walk
 * order, which is deterministic and kernel-invariant.
 */

#ifndef CCSIM_VM_PAGE_TABLE_HH
#define CCSIM_VM_PAGE_TABLE_HH

#include <cstdint>
#include <unordered_map>

#include "common/types.hh"

namespace ccsim::resilience {
class SnapshotWriter;
class SnapshotReader;
} // namespace ccsim::resilience

namespace ccsim::vm {

class PageTable
{
  public:
    static constexpr int kIndexBits = 9;   ///< 512 entries per table.
    static constexpr int kPteBytes = 8;    ///< x86-64 PTE size.
    static constexpr int kTableBytes = 4096;
    /** Cache lines per table frame; a PTE fetch reads one line. */
    static constexpr int kLinesPerTable = kTableBytes / kLineBytes;

    /**
     * @param levels radix depth (4 for 4 KB pages, 3 for 2 MB).
     * @param pool_base_line first line of the page-table frame pool.
     * @param pool_pages 4 KB frames available for tables (wraps when
     *        exhausted; a few MB of tables map many GB of footprint).
     */
    PageTable(int levels, Addr pool_base_line, std::uint64_t pool_pages);

    /**
     * Physical line address of the PTE consulted at walk `level`
     * (0 = root) for `vpn`. Allocates the level's table frame on first
     * touch.
     */
    Addr pteLineFor(Addr vpn, int level);

    int levels() const { return levels_; }

    /** Distinct table frames allocated so far (all levels). */
    std::uint64_t tablesAllocated() const { return tables_.size(); }

    /** Checkpoint: allocation cursor + the (lookup-only, key-sorted)
        table map. */
    void saveState(resilience::SnapshotWriter &w) const;
    void loadState(resilience::SnapshotReader &r);

  private:
    int levels_;
    Addr poolBaseLine_;
    std::uint64_t poolPages_;
    std::uint64_t nextFrame_ = 0;
    /** (level, table-id) -> pool-relative table frame. */
    std::unordered_map<std::uint64_t, std::uint64_t> tables_;
};

} // namespace ccsim::vm

#endif // CCSIM_VM_PAGE_TABLE_HH
