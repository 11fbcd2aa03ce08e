#include "vm/page_table.hh"

#include <algorithm>
#include <utility>
#include <vector>

#include "resilience/serial.hh"

#include "common/log.hh"

namespace ccsim::vm {

namespace {

/** log2 of the PTEs one line holds. */
constexpr int kPteShift = log2Exact(kLineBytes / PageTable::kPteBytes);
static_assert(kPteShift >= 0, "a line must hold a power-of-two of PTEs");

} // namespace

PageTable::PageTable(int levels, Addr pool_base_line,
                     std::uint64_t pool_pages)
    : levels_(levels), poolBaseLine_(pool_base_line),
      poolPages_(pool_pages)
{
    CCSIM_ASSERT(levels >= 1 && levels <= 4, "bad radix depth");
    CCSIM_ASSERT(pool_pages > 0, "empty page-table pool");
}

Addr
PageTable::pteLineFor(Addr vpn, int level)
{
    CCSIM_ASSERT(level >= 0 && level < levels_, "walk level out of range");
    // The table consulted at `level` is identified by the vpn bits
    // above this level's 9-bit index; the root (level 0) has id 0 for
    // any vpn that fits the modeled address width.
    std::uint64_t table_id = vpn >> (kIndexBits * (levels_ - level));
    std::uint64_t entry =
        (vpn >> (kIndexBits * (levels_ - 1 - level))) & 511u;
    std::uint64_t key =
        (static_cast<std::uint64_t>(level) << 58) | table_id;
    auto [it, inserted] = tables_.try_emplace(key, nextFrame_);
    if (inserted)
        nextFrame_ = (nextFrame_ + 1) % poolPages_;
    std::uint64_t frame = it->second;
    return poolBaseLine_ + frame * kLinesPerTable + (entry >> kPteShift);
}


void
PageTable::saveState(resilience::SnapshotWriter &w) const
{
    w.put(nextFrame_);
    std::vector<std::pair<std::uint64_t, std::uint64_t>> sorted(
        tables_.begin(), tables_.end());
    std::sort(sorted.begin(), sorted.end());
    w.putVec(sorted);
}

void
PageTable::loadState(resilience::SnapshotReader &r)
{
    r.get(nextFrame_);
    std::vector<std::pair<std::uint64_t, std::uint64_t>> sorted;
    r.getVec(sorted);
    tables_.clear();
    tables_.insert(sorted.begin(), sorted.end());
}

} // namespace ccsim::vm
