#include "mem/mshr_table.hh"

#include <utility>

#include "common/log.hh"
#include "common/random.hh"

namespace ccsim::mem {

namespace {
constexpr std::size_t kInitialSlots = 16;
} // namespace

MshrTable::MshrTable()
    : keys_(kInitialSlots, kNoAddr),
      entries_(kInitialSlots),
      mask_(kInitialSlots - 1)
{
}

std::size_t
MshrTable::home(Addr line) const
{
    return static_cast<std::size_t>(mix64(line)) & mask_;
}

MshrEntry *
MshrTable::find(Addr line)
{
    for (std::size_t i = home(line);; i = (i + 1) & mask_) {
        if (keys_[i] == kNoAddr)
            return nullptr;
        if (keys_[i] == line)
            return &entries_[i];
    }
}

MshrEntry &
MshrTable::insert(Addr line)
{
    CCSIM_ASSERT(line != kNoAddr, "kNoAddr marks free MSHR slots");
    if (2 * (size_ + 1) > keys_.size())
        grow();
    std::size_t i = home(line);
    for (; keys_[i] != kNoAddr; i = (i + 1) & mask_)
        CCSIM_ASSERT(keys_[i] != line, "duplicate MSHR");
    keys_[i] = line;
    ++size_;
    MshrEntry &e = entries_[i];
    e.issued = false;
    e.isPtw = false;
    e.ptwLevel = -1;
    return e;
}

void
MshrTable::erase(Addr line)
{
    std::size_t i = home(line);
    for (; keys_[i] != line; i = (i + 1) & mask_)
        CCSIM_ASSERT(keys_[i] != kNoAddr, "erasing an absent MSHR");
    entries_[i].waiters.clear(); // Keeps its capacity.
    // Backward shift: pull later members of the probe run into the
    // hole, so lookups never meet a tombstone. The entry at j may fill
    // hole i unless its home lies cyclically in (i, j].
    for (std::size_t j = (i + 1) & mask_; keys_[j] != kNoAddr;
         j = (j + 1) & mask_) {
        const std::size_t from_home = (j - home(keys_[j])) & mask_;
        if (from_home >= ((j - i) & mask_)) {
            keys_[i] = keys_[j];
            std::swap(entries_[i], entries_[j]);
            i = j;
        }
    }
    keys_[i] = kNoAddr;
    --size_;
}

void
MshrTable::clear()
{
    for (std::size_t i = 0; i < keys_.size(); ++i) {
        keys_[i] = kNoAddr;
        entries_[i].waiters.clear();
    }
    size_ = 0;
}

void
MshrTable::grow()
{
    std::vector<Addr> old_keys = std::move(keys_);
    std::vector<MshrEntry> old_entries = std::move(entries_);
    keys_.assign(old_keys.size() * 2, kNoAddr);
    entries_ = std::vector<MshrEntry>(keys_.size());
    mask_ = keys_.size() - 1;
    for (std::size_t k = 0; k < old_keys.size(); ++k) {
        if (old_keys[k] == kNoAddr)
            continue;
        std::size_t i = home(old_keys[k]);
        while (keys_[i] != kNoAddr)
            i = (i + 1) & mask_;
        keys_[i] = old_keys[k];
        entries_[i] = std::move(old_entries[k]);
    }
}

} // namespace ccsim::mem
