#include "chargecache/hcrac.hh"

#include "resilience/serial.hh"

#include <algorithm>

#include "common/log.hh"

namespace ccsim::chargecache {

namespace {

/**
 * Snapshot layout of one table slot, shared by Hcrac entries and
 * UnlimitedHcrac slots: key u64 | stamp u64 | flag u8 | 7 zero bytes
 * (the offsets of the 24-byte structs earlier snapshots dumped raw).
 */
constexpr std::size_t kSlotBytes = 24;
constexpr std::size_t kSlotPad = kSlotBytes - 17; ///< After the flag.

void
putSlot(resilience::SnapshotWriter &w, std::uint64_t key,
        std::uint64_t stamp, bool flag)
{
    w.put(key);
    w.put(stamp);
    w.put(flag);
    w.putZeros(kSlotPad);
}

void
getSlot(resilience::SnapshotReader &r, std::uint64_t &key,
        std::uint64_t &stamp, bool &flag)
{
    r.get(key);
    r.get(stamp);
    r.get(flag);
    r.skip(kSlotPad);
}

/** Slot count of a table dump; refuses counts the payload cannot hold
    and, when `expect` is non-zero, any other count. */
std::size_t
getSlotCount(resilience::SnapshotReader &r, std::size_t expect)
{
    const std::uint64_t n = r.get<std::uint64_t>();
    if (n > r.remaining() / kSlotBytes || (expect && n != expect))
        throw resilience::SimError(resilience::ErrorKind::CorruptSnapshot,
                                   "snapshot HCRAC table holds " +
                                       std::to_string(n) + " slots");
    return static_cast<std::size_t>(n);
}

} // namespace

const char *
insertPolicyName(InsertPolicy policy)
{
    switch (policy) {
      case InsertPolicy::Lru:
        return "LRU";
      case InsertPolicy::Lip:
        return "LIP";
      case InsertPolicy::Bip:
        return "BIP";
    }
    return "?";
}

Hcrac::Hcrac(const Params &params)
    : ways_(params.ways),
      policy_(params.policy),
      bipEpsilon_(params.bipEpsilon),
      seed_(params.seed),
      rng_(params.seed)
{
    CCSIM_ASSERT(params.entries > 0 && params.ways > 0,
                 "HCRAC geometry must be positive");
    CCSIM_ASSERT(params.entries % params.ways == 0,
                 "HCRAC entries must divide into ways");
    sets_ = params.entries / params.ways;
    entries_.resize(static_cast<size_t>(params.entries));
}

std::size_t
Hcrac::setIndex(std::uint64_t key) const
{
    return static_cast<size_t>(mix64(key) % static_cast<std::uint64_t>(sets_));
}

Hcrac::Entry *
Hcrac::find(std::uint64_t key)
{
    Entry *set = &entries_[setIndex(key) * ways_];
    for (int w = 0; w < ways_; ++w)
        if (set[w].valid && set[w].key == key)
            return &set[w];
    return nullptr;
}

bool
Hcrac::lookup(std::uint64_t key)
{
    ++stats_.lookups;
    Entry *e = find(key);
    if (!e)
        return false;
    ++stats_.hits;
    e->stamp = ++clock_;
    return true;
}

void
Hcrac::insert(std::uint64_t key)
{
    ++stats_.inserts;
    if (Entry *e = find(key)) {
        // Row was precharged again: the entry is fresh; promote it.
        e->stamp = ++clock_;
        return;
    }
    Entry *set = &entries_[setIndex(key) * ways_];
    Entry *victim = nullptr;
    for (int w = 0; w < ways_; ++w) {
        if (!set[w].valid) {
            victim = &set[w];
            break;
        }
    }
    if (!victim) {
        victim = &set[0];
        for (int w = 1; w < ways_; ++w)
            if (set[w].stamp < victim->stamp)
                victim = &set[w];
        ++stats_.evictions;
    } else {
        ++valid_;
    }
    victim->valid = true;
    victim->key = key;
    switch (policy_) {
      case InsertPolicy::Lru:
        victim->stamp = ++clock_;
        break;
      case InsertPolicy::Lip:
        victim->stamp = 0; // LRU position: first out.
        break;
      case InsertPolicy::Bip:
        victim->stamp = rng_.chance(bipEpsilon_) ? ++clock_ : 0;
        break;
    }
}

void
Hcrac::invalidateEntry(std::size_t idx)
{
    CCSIM_ASSERT(idx < entries_.size(), "HCRAC sweep index out of range");
    if (entries_[idx].valid) {
        entries_[idx].valid = false;
        --valid_;
        ++stats_.sweepInvalidations;
    }
}

void
Hcrac::invalidateAll()
{
    for (auto &e : entries_)
        e.valid = false;
    valid_ = 0;
}

SweepInvalidator::SweepInvalidator(Cycle duration_cycles, int entries)
    : entries_(entries)
{
    CCSIM_ASSERT(entries > 0, "invalidator needs entries");
    period_ = std::max<Cycle>(1, duration_cycles / entries);
    nextDue_ = period_;
}

void
SweepInvalidator::advanceTo(Cycle now, Hcrac &cache)
{
    while (nextDue_ <= now) {
        cache.invalidateEntry(ec_);
        ec_ = (ec_ + 1) % static_cast<size_t>(entries_);
        nextDue_ += period_;
    }
}

UnlimitedHcrac::UnlimitedHcrac(Cycle duration_cycles)
    : duration_(duration_cycles), slots_(1024), mask_(slots_.size() - 1)
{
}

UnlimitedHcrac::Slot *
UnlimitedHcrac::find(std::uint64_t key)
{
    std::size_t idx = static_cast<std::size_t>(mix64(key)) & mask_;
    while (slots_[idx].key != kEmptyKey && slots_[idx].key != key)
        idx = (idx + 1) & mask_;
    return &slots_[idx];
}

void
UnlimitedHcrac::grow()
{
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.size() * 2, Slot());
    mask_ = slots_.size() - 1;
    for (const Slot &s : old) {
        if (s.key == kEmptyKey)
            continue;
        Slot *dst = find(s.key);
        *dst = s;
    }
}

void
UnlimitedHcrac::insert(std::uint64_t key, Cycle now)
{
    CCSIM_ASSERT(key != kEmptyKey, "unlimited HCRAC key collides with "
                                   "the empty-slot marker");
    Slot *slot = find(key);
    if (slot->key == kEmptyKey) {
        // Keep the load factor under ~70% so probes stay short.
        if ((count_ + 1) * 10 > slots_.size() * 7) {
            grow();
            slot = find(key);
        }
        slot->key = key;
        ++count_;
    }
    slot->stamp = now;
}

bool
UnlimitedHcrac::lookup(std::uint64_t key, Cycle now)
{
    ++stats_.lookups;
    Slot *slot = find(key);
    if (slot->key == kEmptyKey)
        return false;
    if (now - slot->stamp <= duration_) {
        ++stats_.hits;
        return true;
    }
    return false;
}

void
Hcrac::saveState(resilience::SnapshotWriter &w) const
{
    w.put<std::uint64_t>(entries_.size());
    for (const Entry &e : entries_)
        putSlot(w, e.key, e.stamp, e.valid);
    w.put(clock_);
    w.put(valid_);
    w.put(rng_.state());
    w.put(stats_);
}

void
Hcrac::loadState(resilience::SnapshotReader &r)
{
    getSlotCount(r, entries_.size());
    for (Entry &e : entries_)
        getSlot(r, e.key, e.stamp, e.valid);
    r.get(clock_);
    r.get(valid_);
    rng_.setState(r.get<std::array<std::uint64_t, 4>>());
    r.get(stats_);
}

void
SweepInvalidator::saveState(resilience::SnapshotWriter &w) const
{
    w.put(nextDue_);
    w.put<std::uint64_t>(ec_);
}

void
SweepInvalidator::loadState(resilience::SnapshotReader &r)
{
    r.get(nextDue_);
    ec_ = static_cast<std::size_t>(r.get<std::uint64_t>());
}

void
UnlimitedHcrac::saveState(resilience::SnapshotWriter &w) const
{
    // An unused slot keeps the {0, 0, unused} image older snapshots
    // hold.
    w.put<std::uint64_t>(slots_.size());
    for (const Slot &s : slots_) {
        const bool used = s.key != kEmptyKey;
        putSlot(w, used ? s.key : 0, s.stamp, used);
    }
    w.put<std::uint64_t>(mask_);
    w.put<std::uint64_t>(count_);
    w.put(stats_);
}

void
UnlimitedHcrac::loadState(resilience::SnapshotReader &r)
{
    slots_.assign(getSlotCount(r, 0), Slot());
    for (Slot &s : slots_) {
        std::uint64_t key = 0;
        bool used = false;
        getSlot(r, key, s.stamp, used);
        s.key = used ? key : kEmptyKey;
    }
    mask_ = static_cast<std::size_t>(r.get<std::uint64_t>());
    count_ = static_cast<std::size_t>(r.get<std::uint64_t>());
    if (slots_.empty() || mask_ != slots_.size() - 1 ||
        (slots_.size() & mask_) != 0)
        throw resilience::SimError(
            resilience::ErrorKind::CorruptSnapshot,
            "snapshot unlimited HCRAC table size is not a power of two");
    r.get(stats_);
}

} // namespace ccsim::chargecache
