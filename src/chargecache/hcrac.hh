/**
 * @file
 * Highly-Charged Row Address Cache (HCRAC) and its periodic sweep
 * invalidator — the two hardware components of ChargeCache (Section 4.2
 * of the paper).
 *
 * The HCRAC is a tag-only set-associative cache of row addresses. The
 * paper's default is 128 entries, 2-way, LRU. Entries must be gone at
 * most `caching duration` after insertion; rather than per-entry expiry
 * timestamps, the paper uses two counters (IIC and EC) that sweep-
 * invalidate one entry every C/k cycles, guaranteeing every entry is
 * cleared at least once every C cycles (possibly prematurely, which is
 * safe). SweepInvalidator implements exactly that scheme.
 */

#ifndef CCSIM_CHARGECACHE_HCRAC_HH
#define CCSIM_CHARGECACHE_HCRAC_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/random.hh"
#include "common/types.hh"

namespace ccsim::resilience {
class SnapshotWriter;
class SnapshotReader;
} // namespace ccsim::resilience

namespace ccsim::chargecache {

/**
 * Insertion policy for the HCRAC.
 *
 * LRU is the paper's design. LIP/BIP are the thrash-resistant policies
 * the paper's Section 6.1 suggests as future work for high row-reuse-
 * distance applications (mcf, omnetpp).
 */
enum class InsertPolicy {
    Lru, ///< Insert at MRU (paper default).
    Lip, ///< Insert at LRU position (thrash-resistant).
    Bip, ///< LIP with occasional (epsilon) MRU insertion.
};

const char *insertPolicyName(InsertPolicy policy);

/** Tag-only set-associative cache of (rank, bank, row) keys. */
class Hcrac
{
  public:
    struct Params {
        int entries = 128;
        int ways = 2;
        InsertPolicy policy = InsertPolicy::Lru;
        double bipEpsilon = 1.0 / 32.0;
        std::uint64_t seed = 0x1234;
    };

    explicit Hcrac(const Params &params);

    /** Probe for `key`; a hit refreshes its recency. */
    bool lookup(std::uint64_t key);

    /**
     * Insert `key`. If already present the entry is promoted (the row
     * was re-precharged, so it is fresh again). Otherwise the victim in
     * the set is chosen by recency and may evict a valid entry.
     */
    void insert(std::uint64_t key);

    /** Invalidate the entry at linear index `idx` (EC sweep target). */
    void invalidateEntry(std::size_t idx);

    /** Invalidate everything. */
    void invalidateAll();

    int numEntries() const { return static_cast<int>(entries_.size()); }
    int numWays() const { return ways_; }
    int numSets() const { return sets_; }

    /** Count of currently valid entries (O(1); kept live). */
    int validCount() const { return valid_; }

    struct Stats {
        std::uint64_t lookups = 0;
        std::uint64_t hits = 0;
        std::uint64_t inserts = 0;
        std::uint64_t evictions = 0;   ///< Valid entries displaced.
        std::uint64_t sweepInvalidations = 0;
    };
    const Stats &stats() const { return stats_; }
    void resetStats() { stats_ = Stats(); }

    /**
     * Restart the BIP RNG from its seed, as a fresh table starts it.
     * Functional warming (trace/sampling.cc) inserts into the table
     * itself, so it calls this to keep the detailed run's draws
     * independent of how long the warm window was.
     */
    void restartRng() { rng_.reseed(seed_); }

    /** Checkpoint: entries, recency clock, RNG, statistics. */
    void saveState(resilience::SnapshotWriter &w) const;
    void loadState(resilience::SnapshotReader &r);

  private:
    struct Entry {
        std::uint64_t key = 0;
        std::uint64_t stamp = 0; ///< Recency; larger = more recent.
        bool valid = false;
    };

    std::size_t setIndex(std::uint64_t key) const;
    Entry *find(std::uint64_t key);

    int ways_;
    int sets_;
    InsertPolicy policy_;
    double bipEpsilon_;
    std::vector<Entry> entries_; ///< sets_ * ways_, set-major.
    std::uint64_t clock_ = 0;    ///< Recency stamp source.
    int valid_ = 0;              ///< Live count of valid entries.
    std::uint64_t seed_;         ///< Where restartRng() puts rng_.
    Rng rng_;
    Stats stats_;
};

/**
 * The paper's IIC/EC pair: every `duration / entries` cycles, invalidate
 * the next entry (round-robin). Guarantees no entry survives longer than
 * `duration` cycles.
 */
class SweepInvalidator
{
  public:
    /**
     * @param duration_cycles caching duration C, in the same clock the
     *        `advanceTo` cycle argument uses.
     * @param entries number of HCRAC entries k.
     */
    SweepInvalidator(Cycle duration_cycles, int entries);

    /** Run all sweeps due up to and including `now`. */
    void advanceTo(Cycle now, Hcrac &cache);

    Cycle period() const { return period_; }

    /** Checkpoint: sweep phase (nextDue_, EC). */
    void saveState(resilience::SnapshotWriter &w) const;
    void loadState(resilience::SnapshotReader &r);

  private:
    Cycle period_;
    Cycle nextDue_;
    std::size_t ec_ = 0; ///< Entry Counter.
    int entries_;
};

/**
 * Idealized unlimited-capacity HCRAC used for the dashed upper-bound
 * lines in Figure 9. Tracks exact per-row insertion time and applies the
 * duration check directly. Implemented as an open-addressed hash table
 * (linear probing, power-of-two capacity, grow-at-70%-load) — entries
 * are never removed, matching the idealized table's semantics.
 */
class UnlimitedHcrac
{
  public:
    explicit UnlimitedHcrac(Cycle duration_cycles);

    void insert(std::uint64_t key, Cycle now);
    bool lookup(std::uint64_t key, Cycle now);

    /** Number of distinct keys ever inserted. */
    std::size_t size() const { return count_; }

    struct Stats {
        std::uint64_t lookups = 0;
        std::uint64_t hits = 0;
    };
    const Stats &stats() const { return stats_; }
    void resetStats() { stats_ = Stats(); }

    /** Checkpoint: hash table contents + statistics. */
    void saveState(resilience::SnapshotWriter &w) const;
    void loadState(resilience::SnapshotReader &r);

  private:
    /** Key of an unused slot; rowKey() never produces it. */
    static constexpr std::uint64_t kEmptyKey = ~std::uint64_t(0);

    struct Slot {
        std::uint64_t key = kEmptyKey;
        Cycle stamp = 0;
    };

    Slot *find(std::uint64_t key);
    void grow();

    Cycle duration_;
    std::vector<Slot> slots_;
    std::size_t mask_;      ///< slots_.size() - 1 (power of two).
    std::size_t count_ = 0; ///< Used slots.
    Stats stats_;
};

} // namespace ccsim::chargecache

#endif // CCSIM_CHARGECACHE_HCRAC_HH
