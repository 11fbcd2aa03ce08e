/**
 * @file
 * The LLC's miss-status holding registers, keyed by line address: an
 * open-addressed table (linear probing, backward-shift erase) whose
 * slots own their waiter vectors for the table's lifetime. Erasing
 * clears a slot's waiters without freeing them, so once every slot has
 * seen a miss or two the miss path allocates nothing.
 */

#ifndef CCSIM_MEM_MSHR_TABLE_HH
#define CCSIM_MEM_MSHR_TABLE_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/types.hh"

namespace ccsim::mem {

/** One outstanding line fetch and the accesses waiting on it. */
struct MshrEntry {
    struct Waiter {
        int core;
        std::uint64_t token;
        bool isWrite;
    };
    std::vector<Waiter> waiters;
    bool issued = false; ///< Fetch accepted by the controller.
    bool isPtw = false;  ///< Fetch is a page-table-walker read.
    std::int8_t ptwLevel = -1; ///< Walk level of a PTW fetch.
};

class MshrTable
{
  public:
    MshrTable();

    /** Entry for `line`, or null. Valid until the next insert/erase. */
    MshrEntry *find(Addr line);

    /**
     * Add an entry for `line` (must be absent and not kNoAddr): flags
     * reset, waiters empty. Valid until the next insert/erase.
     */
    MshrEntry &insert(Addr line);

    /** Remove `line`'s entry (must be present). */
    void erase(Addr line);

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    /** Table width (grows to keep the load factor at most 1/2). */
    std::size_t slotCount() const { return keys_.size(); }

    void clear();

    /** Visit every (line, entry) pair, in table order. */
    template <typename F>
    void
    forEach(F &&f) const
    {
        for (std::size_t i = 0; i < keys_.size(); ++i)
            if (keys_[i] != kNoAddr)
                f(keys_[i], entries_[i]);
    }

  private:
    std::size_t home(Addr line) const;
    void grow();

    std::vector<Addr> keys_; ///< kNoAddr marks a free slot.
    std::vector<MshrEntry> entries_;
    std::size_t mask_ = 0;
    std::size_t size_ = 0;
};

} // namespace ccsim::mem

#endif // CCSIM_MEM_MSHR_TABLE_HH
