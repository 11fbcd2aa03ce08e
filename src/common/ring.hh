/**
 * @file
 * Fixed-capacity FIFO ring for hot-path queues whose bound is known up
 * front (the core's instruction window and hit-return queue, a rank's
 * tFAW activate window). Storage is allocated once at construction, a
 * power of two wide so indexing is a mask; push/pop never allocate.
 * Snapshots use the same byte layout as a std::deque (count, then the
 * elements front to back; SnapshotWriter::putRing).
 */

#ifndef CCSIM_COMMON_RING_HH
#define CCSIM_COMMON_RING_HH

#include <cstddef>
#include <vector>

#include "common/log.hh"

namespace ccsim {

template <typename T>
class Ring
{
  public:
    explicit Ring(std::size_t capacity) : cap_(capacity)
    {
        CCSIM_ASSERT(capacity >= 1, "ring capacity must be positive");
        std::size_t width = 1;
        while (width < capacity)
            width <<= 1;
        buf_.resize(width);
        mask_ = width - 1;
    }

    std::size_t capacity() const { return cap_; }
    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }
    bool full() const { return size_ == cap_; }

    /** Element `i` counted from the front (i < size()). */
    T &operator[](std::size_t i) { return buf_[(head_ + i) & mask_]; }
    const T &
    operator[](std::size_t i) const
    {
        return buf_[(head_ + i) & mask_];
    }

    T &front() { return buf_[head_]; }
    const T &front() const { return buf_[head_]; }
    T &back() { return (*this)[size_ - 1]; }
    const T &back() const { return (*this)[size_ - 1]; }

    void
    push_back(const T &v)
    {
        CCSIM_ASSERT(size_ < cap_, "push onto a full ring");
        buf_[(head_ + size_) & mask_] = v;
        ++size_;
    }

    void
    pop_front()
    {
        head_ = (head_ + 1) & mask_;
        --size_;
    }

    void
    clear()
    {
        head_ = 0;
        size_ = 0;
    }

  private:
    std::vector<T> buf_;
    std::size_t mask_ = 0;
    std::size_t cap_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

} // namespace ccsim

#endif // CCSIM_COMMON_RING_HH
