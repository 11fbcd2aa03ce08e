/**
 * @file
 * Log2-bucketed histogram, the one statistics container shared by the
 * telemetry layer (src/obs/) and perfbench. Components keep their
 * counters in plain stat structs such as ctrl::CtrlStats.
 */

#ifndef CCSIM_COMMON_STATS_HH
#define CCSIM_COMMON_STATS_HH

#include <array>
#include <cstdint>

namespace ccsim {

/**
 * Log2-bucketed latency histogram. Bucket i holds values in
 * [2^(i-1), 2^i - 1] (bucket 0 holds exactly {0}, bucket 1 {1}), so a
 * 64-bit value always lands in one of 65 buckets and sample() is a
 * bit-width computation plus two increments — cheap enough for the
 * read-service and page-walk hot paths (src/obs/, docs/observability.md).
 */
class Histogram
{
  public:
    static constexpr int kBuckets = 65;

    void
    sample(std::uint64_t v)
    {
        ++buckets_[bucketOf(v)];
        ++count_;
        sum_ += v;
    }

    void reset();
    void merge(const Histogram &other);

    std::uint64_t count() const { return count_; }
    std::uint64_t sum() const { return sum_; }
    double mean() const { return count_ ? double(sum_) / count_ : 0.0; }
    std::uint64_t bucketCount(int i) const { return buckets_[i]; }

    /** Bucket index a value falls into: 0 for 0, else bit_width(v). */
    static int
    bucketOf(std::uint64_t v)
    {
        int w = 0;
        while (v) {
            ++w;
            v >>= 1;
        }
        return w;
    }

    /** Inclusive value range covered by bucket i. */
    static std::uint64_t
    bucketLo(int i)
    {
        return i <= 1 ? static_cast<std::uint64_t>(i)
                      : (std::uint64_t(1) << (i - 1));
    }

    static std::uint64_t
    bucketHi(int i)
    {
        return i == 0 ? 0
               : i >= 64 ? ~std::uint64_t(0)
                         : (std::uint64_t(1) << i) - 1;
    }

    /**
     * Upper bound of the bucket containing the p-quantile (p in [0,1]);
     * 0 when empty. A log2 histogram can only answer within a bucket,
     * so this is a conservative (over-)estimate of the true quantile.
     */
    std::uint64_t percentileUpperBound(double p) const;

    /** Raw state access for checkpoint serialization (src/obs/). */
    const std::array<std::uint64_t, kBuckets> &buckets() const
    {
        return buckets_;
    }
    void
    restore(const std::array<std::uint64_t, kBuckets> &buckets,
            std::uint64_t count, std::uint64_t sum)
    {
        buckets_ = buckets;
        count_ = count;
        sum_ = sum;
    }

  private:
    std::array<std::uint64_t, kBuckets> buckets_{};
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
};

} // namespace ccsim

#endif // CCSIM_COMMON_STATS_HH
