#include "common/stats.hh"

#include <cmath>

namespace ccsim {

void
Histogram::reset()
{
    buckets_.fill(0);
    count_ = 0;
    sum_ = 0;
}

void
Histogram::merge(const Histogram &other)
{
    for (int i = 0; i < kBuckets; ++i)
        buckets_[i] += other.buckets_[i];
    count_ += other.count_;
    sum_ += other.sum_;
}

std::uint64_t
Histogram::percentileUpperBound(double p) const
{
    if (count_ == 0)
        return 0;
    if (p < 0.0)
        p = 0.0;
    if (p > 1.0)
        p = 1.0;
    // 1-based rank of the p-quantile: the smallest rank covering a p
    // fraction of the samples, i.e. ceil(p * count). Truncating here
    // instead of ceiling returned the bucket *below* the true quantile
    // whenever p * count was fractional (count=5, p=0.5 gave rank 2,
    // not the median's rank 3).
    std::uint64_t rank = static_cast<std::uint64_t>(
        std::ceil(p * static_cast<double>(count_)));
    if (rank < 1)
        rank = 1;
    if (rank > count_)
        rank = count_;
    std::uint64_t seen = 0;
    for (int i = 0; i < kBuckets; ++i) {
        seen += buckets_[i];
        if (seen >= rank)
            return bucketHi(i);
    }
    return bucketHi(kBuckets - 1);
}

} // namespace ccsim
