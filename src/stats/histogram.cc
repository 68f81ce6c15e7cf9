#include "stats/histogram.hh"

#include <algorithm>

#include "util/logging.hh"

namespace hp
{

Histogram::Histogram(double bucket_width, std::size_t num_buckets)
    : bucketWidth_(bucket_width), buckets_(num_buckets + 1, 0)
{
    fatalIf(bucket_width <= 0.0, "Histogram bucket width must be positive");
    fatalIf(num_buckets == 0, "Histogram needs at least one bucket");
}

void
Histogram::sample(double value, std::uint64_t weight)
{
    std::size_t index = buckets_.size() - 1;
    if (value >= 0.0) {
        auto raw = static_cast<std::size_t>(value / bucketWidth_);
        index = std::min(raw, buckets_.size() - 1);
    } else {
        index = 0;
    }
    buckets_[index] += weight;
    count_ += weight;
    sum_ += value * weight;
}

double
Histogram::percentile(double q) const
{
    if (count_ == 0)
        return 0.0;
    q = std::clamp(q, 0.0, 1.0);
    auto target = static_cast<std::uint64_t>(q * count_);
    std::uint64_t seen = 0;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
        seen += buckets_[i];
        if (seen >= target)
            return bucketLow(i + 1);
    }
    return bucketLow(buckets_.size());
}

void
Histogram::reset()
{
    std::fill(buckets_.begin(), buckets_.end(), 0);
    count_ = 0;
    sum_ = 0.0;
}

} // namespace hp
