/**
 * @file
 * Scalar accumulators and histograms used by the simulator statistics.
 */

#ifndef HP_STATS_HISTOGRAM_HH
#define HP_STATS_HISTOGRAM_HH

#include <cstdint>
#include <vector>

#include "util/serialize.hh"

namespace hp
{

/** Running count/sum/mean accumulator for a scalar sample stream.
 *  Never behind a registered counter: its double sum depends on the
 *  base it starts from (DESIGN.md §7). */
class Accumulator
{
  public:
    void
    sample(double value)
    {
        ++count_;
        sum_ += value;
    }

    std::uint64_t count() const { return count_; }
    double sum() const { return sum_; }
    double mean() const { return count_ ? sum_ / count_ : 0.0; }

    void
    reset()
    {
        count_ = 0;
        sum_ = 0.0;
    }

  private:
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
};

/**
 * Fixed-bucket histogram over [0, bucketWidth * numBuckets); samples
 * beyond the top bucket land in an overflow bucket.
 */
class Histogram
{
  public:
    Histogram(double bucket_width, std::size_t num_buckets);

    void sample(double value, std::uint64_t weight = 1);

    std::uint64_t count() const { return count_; }
    double mean() const { return count_ ? sum_ / count_ : 0.0; }

    /** Bucket population including the overflow bucket (last index). */
    const std::vector<std::uint64_t> &buckets() const { return buckets_; }

    /** Lower edge of bucket @p i. */
    double bucketLow(std::size_t i) const { return bucketWidth_ * i; }

    /** Smallest value v such that at least fraction @p q of samples <= v. */
    double percentile(double q) const;

    void reset();

    /** Serializes/restores bucket populations (width and bucket
     *  count are config). */
    template <class Ar>
    void
    serializeState(Ar &ar)
    {
        if (!checkShape(ar, buckets_, "histogram bucket count differs "
                                      "from its own"))
            return;
        ioElements(ar, buckets_);
        ar.value(count_);
        ar.value(sum_);
    }

  private:
    double bucketWidth_;
    std::vector<std::uint64_t> buckets_;
    std::uint64_t count_ = 0;
    double sum_ = 0.0;
};

} // namespace hp

#endif // HP_STATS_HISTOGRAM_HH
