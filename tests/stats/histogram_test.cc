#include <gtest/gtest.h>

#include "stats/histogram.hh"
#include "../test_helpers.hh"

namespace hp
{
namespace
{

TEST(AccumulatorTest, EmptyIsZero)
{
    Accumulator acc;
    EXPECT_EQ(acc.count(), 0u);
    EXPECT_DOUBLE_EQ(acc.sum(), 0.0);
    EXPECT_DOUBLE_EQ(acc.mean(), 0.0);
}

TEST(AccumulatorTest, TracksCountSumAndMean)
{
    Accumulator acc;
    acc.sample(2.0);
    acc.sample(4.0);
    acc.sample(9.0);
    EXPECT_EQ(acc.count(), 3u);
    EXPECT_DOUBLE_EQ(acc.sum(), 15.0);
    EXPECT_DOUBLE_EQ(acc.mean(), 5.0);
}

TEST(AccumulatorTest, NegativeValues)
{
    Accumulator acc;
    acc.sample(-5.0);
    acc.sample(5.0);
    EXPECT_DOUBLE_EQ(acc.mean(), 0.0);
    EXPECT_DOUBLE_EQ(acc.sum(), 0.0);
}

TEST(AccumulatorTest, ResetClears)
{
    Accumulator acc;
    acc.sample(1.0);
    acc.reset();
    EXPECT_EQ(acc.count(), 0u);
    acc.sample(7.0);
    EXPECT_DOUBLE_EQ(acc.mean(), 7.0);
}

TEST(HistogramTest, BucketsPopulateCorrectly)
{
    Histogram hist(10.0, 4); // [0,10) [10,20) [20,30) [30,40) overflow
    hist.sample(0.0);
    hist.sample(9.9);
    hist.sample(10.0);
    hist.sample(35.0);
    hist.sample(100.0); // overflow
    const auto &buckets = hist.buckets();
    ASSERT_EQ(buckets.size(), 5u);
    EXPECT_EQ(buckets[0], 2u);
    EXPECT_EQ(buckets[1], 1u);
    EXPECT_EQ(buckets[2], 0u);
    EXPECT_EQ(buckets[3], 1u);
    EXPECT_EQ(buckets[4], 1u);
    EXPECT_EQ(hist.count(), 5u);
}

TEST(HistogramTest, WeightedSamples)
{
    Histogram hist(1.0, 10);
    hist.sample(5.0, 7);
    EXPECT_EQ(hist.count(), 7u);
    EXPECT_EQ(hist.buckets()[5], 7u);
}

TEST(HistogramTest, MeanMatchesSamples)
{
    Histogram hist(1.0, 100);
    hist.sample(10.0);
    hist.sample(20.0);
    EXPECT_DOUBLE_EQ(hist.mean(), 15.0);
}

TEST(HistogramTest, NegativeSamplesLandInFirstBucket)
{
    Histogram hist(1.0, 4);
    hist.sample(-3.0);
    EXPECT_EQ(hist.buckets()[0], 1u);
}

TEST(HistogramTest, PercentileMonotonic)
{
    Histogram hist(1.0, 1000);
    for (int i = 0; i < 1000; ++i)
        hist.sample(double(i));
    double p50 = hist.percentile(0.5);
    double p90 = hist.percentile(0.9);
    double p99 = hist.percentile(0.99);
    EXPECT_LE(p50, p90);
    EXPECT_LE(p90, p99);
    EXPECT_NEAR(p50, 500.0, 10.0);
    EXPECT_NEAR(p90, 900.0, 10.0);
}

TEST(HistogramTest, PercentileEmpty)
{
    Histogram hist(1.0, 4);
    EXPECT_DOUBLE_EQ(hist.percentile(0.9), 0.0);
}

TEST(HistogramTest, ResetClears)
{
    Histogram hist(1.0, 4);
    hist.sample(2.0);
    hist.reset();
    EXPECT_EQ(hist.count(), 0u);
    EXPECT_EQ(hist.buckets()[2], 0u);
}

TEST(HistogramTest, RestoreRejectsAnotherBucketCount)
{
    // The bucket count is the histogram's own configuration: a blob of
    // another count must not resize it.
    Histogram from(1.0, 8);
    from.sample(3.0);
    Histogram into(1.0, 16);
    EXPECT_EQ(test::restoreError(into, test::saved(from)),
              "histogram bucket count differs from its own");
    EXPECT_EQ(into.buckets().size(), 17u);
}

} // namespace
} // namespace hp
