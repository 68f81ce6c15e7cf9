/**
 * @file
 * Unit tests for per-request latency accounting
 * (workload/latency_tracker.hh): the nearest-rank percentile against
 * a plain sort reference (ties and single-sample edges included),
 * the Lindley recurrence on hand-built request streams with known
 * answers, fast-forward drop handling, window merging, and the
 * registry-delta report path.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <vector>

#include "util/rng.hh"
#include "util/serialize.hh"
#include "workload/latency_tracker.hh"

namespace hp
{
namespace
{

/** Reference implementation: full sort, rank ceil(q*n). */
std::uint64_t
sortedPercentile(std::vector<std::uint64_t> samples, double q)
{
    std::sort(samples.begin(), samples.end());
    std::size_t rank = static_cast<std::size_t>(
        std::ceil(q * double(samples.size())));
    rank = std::max<std::size_t>(rank, 1);
    rank = std::min(rank, samples.size());
    return samples[rank - 1];
}

TEST(LatencyPercentileTest, MatchesSortReference)
{
    Rng rng(7);
    const double qs[] = {0.01, 0.25, 0.5, 0.9, 0.99, 0.999, 1.0};
    for (std::size_t n : {1u, 2u, 3u, 10u, 101u, 1000u}) {
        std::vector<std::uint64_t> samples;
        for (std::size_t i = 0; i < n; ++i)
            samples.push_back(rng.nextUint(50)); // dense ties
        for (double q : qs) {
            EXPECT_EQ(latencyPercentile(samples, q),
                      sortedPercentile(samples, q))
                << "n=" << n << " q=" << q;
        }
    }
}

TEST(LatencyPercentileTest, ExactOnTies)
{
    // 10 samples: rank(0.5)=5 -> 2, rank(0.9)=9 -> 9, rank(0.99|1)=10.
    const std::vector<std::uint64_t> v = {2, 2, 2, 2, 2,
                                          9, 9, 9, 9, 100};
    EXPECT_EQ(latencyPercentile(v, 0.5), 2u);
    EXPECT_EQ(latencyPercentile(v, 0.9), 9u);
    EXPECT_EQ(latencyPercentile(v, 0.99), 100u);
    EXPECT_EQ(latencyPercentile(v, 1.0), 100u);
}

TEST(LatencyPercentileTest, SingleSampleIsEveryPercentile)
{
    const std::vector<std::uint64_t> v = {42};
    EXPECT_EQ(latencyPercentile(v, 0.5), 42u);
    EXPECT_EQ(latencyPercentile(v, 0.99), 42u);
    EXPECT_EQ(latencyPercentile(v, 0.999), 42u);
}

TEST(LatencyPercentileTest, EmptyIsZero)
{
    EXPECT_EQ(latencyPercentile({}, 0.5), 0u);
}

/** Pushes one request through the tracker: arrival on the arrival
 *  clock, a [begin, end] commit-cycle span. */
void
pushRequest(LatencyTracker &t, std::uint64_t arrival,
            std::uint64_t begin, std::uint64_t end,
            bool begin_detailed = true, bool end_detailed = true)
{
    t.onGenerated(arrival);
    t.onBegin(begin, begin_detailed);
    t.onEnd(end, end_detailed);
}

TEST(LatencyTrackerTest, IdleServerLatencyEqualsService)
{
    LatencyTracker t;
    t.beginRecording();
    // Arrivals far apart: no queueing, latency == service time.
    pushRequest(t, 0, 5000, 5100);
    pushRequest(t, 10'000, 15'000, 15'250);
    StatsRegistry reg;
    t.registerStats(reg);
    const LatencyReport rep = t.report(reg.snapshot());
    EXPECT_EQ(rep.completed, 2u);
    ASSERT_EQ(rep.latencySamples.size(), 2u);
    EXPECT_EQ(rep.latencySamples[0], 100u);
    EXPECT_EQ(rep.latencySamples[1], 250u);
    EXPECT_EQ(rep.serviceSamples, rep.latencySamples);
    EXPECT_EQ(rep.queueDepthSum, 0u);
    EXPECT_EQ(rep.queueDepthMax, 0u);
}

TEST(LatencyTrackerTest, LindleyRecurrenceOnBurst)
{
    // Three arrivals at 0/10/20, each needing 100 cycles of service:
    //   r1: start 0,   finish 100, latency 100, depth 0
    //   r2: start 100, finish 200, latency 190, depth 1
    //   r3: start 200, finish 300, latency 280, depth 2
    LatencyTracker t;
    t.beginRecording();
    pushRequest(t, 0, 5000, 5100);
    pushRequest(t, 10, 5100, 5200);
    pushRequest(t, 20, 5200, 5300);
    StatsRegistry reg;
    t.registerStats(reg);
    const LatencyReport rep = t.report(reg.snapshot());
    EXPECT_EQ(rep.generated, 3u);
    EXPECT_EQ(rep.completed, 3u);
    EXPECT_EQ(rep.dropped, 0u);
    const std::vector<std::uint64_t> want = {100, 190, 280};
    EXPECT_EQ(rep.latencySamples, want);
    EXPECT_EQ(rep.latencyCycles, 570u);
    EXPECT_EQ(rep.serviceCycles, 300u);
    EXPECT_EQ(rep.queueDepthSum, 3u); // 0 + 1 + 2
    EXPECT_EQ(rep.queueDepthMax, 2u);
    EXPECT_EQ(rep.p50(), 190u);
    EXPECT_EQ(rep.p99(), 280u);
    EXPECT_DOUBLE_EQ(rep.meanLatency(), 190.0);
    EXPECT_DOUBLE_EQ(rep.queueDepthMean(), 1.0);
}

TEST(LatencyTrackerTest, QueueDrainsWhenArrivalsSpreadOut)
{
    LatencyTracker t;
    t.beginRecording();
    pushRequest(t, 0, 5000, 5100);  // finish 100
    pushRequest(t, 10, 5100, 5200); // finish 200, depth 1
    // Arrives after both finishes: the queue probe prunes them.
    pushRequest(t, 1000, 5200, 5300); // latency == service, depth 0
    StatsRegistry reg;
    t.registerStats(reg);
    const LatencyReport rep = t.report(reg.snapshot());
    ASSERT_EQ(rep.latencySamples.size(), 3u);
    EXPECT_EQ(rep.latencySamples[2], 100u);
    EXPECT_EQ(rep.queueDepthSum, 1u);
}

TEST(LatencyTrackerTest, FastForwardSpansDropAndResetRecurrence)
{
    LatencyTracker t;
    t.beginRecording();
    // Begin swallowed by FF: dropped, no sample recorded.
    pushRequest(t, 0, 5000, 5100, /*begin_detailed=*/false);
    // End swallowed by FF: also dropped.
    pushRequest(t, 50, 5100, 5200, true, /*end_detailed=*/false);
    // The recurrence restarted at the dropped arrivals, so this
    // request sees an idle server again: latency == service.
    pushRequest(t, 100, 5200, 5275);
    StatsRegistry reg;
    t.registerStats(reg);
    const LatencyReport rep = t.report(reg.snapshot());
    EXPECT_EQ(rep.generated, 3u);
    EXPECT_EQ(rep.completed, 1u);
    EXPECT_EQ(rep.dropped, 2u);
    ASSERT_EQ(rep.latencySamples.size(), 1u);
    EXPECT_EQ(rep.latencySamples[0], 75u);
}

TEST(LatencyTrackerTest, ReportDeltaExcludesWarmupCompletions)
{
    LatencyTracker t;
    StatsRegistry reg;
    t.registerStats(reg);
    // Two warmup completions before measurement begins.
    pushRequest(t, 0, 5000, 5100);
    pushRequest(t, 1000, 6000, 6100);
    const StatsSnapshot warm = reg.snapshot();
    t.beginRecording();
    pushRequest(t, 2000, 7000, 7050);
    const LatencyReport rep =
        t.report(StatsSnapshot::delta(reg.snapshot(), warm));
    EXPECT_EQ(rep.generated, 1u);
    EXPECT_EQ(rep.completed, 1u);
    EXPECT_EQ(rep.latencyCycles, 50u);
    ASSERT_EQ(rep.latencySamples.size(), 1u);
    EXPECT_EQ(rep.latencySamples[0], 50u);
}

TEST(LatencyTrackerTest, SerializedStateResumesQueueExactly)
{
    // Queue up two unfinished-by-arrival requests, snapshot the
    // tracker mid-stream, and restore it into a tracker that has
    // already completed a request of its own: the copy continues the
    // recurrence with the same samples and counter deltas as the
    // original. The restore leaves the counters where they were.
    LatencyTracker a;
    pushRequest(a, 0, 5000, 5100);
    pushRequest(a, 10, 5100, 5200);
    a.onGenerated(20); // pending, not yet begun
    StateWriter writer;
    a.serializeState(writer);

    LatencyTracker b;
    pushRequest(b, 0, 100, 400);
    StatsRegistry reg_b;
    b.registerStats(reg_b);
    const StatsSnapshot used = reg_b.snapshot();
    const std::vector<std::uint8_t> bytes = writer.take();
    StateLoader loader(bytes.data(), bytes.size());
    b.serializeState(loader);
    ASSERT_FALSE(loader.failed());
    EXPECT_EQ(reg_b.snapshot().entries(), used.entries());

    auto finish = [](LatencyTracker &t) {
        StatsRegistry reg;
        t.registerStats(reg);
        const StatsSnapshot begin = reg.snapshot();
        t.beginRecording();
        t.onBegin(5200, true);
        t.onEnd(5300, true);
        return t.report(StatsSnapshot::delta(reg.snapshot(), begin));
    };
    const LatencyReport ra = finish(a);
    const LatencyReport rb = finish(b);
    ASSERT_EQ(ra.latencySamples.size(), 1u);
    EXPECT_EQ(ra.latencySamples, rb.latencySamples);
    EXPECT_EQ(ra.latencySamples[0], 280u); // queued behind finish 200
    EXPECT_EQ(ra.completed, 1u);
    EXPECT_EQ(rb.completed, 1u);
    EXPECT_EQ(ra.latencyCycles, rb.latencyCycles);
    EXPECT_EQ(ra.queueDepthSum, 2u);
    EXPECT_EQ(rb.queueDepthSum, 2u);
}

TEST(LatencyReportTest, MergeAccumulatesWindows)
{
    LatencyReport a;
    a.generated = 3;
    a.completed = 2;
    a.dropped = 1;
    a.latencyCycles = 300;
    a.serviceCycles = 200;
    a.queueDepthSum = 4;
    a.queueDepthMax = 3;
    a.latencySamples = {100, 200};
    a.serviceSamples = {90, 110};

    LatencyReport b;
    b.generated = 2;
    b.completed = 2;
    b.latencyCycles = 500;
    b.serviceCycles = 400;
    b.queueDepthSum = 1;
    b.queueDepthMax = 1;
    b.latencySamples = {150, 350};
    b.serviceSamples = {150, 250};

    LatencyReport sum;
    mergeLatency(sum, a);
    mergeLatency(sum, b);
    EXPECT_EQ(sum.generated, 5u);
    EXPECT_EQ(sum.completed, 4u);
    EXPECT_EQ(sum.dropped, 1u);
    EXPECT_EQ(sum.latencyCycles, 800u);
    EXPECT_EQ(sum.serviceCycles, 600u);
    EXPECT_EQ(sum.queueDepthSum, 5u);
    EXPECT_EQ(sum.queueDepthMax, 3u); // max, not sum
    const std::vector<std::uint64_t> want = {100, 200, 150, 350};
    EXPECT_EQ(sum.latencySamples, want);
    EXPECT_EQ(sum.p50(), 150u);
}

TEST(LatencyReportTest, EmptyReportIsAllZeros)
{
    const LatencyReport rep;
    EXPECT_EQ(rep.p50(), 0u);
    EXPECT_EQ(rep.p999(), 0u);
    EXPECT_DOUBLE_EQ(rep.meanLatency(), 0.0);
    EXPECT_DOUBLE_EQ(rep.queueDepthMean(), 0.0);
}

} // namespace
} // namespace hp
