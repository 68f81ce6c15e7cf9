/**
 * @file
 * Unit and property tests for request-span tail attribution
 * (obs/request_span.hh): the span table, the bounded top-K reservoir
 * against a sort-everything reference, the telescoping in-span/outside
 * partition of every table entry read through a registry, the cohort
 * arithmetic, the sampled-mode window merge, and an end-to-end
 * sampled scenario run.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "obs/obs.hh"
#include "obs/request_span.hh"
#include "sim/sampling.hh"
#include "sim/simulator.hh"
#include "stats/registry.hh"
#include "util/rng.hh"

namespace
{

using namespace hp;
using obs::RequestSpan;
using obs::RequestSpanTracker;
using obs::SpanCohort;
using obs::SpanCounters;
using obs::TailAttribution;
using obs::TailGroup;
using obs::kNumSpanCounters;
using obs::spanCounterIndex;
using obs::spanCounterTable;

/** A registry serving every span-table path from a plain counter, so
 *  a test moves the counters the tracker reads by hand. */
struct FakeCounters
{
    std::map<std::string, std::uint64_t> raw;
    StatsRegistry registry; ///< Its readers refer into raw.

    FakeCounters()
    {
        for (const obs::SpanCounterSpec &spec : spanCounterTable()) {
            for (const std::string &path : spec.paths) {
                std::uint64_t &value = raw[path];
                registry.add(path, [&value] { return value; });
            }
        }
    }
    FakeCounters(const FakeCounters &) = delete;
    FakeCounters &operator=(const FakeCounters &) = delete;

    /** Advances every path by a distinct amount, so a partition bug in
     *  any one path, the paths of a summed entry included, cannot
     *  cancel out. */
    void
    bump(std::uint64_t k)
    {
        std::uint64_t salt = 0;
        for (auto &[path, value] : raw) {
            value += k * (1 + salt % 5) + salt;
            ++salt;
        }
    }

    /** The table's values now, summed here independently of the
     *  tracker. */
    SpanCounters
    now() const
    {
        SpanCounters c{};
        for (std::size_t i = 0; i < kNumSpanCounters; ++i) {
            for (const std::string &path : spanCounterTable()[i].paths)
                c[i] += raw.at(path);
        }
        return c;
    }
};

SpanCounters
sum(const SpanCounters &a, const SpanCounters &b)
{
    SpanCounters c{};
    for (std::size_t i = 0; i < kNumSpanCounters; ++i)
        c[i] = a[i] + b[i];
    return c;
}

SpanCounters
diff(const SpanCounters &a, const SpanCounters &b)
{
    SpanCounters c{};
    for (std::size_t i = 0; i < kNumSpanCounters; ++i)
        c[i] = a[i] - b[i];
    return c;
}

RequestSpan
mkSpan(std::uint64_t id, std::uint64_t latency)
{
    RequestSpan s;
    s.id = id;
    s.latency = latency;
    s.service = latency / 2;
    s.queueing = latency - s.service;
    s.deltas[spanCounterIndex("l1i_demand_misses")] = id + 1;
    return s;
}

/** The reference order the reservoir must agree with: latency
 *  descending, earlier completion breaking ties. */
bool
worseRef(const RequestSpan &a, const RequestSpan &b)
{
    if (a.latency != b.latency)
        return a.latency > b.latency;
    return a.id < b.id;
}

TEST(RequestSpanTracker, TableKeepsTheReportKeysAndOrder)
{
    // The tailAttribution JSON keys, in the order the report renders
    // them: the per-cause pairs, then the scalar counters.
    std::vector<std::string> want;
    for (unsigned c = 0; c < kNumMissCauses; ++c) {
        const std::string name =
            missCauseName(static_cast<MissCause>(c));
        want.push_back(name);
        want.push_back(name + "_latency_cycles");
    }
    for (const char *key :
         {"fdip_useful", "fdip_late", "ext_useful", "ext_late",
          "itlb_misses", "l1i_demand_misses", "miss_cycles",
          "context_switches", "md_arbiter_stall_cycles"})
        want.push_back(key);
    ASSERT_EQ(want.size(), kNumSpanCounters);
    for (std::size_t i = 0; i < kNumSpanCounters; ++i) {
        EXPECT_EQ(spanCounterTable()[i].key, want[i]);
        EXPECT_EQ(spanCounterIndex(want[i]), i);
    }
    EXPECT_EQ(spanCounterTable()[spanCounterIndex("miss_cycles")]
                  .paths.size(),
              4u);
}

TEST(RequestSpanTrackerDeathTest, UnregisteredTablePathIsFatal)
{
    StatsRegistry empty;
    EXPECT_DEATH((void)RequestSpanTracker(empty, {{"chain", "svc"}}, 4,
                                          nullptr),
                 "unknown stat path");
}

TEST(RequestSpanTracker, TopKMatchesSortEverythingReference)
{
    const std::size_t kTopK = 8;
    const std::uint64_t kSpans = 500;
    FakeCounters counters;
    RequestSpanTracker tracker(counters.registry, {{"chain", "svc"}},
                               kTopK, nullptr);

    tracker.beginRecording();

    // Duplicate latencies on purpose: the tie-break on completion
    // order must make the kept set unambiguous.
    Rng rng(1234);
    std::vector<std::uint64_t> latencies;
    std::vector<SpanCounters> deltas;
    std::uint64_t cycle = 0;
    for (std::uint64_t i = 0; i < kSpans; ++i) {
        const std::uint64_t latency = 100 + rng.nextUint(64);
        latencies.push_back(latency);
        tracker.onBegin(cycle, 0, /*detailed=*/true);
        const SpanCounters before = counters.now();
        counters.bump(latency);
        deltas.push_back(diff(counters.now(), before));
        cycle += latency;
        tracker.onEnd(cycle, /*completed=*/true, latency, latency / 2,
                      latency - latency / 2);
        ++cycle;
    }

    const TailAttribution report = tracker.report();
    ASSERT_EQ(report.groups.size(), 1u);
    const TailGroup &g = report.groups[0];
    EXPECT_EQ(g.completed, kSpans);
    EXPECT_EQ(report.spansRecorded, kSpans);
    ASSERT_EQ(g.worst.size(), kTopK);

    // Sort-everything reference: ids are the completion sequence.
    std::vector<RequestSpan> all;
    for (std::uint64_t i = 0; i < kSpans; ++i)
        all.push_back(mkSpan(i, latencies[i]));
    std::sort(all.begin(), all.end(), worseRef);
    for (std::size_t i = 0; i < kTopK; ++i) {
        EXPECT_EQ(g.worst[i].id, all[i].id) << "rank " << i;
        EXPECT_EQ(g.worst[i].latency, all[i].latency) << "rank " << i;
        // Each kept span carries its own edge-to-edge delta.
        EXPECT_EQ(g.worst[i].deltas, deltas[g.worst[i].id])
            << "rank " << i;
    }

    // The uniform sample stays bounded and holds real observations.
    ASSERT_EQ(g.sample.size(), kTopK);
    for (const RequestSpan &s : g.sample) {
        ASSERT_LT(s.id, kSpans);
        EXPECT_EQ(s.latency, latencies[s.id]);
    }
}

TEST(RequestSpanTracker, TelescopingPartitionIsExact)
{
    FakeCounters counters;
    RequestSpanTracker tracker(counters.registry, {{"chain", "svc"}}, 4,
                               nullptr);
    counters.bump(17); // Nonzero anchor: partition is of the delta.
    const SpanCounters anchor = counters.now();
    tracker.beginRecording();

    // A completed span, a dropped span, idle gaps, and a span still
    // open at report time: every edge case the partition must cover.
    counters.bump(5);
    tracker.onBegin(100, 0, true);
    counters.bump(9);
    tracker.onEnd(200, true, 100, 60, 40);
    counters.bump(3);
    tracker.onBegin(300, 0, true);
    counters.bump(21);
    tracker.onEnd(400, /*completed=*/false, 0, 0, 0);
    counters.bump(2);
    tracker.onBegin(500, 0, true);
    counters.bump(13); // Open span at report time.

    const TailAttribution report = tracker.report();
    EXPECT_EQ(report.spansRecorded, 1u);
    EXPECT_EQ(report.spansDropped, 1u);

    // Every table entry partitions, summed entries included.
    EXPECT_EQ(sum(report.inSpan, report.outside),
              diff(counters.now(), anchor));
    for (std::size_t i = 0; i < kNumSpanCounters; ++i) {
        EXPECT_GT(report.inSpan[i], 0u) << spanCounterTable()[i].key;
        EXPECT_GT(report.outside[i], 0u) << spanCounterTable()[i].key;
    }
}

TEST(RequestSpanTracker, DroppedAndPreRecordingSpansStayOut)
{
    FakeCounters counters;
    RequestSpanTracker tracker(counters.registry, {{"chain", "svc"}}, 4,
                               nullptr);

    // Edges before beginRecording are ignored entirely.
    tracker.onBegin(10, 0, true);
    tracker.onEnd(20, true, 10, 10, 0);

    tracker.beginRecording();
    // A request already in flight: its end arrives without a begin.
    tracker.onEnd(30, true, 10, 10, 0);
    // A fast-forward begin gets dropped at its end.
    tracker.onBegin(40, 0, /*detailed=*/false);
    tracker.onEnd(50, true, 10, 10, 0);

    const TailAttribution report = tracker.report();
    EXPECT_EQ(report.spansRecorded, 0u);
    EXPECT_EQ(report.spansDropped, 1u);
    EXPECT_EQ(report.groups[0].completed, 0u);
}

TEST(TailGroup, CohortSizesFollowTheP999Rule)
{
    TailGroup g;
    g.name = "chain";
    g.completed = 2500; // ceil-free: 2500/1000 -> tail of 2.
    for (std::uint64_t i = 0; i < 6; ++i)
        g.worst.push_back(mkSpan(i, 1000 - 100 * i)); // Descending.
    for (std::uint64_t i = 0; i < 5; ++i)
        g.sample.push_back(mkSpan(100 + i, 10 * (i + 1)));

    const SpanCohort tail = g.tailCohort();
    EXPECT_EQ(tail.count, 2u);
    EXPECT_EQ(tail.latencySum, 1000u + 900u);
    EXPECT_EQ(tail.serviceSum, 500u + 450u);
    EXPECT_EQ(tail.queueingSum, 500u + 450u);
    EXPECT_EQ(tail.deltas[spanCounterIndex("l1i_demand_misses")],
              1u + 2u);

    // Median cohort: same size, centered in the sorted sample
    // (10,20,30,40,50 -> the middle two of an even split: 20,30).
    const SpanCohort median = g.medianCohort();
    EXPECT_EQ(median.count, 2u);
    EXPECT_EQ(median.latencySum, 20u + 30u);

    // Small groups degrade to a single-span tail.
    g.completed = 3;
    EXPECT_EQ(g.tailCohort().count, 1u);
    EXPECT_EQ(g.tailCohort().latencySum, 1000u);
    EXPECT_EQ(g.medianCohort().count, 1u);
    EXPECT_EQ(g.medianCohort().latencySum, 30u);
}

TEST(MergeTailAttribution, ExactTopKOverTheUnion)
{
    const std::size_t cycles = spanCounterIndex("miss_cycles");
    TailAttribution a;
    a.topK = 4;
    a.spansRecorded = 4;
    a.inSpan[cycles] = 100;
    a.outside[cycles] = 10;
    TailGroup &ga = a.groups.emplace_back();
    ga.name = "chain";
    ga.completed = 4;
    ga.worst = {mkSpan(0, 900), mkSpan(1, 700), mkSpan(2, 500),
                mkSpan(3, 300)};
    ga.sample = ga.worst;

    TailAttribution b;
    b.topK = 4;
    b.spansRecorded = 3;
    b.inSpan[cycles] = 40;
    b.outside[cycles] = 4;
    TailGroup &gb = b.groups.emplace_back();
    gb.name = "chain";
    gb.completed = 3;
    gb.worst = {mkSpan(4, 800), mkSpan(5, 600), mkSpan(6, 100)};
    gb.sample = gb.worst;

    TailAttribution merged;
    mergeTailAttribution(merged, a);
    mergeTailAttribution(merged, b);

    EXPECT_EQ(merged.topK, 4u);
    EXPECT_EQ(merged.spansRecorded, 7u);
    EXPECT_EQ(merged.inSpan[cycles], 140u);
    EXPECT_EQ(merged.outside[cycles], 14u);
    ASSERT_EQ(merged.groups.size(), 1u);
    const TailGroup &g = merged.groups[0];
    EXPECT_EQ(g.completed, 7u);

    // Global top-4 of the union {900,800,700,600,500,300,100}.
    ASSERT_EQ(g.worst.size(), 4u);
    EXPECT_EQ(g.worst[0].latency, 900u);
    EXPECT_EQ(g.worst[1].latency, 800u);
    EXPECT_EQ(g.worst[2].latency, 700u);
    EXPECT_EQ(g.worst[3].latency, 600u);
    EXPECT_LE(g.sample.size(), 4u);
}

TEST(MergeTailAttribution, FirstWindowCopiesWholesale)
{
    TailAttribution w;
    w.topK = 2;
    w.spansRecorded = 1;
    TailGroup &g = w.groups.emplace_back();
    g.name = "chain";
    g.completed = 1;
    g.worst = {mkSpan(0, 42)};
    g.sample = g.worst;

    TailAttribution into;
    mergeTailAttribution(into, w);
    EXPECT_EQ(into.topK, 2u);
    EXPECT_EQ(into.spansRecorded, 1u);
    ASSERT_EQ(into.groups.size(), 1u);
    EXPECT_EQ(into.groups[0].worst.size(), 1u);
    EXPECT_EQ(into.groups[0].worst[0].latency, 42u);

    // Disjoint chains append rather than merge.
    TailAttribution other;
    other.topK = 2;
    TailGroup &g2 = other.groups.emplace_back();
    g2.name = "other-chain";
    g2.completed = 1;
    mergeTailAttribution(into, other);
    ASSERT_EQ(into.groups.size(), 2u);
    EXPECT_EQ(into.groups[1].name, "other-chain");
}

/** End to end: a sampled scenario run must carry a merged-across-
 *  windows tailAttribution block, deterministically. */
TEST(RequestSpanSampled, WindowMergeIsDeterministic)
{
    obs::ObsConfig saved = obs::config();
    obs::config() = obs::ObsConfig{};
    obs::config().spans = true;

    SimConfig config;
    config.scenario =
        "scenario span-sampled\n"
        "seed 5\n"
        "service db profile=tidb-tpcc\n"
        "chain txn services=db\n"
        "phase steady arrival=poisson rate=0.0040\n";
    config.workload =
        scenarioPrimaryProfile(*cachedScenario(config.scenario));
    // Windows must be able to hold a whole request (~225k insts):
    // only a span that begins AND ends inside one detailed window is
    // recorded, everything else is dropped or ignored.
    config.warmupInsts = 100'000;
    config.measureInsts = 3'000'000;
    config.prefetcher = PrefetcherKind::None;
    config.sample.intervals = 3;
    config.sample.windowInsts = 600'000;
    config.sample.detailWarmupInsts = 50'000;
    config.sample.seed = 3;

    const SimMetrics first = runSampled(config);
    const SimMetrics second = runSampled(config);
    obs::config() = saved;

    ASSERT_TRUE(first.tailAttribution);
    ASSERT_TRUE(second.tailAttribution);
    const TailAttribution &t = *first.tailAttribution;
    const TailAttribution &u = *second.tailAttribution;

    // The overloaded service completes requests back to back, so
    // every window fully contains at least one.
    EXPECT_GT(t.spansRecorded, 0u);
    ASSERT_EQ(t.groups.size(), 1u);
    EXPECT_EQ(t.groups[0].name, "txn");
    EXPECT_EQ(t.groups[0].services, "db");
    std::uint64_t group_sum = 0;
    for (const TailGroup &g : t.groups)
        group_sum += g.completed;
    EXPECT_EQ(group_sum, t.spansRecorded);
    EXPECT_LE(t.groups[0].worst.size(), t.topK);

    // Same config, same seed: byte-equal observations.
    EXPECT_EQ(t.spansRecorded, u.spansRecorded);
    EXPECT_EQ(t.spansDropped, u.spansDropped);
    EXPECT_EQ(t.inSpan, u.inSpan);
    EXPECT_EQ(t.outside, u.outside);
    ASSERT_EQ(t.groups[0].worst.size(), u.groups[0].worst.size());
    for (std::size_t i = 0; i < t.groups[0].worst.size(); ++i) {
        EXPECT_EQ(t.groups[0].worst[i].latency,
                  u.groups[0].worst[i].latency);
    }
}

} // namespace
