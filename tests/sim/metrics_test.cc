#include <gtest/gtest.h>

#include <map>
#include <string>

#include "sim/metrics.hh"

namespace hp
{
namespace
{

/** Counter values by registry path; absent paths read 0. */
using Counters = std::map<std::string, std::uint64_t>;

/** Metrics whose snapshot holds every path pairedMetrics reads. */
SimMetrics
metricsOf(const Counters &counters)
{
    StatsSnapshot stats;
    for (const char *path :
         {"sim.cycles", "sim.instructions", "sim.long_range_l2_misses",
          "l1i.demand_misses", "l2i.demand_misses", "l1i.miss_cycles_l2",
          "l1i.miss_cycles_llc", "l1i.miss_cycles_mem",
          "l1i.miss_cycles_mshr", "ext.issued", "ext.redundant",
          "ext.dropped", "ext.inserted", "ext.useful_l1", "ext.useful_l2",
          "ext.late_merges", "ext.useless_evicted",
          "ext.useful_distance_samples", "ext.useful_distance_sum",
          "dram.demand_bytes", "dram.fdip_bytes", "dram.ext_bytes",
          "dram.metadata_read_bytes", "dram.metadata_write_bytes"}) {
        auto it = counters.find(path);
        stats.add(path, it == counters.end() ? 0 : it->second);
    }
    return SimMetrics::fromStats(std::move(stats));
}

Counters
baselineCounters()
{
    return {
        {"sim.cycles", 1'000'000},
        {"sim.instructions", 800'000},
        {"l1i.demand_misses", 10'000},
        {"l2i.demand_misses", 4'000},
        {"l1i.miss_cycles_l2", 50'000},
        {"l1i.miss_cycles_llc", 100'000},
        {"dram.demand_bytes", 1'000'000},
        {"sim.long_range_l2_misses", 2'000},
    };
}

/** The baseline with @p changes applied. */
SimMetrics
makeRun(const Counters &changes)
{
    Counters c = baselineCounters();
    for (const auto &[path, value] : changes)
        c[path] = value;
    SimMetrics m = metricsOf(c);
    m.dataDramBytes = 3'000'000;
    return m;
}

SimMetrics
makeBaseline()
{
    return makeRun({});
}

TEST(MetricsTest, SpeedupFromIpcRatio)
{
    SimMetrics base = makeBaseline();
    SimMetrics run = makeRun({{"sim.cycles", 900'000}}); // 11.1% faster
    EXPECT_EQ(run.cycles, 900'000u);
    PairedMetrics paired = pairedMetrics(run, base);
    EXPECT_NEAR(paired.speedup, 1'000'000.0 / 900'000.0 - 1.0, 1e-9);
}

TEST(MetricsTest, CoverageIsMissReduction)
{
    SimMetrics base = makeBaseline();
    SimMetrics run = makeRun(
        {{"l1i.demand_misses", 6'000}, {"l2i.demand_misses", 1'000}});
    PairedMetrics paired = pairedMetrics(run, base);
    EXPECT_NEAR(paired.coverageL1, 0.4, 1e-9);
    EXPECT_NEAR(paired.coverageL2, 0.75, 1e-9);
}

TEST(MetricsTest, NegativeCoverageOnPollution)
{
    SimMetrics base = makeBaseline();
    // The prefetcher made it worse.
    SimMetrics run = makeRun({{"l1i.demand_misses", 12'000}});
    PairedMetrics paired = pairedMetrics(run, base);
    EXPECT_LT(paired.coverageL1, 0.0);
}

TEST(MetricsTest, BandwidthRatio)
{
    SimMetrics base = makeBaseline();
    SimMetrics run = makeRun({{"dram.ext_bytes", 200'000},
                              {"dram.metadata_read_bytes", 100'000},
                              {"dram.metadata_write_bytes", 100'000}});
    PairedMetrics paired = pairedMetrics(run, base);
    double expected = double(base.totalDramBytes() + 400'000) /
                      double(base.totalDramBytes());
    EXPECT_NEAR(paired.bandwidthRatio, expected, 1e-9);
}

TEST(MetricsTest, LongRangeElimination)
{
    SimMetrics base = makeBaseline();
    SimMetrics run = makeRun({{"sim.long_range_l2_misses", 500}});
    PairedMetrics paired = pairedMetrics(run, base);
    EXPECT_NEAR(paired.longRangeEliminated, 0.75, 1e-9);
    // No credit when misses grow.
    run = makeRun({{"sim.long_range_l2_misses", 3'000}});
    EXPECT_DOUBLE_EQ(pairedMetrics(run, base).longRangeEliminated, 0.0);
}

TEST(MetricsTest, MissLatencyRatio)
{
    SimMetrics base = makeBaseline();
    SimMetrics run = makeRun({{"l1i.miss_cycles_llc", 25'000}});
    PairedMetrics paired = pairedMetrics(run, base);
    EXPECT_NEAR(paired.missLatencyRatio, 75'000.0 / 150'000.0, 1e-9);
    EXPECT_EQ(totalMissCycles(run.stats), 75'000u);
}

TEST(MetricsTest, AccuracyAndLatenessFromPrefetchStats)
{
    SimMetrics base = makeBaseline();
    SimMetrics run = makeRun({{"ext.inserted", 1'000},
                              {"ext.useful_l1", 400},
                              {"ext.late_merges", 100},
                              {"ext.useful_distance_samples", 400},
                              {"ext.useful_distance_sum", 12'000}});
    PairedMetrics paired = pairedMetrics(run, base);
    EXPECT_NEAR(paired.accuracy, 0.5, 1e-9);
    EXPECT_NEAR(paired.lateFraction, 0.2, 1e-9);
    EXPECT_DOUBLE_EQ(paired.avgDistance, 30.0);
}

TEST(MetricsTest, ZeroBaselineSafe)
{
    SimMetrics zero = metricsOf({});
    PairedMetrics paired = pairedMetrics(zero, zero);
    EXPECT_DOUBLE_EQ(paired.speedup, 0.0);
    EXPECT_DOUBLE_EQ(paired.coverageL1, 0.0);
    EXPECT_DOUBLE_EQ(paired.bandwidthRatio, 1.0);
    EXPECT_DOUBLE_EQ(paired.avgDistance, 0.0);
}

TEST(MetricsTest, TotalDramBytesSumsAllSources)
{
    SimMetrics m = metricsOf({{"dram.demand_bytes", 1},
                              {"dram.fdip_bytes", 2},
                              {"dram.ext_bytes", 4},
                              {"dram.metadata_read_bytes", 8},
                              {"dram.metadata_write_bytes", 16}});
    m.dataDramBytes = 32;
    EXPECT_EQ(m.totalDramBytes(), 63u);
}

TEST(MetricsTest, BundleMeansDivideSumsByTheirCounts)
{
    StatsSnapshot s;
    s.add("hier.bundle_executions", 4);
    s.add("hier.bundle_exec_insts_sum", 4'000);
    s.add("hier.bundle_exec_cycles_sum", 10'000);
    s.add("hier.bundle_footprint_blocks_sum", 600);
    s.add("hier.bundle_jaccard_samples", 2);
    s.add("hier.bundle_jaccard_sum_ppm", 1'500'000);
    const BundleMeans bm = bundleMeans(s);
    EXPECT_DOUBLE_EQ(bm.execInsts, 1'000.0);
    EXPECT_DOUBLE_EQ(bm.execCycles, 2'500.0);
    EXPECT_DOUBLE_EQ(bm.footprintBlocks, 150.0);
    EXPECT_DOUBLE_EQ(bm.jaccard, 0.75);

    // No executions: every mean is 0, not NaN.
    StatsSnapshot none;
    for (const auto &[path, value] : s.entries())
        none.add(path, 0);
    const BundleMeans zero = bundleMeans(none);
    EXPECT_DOUBLE_EQ(zero.execCycles, 0.0);
    EXPECT_DOUBLE_EQ(zero.jaccard, 0.0);
}

} // namespace
} // namespace hp
