#include <gtest/gtest.h>

#include <cmath>
#include <functional>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "sim/runner.hh"

namespace hp
{
namespace
{

SimConfig
quickConfig(PrefetcherKind kind = PrefetcherKind::None)
{
    SimConfig config;
    config.workload = "caddy";
    config.warmupInsts = 100'000;
    config.measureInsts = 200'000;
    config.prefetcher = kind;
    return config;
}

TEST(RunnerTest, MemoizesIdenticalConfigs)
{
    std::size_t before = ExperimentRunner::simulationsRun();
    SimMetrics a = ExperimentRunner::run(quickConfig());
    std::size_t after_first = ExperimentRunner::simulationsRun();
    SimMetrics b = ExperimentRunner::run(quickConfig());
    std::size_t after_second = ExperimentRunner::simulationsRun();
    EXPECT_GE(after_first, before); // may have been cached already
    EXPECT_EQ(after_second, after_first);
    // run() returns by value (the cache is shared across threads),
    // but both calls report the one cached simulation.
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
}

TEST(RunnerTest, ConfigHashDistinguishesKnobsAndMatchesEquality)
{
    SimConfig base = quickConfig();
    EXPECT_EQ(configHash(base), configHash(quickConfig()));
    EXPECT_TRUE(base == quickConfig());

    SimConfig tweaked = base;
    tweaked.hier.aheadSegments = 7;
    EXPECT_NE(configHash(tweaked), configHash(base));
    EXPECT_FALSE(tweaked == base);

    SimConfig other_workload = base;
    other_workload.workload = "gin";
    EXPECT_NE(configHash(other_workload), configHash(base));
}

TEST(RunnerTest, ConfigKeyDistinguishesEveryKnob)
{
    // Sampling and a consolidation with one core override are on, so
    // their fields are part of the identity too.
    SimConfig base = quickConfig();
    base.sample.intervals = 4;
    base.mt.tenants = {"caddy", "gin"};
    base.mt.coreOverrides = {CoreConfig{}};

    // One entry per config field: configHash is a hash of configKey,
    // so a field the key misses would alias two configs in the
    // experiment cache and the checkpoint store.
#define KNOB(stmt) {#stmt, [](SimConfig &c) { stmt; }}
    // A CoreConfig field, both inherited and in the core override.
#define CORE_KNOB(field) KNOB(++c.field), KNOB(++c.mt.coreOverrides[0].field)
    const std::vector<std::pair<const char *,
                                std::function<void(SimConfig &)>>> knobs = {
        KNOB(c.workload = "gin"), KNOB(++c.warmupInsts),
        KNOB(++c.measureInsts), KNOB(c.prefetcher = PrefetcherKind::Eip),
        KNOB(c.extPrefetchToL2 = true), KNOB(++c.extPrefetchesPerCycle),
        KNOB(c.trackReuse = true), KNOB(c.longRangePercentile = 0.95),
        KNOB(c.scenario = "scenario s"),
        CORE_KNOB(ftqEntries), CORE_KNOB(fetchBytesPerCycle),
        CORE_KNOB(bpBlocksPerCycle), CORE_KNOB(btbEntries),
        CORE_KNOB(btbWays), CORE_KNOB(rasDepth), CORE_KNOB(btbMissPenalty),
        CORE_KNOB(mispredictPenalty), CORE_KNOB(pipelineDepth),
        CORE_KNOB(commitWidth), CORE_KNOB(robEntries),
        CORE_KNOB(backendStallPermille), CORE_KNOB(backendStallCycles),
        // HierarchyParams
        KNOB(c.mem.l1iBytes *= 2), KNOB(++c.mem.l1iWays),
        KNOB(++c.mem.l1iLatency), KNOB(++c.mem.l1iMshrs),
        KNOB(c.mem.l2Bytes *= 2), KNOB(++c.mem.l2Ways),
        KNOB(++c.mem.l2Latency), KNOB(c.mem.l2InstFraction = 0.7),
        KNOB(c.mem.llcBytes *= 2), KNOB(++c.mem.llcWays),
        KNOB(++c.mem.llcLatency), KNOB(c.mem.llcInstFraction = 0.5),
        KNOB(++c.mem.memLatency), KNOB(++c.mem.itlbEntries),
        KNOB(++c.mem.itlbWalkLatency), KNOB(++c.mem.mshrsReservedForDemand),
        KNOB(++c.mem.metadataDramEvery),
        // Prefetcher configs
        KNOB(++c.efetch.tableEntries), KNOB(++c.efetch.signatureDepth),
        KNOB(++c.efetch.calleesPerEntry), KNOB(++c.efetch.lookahead),
        KNOB(++c.efetch.footprintEntries), KNOB(++c.mana.regionBlocks),
        KNOB(++c.mana.historyRegions), KNOB(++c.mana.indexEntries),
        KNOB(++c.mana.lookahead), KNOB(++c.eip.tableEntries),
        KNOB(++c.eip.tableWays), KNOB(++c.eip.historyEntries),
        KNOB(++c.eip.maxTargets), KNOB(++c.eip.targetRunBlocks),
        KNOB(++c.rdip.tableEntries), KNOB(++c.rdip.signatureDepth),
        KNOB(++c.rdip.blocksPerEntry), KNOB(++c.hier.compressionEntries),
        KNOB(++c.hier.metadataBufferBytes), KNOB(++c.hier.matEntries),
        KNOB(++c.hier.matWays), KNOB(++c.hier.maxSegmentsPerBundle),
        KNOB(++c.hier.aheadSegments),
        KNOB(c.hier.replayDedup = !c.hier.replayDedup),
        KNOB(c.hier.subSegmentPacing = !c.hier.subSegmentPacing),
        KNOB(c.hier.supersedeRecords = !c.hier.supersedeRecords),
        KNOB(c.hier.trackBundleStats = !c.hier.trackBundleStats),
        // SampleConfig (enabled)
        KNOB(++c.sample.intervals), KNOB(++c.sample.windowInsts),
        KNOB(++c.sample.detailWarmupInsts), KNOB(++c.sample.seed),
        // MultiTenantConfig (enabled)
        KNOB(c.mt.tenants[1] = "echo"), KNOB(c.mt.tenants.push_back("echo")),
        KNOB(++c.mt.cores), KNOB(++c.mt.switchQuantum),
        KNOB(c.mt.partitionMetadata = true),
        KNOB(++c.mt.metadataReadBytesPerCycle), KNOB(++c.mt.dramFillGapCycles),
        KNOB(c.mt.coreOverrides.push_back(CoreConfig{})),
        // Doubles are printed exactly: these agree with the defaults
        // to 6 significant digits, where an ostream stops by default.
        KNOB(c.mem.l2InstFraction = 0.6500001),
        KNOB(c.mem.l2InstFraction = std::nextafter(0.65, 1.0)),
        KNOB(c.longRangePercentile = 0.9000001),
    };
#undef CORE_KNOB
#undef KNOB

    std::set<std::string> keys = {ExperimentRunner::configKey(base)};
    for (const auto &[name, perturb] : knobs) {
        SimConfig c = base;
        perturb(c);
        ASSERT_FALSE(c == base) << name;
        EXPECT_NE(ExperimentRunner::configKey(c),
                  ExperimentRunner::configKey(base))
            << name;
        EXPECT_NE(configHash(c), configHash(base)) << name;
        keys.insert(ExperimentRunner::configKey(c));
    }
    // No two perturbations collide either.
    EXPECT_EQ(keys.size(), knobs.size() + 1);
}

TEST(RunnerTest, MeasurementConfigPinsOnlyUnreadFields)
{
    // Fields the configured prefetcher never reads are normalized...
    SimConfig none = quickConfig(PrefetcherKind::None);
    none.eip.maxTargets = 7;
    none.hier.aheadSegments = 9;
    none.mana.indexEntries = 123;
    EXPECT_EQ(measurementConfig(none),
              measurementConfig(quickConfig(PrefetcherKind::None)));

    // ...but fields the simulation does read must survive untouched.
    SimConfig hier = quickConfig(PrefetcherKind::Hierarchical);
    hier.hier.aheadSegments = 9;
    EXPECT_NE(measurementConfig(hier),
              measurementConfig(quickConfig(PrefetcherKind::Hierarchical)));
    EXPECT_EQ(measurementConfig(hier).hier.aheadSegments, 9u);

    SimConfig eip = quickConfig(PrefetcherKind::Eip);
    eip.eip.maxTargets = 5; // actually-read sweep knob
    EXPECT_NE(measurementConfig(eip),
              measurementConfig(quickConfig(PrefetcherKind::Eip)));
}

TEST(RunnerTest, CacheDoesNotRerunConfigsDifferingOnlyInUnreadFields)
{
    // Regression: a sweep over a prefetcher knob must not re-simulate
    // grid points whose configured prefetcher never reads that knob.
    SimConfig a = quickConfig(PrefetcherKind::None);
    a.warmupInsts = 110'000; // unique class within the test binary
    SimConfig b = a;
    b.eip.maxTargets = 99;
    ASSERT_FALSE(a == b); // configKey still tells them apart
    ASSERT_NE(ExperimentRunner::configKey(a),
              ExperimentRunner::configKey(b));

    SimMetrics ma = ExperimentRunner::run(a);
    std::size_t after_a = ExperimentRunner::simulationsRun();
    SimMetrics mb = ExperimentRunner::run(b);
    EXPECT_EQ(ExperimentRunner::simulationsRun(), after_a);
    EXPECT_EQ(ma.cycles, mb.cycles);
}

TEST(RunnerTest, CacheDoesNotAliasConfigsDifferingInReadFields)
{
    // The inverse guard: two configs that differ in a field the
    // simulation reads must stay distinct cache entries.
    SimConfig a = quickConfig(PrefetcherKind::Hierarchical);
    a.warmupInsts = 130'000;
    SimConfig b = a;
    b.hier.aheadSegments = a.hier.aheadSegments + 2;

    ExperimentRunner::run(a);
    std::size_t after_a = ExperimentRunner::simulationsRun();
    ExperimentRunner::run(b);
    EXPECT_EQ(ExperimentRunner::simulationsRun(), after_a + 1);
}

TEST(RunnerTest, RunPairBaselineIsFdipOnly)
{
    SimConfig config = quickConfig(PrefetcherKind::Hierarchical);
    // Bundles must recur for replays to happen: give this test a
    // window long enough for several requests.
    config.warmupInsts = 800'000;
    config.measureInsts = 1'200'000;
    RunPair pair = ExperimentRunner::runPair(config);
    // The baseline has no Ext prefetches.
    EXPECT_EQ(pair.base.stats.value("ext.issued"), 0u);
    EXPECT_GT(pair.run.stats.value("ext.issued"), 0u);
    // Paired metrics are consistent with the two runs.
    EXPECT_NEAR(pair.paired.speedup,
                pair.run.ipc() / pair.base.ipc() - 1.0, 1e-12);
}

TEST(RunnerTest, DefaultConfigMatchesTableOne)
{
    SimConfig config = defaultConfig("tidb-tpcc");
    EXPECT_EQ(config.ftqEntries, 24u);
    EXPECT_EQ(config.btbEntries, 8192u);
    EXPECT_EQ(config.mem.l1iBytes, 32u * 1024);
    EXPECT_EQ(config.mem.l1iWays, 8u);
    EXPECT_EQ(config.mem.l1iLatency, 2u);
    EXPECT_EQ(config.mem.l2Latency, 14u);
    EXPECT_EQ(config.mem.llcLatency, 50u);
    EXPECT_EQ(config.mem.l1iMshrs, 16u);
    EXPECT_EQ(config.robEntries, 352u);
    EXPECT_EQ(config.commitWidth, 6u);
    EXPECT_EQ(config.hier.matEntries, 512u);
    EXPECT_EQ(config.hier.metadataBufferBytes, 512u * 1024);
}

TEST(RunnerTest, DefaultConfigEnablesBundleStatsForHp)
{
    SimConfig hp_config =
        defaultConfig("caddy", PrefetcherKind::Hierarchical);
    EXPECT_TRUE(hp_config.hier.trackBundleStats);
    SimConfig base = defaultConfig("caddy");
    EXPECT_EQ(base.prefetcher, PrefetcherKind::None);
}

} // namespace
} // namespace hp
