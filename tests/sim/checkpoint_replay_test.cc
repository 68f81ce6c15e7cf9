/**
 * @file
 * Bit-identical replay validation: for every prefetcher kind, a run
 * forked from a warmup checkpoint must produce exactly the same
 * measurement as a cold run — every counter in the StatsSnapshot,
 * field for field, plus the derived scalar metrics.
 */

#include <gtest/gtest.h>

#include "sim/checkpoint.hh"
#include "sim/runner.hh"
#include "sim/simulator.hh"

namespace hp
{
namespace
{

SimConfig
quickConfig(PrefetcherKind kind)
{
    SimConfig config;
    config.workload = "caddy";
    config.warmupInsts = 120'000;
    config.measureInsts = 240'000;
    config.prefetcher = kind;
    if (kind == PrefetcherKind::Hierarchical)
        config.hier.trackBundleStats = true;
    return config;
}

/** Fails with the first differing counter path, not just "not equal". */
void
expectSnapshotsIdentical(const StatsSnapshot &cold,
                         const StatsSnapshot &warm)
{
    ASSERT_EQ(cold.size(), warm.size());
    const auto &a = cold.entries();
    const auto &b = warm.entries();
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].first, b[i].first) << "path order diverged at " << i;
        EXPECT_EQ(a[i].second, b[i].second)
            << "counter " << a[i].first << " differs";
    }
}

void
expectBitIdentical(const SimConfig &config)
{
    SimMetrics cold = Simulator(config).run();

    Simulator warm(config);
    warm.runWarmup();
    Checkpoint ckpt = Checkpoint::capture(
        warm, ExperimentRunner::configKey(warmupConfig(config)));

    Simulator restored(config);
    std::string error;
    ASSERT_TRUE(ckpt.restoreInto(restored, &error)) << error;
    SimMetrics replay = restored.finishRun();

    EXPECT_EQ(cold.cycles, replay.cycles);
    EXPECT_EQ(cold.instructions, replay.instructions);
    expectSnapshotsIdentical(cold.stats, replay.stats);
}

class CheckpointReplayTest
    : public ::testing::TestWithParam<PrefetcherKind>
{
};

TEST_P(CheckpointReplayTest, RestoredRunMatchesColdRunExactly)
{
    expectBitIdentical(quickConfig(GetParam()));
}

TEST_P(CheckpointReplayTest, RestoreIntoAUsedSimulatorMatchesColdRun)
{
    // A blob holds no counters: a restore sets the state and the two
    // clocks and leaves every counter where it was. A simulator that
    // has finished a run of its own has counters far from the warm
    // one's, yet its measurement must equal the cold run's, because
    // every result is a delta from the snapshot taken after the
    // restore, and every counter moves by whole steps. The simulator
    // restores again and again, as a sampled run does, so each replay
    // starts from other counter values: a counter whose steps depend
    // on its base (a rounded double sum) differs in some of them.
    SimConfig config = quickConfig(GetParam());
    // Long enough that HP's Jaccard sum has a base at the boundary,
    // so a sum whose steps depended on its base would show here.
    config.warmupInsts = 600'000;
    SimMetrics cold = Simulator(config).run();

    Simulator warm(config);
    warm.runWarmup();
    if (config.prefetcher == PrefetcherKind::Hierarchical) {
        ASSERT_GT(warm.stats().value("hier.bundle_jaccard_samples"), 0u);
    }
    Checkpoint ckpt = Checkpoint::capture(
        warm, ExperimentRunner::configKey(warmupConfig(config)));

    Simulator used(config);
    (void)used.run();
    for (int round = 0; round < 4; ++round) {
        SCOPED_TRACE("round " + std::to_string(round));
        std::string error;
        ASSERT_TRUE(ckpt.restoreInto(used, &error)) << error;
        SimMetrics replay = used.finishRun();
        EXPECT_EQ(cold.cycles, replay.cycles);
        EXPECT_EQ(cold.instructions, replay.instructions);
        expectSnapshotsIdentical(cold.stats, replay.stats);
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllPrefetchers, CheckpointReplayTest,
    ::testing::Values(PrefetcherKind::None, PrefetcherKind::EFetch,
                      PrefetcherKind::Mana, PrefetcherKind::Eip,
                      PrefetcherKind::Rdip, PrefetcherKind::Hierarchical,
                      PrefetcherKind::PerfectL1I),
    [](const ::testing::TestParamInfo<PrefetcherKind> &info) {
        return prefetcherName(info.param);
    });

// Bounded prefetcher tables that fill during the run: the eviction
// victim must be a function of checkpointed state alone, or a restored
// run evicts a different entry than the uninterrupted one.
TEST(CheckpointReplayTest, FullEFetchFootprintTableReplaysExactly)
{
    SimConfig config = quickConfig(PrefetcherKind::EFetch);
    config.efetch.footprintEntries = 64;
    expectBitIdentical(config);
}

TEST(CheckpointReplayTest, FullManaIndexReplaysExactly)
{
    SimConfig config = quickConfig(PrefetcherKind::Mana);
    config.mana.indexEntries = 256;
    expectBitIdentical(config);
}

TEST(CheckpointReplayTest, UnboundedBtbReplaysExactly)
{
    // btbEntries = 0 keeps every branch in the BTB's hashed table
    // (Figure 14) instead of the set-associative one.
    SimConfig config = quickConfig(PrefetcherKind::Hierarchical);
    config.btbEntries = 0;
    expectBitIdentical(config);
}

TEST(CheckpointReplayTest, ProducerContinuationMatchesColdRun)
{
    // The checkpoint owner captures and then continues the same
    // Simulator instance; capture must not perturb it.
    SimConfig config = quickConfig(PrefetcherKind::Hierarchical);
    SimMetrics cold = Simulator(config).run();

    Simulator warm(config);
    warm.runWarmup();
    (void)Checkpoint::capture(warm, "key");
    SimMetrics cont = warm.finishRun();

    EXPECT_EQ(cold.cycles, cont.cycles);
    expectSnapshotsIdentical(cold.stats, cont.stats);
}

TEST(CheckpointReplayTest, ReplayExactWithReuseTracking)
{
    // trackReuse adds the reuse-distance tree and warmup histogram to
    // the serialized state; the long-range threshold derived at the
    // boundary must come out identical.
    SimConfig config = quickConfig(PrefetcherKind::None);
    config.trackReuse = true;
    config.longRangePercentile = 0.85;
    expectBitIdentical(config);
}

TEST(CheckpointReplayTest, OneWarmupServesManyMeasurementConfigs)
{
    // Two configs in the same warmup class (they differ only in
    // measureInsts, read after the boundary) fork from one checkpoint
    // and still match their own cold runs.
    SimConfig short_run = quickConfig(PrefetcherKind::Eip);
    SimConfig long_run = short_run;
    long_run.measureInsts = 360'000;
    ASSERT_EQ(warmupConfig(short_run), warmupConfig(long_run));

    Simulator warm(short_run);
    warm.runWarmup();
    Checkpoint ckpt = Checkpoint::capture(
        warm, ExperimentRunner::configKey(warmupConfig(short_run)));

    for (const SimConfig &config : {short_run, long_run}) {
        SimMetrics cold = Simulator(config).run();
        Simulator restored(config);
        std::string error;
        ASSERT_TRUE(ckpt.restoreInto(restored, &error)) << error;
        SimMetrics replay = restored.finishRun();
        EXPECT_EQ(cold.cycles, replay.cycles);
        expectSnapshotsIdentical(cold.stats, replay.stats);
    }
}

TEST(CheckpointReplayTest, RunCheckpointedMatchesColdRun)
{
    SimConfig config = quickConfig(PrefetcherKind::Mana);
    SimMetrics cold = Simulator(config).run();
    SimMetrics via = runCheckpointed(config);
    EXPECT_EQ(cold.cycles, via.cycles);
    expectSnapshotsIdentical(cold.stats, via.stats);
}

} // namespace
} // namespace hp
