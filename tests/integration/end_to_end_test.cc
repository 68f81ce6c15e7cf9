#include <gtest/gtest.h>

#include "sim/runner.hh"

namespace hp
{
namespace
{

/**
 * End-to-end checks of the paper's headline qualitative claims on one
 * representative workload, at a reduced (but still meaningful)
 * instruction budget so the whole suite stays fast.
 */
SimConfig
e2eConfig(PrefetcherKind kind)
{
    SimConfig config = defaultConfig("tidb-tpcc", kind);
    config.warmupInsts = 1'000'000;
    config.measureInsts = 1'500'000;
    return config;
}

TEST(EndToEndTest, HierarchicalBeatsBaselineAndPeers)
{
    RunPair hier =
        ExperimentRunner::runPair(e2eConfig(
            PrefetcherKind::Hierarchical));
    RunPair mana =
        ExperimentRunner::runPair(e2eConfig(PrefetcherKind::Mana));
    RunPair efetch =
        ExperimentRunner::runPair(e2eConfig(PrefetcherKind::EFetch));

    // Headline: HP speeds the workload up and beats the fine-grained
    // record-and-replay prefetchers.
    EXPECT_GT(hier.paired.speedup, 0.01);
    EXPECT_GT(hier.paired.speedup, mana.paired.speedup);
    EXPECT_GT(hier.paired.speedup, efetch.paired.speedup);
}

TEST(EndToEndTest, PerfectL1IBoundsEveryPrefetcher)
{
    RunPair hier = ExperimentRunner::runPair(
        e2eConfig(PrefetcherKind::Hierarchical));
    RunPair perfect = ExperimentRunner::runPair(
        e2eConfig(PrefetcherKind::PerfectL1I));
    EXPECT_GT(perfect.paired.speedup, hier.paired.speedup);
}

TEST(EndToEndTest, HierarchicalOperatesAtCoarseGrain)
{
    RunPair hier = ExperimentRunner::runPair(
        e2eConfig(PrefetcherKind::Hierarchical));
    RunPair mana =
        ExperimentRunner::runPair(e2eConfig(PrefetcherKind::Mana));
    // An order-of-magnitude larger prefetch distance (Table 2's 90 vs
    // 3-6 blocks).
    EXPECT_GT(hier.paired.avgDistance, 5.0 * mana.paired.avgDistance);
}

TEST(EndToEndTest, HierarchicalExcelsAtL2Coverage)
{
    RunPair hier = ExperimentRunner::runPair(
        e2eConfig(PrefetcherKind::Hierarchical));
    RunPair mana =
        ExperimentRunner::runPair(e2eConfig(PrefetcherKind::Mana));
    EXPECT_GT(hier.paired.coverageL2, 0.2);
    EXPECT_GT(hier.paired.coverageL2, mana.paired.coverageL2);
}

TEST(EndToEndTest, HierarchicalHasFewLatePrefetches)
{
    RunPair hier = ExperimentRunner::runPair(
        e2eConfig(PrefetcherKind::Hierarchical));
    // Paper: ~3% late for HP.
    EXPECT_LT(hier.paired.lateFraction, 0.10);
}

TEST(EndToEndTest, OnChipStorageUnderTwoAndAHalfKB)
{
    SimConfig config = e2eConfig(PrefetcherKind::Hierarchical);
    NullMetadataMemory memory;
    auto pf = makePrefetcher(config, memory);
    ASSERT_NE(pf, nullptr);
    EXPECT_LT(pf->storageBits(), 2.5 * 8 * 1024);
}

TEST(EndToEndTest, BundleStatisticsInPaperRange)
{
    SimConfig config = e2eConfig(PrefetcherKind::Hierarchical);
    const SimMetrics &m = ExperimentRunner::run(config);
    // Table 4 classes: footprints 10s of KB, exec thousands to tens of
    // thousands of cycles, Jaccard approaching the 0.8+ regime.
    const BundleMeans bm = bundleMeans(m.stats);
    double footprint_kb = bm.footprintBlocks * kBlockBytes / 1024.0;
    EXPECT_GT(footprint_kb, 5.0);
    EXPECT_LT(footprint_kb, 120.0);
    EXPECT_GT(bm.execCycles, 2'000.0);
    EXPECT_GT(bm.jaccard, 0.6);
}

TEST(EndToEndTest, BandwidthOverheadModest)
{
    RunPair hier = ExperimentRunner::runPair(
        e2eConfig(PrefetcherKind::Hierarchical));
    // Paper: +4% average, +10% worst case. Allow slack but catch
    // pathologies.
    EXPECT_LT(hier.paired.bandwidthRatio, 1.35);
    EXPECT_GE(hier.paired.bandwidthRatio, 0.9);
}

TEST(EndToEndTest, PrefetchingToL2StillHelps)
{
    SimConfig config = e2eConfig(PrefetcherKind::Hierarchical);
    config.extPrefetchToL2 = true;
    RunPair pair = ExperimentRunner::runPair(config);
    EXPECT_GT(pair.paired.speedup, 0.0);
}

} // namespace
} // namespace hp
