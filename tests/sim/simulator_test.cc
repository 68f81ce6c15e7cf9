#include <gtest/gtest.h>

#include <string>

#include "sim/multicore.hh"
#include "sim/simulator.hh"

namespace hp
{
namespace
{

SimConfig
quickConfig(PrefetcherKind kind = PrefetcherKind::None)
{
    SimConfig config;
    config.workload = "caddy";
    config.warmupInsts = 150'000;
    config.measureInsts = 300'000;
    config.prefetcher = kind;
    return config;
}

TEST(SimulatorTest, RunsAndReportsSaneMetrics)
{
    Simulator sim(quickConfig());
    SimMetrics m = sim.run();
    // The final commit group may overshoot by up to the commit width.
    EXPECT_GE(m.instructions, 300'000u);
    EXPECT_LT(m.instructions, 300'000u + 6);
    EXPECT_GT(m.cycles, m.instructions / 6); // bounded by commit width
    EXPECT_GT(m.ipc(), 0.1);
    EXPECT_LT(m.ipc(), 6.0);
    EXPECT_GT(m.stats.value("l1i.demand_accesses"), 0u);
    EXPECT_GT(m.stats.value("cond.predictions"), 0u);
    EXPECT_GT(m.stats.value("engine.requests"), 0u);
}

TEST(SimulatorTest, Deterministic)
{
    SimMetrics a = Simulator(quickConfig()).run();
    SimMetrics b = Simulator(quickConfig()).run();
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.stats.entries(), b.stats.entries());
}

TEST(SimulatorTest, PerfectL1IEliminatesMissesAndBeatsBaseline)
{
    SimMetrics base = Simulator(quickConfig()).run();
    SimMetrics perfect =
        Simulator(quickConfig(PrefetcherKind::PerfectL1I)).run();
    EXPECT_EQ(perfect.stats.value("l1i.demand_misses"), 0u);
    EXPECT_GT(perfect.ipc(), base.ipc());
}

TEST(SimulatorTest, FdipIssuesPrefetches)
{
    SimMetrics m = Simulator(quickConfig()).run();
    const PrefetchStats fdip = prefetchStats(m.stats, "fdip");
    EXPECT_GT(fdip.issued, 0u);
    EXPECT_GT(fdip.usefulL1 + fdip.lateMerges, 0u);
}

TEST(SimulatorTest, HierarchicalPrefetcherEngages)
{
    SimConfig config = quickConfig(PrefetcherKind::Hierarchical);
    config.hier.trackBundleStats = true;
    Simulator sim(config);
    SimMetrics m = sim.run();
    EXPECT_GT(m.stats.value("hier.bundles_started"), 0u);
    EXPECT_GT(m.stats.value("hier.replays_started"), 0u);
    EXPECT_GT(m.stats.value("ext.issued"), 0u);
    EXPECT_GT(m.stats.value("hier.metadata_write_bytes"), 0u);
    EXPECT_GT(m.stats.value("hier.bundle_executions"), 0u);
}

TEST(SimulatorTest, InfiniteBtbReducesBtbMisses)
{
    SimConfig finite = quickConfig();
    SimConfig infinite = quickConfig();
    infinite.btbEntries = 0;
    SimMetrics mf = Simulator(finite).run();
    SimMetrics mi = Simulator(infinite).run();
    EXPECT_LT(mi.stats.value("btb.misses"), mf.stats.value("btb.misses"));
    EXPECT_GE(mi.ipc(), mf.ipc() * 0.99);
}

TEST(SimulatorTest, SmallerL1IMeansMoreMisses)
{
    SimConfig big = quickConfig();
    SimConfig small = quickConfig();
    small.mem.l1iBytes = 8 * 1024;
    SimMetrics mb = Simulator(big).run();
    SimMetrics ms = Simulator(small).run();
    EXPECT_GT(ms.stats.value("l1i.demand_misses"),
              mb.stats.value("l1i.demand_misses"));
    EXPECT_LE(ms.ipc(), mb.ipc());
}

TEST(SimulatorTest, ReuseTrackingCountsLongRangeAccesses)
{
    SimConfig config = quickConfig();
    config.trackReuse = true;
    SimMetrics m = Simulator(config).run();
    EXPECT_GT(m.stats.value("sim.long_range_accesses"), 0u);
    EXPECT_LE(m.stats.value("sim.long_range_l2_misses"),
              m.stats.value("sim.long_range_accesses"));
}

TEST(SimulatorTest, MispredictsCostCycles)
{
    // Removing the mispredict penalty must speed the core up.
    SimConfig slow = quickConfig();
    SimConfig fast = quickConfig();
    fast.mispredictPenalty = 0;
    SimMetrics m_slow = Simulator(slow).run();
    SimMetrics m_fast = Simulator(fast).run();
    EXPECT_GT(m_fast.ipc(), m_slow.ipc());
}

TEST(SimulatorTest, BackendStallsAccounted)
{
    SimMetrics m = Simulator(quickConfig()).run();
    EXPECT_GT(m.stats.value("sim.backend_stall_cycles"), 0u);
    EXPECT_LT(m.stats.value("sim.backend_stall_cycles"), m.cycles);
}

TEST(SimulatorTest, StreamIdenticalAcrossPrefetchers)
{
    // The committed instruction stream must not depend on the
    // prefetcher (timing-independent workload model): engine stats
    // must match exactly between runs.
    SimMetrics a = Simulator(quickConfig()).run();
    SimMetrics b =
        Simulator(quickConfig(PrefetcherKind::Hierarchical)).run();
    for (const char *path :
         {"engine.calls", "engine.cond_branches", "engine.tagged_insts"})
        EXPECT_EQ(a.stats.value(path), b.stats.value(path)) << path;
}

// Core configs the detailed loop cannot run are rejected at
// construction. Without the check, a 2k-instruction run() under each
// of the first five never returned, and btbMissPenalty above
// pipelineDepth let a BTB-missed branch commit before its resume,
// which then installed a committed window slot into the BTB.
void
expectRejected(void (*set)(SimConfig &), const char *diagnostic)
{
    SimConfig config = quickConfig();
    config.warmupInsts = 1'000;
    config.measureInsts = 1'000;
    set(config);
    EXPECT_DEATH(Simulator(config).run(), diagnostic);
}

TEST(SimulatorConfigDeathTest, RejectsZeroCommitWidth)
{
    expectRejected([](SimConfig &c) { c.commitWidth = 0; },
                   "commitWidth must be positive");
}

TEST(SimulatorConfigDeathTest, RejectsFetchWidthBelowOneInstruction)
{
    expectRejected([](SimConfig &c) { c.fetchBytesPerCycle = 3; },
                   "fetchBytesPerCycle must fetch at least one instruction");
}

TEST(SimulatorConfigDeathTest, RejectsZeroPredictionWidth)
{
    expectRejected([](SimConfig &c) { c.bpBlocksPerCycle = 0; },
                   "bpBlocksPerCycle must be positive");
}

TEST(SimulatorConfigDeathTest, RejectsEmptyFtq)
{
    expectRejected([](SimConfig &c) { c.ftqEntries = 0; },
                   "ftqEntries must be positive");
}

TEST(SimulatorConfigDeathTest, RejectsEmptyRob)
{
    expectRejected([](SimConfig &c) { c.robEntries = 0; },
                   "robEntries must be positive");
}

TEST(SimulatorConfigDeathTest, RejectsBtbResumeAfterCommit)
{
    expectRejected([](SimConfig &c) { c.btbMissPenalty = 12; },
                   "btbMissPenalty \\(12\\) must not exceed "
                   "pipelineDepth \\(10\\)");
}

TEST(SimulatorConfigDeathTest, RejectsNoMshrs)
{
    // Every demand miss would retry forever.
    expectRejected([](SimConfig &c) { c.mem.l1iMshrs = 0; },
                   "mem.mshrsReservedForDemand \\(4\\) must be below "
                   "mem.l1iMshrs \\(0\\)");
}

TEST(SimulatorConfigDeathTest, RejectsNoMshrsForPrefetches)
{
    // Every prefetch would be dropped in the detailed loop, while
    // fast-forward, which has no MSHRs, would still issue them.
    expectRejected(
        [](SimConfig &c) {
            c.mem.l1iMshrs = 4;
            c.mem.mshrsReservedForDemand = 4;
        },
        "mem.mshrsReservedForDemand \\(4\\) must be below "
        "mem.l1iMshrs \\(4\\)");
}

TEST(SimulatorTest, BtbResumeAtPipelineDepthRuns)
{
    // The largest accepted penalty: the resume lands in the cycle the
    // branch can first commit, ahead of commit.
    SimConfig config = quickConfig();
    config.btbMissPenalty = config.pipelineDepth;
    SimMetrics m = Simulator(config).run();
    EXPECT_GE(m.instructions, 300'000u);
}

TEST(SimulatorStatsTest, RegistryCoversEveryComponent)
{
    Simulator sim(quickConfig(PrefetcherKind::Hierarchical));
    const StatsRegistry &reg = sim.stats();
    for (const char *path :
         {"sim.cycles", "sim.instructions", "sim.ras_mispredicts",
          "l1i.demand_accesses", "l1i.demand_misses",
          "l2i.demand_misses", "llc.demand_misses", "itlb.accesses",
          "itlb.misses", "btb.lookups", "btb.misses",
          "cond.predictions", "cond.mispredicts",
          "indirect.mispredicts", "ras.overflows", "ras.underflows",
          "fdip.issued", "fdip.useful_l1", "ext.issued",
          "ext.late_merges", "dram.demand_bytes",
          "dram.metadata_read_bytes", "engine.instructions",
          "engine.tagged_insts", "hier.requests_pushed",
          "hier.tagged_commits", "hier.metadata_read_bytes"}) {
        EXPECT_TRUE(reg.has(path)) << "missing stat: " << path;
    }
    // Non-hierarchical prefetchers register under the generic "pf".
    Simulator efetch(quickConfig(PrefetcherKind::EFetch));
    EXPECT_TRUE(efetch.stats().has("pf.requests_pushed"));
    EXPECT_FALSE(efetch.stats().has("hier.tagged_commits"));
}

/** Expects every (path, value) of @p want in @p stats. */
void
expectStats(const StatsSnapshot &stats,
            std::initializer_list<std::pair<const char *, std::uint64_t>>
                want)
{
    for (const auto &[path, value] : want)
        EXPECT_EQ(stats.value(path), value) << path;
}

// Golden values captured from the seed implementation (the
// hand-maintained *AtWarmup_ shadow fields and per-counter
// subtraction block) on this exact config, before the registry
// refactor. The measurement-phase snapshot must reproduce the seed
// path counter for counter.
TEST(SimulatorStatsTest, RegistryDerivedMetricsMatchSeedPathFdip)
{
    SimMetrics m = Simulator(quickConfig()).run();
    EXPECT_EQ(m.cycles, 818881u);
    EXPECT_EQ(m.instructions, 300003u);
    EXPECT_EQ(m.dataDramBytes, 120001u);
    expectStats(m.stats, {
                             {"sim.cycles", 818881},
                             {"sim.instructions", 300003},
                             {"cond.predictions", 16531},
                             {"cond.mispredicts", 3313},
                             {"indirect.mispredicts", 1},
                             {"sim.ras_mispredicts", 1},
                             {"btb.misses", 2200},
                             {"sim.fetch_stall_cycles", 488171},
                             {"sim.backend_stall_cycles", 226751},
                             {"itlb.accesses", 31981},
                             {"itlb.misses", 182},
                             {"l1i.demand_accesses", 31981},
                             {"l1i.demand_misses", 4180},
                             {"l2i.demand_misses", 3241},
                             {"llc.demand_misses", 3190},
                             {"l1i.served_by_mshr", 3588},
                             {"fdip.issued", 31982},
                             {"fdip.inserted", 12538},
                             {"dram.demand_bytes", 448},
                             {"engine.instructions", 300022},
                             {"engine.requests", 1},
                             {"engine.calls", 595},
                             {"engine.returns", 596},
                             {"engine.cond_branches", 16531},
                             {"engine.tagged_insts", 9},
                         });
}

TEST(SimulatorStatsTest, RegistryDerivedMetricsMatchSeedPathHier)
{
    SimMetrics m =
        Simulator(quickConfig(PrefetcherKind::Hierarchical)).run();
    EXPECT_EQ(m.cycles, 818776u);
    EXPECT_EQ(m.instructions, 300003u);
    expectStats(m.stats, {
                             {"cond.predictions", 16531},
                             {"cond.mispredicts", 3313},
                             {"btb.misses", 2200},
                             {"sim.fetch_stall_cycles", 488065},
                             {"l1i.demand_misses", 4178},
                             {"l2i.demand_misses", 3239},
                             {"fdip.inserted", 12530},
                             {"ext.issued", 12},
                             {"ext.inserted", 8},
                             {"ext.useful_l1", 7},
                             {"ext.late_merges", 1},
                             // Measurement phase only; the seed
                             // read 15, warmup included.
                             {"hier.tagged_commits", 9},
                             {"hier.replay_prefetches", 12},
                             {"hier.metadata_read_bytes", 368},
                         });
}

/** The conservation laws of the counters under @p prefix of @p s. */
void
expectConservation(const StatsSnapshot &s, const std::string &prefix)
{
    std::uint64_t binned = 0;
    for (unsigned b = 0; b < HierarchyStats::kDistanceBins; ++b) {
        binned += s.value(prefix + "ext.useful_distance_bin" +
                          std::to_string(b));
    }
    EXPECT_EQ(binned, s.value(prefix + "ext.useful_distance_samples"))
        << prefix;
    if (s.has(prefix + "hier.bundle_executions")) {
        EXPECT_LE(s.value(prefix + "hier.bundle_jaccard_samples"),
                  s.value(prefix + "hier.bundle_executions"))
            << prefix;
    }
}

TEST(StatsConservationTest, ExactRuns)
{
    for (PrefetcherKind kind :
         {PrefetcherKind::None, PrefetcherKind::Eip,
          PrefetcherKind::Hierarchical}) {
        SimConfig config = quickConfig(kind);
        config.hier.trackBundleStats = true;
        SimMetrics m = Simulator(config).run();
        expectConservation(m.stats, "");
        if (kind != PrefetcherKind::None) {
            EXPECT_GT(m.stats.value("ext.useful_distance_samples"), 0u);
        }
        if (kind == PrefetcherKind::Hierarchical) {
            EXPECT_GT(m.stats.value("hier.bundle_jaccard_samples"), 0u);
        }
    }
}

TEST(StatsConservationTest, MulticoreRunsPerCoreAndAggregate)
{
    // EIP fills the distance bins, here with three tenants on two
    // cores (one core switches). The Hierarchical Prefetcher samples
    // Bundle executions, which a switch cuts short, so it gets one
    // tenant per core and the single-core budget.
    for (PrefetcherKind kind :
         {PrefetcherKind::Eip, PrefetcherKind::Hierarchical}) {
        const bool eip = kind == PrefetcherKind::Eip;
        SimConfig config = quickConfig(kind);
        config.hier.trackBundleStats = true;
        config.mt.cores = 2;
        if (eip) {
            config.mt.tenants = {"tidb-tpcc", "mysql-sysbench", "caddy"};
            config.mt.switchQuantum = 20'000;
        } else {
            config.mt.tenants = {"caddy", "gin"};
        }
        SimMetrics m = runMultiTenant(config);
        const std::uint64_t cores = m.stats.value("mt.cores");
        ASSERT_EQ(cores, 2u);
        expectConservation(m.stats, "");
        for (std::uint64_t i = 0; i < cores; ++i)
            expectConservation(m.stats, "core" + std::to_string(i) + ".");
        if (eip) {
            EXPECT_GT(m.stats.value("ext.useful_distance_samples"), 0u);
        } else {
            EXPECT_GT(m.stats.value("hier.bundle_jaccard_samples"), 0u);
        }
    }
}

} // namespace
} // namespace hp
