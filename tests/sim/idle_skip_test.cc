/**
 * @file
 * Idle-cycle skipping is exact, and it stays on.
 *
 * The detailed loop jumps over every cycle Simulator::nextActiveCycle
 * reports idle. The reference is step() every cycle, driven through
 * SimulatorProbe:
 * - skipping and per-cycle stepping reach the same registry snapshot
 *   and the same serialized state at the same commit targets, under
 *   every prefetcher kind, on a context-switching core and in a
 *   sampled window;
 * - a consolidation's event-ordered scheduler reaches the combined
 *   snapshot and every core's serialized state of a per-cycle
 *   lockstep, across core counts, widths, a zero warmup and tied
 *   cores;
 * - along a per-cycle run, a cycle reported idle changes nothing but
 *   the clock;
 * - a deterministic step gate: steady-state detailed runs, and each
 *   core of a consolidation, take at most kMaxStepsPerKinst step()
 *   calls per 1,000 committed instructions (per-cycle stepping takes
 *   ~1,200).
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <ostream>
#include <string>
#include <vector>

#include "sim/multicore.hh"
#include "sim/simulator.hh"
#include "sim_probe.hh"

namespace hp
{
namespace
{

using Probe = SimulatorProbe;

constexpr PrefetcherKind kAllKinds[] = {
    PrefetcherKind::None,         PrefetcherKind::EFetch,
    PrefetcherKind::Mana,         PrefetcherKind::Eip,
    PrefetcherKind::Rdip,         PrefetcherKind::Hierarchical,
    PrefetcherKind::PerfectL1I,
};

SimConfig
shortConfig(PrefetcherKind kind)
{
    SimConfig config;
    config.workload = "caddy";
    config.prefetcher = kind;
    config.warmupInsts = 20'000;
    config.measureInsts = 40'000;
    return config;
}

/** Both simulators stand at the same state, clock included. */
void
expectSameState(Simulator &a, Simulator &b)
{
    EXPECT_EQ(a.stats().snapshot().entries(),
              b.stats().snapshot().entries());
    EXPECT_TRUE(Probe::state(a) == Probe::state(b))
        << "serialized states differ";
}

/** Drives @p skip with runTo and @p ref with per-cycle steps through
 *  the same commit targets past where they stand, comparing at each. */
void
expectSkipMatchesStepping(Simulator &skip, Simulator &ref)
{
    const std::uint64_t base = skip.committedInsts();
    for (std::uint64_t target : {1u, 5'000u, 20'000u, 45'000u}) {
        SCOPED_TRACE("target " + std::to_string(base + target));
        Probe::runTo(skip, base + target);
        Probe::stepTo(ref, base + target);
        expectSameState(skip, ref);
    }
}

/** Prefetchers act on warm state: one functional megainstruction. */
constexpr std::uint64_t kWarmInsts = 1'000'000;

class SkipTest : public ::testing::TestWithParam<PrefetcherKind>
{
};

TEST_P(SkipTest, MatchesPerCycleSteppingAtEveryTarget)
{
    // From a cold start, then again after a functional warm.
    Simulator skip(shortConfig(GetParam()));
    Simulator ref(shortConfig(GetParam()));
    expectSkipMatchesStepping(skip, ref);
    skip.fastForward(kWarmInsts);
    ref.fastForward(kWarmInsts);
    expectSkipMatchesStepping(skip, ref);
    // Skipping is on, and it skipped.
    EXPECT_LT(Probe::steps(skip), Probe::steps(ref));
}

TEST_P(SkipTest, RunMatchesPerCycleRun)
{
    Simulator skip(shortConfig(GetParam()));
    Simulator ref(shortConfig(GetParam()));
    const SimMetrics a = skip.run();
    const SimMetrics b = Probe::stepRun(ref);
    EXPECT_EQ(a.stats.entries(), b.stats.entries());
    EXPECT_TRUE(Probe::state(skip) == Probe::state(ref));
}

INSTANTIATE_TEST_SUITE_P(
    AllPrefetchers, SkipTest, ::testing::ValuesIn(kAllKinds),
    [](const ::testing::TestParamInfo<PrefetcherKind> &info) {
        return prefetcherName(info.param);
    });

TEST(SkipTest, MatchesPerCycleSteppingWhileReplaying)
{
    // gin's Bundles are short enough that the Hierarchical Prefetcher
    // replays inside the window, paced by its metadata reads.
    SimConfig config = shortConfig(PrefetcherKind::Hierarchical);
    config.workload = "gin";
    Simulator skip(config);
    Simulator ref(config);
    skip.fastForward(kWarmInsts);
    ref.fastForward(kWarmInsts);
    const std::uint64_t replayed =
        skip.stats().snapshot().value("hier.replay_prefetches");
    expectSkipMatchesStepping(skip, ref);
    EXPECT_GT(skip.stats().snapshot().value("hier.replay_prefetches"),
              replayed + 500);
}

TEST(SkipTest, MatchesPerCycleSteppingOnASwitchingCore)
{
    CoreInit init;
    init.tenants = {"caddy", "gin"};
    init.switchQuantum = 4'000;
    const SimConfig config = shortConfig(PrefetcherKind::Hierarchical);
    Simulator skip(config, init);
    Simulator ref(config, init);
    expectSkipMatchesStepping(skip, ref);
    EXPECT_GT(skip.stats().snapshot().value("sim.context_switches"), 5u);
}

/** A 2-core consolidation of three tenants: core 0 time-slices caddy
 *  and echo, core 1 runs gin; both contend on the shared ports. */
SimConfig
consolidationConfig()
{
    SimConfig config = shortConfig(PrefetcherKind::Hierarchical);
    config.mt.tenants = {"caddy", "gin", "echo"};
    config.mt.cores = 2;
    config.mt.switchQuantum = 6'000;
    config.mt.metadataReadBytesPerCycle = 8;
    config.mt.dramFillGapCycles = 4;
    return config;
}

/** A consolidation the scheduler must step in the lockstep's order. */
struct ConsolidationCase
{
    const char *name;
    SimConfig config;
};

void
PrintTo(const ConsolidationCase &c, std::ostream *os)
{
    *os << c.name;
}

std::vector<ConsolidationCase>
consolidationCases()
{
    std::vector<ConsolidationCase> cases;
    cases.push_back({"TwoCoresThreeTenants", consolidationConfig()});

    // Three widths, so the cores cross their phase boundaries at
    // different cycles and the last ones run on alone.
    SimConfig widths = consolidationConfig();
    widths.mt.cores = 3;
    CoreConfig wide = widths.core(), mid = wide, narrow = wide;
    mid.fetchBytesPerCycle = 8;
    mid.commitWidth = 3;
    narrow.fetchBytesPerCycle = 4;
    narrow.commitWidth = 1;
    widths.mt.coreOverrides = {wide, mid, narrow};
    cases.push_back({"ThreeCoresOfDifferentWidths", widths});

    // Each core begins measuring right after its first step.
    SimConfig no_warmup = consolidationConfig();
    no_warmup.warmupInsts = 0;
    cases.push_back({"NoWarmup", no_warmup});

    // Two copies of one tenant want the same cycles, so the cores tie
    // on a cycle far more often than two different apps do.
    SimConfig same = consolidationConfig();
    same.mt.tenants = {"gin", "gin"};
    cases.push_back({"SameTenantOnTwoCores", same});
    return cases;
}

class SchedulerTest : public ::testing::TestWithParam<ConsolidationCase>
{
};

TEST_P(SchedulerTest, MatchesPerCycleLockstep)
{
    MultiCoreSimulator skip(GetParam().config);
    MultiCoreSimulator ref(GetParam().config);
    const SimMetrics a = skip.run();
    const SimMetrics b = Probe::stepRun(ref);
    EXPECT_EQ(a.stats.entries(), b.stats.entries());
    for (unsigned i = 0; i < skip.coreCount(); ++i) {
        SCOPED_TRACE("core " + std::to_string(i));
        EXPECT_TRUE(Probe::state(Probe::core(skip, i)) ==
                    Probe::state(Probe::core(ref, i)));
        EXPECT_LT(Probe::steps(Probe::core(skip, i)),
                  Probe::steps(Probe::core(ref, i)));
    }
}

INSTANTIATE_TEST_SUITE_P(
    Consolidations, SchedulerTest,
    ::testing::ValuesIn(consolidationCases()),
    [](const ::testing::TestParamInfo<ConsolidationCase> &info) {
        return std::string(info.param.name);
    });

TEST(SkipTest, MatchesPerCycleSteppingInASampledWindow)
{
    for (PrefetcherKind kind :
         {PrefetcherKind::None, PrefetcherKind::Hierarchical}) {
        SCOPED_TRACE(prefetcherName(kind));
        Simulator skip(shortConfig(kind));
        Simulator ref(shortConfig(kind));
        for (Simulator *sim : {&skip, &ref})
            sim->fastForward(60'000);
        skip.advanceDetailed(5'000);
        Probe::stepTo(ref, ref.committedInsts() + 5'000);
        expectSameState(skip, ref);
        const SimMetrics a = skip.measureWindow(10'000);
        const SimMetrics b = Probe::stepWindow(ref, 10'000);
        EXPECT_EQ(a.stats.entries(), b.stats.entries());
        EXPECT_TRUE(Probe::state(skip) == Probe::state(ref));
    }
}

/** A warm detailed run whose checks stay cheap: small structures
 *  keep each serialized state near 200 KB. */
struct IdleCase
{
    const char *workload;
    PrefetcherKind kind;
};

/** Names the case in test listings (the default prints its bytes). */
void
PrintTo(const IdleCase &c, std::ostream *os)
{
    *os << c.workload << '/' << prefetcherName(c.kind);
}

class IdleCycleTest : public ::testing::TestWithParam<IdleCase>
{
};

TEST_P(IdleCycleTest, ReportedIdleCyclesChangeOnlyTheClock)
{
    SimConfig config = shortConfig(GetParam().kind);
    config.workload = GetParam().workload;
    config.btbEntries = 512;
    config.mem.l1iBytes = 8 * 1024;
    config.mem.l2Bytes = 32 * 1024;
    config.mem.llcBytes = 64 * 1024;
    config.hier.metadataBufferBytes = 64 * 1024;
    Simulator sim(config);
    sim.fastForward(kWarmInsts);
    Probe::stepTo(sim, kWarmInsts + 2'000);

    // Every 8th cycle nextActiveCycle calls idle, along a per-cycle
    // run: stepping it must leave every counter but sim.cycles and
    // every serialized byte but the clock unchanged.
    unsigned idle = 0, checked = 0;
    while (sim.committedInsts() < kWarmInsts + 20'000) {
        if (Probe::nextActiveCycle(sim) == Probe::now(sim) ||
            idle++ % 8 != 0) {
            Probe::step(sim);
            continue;
        }
        const auto stats = Probe::timelessStats(sim);
        const auto bytes = Probe::timelessState(sim);
        const Cycle cycle = Probe::now(sim);
        Probe::step(sim);
        ASSERT_EQ(stats, Probe::timelessStats(sim))
            << "idle cycle " << cycle << " changed a counter";
        ASSERT_TRUE(bytes == Probe::timelessState(sim))
            << "idle cycle " << cycle << " changed the state";
        ++checked;
    }
    EXPECT_GT(checked, 1'000u);
}

// FDIP alone, and the Hierarchical Prefetcher replaying: the one
// prefetcher whose tick() acts with time.
INSTANTIATE_TEST_SUITE_P(
    Warm, IdleCycleTest,
    ::testing::Values(IdleCase{"caddy", PrefetcherKind::None},
                      IdleCase{"gin", PrefetcherKind::Hierarchical}),
    [](const ::testing::TestParamInfo<IdleCase> &info) {
        return std::string(prefetcherName(info.param.kind));
    });

/** step() calls allowed per 1,000 committed instructions. */
constexpr double kMaxStepsPerKinst = 600.0;

TEST(StepGateTest, SteadyStateSkipsIdleCycles)
{
    for (PrefetcherKind kind :
         {PrefetcherKind::None, PrefetcherKind::Hierarchical}) {
        SimConfig config;
        config.workload = "caddy";
        config.prefetcher = kind;
        Simulator sim(config);
        sim.advanceDetailed(400'000);
        const std::uint64_t steps = Probe::steps(sim);
        const std::uint64_t insts = sim.committedInsts();
        sim.advanceDetailed(600'000);
        const double rate =
            1000.0 * double(Probe::steps(sim) - steps) /
            double(sim.committedInsts() - insts);
        std::printf("step gate: %s %.1f steps per 1,000 instructions\n",
                    prefetcherName(kind), rate);
        EXPECT_LE(rate, kMaxStepsPerKinst) << prefetcherName(kind);
    }
}

TEST(StepGateTest, ConsolidationStepsOnlyActiveCores)
{
    // Summed over the cores. Stepping every live core on each cycle
    // any of them acts takes ~900 here.
    MultiCoreSimulator mc(consolidationConfig());
    mc.run();
    std::uint64_t steps = 0, insts = 0;
    for (unsigned i = 0; i < mc.coreCount(); ++i) {
        steps += Probe::steps(Probe::core(mc, i));
        insts += Probe::core(mc, i).committedInsts();
    }
    const double rate = 1000.0 * double(steps) / double(insts);
    std::printf("consolidation step gate: %.1f core steps per 1,000 "
                "instructions\n",
                rate);
    EXPECT_LE(rate, kMaxStepsPerKinst);
}

} // namespace
} // namespace hp
