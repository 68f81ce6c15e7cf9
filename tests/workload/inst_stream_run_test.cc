/**
 * @file
 * The run contract of InstStream::next (isa/inst.hh): pulling with any
 * max yields exactly the instruction sequence of one-at-a-time pulls,
 * and at every cut between runs the stream's counters and its
 * serialized state equal those of the one-at-a-time stream. Checked
 * for the request engine across request ends, and for the scenario
 * engine across service hops and chain ends.
 */

#include <gtest/gtest.h>

#include <random>
#include <tuple>

#include "util/serialize.hh"
#include "workload/request_engine.hh"
#include "workload/scenario_engine.hh"

namespace hp
{
namespace
{

/** Two services with the shortest requests, so a short pull crosses
 *  several hops and chain ends. */
const char *kChainScenario =
    "scenario run-contract\n"
    "seed 9\n"
    "service front profile=tidb-tpcc\n"
    "service back  profile=tidb-sysbench\n"
    "chain hop2 services=front,back\n"
    "phase steady arrival=fixed rate=0.05\n";

auto
fields(const DynInst &d)
{
    return std::tie(d.pc, d.target, d.kind, d.taken, d.tagged, d.marker,
                    d.markerArg, d.func);
}

template <class Engine>
std::vector<std::uint8_t>
stateBytes(Engine &engine)
{
    StateWriter w;
    engine.serializeState(w);
    return w.take();
}

/** Run bounds from one to far beyond any Run op, with ones common. */
std::uint64_t
pickMax(std::mt19937_64 &rng)
{
    switch (rng() % 4) {
      case 0:
        return 1;
      case 1:
        return 2 + rng() % 15;
      case 2:
        return 17 + rng() % 200;
      default:
        return 1 + rng() % 5000;
    }
}

/**
 * Pulls @p insts instructions from @p runs in runs of random length
 * and from @p single one at a time, checking the expansion of every
 * run and, at every cut, the two registries and state blobs.
 * @return the number of runs longer than one instruction.
 */
template <class Engine>
std::uint64_t
checkRunsExpandExactly(Engine &single, const StatsRegistry &single_reg,
                       Engine &runs, const StatsRegistry &runs_reg,
                       std::uint64_t insts, std::uint64_t seed)
{
    std::mt19937_64 rng(seed);
    std::uint64_t pulled = 0;
    std::uint64_t long_runs = 0;
    while (pulled < insts) {
        const std::uint64_t max = pickMax(rng);
        DynInst first;
        const std::uint64_t n = runs.next(first, max);
        EXPECT_GE(n, 1u);
        EXPECT_LE(n, max);
        if (n > 1) {
            ++long_runs;
            EXPECT_EQ(first.kind, InstKind::Plain) << "at " << pulled;
        }
        for (std::uint64_t k = 0; k < n; ++k) {
            DynInst expect = first;
            if (k > 0) {
                expect.pc = first.pc + k * kInstBytes;
                expect.marker = StreamMarker::None;
                expect.markerArg = 0;
            }
            DynInst ref;
            EXPECT_EQ(single.next(ref, 1), 1u);
            if (fields(ref) != fields(expect)) {
                ADD_FAILURE() << "run of " << n << " at instruction "
                              << pulled << " differs at slot " << k;
                return long_runs;
            }
        }
        pulled += n;
        if (single_reg.snapshot().entries() !=
            runs_reg.snapshot().entries()) {
            ADD_FAILURE() << "counters differ after instruction " << pulled;
            return long_runs;
        }
        if (stateBytes(single) != stateBytes(runs)) {
            ADD_FAILURE() << "state differs after instruction " << pulled;
            return long_runs;
        }
    }
    return long_runs;
}

TEST(InstStreamRunTest, RequestEngineRunsExpandToSingleSteps)
{
    const AppProfile &profile = appProfile("tidb-tpcc");
    const auto app = ProgramBuilder::cached(profile);
    RequestEngine single(app, profile);
    RequestEngine runs(app, profile);
    StatsRegistry single_reg;
    StatsRegistry runs_reg;
    single.registerStats(single_reg, "engine");
    runs.registerStats(runs_reg, "engine");

    const std::uint64_t long_runs = checkRunsExpandExactly(
        single, single_reg, runs, runs_reg, 700'000, 1);
    EXPECT_GT(long_runs, 1000u);
    // The pulls crossed at least two request ends.
    EXPECT_GE(runs.stats().requests, 3u);
}

TEST(InstStreamRunTest, ScenarioEngineRunsExpandToSingleSteps)
{
    ScenarioEngine single(cachedScenario(kChainScenario));
    ScenarioEngine runs(cachedScenario(kChainScenario));
    StatsRegistry single_reg;
    StatsRegistry runs_reg;
    single.registerStats(single_reg);
    runs.registerStats(runs_reg);

    const std::uint64_t long_runs = checkRunsExpandExactly(
        single, single_reg, runs, runs_reg, 1'300'000, 2);
    EXPECT_GT(long_runs, 1000u);
    // The pulls crossed service hops and whole chains.
    const StatsSnapshot s = runs_reg.snapshot();
    EXPECT_GE(s.value("scenario.hops"), 5u);
    EXPECT_GE(s.value("engine.requests"), 3u);
}

} // namespace
} // namespace hp
