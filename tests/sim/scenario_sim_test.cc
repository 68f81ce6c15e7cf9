/**
 * @file
 * Scenario-mode simulator tests: runs with a SimConfig::scenario are
 * bit-deterministic (per-request samples included), runs without one
 * are byte-identical to the pre-scenario pipeline (no latency block,
 * unchanged config keys), and the ScenarioEngine's emitted stream
 * honors the address-window and marker invariants the simulator
 * relies on.
 */

#include <gtest/gtest.h>

#include <set>

#include "sim/runner.hh"
#include "sim/simulator.hh"
#include "util/serialize.hh"
#include "workload/latency_tracker.hh"
#include "workload/scenario_engine.hh"

namespace hp
{
namespace
{

/** One service, saturating fixed arrivals: requests run back to back,
 *  so even a short run completes several. */
const char *kSmallScenario =
    "scenario sim-test\n"
    "seed 5\n"
    "service app profile=caddy\n"
    "chain req services=app\n"
    "phase steady arrival=fixed rate=0.05\n";

const char *kChainScenario =
    "scenario chain-test\n"
    "seed 9\n"
    "service front profile=caddy\n"
    "service back  profile=gin\n"
    "chain hop2 services=front,back\n"
    "phase steady arrival=fixed rate=0.05\n";

SimConfig
scenarioConfig(const char *text)
{
    SimConfig config;
    config.scenario = text;
    config.workload =
        scenarioPrimaryProfile(*cachedScenario(text));
    config.warmupInsts = 150'000;
    config.measureInsts = 600'000;
    config.prefetcher = PrefetcherKind::None;
    return config;
}

TEST(ScenarioSimTest, NoScenarioMeansNoLatencyReport)
{
    SimConfig config;
    config.workload = "caddy";
    config.warmupInsts = 100'000;
    config.measureInsts = 200'000;
    const SimMetrics m = Simulator(config).run();
    EXPECT_EQ(m.latency, nullptr);
}

TEST(ScenarioSimTest, ScenarioRunPopulatesLatencyReport)
{
    const SimMetrics m =
        Simulator(scenarioConfig(kSmallScenario)).run();
    ASSERT_NE(m.latency, nullptr);
    const LatencyReport &l = *m.latency;
    EXPECT_GT(l.generated, 0u);
    EXPECT_GT(l.completed, 0u);
    EXPECT_EQ(l.dropped, 0u); // no sampling: every span is detailed
    EXPECT_EQ(l.latencySamples.size(), l.completed);
    EXPECT_GE(l.p99(), l.p50());
    // Saturating arrivals: latency includes queueing on top of
    // service time.
    EXPECT_GE(l.latencyCycles, l.serviceCycles);
}

TEST(ScenarioSimTest, ScenarioRunIsBitDeterministic)
{
    const SimMetrics a =
        Simulator(scenarioConfig(kChainScenario)).run();
    const SimMetrics b =
        Simulator(scenarioConfig(kChainScenario)).run();
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
    EXPECT_EQ(a.stats.value("l1i.demand_misses"),
              b.stats.value("l1i.demand_misses"));
    ASSERT_NE(a.latency, nullptr);
    ASSERT_NE(b.latency, nullptr);
    EXPECT_EQ(a.latency->generated, b.latency->generated);
    EXPECT_EQ(a.latency->latencySamples, b.latency->latencySamples);
    EXPECT_EQ(a.latency->serviceSamples, b.latency->serviceSamples);
    EXPECT_EQ(a.latency->queueDepthSum, b.latency->queueDepthSum);
}

TEST(ScenarioSimTest, ConfigKeyCarriesScenarioHash)
{
    SimConfig plain;
    plain.workload = "caddy";
    const std::string plain_key = ExperimentRunner::configKey(plain);
    EXPECT_NE(plain_key.find("|scenario=|"), std::string::npos);

    // The spec text keys by its content hash, so the key stays one
    // line however long the spec is.
    SimConfig with = plain;
    with.scenario = kSmallScenario;
    const std::string with_key = ExperimentRunner::configKey(with);
    EXPECT_NE(with_key.find("|scenario=#"), std::string::npos);
    EXPECT_EQ(with_key.find('\n'), std::string::npos);
    EXPECT_NE(with_key, plain_key);

    SimConfig other = plain;
    other.scenario = kChainScenario;
    EXPECT_NE(ExperimentRunner::configKey(other), with_key);
}

TEST(ScenarioEngineTest, StreamStaysInsideServiceWindows)
{
    ScenarioEngine engine(cachedScenario(kChainScenario));
    constexpr Addr stride = ScenarioEngine::kServiceStride;
    bool saw_second_window = false;
    DynInst inst;
    for (int i = 0; i < 600'000; ++i) {
        ASSERT_TRUE(engine.next(inst));
        ASSERT_LT(inst.pc, 2 * stride);
        if (inst.pc >= stride)
            saw_second_window = true;
        // A taken transfer's target stays inside the two windows.
        if (inst.target != 0) {
            ASSERT_LT(inst.target, 2 * stride);
        }
    }
    // The chain reached its second hop: gin code in window 1.
    EXPECT_TRUE(saw_second_window);
}

TEST(ScenarioEngineTest, RequestMarkersPairAndPlaceCorrectly)
{
    ScenarioEngine engine(cachedScenario(kChainScenario));
    constexpr Addr stride = ScenarioEngine::kServiceStride;
    int begins = 0, ends = 0;
    bool open = false;
    DynInst inst;
    // A two-hop caddy+gin chain runs ~1M instructions end to end;
    // 3M covers several full request lifetimes.
    for (int i = 0; i < 3'000'000; ++i) {
        ASSERT_TRUE(engine.next(inst));
        if (inst.marker == StreamMarker::RequestBegin) {
            // Chains begin exactly once, on the first service.
            ASSERT_FALSE(open);
            ASSERT_LT(inst.pc, stride);
            open = true;
            ++begins;
        } else if (inst.marker == StreamMarker::RequestEnd) {
            // ...and end once, on the last service of the chain.
            ASSERT_TRUE(open);
            ASSERT_GE(inst.pc, stride);
            open = false;
            ++ends;
        }
    }
    EXPECT_GT(ends, 0);
    EXPECT_GE(begins, ends);
    EXPECT_LE(begins, ends + 1);
}

TEST(ScenarioEngineTest, StatsExposeChainBreakdown)
{
    ScenarioEngine engine(cachedScenario(kChainScenario));
    StatsRegistry reg;
    engine.registerStats(reg);
    DynInst inst;
    for (int i = 0; i < 600'000; ++i)
        ASSERT_TRUE(engine.next(inst));
    const StatsSnapshot snap = reg.snapshot();
    EXPECT_EQ(snap.value("engine.instructions"), 600'000u);
    const std::uint64_t chains = snap.value("engine.requests");
    EXPECT_GT(chains, 0u);
    // The single chain accounts for every end-to-end request, and
    // each walks one or two service hops (the last may be mid-chain).
    EXPECT_EQ(snap.value("scenario.chain.hop2.requests"), chains);
    EXPECT_EQ(snap.value("latency.generated"), chains);
    EXPECT_GE(snap.value("scenario.hops"), chains);
    EXPECT_LE(snap.value("scenario.hops"), 2 * chains);
}

TEST(ScenarioEngineTest, RestoreRejectsAChainCursorOutsideTheScenario)
{
    // The engine's stream ends with the chain cursor: curChain_ (-1
    // before the first chain), hop_ and lastPhase_, one varint byte
    // each here. next() indexes the chains and their hops with the
    // first two, so a restore must reject values outside the scenario.
    ScenarioEngine engine(cachedScenario(kChainScenario));
    DynInst inst;
    for (int i = 0; i < 100'000; ++i)
        ASSERT_TRUE(engine.next(inst));
    StateWriter writer;
    engine.serializeState(writer);
    const std::vector<std::uint8_t> good = writer.take();
    const std::size_t cursor_at = good.size() - 3;
    std::int32_t chain = -1;
    std::uint32_t hop = 0;
    std::uint32_t phase = 0;
    {
        StateLoader tail(good.data() + cursor_at, 3);
        tail.value(chain);
        tail.value(hop);
        tail.value(phase);
        ASSERT_FALSE(tail.failed());
    }
    ASSERT_EQ(chain, 0); // the scenario's one chain
    ASSERT_LT(hop, 2u);  // of two hops

    ScenarioEngine restored(cachedScenario(kChainScenario));
    {
        StateLoader loader(good.data(), good.size());
        restored.serializeState(loader);
        ASSERT_FALSE(loader.failed());
    }
    const std::pair<std::int32_t, std::uint32_t> corruptions[] = {
        {1, hop}, {-2, hop}, {chain, 2}};
    for (const auto &[bad_chain, bad_hop] : corruptions) {
        StateWriter edited;
        edited.bytes(good.data(), cursor_at);
        edited.value(bad_chain);
        edited.value(bad_hop);
        edited.value(phase);
        const std::vector<std::uint8_t> bad = edited.take();
        StateLoader loader(bad.data(), bad.size());
        restored.serializeState(loader);
        EXPECT_TRUE(loader.failed())
            << "chain " << bad_chain << ", hop " << bad_hop;
        ASSERT_NE(loader.failReason(), nullptr);
        EXPECT_NE(std::string(loader.failReason()).find("chain cursor"),
                  std::string::npos)
            << loader.failReason();
    }
}

} // namespace
} // namespace hp
