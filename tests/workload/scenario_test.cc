/**
 * @file
 * Parser tests for the scenario DSL (workload/scenario.hh): the
 * canonical-form round-trip (serializeScenario output re-parses to an
 * equal Scenario, for hand-written specs and for every checked-in
 * example), and the rejection paths, each pinned to a line-numbered
 * error message.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "workload/scenario.hh"

namespace hp
{
namespace
{

const char *kFullSpec =
    "# full-featured spec exercising every directive\n"
    "scenario checkout-rush\n"
    "seed 42\n"
    "service web profile=caddy\n"
    "service db  profile=tidb-tpcc   # trailing comment\n"
    "chain browse services=web weight=3\n"
    "chain buy    services=web,db weight=1\n"
    "phase steady duration=400k arrival=poisson rate=0.02\n"
    "phase rush   duration=200k arrival=flash rate=0.02 peak=0.05 "
    "ramp=40k mix=buy:3,browse:1\n"
    "phase wave   duration=300k arrival=diurnal rate=0.01 "
    "amplitude=0.25 period=100k\n"
    "phase calm   arrival=fixed rate=0.01\n";

Scenario
parseOk(const std::string &text)
{
    Scenario s;
    std::string err;
    EXPECT_TRUE(parseScenario(text, &s, &err)) << err;
    return s;
}

TEST(ScenarioParserTest, ParsesFullFeaturedSpec)
{
    const Scenario s = parseOk(kFullSpec);
    EXPECT_EQ(s.name, "checkout-rush");
    EXPECT_EQ(s.seed, 42u);

    ASSERT_EQ(s.services.size(), 2u);
    EXPECT_EQ(s.services[0].name, "web");
    EXPECT_EQ(s.services[0].profile, "caddy");
    EXPECT_EQ(s.serviceIndex("db"), 1);
    EXPECT_EQ(s.serviceIndex("nope"), -1);

    ASSERT_EQ(s.chains.size(), 2u);
    EXPECT_EQ(s.chains[0].name, "browse");
    EXPECT_DOUBLE_EQ(s.chains[0].weight, 3.0);
    ASSERT_EQ(s.chains[1].services.size(), 2u);
    EXPECT_EQ(s.chains[1].services[1], "db");
    EXPECT_EQ(s.chainIndex("buy"), 1);

    ASSERT_EQ(s.phases.size(), 4u);
    EXPECT_EQ(s.phases[0].arrival.kind, ArrivalSpec::Kind::Poisson);
    EXPECT_EQ(s.phases[0].duration, 400'000u);
    EXPECT_EQ(s.phases[0].start, 0u);

    const PhaseSpec &rush = s.phases[1];
    EXPECT_EQ(rush.arrival.kind, ArrivalSpec::Kind::Flash);
    EXPECT_EQ(rush.start, 400'000u);
    EXPECT_DOUBLE_EQ(rush.arrival.peak, 0.05);
    EXPECT_EQ(rush.arrival.ramp, 40'000u);
    ASSERT_EQ(rush.mix.size(), 2u);
    EXPECT_EQ(rush.mix[0].chain, "buy");
    EXPECT_DOUBLE_EQ(rush.mix[0].weight, 3.0);

    const PhaseSpec &wave = s.phases[2];
    EXPECT_EQ(wave.arrival.kind, ArrivalSpec::Kind::Diurnal);
    EXPECT_DOUBLE_EQ(wave.arrival.amplitude, 0.25);
    EXPECT_EQ(wave.arrival.period, 100'000u);

    // Unbounded last phase: cumulative start, open end.
    EXPECT_EQ(s.phases[3].start, 900'000u);
    EXPECT_EQ(s.phases[3].duration, 0u);
    EXPECT_EQ(s.phaseEnd(3), ~std::uint64_t(0));
    EXPECT_EQ(s.phaseEnd(1), 600'000u);
}

TEST(ScenarioParserTest, CanonicalFormRoundTrips)
{
    const Scenario s = parseOk(kFullSpec);
    const std::string canon = serializeScenario(s);
    const Scenario again = parseOk(canon);
    EXPECT_EQ(s, again);
    // The canonical form is a fixed point: serializing the re-parse
    // gives the same text.
    EXPECT_EQ(canon, serializeScenario(again));
}

TEST(ScenarioParserTest, RoundTripPreservesExactDoubles)
{
    // Weights/rates that do not print prettily must still survive the
    // text round-trip bit-exactly (%.17g).
    Scenario s = parseOk(
        "scenario x\n"
        "service a profile=caddy\n"
        "chain c services=a weight=0.1\n"
        "phase p arrival=poisson rate=0.333333333333333314\n");
    const Scenario again = parseOk(serializeScenario(s));
    EXPECT_EQ(s.chains[0].weight, again.chains[0].weight);
    EXPECT_EQ(s.phases[0].arrival.rate, again.phases[0].arrival.rate);
}

TEST(ScenarioParserTest, ExplicitStartMatchingTimelineIsAccepted)
{
    const Scenario s = parseOk(
        "scenario x\n"
        "service a profile=caddy\n"
        "chain c services=a\n"
        "phase one duration=100k arrival=fixed rate=1\n"
        "phase two start=100k arrival=fixed rate=2\n");
    EXPECT_EQ(s.phases[1].start, 100'000u);
}

TEST(ScenarioParserTest, NumberSuffixesAndDefaults)
{
    const Scenario s = parseOk(
        "scenario x\n"
        "service a profile=caddy\n"
        "chain c services=a\n"
        "phase p duration=2m arrival=diurnal rate=0.5 period=1500k\n");
    EXPECT_EQ(s.seed, 1u); // default
    EXPECT_DOUBLE_EQ(s.chains[0].weight, 1.0);
    EXPECT_EQ(s.phases[0].duration, 2'000'000u);
    EXPECT_EQ(s.phases[0].arrival.period, 1'500'000u);
    EXPECT_DOUBLE_EQ(s.phases[0].arrival.amplitude, 0.5); // default
}

struct Rejection
{
    const char *spec;
    const char *error_substr; ///< Must appear in the message.
    unsigned line;            ///< The line the error points at.
};

// Every rejection path, with the line number the message must carry.
const Rejection kRejections[] = {
    {"service a profile=caddy\n", "must start with 'scenario", 1},
    {"scenario x\nscenario y\n", "duplicate scenario line", 2},
    {"scenario\n", "scenario needs a name", 1},
    {"scenario x\nseed -3\n", "seed wants one nonnegative integer", 2},
    {"scenario x\nseed 1\nseed 2\n", "duplicate seed line", 3},
    {"scenario x\nfrobnicate a\n", "unknown directive 'frobnicate'", 2},
    {"scenario x\nservice a\n", "needs profile=<workload>", 2},
    {"scenario x\nservice a profile=no-such-app\n",
     "unknown workload profile 'no-such-app'", 2},
    {"scenario x\nservice a profile=caddy\n"
     "service a profile=caddy\n",
     "duplicate service 'a'", 3},
    {"scenario x\nservice a profile=caddy\nchain c services=b\n",
     "unknown service 'b'", 3},
    {"scenario x\nservice a profile=caddy\n"
     "chain c services=a weight=0\n",
     "weight must be > 0", 3},
    {"scenario x\nservice a profile=caddy\nchain c services=a\n"
     "phase p arrival=bursty rate=1\n",
     "unknown arrival kind 'bursty'", 4},
    {"scenario x\nservice a profile=caddy\nchain c services=a\n"
     "phase p arrival=poisson\n",
     "needs rate=<r>", 4},
    {"scenario x\nservice a profile=caddy\nchain c services=a\n"
     "phase p rate=1\n",
     "needs arrival=<kind>", 4},
    {"scenario x\nservice a profile=caddy\nchain c services=a\n"
     "phase p arrival=poisson rate=0\n",
     "rate must be > 0", 4},
    {"scenario x\nservice a profile=caddy\nchain c services=a\n"
     "phase p arrival=poisson rate=1 peak=2\n",
     "peak/ramp only apply to flash", 4},
    {"scenario x\nservice a profile=caddy\nchain c services=a\n"
     "phase p arrival=poisson rate=1 period=10k\n",
     "amplitude/period only apply to diurnal", 4},
    {"scenario x\nservice a profile=caddy\nchain c services=a\n"
     "phase p duration=100k arrival=flash rate=1\n",
     "flash needs peak=<r> ramp=<cycles>", 4},
    {"scenario x\nservice a profile=caddy\nchain c services=a\n"
     "phase p duration=100k arrival=flash rate=2 peak=1 ramp=10k\n",
     "flash peak must be >= rate", 4},
    {"scenario x\nservice a profile=caddy\nchain c services=a\n"
     "phase p arrival=flash rate=1 peak=2 ramp=10k\n",
     "flash phases need a duration", 4},
    {"scenario x\nservice a profile=caddy\nchain c services=a\n"
     "phase p duration=15k arrival=flash rate=1 peak=2 ramp=10k\n",
     "flash ramps exceed the phase duration", 4},
    {"scenario x\nservice a profile=caddy\nchain c services=a\n"
     "phase p arrival=diurnal rate=1\n",
     "diurnal needs period=<cycles>", 4},
    {"scenario x\nservice a profile=caddy\nchain c services=a\n"
     "phase p arrival=diurnal rate=1 amplitude=1.5 period=10k\n",
     "amplitude must be in [0, 1]", 4},
    {"scenario x\nservice a profile=caddy\nchain c services=a\n"
     "phase p arrival=poisson rate=1 mix=other:1\n",
     "unknown chain 'other' in mix", 4},
    {"scenario x\nservice a profile=caddy\nchain c services=a\n"
     "phase p arrival=poisson rate=1 mix=c:1,c:2\n",
     "duplicate chain 'c' in mix", 4},
    {"scenario x\nservice a profile=caddy\nchain c services=a\n"
     "phase p arrival=poisson rate=1 junk\n",
     "expected key=value, got 'junk'", 4},
    {"scenario x\nservice a profile=caddy\nchain c services=a\n"
     "phase p arrival=poisson rate=1\n"
     "phase q arrival=poisson rate=1\n",
     "only the last phase may omit it", 4},
    {"scenario x\nservice a profile=caddy\nchain c services=a\n"
     "phase p duration=100k arrival=poisson rate=1\n"
     "phase q start=50k arrival=poisson rate=1\n",
     "overlaps phase 'p'", 5},
    {"scenario x\nservice a profile=caddy\nchain c services=a\n"
     "phase p duration=100k arrival=poisson rate=1\n"
     "phase q start=150k arrival=poisson rate=1\n",
     "gap before phase 'q'", 5},
    {"scenario x\nchain c services=a\n", "unknown service 'a'", 2},
    {"scenario x\nservice a profile=caddy\nchain c services=a\n",
     "needs at least one phase", 3},
    {"scenario x\nservice a profile=caddy\n",
     "needs at least one chain", 2},
    {"scenario x\n", "needs at least one service", 1},
    // Names become registry paths (scenario.chain.<name>.requests),
    // which the stats JSON writes unescaped.
    {"scenario a.b\n", "scenario name 'a.b' may only contain", 1},
    {"scenario x\nservice s/1 profile=caddy\n",
     "service name 's/1' may only contain", 2},
    {"scenario x\nservice a profile=caddy\nchain t\"x services=a\n",
     "chain name 't\"x' may only contain", 3},
    {"scenario x\nservice a profile=caddy\nchain c services=a\n"
     "phase p:1 arrival=poisson rate=1\n",
     "phase name 'p:1' may only contain", 4},
};

TEST(ScenarioParserTest, RejectsMalformedSpecsWithLineNumbers)
{
    for (const Rejection &r : kRejections) {
        Scenario s;
        std::string err;
        EXPECT_FALSE(parseScenario(r.spec, &s, &err))
            << "accepted: " << r.spec;
        const std::string prefix =
            "line " + std::to_string(r.line) + ":";
        EXPECT_EQ(err.compare(0, prefix.size(), prefix), 0)
            << "spec: " << r.spec << "error: " << err;
        EXPECT_NE(err.find(r.error_substr), std::string::npos)
            << "spec: " << r.spec << "error: " << err;
    }
}

TEST(ScenarioParserTest, NullErrorPointerIsAccepted)
{
    Scenario s;
    EXPECT_FALSE(parseScenario("nonsense\n", &s, nullptr));
    EXPECT_TRUE(parseScenario(kFullSpec, &s, nullptr));
}

TEST(ScenarioParserTest, EveryExampleParsesAndRoundTrips)
{
    const char *examples[] = {
        "steady_poisson.scenario",
        "diurnal_wave.scenario",
        "flash_crowd.scenario",
        "microservice_chain.scenario",
    };
    for (const char *file : examples) {
        const std::string path =
            std::string(HP_EXAMPLES_DIR) + "/" + file;
        std::string text, err;
        ASSERT_TRUE(loadScenarioFile(path, &text, &err)) << err;
        Scenario s;
        ASSERT_TRUE(parseScenario(text, &s, &err))
            << path << ": " << err;
        const Scenario again = parseOk(serializeScenario(s));
        EXPECT_EQ(s, again) << path;
    }
}

TEST(ScenarioParserTest, LoadScenarioFileReportsMissingFile)
{
    std::string text, err;
    EXPECT_FALSE(loadScenarioFile("/nonexistent/x.scenario", &text,
                                  &err));
    EXPECT_NE(err.find("cannot open"), std::string::npos);
}

TEST(ScenarioCacheTest, CachedScenarioSharesOneParse)
{
    const std::string text = kFullSpec;
    auto a = cachedScenario(text);
    auto b = cachedScenario(text);
    EXPECT_EQ(a.get(), b.get());
    EXPECT_EQ(a->name, "checkout-rush");
}

} // namespace
} // namespace hp
