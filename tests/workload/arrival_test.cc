/**
 * @file
 * Property tests for the ArrivalProcess (workload/scenario.hh): each
 * arrival shape hits its configured mean rate empirically, identical
 * seeds replay identical event streams, phase boundaries are
 * respected, and serialized state resumes the stream bit-identically.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <vector>

#include "util/serialize.hh"
#include "workload/scenario.hh"

namespace hp
{
namespace
{

Scenario
makeScenario(const std::string &body, std::uint64_t seed = 42)
{
    const std::string text = "scenario arrival-test\n"
                             "seed " + std::to_string(seed) + "\n"
                             "service a profile=caddy\n"
                             "chain c services=a\n" + body;
    Scenario s;
    std::string err;
    EXPECT_TRUE(parseScenario(text, &s, &err)) << err;
    return s;
}

std::vector<ArrivalEvent>
draw(const Scenario &s, std::size_t n)
{
    ArrivalProcess proc(&s);
    std::vector<ArrivalEvent> events;
    events.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        events.push_back(proc.next());
    return events;
}

/** Empirical rate in requests per kilocycle over the drawn stream. */
double
empiricalRate(const std::vector<ArrivalEvent> &ev)
{
    EXPECT_GE(ev.size(), 2u);
    const double span = double(ev.back().cycle - ev.front().cycle);
    return 1000.0 * double(ev.size() - 1) / span;
}

TEST(ArrivalProcessTest, FixedRateGivesExactGaps)
{
    // rate=0.5/kcycle -> one arrival every 2000 cycles, no jitter.
    const Scenario s =
        makeScenario("phase p arrival=fixed rate=0.5\n");
    const std::vector<ArrivalEvent> ev = draw(s, 100);
    for (std::size_t i = 0; i < ev.size(); ++i) {
        EXPECT_EQ(ev[i].cycle, 2000u * (i + 1));
        EXPECT_EQ(ev[i].phase, 0u);
    }
}

TEST(ArrivalProcessTest, PoissonHitsConfiguredMeanRate)
{
    // 5000 exponential gaps: the empirical mean is within a few
    // standard errors (1/sqrt(n) ~ 1.4%) of the configured rate.
    const Scenario s =
        makeScenario("phase p arrival=poisson rate=0.02\n");
    const std::vector<ArrivalEvent> ev = draw(s, 5000);
    EXPECT_NEAR(empiricalRate(ev), 0.02, 0.02 * 0.06);
}

TEST(ArrivalProcessTest, DiurnalMeanOverWholePeriodsIsBaseRate)
{
    // The sine integrates to zero over whole periods, so the mean
    // rate over many periods is the configured baseline.
    const Scenario s = makeScenario(
        "phase p arrival=diurnal rate=0.05 amplitude=0.8 "
        "period=200k\n");
    ArrivalProcess proc(&s);
    std::uint64_t count = 0;
    const std::uint64_t horizon = 100 * 200'000; // whole periods
    while (true) {
        const ArrivalEvent ev = proc.next();
        if (ev.cycle >= horizon)
            break;
        ++count;
    }
    const double rate = 1000.0 * double(count) / double(horizon);
    EXPECT_NEAR(rate, 0.05, 0.05 * 0.08);
}

TEST(ArrivalProcessTest, DiurnalCrestIsDenserThanTrough)
{
    // amplitude=1: rate peaks at 2x base a quarter-period in and
    // touches zero at three quarters. Compare arrivals falling in the
    // two half-periods around those extremes, across many periods.
    const std::uint64_t period = 100'000;
    const Scenario s = makeScenario(
        "phase p arrival=diurnal rate=0.1 amplitude=1 "
        "period=100k\n");
    ArrivalProcess proc(&s);
    std::uint64_t crest = 0, trough = 0;
    while (true) {
        const ArrivalEvent ev = proc.next();
        if (ev.cycle >= 50 * period)
            break;
        const std::uint64_t local = ev.cycle % period;
        if (local < period / 2)
            ++crest;
        else
            ++trough;
    }
    // Expected split: (1 + 2/pi) vs (1 - 2/pi) ~ 5:1.
    EXPECT_GT(crest, 3 * trough);
}

TEST(ArrivalProcessTest, FlashHoldIsDenserThanBaseline)
{
    // A 4x peak: the hold window of the flash phase must see roughly
    // 4x the arrivals of an equal-length window at base rate.
    const Scenario s = makeScenario(
        "phase before duration=500k arrival=poisson rate=0.05\n"
        "phase spike  duration=500k arrival=flash rate=0.05 "
        "peak=0.2 ramp=100k\n"
        "phase after  arrival=poisson rate=0.05\n");
    ArrivalProcess proc(&s);
    std::uint64_t base_window = 0, hold_window = 0;
    while (true) {
        const ArrivalEvent ev = proc.next();
        if (ev.cycle >= 1'500'000)
            break;
        if (ev.cycle < 300'000)
            ++base_window; // 300k cycles at base rate
        else if (ev.cycle >= 600'000 && ev.cycle < 900'000)
            ++hold_window; // 300k cycles inside the hold
    }
    EXPECT_GT(hold_window, 2 * base_window);
}

TEST(ArrivalProcessTest, PhaseIndexMatchesTimeline)
{
    const Scenario s = makeScenario(
        "phase one   duration=100k arrival=poisson rate=0.05\n"
        "phase two   duration=100k arrival=fixed rate=0.02\n"
        "phase three arrival=poisson rate=0.01\n");
    ArrivalProcess proc(&s);
    std::uint64_t prev = 0;
    bool saw_last = false;
    for (int i = 0; i < 400; ++i) {
        const ArrivalEvent ev = proc.next();
        EXPECT_GE(ev.cycle, prev); // nondecreasing
        prev = ev.cycle;
        ASSERT_LT(ev.phase, 3u);
        EXPECT_GE(ev.cycle, s.phases[ev.phase].start);
        EXPECT_LT(ev.cycle, s.phaseEnd(ev.phase));
        saw_last = saw_last || ev.phase == 2;
    }
    // The last phase is unbounded: the stream reaches and stays in it.
    EXPECT_TRUE(saw_last);
}

TEST(ArrivalProcessTest, SameSeedReplaysIdenticalStream)
{
    const Scenario s = makeScenario(
        "phase p duration=300k arrival=diurnal rate=0.03 "
        "amplitude=0.5 period=60k\n"
        "phase q arrival=poisson rate=0.01\n");
    const std::vector<ArrivalEvent> a = draw(s, 1000);
    const std::vector<ArrivalEvent> b = draw(s, 1000);
    for (std::size_t i = 0; i < a.size(); ++i) {
        EXPECT_EQ(a[i].cycle, b[i].cycle) << i;
        EXPECT_EQ(a[i].phase, b[i].phase) << i;
    }
}

TEST(ArrivalProcessTest, DifferentSeedsDiverge)
{
    const std::string body = "phase p arrival=poisson rate=0.02\n";
    const Scenario s1 = makeScenario(body, 1);
    const Scenario s2 = makeScenario(body, 2);
    const std::vector<ArrivalEvent> a = draw(s1, 50);
    const std::vector<ArrivalEvent> b = draw(s2, 50);
    std::size_t same = 0;
    for (std::size_t i = 0; i < a.size(); ++i)
        same += a[i].cycle == b[i].cycle;
    EXPECT_LT(same, 5u);
}

TEST(ArrivalProcessTest, SerializedStateResumesIdentically)
{
    const Scenario s = makeScenario(
        "phase p duration=200k arrival=flash rate=0.01 peak=0.04 "
        "ramp=50k\n"
        "phase q arrival=poisson rate=0.02\n");

    // Advance a process mid-stream (across the thinning loop and a
    // phase boundary), snapshot it, and restore into a fresh one.
    ArrivalProcess orig(&s);
    for (int i = 0; i < 500; ++i)
        orig.next();
    StateWriter writer;
    orig.serializeState(writer);

    ArrivalProcess resumed(&s);
    const std::vector<std::uint8_t> bytes = writer.take();
    StateLoader loader(bytes.data(), bytes.size());
    resumed.serializeState(loader);

    for (int i = 0; i < 500; ++i) {
        const ArrivalEvent a = orig.next();
        const ArrivalEvent b = resumed.next();
        EXPECT_EQ(a.cycle, b.cycle) << i;
        EXPECT_EQ(a.phase, b.phase) << i;
    }
}

TEST(ArrivalProcessTest, RestoreRejectsAPhaseOutsideTheScenario)
{
    // The stream is the clock (a double, 8 bytes), the phase cursor
    // (a one-byte varint here), then the RNG. next() indexes the
    // phases with the cursor.
    const Scenario s = makeScenario("phase p arrival=poisson rate=0.02\n");
    ArrivalProcess orig(&s);
    orig.next();
    StateWriter writer;
    orig.serializeState(writer);
    std::vector<std::uint8_t> bytes = writer.take();
    bytes[8] = 1;

    ArrivalProcess resumed(&s);
    StateLoader loader(bytes.data(), bytes.size());
    resumed.serializeState(loader);
    EXPECT_TRUE(loader.failed());
    EXPECT_NE(loader.failReason(), nullptr);
}

} // namespace
} // namespace hp
