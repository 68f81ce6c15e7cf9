/**
 * @file
 * Seeded payload mutations of a warm blob. For each prefetcher kind,
 * with miss attribution on, a warm blob's payload is changed in one
 * place (one bit flipped, one byte set to a random value, or the
 * payload cut short) and restored through Checkpoint(key, payload),
 * which holds no checksum.
 * Each mutant must either restore and then run its measurement, or be
 * rejected with a diagnostic: never panic, crash or read out of bounds
 * (the sanitizer builds run this test too). The mutant count is fixed
 * so the test stays well under a minute under AddressSanitizer.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <string>

#include "obs/obs.hh"
#include "sim/checkpoint.hh"
#include "sim/simulator.hh"
#include "util/rng.hh"

namespace hp
{
namespace
{

/** Mutants per prefetcher kind. */
constexpr unsigned kMutants = 1000;

/** Small structures and a short warmup (the golden blob's config), so
 *  a blob is small and a mutant is cheap to build and run. */
SimConfig
mutationConfig(PrefetcherKind kind)
{
    SimConfig config;
    config.workload = "caddy";
    config.warmupInsts = 60'000;
    config.measureInsts = 20'000;
    config.prefetcher = kind;
    config.hier.trackBundleStats = true;
    config.btbEntries = 512;
    config.mem.l1iBytes = 8 * 1024;
    config.mem.l2Bytes = 32 * 1024;
    config.mem.llcBytes = 64 * 1024;
    config.mem.itlbEntries = 16;
    config.hier.metadataBufferBytes = 16 * 1024;
    return config;
}

class CheckpointMutationTest
    : public ::testing::TestWithParam<PrefetcherKind>
{
  protected:
    void
    SetUp() override
    {
        saved_ = obs::config();
        obs::config() = obs::ObsConfig{};
        obs::config().attribution = true;
    }

    void TearDown() override { obs::config() = saved_; }

    obs::ObsConfig saved_;
};

TEST_P(CheckpointMutationTest, EveryMutantRunsOrIsRejected)
{
    const SimConfig config = mutationConfig(GetParam());
    Simulator warm(config);
    warm.runWarmup();
    const std::vector<std::uint8_t> payload =
        Checkpoint::capture(warm, "k").payload();

    Rng rng(0x6d757461 + std::uint64_t(GetParam()));
    unsigned ran = 0;
    unsigned rejected = 0;
    for (unsigned m = 0; m < kMutants; ++m) {
        std::vector<std::uint8_t> bytes = payload;
        const std::size_t at = rng.nextUint(bytes.size());
        if (m % 3 == 0)
            bytes[at] ^= std::uint8_t(1u << rng.nextUint(8));
        else if (m % 3 == 1)
            bytes[at] = std::uint8_t(rng.next());
        else
            bytes.resize(at);
        SCOPED_TRACE("mutant " + std::to_string(m) + ": byte " +
                     std::to_string(at) + " " +
                     std::to_string(payload[at]) + " -> " +
                     (at < bytes.size() ? std::to_string(bytes[at])
                                        : std::string("cut")));

        Simulator sim(config);
        std::string error;
        if (Checkpoint("k", std::move(bytes)).restoreInto(sim, &error)) {
            (void)sim.finishRun();
            EXPECT_GE(sim.stats().value("sim.committed"),
                      config.warmupInsts + config.measureInsts);
            ++ran;
        } else {
            EXPECT_FALSE(error.empty());
            ++rejected;
        }
    }
    // Most single changes land in a table and still restore; a cut, or
    // a change to a count, a cursor or a varint's length, is rejected.
    EXPECT_GT(ran, 0u);
    EXPECT_GT(rejected, 0u);
    std::printf("%s: %u mutants ran, %u rejected\n",
                prefetcherName(GetParam()), ran, rejected);
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, CheckpointMutationTest,
    ::testing::Values(PrefetcherKind::None, PrefetcherKind::EFetch,
                      PrefetcherKind::Mana, PrefetcherKind::Eip,
                      PrefetcherKind::Rdip,
                      PrefetcherKind::Hierarchical),
    [](const ::testing::TestParamInfo<PrefetcherKind> &info) {
        return prefetcherName(info.param);
    });

} // namespace
} // namespace hp
