/**
 * @file
 * Sampled-simulation unit tests: the CI math against hand-computed
 * references, interval start placement, spec parsing, dedup-key
 * separation of sampling parameters, degenerate-parameter fallback,
 * blobs of the two miss-attribution modes and of the two warming modes
 * kept apart in HP_CKPT_DIR, functional warming (a sampled config's
 * runWarmup() is a fast-forward, and perfbench's public-call replay of
 * runSampled reproduces its windows), and the fast-forward vs detailed
 * throughput contract.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "obs/obs.hh"
#include "sim/checkpoint.hh"
#include "sim/runner.hh"
#include "sim/sampling.hh"
#include "sim/simulator.hh"
#include "sim_probe.hh"
#include "util/hash.hh"

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

// ---- sampleStats / tCritical95 --------------------------------------

TEST(SampleStatsTest, MatchesHandComputedReference)
{
    // {1,2,3,4}: mean 2.5, sample variance 5/3, t(3) = 3.182.
    SampleStats st = sampleStats({1.0, 2.0, 3.0, 4.0});
    EXPECT_EQ(st.n, 4u);
    EXPECT_DOUBLE_EQ(st.mean, 2.5);
    EXPECT_NEAR(st.stddev, std::sqrt(5.0 / 3.0), 1e-12);
    EXPECT_NEAR(st.ci95, 3.182 * std::sqrt(5.0 / 3.0) / 2.0, 1e-12);
}

TEST(SampleStatsTest, DegenerateSampleSizes)
{
    SampleStats empty = sampleStats({});
    EXPECT_EQ(empty.n, 0u);
    EXPECT_EQ(empty.mean, 0.0);
    EXPECT_EQ(empty.ci95, 0.0);

    SampleStats one = sampleStats({7.25});
    EXPECT_EQ(one.n, 1u);
    EXPECT_DOUBLE_EQ(one.mean, 7.25);
    EXPECT_EQ(one.stddev, 0.0);
    EXPECT_EQ(one.ci95, 0.0);

    SampleStats constant = sampleStats({3.0, 3.0, 3.0});
    EXPECT_DOUBLE_EQ(constant.mean, 3.0);
    EXPECT_EQ(constant.stddev, 0.0);
    EXPECT_EQ(constant.ci95, 0.0);
}

TEST(SampleStatsTest, TCriticalTable)
{
    EXPECT_DOUBLE_EQ(tCritical95(0), 0.0);
    EXPECT_DOUBLE_EQ(tCritical95(1), 12.706);
    EXPECT_DOUBLE_EQ(tCritical95(11), 2.201);
    EXPECT_DOUBLE_EQ(tCritical95(30), 2.042);
    EXPECT_DOUBLE_EQ(tCritical95(40), 2.021);
    EXPECT_DOUBLE_EQ(tCritical95(1000), 1.960);
    // Monotonically non-increasing in df.
    for (unsigned df = 2; df <= 200; ++df)
        EXPECT_LE(tCritical95(df), tCritical95(df - 1)) << df;
}

// ---- intervalStarts -------------------------------------------------

TEST(IntervalStartsTest, StratifiedPlacementProperties)
{
    SampleConfig sc;
    sc.intervals = 12;
    sc.windowInsts = 30'000;
    for (std::uint64_t seed : {0ull, 1ull, 7ull}) {
        sc.seed = seed;
        std::vector<std::uint64_t> starts =
            intervalStarts(3'000'000, sc);
        ASSERT_EQ(starts.size(), 12u) << seed;
        for (std::size_t i = 0; i < starts.size(); ++i) {
            if (i > 0) {
                EXPECT_GT(starts[i], starts[i - 1]) << seed;
            }
            // Every window fits inside the measurement phase.
            EXPECT_LE(starts[i] + sc.windowInsts, 3'000'000u) << seed;
            // ... and inside its own stratum.
            EXPECT_GE(starts[i], i * 250'000u) << seed;
            EXPECT_LT(starts[i], (i + 1) * 250'000u) << seed;
        }
        // Deterministic per seed.
        EXPECT_EQ(starts, intervalStarts(3'000'000, sc)) << seed;
    }

    // seed == 0 pins each window at its stratum start.
    sc.seed = 0;
    std::vector<std::uint64_t> pinned = intervalStarts(3'000'000, sc);
    for (std::size_t i = 0; i < pinned.size(); ++i)
        EXPECT_EQ(pinned[i], i * 250'000u);

    // A nonzero seed jitters at least one start off its stratum start.
    sc.seed = 1;
    EXPECT_NE(intervalStarts(3'000'000, sc), pinned);
}

TEST(IntervalStartsTest, Degenerate)
{
    SampleConfig sc;
    sc.intervals = 4;
    sc.windowInsts = 10;
    EXPECT_TRUE(intervalStarts(0, sc).empty());
    sc.intervals = 0;
    EXPECT_TRUE(intervalStarts(100, sc).empty());
}

// ---- parseSampleSpec ------------------------------------------------

TEST(ParseSampleSpecTest, FullAndPartialSpecs)
{
    SampleConfig sc;
    ASSERT_TRUE(parseSampleSpec("12,30000,10000,7", &sc, nullptr));
    EXPECT_EQ(sc.intervals, 12u);
    EXPECT_EQ(sc.windowInsts, 30'000u);
    EXPECT_EQ(sc.detailWarmupInsts, 10'000u);
    EXPECT_EQ(sc.seed, 7u);

    // Omitted fields keep the SampleConfig defaults.
    ASSERT_TRUE(parseSampleSpec("8", &sc, nullptr));
    EXPECT_EQ(sc.intervals, 8u);
    EXPECT_EQ(sc.windowInsts, SampleConfig{}.windowInsts);
    EXPECT_EQ(sc.detailWarmupInsts, SampleConfig{}.detailWarmupInsts);
    EXPECT_EQ(sc.seed, SampleConfig{}.seed);

    for (const char *off : {"", "0", "off"}) {
        ASSERT_TRUE(parseSampleSpec(off, &sc, nullptr)) << off;
        EXPECT_FALSE(sc.enabled()) << off;
    }
}

TEST(ParseSampleSpecTest, RejectsMalformedSpecs)
{
    SampleConfig sc;
    std::string err;
    EXPECT_FALSE(parseSampleSpec("12,30000,10000,7,9", &sc, &err));
    EXPECT_NE(err.find("4 fields"), std::string::npos);
    EXPECT_FALSE(parseSampleSpec("12,abc", &sc, &err));
    EXPECT_FALSE(parseSampleSpec("12,", &sc, &err));
    EXPECT_FALSE(parseSampleSpec("12,0", &sc, &err));
    EXPECT_NE(err.find("window"), std::string::npos);
}

TEST(ParseSampleSpecTest, RejectsSignsWhitespaceAndOverflow)
{
    // Each of these used to parse "successfully" through strtoull:
    // a sign wrapped to 2^64-1 (or K = 2^32-1), an overflow saturated,
    // and K = 2^32+1 truncated to 1.
    for (const char *bad :
         {"-1,30000", "12,-1", "12,99999999999999999999",
          "4294967297,30000", " 12,30000", "+12,30000", "12, 30000"}) {
        SampleConfig sc;
        sc.intervals = 99;
        std::string err;
        EXPECT_FALSE(parseSampleSpec(bad, &sc, &err)) << bad;
        EXPECT_NE(err.find("bad sample spec field"), std::string::npos)
            << bad << ": " << err;
        EXPECT_EQ(sc.intervals, 99u) << bad; // untouched on failure
    }

    // The largest K an unsigned holds is still accepted.
    SampleConfig sc;
    ASSERT_TRUE(parseSampleSpec("4294967295,30000", &sc, nullptr));
    EXPECT_EQ(sc.intervals, 4294967295u);
}

// ---- dedup keys -----------------------------------------------------

TEST(SamplingDedupTest, DistinctSamplingConfigsNeverAlias)
{
    SimConfig base = quickConfig();
    base.sample.intervals = 12;
    base.sample.windowInsts = 30'000;
    base.sample.detailWarmupInsts = 10'000;
    base.sample.seed = 1;

    SimConfig k = base, w = base, u = base, s = base;
    k.sample.intervals = 6;
    w.sample.windowInsts = 15'000;
    u.sample.detailWarmupInsts = 0;
    s.sample.seed = 2;

    const std::string base_key = ExperimentRunner::configKey(base);
    for (const SimConfig &other : {k, w, u, s}) {
        EXPECT_NE(configHash(other), configHash(base));
        EXPECT_NE(ExperimentRunner::configKey(other), base_key);
    }
    // A sampled and an unsampled run of the same config must never
    // share a result-cache slot either.
    SimConfig off = base;
    off.sample = SampleConfig{};
    EXPECT_NE(configHash(off), configHash(base));
    EXPECT_NE(ExperimentRunner::configKey(off), base_key);
}

TEST(SamplingDedupTest, DisabledSamplingJunkIsPinnedAway)
{
    // With sampling disabled the other sample fields are never read;
    // measurementConfig() pins them so stray values cannot split the
    // result cache.
    SimConfig junk = quickConfig();
    junk.sample.intervals = 0;
    junk.sample.windowInsts = 123;
    junk.sample.seed = 99;
    EXPECT_EQ(configHash(measurementConfig(junk)),
              configHash(measurementConfig(quickConfig())));
}

TEST(SamplingDedupTest, WarmupClassIgnoresSampling)
{
    // The sampling parameters do not enter warmupConfig(); whether a
    // run samples sets its warming mode, which the checkpoint key
    // carries instead (WarmingModeCheckpointDirTest).
    SimConfig sampled = quickConfig();
    sampled.sample.intervals = 12;
    sampled.sample.seed = 3;
    EXPECT_EQ(configHash(warmupConfig(sampled)),
              configHash(warmupConfig(quickConfig())));
    EXPECT_TRUE(warmupConfig(sampled) == warmupConfig(quickConfig()));
}

TEST(SamplingDedupTest, IntervalCheckpointKeysSeparate)
{
    const SimConfig mcfg = measurementConfig(quickConfig());
    EXPECT_NE(intervalCheckpointKey(mcfg, 1000, 500),
              intervalCheckpointKey(mcfg, 2000, 500));
    EXPECT_NE(intervalCheckpointFileName(mcfg, 1000, 500),
              intervalCheckpointFileName(mcfg, 2000, 500));
    // The detailed-warmup length is baked into the stored state, so
    // it must separate blobs just as the position does.
    EXPECT_NE(intervalCheckpointKey(mcfg, 1000, 500),
              intervalCheckpointKey(mcfg, 1000, 750));
    EXPECT_NE(intervalCheckpointFileName(mcfg, 1000, 500),
              intervalCheckpointFileName(mcfg, 1000, 750));
    // And the encoding must not let (position, warmup) pairs collide
    // by concatenation: 1000w500 vs 100w0500 style ambiguity.
    EXPECT_NE(intervalCheckpointKey(mcfg, 100, 1500),
              intervalCheckpointKey(mcfg, 1001, 500));
    SimConfig other = quickConfig(PrefetcherKind::EFetch);
    EXPECT_NE(intervalCheckpointKey(measurementConfig(other), 1000, 500),
              intervalCheckpointKey(mcfg, 1000, 500));
}

// ---- runSampled behavior --------------------------------------------

TEST(RunSampledTest, DegenerateParametersFallBackToExactRun)
{
    SimConfig full = quickConfig();
    SimMetrics exact = runCheckpointed(full);

    // K * W covers the whole measurement phase: the sampled run must
    // be the exact full run, bit for bit, with no SamplingInfo.
    SimConfig covered = full;
    covered.sample.intervals = 10;
    covered.sample.windowInsts = 20'000; // 10 * 20k == measureInsts
    SimMetrics m = runSampled(covered);
    EXPECT_EQ(m.cycles, exact.cycles);
    EXPECT_EQ(m.instructions, exact.instructions);
    EXPECT_EQ(m.stats.entries(), exact.stats.entries());
    EXPECT_EQ(m.sampling, nullptr);
}

TEST(RunSampledTest, SampledRunShapeAndDeterminism)
{
    SimConfig config = quickConfig();
    config.sample.intervals = 5;
    config.sample.windowInsts = 4'000;
    config.sample.detailWarmupInsts = 2'000;
    config.sample.seed = 1;

    SimMetrics m = runSampled(config);
    ASSERT_NE(m.sampling, nullptr);
    EXPECT_EQ(m.sampling->intervals.size(), 5u);
    EXPECT_GT(m.sampling->ipcMean, 0.0);
    EXPECT_GT(m.sampling->ipcCi95, 0.0);
    EXPECT_GT(m.sampling->scaleFactor, 1.0);
    EXPECT_LT(m.sampling->detailedInsts, config.measureInsts);
    // Counters are extrapolated to full-run magnitude.
    EXPECT_NEAR(double(m.instructions), double(config.measureInsts),
                double(config.measureInsts) * 0.01);
    // The estimate is derived from per-window CPI (harmonic-mean IPC),
    // so it must equal 1 / mean(window CPIs).
    double cpi_sum = 0.0;
    for (const SamplingInfo::Interval &iv : m.sampling->intervals)
        cpi_sum += double(iv.cycles) / double(iv.instructions);
    EXPECT_NEAR(m.sampling->ipcMean,
                double(m.sampling->intervals.size()) / cpi_sum, 1e-12);

    SimMetrics n = runSampled(config);
    ASSERT_NE(n.sampling, nullptr);
    EXPECT_EQ(n.sampling->ipcMean, m.sampling->ipcMean);
    EXPECT_EQ(n.sampling->ipcCi95, m.sampling->ipcCi95);
    EXPECT_EQ(n.stats.entries(), m.stats.entries());
    EXPECT_EQ(n.cycles, m.cycles);
}

// ---- the attribution mode in the checkpoint identity ----------------

namespace fs = std::filesystem;

std::size_t
filesIn(const fs::path &dir)
{
    std::size_t n = 0;
    for (const auto &entry : fs::directory_iterator(dir))
        n += entry.is_regular_file();
    return n;
}

/** A fresh HP_CKPT_DIR, and the default obs config (attribution off),
 *  for one test; the caller's directory and obs config come back on
 *  destruction. */
class ScopedCkptDir
{
  public:
    explicit ScopedCkptDir(const std::string &tag)
        : dir_(fs::temp_directory_path() /
               ("hp_ckpt_" + std::to_string(::getpid()) + "_" + tag)),
          savedObs_(obs::config())
    {
        fs::remove_all(dir_);
        fs::create_directories(dir_);
        if (const char *inherited = std::getenv("HP_CKPT_DIR"))
            savedDir_ = inherited;
        ::setenv("HP_CKPT_DIR", dir_.c_str(), 1);
        obs::config() = obs::ObsConfig{};
    }

    ~ScopedCkptDir()
    {
        obs::config() = savedObs_;
        if (savedDir_.empty())
            ::unsetenv("HP_CKPT_DIR");
        else
            ::setenv("HP_CKPT_DIR", savedDir_.c_str(), 1);
        fs::remove_all(dir_);
    }

    ScopedCkptDir(const ScopedCkptDir &) = delete;
    ScopedCkptDir &operator=(const ScopedCkptDir &) = delete;

    const fs::path &path() const { return dir_; }

    /** Runs @p fn with HP_CKPT_DIR unset. */
    template <class F>
    auto
    withoutDir(F fn)
    {
        ::unsetenv("HP_CKPT_DIR");
        auto out = fn();
        ::setenv("HP_CKPT_DIR", dir_.c_str(), 1);
        return out;
    }

  private:
    fs::path dir_;
    obs::ObsConfig savedObs_;
    std::string savedDir_;
};

/**
 * Runs @p config sampled over one fresh HP_CKPT_DIR: first with miss
 * attribution @p first_on, which fills the directory, then twice with
 * the other mode. The hierarchy serializes its attribution tracker
 * only when attribution is on, so a blob of one mode does not restore
 * in the other: the second run must use none of the first run's blobs
 * (a failed restore falls back to an unsampled run), match it on every
 * architectural counter, and leave the third run nothing to write.
 */
void
checkAttributionModesShareNoBlobs(const SimConfig &config, bool first_on)
{
    ScopedCkptDir dir(first_on ? "attr_on" : "attr_off");
    auto run = [&config](bool attribution) {
        obs::config() = obs::ObsConfig{};
        obs::config().attribution = attribution;
        return runSampled(config);
    };
    const SimMetrics first = run(first_on);
    const std::size_t one_mode = filesIn(dir.path());
    const SimMetrics second = run(!first_on);
    const std::size_t both_modes = filesIn(dir.path());
    const SimMetrics again = run(!first_on);
    const std::size_t after_rerun = filesIn(dir.path());

    ASSERT_NE(first.sampling, nullptr);
    ASSERT_NE(second.sampling, nullptr);
    // One warmup blob plus one blob per interval, for each mode.
    EXPECT_EQ(one_mode, 1 + config.sample.intervals);
    EXPECT_EQ(both_modes, 2 * one_mode);
    EXPECT_EQ(after_rerun, both_modes);
    EXPECT_EQ(again.stats.entries(), second.stats.entries());

    ASSERT_EQ(first.sampling->intervals.size(),
              second.sampling->intervals.size());
    for (std::size_t i = 0; i < first.sampling->intervals.size(); ++i) {
        EXPECT_EQ(first.sampling->intervals[i].instructions,
                  second.sampling->intervals[i].instructions);
        EXPECT_EQ(first.sampling->intervals[i].cycles,
                  second.sampling->intervals[i].cycles);
    }
    const SimMetrics &on = first_on ? first : second;
    const SimMetrics &off = first_on ? second : first;
    std::uint64_t attributed = 0;
    for (const auto &[path, value] : on.stats.entries()) {
        if (path.find("missAttribution.") != std::string::npos)
            attributed += value;
        else
            EXPECT_EQ(off.stats.value(path), value) << path;
    }
    EXPECT_GT(attributed, 0u);
}

TEST(SamplingCheckpointDirTest, AttributionOffBlobsAreNotUsedWithItOn)
{
    SimConfig config = quickConfig(PrefetcherKind::Eip);
    config.sample = {4, 4'000, 2'000, 1};
    checkAttributionModesShareNoBlobs(config, /*first_on=*/false);
}

TEST(SamplingCheckpointDirTest, AttributionOnBlobsAreNotUsedWithItOff)
{
    SimConfig config = quickConfig(PrefetcherKind::Hierarchical);
    config.sample = {4, 4'000, 2'000, 1};
    checkAttributionModesShareNoBlobs(config, /*first_on=*/true);
}

// ---- functional warming ---------------------------------------------

/** caddy with a sampled measurement phase. Each test takes its own
 *  warmup length: the warm-checkpoint cache is process-wide, and a
 *  class another test already warmed would write no blob. */
SimConfig
sampledConfig(PrefetcherKind kind, std::uint64_t warmup)
{
    SimConfig config;
    config.workload = "caddy";
    config.warmupInsts = warmup;
    config.measureInsts = 200'000;
    config.prefetcher = kind;
    config.sample = {4, 8'000, 3'000, 1};
    return config;
}

SimConfig
unsampled(SimConfig config)
{
    config.sample = SampleConfig{};
    return config;
}

TEST(FunctionalWarmupTest, SampledWarmupIsAFastForward)
{
    const SimConfig config =
        sampledConfig(PrefetcherKind::Hierarchical, 120'000);
    Simulator warmed(config);
    warmed.runWarmup();
    Simulator forwarded(config);
    forwarded.fastForward(config.warmupInsts);

    EXPECT_EQ(warmed.committedInsts(), config.warmupInsts);
    EXPECT_EQ(SimulatorProbe::steps(warmed), 0u);
    EXPECT_EQ(SimulatorProbe::state(warmed),
              SimulatorProbe::state(forwarded));
}

TEST(FunctionalWarmupTest, UnsampledWarmupStillSteps)
{
    const SimConfig config =
        unsampled(sampledConfig(PrefetcherKind::Hierarchical, 120'000));
    Simulator warmed(config);
    warmed.runWarmup();
    Simulator forwarded(config);
    forwarded.fastForward(config.warmupInsts);

    EXPECT_GT(SimulatorProbe::steps(warmed), 0u);
    EXPECT_GE(warmed.committedInsts(), config.warmupInsts);
    EXPECT_NE(SimulatorProbe::state(warmed),
              SimulatorProbe::state(forwarded));
}

// ---- the replay perfbench times ---------------------------------------

class SampledReplayTest : public ::testing::TestWithParam<PrefetcherKind>
{
};

/**
 * runSampled spelled as public calls, the sequence perfbench's
 * replaySampled times: warm, capture, restore into a scout, one
 * fastForward per window, fork into a window simulator, its detailed
 * warmup and the measured window. Its windows must be runSampled's.
 */
TEST_P(SampledReplayTest, PublicCallSequenceMatchesRunSampled)
{
    const SimConfig config = sampledConfig(GetParam(), 104'000);
    const SampleConfig &sc = config.sample;

    Simulator main(config);
    main.runWarmup();
    const Checkpoint warm = Checkpoint::capture(main, "warm");
    Simulator scout(config);
    Simulator window(config);
    std::string err;
    ASSERT_TRUE(warm.restoreInto(scout, &err)) << err;

    std::vector<SimMetrics> windows;
    std::uint64_t scout_rel = 0;
    for (std::uint64_t start : intervalStarts(config.measureInsts, sc)) {
        const std::uint64_t warm_insts =
            std::min(sc.detailWarmupInsts, start);
        const std::uint64_t rel = start - warm_insts;
        scout.fastForward(rel - scout_rel);
        scout_rel = rel;
        const Checkpoint fork = Checkpoint::capture(scout, "fork");
        ASSERT_TRUE(fork.restoreInto(window, &err)) << err;
        window.advanceDetailed(warm_insts);
        windows.push_back(window.measureWindow(
            std::min(sc.windowInsts, config.measureInsts - start)));
    }

    const SimMetrics sampled = runSampled(config);
    ASSERT_NE(sampled.sampling, nullptr);
    ASSERT_EQ(sampled.sampling->intervals.size(), windows.size());
    for (std::size_t i = 0; i < windows.size(); ++i) {
        EXPECT_EQ(sampled.sampling->intervals[i].instructions,
                  windows[i].instructions) << i;
        EXPECT_EQ(sampled.sampling->intervals[i].cycles,
                  windows[i].cycles) << i;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Kinds, SampledReplayTest,
    ::testing::Values(PrefetcherKind::None, PrefetcherKind::Eip,
                      PrefetcherKind::Hierarchical),
    [](const ::testing::TestParamInfo<PrefetcherKind> &info) {
        return std::string(prefetcherName(info.param));
    });

// ---- the warming mode in the checkpoint identity --------------------

void
expectSameWindows(const SimMetrics &a, const SimMetrics &b)
{
    ASSERT_NE(a.sampling, nullptr);
    ASSERT_NE(b.sampling, nullptr);
    ASSERT_EQ(a.sampling->intervals.size(), b.sampling->intervals.size());
    for (std::size_t i = 0; i < a.sampling->intervals.size(); ++i) {
        EXPECT_EQ(a.sampling->intervals[i].instructions,
                  b.sampling->intervals[i].instructions) << i;
        EXPECT_EQ(a.sampling->intervals[i].cycles,
                  b.sampling->intervals[i].cycles) << i;
    }
    EXPECT_EQ(a.stats.entries(), b.stats.entries());
}

TEST(WarmingModeCheckpointDirTest, SampledRunsDoNotUseExactWarmBlobs)
{
    const SimConfig config = sampledConfig(PrefetcherKind::Eip, 101'000);
    ScopedCkptDir dir("exact_first");

    const SimMetrics exact = runCheckpointed(unsampled(config));
    EXPECT_EQ(filesIn(dir.path()), 1u);
    const SimMetrics sampled = runSampled(config);
    // Its own functionally warmed blob, plus one per interval.
    EXPECT_EQ(filesIn(dir.path()), 2u + config.sample.intervals);

    EXPECT_EQ(exact.stats.entries(),
              Simulator(unsampled(config)).run().stats.entries());
    expectSameWindows(sampled,
                      dir.withoutDir([&] { return runSampled(config); }));
}

TEST(WarmingModeCheckpointDirTest, ExactRunsDoNotUseSampledWarmBlobs)
{
    const SimConfig config =
        sampledConfig(PrefetcherKind::Hierarchical, 102'000);
    ScopedCkptDir dir("sampled_first");

    const SimMetrics sampled = runSampled(config);
    EXPECT_EQ(filesIn(dir.path()), 1u + config.sample.intervals);
    const SimMetrics exact = runCheckpointed(unsampled(config));
    EXPECT_EQ(filesIn(dir.path()), 2u + config.sample.intervals);

    EXPECT_EQ(exact.stats.entries(),
              Simulator(unsampled(config)).run().stats.entries());
    expectSameWindows(sampled,
                      dir.withoutDir([&] { return runSampled(config); }));
}

/** "<workload>-iv-<16 hex digits of hashBytes(key)>.ckpt", the
 *  HP_CKPT_DIR name of an interval blob keyed @p key. */
std::string
unmarkedIntervalFileName(const SimConfig &mcfg, const std::string &key)
{
    char hex[17];
    std::snprintf(hex, sizeof hex, "%016llx",
                  static_cast<unsigned long long>(
                      hashBytes(key.data(), key.size())));
    return mcfg.workload + "-iv-" + hex + ".ckpt";
}

/**
 * Interval blobs keyed and named without the warming mark, holding
 * detailed-warmed forks, must not be read by a functionally warmed
 * run. The planted blobs also ran a longer detailed warmup than the
 * key says, so reading one would show in the windows; the run's
 * windows must stay those of a run without a directory.
 */
TEST(WarmingModeCheckpointDirTest, UnmarkedIntervalBlobsAreNotRead)
{
    const SimConfig config = sampledConfig(PrefetcherKind::None, 103'000);
    const SampleConfig &sc = config.sample;
    ScopedCkptDir dir("unmarked");
    const SimMetrics reference =
        dir.withoutDir([&] { return runSampled(config); });

    // Detailed-warmed forks: the detailed warmup, one fast-forward per
    // window, then a detailed warmup 20k longer than the key says.
    const SimConfig mcfg = measurementConfig(unsampled(config));
    Simulator warm(unsampled(config));
    warm.runWarmup();
    Simulator scout(config);
    Simulator window(config);
    std::string err;
    ASSERT_TRUE(Checkpoint::capture(warm, "").restoreInto(scout, &err))
        << err;
    std::uint64_t scout_rel = 0;
    bool any_differs = false;
    const std::vector<std::uint64_t> starts =
        intervalStarts(config.measureInsts, sc);
    for (std::size_t i = 0; i < starts.size(); ++i) {
        const std::uint64_t warm_insts =
            std::min(sc.detailWarmupInsts, starts[i]);
        const std::uint64_t rel = starts[i] - warm_insts;
        scout.fastForward(rel - scout_rel);
        scout_rel = rel;
        ASSERT_TRUE(Checkpoint::capture(scout, "").restoreInto(window,
                                                               &err))
            << err;
        window.advanceDetailed(warm_insts + 20'000);
        const std::string key = ExperimentRunner::configKey(mcfg) +
                                "|attribution=0|iv@" +
                                std::to_string(starts[i]) + "w" +
                                std::to_string(warm_insts);
        ASSERT_TRUE(saveCheckpointFile(dir.path().string(),
                                       unmarkedIntervalFileName(mcfg, key),
                                       Checkpoint::capture(window, key)));
        const SimMetrics planted = window.measureWindow(
            std::min(sc.windowInsts, config.measureInsts - starts[i]));
        any_differs |=
            planted.cycles != reference.sampling->intervals[i].cycles;
    }
    // Reading a planted blob would show in the windows.
    ASSERT_TRUE(any_differs);

    // The reference run warmed this class in memory, so the run in
    // the directory spills its interval blobs only.
    expectSameWindows(runSampled(config), reference);
    EXPECT_EQ(filesIn(dir.path()), 2u * sc.intervals);
}

// ---- three-mode engine contract -------------------------------------

TEST(SimModeTest, FastForwardBeatsDetailedThroughput)
{
    // The block-granular fast-forward must be measurably faster than
    // the detailed cycle loop — that margin is the entire point of
    // sampled simulation. The 1.2x bar is far under the ~3.4x
    // measured on a 4-core x86-64 host (~5.2x before the detailed
    // loop went run-granular and skipped idle cycles), so scheduler
    // noise cannot trip it.
    SimConfig config = quickConfig(PrefetcherKind::Hierarchical);
    constexpr std::uint64_t kInsts = 600'000;

    using clock = std::chrono::steady_clock;
    Simulator ff(config);
    ff.runWarmup();
    auto t0 = clock::now();
    ff.fastForward(kInsts);
    const double ff_s =
        std::chrono::duration<double>(clock::now() - t0).count();

    Simulator det(config);
    det.runWarmup();
    t0 = clock::now();
    det.advanceDetailed(kInsts);
    const double det_s =
        std::chrono::duration<double>(clock::now() - t0).count();

    // fastForward commits exactly kInsts; the detailed loop's final
    // commit group may overshoot by up to the commit width.
    EXPECT_GE(det.committedInsts(), ff.committedInsts());
    EXPECT_LT(det.committedInsts(), ff.committedInsts() + 6);
    EXPECT_GT(det_s, ff_s * 1.2)
        << "fast-forward " << ff_s << "s vs detailed " << det_s << "s";
}

} // namespace
} // namespace hp
