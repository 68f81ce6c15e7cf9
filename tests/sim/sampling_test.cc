/**
 * @file
 * Sampled-simulation unit tests: the CI math against hand-computed
 * references, interval start placement, spec parsing, dedup-key
 * separation of sampling parameters, degenerate-parameter fallback,
 * blobs of the two miss-attribution modes kept apart in HP_CKPT_DIR,
 * and the fast-forward vs detailed throughput contract.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "obs/obs.hh"
#include "sim/checkpoint.hh"
#include "sim/runner.hh"
#include "sim/sampling.hh"
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
    // Sampled and full runs share one warmup checkpoint class.
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

std::size_t
filesIn(const std::filesystem::path &dir)
{
    std::size_t n = 0;
    for (const auto &entry : std::filesystem::directory_iterator(dir))
        n += entry.is_regular_file();
    return n;
}

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
    namespace fs = std::filesystem;
    const fs::path dir =
        fs::temp_directory_path() /
        ("hp_attr_ckpt_" + std::to_string(::getpid()) +
         (first_on ? "_on" : "_off"));
    fs::remove_all(dir);
    const char *inherited = std::getenv("HP_CKPT_DIR");
    const std::string saved_dir = inherited ? inherited : "";
    const obs::ObsConfig saved_obs = obs::config();
    ::setenv("HP_CKPT_DIR", dir.c_str(), 1);

    auto run = [&config](bool attribution) {
        obs::config() = obs::ObsConfig{};
        obs::config().attribution = attribution;
        return runSampled(config);
    };
    const SimMetrics first = run(first_on);
    const std::size_t one_mode = filesIn(dir);
    const SimMetrics second = run(!first_on);
    const std::size_t both_modes = filesIn(dir);
    const SimMetrics again = run(!first_on);
    const std::size_t after_rerun = filesIn(dir);

    obs::config() = saved_obs;
    if (inherited)
        ::setenv("HP_CKPT_DIR", saved_dir.c_str(), 1);
    else
        ::unsetenv("HP_CKPT_DIR");
    fs::remove_all(dir);

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
