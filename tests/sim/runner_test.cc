#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <set>
#include <string>
#include <type_traits>
#include <vector>

#include "sim/runner.hh"

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

/** Converts to any member type, so T{AnyField{}...} compiles for up
 *  to as many initializers as aggregate T has members. */
struct AnyField
{
    template <class U> operator U() const;
};

/** Member count of aggregate T (a base class counts as one). */
template <class T, class... A>
consteval std::size_t
memberCount()
{
    if constexpr (requires { T{A{}..., AnyField{}}; })
        return memberCount<T, A..., AnyField>();
    else
        return sizeof...(A);
}

/** True when T::visitFields names every member of T, and likewise
 *  for every config struct it reaches, vector elements included. */
template <class T>
constexpr bool
visitsEveryMember()
{
    T t{};
    std::size_t named = 0;
    bool nested = true;
    t.visitFields([&](const char *, auto &field) {
        using F = std::remove_reference_t<decltype(field)>;
        ++named;
        if constexpr (detail::ConfigStruct<F>) {
            nested = nested && visitsEveryMember<F>();
        } else if constexpr (detail::kIsVector<F>) {
            if constexpr (detail::ConfigStruct<typename F::value_type>)
                nested = nested && visitsEveryMember<typename F::value_type>();
        }
    });
    return nested && named == memberCount<T>();
}

// A member added without its visitFields line would be missing from
// configKey, letting two configs share results and checkpoints.
static_assert(visitsEveryMember<SimConfig>());

/** Moves @p field to another valid value. */
template <class T>
void
perturb(T &field)
{
    if constexpr (std::is_same_v<T, bool>)
        field = !field;
    else if constexpr (std::is_same_v<T, double>)
        field = std::nextafter(field, 2.0);
    else if constexpr (std::is_enum_v<T>)
        field = T(std::underlying_type_t<T>(field) + 1);
    else if constexpr (std::is_arithmetic_v<T>)
        field = field ? 2 * field : 1;
    else if constexpr (std::is_same_v<T, std::string>)
        field += "x";
    else
        field.emplace_back(); // a vector: one more element
}

/** The path of every field of @p config, in forEachField order. */
std::vector<std::string>
fieldPaths(SimConfig config)
{
    std::vector<std::string> paths;
    forEachField(config, [&paths](const std::string &path, auto &) {
        paths.push_back(path);
    });
    return paths;
}

/** @p config with the field at @p path perturbed. */
SimConfig
perturbed(SimConfig config, const std::string &path)
{
    forEachField(config, [&path](const std::string &p, auto &field) {
        if (p == path)
            perturb(field);
    });
    return config;
}

TEST(RunnerTest, MemoizesIdenticalConfigs)
{
    std::size_t before = ExperimentRunner::simulationsRun();
    SimMetrics a = ExperimentRunner::run(quickConfig());
    std::size_t after_first = ExperimentRunner::simulationsRun();
    SimMetrics b = ExperimentRunner::run(quickConfig());
    std::size_t after_second = ExperimentRunner::simulationsRun();
    EXPECT_GE(after_first, before); // may have been cached already
    EXPECT_EQ(after_second, after_first);
    // run() returns by value (the cache is shared across threads),
    // but both calls report the one cached simulation.
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
}

TEST(RunnerTest, ConfigHashDistinguishesKnobsAndMatchesEquality)
{
    SimConfig base = quickConfig();
    EXPECT_EQ(configHash(base), configHash(quickConfig()));
    EXPECT_TRUE(base == quickConfig());

    SimConfig tweaked = base;
    tweaked.hier.aheadSegments = 7;
    EXPECT_NE(configHash(tweaked), configHash(base));
    EXPECT_FALSE(tweaked == base);

    SimConfig other_workload = base;
    other_workload.workload = "gin";
    EXPECT_NE(configHash(other_workload), configHash(base));
}

TEST(RunnerTest, ConfigKeyDistinguishesEveryKnob)
{
    // Sampling and a consolidation with one core override are on, so
    // their fields are walked too.
    SimConfig base = quickConfig();
    base.sample.intervals = 4;
    base.mt.tenants = {"caddy", "gin"};
    base.mt.coreOverrides = {CoreConfig{}};

    // configHash is a hash of configKey, so a field the key missed
    // would alias two configs in the experiment cache and the
    // checkpoint store. Doubles move by one ulp, which a key that
    // rounded them would miss.
    const std::vector<std::string> paths = fieldPaths(base);
    std::set<std::string> keys = {ExperimentRunner::configKey(base)};
    for (const std::string &path : paths) {
        const SimConfig c = perturbed(base, path);
        ASSERT_FALSE(c == base) << path;
        EXPECT_NE(configHash(c), configHash(base)) << path;
        keys.insert(ExperimentRunner::configKey(c));
    }
    // No two perturbations collide either.
    EXPECT_EQ(keys.size(), paths.size() + 1);
}

TEST(RunnerTest, ConfigKeyPrintsEveryFieldAlways)
{
    // Every field, set or not, as "path=value": a plain config's key
    // has the sample, scenario and mt fields too.
    SimConfig consolidated = quickConfig();
    consolidated.mt.tenants = {"caddy", "gin"};
    for (const SimConfig &config : {quickConfig(), consolidated}) {
        const std::string key = "|" + ExperimentRunner::configKey(config);
        const std::vector<std::string> paths = fieldPaths(config);
        EXPECT_EQ(std::size_t(std::count(key.begin(), key.end(), '|')),
                  paths.size());
        for (const std::string &path : paths)
            EXPECT_NE(key.find("|" + path + "="), std::string::npos) << path;
    }
    EXPECT_NE(ExperimentRunner::configKey(quickConfig())
                  .find("|mem.l2InstFraction=0.65|"),
              std::string::npos);
}

TEST(RunnerTest, MeasurementConfigPinsOnlyUnreadFields)
{
    // For every kind, each field whose perturbation measurementConfig
    // normalizes away must leave a cold run's stats unchanged. Plain
    // Simulator runs: ExperimentRunner::run and runCheckpointed dedup
    // on measurementConfig itself.
    for (PrefetcherKind kind :
         {PrefetcherKind::None, PrefetcherKind::EFetch,
          PrefetcherKind::Mana, PrefetcherKind::Eip, PrefetcherKind::Rdip,
          PrefetcherKind::Hierarchical, PrefetcherKind::PerfectL1I}) {
        SimConfig base = quickConfig(kind);
        base.warmupInsts = 30'000;
        base.measureInsts = 60'000;
        const SimConfig pinned = measurementConfig(base);
        const std::string stats = Simulator(base).run().stats.toJson();
        std::size_t normalized = 0;
        for (const std::string &path : fieldPaths(base)) {
            const SimConfig c = perturbed(base, path);
            if (!(measurementConfig(c) == pinned))
                continue;
            ++normalized;
            EXPECT_EQ(Simulator(c).run().stats.toJson(), stats)
                << prefetcherName(kind) << ": " << path;
        }
        EXPECT_GT(normalized, 0u) << prefetcherName(kind);
    }

    // A field the simulation does read survives.
    SimConfig hier = quickConfig(PrefetcherKind::Hierarchical);
    hier.hier.aheadSegments = 9;
    EXPECT_EQ(measurementConfig(hier).hier.aheadSegments, 9u);
}

TEST(RunnerTest, CacheDoesNotRerunConfigsDifferingOnlyInUnreadFields)
{
    // Regression: a sweep over a prefetcher knob must not re-simulate
    // grid points whose configured prefetcher never reads that knob.
    SimConfig a = quickConfig(PrefetcherKind::None);
    a.warmupInsts = 110'000; // unique class within the test binary
    SimConfig b = a;
    b.eip.maxTargets = 99;
    ASSERT_FALSE(a == b); // configKey still tells them apart
    ASSERT_NE(ExperimentRunner::configKey(a),
              ExperimentRunner::configKey(b));

    SimMetrics ma = ExperimentRunner::run(a);
    std::size_t after_a = ExperimentRunner::simulationsRun();
    SimMetrics mb = ExperimentRunner::run(b);
    EXPECT_EQ(ExperimentRunner::simulationsRun(), after_a);
    EXPECT_EQ(ma.cycles, mb.cycles);
}

TEST(RunnerTest, CacheDoesNotAliasConfigsDifferingInReadFields)
{
    // The inverse guard: two configs that differ in a field the
    // simulation reads must stay distinct cache entries.
    SimConfig a = quickConfig(PrefetcherKind::Hierarchical);
    a.warmupInsts = 130'000;
    SimConfig b = a;
    b.hier.aheadSegments = a.hier.aheadSegments + 2;

    ExperimentRunner::run(a);
    std::size_t after_a = ExperimentRunner::simulationsRun();
    ExperimentRunner::run(b);
    EXPECT_EQ(ExperimentRunner::simulationsRun(), after_a + 1);
}

TEST(RunnerTest, RunPairBaselineIsFdipOnly)
{
    SimConfig config = quickConfig(PrefetcherKind::Hierarchical);
    // Bundles must recur for replays to happen: give this test a
    // window long enough for several requests.
    config.warmupInsts = 800'000;
    config.measureInsts = 1'200'000;
    RunPair pair = ExperimentRunner::runPair(config);
    // The baseline has no Ext prefetches.
    EXPECT_EQ(pair.base.stats.value("ext.issued"), 0u);
    EXPECT_GT(pair.run.stats.value("ext.issued"), 0u);
    // Paired metrics are consistent with the two runs.
    EXPECT_NEAR(pair.paired.speedup,
                pair.run.ipc() / pair.base.ipc() - 1.0, 1e-12);
}

TEST(RunnerTest, DefaultConfigMatchesTableOne)
{
    SimConfig config = defaultConfig("tidb-tpcc");
    EXPECT_EQ(config.ftqEntries, 24u);
    EXPECT_EQ(config.btbEntries, 8192u);
    EXPECT_EQ(config.mem.l1iBytes, 32u * 1024);
    EXPECT_EQ(config.mem.l1iWays, 8u);
    EXPECT_EQ(config.mem.l1iLatency, 2u);
    EXPECT_EQ(config.mem.l2Latency, 14u);
    EXPECT_EQ(config.mem.llcLatency, 50u);
    EXPECT_EQ(config.mem.l1iMshrs, 16u);
    EXPECT_EQ(config.robEntries, 352u);
    EXPECT_EQ(config.commitWidth, 6u);
    EXPECT_EQ(config.hier.matEntries, 512u);
    EXPECT_EQ(config.hier.metadataBufferBytes, 512u * 1024);
}

TEST(RunnerTest, DefaultConfigEnablesBundleStatsForHp)
{
    SimConfig hp_config =
        defaultConfig("caddy", PrefetcherKind::Hierarchical);
    EXPECT_TRUE(hp_config.hier.trackBundleStats);
    SimConfig base = defaultConfig("caddy");
    EXPECT_EQ(base.prefetcher, PrefetcherKind::None);
}

} // namespace
} // namespace hp
