#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <thread>
#include <vector>

#include "sim/executor.hh"

namespace hp
{
namespace
{

/** Small config; the odd instruction counts keep it unique within the
 *  test binary so cache state from other tests cannot mask runs. */
SimConfig
tinyConfig(const std::string &workload, PrefetcherKind kind,
           std::uint64_t warmup, std::uint64_t measure)
{
    SimConfig config;
    config.workload = workload;
    config.prefetcher = kind;
    config.warmupInsts = warmup;
    config.measureInsts = measure;
    return config;
}

TEST(ExecutorTest, HpJobsOverridesDefaultThreads)
{
    const char *saved = std::getenv("HP_JOBS");
    std::string saved_value = saved ? saved : "";

    setenv("HP_JOBS", "3", 1);
    EXPECT_EQ(Executor::defaultThreads(), 3u);

    // Anything but 1-1024 in plain digits warns and falls back to the
    // hardware concurrency, including what strtoul would have taken.
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    for (const char *bad : {"not-a-number", "+3", " 3", "3 ", "0", "-1",
                            "1025", "99999999999999999999"}) {
        setenv("HP_JOBS", bad, 1);
        EXPECT_EQ(Executor::defaultThreads(), hw) << "'" << bad << "'";
    }

    if (saved)
        setenv("HP_JOBS", saved_value.c_str(), 1);
    else
        unsetenv("HP_JOBS");
}

TEST(ExecutorTest, SubmitDeduplicatesIdenticalConfigs)
{
    SimConfig config = tinyConfig("caddy", PrefetcherKind::None,
                                  101'000, 201'000);
    Executor executor(2);

    std::size_t before = ExperimentRunner::simulationsRun();
    auto f1 = executor.submit(config);
    auto f2 = executor.submit(config);
    SimMetrics a = f1.get();
    SimMetrics b = f2.get();
    std::size_t after = ExperimentRunner::simulationsRun();

    EXPECT_EQ(after - before, 1u);
    EXPECT_EQ(a.cycles, b.cycles);
    EXPECT_EQ(a.instructions, b.instructions);
}

TEST(ExecutorTest, ConcurrentRunPairPerformsOneSimulationPerConfig)
{
    SimConfig config = tinyConfig("gin", PrefetcherKind::EFetch,
                                  103'000, 203'000);

    std::size_t before = ExperimentRunner::simulationsRun();

    constexpr unsigned kThreads = 4;
    std::vector<RunPair> results(kThreads);
    std::vector<std::thread> threads;
    for (unsigned t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            results[t] = ExperimentRunner::runPair(config);
        });
    }
    for (std::thread &thread : threads)
        thread.join();

    std::size_t after = ExperimentRunner::simulationsRun();

    // Exactly one simulation for the run and one for its baseline, no
    // matter how many threads raced on the same config.
    EXPECT_EQ(after - before, 2u);
    for (unsigned t = 1; t < kThreads; ++t) {
        EXPECT_EQ(results[t].run.cycles, results[0].run.cycles);
        EXPECT_EQ(results[t].base.cycles, results[0].base.cycles);
        EXPECT_DOUBLE_EQ(results[t].paired.speedup,
                         results[0].paired.speedup);
    }
}

TEST(ExecutorTest, ParallelGridMatchesSerialRun)
{
    const std::vector<std::string> workloads = {"echo", "gorm"};
    const std::vector<PrefetcherKind> kinds = {PrefetcherKind::EFetch,
                                               PrefetcherKind::Eip};
    SimConfig base = tinyConfig("echo", PrefetcherKind::None, 107'000,
                                207'000);

    std::vector<SimConfig> grid;
    for (const std::string &workload : workloads) {
        for (PrefetcherKind kind : kinds) {
            SimConfig config = base;
            config.workload = workload;
            config.prefetcher = kind;
            grid.push_back(config);
        }
    }

    // Serial reference: fresh Simulator per grid point, bypassing the
    // cache entirely.
    std::vector<RunPair> serial;
    for (const SimConfig &config : grid) {
        Simulator run_sim(config);
        Simulator base_sim(fdipBaseline(config));
        serial.push_back(makeRunPair(run_sim.run(), base_sim.run()));
    }

    Executor executor(4);
    std::vector<RunPair> parallel = executor.runPairs(grid);

    ASSERT_EQ(parallel.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(parallel[i].run.cycles, serial[i].run.cycles);
        EXPECT_EQ(parallel[i].run.instructions,
                  serial[i].run.instructions);
        EXPECT_EQ(parallel[i].base.cycles, serial[i].base.cycles);
        EXPECT_EQ(parallel[i].run.stats.entries(),
                  serial[i].run.stats.entries());
        EXPECT_DOUBLE_EQ(parallel[i].paired.speedup,
                         serial[i].paired.speedup);
    }
}

TEST(ExecutorTest, RunAllPreservesSubmissionOrder)
{
    std::vector<SimConfig> configs;
    for (const char *workload : {"beego", "caddy", "echo"}) {
        configs.push_back(tinyConfig(workload, PrefetcherKind::None,
                                     109'000, 209'000));
    }

    Executor executor(3);
    std::vector<SimMetrics> results = executor.runAll(configs);

    ASSERT_EQ(results.size(), configs.size());
    for (std::size_t i = 0; i < configs.size(); ++i) {
        SimMetrics direct = ExperimentRunner::run(configs[i]);
        EXPECT_EQ(results[i].cycles, direct.cycles);
        EXPECT_EQ(results[i].instructions, direct.instructions);
    }
}

} // namespace
} // namespace hp
