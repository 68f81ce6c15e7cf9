/**
 * @file
 * The checkpoint's per-slot window and the run window behind it.
 *
 * A blob holds the in-flight window one instruction and one fetch
 * cycle per slot; a restore rebuilds the runs and fetch groups and
 * first checks the front-end invariants they rely on. Each test here
 * breaks one invariant in a live simulator through SimulatorProbe,
 * captures it, and expects the restore into a fresh simulator to fail
 * with that invariant's diagnostic, and a rejected warm blob in
 * HP_CKPT_DIR is evicted. A round trip from a state with a partly
 * committed run, a partly fetched FTQ entry and a one-instruction
 * look-ahead must reproduce every byte.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <ostream>
#include <string>

#include "sim/checkpoint.hh"
#include "sim/simulator.hh"
#include "sim_probe.hh"

namespace hp
{
namespace
{

using Probe = SimulatorProbe;

SimConfig
windowConfig()
{
    SimConfig config;
    config.workload = "caddy";
    config.prefetcher = PrefetcherKind::Hierarchical;
    config.warmupInsts = 30'000;
    config.measureInsts = 30'000;
    return config;
}

/** Steps @p sim until @p holds at a cycle boundary (or fails). */
void
stepUntil(Simulator &sim, const std::function<bool()> &holds)
{
    for (int i = 0; i < 200'000 && !holds(); ++i)
        Probe::step(sim);
    ASSERT_TRUE(holds()) << "state never reached";
}

struct Violation
{
    const char *name;
    /** Steps to a state the corruption needs, then corrupts it. */
    std::function<void(Simulator &)> corrupt;
    const char *diagnostic;
};

/** Names the case in test listings (the default prints its bytes). */
void
PrintTo(const Violation &v, std::ostream *os)
{
    *os << v.name;
}

class WindowRestoreTest : public ::testing::TestWithParam<Violation>
{
};

TEST_P(WindowRestoreTest, RestoreRejectsTheBrokenInvariant)
{
    Simulator sim(windowConfig());
    sim.runWarmup();
    GetParam().corrupt(sim);
    if (HasFatalFailure())
        return;
    Simulator fresh(windowConfig());
    EXPECT_EQ(Probe::restore(fresh, Probe::state(sim)),
              GetParam().diagnostic);
}

/** A state with at least two unfetched predicted instructions in two
 *  or more FTQ entries, behind at least two fetch groups. */
void
busyFrontEnd(Simulator &sim)
{
    stepUntil(sim, [&sim] {
        return Probe::ftqSize(sim) >= 2 && Probe::fetchGroups(sim) >= 2 &&
            Probe::bpSeq(sim) >= Probe::fetchSeq(sim) + 2 &&
            Probe::fetchSeq(sim) > Probe::windowBase(sim);
    });
}

const Violation kViolations[] = {
    {"BaseNotCommitPoint",
     [](Simulator &sim) { ++Probe::committed(sim); },
     "window base is not the commit point"},
    {"FetchBelowBase",
     [](Simulator &sim) {
         Probe::fetchSeq(sim) = Probe::windowBase(sim) - 1;
     },
     "fetch cursor outside [window base, prediction cursor]"},
    {"FetchAbovePrediction",
     [](Simulator &sim) {
         busyFrontEnd(sim);
         Probe::fetchSeq(sim) = Probe::bpSeq(sim) + 1;
     },
     "fetch cursor outside [window base, prediction cursor]"},
    {"TwoPulledPastPrediction",
     [](Simulator &sim) {
         busyFrontEnd(sim);
         Probe::bpSeq(sim) = Probe::pullSeq(sim) - 2;
     },
     "not at most one pulled instruction past the prediction cursor"},
    {"PredictionPastPulled",
     [](Simulator &sim) {
         busyFrontEnd(sim);
         Probe::bpSeq(sim) = Probe::pullSeq(sim) + 1;
     },
     "not at most one pulled instruction past the prediction cursor"},
    {"EmptyFtqBehindPrediction",
     [](Simulator &sim) {
         busyFrontEnd(sim);
         Probe::clearFtq(sim);
     },
     "empty FTQ behind unfetched predicted instructions"},
    {"FtqFrontMissesFetch",
     [](Simulator &sim) {
         busyFrontEnd(sim);
         Probe::ftqStart(sim, 0) = Probe::fetchSeq(sim) + 1;
     },
     "FTQ front entry does not hold the fetch cursor"},
    {"FtqGap",
     [](Simulator &sim) {
         busyFrontEnd(sim);
         ++Probe::ftqStart(sim, 1);
     },
     "FTQ entries are not contiguous"},
    {"FtqEndsPastPrediction",
     [](Simulator &sim) {
         busyFrontEnd(sim);
         ++Probe::ftqEnd(sim, Probe::ftqSize(sim) - 1);
     },
     "last FTQ entry does not end at the prediction cursor"},
    {"FetchCyclesDecrease",
     [](Simulator &sim) {
         busyFrontEnd(sim);
         Probe::fetchGroupCycle(sim, 1) = Probe::fetchGroupCycle(sim, 0) - 1;
     },
     "fetch cycles decrease over the fetched slots"},
    {"UnfetchedSlotHasCycle",
     [](Simulator &sim) {
         busyFrontEnd(sim);
         ++Probe::fetchGroupEnd(sim, Probe::fetchGroups(sim) - 1);
     },
     "a slot past the fetch cursor has a fetch cycle"},
    {"BlockNotAtLastPull",
     [](Simulator &sim) {
         busyFrontEnd(sim);
         Probe::feBlock(sim) = Probe::FeBlock::BtbMiss;
         Probe::feBlockSeq(sim) = Probe::windowBase(sim);
     },
     "front-end block is not the last pulled instruction"},
    {"UnknownBlockKind",
     [](Simulator &sim) {
         Probe::feBlock(sim) = static_cast<Probe::FeBlock>(7);
     },
     "unknown front-end block kind"},
    {"FtqBlockMissesItsInstructions",
     [](Simulator &sim) {
         busyFrontEnd(sim);
         Probe::ftqBlock(sim, 1) += kBlockBytes / 2;
     },
     "an FTQ entry's block does not hold its instructions"},
    {"StreamPastWindowEnd",
     [](Simulator &sim) {
         ASSERT_GT(Probe::frontRunInsts(sim), 0u);
         Probe::skipStream(sim);
     },
     "the workload stream does not resume where the window ends"},
};

INSTANTIATE_TEST_SUITE_P(
    Invariants, WindowRestoreTest, ::testing::ValuesIn(kViolations),
    [](const ::testing::TestParamInfo<Violation> &info) {
        return std::string(info.param.name);
    });

TEST(WindowRoundTripTest, PartialRunsAndLookAheadRoundTripByteForByte)
{
    // Step per cycle until commit has just cut the front run, fetch
    // stands inside the front FTQ entry, and the prediction unit has
    // pulled one instruction into the next block.
    Simulator sim(windowConfig());
    sim.runWarmup();
    Addr pc = Probe::frontRunPc(sim);
    std::uint64_t n = Probe::frontRunInsts(sim);
    bool cut = false;
    for (int i = 0; i < 200'000; ++i) {
        Probe::step(sim);
        const Addr now_pc = Probe::frontRunPc(sim);
        cut = now_pc > pc && now_pc < pc + n * kInstBytes;
        pc = now_pc;
        n = Probe::frontRunInsts(sim);
        if (cut && Probe::ftqSize(sim) > 0 &&
            Probe::ftqStart(sim, 0) < Probe::fetchSeq(sim) &&
            Probe::pullSeq(sim) == Probe::bpSeq(sim) + 1)
            break;
    }
    ASSERT_TRUE(cut) << "no partly committed run";
    ASSERT_LT(Probe::ftqStart(sim, 0), Probe::fetchSeq(sim));
    ASSERT_EQ(Probe::pullSeq(sim), Probe::bpSeq(sim) + 1);

    const std::vector<std::uint8_t> bytes = Probe::state(sim);
    Simulator restored(windowConfig());
    ASSERT_EQ(Probe::restore(restored, bytes), "");
    EXPECT_TRUE(Probe::state(restored) == bytes);

    // And the two go on identically.
    const std::uint64_t target = sim.committedInsts() + 10'000;
    Probe::runTo(sim, target);
    Probe::runTo(restored, target);
    EXPECT_TRUE(Probe::state(restored) == Probe::state(sim));
}

TEST(WindowCheckpointDirTest, RejectedWarmBlobIsEvicted)
{
    // A warm blob in HP_CKPT_DIR that decodes but fails the window
    // checks: runCheckpointed runs cold and removes the file, so the
    // next process warms the class again instead of re-failing.
    namespace fs = std::filesystem;
    const fs::path dir = fs::temp_directory_path() /
        ("hp_window_ckpt_" + std::to_string(::getpid()));
    fs::remove_all(dir);
    fs::create_directories(dir);
    const char *inherited = std::getenv("HP_CKPT_DIR");
    const std::string saved_dir = inherited ? inherited : "";
    ::setenv("HP_CKPT_DIR", dir.c_str(), 1);

    SimConfig config = windowConfig();
    config.warmupInsts = 31'000; // a warm class no other test acquires
    // A child process warms and spills the class, so this process's
    // warm-checkpoint cache stays empty and loads the file below.
    EXPECT_EXIT(
        {
            acquireWarmedCheckpoint(config);
            std::exit(0);
        },
        ::testing::ExitedWithCode(0), "");
    ASSERT_EQ(std::distance(fs::directory_iterator(dir),
                            fs::directory_iterator()),
              1);
    const fs::path file = fs::directory_iterator(dir)->path();
    std::ifstream in(file, std::ios::binary);
    const std::vector<std::uint8_t> image(
        (std::istreambuf_iterator<char>(in)),
        std::istreambuf_iterator<char>());
    std::string error;
    const auto good = Checkpoint::decode(image, &error);
    ASSERT_NE(good, nullptr) << error;
    Simulator sim(config);
    ASSERT_TRUE(good->restoreInto(sim, &error)) << error;
    ++Probe::committed(sim);
    ASSERT_TRUE(saveCheckpointFile(dir.string(), file.filename().string(),
                                   Checkpoint::capture(
                                       sim, good->warmupKey())));

    const SimMetrics m = runCheckpointed(config);
    const bool evicted = !fs::exists(file);
    if (inherited)
        ::setenv("HP_CKPT_DIR", saved_dir.c_str(), 1);
    else
        ::unsetenv("HP_CKPT_DIR");
    fs::remove_all(dir);

    EXPECT_TRUE(evicted);
    EXPECT_EQ(m.stats.entries(), Simulator(config).run().stats.entries());
}

} // namespace
} // namespace hp
