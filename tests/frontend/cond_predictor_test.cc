#include <gtest/gtest.h>

#include "frontend/cond_predictor.hh"
#include "util/hash.hh"
#include "util/rng.hh"
#include "util/serialize.hh"

namespace hp
{
namespace
{

/** Runs @p trials of predict+update; returns the mispredict rate. */
double
runPattern(CondPredictor &pred, unsigned trials,
           const std::function<bool(unsigned, Addr &)> &pattern)
{
    std::uint64_t wrong = 0;
    for (unsigned i = 0; i < trials; ++i) {
        Addr pc = 0;
        bool taken = pattern(i, pc);
        bool predicted = pred.predict(pc);
        pred.update(pc, taken);
        wrong += (predicted != taken);
    }
    return double(wrong) / trials;
}

TEST(CondPredictorTest, LearnsAlwaysTaken)
{
    CondPredictor pred;
    double rate = runPattern(pred, 2000, [](unsigned, Addr &pc) {
        pc = 0x1000;
        return true;
    });
    EXPECT_LT(rate, 0.01);
}

TEST(CondPredictorTest, LearnsAlwaysNotTaken)
{
    CondPredictor pred;
    double rate = runPattern(pred, 2000, [](unsigned, Addr &pc) {
        pc = 0x2000;
        return false;
    });
    EXPECT_LT(rate, 0.01);
}

TEST(CondPredictorTest, LearnsShortPeriodicPattern)
{
    // T T N repeating: needs history, impossible for pure bimodal.
    CondPredictor pred;
    double rate = runPattern(pred, 6000, [](unsigned i, Addr &pc) {
        pc = 0x3000;
        return (i % 3) != 2;
    });
    EXPECT_LT(rate, 0.10);
}

TEST(CondPredictorTest, ManyBiasedBranches)
{
    CondPredictor pred;
    // 256 branches, each with a fixed direction from its address.
    double rate = runPattern(pred, 40000, [](unsigned i, Addr &pc) {
        unsigned branch = i % 256;
        pc = 0x10000 + Addr(branch) * 4;
        return (mix64(pc) & 1) != 0;
    });
    EXPECT_LT(rate, 0.03);
}

TEST(CondPredictorTest, RandomBranchNearChance)
{
    CondPredictor pred;
    Rng rng(5);
    double rate = runPattern(pred, 20000, [&rng](unsigned, Addr &pc) {
        pc = 0x5000;
        return rng.nextBool(0.5);
    });
    EXPECT_GT(rate, 0.35);
    EXPECT_LT(rate, 0.65);
}

TEST(CondPredictorTest, StatsAreConsistent)
{
    CondPredictor pred;
    runPattern(pred, 100, [](unsigned i, Addr &pc) {
        pc = 0x1000;
        return i & 1;
    });
    EXPECT_EQ(pred.predictions(), 100u);
    EXPECT_LE(pred.mispredicts(), pred.predictions());
    EXPECT_NEAR(pred.mispredictRate(),
                double(pred.mispredicts()) / 100.0, 1e-12);
}

std::vector<std::uint8_t>
stateOf(CondPredictor &pred)
{
    StateWriter w;
    pred.serializeState(w);
    return w.take();
}

TEST(CondPredictorTest, RestoreContinuesTheSequenceExactly)
{
    // 64 branch sites with mixed biases; the outcome of branch i is a
    // fixed function of i, so both runs see the same sequence.
    auto branch = [](unsigned i, Addr &pc) {
        const std::uint64_t h = mix64(i);
        pc = 0x40000 + (h % 64) * 4;
        return mix64(pc ^ (i / 7)) % 100 < (pc % 3 == 0 ? 90 : 35);
    };
    constexpr unsigned kSplit = 20'000;
    constexpr unsigned kTotal = 40'000;

    CondPredictor whole;
    std::vector<bool> expected;
    for (unsigned i = 0; i < kTotal; ++i) {
        Addr pc = 0;
        const bool taken = branch(i, pc);
        expected.push_back(whole.predict(pc));
        whole.update(pc, taken);
    }

    CondPredictor first;
    for (unsigned i = 0; i < kSplit; ++i) {
        Addr pc = 0;
        const bool taken = branch(i, pc);
        ASSERT_EQ(first.predict(pc), expected[i]) << i;
        first.update(pc, taken);
    }
    const std::vector<std::uint8_t> bytes = stateOf(first);
    CondPredictor second;
    StateLoader loader(bytes.data(), bytes.size());
    second.serializeState(loader);
    ASSERT_FALSE(loader.failed());
    EXPECT_EQ(stateOf(second), bytes);
    for (unsigned i = kSplit; i < kTotal; ++i) {
        Addr pc = 0;
        const bool taken = branch(i, pc);
        ASSERT_EQ(second.predict(pc), expected[i]) << i;
        second.update(pc, taken);
    }
    EXPECT_EQ(stateOf(second), stateOf(whole));
}

TEST(CondPredictorTest, RestoreRejectsAnotherGeometry)
{
    // predict() indexes the tables with the configured geometry, so a
    // smaller blob must not shrink them.
    CondPredictor small(12, 10);
    CondPredictor into;
    const std::vector<std::uint8_t> bytes = stateOf(small);
    StateLoader loader(bytes.data(), bytes.size());
    into.serializeState(loader);
    ASSERT_NE(loader.failReason(), nullptr);
    EXPECT_STREQ(loader.failReason(),
                 "TAGE table size differs from its geometry");
}

} // namespace
} // namespace hp
