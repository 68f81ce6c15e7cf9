#include <gtest/gtest.h>

#include "frontend/indirect_predictor.hh"
#include "../test_helpers.hh"

namespace hp
{
namespace
{

TEST(IndirectPredictorTest, UnknownBranchPredictsZero)
{
    IndirectPredictor pred;
    EXPECT_EQ(pred.predict(0x1000), 0u);
    pred.update(0x1000, 0x2000);
}

TEST(IndirectPredictorTest, LearnsMonomorphicTarget)
{
    IndirectPredictor pred;
    std::uint64_t wrong = 0;
    for (int i = 0; i < 1000; ++i) {
        Addr predicted = pred.predict(0x1000);
        wrong += (predicted != 0x9000);
        pred.update(0x1000, 0x9000);
    }
    EXPECT_LT(wrong, 5u);
}

TEST(IndirectPredictorTest, LearnsPathCorrelatedTargets)
{
    // The branch alternates between two targets in a fixed pattern; a
    // path-history predictor must beat the 50% of a last-target table.
    IndirectPredictor pred;
    std::uint64_t wrong = 0;
    constexpr int kTrials = 8000;
    for (int i = 0; i < kTrials; ++i) {
        Addr actual = (i % 2) ? 0x9000 : 0x7000;
        Addr predicted = pred.predict(0x1000);
        wrong += (predicted != actual);
        pred.update(0x1000, actual);
    }
    EXPECT_LT(double(wrong) / kTrials, 0.25);
}

TEST(IndirectPredictorTest, ManyCallSites)
{
    IndirectPredictor pred;
    std::uint64_t wrong = 0;
    constexpr int kTrials = 20000;
    for (int i = 0; i < kTrials; ++i) {
        Addr pc = 0x10000 + Addr(i % 64) * 4;
        Addr actual = 0x100000 + Addr(i % 64) * 0x100;
        Addr predicted = pred.predict(pc);
        wrong += (predicted != actual);
        pred.update(pc, actual);
    }
    EXPECT_LT(double(wrong) / kTrials, 0.05);
}

TEST(IndirectPredictorTest, StatsTrackMispredicts)
{
    IndirectPredictor pred;
    pred.predict(0x1000);
    pred.update(0x1000, 0x42);
    EXPECT_EQ(pred.predictions(), 1u);
    EXPECT_EQ(pred.mispredicts(), 1u); // cold prediction was 0
}

TEST(IndirectPredictorTest, RestoreRejectsAnotherGeometry)
{
    // predict() indexes the tables with the configured geometry, so a
    // smaller blob must not shrink them.
    IndirectPredictor small(10, 8);
    IndirectPredictor into;
    EXPECT_EQ(test::restoreError(into, test::saved(small)),
              "ITTAGE table size differs from its geometry");
}

} // namespace
} // namespace hp
