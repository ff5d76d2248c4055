/** @file Unit tests for timers and the per-stage ledger. */
#include <gtest/gtest.h>

#include <thread>

#include "common/timer.h"

namespace juno {
namespace {

TEST(Timer, MeasuresElapsedTime)
{
    Timer t;
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    EXPECT_GE(t.millis(), 9.0);
    EXPECT_LT(t.millis(), 500.0);
}

TEST(Timer, ResetRestartsClock)
{
    Timer t;
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    t.reset();
    EXPECT_LT(t.millis(), 5.0);
}

TEST(Timer, UnitConversions)
{
    Timer t;
    const double s = t.seconds();
    EXPECT_GE(s, 0.0);
    EXPECT_GE(t.millis(), 0.0);
    EXPECT_GE(t.micros(), 0.0);
}

TEST(StageTimers, AccumulatesPerStage)
{
    StageTimers timers;
    timers.add(Stage::kLut, 1.0);
    timers.add(Stage::kScan, 2.0);
    timers.add(Stage::kLut, 0.5);
    EXPECT_DOUBLE_EQ(timers.seconds(Stage::kLut), 1.5);
    EXPECT_DOUBLE_EQ(timers.seconds(Stage::kScan), 2.0);
    EXPECT_DOUBLE_EQ(timers.totalSeconds(), 3.5);
}

TEST(StageTimers, StringLookupMatchesEnum)
{
    StageTimers timers;
    timers.add(Stage::kFilter, 0.25);
    EXPECT_DOUBLE_EQ(timers.seconds("filter"), 0.25);
    EXPECT_DOUBLE_EQ(timers.seconds(stageName(Stage::kFilter)), 0.25);
}

TEST(StageTimers, UnknownStageIsZero)
{
    StageTimers timers;
    EXPECT_DOUBLE_EQ(timers.seconds("missing"), 0.0);
    EXPECT_DOUBLE_EQ(timers.seconds(Stage::kGraph), 0.0);
}

TEST(StageTimers, NamesFollowStageOrder)
{
    // The ledger is a fixed array now: names() reports recorded
    // stages in enum order regardless of recording order.
    StageTimers timers;
    timers.add(Stage::kScan, 0.3);
    timers.add(Stage::kFilter, 0.1);
    timers.add(Stage::kLut, 0.2);
    timers.add(Stage::kFilter, 0.1);
    ASSERT_EQ(timers.names().size(), 3u);
    EXPECT_EQ(timers.names()[0], "filter");
    EXPECT_EQ(timers.names()[1], "lut");
    EXPECT_EQ(timers.names()[2], "scan");
}

TEST(StageTimers, ZeroAddStillRecordsTheStage)
{
    // A stage that ran in 0 measurable time must still appear in the
    // report (names() tracks "seen", not "nonzero").
    StageTimers timers;
    timers.add(Stage::kRtLut, 0.0);
    ASSERT_EQ(timers.names().size(), 1u);
    EXPECT_EQ(timers.names()[0], "rt_lut");
}

TEST(StageTimers, ResetClearsEverything)
{
    StageTimers timers;
    timers.add(Stage::kRtExact, 1.0);
    timers.reset();
    EXPECT_TRUE(timers.names().empty());
    EXPECT_DOUBLE_EQ(timers.totalSeconds(), 0.0);
}

TEST(StageTimers, MergeSumsStageWise)
{
    StageTimers a, b;
    a.add(Stage::kScan, 1.0);
    b.add(Stage::kScan, 2.0);
    b.add(Stage::kGraph, 3.0);
    a.merge(b);
    EXPECT_DOUBLE_EQ(a.seconds(Stage::kScan), 3.0);
    EXPECT_DOUBLE_EQ(a.seconds(Stage::kGraph), 3.0);
    ASSERT_EQ(a.names().size(), 2u);
}

TEST(StageTimers, EveryStageHasAName)
{
    for (std::size_t s = 0; s < kNumStages; ++s)
        EXPECT_STRNE(stageName(static_cast<Stage>(s)), "");
}

TEST(ScopedStageTimer, AddsOnDestruction)
{
    StageTimers timers;
    {
        ScopedStageTimer scoped(timers, Stage::kScan);
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    EXPECT_GT(timers.seconds(Stage::kScan), 0.0);
}

} // namespace
} // namespace juno
