/** @file Unit tests for running statistics, quantiles and histograms. */
#include <gtest/gtest.h>

#include "common/logging.h"
#include "common/rng.h"
#include "common/stats.h"

namespace juno {
namespace {

TEST(RunningStat, MeanVarianceMinMax)
{
    RunningStat st;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        st.add(x);
    EXPECT_EQ(st.count(), 8u);
    EXPECT_DOUBLE_EQ(st.mean(), 5.0);
    EXPECT_NEAR(st.variance(), 32.0 / 7.0, 1e-12);
    EXPECT_DOUBLE_EQ(st.min(), 2.0);
    EXPECT_DOUBLE_EQ(st.max(), 9.0);
}

TEST(RunningStat, EmptyAndSingle)
{
    RunningStat st;
    EXPECT_EQ(st.count(), 0u);
    EXPECT_DOUBLE_EQ(st.mean(), 0.0);
    st.add(3.0);
    EXPECT_DOUBLE_EQ(st.mean(), 3.0);
    EXPECT_DOUBLE_EQ(st.variance(), 0.0);
}

TEST(QuantileSketch, MedianAndQuartiles)
{
    QuantileSketch qs;
    for (int i = 1; i <= 101; ++i)
        qs.add(static_cast<double>(i));
    EXPECT_DOUBLE_EQ(qs.median(), 51.0);
    EXPECT_DOUBLE_EQ(qs.q1(), 26.0);
    EXPECT_DOUBLE_EQ(qs.q3(), 76.0);
    EXPECT_DOUBLE_EQ(qs.iqr(), 50.0);
    EXPECT_DOUBLE_EQ(qs.q0(), 26.0 - 75.0);
    EXPECT_DOUBLE_EQ(qs.q4(), 76.0 + 75.0);
}

TEST(QuantileSketch, InterpolatesBetweenSamples)
{
    QuantileSketch qs;
    qs.add(0.0);
    qs.add(10.0);
    EXPECT_DOUBLE_EQ(qs.quantile(0.5), 5.0);
    EXPECT_DOUBLE_EQ(qs.quantile(0.25), 2.5);
}

TEST(QuantileSketch, SingleSampleAllQuantiles)
{
    QuantileSketch qs;
    qs.add(7.0);
    EXPECT_DOUBLE_EQ(qs.quantile(0.0), 7.0);
    EXPECT_DOUBLE_EQ(qs.quantile(1.0), 7.0);
}

TEST(QuantileSketch, RejectsEmptyAndBadArgs)
{
    QuantileSketch qs;
    EXPECT_THROW(qs.quantile(0.5), ConfigError);
    qs.add(1.0);
    EXPECT_THROW(qs.quantile(-0.1), ConfigError);
    EXPECT_THROW(qs.quantile(1.1), ConfigError);
}

TEST(QuantileSketch, MeanMatchesArithmetic)
{
    QuantileSketch qs;
    qs.add({1.0, 2.0, 3.0, 4.0});
    EXPECT_DOUBLE_EQ(qs.mean(), 2.5);
}

TEST(QuantileSketch, MonotoneInQ)
{
    Rng rng(3);
    QuantileSketch qs;
    for (int i = 0; i < 500; ++i)
        qs.add(rng.gaussian());
    double prev = qs.quantile(0.0);
    for (double q = 0.05; q <= 1.0; q += 0.05) {
        const double v = qs.quantile(q);
        EXPECT_GE(v, prev);
        prev = v;
    }
}

TEST(Histogram, CountsAndCdf)
{
    Histogram h(0.0, 10.0, 10);
    for (int i = 0; i < 10; ++i)
        h.add(static_cast<double>(i) + 0.5);
    EXPECT_EQ(h.total(), 10u);
    for (int b = 0; b < 10; ++b)
        EXPECT_EQ(h.countAt(b), 1u);
    EXPECT_DOUBLE_EQ(h.cdfAt(4), 0.5);
    EXPECT_DOUBLE_EQ(h.cdfAt(9), 1.0);
}

TEST(Histogram, ClampsOutOfRange)
{
    Histogram h(0.0, 1.0, 4);
    h.add(-5.0);
    h.add(5.0);
    EXPECT_EQ(h.countAt(0), 1u);
    EXPECT_EQ(h.countAt(3), 1u);
}

TEST(Histogram, BinCenters)
{
    Histogram h(0.0, 4.0, 4);
    EXPECT_DOUBLE_EQ(h.binCenter(0), 0.5);
    EXPECT_DOUBLE_EQ(h.binCenter(3), 3.5);
}

TEST(Histogram, RejectsBadConstruction)
{
    EXPECT_THROW(Histogram(0.0, 1.0, 0), ConfigError);
    EXPECT_THROW(Histogram(1.0, 0.0, 4), ConfigError);
}

} // namespace
} // namespace juno
