/** @file Tests for the per-subspace density map. */
#include <gtest/gtest.h>

#include <limits>

#include "common/logging.h"
#include "common/rng.h"
#include "core/density_map.h"

namespace juno {
namespace {

TEST(SubspaceDensity, CountsPerCell)
{
    // Four points in distinct corners of [0,1]^2 with a 2x2 grid.
    FloatMatrix pts(4, 2);
    const float coords[4][2] = {{0.1f, 0.1f}, {0.9f, 0.1f},
                                {0.1f, 0.9f}, {0.9f, 0.9f}};
    for (idx_t i = 0; i < 4; ++i) {
        pts.at(i, 0) = coords[i][0];
        pts.at(i, 1) = coords[i][1];
    }
    SubspaceDensity map;
    map.build(pts.view(), 2);
    for (idx_t i = 0; i < 4; ++i)
        EXPECT_EQ(map.countAt(coords[i][0], coords[i][1]), 1);
}

TEST(SubspaceDensity, DensityIsCountOverArea)
{
    FloatMatrix pts(10, 2);
    for (idx_t i = 0; i < 10; ++i) {
        pts.at(i, 0) = 0.5f;
        pts.at(i, 1) = 0.5f;
    }
    // Spread two outliers so the box is non-degenerate.
    pts.at(8, 0) = 0.0f;
    pts.at(8, 1) = 0.0f;
    pts.at(9, 0) = 1.0f;
    pts.at(9, 1) = 1.0f;
    SubspaceDensity map;
    map.build(pts.view(), 4);
    EXPECT_DOUBLE_EQ(map.densityAt(0.5f, 0.5f),
                     static_cast<double>(map.countAt(0.5f, 0.5f)) /
                         map.cellArea());
    EXPECT_EQ(map.countAt(0.5f, 0.5f), 8);
}

TEST(SubspaceDensity, DenseRegionHasHigherDensity)
{
    Rng rng(3);
    FloatMatrix pts(1000, 2);
    for (idx_t i = 0; i < 1000; ++i) {
        if (i < 900) {
            // Dense blob near the origin.
            pts.at(i, 0) = static_cast<float>(rng.gaussian(0.0, 0.05));
            pts.at(i, 1) = static_cast<float>(rng.gaussian(0.0, 0.05));
        } else {
            pts.at(i, 0) = rng.uniform(-2.0f, 2.0f);
            pts.at(i, 1) = rng.uniform(-2.0f, 2.0f);
        }
    }
    SubspaceDensity map;
    map.build(pts.view(), 50);
    EXPECT_GT(map.densityAt(0.0f, 0.0f), map.densityAt(1.8f, 1.8f));
}

TEST(SubspaceDensity, QueriesOutsideBoxClampToEdgeCells)
{
    FloatMatrix pts(3, 2);
    pts.at(0, 0) = 0;
    pts.at(1, 0) = 1;
    pts.at(2, 0) = 2;
    SubspaceDensity map;
    map.build(pts.view(), 4);
    // Far outside queries land in boundary cells, not UB.
    EXPECT_GE(map.densityAt(-100.0f, -100.0f), 0.0);
    EXPECT_GE(map.densityAt(100.0f, 100.0f), 0.0);
}

TEST(SubspaceDensity, NonFiniteAndHugeCoordinatesClampWithoutOverflow)
{
    // Corner cells of a 2x2 grid hold distinct counts, so each lookup
    // proves which cell it landed in: 1e30 must not overflow the int
    // cast (UB), and NaN maps to cell 0.
    FloatMatrix pts(6, 2);
    const float coords[6][2] = {{0.1f, 0.1f}, {0.9f, 0.1f}, {0.9f, 0.1f},
                                {0.1f, 0.9f}, {0.1f, 0.9f}, {0.1f, 0.9f}};
    for (idx_t i = 0; i < 6; ++i) {
        pts.at(i, 0) = coords[i][0];
        pts.at(i, 1) = coords[i][1];
    }
    SubspaceDensity map;
    map.build(pts.view(), 2);
    const float nan = std::numeric_limits<float>::quiet_NaN();
    EXPECT_EQ(map.countAt(-1e30f, -1e30f), 1);
    EXPECT_EQ(map.countAt(1e30f, -1e30f), 2);
    EXPECT_EQ(map.countAt(-1e30f, 1e30f), 3);
    EXPECT_EQ(map.countAt(1e30f, 1e30f), 0);
    EXPECT_EQ(map.countAt(nan, nan), 1);
    EXPECT_EQ(map.countAt(1e30f, nan), 2);
    EXPECT_EQ(map.countAt(nan, 1e30f), 3);
}

TEST(SubspaceDensity, RejectsBadInput)
{
    FloatMatrix pts(2, 3);
    SubspaceDensity map;
    EXPECT_THROW(map.build(pts.view(), 4), ConfigError);
    FloatMatrix ok(2, 2);
    EXPECT_THROW(map.build(ok.view(), 0), ConfigError);
}

TEST(DensityMap, BuildsPerSubspace)
{
    Rng rng(5);
    FloatMatrix residuals(200, 8); // 4 subspaces
    for (idx_t i = 0; i < 200; ++i)
        for (idx_t j = 0; j < 8; ++j)
            residuals.at(i, j) = rng.uniform(-1.0f, 1.0f);
    DensityMap map;
    map.build(residuals.view(), 4, 20);
    EXPECT_TRUE(map.built());
    EXPECT_EQ(map.numSubspaces(), 4);
    for (int s = 0; s < 4; ++s)
        EXPECT_GE(map.densityAt(s, 0.0f, 0.0f), 0.0);
}

TEST(DensityMap, TotalCountsMatchPoints)
{
    Rng rng(7);
    FloatMatrix residuals(150, 4);
    for (idx_t i = 0; i < 150; ++i)
        for (idx_t j = 0; j < 4; ++j)
            residuals.at(i, j) = rng.uniform(-1.0f, 1.0f);
    DensityMap map;
    map.build(residuals.view(), 2, 10);
    // Sum of counts over all visited cells should equal N per subspace;
    // verify via sampled reconstruction: every point's own cell has
    // count >= 1.
    for (int s = 0; s < 2; ++s)
        for (idx_t i = 0; i < 150; ++i)
            EXPECT_GE(map.subspace(s).countAt(residuals.at(i, 2 * s),
                                              residuals.at(i, 2 * s + 1)),
                      1);
}

TEST(DensityMap, RejectsDimMismatch)
{
    FloatMatrix residuals(10, 6);
    DensityMap map;
    EXPECT_THROW(map.build(residuals.view(), 4, 10), ConfigError);
}

} // namespace
} // namespace juno
