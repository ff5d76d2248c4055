/** @file Tests for the end-to-end JunoIndex. */
#include <gtest/gtest.h>

#include "common/logging.h"
#include "core/juno_index.h"
#include "dataset/ground_truth.h"
#include "dataset/recall.h"
#include "dataset/synthetic.h"

namespace juno {
namespace {

Dataset
makeData(Metric metric, idx_t n = 2000, idx_t dim = 16)
{
    SyntheticSpec spec;
    spec.kind = metric == Metric::kL2 ? DatasetKind::kDeepLike
                                      : DatasetKind::kTtiLike;
    spec.num_points = n;
    spec.num_queries = 25;
    spec.dim = dim;
    spec.components = 16;
    spec.seed = 88;
    return makeDataset(spec);
}

JunoParams
smallParams()
{
    JunoParams params;
    params.clusters = 20;
    params.pq_entries = 32;
    params.nprobs = 6;
    params.density_grid = 40;
    params.policy.train_samples = 80;
    params.policy.ref_samples = 1000;
    params.policy.contain_topk = 50;
    return params;
}

TEST(JunoIndex, BuildsAllComponents)
{
    const auto ds = makeData(Metric::kL2);
    JunoIndex index(Metric::kL2, ds.base.view(), smallParams());
    EXPECT_EQ(index.size(), 2000);
    EXPECT_TRUE(index.ivf().built());
    EXPECT_TRUE(index.pq().trained());
    EXPECT_TRUE(index.interestIndex().built());
    EXPECT_TRUE(index.densityMap().built());
    EXPECT_TRUE(index.thresholdPolicy().trained());
    EXPECT_TRUE(index.junoScene().built());
    EXPECT_EQ(index.pq().numSubspaces(), 8); // dim 16 -> 8 subspaces
}

TEST(JunoIndex, JunoHReachesHighRecallWithFullProbing)
{
    const auto ds = makeData(Metric::kL2);
    auto params = junoPresetH(smallParams());
    params.nprobs = 20;
    JunoIndex index(Metric::kL2, ds.base.view(), params);
    const auto gt = computeGroundTruth(Metric::kL2, ds.base.view(),
                                       ds.queries.view(), 10);
    const auto results = index.search(ds.queries.view(), 100);
    EXPECT_GE(recall1AtK(gt, results), 0.8);
}

TEST(JunoIndex, PresetsConfigureModes)
{
    EXPECT_EQ(junoPresetH().mode, SearchMode::kExactDistance);
    EXPECT_EQ(junoPresetM().mode, SearchMode::kRewardPenalty);
    EXPECT_EQ(junoPresetL().mode, SearchMode::kHitCount);
}

TEST(JunoIndex, QualityOrderingAcrossModes)
{
    // JUNO-H (exact distances) should recall at least as well as the
    // count-based modes at the same operating point.
    const auto ds = makeData(Metric::kL2);
    auto params = smallParams();
    params.nprobs = 12;
    JunoIndex index(Metric::kL2, ds.base.view(), params);
    const auto gt = computeGroundTruth(Metric::kL2, ds.base.view(),
                                       ds.queries.view(), 10);

    index.setSearchMode(SearchMode::kExactDistance);
    const double rh = recall1AtK(gt, index.search(ds.queries.view(), 100));
    index.setSearchMode(SearchMode::kRewardPenalty);
    const double rm = recall1AtK(gt, index.search(ds.queries.view(), 100));
    index.setSearchMode(SearchMode::kHitCount);
    const double rl = recall1AtK(gt, index.search(ds.queries.view(), 100));

    EXPECT_GE(rh, rl - 0.1);
    EXPECT_GE(rh, 0.6);
    EXPECT_GT(rm, 0.0);
    EXPECT_GT(rl, 0.0);
}

TEST(JunoIndex, RecallMonotoneInNprobs)
{
    const auto ds = makeData(Metric::kL2);
    JunoIndex index(Metric::kL2, ds.base.view(),
                    junoPresetH(smallParams()));
    const auto gt = computeGroundTruth(Metric::kL2, ds.base.view(),
                                       ds.queries.view(), 10);
    double prev = -1.0;
    for (idx_t nprobs : {2, 8, 20}) {
        index.setNprobs(nprobs);
        const double r =
            recall1AtK(gt, index.search(ds.queries.view(), 100));
        EXPECT_GE(r, prev - 0.08) << "nprobs " << nprobs;
        prev = r;
    }
}

TEST(JunoIndex, ScaleTradesRecallForFewerHits)
{
    const auto ds = makeData(Metric::kL2);
    auto params = junoPresetH(smallParams());
    params.nprobs = 12;
    JunoIndex index(Metric::kL2, ds.base.view(), params);
    const auto gt = computeGroundTruth(Metric::kL2, ds.base.view(),
                                       ds.queries.view(), 10);

    index.setThresholdScale(1.0);
    index.device().resetStats();
    const double r_full =
        recall1AtK(gt, index.search(ds.queries.view(), 100));
    const auto hits_full = index.rtStats().hits;

    index.setThresholdScale(0.4);
    index.device().resetStats();
    const double r_small =
        recall1AtK(gt, index.search(ds.queries.view(), 100));
    const auto hits_small = index.rtStats().hits;

    EXPECT_LT(hits_small, hits_full);
    EXPECT_GE(r_full, r_small - 0.05);
}

TEST(JunoIndex, InnerProductSearchWorks)
{
    const auto ds = makeData(Metric::kInnerProduct);
    auto params = junoPresetH(smallParams());
    params.nprobs = 20;
    JunoIndex index(Metric::kInnerProduct, ds.base.view(), params);
    const auto gt = computeGroundTruth(Metric::kInnerProduct,
                                       ds.base.view(), ds.queries.view(),
                                       10);
    const auto results = index.search(ds.queries.view(), 100);
    EXPECT_GE(recall1AtK(gt, results), 0.5);
}

TEST(JunoIndex, BvhAndLinearFallbackGiveSameResults)
{
    // Same rays and shader, different traversal: bitwise-equal LUTs.
    const auto ds = makeData(Metric::kL2);
    JunoIndex index(Metric::kL2, ds.base.view(),
                    junoPresetH(smallParams()));
    index.setLutBackend(LutBackend::kBvh);
    const auto rt_results = index.search(ds.queries.view(), 20);
    index.setLutBackend(LutBackend::kLinear);
    const auto fb_results = index.search(ds.queries.view(), 20);
    EXPECT_EQ(rt_results, fb_results);
}

/**
 * Recall of the CPU gate against the BVH rays over 1000 queries: the
 * selected sets agree up to boundary ties and the scores up to
 * rounding, so recall must agree within 0.001 (one query).
 */
void
expectCpuRecallMatchesBvh(Metric metric, SearchMode mode)
{
    SyntheticSpec spec;
    spec.kind = metric == Metric::kL2 ? DatasetKind::kDeepLike
                                      : DatasetKind::kTtiLike;
    spec.num_points = 3000;
    spec.num_queries = 1000;
    spec.dim = 16;
    spec.components = 16;
    spec.seed = 89;
    const auto ds = makeDataset(spec);
    auto params = smallParams();
    params.mode = mode;
    params.nprobs = 8;
    JunoIndex index(metric, ds.base.view(), params);
    const auto gt = computeGroundTruth(metric, ds.base.view(),
                                       ds.queries.view(), 10);
    index.device().resetStats();
    const auto cpu = index.search(ds.queries.view(), 10);
    const auto cpu_hits = index.rtStats().hits;
    index.setLutBackend(LutBackend::kBvh);
    index.device().resetStats();
    const auto bvh = index.search(ds.queries.view(), 10);
    const auto bvh_hits = index.rtStats().hits;
    EXPECT_NEAR(recallMAtK(gt, cpu, 10), recallMAtK(gt, bvh, 10), 1e-3)
        << metricName(metric) << " " << searchModeName(mode);
    EXPECT_NEAR(recall1AtK(gt, cpu), recall1AtK(gt, bvh), 1e-3);
    // Same selections, up to a handful of boundary ties.
    EXPECT_NEAR(static_cast<double>(cpu_hits),
                static_cast<double>(bvh_hits),
                1e-4 * static_cast<double>(bvh_hits) + 2.0);
}

TEST(JunoIndex, CpuGateRecallMatchesBvhL2)
{
    expectCpuRecallMatchesBvh(Metric::kL2, SearchMode::kExactDistance);
    expectCpuRecallMatchesBvh(Metric::kL2, SearchMode::kRewardPenalty);
}

TEST(JunoIndex, CpuGateRecallMatchesBvhIp)
{
    expectCpuRecallMatchesBvh(Metric::kInnerProduct,
                              SearchMode::kExactDistance);
}

TEST(JunoIndex, StageTimersPopulated)
{
    const auto ds = makeData(Metric::kL2);
    JunoIndex index(Metric::kL2, ds.base.view(),
                    junoPresetH(smallParams()));
    index.search(ds.queries.view(), 10);
    EXPECT_GT(index.stageTimers().seconds("filter"), 0.0);
    EXPECT_GT(index.stageTimers().seconds("rt_lut"), 0.0);
    EXPECT_GT(index.stageTimers().seconds("scan"), 0.0);
}

TEST(JunoIndex, StaticThresholdModesWork)
{
    const auto ds = makeData(Metric::kL2);
    JunoIndex index(Metric::kL2, ds.base.view(),
                    junoPresetH(smallParams()));
    const auto gt = computeGroundTruth(Metric::kL2, ds.base.view(),
                                       ds.queries.view(), 10);

    index.setThresholdMode(ThresholdMode::kStaticLarge);
    index.device().resetStats();
    const double r_large =
        recall1AtK(gt, index.search(ds.queries.view(), 100));
    const auto hits_large = index.rtStats().hits;

    index.setThresholdMode(ThresholdMode::kStaticSmall);
    index.device().resetStats();
    recall1AtK(gt, index.search(ds.queries.view(), 100));
    const auto hits_small = index.rtStats().hits;

    // Large static threshold does more work (more hits) and should be
    // at least as accurate as anything smaller.
    EXPECT_GT(hits_large, hits_small);
    EXPECT_GT(r_large, 0.0);
}

TEST(JunoIndex, NameEncodesPreset)
{
    const auto ds = makeData(Metric::kL2);
    JunoIndex index(Metric::kL2, ds.base.view(),
                    junoPresetL(smallParams()));
    EXPECT_NE(index.name().find("JUNO-L"), std::string::npos);
    EXPECT_NE(index.name().find("C=20"), std::string::npos);
}

TEST(JunoIndex, RejectsBadConfigs)
{
    const auto ds = makeData(Metric::kL2);
    auto params = smallParams();
    params.nprobs = 0;
    EXPECT_THROW(JunoIndex(Metric::kL2, ds.base.view(), params),
                 ConfigError);

    SyntheticSpec odd;
    odd.kind = DatasetKind::kUniform;
    odd.num_points = 100;
    odd.dim = 7; // odd dimension cannot form 2-D subspaces
    const auto odd_ds = makeDataset(odd);
    EXPECT_THROW(JunoIndex(Metric::kL2, odd_ds.base.view(), smallParams()),
                 ConfigError);

    JunoIndex ok(Metric::kL2, ds.base.view(), smallParams());
    EXPECT_THROW(ok.setThresholdScale(0.0), ConfigError);
    EXPECT_THROW(ok.setThresholdScale(1.5), ConfigError);
    EXPECT_THROW(ok.setNprobs(0), ConfigError);
}

} // namespace
} // namespace juno
