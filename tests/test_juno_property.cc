/**
 * @file Parameterized end-to-end property sweep: every combination of
 * metric x search mode x execution path must produce deterministic,
 * well-formed results with sane recall, and tighter budgets must never
 * increase the RT work done.
 */
#include <gtest/gtest.h>

#include <tuple>

#include "core/juno_index.h"
#include "dataset/ground_truth.h"
#include "dataset/recall.h"
#include "dataset/synthetic.h"

namespace juno {
namespace {

struct SharedData {
    Dataset l2_data;
    Dataset ip_data;
    GroundTruth l2_gt;
    GroundTruth ip_gt;

    SharedData()
    {
        SyntheticSpec spec;
        spec.kind = DatasetKind::kDeepLike;
        spec.num_points = 1500;
        spec.num_queries = 16;
        spec.dim = 12;
        spec.components = 12;
        spec.seed = 3131;
        l2_data = makeDataset(spec);
        l2_gt = computeGroundTruth(Metric::kL2, l2_data.base.view(),
                                   l2_data.queries.view(), 50);

        spec.kind = DatasetKind::kTtiLike;
        spec.seed = 3132;
        ip_data = makeDataset(spec);
        ip_gt = computeGroundTruth(Metric::kInnerProduct,
                                   ip_data.base.view(),
                                   ip_data.queries.view(), 50);
    }
};

SharedData &
shared()
{
    static SharedData data;
    return data;
}

using Config = std::tuple<Metric, SearchMode, LutBackend>;

class JunoConfigSweep : public ::testing::TestWithParam<Config> {
  protected:
    static JunoParams
    params(SearchMode mode, LutBackend lut)
    {
        JunoParams p;
        p.clusters = 16;
        p.pq_entries = 32;
        p.nprobs = 8;
        p.mode = mode;
        p.lut = lut;
        p.density_grid = 30;
        p.policy.train_samples = 60;
        p.policy.ref_samples = 800;
        p.policy.contain_topk = 40;
        return p;
    }
};

TEST_P(JunoConfigSweep, WellFormedDeterministicAndSane)
{
    const auto [metric, mode, lut] = GetParam();
    auto &data = shared();
    const Dataset &ds =
        metric == Metric::kL2 ? data.l2_data : data.ip_data;
    const GroundTruth &gt = metric == Metric::kL2 ? data.l2_gt : data.ip_gt;

    JunoIndex index(metric, ds.base.view(), params(mode, lut));
    const auto first = index.search(ds.queries.view(), 50);
    const auto second = index.search(ds.queries.view(), 50);

    // Determinism.
    EXPECT_EQ(first, second);

    // Well-formedness: ids unique and in range, results ordered.
    const Metric order = mode == SearchMode::kExactDistance
                             ? metric
                             : Metric::kInnerProduct;
    for (const auto &row : first) {
        ASSERT_FALSE(row.empty());
        std::set<idx_t> seen;
        for (std::size_t i = 0; i < row.size(); ++i) {
            EXPECT_GE(row[i].id, 0);
            EXPECT_LT(row[i].id, ds.base.rows());
            EXPECT_TRUE(seen.insert(row[i].id).second);
            if (i > 0) {
                EXPECT_FALSE(isBetter(order, row[i].score,
                                      row[i - 1].score))
                    << "results not best-first at rank " << i;
            }
        }
    }

    // Sanity: even approximate modes must beat random guessing by far.
    // Exception encoded from the paper (Sec. 6.2, TTI1M): hit-count
    // selection under inner product "rapidly drops" in quality because
    // intersecting implies L2 closeness, not similarity — so JUNO-L on
    // MIPS only gets a weak floor.
    const bool weak_combo = metric == Metric::kInnerProduct &&
                            mode != SearchMode::kExactDistance;
    const double r = recall1AtK(gt, first);
    EXPECT_GE(r, weak_combo ? 0.05 : 0.3)
        << metricName(metric) << " " << searchModeName(mode);
}

std::string
configName(const ::testing::TestParamInfo<Config> &info)
{
    const Metric metric = std::get<0>(info.param);
    const SearchMode mode = std::get<1>(info.param);
    const LutBackend lut = std::get<2>(info.param);
    std::string name = metric == Metric::kL2 ? "L2" : "IP";
    name += mode == SearchMode::kExactDistance      ? "_H"
            : mode == SearchMode::kRewardPenalty ? "_M"
                                                 : "_L";
    name += std::string("_") + lutBackendName(lut);
    return name;
}

INSTANTIATE_TEST_SUITE_P(
    AllConfigs, JunoConfigSweep,
    ::testing::Combine(
        ::testing::Values(Metric::kL2, Metric::kInnerProduct),
        ::testing::Values(SearchMode::kExactDistance,
                          SearchMode::kRewardPenalty,
                          SearchMode::kHitCount),
        ::testing::Values(LutBackend::kCpu, LutBackend::kBvh,
                          LutBackend::kLinear)),
    configName);

/** Scale sweep: RT hits must be monotone in the threshold scale. */
class ScaleMonotone : public ::testing::TestWithParam<double> {};

TEST_P(ScaleMonotone, HitsShrinkWithScale)
{
    auto &data = shared();
    static JunoIndex index(Metric::kL2, data.l2_data.base.view(), [] {
        JunoParams p;
        p.clusters = 16;
        p.pq_entries = 32;
        p.nprobs = 8;
        p.density_grid = 30;
        p.policy.train_samples = 60;
        p.policy.ref_samples = 800;
        p.policy.contain_topk = 40;
        return p;
    }());

    const double scale = GetParam();
    index.setThresholdScale(1.0);
    index.device().resetStats();
    index.search(data.l2_data.queries.view(), 20);
    const auto full = index.rtStats().hits;

    index.setThresholdScale(scale);
    index.device().resetStats();
    index.search(data.l2_data.queries.view(), 20);
    const auto scaled = index.rtStats().hits;
    EXPECT_LE(scaled, full);
}

INSTANTIATE_TEST_SUITE_P(Scales, ScaleMonotone,
                         ::testing::Values(0.9, 0.7, 0.5, 0.3, 0.1));

/** k boundary cases. */
TEST(JunoEdgeCases, KAsLargeAsN)
{
    auto &data = shared();
    JunoParams p;
    p.clusters = 16;
    p.pq_entries = 32;
    p.nprobs = 16; // everything
    p.density_grid = 30;
    p.policy.train_samples = 60;
    p.policy.ref_samples = 800;
    p.policy.contain_topk = 40;
    JunoIndex index(Metric::kL2, data.l2_data.base.view(), p);
    const auto results =
        index.search(data.l2_data.queries.view().slice(0, 2),
                     data.l2_data.base.rows() * 2);
    for (const auto &row : results) {
        EXPECT_LE(static_cast<idx_t>(row.size()),
                  data.l2_data.base.rows());
        EXPECT_GT(row.size(), 100u); // wide gates touch most points
    }
}

TEST(JunoEdgeCases, QueriesIdenticalToBasePoints)
{
    auto &data = shared();
    JunoParams p = junoPresetH();
    p.clusters = 16;
    p.pq_entries = 32;
    p.nprobs = 8;
    p.density_grid = 30;
    p.policy.train_samples = 60;
    p.policy.ref_samples = 800;
    p.policy.contain_topk = 40;
    JunoIndex index(Metric::kL2, data.l2_data.base.view(), p);
    const auto results =
        index.search(data.l2_data.base.view().slice(0, 10), 10);
    int self_found = 0;
    for (std::size_t q = 0; q < results.size(); ++q)
        for (const auto &nb : results[q])
            if (nb.id == static_cast<idx_t>(q)) {
                ++self_found;
                break;
            }
    EXPECT_GE(self_found, 8);
}

} // namespace
} // namespace juno
