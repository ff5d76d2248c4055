/** @file Tests for the selective gate-LUT construction (all backends). */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <limits>
#include <set>

#include "common/distance.h"
#include "common/logging.h"
#include "common/rng.h"
#include "core/selective_lut.h"
#include "dataset/synthetic.h"

namespace juno {
namespace {

/** Full JUNO offline stack over a small dataset. */
struct Fixture {
    Dataset ds;
    InvertedFileIndex ivf;
    ProductQuantizer pq;
    DensityMap density;
    ThresholdPolicy policy;
    JunoScene scene;
    rt::RtDevice device;
    std::unique_ptr<SelectiveLutBuilder> builder;

    explicit Fixture(Metric metric)
    {
        SyntheticSpec spec;
        spec.kind = metric == Metric::kL2 ? DatasetKind::kDeepLike
                                          : DatasetKind::kTtiLike;
        spec.num_points = 1200;
        spec.num_queries = 10;
        spec.dim = 8;
        spec.components = 10;
        spec.seed = 66;
        ds = makeDataset(spec);

        InvertedFileIndex::Params ivf_params;
        ivf_params.clusters = 12;
        ivf.build(ds.base.view(), ivf_params);

        FloatMatrix residuals(ds.base.rows(), ds.base.cols());
        for (idx_t p = 0; p < ds.base.rows(); ++p)
            ivf.residual(ds.base.row(p), ivf.label(p), residuals.row(p));
        PQParams pq_params;
        pq_params.num_subspaces = 4;
        pq_params.entries = 16;
        pq.train(residuals.view(), pq_params);

        const FloatMatrixView domain =
            metric == Metric::kL2 ? residuals.view() : ds.base.view();
        density.build(domain, 4, 30);
        ThresholdPolicy::Params tp;
        tp.train_samples = 80;
        tp.ref_samples = 600;
        tp.contain_topk = 40;
        policy.train(metric, domain, 4, density, tp);

        scene.build(metric, pq, policy);
        builder = std::make_unique<SelectiveLutBuilder>(scene, policy, ivf,
                                                        device);
    }
};

TEST(SelectiveLut, L2HitsMatchBruteForceSelection)
{
    Fixture fx(Metric::kL2);
    SelectiveLutParams params;
    const float *q = fx.ds.queries.row(0);
    const auto probes = fx.ivf.probe(Metric::kL2, q, 4);
    const auto lut = fx.builder->build(q, probes, params);

    ASSERT_EQ(lut.selected.size(), 4u);
    ASSERT_EQ(lut.delta.size(), 4u * 4u * 16u);
    EXPECT_FALSE(lut.shared_across_probes);

    std::vector<float> residual(8);
    for (std::size_t p = 0; p < probes.size(); ++p) {
        fx.ivf.residual(q, static_cast<cluster_t>(probes[p].id),
                        residual.data());
        for (int s = 0; s < 4; ++s) {
            const float qx = residual[static_cast<std::size_t>(2 * s)];
            const float qy = residual[static_cast<std::size_t>(2 * s + 1)];
            const double thr = fx.policy.threshold(s, qx, qy);

            std::set<entry_t> expected;
            for (entry_t e = 0; e < 16; ++e) {
                const float *ec = fx.pq.entry(s, e);
                const double dx = ec[0] - qx, dy = ec[1] - qy;
                if (std::sqrt(dx * dx + dy * dy) <= thr * (1.0 - 1e-5))
                    expected.insert(e);
            }
            // All strictly-inside entries must appear; boundary entries
            // may differ by FP rounding.
            for (entry_t e : expected)
                EXPECT_TRUE(lut.isSelected(p, s, e))
                    << "probe " << p << " subspace " << s << " entry " << e;
        }
    }
}

TEST(SelectiveLut, L2ValuesAreSquaredSubspaceDistances)
{
    Fixture fx(Metric::kL2);
    const float *q = fx.ds.queries.row(1);
    const auto probes = fx.ivf.probe(Metric::kL2, q, 2);
    const auto lut = fx.builder->build(q, probes, {});

    std::vector<float> residual(8);
    for (std::size_t p = 0; p < probes.size(); ++p) {
        fx.ivf.residual(q, static_cast<cluster_t>(probes[p].id),
                        residual.data());
        for (int s = 0; s < 4; ++s) {
            for (entry_t e = 0; e < 16; ++e) {
                if (!lut.isSelected(p, s, e))
                    continue;
                const float *ec = fx.pq.entry(s, e);
                const float dx =
                    ec[0] - residual[static_cast<std::size_t>(2 * s)];
                const float dy =
                    ec[1] - residual[static_cast<std::size_t>(2 * s + 1)];
                EXPECT_NEAR(lut.value(p, s, e), dx * dx + dy * dy,
                            5e-3f * (1.0f + dx * dx + dy * dy));
            }
        }
    }
}

TEST(SelectiveLut, IpSharesLutAcrossProbes)
{
    Fixture fx(Metric::kInnerProduct);
    const float *q = fx.ds.queries.row(0);
    const auto probes = fx.ivf.probe(Metric::kInnerProduct, q, 4);
    const auto lut = fx.builder->build(q, probes, {});
    EXPECT_TRUE(lut.shared_across_probes);
    EXPECT_EQ(lut.selected.size(), 1u);
    EXPECT_EQ(lut.delta.size(), 4u * 16u);
    EXPECT_EQ(lut.base.size(), 4u);
    // The base term must equal IP(q, centroid).
    for (std::size_t p = 0; p < probes.size(); ++p)
        EXPECT_NEAR(lut.base[p],
                    innerProduct(q,
                                 fx.ivf.centroid(static_cast<cluster_t>(
                                     probes[p].id)),
                                 8),
                    1e-3f);
}

TEST(SelectiveLut, IpValuesAreSubspaceInnerProducts)
{
    Fixture fx(Metric::kInnerProduct);
    const float *q = fx.ds.queries.row(2);
    const auto probes = fx.ivf.probe(Metric::kInnerProduct, q, 2);
    const auto lut = fx.builder->build(q, probes, {});
    for (int s = 0; s < 4; ++s) {
        for (entry_t e = 0; e < 16; ++e) {
            if (!lut.isSelected(0, s, e))
                continue;
            const float *ec = fx.pq.entry(s, e);
            const float ip = ec[0] * q[2 * s] + ec[1] * q[2 * s + 1];
            EXPECT_NEAR(lut.value(0, s, e), ip,
                        5e-2f * (1.0f + std::abs(ip)));
        }
    }
}

TEST(SelectiveLut, SmallerScaleNeverAddsHits)
{
    Fixture fx(Metric::kL2);
    const float *q = fx.ds.queries.row(3);
    const auto probes = fx.ivf.probe(Metric::kL2, q, 3);
    SelectiveLutParams full, half;
    full.threshold_scale = 1.0;
    half.threshold_scale = 0.5;
    const auto lut_full = fx.builder->build(q, probes, full);
    const auto lut_half = fx.builder->build(q, probes, half);
    for (std::size_t p = 0; p < probes.size(); ++p) {
        for (int s = 0; s < 4; ++s)
            for (entry_t e = 0; e < 16; ++e) {
                if (lut_half.isSelected(p, s, e)) {
                    EXPECT_TRUE(lut_full.isSelected(p, s, e));
                }
            }
        EXPECT_LE(lut_half.selectedFor(p), lut_full.selectedFor(p));
    }
}

TEST(SelectiveLut, InnerFlagImpliesTighterDistance)
{
    Fixture fx(Metric::kL2);
    const float *q = fx.ds.queries.row(4);
    const auto probes = fx.ivf.probe(Metric::kL2, q, 3);
    SelectiveLutParams params;
    params.inner_gate = true;
    const auto lut = fx.builder->build(q, probes, params);
    for (std::size_t p = 0; p < probes.size(); ++p) {
        for (int s = 0; s < 4; ++s) {
            float max_inner = -1.0f, min_outer = 1e30f;
            for (entry_t e = 0; e < 16; ++e) {
                if (!lut.isSelected(p, s, e))
                    continue;
                if (lut.isInner(p, s, e))
                    max_inner = std::max(max_inner, lut.value(p, s, e));
                else
                    min_outer = std::min(min_outer, lut.value(p, s, e));
            }
            // Inner hits are all at most as far as any outer-only hit.
            if (max_inner >= 0.0f && min_outer < 1e30f) {
                EXPECT_LE(max_inner, min_outer + 1e-4f);
            }
        }
    }
}

TEST(SelectiveLut, MissValueIsGateBoundaryL2)
{
    Fixture fx(Metric::kL2);
    const float *q = fx.ds.queries.row(5);
    const auto probes = fx.ivf.probe(Metric::kL2, q, 2);
    SelectiveLutParams params;
    params.miss_penalty = 1.0;
    const auto lut = fx.builder->build(q, probes, params);
    std::vector<float> residual(8);
    for (std::size_t p = 0; p < probes.size(); ++p) {
        fx.ivf.residual(q, static_cast<cluster_t>(probes[p].id),
                        residual.data());
        for (int s = 0; s < 4; ++s) {
            const double thr = fx.policy.threshold(
                s, residual[static_cast<std::size_t>(2 * s)],
                residual[static_cast<std::size_t>(2 * s + 1)]);
            EXPECT_NEAR(lut.missFor(p, s), thr * thr, 1e-4 * thr * thr);
        }
    }
}

TEST(SelectiveLut, SparsitySavesWorkVsDenseLut)
{
    // The headline claim: far fewer selected entries than E per
    // subspace on clustered data.
    Fixture fx(Metric::kL2);
    const float *q = fx.ds.queries.row(6);
    const auto probes = fx.ivf.probe(Metric::kL2, q, 4);
    const auto lut = fx.builder->build(q, probes, {});
    std::size_t selected = 0, cells = 0;
    for (std::size_t p = 0; p < lut.selected.size(); ++p) {
        selected += lut.selectedFor(p);
        cells += lut.cells();
    }
    EXPECT_LT(static_cast<double>(selected) / static_cast<double>(cells),
              0.8);
}

/**
 * Score of entry e against the projection (x, y), as the CPU gate
 * computes it.
 */
float
gateScore(Metric metric, const float *ec, float x, float y)
{
    if (metric == Metric::kInnerProduct)
        return x * ec[0] + y * ec[1];
    const float dx = x - ec[0], dy = y - ec[1];
    return dx * dx + dy * dy;
}

/**
 * Selected-set equality between the CPU gate and the BVH rays, with
 * the inner gate on: a cell may differ only on a boundary tie, where
 * the score is within a few float ulps of the gate's bound. The rays
 * decide in scaled thit units, so their rounding is relative to the
 * scene's scale at that gate: the bound plus the squared gate radius
 * R^2 / kappa^2 plus the squared projection norm, in original units.
 * (At the juno-batch preset the worst tie measured 0.5 such ulps.)
 */
void
expectCpuMatchesBvh(Metric metric)
{
    Fixture fx(metric);
    SelectiveLutParams cpu_params, bvh_params;
    cpu_params.inner_gate = bvh_params.inner_gate = true;
    cpu_params.backend = LutBackend::kCpu;
    bvh_params.backend = LutBackend::kBvh;
    constexpr float kTieUlps = 4.0f;
    std::size_t cpu_selected = 0, bvh_selected = 0, ties = 0;
    std::vector<float> residual(8);
    for (idx_t qi = 0; qi < fx.ds.queries.rows(); ++qi) {
        const float *q = fx.ds.queries.row(qi);
        const auto probes = fx.ivf.probe(metric, q, 12);
        const GateLut cpu = fx.builder->build(q, probes, cpu_params);
        const GateLut bvh = fx.builder->build(q, probes, bvh_params);
        ASSERT_EQ(cpu.selected.size(), bvh.selected.size());
        for (std::size_t p = 0; p < cpu.selected.size(); ++p) {
            cpu_selected += cpu.selectedFor(p);
            bvh_selected += bvh.selectedFor(p);
            const float *proj = q;
            if (metric == Metric::kL2) {
                fx.ivf.residual(q, static_cast<cluster_t>(probes[p].id),
                                residual.data());
                proj = residual.data();
            }
            for (int s = 0; s < 4; ++s) {
                EXPECT_EQ(cpu.missFor(p, s), bvh.missFor(p, s));
                const float x = proj[2 * s], y = proj[2 * s + 1];
                const float k = fx.scene.coordScale(s);
                const float scale = fx.scene.radius() *
                                        fx.scene.radius() / (k * k) +
                                    x * x + y * y;
                const double thr_raw = fx.policy.threshold(s, x, y);
                const float limit = fx.scene.gateLimit(
                    s, x, y, fx.policy.scaled(s, thr_raw, 1.0));
                const float inner_limit = fx.scene.gateLimit(
                    s, x, y, fx.policy.scaled(s, thr_raw, 0.5));
                for (entry_t e = 0; e < 16; ++e) {
                    const float score =
                        gateScore(metric, fx.pq.entry(s, e), x, y);
                    const auto tie = [&](float bound) {
                        return std::abs(score - bound) <=
                               kTieUlps *
                                   std::numeric_limits<float>::epsilon() *
                                   (std::abs(bound) + scale);
                    };
                    if (cpu.isSelected(p, s, e) != bvh.isSelected(p, s, e)) {
                        EXPECT_TRUE(tie(limit))
                            << "q=" << qi << " p=" << p << " s=" << s
                            << " e=" << e << " score=" << score
                            << " limit=" << limit;
                        ++ties;
                    } else if (cpu.isInner(p, s, e) !=
                               bvh.isInner(p, s, e)) {
                        EXPECT_TRUE(tie(inner_limit))
                            << "q=" << qi << " p=" << p << " s=" << s
                            << " e=" << e << " score=" << score
                            << " inner_limit=" << inner_limit;
                        ++ties;
                    } else if (cpu.isSelected(p, s, e)) {
                        // Same entry, two roundings of one score.
                        EXPECT_NEAR(cpu.value(p, s, e), bvh.value(p, s, e),
                                    5e-2f * (1.0f + std::abs(score)));
                    }
                }
            }
        }
    }
    EXPECT_GT(cpu_selected, 0u);
    EXPECT_LE(ties, cpu_selected / 100 + 1);
    EXPECT_LE(cpu_selected, bvh_selected + ties);
    EXPECT_LE(bvh_selected, cpu_selected + ties);
}

TEST(SelectiveLut, CpuGateMatchesBvhL2)
{
    expectCpuMatchesBvh(Metric::kL2);
}

TEST(SelectiveLut, CpuGateMatchesBvhIp)
{
    expectCpuMatchesBvh(Metric::kInnerProduct);
}

TEST(SelectiveLut, LinearFallbackWritesTheBvhCells)
{
    // Same rays, same shader, same intersection test: only the
    // traversal differs, so the cells are identical bit for bit.
    Fixture fx(Metric::kL2);
    const float *q = fx.ds.queries.row(7);
    const auto probes = fx.ivf.probe(Metric::kL2, q, 5);
    SelectiveLutParams params;
    params.backend = LutBackend::kBvh;
    const GateLut bvh = fx.builder->build(q, probes, params);
    params.backend = LutBackend::kLinear;
    const GateLut linear = fx.builder->build(q, probes, params);
    EXPECT_EQ(bvh.delta, linear.delta);
    EXPECT_EQ(bvh.flag, linear.flag);
    EXPECT_EQ(bvh.inner, linear.inner);
    EXPECT_EQ(bvh.selected, linear.selected);
}

TEST(SelectiveLut, CpuCountersMirrorTheRayLedger)
{
    // One ray per non-empty gate, E primitive tests per ray, one hit
    // per selected entry, no node visits.
    Fixture fx(Metric::kL2);
    const float *q = fx.ds.queries.row(8);
    const auto probes = fx.ivf.probe(Metric::kL2, q, 6);
    SelectiveLutParams params;
    params.backend = LutBackend::kCpu;
    fx.device.resetStats();
    const GateLut lut = fx.builder->build(q, probes, params);
    const rt::TraversalStats cpu = fx.device.totalStats();
    std::size_t selected = 0;
    for (std::size_t p = 0; p < probes.size(); ++p)
        selected += lut.selectedFor(p);
    EXPECT_EQ(cpu.hits, selected);
    EXPECT_EQ(cpu.prim_tests, cpu.rays * 16u);
    EXPECT_EQ(cpu.node_visits, 0u);

    params.backend = LutBackend::kBvh;
    fx.device.resetStats();
    fx.builder->build(q, probes, params);
    EXPECT_EQ(cpu.rays, fx.device.totalStats().rays);
    EXPECT_GT(fx.device.totalStats().node_visits, 0u);
}

TEST(SelectiveLut, BackendNamesRoundTrip)
{
    for (LutBackend b :
         {LutBackend::kCpu, LutBackend::kBvh, LutBackend::kLinear})
        EXPECT_EQ(parseLutBackend(lutBackendName(b)), b);
    EXPECT_THROW(parseLutBackend("rt"), ConfigError);
    EXPECT_THROW(parseLutBackend(""), ConfigError);
}

} // namespace
} // namespace juno
