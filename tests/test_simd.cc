/**
 * @file
 * Tests of the SIMD kernel layer: every dispatched kernel must match
 * the scalar reference (bitwise for the ADC gather, candidate
 * compaction and the selective-LUT gate, 1e-4 relative for float
 * reductions) across odd dimensions, and flipping the dispatch level
 * must not change the top-k ids an index returns.
 */
#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <vector>

#include "baseline/flat_index.h"
#include "baseline/ivfpq_index.h"
#include "common/rng.h"
#include "common/simd.h"
#include "dataset/synthetic.h"

namespace juno {
namespace {

const idx_t kDims[] = {1, 3, 7, 33, 100};

/** Restores the active dispatch level when a test scope ends. */
struct LevelGuard {
    simd::Level saved = simd::level();
    ~LevelGuard() { simd::setLevel(saved); }
};

std::vector<float>
randomVec(Rng &rng, std::size_t n)
{
    std::vector<float> v(n);
    for (auto &x : v)
        x = rng.uniform(-1.0f, 1.0f);
    return v;
}

void
expectClose(float expected, float actual, const char *what, idx_t d)
{
    const float tol =
        1e-4f * std::max(1.0f, std::abs(expected));
    EXPECT_NEAR(expected, actual, tol) << what << " d=" << d;
}

TEST(Simd, ReductionsMatchScalarAcrossOddDims)
{
    const auto &scalar = simd::table(simd::Level::kScalar);
    const auto &dispatched = simd::table(simd::bestSupported());
    Rng rng(11);
    for (idx_t d : kDims) {
        const auto a = randomVec(rng, static_cast<std::size_t>(d));
        const auto b = randomVec(rng, static_cast<std::size_t>(d));
        expectClose(scalar.l2_sqr(a.data(), b.data(), d),
                    dispatched.l2_sqr(a.data(), b.data(), d), "l2Sqr", d);
        expectClose(scalar.inner_product(a.data(), b.data(), d),
                    dispatched.inner_product(a.data(), b.data(), d),
                    "innerProduct", d);
        expectClose(scalar.l2_norm_sqr(a.data(), d),
                    dispatched.l2_norm_sqr(a.data(), d), "l2NormSqr", d);
    }
}

TEST(Simd, BatchKernelsMatchScalarReference)
{
    const auto &scalar = simd::table(simd::Level::kScalar);
    const auto &dispatched = simd::table(simd::bestSupported());
    Rng rng(12);
    // n = 7 exercises both the 4-row blocks and the row tail; d = 2
    // additionally exercises the packed JUNO-subspace special case.
    const idx_t n = 7;
    for (idx_t d : {idx_t(1), idx_t(2), idx_t(3), idx_t(33), idx_t(100)}) {
        const auto q = randomVec(rng, static_cast<std::size_t>(d));
        const auto rows =
            randomVec(rng, static_cast<std::size_t>(n * d));
        std::vector<float> ref(static_cast<std::size_t>(n));
        std::vector<float> got(static_cast<std::size_t>(n));

        scalar.l2_sqr_batch(q.data(), rows.data(), n, d, ref.data());
        dispatched.l2_sqr_batch(q.data(), rows.data(), n, d, got.data());
        for (idx_t i = 0; i < n; ++i) {
            expectClose(ref[static_cast<std::size_t>(i)],
                        got[static_cast<std::size_t>(i)], "l2SqrBatch", d);
            // The batch kernel must agree with the single-row kernel.
            expectClose(scalar.l2_sqr(q.data(),
                                      rows.data() +
                                          static_cast<std::size_t>(i * d),
                                      d),
                        ref[static_cast<std::size_t>(i)],
                        "l2SqrBatch-vs-single", d);
        }

        scalar.inner_product_batch(q.data(), rows.data(), n, d,
                                   ref.data());
        dispatched.inner_product_batch(q.data(), rows.data(), n, d,
                                       got.data());
        for (idx_t i = 0; i < n; ++i)
            expectClose(ref[static_cast<std::size_t>(i)],
                        got[static_cast<std::size_t>(i)],
                        "innerProductBatch", d);
    }
}

TEST(Simd, GemmTileMatchesScalar)
{
    const auto &scalar = simd::table(simd::Level::kScalar);
    const auto &dispatched = simd::table(simd::bestSupported());
    Rng rng(13);
    // Shapes hit the 4x16 tile, the 8-wide column tail, the scalar
    // column tail and the row tail.
    const struct {
        idx_t m, k, n;
    } shapes[] = {{5, 7, 19}, {8, 3, 40}, {4, 16, 16}, {1, 1, 1}};
    for (const auto &s : shapes) {
        const auto a =
            randomVec(rng, static_cast<std::size_t>(s.m * s.k));
        const auto b =
            randomVec(rng, static_cast<std::size_t>(s.k * s.n));
        std::vector<float> ref(static_cast<std::size_t>(s.m * s.n));
        std::vector<float> got(static_cast<std::size_t>(s.m * s.n));
        scalar.gemm(a.data(), b.data(), ref.data(), s.m, s.k, s.n);
        dispatched.gemm(a.data(), b.data(), got.data(), s.m, s.k, s.n);
        for (std::size_t i = 0; i < ref.size(); ++i) {
            const float tol =
                1e-4f * std::max(1.0f, std::abs(ref[i]));
            EXPECT_NEAR(ref[i], got[i], tol)
                << "gemm " << s.m << "x" << s.k << "x" << s.n << " @" << i;
        }
    }
}

TEST(Simd, AdcGatherReferenceMatchesNaiveLoop)
{
    Rng rng(14);
    const int subspaces = 5;
    const idx_t entries = 16;
    const idx_t num_points = 45;
    const auto lut = randomVec(
        rng, static_cast<std::size_t>(subspaces) *
                 static_cast<std::size_t>(entries));
    std::vector<entry_t> codes(static_cast<std::size_t>(num_points) *
                               static_cast<std::size_t>(subspaces));
    for (auto &c : codes)
        c = static_cast<entry_t>(rng.uniform() *
                                 static_cast<double>(entries)) %
            static_cast<entry_t>(entries);
    std::vector<idx_t> ids;
    for (idx_t p = num_points; p-- > 0;) // scattered, descending ids
        ids.push_back(p);

    std::vector<float> ref(ids.size());
    const float base = 0.625f;
    simd::adcGatherReference(lut.data(), entries, subspaces, codes.data(),
                             static_cast<std::size_t>(subspaces),
                             ids.data(), ids.size(), base, ref.data());
    for (std::size_t i = 0; i < ids.size(); ++i) {
        float acc = base;
        for (int s = 0; s < subspaces; ++s)
            acc += lut[static_cast<std::size_t>(s) *
                           static_cast<std::size_t>(entries) +
                       codes[static_cast<std::size_t>(ids[i]) *
                                 static_cast<std::size_t>(subspaces) +
                             static_cast<std::size_t>(s)]];
        EXPECT_EQ(acc, ref[i]);
    }
}

TEST(Simd, CompactCandidatesBitwiseIdenticalAcrossTables)
{
    const auto &scalar = simd::table(simd::Level::kScalar);
    const auto &dispatched = simd::table(simd::bestSupported());
    Rng rng(15);
    const std::size_t n = 37; // exercises the 8-wide blocks + tail
    std::vector<float> acc(n);
    std::vector<std::int32_t> hits(n, 0);
    std::vector<idx_t> list(n);
    for (std::size_t i = 0; i < n; ++i) {
        acc[i] = rng.uniform(-2.0f, 2.0f);
        hits[i] = rng.uniform(0.0f, 1.0f) < 0.25f ? 1 : 0;
        list[i] = static_cast<idx_t>(1000 + i);
    }
    // Force an all-zero block (fast skip) and an all-live block.
    for (std::size_t i = 8; i < 16; ++i)
        hits[i] = 0;
    for (std::size_t i = 16; i < 24; ++i)
        hits[i] = 3;

    std::vector<Neighbor> ref, got;
    const float offset = -1.25f;
    scalar.compact_candidates(acc.data(), hits.data(), list.data(), n,
                              offset, ref);
    dispatched.compact_candidates(acc.data(), hits.data(), list.data(), n,
                                  offset, got);
    ASSERT_EQ(ref.size(), got.size());
    for (std::size_t i = 0; i < ref.size(); ++i)
        EXPECT_EQ(ref[i], got[i]) << "candidate " << i;
}

TEST(Simd, LutGateBitwiseIdenticalAcrossTables)
{
    // Every supported tier must write the scalar table's cells bit for
    // bit: vector bodies, tails, entries exactly on the bound, NaN
    // coordinates (never selected), both metrics, inner plane on/off.
    std::vector<simd::Level> levels;
    for (simd::Level l : {simd::Level::kAvx2, simd::Level::kAvx512})
        if (simd::supported(l))
            levels.push_back(l);
    const auto &scalar = simd::table(simd::Level::kScalar);
    Rng rng(21);
    for (const std::size_t n : {1u, 7u, 16u, 37u, 256u}) {
        auto ex = randomVec(rng, n);
        auto ey = randomVec(rng, n);
        if (n > 5) {
            ex[5] = std::nanf("");
            ey[n - 1] = std::nanf("");
        }
        for (const bool ip : {false, true}) {
            for (const bool with_inner : {false, true}) {
                simd::LutGate gate;
                gate.x = 0.25f;
                gate.y = -0.5f;
                gate.inner_product = ip;
                // Entry 0 sits exactly on the bound: selected (<= / >=).
                const float dx = gate.x - ex[0], dy = gate.y - ey[0];
                gate.limit = ip ? gate.x * ex[0] + gate.y * ey[0]
                                : dx * dx + dy * dy;
                gate.inner_limit = ip ? gate.limit + 0.3f
                                      : gate.limit * 0.5f;
                gate.miss = ip ? gate.limit : gate.limit * 1.5f;
                std::vector<float> delta(n, -7.0f), flag(n, -7.0f),
                    inner(n, -7.0f);
                const std::size_t count = scalar.lut_gate(
                    gate, ex.data(), ey.data(), n, delta.data(),
                    flag.data(), with_inner ? inner.data() : nullptr);
                EXPECT_EQ(flag[0], 1.0f);
                std::size_t flagged = 0;
                for (std::size_t e = 0; e < n; ++e)
                    flagged += flag[e] != 0.0f ? 1 : 0;
                EXPECT_EQ(count, flagged);
                if (n > 5) {
                    EXPECT_EQ(flag[5], 0.0f); // NaN coordinate
                }
                for (simd::Level level : levels) {
                    SCOPED_TRACE(simd::levelName(level));
                    std::vector<float> d2(n, 7.0f), f2(n, 7.0f),
                        i2(n, -7.0f);
                    EXPECT_EQ(simd::table(level).lut_gate(
                                  gate, ex.data(), ey.data(), n, d2.data(),
                                  f2.data(),
                                  with_inner ? i2.data() : nullptr),
                              count);
                    EXPECT_EQ(0, std::memcmp(delta.data(), d2.data(),
                                             n * sizeof(float)))
                        << "n=" << n << " ip=" << ip;
                    EXPECT_EQ(0, std::memcmp(flag.data(), f2.data(),
                                             n * sizeof(float)));
                    EXPECT_EQ(0, std::memcmp(inner.data(), i2.data(),
                                             n * sizeof(float)));
                }
            }
        }
    }
}

TEST(Simd, LevelKnobsRoundTrip)
{
    LevelGuard guard;
    EXPECT_EQ(simd::parseLevel("scalar"), simd::Level::kScalar);
    EXPECT_EQ(simd::parseLevel(""), simd::bestSupported());
    EXPECT_EQ(simd::parseLevel("auto"), simd::bestSupported());
    EXPECT_EQ(simd::parseLevel(nullptr), simd::bestSupported());
    // Unknown specs fall back to best-supported instead of silently
    // changing behaviour.
    EXPECT_EQ(simd::parseLevel("neon"), simd::bestSupported());
    // A supported-tier request resolves to that tier, or degrades to
    // the best level below it on hosts that lack the ISA.
    const simd::Level parsed512 = simd::parseLevel("avx512");
    if (simd::supported(simd::Level::kAvx512))
        EXPECT_EQ(parsed512, simd::Level::kAvx512);
    else
        EXPECT_LE(static_cast<int>(parsed512),
                  static_cast<int>(simd::bestSupported()));

    ASSERT_TRUE(simd::setLevel(simd::Level::kScalar));
    EXPECT_EQ(simd::level(), simd::Level::kScalar);
    EXPECT_STREQ(simd::active().name, "scalar");
    if (simd::supported(simd::Level::kAvx2)) {
        ASSERT_TRUE(simd::setLevel(simd::Level::kAvx2));
        EXPECT_EQ(simd::level(), simd::Level::kAvx2);
        EXPECT_STREQ(simd::active().name, "avx2");
    } else {
        EXPECT_FALSE(simd::setLevel(simd::Level::kAvx2));
        EXPECT_EQ(simd::level(), simd::Level::kScalar);
    }
}

Dataset
simdDataset()
{
    SyntheticSpec spec;
    spec.kind = DatasetKind::kDeepLike;
    spec.num_points = 500;
    spec.num_queries = 15;
    spec.dim = 8;
    spec.seed = 777;
    return makeDataset(spec);
}

std::vector<std::vector<idx_t>>
idsOf(const SearchResults &results)
{
    std::vector<std::vector<idx_t>> ids(results.size());
    for (std::size_t q = 0; q < results.size(); ++q)
        for (const auto &nb : results[q])
            ids[q].push_back(nb.id);
    return ids;
}

TEST(Simd, FlatTopKIdsIdenticalAcrossLevels)
{
    if (!simd::supported(simd::Level::kAvx2))
        GTEST_SKIP() << "host has no AVX2; nothing to compare";
    LevelGuard guard;
    const auto ds = simdDataset();
    FlatIndex index(ds.metric, ds.base.view());

    ASSERT_TRUE(simd::setLevel(simd::Level::kScalar));
    const auto scalar_ids = idsOf(index.search(ds.queries.view(), 10));
    ASSERT_TRUE(simd::setLevel(simd::Level::kAvx2));
    const auto avx2_ids = idsOf(index.search(ds.queries.view(), 10));
    EXPECT_EQ(scalar_ids, avx2_ids);
}

TEST(Simd, IvfPqTopKIdsIdenticalAcrossLevels)
{
    if (!simd::supported(simd::Level::kAvx2))
        GTEST_SKIP() << "host has no AVX2; nothing to compare";
    LevelGuard guard;
    const auto ds = simdDataset();
    IvfPqIndex::Params params;
    params.clusters = 16;
    params.pq_subspaces = 4;
    params.pq_entries = 32;
    params.nprobs = 4;
    // Build once (under the guard's saved level), then search the same
    // trained index under both dispatch levels.
    IvfPqIndex index(ds.metric, ds.base.view(), params);

    ASSERT_TRUE(simd::setLevel(simd::Level::kScalar));
    const auto scalar_ids = idsOf(index.search(ds.queries.view(), 10));
    ASSERT_TRUE(simd::setLevel(simd::Level::kAvx2));
    const auto avx2_ids = idsOf(index.search(ds.queries.view(), 10));
    EXPECT_EQ(scalar_ids, avx2_ids);
    // The widest supported tier (AVX-512 ADC gather when present)
    // must agree as well.
    ASSERT_TRUE(simd::setLevel(simd::bestSupported()));
    const auto best_ids = idsOf(index.search(ds.queries.view(), 10));
    EXPECT_EQ(scalar_ids, best_ids);
}

} // namespace
} // namespace juno
