#include "common/simd.h"

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <string>

#include "common/logging.h"

#if defined(__x86_64__) || defined(__i386__)
#define JUNO_SIMD_X86 1
#include <immintrin.h>
/** Compiles one function for AVX2+FMA without -mavx2 on the whole TU. */
#define JUNO_TARGET_AVX2 __attribute__((target("avx2,fma")))
/** Same for the AVX-512 subset the 16-wide ADC scans need. */
#define JUNO_TARGET_AVX512                                                  \
    __attribute__((target("avx512f,avx512bw,avx512vl,avx2,fma")))
#else
#define JUNO_SIMD_X86 0
#endif

namespace juno {
namespace simd {
namespace {

// ====================================================================
// Scalar reference table. Fixed accumulation order: four independent
// accumulators over 4-wide strips, combined as (a0+a1)+(a2+a3). This
// is the bit-exact contract every other table is tested against.
// ====================================================================

float
l2SqrScalar(const float *a, const float *b, idx_t d)
{
    float acc0 = 0, acc1 = 0, acc2 = 0, acc3 = 0;
    idx_t i = 0;
    for (; i + 4 <= d; i += 4) {
        const float d0 = a[i] - b[i];
        const float d1 = a[i + 1] - b[i + 1];
        const float d2 = a[i + 2] - b[i + 2];
        const float d3 = a[i + 3] - b[i + 3];
        acc0 += d0 * d0;
        acc1 += d1 * d1;
        acc2 += d2 * d2;
        acc3 += d3 * d3;
    }
    for (; i < d; ++i) {
        const float diff = a[i] - b[i];
        acc0 += diff * diff;
    }
    return (acc0 + acc1) + (acc2 + acc3);
}

float
innerProductScalar(const float *a, const float *b, idx_t d)
{
    float acc0 = 0, acc1 = 0, acc2 = 0, acc3 = 0;
    idx_t i = 0;
    for (; i + 4 <= d; i += 4) {
        acc0 += a[i] * b[i];
        acc1 += a[i + 1] * b[i + 1];
        acc2 += a[i + 2] * b[i + 2];
        acc3 += a[i + 3] * b[i + 3];
    }
    for (; i < d; ++i)
        acc0 += a[i] * b[i];
    return (acc0 + acc1) + (acc2 + acc3);
}

float
l2NormSqrScalar(const float *a, idx_t d)
{
    return innerProductScalar(a, a, d);
}

void
l2SqrBatchScalar(const float *q, const float *rows, idx_t n, idx_t d,
                 float *out)
{
    for (idx_t i = 0; i < n; ++i)
        out[i] = l2SqrScalar(q, rows + static_cast<std::size_t>(i) *
                                        static_cast<std::size_t>(d),
                             d);
}

void
innerProductBatchScalar(const float *q, const float *rows, idx_t n, idx_t d,
                        float *out)
{
    for (idx_t i = 0; i < n; ++i)
        out[i] = innerProductScalar(
            q,
            rows + static_cast<std::size_t>(i) * static_cast<std::size_t>(d),
            d);
}

void
gemmScalar(const float *a, const float *b, float *c, idx_t m, idx_t k,
           idx_t n)
{
    std::memset(c, 0,
                static_cast<std::size_t>(m) * static_cast<std::size_t>(n) *
                    sizeof(float));
    // i-k-j loop order: streams B rows, accumulates into C rows.
    for (idx_t i = 0; i < m; ++i) {
        const float *arow = a + static_cast<std::size_t>(i) *
                                    static_cast<std::size_t>(k);
        float *crow = c + static_cast<std::size_t>(i) *
                              static_cast<std::size_t>(n);
        for (idx_t kk = 0; kk < k; ++kk) {
            const float aik = arow[kk];
            if (aik == 0.0f)
                continue;
            const float *brow = b + static_cast<std::size_t>(kk) *
                                        static_cast<std::size_t>(n);
            for (idx_t j = 0; j < n; ++j)
                crow[j] += aik * brow[j];
        }
    }
}

void
adcScanInterleavedScalar(const float *lut, idx_t lut_stride, int subspaces,
                         const entry_t *blocks, std::size_t n, float base,
                         float *out)
{
    const auto stride = static_cast<std::size_t>(lut_stride);
    const std::size_t block_stride =
        32u * static_cast<std::size_t>(subspaces);
    for (std::size_t i = 0; i < n; ++i) {
        const entry_t *blk = blocks + (i / 32) * block_stride;
        const std::size_t j = i % 32;
        float acc = base;
        for (int s = 0; s < subspaces; ++s)
            acc += lut[static_cast<std::size_t>(s) * stride +
                       blk[static_cast<std::size_t>(s) * 32 + j]];
        out[i] = acc;
    }
}

void
fastScanPq4Scalar(const std::uint8_t *packed, int subspaces,
                  const std::uint8_t *lut, std::size_t n,
                  std::uint16_t *qsums)
{
    const std::size_t block_stride =
        16u * static_cast<std::size_t>(subspaces);
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint8_t *blk = packed + (i / 32) * block_stride;
        const std::size_t lane = i & 15;
        const bool high = (i % 32) >= 16;
        std::uint16_t acc = 0;
        for (int s = 0; s < subspaces; ++s) {
            const std::uint8_t byte =
                blk[static_cast<std::size_t>(s) * 16 + lane];
            const std::uint8_t code =
                high ? byte >> 4 : byte & 0x0F;
            acc = static_cast<std::uint16_t>(
                acc + lut[static_cast<std::size_t>(s) * 16 + code]);
        }
        qsums[i] = acc;
    }
}

void
compactCandidatesScalar(const float *acc, const std::int32_t *hits,
                        const idx_t *list, std::size_t n, float offset,
                        std::vector<Neighbor> &out)
{
    for (std::size_t i = 0; i < n; ++i) {
        if (hits[i] != 0)
            out.push_back({list[i], acc[i] + offset});
    }
}

/**
 * One gate cell; the scalar table and the SIMD tails share it, and
 * the SIMD bodies perform the same operations lane-wise.
 */
template <bool kIp>
inline bool
gateCell(const LutGate &g, float ex, float ey, float &delta, float &flag,
         float *inner)
{
    float score;
    if (kIp) {
        score = g.x * ex + g.y * ey;
    } else {
        const float dx = g.x - ex;
        const float dy = g.y - ey;
        score = dx * dx + dy * dy;
    }
    const bool in = kIp ? score >= g.limit : score <= g.limit;
    delta = in ? score - g.miss : 0.0f;
    flag = in ? 1.0f : 0.0f;
    if (inner != nullptr) {
        const bool in_inner =
            kIp ? score >= g.inner_limit : score <= g.inner_limit;
        *inner = in && in_inner ? 1.0f : 0.0f;
    }
    return in;
}

template <bool kIp>
std::size_t
lutGateTail(const LutGate &g, const float *ex, const float *ey,
            std::size_t begin, std::size_t n, float *delta, float *flag,
            float *inner)
{
    std::size_t selected = 0;
    for (std::size_t e = begin; e < n; ++e)
        selected += gateCell<kIp>(g, ex[e], ey[e], delta[e], flag[e],
                                  inner != nullptr ? inner + e : nullptr)
                        ? 1
                        : 0;
    return selected;
}

std::size_t
lutGateScalar(const LutGate &g, const float *ex, const float *ey,
              std::size_t n, float *delta, float *flag, float *inner)
{
    return g.inner_product
               ? lutGateTail<true>(g, ex, ey, 0, n, delta, flag, inner)
               : lutGateTail<false>(g, ex, ey, 0, n, delta, flag, inner);
}

const Kernels kScalarTable = {
    "scalar",
    &l2SqrScalar,
    &innerProductScalar,
    &l2NormSqrScalar,
    &l2SqrBatchScalar,
    &innerProductBatchScalar,
    &gemmScalar,
    &adcScanInterleavedScalar,
    &fastScanPq4Scalar,
    &compactCandidatesScalar,
    &lutGateScalar,
};

#if JUNO_SIMD_X86
// ====================================================================
// AVX2 + FMA table. Compiled with per-function target attributes so
// the library still builds and runs on pre-AVX2 hosts; the dispatch
// below only installs it after a CPUID check.
// ====================================================================

JUNO_TARGET_AVX2 inline float
hsum8(__m256 v)
{
    __m128 lo = _mm256_castps256_ps128(v);
    const __m128 hi = _mm256_extractf128_ps(v, 1);
    lo = _mm_add_ps(lo, hi);
    __m128 shuf = _mm_movehdup_ps(lo);
    __m128 sums = _mm_add_ps(lo, shuf);
    shuf = _mm_movehl_ps(shuf, sums);
    sums = _mm_add_ss(sums, shuf);
    return _mm_cvtss_f32(sums);
}

JUNO_TARGET_AVX2 float
l2SqrAvx2(const float *a, const float *b, idx_t d)
{
    __m256 acc0 = _mm256_setzero_ps();
    __m256 acc1 = _mm256_setzero_ps();
    idx_t i = 0;
    for (; i + 16 <= d; i += 16) {
        const __m256 d0 =
            _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
        const __m256 d1 = _mm256_sub_ps(_mm256_loadu_ps(a + i + 8),
                                        _mm256_loadu_ps(b + i + 8));
        acc0 = _mm256_fmadd_ps(d0, d0, acc0);
        acc1 = _mm256_fmadd_ps(d1, d1, acc1);
    }
    for (; i + 8 <= d; i += 8) {
        const __m256 d0 =
            _mm256_sub_ps(_mm256_loadu_ps(a + i), _mm256_loadu_ps(b + i));
        acc0 = _mm256_fmadd_ps(d0, d0, acc0);
    }
    float acc = hsum8(_mm256_add_ps(acc0, acc1));
    for (; i < d; ++i) {
        const float diff = a[i] - b[i];
        acc += diff * diff;
    }
    return acc;
}

JUNO_TARGET_AVX2 float
innerProductAvx2(const float *a, const float *b, idx_t d)
{
    __m256 acc0 = _mm256_setzero_ps();
    __m256 acc1 = _mm256_setzero_ps();
    idx_t i = 0;
    for (; i + 16 <= d; i += 16) {
        acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i),
                               _mm256_loadu_ps(b + i), acc0);
        acc1 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i + 8),
                               _mm256_loadu_ps(b + i + 8), acc1);
    }
    for (; i + 8 <= d; i += 8)
        acc0 = _mm256_fmadd_ps(_mm256_loadu_ps(a + i),
                               _mm256_loadu_ps(b + i), acc0);
    float acc = hsum8(_mm256_add_ps(acc0, acc1));
    for (; i < d; ++i)
        acc += a[i] * b[i];
    return acc;
}

JUNO_TARGET_AVX2 float
l2NormSqrAvx2(const float *a, idx_t d)
{
    return innerProductAvx2(a, a, d);
}

/**
 * Batched L2 over contiguous rows. d == 2 (JUNO's mandatory subspace
 * width) packs four rows per vector; the general path register-blocks
 * four rows so each query cacheline load is reused fourfold.
 */
JUNO_TARGET_AVX2 void
l2SqrBatchAvx2(const float *q, const float *rows, idx_t n, idx_t d,
               float *out)
{
    idx_t i = 0;
    if (d == 2) {
        const __m256 qq = _mm256_setr_ps(q[0], q[1], q[0], q[1], q[0], q[1],
                                         q[0], q[1]);
        const __m256i even =
            _mm256_setr_epi32(0, 2, 4, 6, 1, 3, 5, 7);
        for (; i + 4 <= n; i += 4) {
            const __m256 r = _mm256_loadu_ps(rows + 2 * i);
            const __m256 diff = _mm256_sub_ps(r, qq);
            const __m256 sq = _mm256_mul_ps(diff, diff);
            // Pair-sum: add the lane-swapped copy, keep even lanes.
            const __m256 sum = _mm256_add_ps(
                sq, _mm256_permute_ps(sq, 0xB1));
            const __m256 packed = _mm256_permutevar8x32_ps(sum, even);
            _mm_storeu_ps(out + i, _mm256_castps256_ps128(packed));
        }
        for (; i < n; ++i) {
            const float dx = rows[2 * i] - q[0];
            const float dy = rows[2 * i + 1] - q[1];
            out[i] = dx * dx + dy * dy;
        }
        return;
    }
    // Two-row register blocking; each row runs the *same* strip/tail
    // accumulation schedule as l2SqrAvx2, so a batch row is bitwise
    // identical to the single-pair kernel of this table (consumers mix
    // the two freely: brute-force scans batch, inverted lists do not).
    for (; i + 2 <= n; i += 2) {
        const float *r0 = rows + static_cast<std::size_t>(i) *
                                     static_cast<std::size_t>(d);
        const float *r1 = r0 + d;
        __m256 a00 = _mm256_setzero_ps(), a01 = _mm256_setzero_ps();
        __m256 a10 = _mm256_setzero_ps(), a11 = _mm256_setzero_ps();
        idx_t j = 0;
        for (; j + 16 <= d; j += 16) {
            const __m256 qv0 = _mm256_loadu_ps(q + j);
            const __m256 qv1 = _mm256_loadu_ps(q + j + 8);
            const __m256 d00 =
                _mm256_sub_ps(qv0, _mm256_loadu_ps(r0 + j));
            const __m256 d01 =
                _mm256_sub_ps(qv1, _mm256_loadu_ps(r0 + j + 8));
            const __m256 d10 =
                _mm256_sub_ps(qv0, _mm256_loadu_ps(r1 + j));
            const __m256 d11 =
                _mm256_sub_ps(qv1, _mm256_loadu_ps(r1 + j + 8));
            a00 = _mm256_fmadd_ps(d00, d00, a00);
            a01 = _mm256_fmadd_ps(d01, d01, a01);
            a10 = _mm256_fmadd_ps(d10, d10, a10);
            a11 = _mm256_fmadd_ps(d11, d11, a11);
        }
        for (; j + 8 <= d; j += 8) {
            const __m256 qv = _mm256_loadu_ps(q + j);
            const __m256 d00 =
                _mm256_sub_ps(qv, _mm256_loadu_ps(r0 + j));
            const __m256 d10 =
                _mm256_sub_ps(qv, _mm256_loadu_ps(r1 + j));
            a00 = _mm256_fmadd_ps(d00, d00, a00);
            a10 = _mm256_fmadd_ps(d10, d10, a10);
        }
        float s0 = hsum8(_mm256_add_ps(a00, a01));
        float s1 = hsum8(_mm256_add_ps(a10, a11));
        for (; j < d; ++j) {
            const float d0 = q[j] - r0[j];
            const float d1 = q[j] - r1[j];
            s0 += d0 * d0;
            s1 += d1 * d1;
        }
        out[i] = s0;
        out[i + 1] = s1;
    }
    for (; i < n; ++i)
        out[i] = l2SqrAvx2(q,
                           rows + static_cast<std::size_t>(i) *
                                      static_cast<std::size_t>(d),
                           d);
}

JUNO_TARGET_AVX2 void
innerProductBatchAvx2(const float *q, const float *rows, idx_t n, idx_t d,
                      float *out)
{
    idx_t i = 0;
    if (d == 2) {
        const __m256 qq = _mm256_setr_ps(q[0], q[1], q[0], q[1], q[0], q[1],
                                         q[0], q[1]);
        const __m256i even =
            _mm256_setr_epi32(0, 2, 4, 6, 1, 3, 5, 7);
        for (; i + 4 <= n; i += 4) {
            const __m256 prod =
                _mm256_mul_ps(_mm256_loadu_ps(rows + 2 * i), qq);
            const __m256 sum = _mm256_add_ps(
                prod, _mm256_permute_ps(prod, 0xB1));
            const __m256 packed = _mm256_permutevar8x32_ps(sum, even);
            _mm_storeu_ps(out + i, _mm256_castps256_ps128(packed));
        }
        for (; i < n; ++i)
            out[i] = rows[2 * i] * q[0] + rows[2 * i + 1] * q[1];
        return;
    }
    // Mirrors innerProductAvx2's accumulation schedule per row (see
    // the l2 batch kernel for why bitwise row equality matters).
    for (; i + 2 <= n; i += 2) {
        const float *r0 = rows + static_cast<std::size_t>(i) *
                                     static_cast<std::size_t>(d);
        const float *r1 = r0 + d;
        __m256 a00 = _mm256_setzero_ps(), a01 = _mm256_setzero_ps();
        __m256 a10 = _mm256_setzero_ps(), a11 = _mm256_setzero_ps();
        idx_t j = 0;
        for (; j + 16 <= d; j += 16) {
            const __m256 qv0 = _mm256_loadu_ps(q + j);
            const __m256 qv1 = _mm256_loadu_ps(q + j + 8);
            a00 = _mm256_fmadd_ps(qv0, _mm256_loadu_ps(r0 + j), a00);
            a01 = _mm256_fmadd_ps(qv1, _mm256_loadu_ps(r0 + j + 8), a01);
            a10 = _mm256_fmadd_ps(qv0, _mm256_loadu_ps(r1 + j), a10);
            a11 = _mm256_fmadd_ps(qv1, _mm256_loadu_ps(r1 + j + 8), a11);
        }
        for (; j + 8 <= d; j += 8) {
            const __m256 qv = _mm256_loadu_ps(q + j);
            a00 = _mm256_fmadd_ps(qv, _mm256_loadu_ps(r0 + j), a00);
            a10 = _mm256_fmadd_ps(qv, _mm256_loadu_ps(r1 + j), a10);
        }
        float s0 = hsum8(_mm256_add_ps(a00, a01));
        float s1 = hsum8(_mm256_add_ps(a10, a11));
        for (; j < d; ++j) {
            s0 += q[j] * r0[j];
            s1 += q[j] * r1[j];
        }
        out[i] = s0;
        out[i + 1] = s1;
    }
    for (; i < n; ++i)
        out[i] = innerProductAvx2(q,
                                  rows + static_cast<std::size_t>(i) *
                                             static_cast<std::size_t>(d),
                                  d);
}

/** 4x16 register-blocked FMA tile; B rows stream, C stays in registers. */
JUNO_TARGET_AVX2 void
gemmAvx2(const float *a, const float *b, float *c, idx_t m, idx_t k,
         idx_t n)
{
    const auto kk_sz = static_cast<std::size_t>(k);
    const auto n_sz = static_cast<std::size_t>(n);
    std::memset(c, 0, static_cast<std::size_t>(m) * n_sz * sizeof(float));
    idx_t i = 0;
    for (; i + 4 <= m; i += 4) {
        const float *a0 = a + static_cast<std::size_t>(i) * kk_sz;
        const float *a1 = a0 + kk_sz;
        const float *a2 = a1 + kk_sz;
        const float *a3 = a2 + kk_sz;
        float *c0 = c + static_cast<std::size_t>(i) * n_sz;
        float *c1 = c0 + n_sz;
        float *c2 = c1 + n_sz;
        float *c3 = c2 + n_sz;
        idx_t j = 0;
        for (; j + 16 <= n; j += 16) {
            __m256 v00 = _mm256_setzero_ps(), v01 = _mm256_setzero_ps();
            __m256 v10 = _mm256_setzero_ps(), v11 = _mm256_setzero_ps();
            __m256 v20 = _mm256_setzero_ps(), v21 = _mm256_setzero_ps();
            __m256 v30 = _mm256_setzero_ps(), v31 = _mm256_setzero_ps();
            for (idx_t kk = 0; kk < k; ++kk) {
                const float *brow =
                    b + static_cast<std::size_t>(kk) * n_sz + j;
                const __m256 b0 = _mm256_loadu_ps(brow);
                const __m256 b1 = _mm256_loadu_ps(brow + 8);
                const __m256 w0 = _mm256_set1_ps(a0[kk]);
                const __m256 w1 = _mm256_set1_ps(a1[kk]);
                const __m256 w2 = _mm256_set1_ps(a2[kk]);
                const __m256 w3 = _mm256_set1_ps(a3[kk]);
                v00 = _mm256_fmadd_ps(w0, b0, v00);
                v01 = _mm256_fmadd_ps(w0, b1, v01);
                v10 = _mm256_fmadd_ps(w1, b0, v10);
                v11 = _mm256_fmadd_ps(w1, b1, v11);
                v20 = _mm256_fmadd_ps(w2, b0, v20);
                v21 = _mm256_fmadd_ps(w2, b1, v21);
                v30 = _mm256_fmadd_ps(w3, b0, v30);
                v31 = _mm256_fmadd_ps(w3, b1, v31);
            }
            _mm256_storeu_ps(c0 + j, v00);
            _mm256_storeu_ps(c0 + j + 8, v01);
            _mm256_storeu_ps(c1 + j, v10);
            _mm256_storeu_ps(c1 + j + 8, v11);
            _mm256_storeu_ps(c2 + j, v20);
            _mm256_storeu_ps(c2 + j + 8, v21);
            _mm256_storeu_ps(c3 + j, v30);
            _mm256_storeu_ps(c3 + j + 8, v31);
        }
        for (; j < n; ++j) {
            float s0 = 0, s1 = 0, s2 = 0, s3 = 0;
            for (idx_t kk = 0; kk < k; ++kk) {
                const float bv = b[static_cast<std::size_t>(kk) * n_sz + j];
                s0 += a0[kk] * bv;
                s1 += a1[kk] * bv;
                s2 += a2[kk] * bv;
                s3 += a3[kk] * bv;
            }
            c0[j] = s0;
            c1[j] = s1;
            c2[j] = s2;
            c3[j] = s3;
        }
    }
    for (; i < m; ++i) {
        const float *arow = a + static_cast<std::size_t>(i) * kk_sz;
        float *crow = c + static_cast<std::size_t>(i) * n_sz;
        for (idx_t kk = 0; kk < k; ++kk) {
            const __m256 w = _mm256_set1_ps(arow[kk]);
            const float *brow = b + static_cast<std::size_t>(kk) * n_sz;
            idx_t j = 0;
            for (; j + 8 <= n; j += 8)
                _mm256_storeu_ps(
                    crow + j,
                    _mm256_fmadd_ps(w, _mm256_loadu_ps(brow + j),
                                    _mm256_loadu_ps(crow + j)));
            for (; j < n; ++j)
                crow[j] += arow[kk] * brow[j];
        }
    }
}

/**
 * Interleaved streaming scan: the subspace-major 32-point blocks put
 * the 8 LUT-gather indices of a step in one contiguous 128-bit load,
 * so the code stream is a pure sequential read with no per-point
 * transpose. Four accumulator chains (one per 8-point group of the
 * block) hide the gather+add latency. Per-point accumulation order
 * matches scalar exactly.
 */
JUNO_TARGET_AVX2 void
adcScanInterleavedAvx2(const float *lut, idx_t lut_stride, int subspaces,
                       const entry_t *blocks, std::size_t n, float base,
                       float *out)
{
    const auto stride = static_cast<std::size_t>(lut_stride);
    const std::size_t block_stride =
        32u * static_cast<std::size_t>(subspaces);
    std::size_t i = 0;
    for (; i + 32 <= n; i += 32) {
        const entry_t *blk = blocks + (i / 32) * block_stride;
        __m256 acc0 = _mm256_set1_ps(base);
        __m256 acc1 = _mm256_set1_ps(base);
        __m256 acc2 = _mm256_set1_ps(base);
        __m256 acc3 = _mm256_set1_ps(base);
        for (int s = 0; s < subspaces; ++s) {
            const float *lrow =
                lut + static_cast<std::size_t>(s) * stride;
            const entry_t *row = blk + static_cast<std::size_t>(s) * 32;
            const __m256i e0 = _mm256_cvtepu16_epi32(_mm_loadu_si128(
                reinterpret_cast<const __m128i *>(row)));
            const __m256i e1 = _mm256_cvtepu16_epi32(_mm_loadu_si128(
                reinterpret_cast<const __m128i *>(row + 8)));
            const __m256i e2 = _mm256_cvtepu16_epi32(_mm_loadu_si128(
                reinterpret_cast<const __m128i *>(row + 16)));
            const __m256i e3 = _mm256_cvtepu16_epi32(_mm_loadu_si128(
                reinterpret_cast<const __m128i *>(row + 24)));
            acc0 = _mm256_add_ps(acc0,
                                 _mm256_i32gather_ps(lrow, e0, 4));
            acc1 = _mm256_add_ps(acc1,
                                 _mm256_i32gather_ps(lrow, e1, 4));
            acc2 = _mm256_add_ps(acc2,
                                 _mm256_i32gather_ps(lrow, e2, 4));
            acc3 = _mm256_add_ps(acc3,
                                 _mm256_i32gather_ps(lrow, e3, 4));
        }
        _mm256_storeu_ps(out + i, acc0);
        _mm256_storeu_ps(out + i + 8, acc1);
        _mm256_storeu_ps(out + i + 16, acc2);
        _mm256_storeu_ps(out + i + 24, acc3);
    }
    if (i < n) {
        // Partial tail block: 8-wide groups, then per-point scalar
        // with the same per-point accumulation order.
        const entry_t *blk = blocks + (i / 32) * block_stride;
        const std::size_t rem = n - i;
        std::size_t j = 0;
        for (; j + 8 <= rem; j += 8) {
            __m256 acc = _mm256_set1_ps(base);
            for (int s = 0; s < subspaces; ++s) {
                const float *lrow =
                    lut + static_cast<std::size_t>(s) * stride;
                const __m256i ev =
                    _mm256_cvtepu16_epi32(_mm_loadu_si128(
                        reinterpret_cast<const __m128i *>(
                            blk + static_cast<std::size_t>(s) * 32 +
                            j)));
                acc = _mm256_add_ps(acc,
                                    _mm256_i32gather_ps(lrow, ev, 4));
            }
            _mm256_storeu_ps(out + i + j, acc);
        }
        for (; j < rem; ++j) {
            float acc = base;
            for (int s = 0; s < subspaces; ++s)
                acc += lut[static_cast<std::size_t>(s) * stride +
                           blk[static_cast<std::size_t>(s) * 32 + j]];
            out[i + j] = acc;
        }
    }
}

/**
 * 4-bit in-register fast scan: one 16-byte load yields the nibble
 * codes of all 32 points of a (block, subspace) pair, the u8 LUT row
 * is broadcast into both ymm lanes, and a single pshufb scores the
 * whole block. Scores accumulate into u16 even/odd lanes (no
 * overflow for subspaces <= 256) and are re-interleaved into point
 * order on store. Integer arithmetic throughout: results are
 * identical to the scalar reference bit for bit.
 */
JUNO_TARGET_AVX2 void
fastScanPq4Avx2(const std::uint8_t *packed, int subspaces,
                const std::uint8_t *lut, std::size_t n,
                std::uint16_t *qsums)
{
    const __m128i nib = _mm_set1_epi8(0x0F);
    const __m256i byte_mask = _mm256_set1_epi16(0x00FF);
    const std::size_t block_stride =
        16u * static_cast<std::size_t>(subspaces);
    for (std::size_t i = 0; i < n; i += 32) {
        const std::uint8_t *blk = packed + (i / 32) * block_stride;
        __m256i acc_even = _mm256_setzero_si256();
        __m256i acc_odd = _mm256_setzero_si256();
        for (int s = 0; s < subspaces; ++s) {
            const __m128i raw = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(
                    blk + static_cast<std::size_t>(s) * 16));
            const __m256i lutv =
                _mm256_broadcastsi128_si256(_mm_loadu_si128(
                    reinterpret_cast<const __m128i *>(
                        lut + static_cast<std::size_t>(s) * 16)));
            const __m128i lo = _mm_and_si128(raw, nib);
            const __m128i hi =
                _mm_and_si128(_mm_srli_epi16(raw, 4), nib);
            // Lane 0 indexes points 0-15, lane 1 points 16-31; pshufb
            // shuffles each lane against the same 16-byte LUT row.
            const __m256i scores = _mm256_shuffle_epi8(
                lutv, _mm256_set_m128i(hi, lo));
            acc_even = _mm256_add_epi16(
                acc_even, _mm256_and_si256(scores, byte_mask));
            acc_odd = _mm256_add_epi16(acc_odd,
                                       _mm256_srli_epi16(scores, 8));
        }
        // acc_even u16 lanes hold even-numbered points of each 16-point
        // half, acc_odd the odd ones; unpack restores point order.
        const __m256i lo16 = _mm256_unpacklo_epi16(acc_even, acc_odd);
        const __m256i hi16 = _mm256_unpackhi_epi16(acc_even, acc_odd);
        const __m256i q0 = _mm256_permute2x128_si256(lo16, hi16, 0x20);
        const __m256i q1 = _mm256_permute2x128_si256(lo16, hi16, 0x31);
        if (i + 32 <= n) {
            _mm256_storeu_si256(
                reinterpret_cast<__m256i *>(qsums + i), q0);
            _mm256_storeu_si256(
                reinterpret_cast<__m256i *>(qsums + i + 16), q1);
        } else {
            alignas(32) std::uint16_t tmp[32];
            _mm256_store_si256(reinterpret_cast<__m256i *>(tmp), q0);
            _mm256_store_si256(reinterpret_cast<__m256i *>(tmp + 16),
                               q1);
            std::memcpy(qsums + i, tmp,
                        (n - i) * sizeof(std::uint16_t));
        }
    }
}

/** Skips blocks of 8 untouched ordinals with one compare+movemask. */
JUNO_TARGET_AVX2 void
compactCandidatesAvx2(const float *acc, const std::int32_t *hits,
                      const idx_t *list, std::size_t n, float offset,
                      std::vector<Neighbor> &out)
{
    const __m256i zero = _mm256_setzero_si256();
    std::size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256i h = _mm256_loadu_si256(
            reinterpret_cast<const __m256i *>(hits + i));
        const int zero_mask = _mm256_movemask_ps(
            _mm256_castsi256_ps(_mm256_cmpeq_epi32(h, zero)));
        unsigned live = static_cast<unsigned>(~zero_mask) & 0xFFu;
        while (live != 0) {
            const unsigned lane =
                static_cast<unsigned>(__builtin_ctz(live));
            live &= live - 1;
            out.push_back({list[i + lane], acc[i + lane] + offset});
        }
    }
    for (; i < n; ++i) {
        if (hits[i] != 0)
            out.push_back({list[i], acc[i] + offset});
    }
}

/** Eight gate cells per step: the lane-wise gateCell(). */
template <bool kIp>
JUNO_TARGET_AVX2 std::size_t
lutGateAvx2Impl(const LutGate &g, const float *ex, const float *ey,
                std::size_t n, float *delta, float *flag, float *inner)
{
    const __m256 x = _mm256_set1_ps(g.x);
    const __m256 y = _mm256_set1_ps(g.y);
    const __m256 limit = _mm256_set1_ps(g.limit);
    const __m256 inner_limit = _mm256_set1_ps(g.inner_limit);
    const __m256 miss = _mm256_set1_ps(g.miss);
    const __m256 one = _mm256_set1_ps(1.0f);
    constexpr int kCmp = kIp ? _CMP_GE_OQ : _CMP_LE_OQ;
    std::size_t selected = 0;
    std::size_t e = 0;
    for (; e + 8 <= n; e += 8) {
        const __m256 vx = _mm256_loadu_ps(ex + e);
        const __m256 vy = _mm256_loadu_ps(ey + e);
        __m256 score;
        if (kIp) {
            score = _mm256_add_ps(_mm256_mul_ps(x, vx),
                                  _mm256_mul_ps(y, vy));
        } else {
            const __m256 dx = _mm256_sub_ps(x, vx);
            const __m256 dy = _mm256_sub_ps(y, vy);
            score = _mm256_add_ps(_mm256_mul_ps(dx, dx),
                                  _mm256_mul_ps(dy, dy));
        }
        const __m256 in = _mm256_cmp_ps(score, limit, kCmp);
        _mm256_storeu_ps(delta + e,
                         _mm256_and_ps(in, _mm256_sub_ps(score, miss)));
        _mm256_storeu_ps(flag + e, _mm256_and_ps(in, one));
        if (inner != nullptr) {
            const __m256 in_inner = _mm256_and_ps(
                in, _mm256_cmp_ps(score, inner_limit, kCmp));
            _mm256_storeu_ps(inner + e, _mm256_and_ps(in_inner, one));
        }
        selected += static_cast<std::size_t>(
            __builtin_popcount(static_cast<unsigned>(
                _mm256_movemask_ps(in))));
    }
    return selected + lutGateTail<kIp>(g, ex, ey, e, n, delta, flag, inner);
}

JUNO_TARGET_AVX2 std::size_t
lutGateAvx2(const LutGate &g, const float *ex, const float *ey,
            std::size_t n, float *delta, float *flag, float *inner)
{
    return g.inner_product
               ? lutGateAvx2Impl<true>(g, ex, ey, n, delta, flag, inner)
               : lutGateAvx2Impl<false>(g, ex, ey, n, delta, flag, inner);
}

const Kernels kAvx2Table = {
    "avx2",
    &l2SqrAvx2,
    &innerProductAvx2,
    &l2NormSqrAvx2,
    &l2SqrBatchAvx2,
    &innerProductBatchAvx2,
    &gemmAvx2,
    &adcScanInterleavedAvx2,
    &fastScanPq4Avx2,
    &compactCandidatesAvx2,
    &lutGateAvx2,
};

/**
 * Interleaved streaming scan, 16 points per gather: the block layout
 * feeds each 16-wide gather's indices with one 256-bit load, and two
 * independent chains cover a whole 32-point block per subspace step.
 */
JUNO_TARGET_AVX512 void
adcScanInterleavedAvx512(const float *lut, idx_t lut_stride,
                         int subspaces, const entry_t *blocks,
                         std::size_t n, float base, float *out)
{
    const auto stride = static_cast<std::size_t>(lut_stride);
    const std::size_t block_stride =
        32u * static_cast<std::size_t>(subspaces);
    std::size_t i = 0;
    for (; i + 32 <= n; i += 32) {
        const entry_t *blk = blocks + (i / 32) * block_stride;
        __m512 acc0 = _mm512_set1_ps(base);
        __m512 acc1 = _mm512_set1_ps(base);
        for (int s = 0; s < subspaces; ++s) {
            const float *lrow =
                lut + static_cast<std::size_t>(s) * stride;
            const entry_t *row = blk + static_cast<std::size_t>(s) * 32;
            const __m512i e0 = _mm512_maskz_cvtepu16_epi32(
                static_cast<__mmask16>(-1),
                _mm256_loadu_si256(
                    reinterpret_cast<const __m256i *>(row)));
            const __m512i e1 = _mm512_maskz_cvtepu16_epi32(
                static_cast<__mmask16>(-1),
                _mm256_loadu_si256(
                    reinterpret_cast<const __m256i *>(row + 16)));
            acc0 = _mm512_add_ps(
                acc0, _mm512_mask_i32gather_ps(_mm512_setzero_ps(),
                                               0xFFFF, e0, lrow, 4));
            acc1 = _mm512_add_ps(
                acc1, _mm512_mask_i32gather_ps(_mm512_setzero_ps(),
                                               0xFFFF, e1, lrow, 4));
        }
        _mm512_storeu_ps(out + i, acc0);
        _mm512_storeu_ps(out + i + 16, acc1);
    }
    if (i < n)
        // i is block-aligned, so the AVX2 path sees a fresh block.
        adcScanInterleavedAvx2(lut, lut_stride, subspaces,
                               blocks + (i / 32) * block_stride, n - i,
                               base, out + i);
}

/**
 * 4-bit fast scan over two blocks (64 points) per step: the four
 * 128-bit lanes of the 512-bit shuffle hold both nibble halves of
 * both blocks against the same broadcast LUT row.
 */
JUNO_TARGET_AVX512 void
fastScanPq4Avx512(const std::uint8_t *packed, int subspaces,
                  const std::uint8_t *lut, std::size_t n,
                  std::uint16_t *qsums)
{
    const __m128i nib = _mm_set1_epi8(0x0F);
    const __m512i byte_mask = _mm512_set1_epi16(0x00FF);
    // Restore point order across the four 128-bit lanes on store.
    const __m512i perm0 = _mm512_set_epi64(11, 10, 3, 2, 9, 8, 1, 0);
    const __m512i perm1 = _mm512_set_epi64(15, 14, 7, 6, 13, 12, 5, 4);
    const std::size_t block_stride =
        16u * static_cast<std::size_t>(subspaces);
    std::size_t i = 0;
    for (; i + 64 <= n; i += 64) {
        const std::uint8_t *b0 = packed + (i / 32) * block_stride;
        const std::uint8_t *b1 = b0 + block_stride;
        __m512i acc_even = _mm512_setzero_si512();
        __m512i acc_odd = _mm512_setzero_si512();
        for (int s = 0; s < subspaces; ++s) {
            const __m128i r0 = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(
                    b0 + static_cast<std::size_t>(s) * 16));
            const __m128i r1 = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(
                    b1 + static_cast<std::size_t>(s) * 16));
            const __m512i lutv = _mm512_maskz_broadcast_i32x4(
                static_cast<__mmask16>(-1),
                _mm_loadu_si128(reinterpret_cast<const __m128i *>(
                    lut + static_cast<std::size_t>(s) * 16)));
            const __m128i l0 = _mm_and_si128(r0, nib);
            const __m128i h0 =
                _mm_and_si128(_mm_srli_epi16(r0, 4), nib);
            const __m128i l1 = _mm_and_si128(r1, nib);
            const __m128i h1 =
                _mm_and_si128(_mm_srli_epi16(r1, 4), nib);
            const __m512i idx = _mm512_maskz_inserti64x4(
                static_cast<__mmask8>(-1),
                _mm512_maskz_inserti64x4(static_cast<__mmask8>(-1),
                                         _mm512_setzero_si512(),
                                         _mm256_set_m128i(h0, l0), 0),
                _mm256_set_m128i(h1, l1), 1);
            const __m512i scores = _mm512_shuffle_epi8(lutv, idx);
            acc_even = _mm512_add_epi16(
                acc_even, _mm512_and_si512(scores, byte_mask));
            acc_odd = _mm512_add_epi16(acc_odd,
                                       _mm512_srli_epi16(scores, 8));
        }
        const __m512i lo16 = _mm512_unpacklo_epi16(acc_even, acc_odd);
        const __m512i hi16 = _mm512_unpackhi_epi16(acc_even, acc_odd);
        _mm512_storeu_si512(
            qsums + i, _mm512_permutex2var_epi64(lo16, perm0, hi16));
        _mm512_storeu_si512(
            qsums + i + 32,
            _mm512_permutex2var_epi64(lo16, perm1, hi16));
    }
    if (i < n)
        fastScanPq4Avx2(packed + (i / 32) * block_stride, subspaces, lut,
                        n - i, qsums + i);
}

/** Sixteen gate cells per step, masks in k-registers. */
template <bool kIp>
JUNO_TARGET_AVX512 std::size_t
lutGateAvx512Impl(const LutGate &g, const float *ex, const float *ey,
                  std::size_t n, float *delta, float *flag, float *inner)
{
    const __m512 x = _mm512_set1_ps(g.x);
    const __m512 y = _mm512_set1_ps(g.y);
    const __m512 limit = _mm512_set1_ps(g.limit);
    const __m512 inner_limit = _mm512_set1_ps(g.inner_limit);
    const __m512 miss = _mm512_set1_ps(g.miss);
    const __m512 one = _mm512_set1_ps(1.0f);
    constexpr int kCmp = kIp ? _CMP_GE_OQ : _CMP_LE_OQ;
    std::size_t selected = 0;
    std::size_t e = 0;
    for (; e + 16 <= n; e += 16) {
        const __m512 vx = _mm512_loadu_ps(ex + e);
        const __m512 vy = _mm512_loadu_ps(ey + e);
        __m512 score;
        if (kIp) {
            score = _mm512_add_ps(_mm512_mul_ps(x, vx),
                                  _mm512_mul_ps(y, vy));
        } else {
            const __m512 dx = _mm512_sub_ps(x, vx);
            const __m512 dy = _mm512_sub_ps(y, vy);
            score = _mm512_add_ps(_mm512_mul_ps(dx, dx),
                                  _mm512_mul_ps(dy, dy));
        }
        const __mmask16 in = _mm512_cmp_ps_mask(score, limit, kCmp);
        _mm512_storeu_ps(delta + e,
                         _mm512_maskz_sub_ps(in, score, miss));
        _mm512_storeu_ps(flag + e, _mm512_maskz_mov_ps(in, one));
        if (inner != nullptr) {
            const __mmask16 in_inner =
                _mm512_mask_cmp_ps_mask(in, score, inner_limit, kCmp);
            _mm512_storeu_ps(inner + e,
                             _mm512_maskz_mov_ps(in_inner, one));
        }
        selected += static_cast<std::size_t>(
            __builtin_popcount(static_cast<unsigned>(in)));
    }
    return selected +
           lutGateAvx2Impl<kIp>(g, ex + e, ey + e, n - e, delta + e,
                                flag + e,
                                inner != nullptr ? inner + e : nullptr);
}

JUNO_TARGET_AVX512 std::size_t
lutGateAvx512(const LutGate &g, const float *ex, const float *ey,
              std::size_t n, float *delta, float *flag, float *inner)
{
    return g.inner_product
               ? lutGateAvx512Impl<true>(g, ex, ey, n, delta, flag, inner)
               : lutGateAvx512Impl<false>(g, ex, ey, n, delta, flag,
                                          inner);
}

/** AVX2 table with the wider ADC scan and gate kernels swapped in. */
const Kernels kAvx512Table = {
    "avx512",
    &l2SqrAvx2,
    &innerProductAvx2,
    &l2NormSqrAvx2,
    &l2SqrBatchAvx2,
    &innerProductBatchAvx2,
    &gemmAvx2,
    &adcScanInterleavedAvx512,
    &fastScanPq4Avx512,
    &compactCandidatesAvx2,
    &lutGateAvx512,
};
#endif // JUNO_SIMD_X86

std::atomic<const Kernels *> g_active{nullptr};

const Kernels *
selectInitial()
{
    const char *env = std::getenv("JUNO_SIMD");
    return &table(parseLevel(env));
}

} // namespace

void
adcGatherReference(const float *lut, idx_t lut_stride, int subspaces,
                   const entry_t *codes, std::size_t code_stride,
                   const idx_t *ids, std::size_t n, float base, float *out)
{
    for (std::size_t i = 0; i < n; ++i) {
        const entry_t *pc =
            codes + static_cast<std::size_t>(ids[i]) * code_stride;
        float acc = base;
        for (int s = 0; s < subspaces; ++s)
            acc += lut[static_cast<std::size_t>(s) *
                           static_cast<std::size_t>(lut_stride) +
                       pc[s]];
        out[i] = acc;
    }
}

bool
supported(Level lvl)
{
    switch (lvl) {
      case Level::kScalar:
        return true;
      case Level::kAvx2:
#if JUNO_SIMD_X86
        return __builtin_cpu_supports("avx2") &&
               __builtin_cpu_supports("fma");
#else
        return false;
#endif
      case Level::kAvx512:
#if JUNO_SIMD_X86
        return __builtin_cpu_supports("avx2") &&
               __builtin_cpu_supports("fma") &&
               __builtin_cpu_supports("avx512f") &&
               __builtin_cpu_supports("avx512bw") &&
               __builtin_cpu_supports("avx512vl");
#else
        return false;
#endif
    }
    return false;
}

Level
bestSupported()
{
    if (supported(Level::kAvx512))
        return Level::kAvx512;
    return supported(Level::kAvx2) ? Level::kAvx2 : Level::kScalar;
}

const Kernels &
table(Level lvl)
{
#if JUNO_SIMD_X86
    if (lvl == Level::kAvx512 && supported(Level::kAvx512))
        return kAvx512Table;
    if (lvl != Level::kScalar && supported(Level::kAvx2))
        return kAvx2Table;
#else
    (void)lvl;
#endif
    return kScalarTable;
}

const Kernels &
active()
{
    const Kernels *t = g_active.load(std::memory_order_acquire);
    if (t == nullptr) {
        // First use; a concurrent first use selects the same table, so
        // the race is benign.
        t = selectInitial();
        g_active.store(t, std::memory_order_release);
    }
    return *t;
}

Level
level()
{
    const Kernels *t = &active();
#if JUNO_SIMD_X86
    if (t == &kAvx512Table)
        return Level::kAvx512;
    if (t == &kAvx2Table)
        return Level::kAvx2;
#endif
    (void)t;
    return Level::kScalar;
}

bool
setLevel(Level lvl)
{
    if (!supported(lvl))
        return false;
    g_active.store(&table(lvl), std::memory_order_release);
    return true;
}

const char *
levelName(Level lvl)
{
    switch (lvl) {
      case Level::kScalar:
        return "scalar";
      case Level::kAvx2:
        return "avx2";
      case Level::kAvx512:
        return "avx512";
    }
    return "?";
}

Level
parseLevel(const char *spec)
{
    if (spec == nullptr || *spec == '\0')
        return bestSupported();
    const std::string s(spec);
    if (s == "auto")
        return bestSupported();
    if (s == "scalar")
        return Level::kScalar;
    if (s == "avx2" || s == "avx512") {
        const Level want =
            s == "avx2" ? Level::kAvx2 : Level::kAvx512;
        if (supported(want))
            return want;
        warn("JUNO_SIMD=" + s +
             " requested but this host does not support it; using "
             "best supported level");
        return std::min(bestSupported(), want);
    }
    warn("unknown JUNO_SIMD value '" + s +
         "' (expected scalar|avx2|avx512|auto); using best supported "
         "level");
    return bestSupported();
}

} // namespace simd
} // namespace juno
