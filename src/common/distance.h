/**
 * @file
 * Scalar distance kernels (Equ. 2.1 of the paper) plus the batch forms
 * used by the filtering stage, including the decomposition
 * ||x - q||^2 = ||x||^2 - 2<x,q> + ||q||^2 that the paper maps onto
 * Tensor cores (Sec. 5.3); here it becomes a tiled CPU matmul.
 */
#ifndef JUNO_COMMON_DISTANCE_H
#define JUNO_COMMON_DISTANCE_H

#include <vector>

#include "common/matrix.h"
#include "common/types.h"

namespace juno {

/** Squared L2 distance between two D-dimensional vectors. */
float l2Sqr(const float *a, const float *b, idx_t d);

/** Inner product between two D-dimensional vectors. */
float innerProduct(const float *a, const float *b, idx_t d);

/** Squared L2 norm of a vector. */
float l2NormSqr(const float *a, idx_t d);

/**
 * Score under @p metric: squared L2 (lower better) or inner product
 * (higher better).
 */
float score(Metric metric, const float *a, const float *b, idx_t d);

/**
 * Pairwise scores between @p queries (Q x D) and @p points (N x D),
 * written to @p out (Q x N). This is the filtering-stage kernel
 * (query vs. IVF centroids).
 *
 * For L2 uses the norm decomposition with precomputable point norms:
 * pass @p point_norms_sqr (size N) to skip recomputing ||x||^2, or an
 * empty span to compute on the fly.
 */
void pairwiseScores(Metric metric, FloatMatrixView queries,
                    FloatMatrixView points,
                    const std::vector<float> &point_norms_sqr,
                    FloatMatrix &out);

/** Precomputes ||x||^2 for every row of @p points. */
std::vector<float> rowNormsSqr(FloatMatrixView points);

/**
 * Tiled GEMM C = A * B with A (M x K) row-major, B (K x N) row-major.
 * Stands in for the cuBLAS/Tensor-core path of the paper.
 */
void gemm(FloatMatrixView a, FloatMatrixView b, FloatMatrix &c);

} // namespace juno

#endif // JUNO_COMMON_DISTANCE_H
