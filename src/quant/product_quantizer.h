/**
 * @file
 * Product quantization (paper Sec. 2.1, steps 2-4).
 *
 * The D-dimensional space is split into D/M subspaces of M dimensions
 * each; within each subspace, E "second-level" clusters are trained on
 * residual projections and their centroids form the codebook. A point
 * is encoded as one entry id per subspace, compressing D floats to
 * (D/M)*log2(E) bits.
 *
 * JUNO's RT mapping requires M == 2 (spheres live in 2-D subspace
 * planes), but the quantizer itself supports any M dividing D so the
 * FAISS-style baseline can sweep PQ8..PQ64 configurations.
 */
#ifndef JUNO_QUANT_PRODUCT_QUANTIZER_H
#define JUNO_QUANT_PRODUCT_QUANTIZER_H

#include <memory>
#include <vector>

#include "cluster/kmeans.h"
#include "common/logging.h"
#include "common/matrix.h"
#include "common/serialize.h"
#include "common/topk.h"
#include "common/types.h"

namespace juno {

/** Training/encoding configuration. */
struct PQParams {
    /** Number of subspaces (the x in "PQx"); must divide dim. */
    int num_subspaces = 48;
    /** Codebook entries per subspace (E in the paper; <= 65536). */
    int entries = 256;
    /** k-means settings for per-subspace codebook training. */
    int max_iters = 20;
    std::uint64_t seed = 7;
    idx_t max_training_points = 0;
};

/**
 * PQ codes of a point set: row-major (N x num_subspaces) entry ids.
 * Usually owns its storage (`codes`); a snapshot opened in mmap mode
 * instead views the mapped code plane directly through adoptView(),
 * so every read path must go through data()/row(), never `codes`.
 */
struct PQCodes {
    idx_t num_points = 0;
    int num_subspaces = 0;
    std::vector<entry_t> codes;

    /** Total entry count (num_points * num_subspaces). */
    std::size_t
    count() const
    {
        return static_cast<std::size_t>(num_points) *
               static_cast<std::size_t>(num_subspaces);
    }

    const entry_t *
    data() const
    {
        return view_ != nullptr ? view_ : codes.data();
    }

    /** Views an external code plane kept alive by @p keepalive. */
    void
    adoptView(const entry_t *data, std::shared_ptr<const void> keepalive)
    {
        codes.clear();
        view_ = data;
        keepalive_ = std::move(keepalive);
    }

    const entry_t *
    row(idx_t p) const
    {
        JUNO_DCHECK(p >= 0 && p < num_points,
                    "point " << p << " of " << num_points);
        // Widen both factors before multiplying so the row offset is
        // computed in std::size_t, never in a narrower signed type.
        return data() + static_cast<std::size_t>(p) *
                            static_cast<std::size_t>(num_subspaces);
    }

    entry_t
    at(idx_t p, int s) const
    {
        JUNO_DCHECK(s >= 0 && s < num_subspaces,
                    "subspace " << s << " of " << num_subspaces);
        return row(p)[s];
    }

  private:
    const entry_t *view_ = nullptr;
    std::shared_ptr<const void> keepalive_;
};

/**
 * Per-subspace usage of @p entries codebook entries by a result list:
 * out[s][e] counts the @p neighbours whose code in subspace s is e
 * (the Fig. 3(b) heatmap row of one query).
 */
std::vector<std::vector<std::uint32_t>>
countEntryUsage(const PQCodes &codes, int entries,
                const std::vector<Neighbor> &neighbours);

/** Trained product quantizer. */
class ProductQuantizer {
  public:
    ProductQuantizer() = default;

    /**
     * Trains per-subspace codebooks on @p vectors (typically residuals
     * against the coarse centroids). @p dim must be divisible by
     * params.num_subspaces.
     */
    void train(FloatMatrixView vectors, const PQParams &params);

    bool trained() const { return !codebooks_.empty(); }
    int numSubspaces() const { return num_subspaces_; }
    int entries() const { return entries_; }
    /** Dimensions per subspace (M in the paper). */
    int subDim() const { return sub_dim_; }
    idx_t dim() const { return static_cast<idx_t>(num_subspaces_) * sub_dim_; }

    /** Codebook of subspace @p s: an (E x subDim) matrix. */
    const FloatMatrix &codebook(int s) const;

    /** Pointer to entry @p e of subspace @p s (subDim floats). */
    const float *entry(int s, entry_t e) const;

    /** Encodes every row of @p vectors. */
    PQCodes encode(FloatMatrixView vectors) const;

    /** Encodes a single vector into @p out (num_subspaces entries). */
    void encodeOne(const float *vec, entry_t *out) const;

    /**
     * Same, with caller-owned score scratch (grown to entries()
     * floats if smaller) so encode loops stay allocation-free.
     */
    void encodeOne(const float *vec, entry_t *out,
                   std::vector<float> &scores) const;

    /** Reconstructs a vector from its codes. */
    std::vector<float> decode(const entry_t *codes) const;

    /** Mean squared reconstruction error over @p vectors. */
    double reconstructionError(FloatMatrixView vectors) const;

    /**
     * Dense look-up table for one query vector: out[s][e] is the score
     * between the query's subspace-s projection and entry e. This is
     * the baseline's L2-LUT construction stage (paper stage C); JUNO
     * replaces it with the selective RT-core version.
     */
    void computeLut(Metric metric, const float *vec, FloatMatrix &out) const;

    /**
     * Accumulated score of an encoded point from a dense LUT:
     * sum over s of lut[s][code[s]] (paper stage D).
     */
    float
    lutScore(const FloatMatrix &lut, const entry_t *codes) const
    {
        float acc = 0.0f;
        for (int s = 0; s < num_subspaces_; ++s)
            acc += lut.at(s, codes[s]);
        return acc;
    }

    /** Serializes a trained quantizer. */
    void save(Writer &writer) const;

    /** Restores a trained quantizer (replaces current state). */
    void load(Reader &reader);

  private:
    int num_subspaces_ = 0;
    int entries_ = 0;
    int sub_dim_ = 0;
    /** One (E x subDim) codebook per subspace. */
    std::vector<FloatMatrix> codebooks_;
};

} // namespace juno

#endif // JUNO_QUANT_PRODUCT_QUANTIZER_H
