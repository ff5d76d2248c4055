#include "quant/product_quantizer.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/distance.h"
#include "common/logging.h"
#include "common/simd.h"

namespace juno {

void
ProductQuantizer::train(FloatMatrixView vectors, const PQParams &params)
{
    JUNO_REQUIRE(params.num_subspaces > 0, "num_subspaces must be positive");
    JUNO_REQUIRE(params.entries > 1 && params.entries <= 65536,
                 "entries must be in (1, 65536]");
    JUNO_REQUIRE(vectors.cols() % params.num_subspaces == 0,
                 "dim " << vectors.cols() << " not divisible by "
                        << params.num_subspaces << " subspaces");

    num_subspaces_ = params.num_subspaces;
    entries_ = params.entries;
    sub_dim_ = static_cast<int>(vectors.cols()) / num_subspaces_;
    codebooks_.clear();
    codebooks_.reserve(static_cast<std::size_t>(num_subspaces_));

    const idx_t n = vectors.rows();
    FloatMatrix proj(n, sub_dim_);
    for (int s = 0; s < num_subspaces_; ++s) {
        // Gather the subspace-s projection of every training vector.
        for (idx_t i = 0; i < n; ++i) {
            const float *src = vectors.row(i) + s * sub_dim_;
            std::copy_n(src, sub_dim_, proj.row(i));
        }
        KMeansParams km;
        km.clusters = entries_;
        km.max_iters = params.max_iters;
        km.seed = params.seed + static_cast<std::uint64_t>(s) * 7919;
        km.max_training_points = params.max_training_points;
        auto res = kmeans(proj.view(), km);
        codebooks_.push_back(std::move(res.centroids));
    }
}

const FloatMatrix &
ProductQuantizer::codebook(int s) const
{
    JUNO_ASSERT(s >= 0 && s < num_subspaces_, "subspace " << s);
    return codebooks_[static_cast<std::size_t>(s)];
}

const float *
ProductQuantizer::entry(int s, entry_t e) const
{
    return codebook(s).row(static_cast<idx_t>(e));
}

void
ProductQuantizer::encodeOne(const float *vec, entry_t *out) const
{
    std::vector<float> scores(static_cast<std::size_t>(entries_));
    encodeOne(vec, out, scores);
}

void
ProductQuantizer::encodeOne(const float *vec, entry_t *out,
                            std::vector<float> &scores) const
{
    JUNO_ASSERT(trained(), "encode before train");
    if (scores.size() < static_cast<std::size_t>(entries_))
        scores.resize(static_cast<std::size_t>(entries_));
    for (int s = 0; s < num_subspaces_; ++s) {
        const float *proj = vec + s * sub_dim_;
        const FloatMatrix &cb = codebooks_[static_cast<std::size_t>(s)];
        simd::active().l2_sqr_batch(proj, cb.data(), cb.rows(), sub_dim_,
                                    scores.data());
        float best = std::numeric_limits<float>::max();
        entry_t best_e = 0;
        for (idx_t e = 0; e < cb.rows(); ++e) {
            const float d2 = scores[static_cast<std::size_t>(e)];
            if (d2 < best) {
                best = d2;
                best_e = static_cast<entry_t>(e);
            }
        }
        out[s] = best_e;
    }
}

PQCodes
ProductQuantizer::encode(FloatMatrixView vectors) const
{
    JUNO_REQUIRE(vectors.cols() == dim(), "dimension mismatch");
    PQCodes codes;
    codes.num_points = vectors.rows();
    codes.num_subspaces = num_subspaces_;
    codes.codes.resize(static_cast<std::size_t>(vectors.rows()) *
                       static_cast<std::size_t>(num_subspaces_));
    std::vector<float> scores(static_cast<std::size_t>(entries_));
    for (idx_t i = 0; i < vectors.rows(); ++i)
        encodeOne(vectors.row(i),
                  codes.codes.data() +
                      static_cast<std::size_t>(i) *
                          static_cast<std::size_t>(num_subspaces_),
                  scores);
    return codes;
}

std::vector<float>
ProductQuantizer::decode(const entry_t *codes) const
{
    std::vector<float> out(static_cast<std::size_t>(dim()));
    for (int s = 0; s < num_subspaces_; ++s) {
        const float *e = entry(s, codes[s]);
        std::copy_n(e, sub_dim_, out.data() + s * sub_dim_);
    }
    return out;
}

double
ProductQuantizer::reconstructionError(FloatMatrixView vectors) const
{
    JUNO_REQUIRE(vectors.cols() == dim(), "dimension mismatch");
    std::vector<entry_t> codes(static_cast<std::size_t>(num_subspaces_));
    std::vector<float> scores(static_cast<std::size_t>(entries_));
    double total = 0.0;
    for (idx_t i = 0; i < vectors.rows(); ++i) {
        encodeOne(vectors.row(i), codes.data(), scores);
        const auto rec = decode(codes.data());
        total += static_cast<double>(
            l2Sqr(vectors.row(i), rec.data(), dim()));
    }
    return vectors.rows() ? total / static_cast<double>(vectors.rows())
                          : 0.0;
}

void
ProductQuantizer::save(Writer &writer) const
{
    JUNO_REQUIRE(trained(), "save before train");
    writer.writePod<std::int32_t>(num_subspaces_);
    writer.writePod<std::int32_t>(entries_);
    writer.writePod<std::int32_t>(sub_dim_);
    for (const auto &cb : codebooks_)
        writer.writeMatrix(cb.view());
}

void
ProductQuantizer::load(Reader &reader)
{
    num_subspaces_ = reader.readPod<std::int32_t>();
    entries_ = reader.readPod<std::int32_t>();
    sub_dim_ = reader.readPod<std::int32_t>();
    JUNO_REQUIRE(num_subspaces_ > 0 && entries_ > 1 && sub_dim_ > 0,
                 "corrupt product quantizer header");
    codebooks_.clear();
    codebooks_.reserve(static_cast<std::size_t>(num_subspaces_));
    for (int s = 0; s < num_subspaces_; ++s) {
        auto cb = reader.readMatrix();
        JUNO_REQUIRE(cb.rows() == entries_ && cb.cols() == sub_dim_,
                     "corrupt codebook shape");
        codebooks_.push_back(std::move(cb));
    }
}

void
ProductQuantizer::computeLut(Metric metric, const float *vec,
                             FloatMatrix &out) const
{
    JUNO_ASSERT(trained(), "computeLut before train");
    if (out.rows() != num_subspaces_ || out.cols() != entries_)
        out = FloatMatrix(num_subspaces_, entries_);
    // Each codebook is E contiguous subDim-rows: one batched-kernel
    // call scores the whole subspace (paper stage C, dense LUT).
    for (int s = 0; s < num_subspaces_; ++s) {
        const float *proj = vec + s * sub_dim_;
        const FloatMatrix &cb = codebooks_[static_cast<std::size_t>(s)];
        simd::scoreBatch(metric, proj, cb.data(), cb.rows(), sub_dim_,
                         out.row(s));
    }
}

std::vector<std::vector<std::uint32_t>>
countEntryUsage(const PQCodes &codes, int entries,
                const std::vector<Neighbor> &neighbours)
{
    std::vector<std::vector<std::uint32_t>> usage(
        static_cast<std::size_t>(codes.num_subspaces),
        std::vector<std::uint32_t>(static_cast<std::size_t>(entries), 0));
    for (const auto &nb : neighbours) {
        const entry_t *pc = codes.row(nb.id);
        for (int s = 0; s < codes.num_subspaces; ++s)
            ++usage[static_cast<std::size_t>(s)][pc[s]];
    }
    return usage;
}

} // namespace juno
