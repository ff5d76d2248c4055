#include "core/distance_calc.h"

#include <algorithm>

#include "common/logging.h"
#include "common/simd.h"

namespace juno {

const char *
searchModeName(SearchMode mode)
{
    switch (mode) {
      case SearchMode::kExactDistance:
        return "JUNO-H";
      case SearchMode::kRewardPenalty:
        return "JUNO-M";
      case SearchMode::kHitCount:
        return "JUNO-L";
    }
    return "JUNO-?";
}

DistanceCalculator::DistanceCalculator(const InvertedFileIndex &ivf,
                                       const InterestIndex &interest,
                                       const InterleavedLists &interleaved)
    : ivf_(ivf), interest_(interest), interleaved_(interleaved)
{
    JUNO_REQUIRE(interest.built(), "interest index not built");
    JUNO_REQUIRE(interleaved.numLists() == ivf.numClusters(),
                 "interleaved layout does not match the IVF lists");
    const std::size_t scratch =
        static_cast<std::size_t>(interest.maxClusterSize());
    acc_.assign(scratch, 0.0f);
    hit_count_.assign(scratch, 0);
    flag_acc_.assign(scratch, 0.0f);
}

void
DistanceCalculator::accumulateCluster(Metric metric, SearchMode mode,
                                      const std::vector<Neighbor> &probes,
                                      std::size_t probe_ordinal,
                                      const GateLut &lut,
                                      std::vector<Neighbor> &out)
{
    const cluster_t c =
        static_cast<cluster_t>(probes[probe_ordinal].id);
    const auto &list = ivf_.list(c);
    if (list.empty())
        return;
    const int subspaces = interest_.numSubspaces();
    const int entries = interest_.entries();
    JUNO_REQUIRE(lut.subspaces == subspaces && lut.entries == entries,
                 "gate LUT shape does not match the index");
    const std::size_t n = list.size();
    const float *delta = lut.deltaFor(probe_ordinal);
    const float *flag = lut.flagFor(probe_ordinal);
    // Without the inner plane every selected entry is outer-only.
    const float *inner = lut.innerFor(probe_ordinal);

    // Dense regime: when most entries were selected, the sparse
    // interest-index walk degenerates into scattered writes over
    // nearly every (point, subspace) pair; streaming the cluster's
    // interleaved codes against the gate LUT does the same adds
    // sequentially and SIMD-wide.
    const bool dense =
        static_cast<double>(lut.selectedFor(probe_ordinal)) >=
        dense_threshold_ * static_cast<double>(lut.cells());

    const float *acc = acc_.data();
    if (dense) {
        // Per point one add per subspace in subspace order — bitwise
        // identical to the sparse walk (unselected cells hold an exact
        // 0.0f, which cannot change any partial sum). Hit counts come
        // from the flag plane; JUNO-M's score is counts + inner counts
        // (small integers, exact in float).
        const entry_t *blocks = interleaved_.listBlocks(c);
        const auto scan = [&](const float *plane, float *dst) {
            simd::adcScanInterleaved(plane, static_cast<idx_t>(entries),
                                     subspaces, blocks, n, 0.0f, dst);
        };
        scan(flag, flag_acc_.data());
        if (mode == SearchMode::kExactDistance) {
            scan(delta, acc_.data());
        } else if (mode == SearchMode::kRewardPenalty && inner != nullptr) {
            scan(inner, acc_.data());
            for (std::size_t i = 0; i < n; ++i)
                acc_[i] += flag_acc_[i];
        } else {
            acc = flag_acc_.data();
        }
        for (std::size_t i = 0; i < n; ++i)
            hit_count_[i] = static_cast<std::int32_t>(flag_acc_[i]);
    } else {
        // Reset the per-ordinal scratch for this cluster; the dense
        // clear keeps the inner accumulation loop down to two
        // operations per (entry hit, point) pair, which is the
        // stage's critical path.
        std::fill_n(acc_.begin(), n, 0.0f);
        std::fill_n(hit_count_.begin(), n, 0);

        // Walk the selected entries subspace by subspace and
        // accumulate into the scratch (paper: "access the inverted
        // index to retrieve the search points whose entry is
        // matched").
        for (int s = 0; s < subspaces; ++s) {
            for (int e = 0; e < entries; ++e) {
                const std::size_t cell = lut.cell(s, static_cast<entry_t>(e));
                if (flag[cell] == 0.0f)
                    continue;
                float d = 1.0f; // JUNO-L
                if (mode == SearchMode::kExactDistance)
                    d = delta[cell];
                else if (mode == SearchMode::kRewardPenalty)
                    // +1 inner, 0 outer-only, -1 miss, encoded as
                    // acc += (inner ? 2 : 1), final -= S.
                    d = inner != nullptr && inner[cell] != 0.0f ? 2.0f
                                                                : 1.0f;
                const auto range =
                    interest_.lookup(c, s, static_cast<entry_t>(e));
                for (const std::uint32_t *it = range.begin;
                     it != range.end; ++it) {
                    const std::uint32_t ord = *it;
                    ++hit_count_[ord];
                    acc_[ord] += d;
                }
            }
        }
    }

    // Finalise. Points never touched keep the paper's "large constant"
    // semantics by simply not becoming candidates.
    float offset = 0.0f;
    if (mode == SearchMode::kExactDistance) {
        offset = lut.base[probe_ordinal];
        for (int s = 0; s < subspaces; ++s)
            offset += lut.missFor(probe_ordinal, s);
    } else if (mode == SearchMode::kRewardPenalty) {
        offset = -static_cast<float>(subspaces);
    }

    // Candidate compaction through the dispatch table: the AVX2 path
    // skips untouched ordinals eight at a time, which dominates under
    // the selective LUT's sparse hit pattern.
    simd::compactCandidates(acc, hit_count_.data(), list.data(), n, offset,
                            out);
    (void)metric;
}

std::vector<Neighbor>
DistanceCalculator::run(Metric metric, SearchMode mode,
                        const std::vector<Neighbor> &probes,
                        const GateLut &lut, idx_t k)
{
    JUNO_REQUIRE(k > 0, "k must be positive");
    std::vector<Neighbor> candidates;
    for (std::size_t p = 0; p < probes.size(); ++p)
        accumulateCluster(metric, mode, probes, p, lut, candidates);

    // Hit counts are higher-is-better under either metric.
    const Metric order = mode == SearchMode::kExactDistance
                             ? metric
                             : Metric::kInnerProduct;
    TopK top(k, order);
    for (const auto &cand : candidates)
        top.push(cand.id, cand.score);
    return top.take();
}

std::vector<Neighbor>
DistanceCalculator::scoreCluster(Metric metric, SearchMode mode,
                                 const std::vector<Neighbor> &probes,
                                 std::size_t probe_ordinal,
                                 const GateLut &lut)
{
    JUNO_REQUIRE(probe_ordinal < probes.size(), "probe ordinal range");
    std::vector<Neighbor> out;
    accumulateCluster(metric, mode, probes, probe_ordinal, lut, out);
    return out;
}

} // namespace juno
