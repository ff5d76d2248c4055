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
    const std::size_t lut_sz =
        static_cast<std::size_t>(interest.numSubspaces()) *
        static_cast<std::size_t>(interest.entries());
    delta_lut_.assign(lut_sz, 0.0f);
    flag_lut_.assign(lut_sz, 0.0f);
}

void
DistanceCalculator::accumulateCluster(Metric metric, SearchMode mode,
                                      const std::vector<Neighbor> &probes,
                                      std::size_t probe_ordinal,
                                      const SparseLut &lut,
                                      std::vector<Neighbor> &out)
{
    const cluster_t c =
        static_cast<cluster_t>(probes[probe_ordinal].id);
    const auto &list = ivf_.list(c);
    if (list.empty())
        return;
    const int subspaces = interest_.numSubspaces();
    const auto &hits = lut.forProbe(probe_ordinal);
    const std::size_t n = list.size();

    const bool exact = mode == SearchMode::kExactDistance;
    const auto deltaOf = [&](const LutHit &lh, float miss) {
        if (exact) {
            // Store value - miss so the final score is simply
            // acc + sum_of_misses, regardless of which subspaces
            // hit (misses vary per subspace).
            return lh.value - miss;
        }
        if (mode == SearchMode::kHitCount)
            return 1.0f;
        // Reward/penalty: +1 inner, 0 outer-only, -1 miss,
        // encoded as acc += (inner ? 2 : 1), final -= S.
        return lh.inner ? 2.0f : 1.0f;
    };

    // Dense regime detection: when most entries were selected, the
    // sparse interest-index walk degenerates into scattered writes
    // over nearly every (point, subspace) pair; expanding the hits
    // into a dense delta LUT and streaming the cluster's interleaved
    // codes does the same adds sequentially and SIMD-wide.
    std::size_t selected = 0;
    for (int s = 0; s < subspaces; ++s)
        selected += hits[static_cast<std::size_t>(s)].size();
    const int entries = interest_.entries();
    const bool dense =
        static_cast<double>(selected) >=
            dense_threshold_ * static_cast<double>(subspaces) *
                static_cast<double>(entries);

    if (dense) {
        // Expand the sparse hits into delta/flag LUTs, then stream the
        // list-resident interleaved codes once per LUT. Per point this
        // performs one add per subspace in subspace order — bitwise
        // identical to the sparse walk (unselected entries contribute
        // an exact 0.0f, which cannot change any partial sum).
        // In hit-count mode every delta is 1.0f, so the delta scan IS
        // the flag scan; skip the second pass.
        const bool counts_equal_acc = mode == SearchMode::kHitCount;
        const auto stride = static_cast<std::size_t>(entries);
        std::fill_n(delta_lut_.begin(),
                    static_cast<std::size_t>(subspaces) * stride, 0.0f);
        if (!counts_equal_acc)
            std::fill_n(flag_lut_.begin(),
                        static_cast<std::size_t>(subspaces) * stride,
                        0.0f);
        for (int s = 0; s < subspaces; ++s) {
            const float miss = lut.missFor(probe_ordinal, s);
            for (const LutHit &lh : hits[static_cast<std::size_t>(s)]) {
                const std::size_t cell =
                    static_cast<std::size_t>(s) * stride + lh.entry;
                delta_lut_[cell] = deltaOf(lh, miss);
                if (!counts_equal_acc)
                    flag_lut_[cell] = 1.0f;
            }
        }
        const entry_t *blocks = interleaved_.listBlocks(c);
        simd::adcScanInterleaved(delta_lut_.data(),
                                 static_cast<idx_t>(entries), subspaces,
                                 blocks, n, 0.0f, acc_.data());
        if (!counts_equal_acc)
            simd::adcScanInterleaved(flag_lut_.data(),
                                     static_cast<idx_t>(entries),
                                     subspaces, blocks, n, 0.0f,
                                     flag_acc_.data());
        const float *counts =
            counts_equal_acc ? acc_.data() : flag_acc_.data();
        for (std::size_t i = 0; i < n; ++i)
            hit_count_[i] = static_cast<std::int32_t>(counts[i]);
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
            const float miss = lut.missFor(probe_ordinal, s);
            for (const LutHit &lh : hits[static_cast<std::size_t>(s)]) {
                const auto range = interest_.lookup(c, s, lh.entry);
                const float delta = deltaOf(lh, miss);
                for (const std::uint32_t *it = range.begin;
                     it != range.end; ++it) {
                    const std::uint32_t ord = *it;
                    ++hit_count_[ord];
                    acc_[ord] += delta;
                }
            }
        }
    }

    // Finalise. Points never touched keep the paper's "large constant"
    // semantics by simply not becoming candidates.
    float offset = 0.0f;
    if (exact) {
        offset = lut.base[probe_ordinal];
        for (int s = 0; s < subspaces; ++s)
            offset += lut.missFor(probe_ordinal, s);
    } else if (mode == SearchMode::kRewardPenalty) {
        offset = -static_cast<float>(subspaces);
    }

    // Candidate compaction through the dispatch table: the AVX2 path
    // skips untouched ordinals eight at a time, which dominates under
    // the selective LUT's sparse hit pattern.
    simd::compactCandidates(acc_.data(), hit_count_.data(), list.data(), n,
                            offset, out);
    (void)metric;
}

std::vector<Neighbor>
DistanceCalculator::run(Metric metric, SearchMode mode,
                        const std::vector<Neighbor> &probes,
                        const SparseLut &lut, idx_t k)
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
                                 const SparseLut &lut)
{
    JUNO_REQUIRE(probe_ordinal < probes.size(), "probe ordinal range");
    std::vector<Neighbor> out;
    accumulateCluster(metric, mode, probes, probe_ordinal, lut, out);
    return out;
}

} // namespace juno
