/**
 * @file
 * Distance-calculation stage over the gate LUT (paper Sec. 5.3-5.4).
 *
 * Given the entries the selective-LUT stage selected, the calculator
 * accumulates scores for the points of each probed cluster. Three
 * scoring modes implement the paper's quality presets:
 *
 *  - kExactDistance (JUNO-H): accumulate the per-subspace scores;
 *    subspaces where a point's entry was not selected are charged the
 *    gate-boundary miss score.
 *  - kHitCount (JUNO-L): score = number of subspaces whose entry was
 *    selected; no floating-point distance at all.
 *  - kRewardPenalty (JUNO-M): +1 if the inner (half) gate also
 *    passed, 0 if only the outer, -1 if neither (Fig. 11(b) blue
 *    triangles).
 */
#ifndef JUNO_CORE_DISTANCE_CALC_H
#define JUNO_CORE_DISTANCE_CALC_H

#include <vector>

#include "common/topk.h"
#include "core/interest_index.h"
#include "core/selective_lut.h"
#include "quant/interleaved_codes.h"

namespace juno {

/** Scoring mode; selects the JUNO-H/M/L behaviour. */
enum class SearchMode {
    kExactDistance,
    kHitCount,
    kRewardPenalty,
};

/** Short preset name ("JUNO-H" etc.) for reports. */
const char *searchModeName(SearchMode mode);

/** Accumulates gate-LUT scores into a top-k per query. */
class DistanceCalculator {
  public:
    /**
     * @p ivf, @p interest and @p interleaved (the list-resident
     * layout of the same codes) must outlive the calculator. Clusters
     * whose selected-entry fraction reaches the dense threshold are
     * scored by streaming the interleaved codes against the gate
     * LUT's planes; the rest walk the interest-index ranges of the
     * flagged entries point by scattered point. Both paths produce
     * bitwise-identical accumulators (one add per selected subspace,
     * in subspace order; unselected cells add an exact 0.0f in the
     * dense path).
     */
    DistanceCalculator(const InvertedFileIndex &ivf,
                       const InterestIndex &interest,
                       const InterleavedLists &interleaved);

    /**
     * Selected-entry fraction above which a cluster switches to the
     * dense interleaved scan: the sparse walk touches ~fraction * S
     * scattered ordinals per point, the dense scan S sequential
     * lookups. 0 forces dense (tests), > 1 disables it.
     */
    void setDenseThreshold(double fraction)
    {
        dense_threshold_ = fraction;
    }
    double denseThreshold() const { return dense_threshold_; }

    /**
     * Scores the points of the probed clusters and returns the best-k.
     *
     * In kExactDistance mode results carry approximate distances under
     * @p metric; in the hit-count modes results carry counts (higher
     * is better regardless of metric).
     */
    std::vector<Neighbor> run(Metric metric, SearchMode mode,
                              const std::vector<Neighbor> &probes,
                              const GateLut &lut, idx_t k);

    /**
     * Per-point scores of one cluster (for the Fig. 11(b) correlation
     * bench): returns pairs of (point id, score) for every point of
     * @p probe_ordinal's cluster that was touched at least once.
     */
    std::vector<Neighbor> scoreCluster(Metric metric, SearchMode mode,
                                       const std::vector<Neighbor> &probes,
                                       std::size_t probe_ordinal,
                                       const GateLut &lut);

  private:
    /** Accumulates one cluster into scratch; appends to @p out. */
    void accumulateCluster(Metric metric, SearchMode mode,
                           const std::vector<Neighbor> &probes,
                           std::size_t probe_ordinal, const GateLut &lut,
                           std::vector<Neighbor> &out);

    const InvertedFileIndex &ivf_;
    const InterestIndex &interest_;
    const InterleavedLists &interleaved_;
    double dense_threshold_ = 0.5;

    // Scratch sized to the largest cluster; densely reset per cluster.
    std::vector<float> acc_;
    std::vector<std::int32_t> hit_count_;
    // Dense-path hit counts: the interleaved kernel accumulates floats
    // (sums of 0/1 flags are exact).
    std::vector<float> flag_acc_;
};

} // namespace juno

#endif // JUNO_CORE_DISTANCE_CALC_H
