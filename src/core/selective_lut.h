/**
 * @file
 * Threshold-based selective LUT construction (paper Sec. 4.2, Alg. 2).
 *
 * For each probed cluster and each 2-D subspace, the gate selects the
 * codebook entries inside the dynamic threshold around the query's
 * (residual) projection and records their scores. The result is one
 * dense *gate LUT* per probe: M x E value cells plus selected and
 * inner flags, which the distance calculator streams directly.
 *
 * Three backends produce the same cells (LutBackend):
 *  - cpu (default): a SIMD distance-and-compare over the E entries of
 *    each (probe, subspace), the simd::Kernels lut_gate slot;
 *  - bvh: one ray per (probe, subspace) through the software BVH, tmax
 *    encoding the threshold and the any-hit shader recovering the
 *    score from thit without touching the sphere coordinates — the
 *    RT-core model whose traversal counters the paper figures price;
 *  - linear: the same rays against every sphere (OptiX's CUDA-core
 *    fallback on GPUs without RT cores).
 * The selected sets agree up to rounding at the gate boundary; scores
 * differ only in how they are rounded (direct d^2 vs recovered from
 * thit).
 */
#ifndef JUNO_CORE_SELECTIVE_LUT_H
#define JUNO_CORE_SELECTIVE_LUT_H

#include <string>
#include <vector>

#include "common/topk.h"
#include "core/scene_builder.h"
#include "core/threshold_policy.h"
#include "ivf/ivf.h"
#include "rtcore/device.h"

namespace juno {

/**
 * Producer of the gate LUT. The values are the snapshot meta byte
 * that once held "use RT core" (0 = linear fallback, 1 = BVH), so
 * older snapshots open on the backend they were written with.
 */
enum class LutBackend : std::uint8_t {
    kLinear = 0, ///< rays against every sphere (CUDA-core fallback)
    kBvh = 1,    ///< rays through the software BVH (RT-core model)
    kCpu = 2,    ///< dense SIMD gate (default)
};

/** Spec-key name of @p backend ("cpu", "bvh", "linear"). */
const char *lutBackendName(LutBackend backend);

/** Inverse of lutBackendName(); ConfigError on an unknown name. */
LutBackend parseLutBackend(const std::string &name);

/**
 * Dense per-query selective LUT. Slab p (one per probe, or a single
 * slab shared by all probes in inner-product mode, where the LUT does
 * not depend on the probed cluster) holds M x E cells, row-major by
 * subspace:
 *  - delta: score - miss for a selected entry, 0 otherwise, so the
 *    exact-distance sum over subspaces is one LUT scan plus the sum
 *    of the misses;
 *  - flag: 1 for a selected entry, 0 otherwise;
 *  - inner: 1 for a selected entry that also passes the half gate
 *    (JUNO-M), 0 otherwise; present only when has_inner.
 */
struct GateLut {
    int subspaces = 0;
    int entries = 0;
    bool shared_across_probes = false;
    bool has_inner = false;
    std::vector<float> delta;
    std::vector<float> flag;
    std::vector<float> inner;
    /** miss[slab * M + s]: score charged to an unselected entry. */
    std::vector<float> miss;
    /** selected[slab]: number of selected cells in the slab. */
    std::vector<std::size_t> selected;
    /** base[p]: cluster-level score offset (IP centroid term). */
    std::vector<float> base;

    std::size_t
    cells() const
    {
        return static_cast<std::size_t>(subspaces) *
               static_cast<std::size_t>(entries);
    }
    std::size_t slab(std::size_t p) const
    {
        return shared_across_probes ? 0 : p;
    }
    const float *deltaFor(std::size_t p) const
    {
        return delta.data() + slab(p) * cells();
    }
    const float *flagFor(std::size_t p) const
    {
        return flag.data() + slab(p) * cells();
    }
    /** nullptr when the inner gate was not built. */
    const float *innerFor(std::size_t p) const
    {
        return has_inner ? inner.data() + slab(p) * cells() : nullptr;
    }
    float missFor(std::size_t p, int s) const
    {
        return miss[slab(p) * static_cast<std::size_t>(subspaces) +
                    static_cast<std::size_t>(s)];
    }
    std::size_t selectedFor(std::size_t p) const
    {
        return selected[slab(p)];
    }

    // Cell accessors for analysis and tests.
    std::size_t
    cell(int s, entry_t e) const
    {
        return static_cast<std::size_t>(s) *
                   static_cast<std::size_t>(entries) +
               e;
    }
    bool isSelected(std::size_t p, int s, entry_t e) const
    {
        return flagFor(p)[cell(s, e)] != 0.0f;
    }
    bool isInner(std::size_t p, int s, entry_t e) const
    {
        return has_inner && innerFor(p)[cell(s, e)] != 0.0f;
    }
    /** Score of a selected cell (delta + miss, so within rounding). */
    float value(std::size_t p, int s, entry_t e) const
    {
        return deltaFor(p)[cell(s, e)] + missFor(p, s);
    }
};

/** Tuning of the selective construction. */
struct SelectiveLutParams {
    /** User scaling factor in [0, 1] (paper Fig. 7(b) knob). */
    double threshold_scale = 1.0;
    /**
     * Multiplier on the miss score: L2 misses are charged
     * (threshold * penalty)^2, IP misses get the floor value.
     */
    double miss_penalty = 1.0;
    /** Build the inner (half) gate plane (needed by JUNO-M). */
    bool inner_gate = true;
    LutBackend backend = LutBackend::kCpu;
};

/**
 * Builds gate LUTs. Every backend adds to the device's traversal
 * counters: the ray backends count their traversal; cpu counts one
 * ray per non-empty gate, E primitive tests per gate and one hit per
 * selected entry, with no node visits.
 */
class SelectiveLutBuilder {
  public:
    /** All referenced objects must outlive the builder. */
    SelectiveLutBuilder(const JunoScene &scene, const ThresholdPolicy &policy,
                        const InvertedFileIndex &ivf, rt::RtDevice &device);

    /**
     * Builds the LUT for one query.
     * @param query the raw query vector (D floats);
     * @param probes filtering-stage output (best-first clusters);
     * @param params scale/penalty/backend knobs.
     */
    GateLut build(const float *query, const std::vector<Neighbor> &probes,
                  const SelectiveLutParams &params) const;

    /**
     * Allocation-free variant: fills @p out in place, reusing its
     * buffers (the search hot path calls this once per query).
     */
    void buildInto(const float *query, const std::vector<Neighbor> &probes,
                   const SelectiveLutParams &params, GateLut &out) const;

  private:
    /** Per-ray context addressed by the ray payload. */
    struct RayCtx {
        std::uint32_t slab = 0;
        std::int32_t subspace = 0;
        float miss = 0.0f;
        /** ||scaled origin xy||^2; inverts thit into an IP. */
        float qnorm_scaled_sqr = 0.0f;
        /** Inner (half) gate in thit units (JUNO-M reward sphere). */
        float tmax_inner = 0.0f;
    };

    /** Ray backends: casts the gathered rays, writes hit cells. */
    void traceRays(LutBackend backend, GateLut &lut) const;

    const JunoScene &scene_;
    const ThresholdPolicy &policy_;
    const InvertedFileIndex &ivf_;
    rt::RtDevice &device_;
    // Scratch reused across queries (single-threaded hot path).
    mutable std::vector<rt::Ray> rays_;
    mutable std::vector<RayCtx> ctxs_;
    mutable std::vector<float> residual_;
};

} // namespace juno

#endif // JUNO_CORE_SELECTIVE_LUT_H
