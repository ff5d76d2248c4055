#include "core/selective_lut.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "common/logging.h"
#include "common/simd.h"

namespace juno {

const char *
lutBackendName(LutBackend backend)
{
    switch (backend) {
    case LutBackend::kLinear:
        return "linear";
    case LutBackend::kBvh:
        return "bvh";
    case LutBackend::kCpu:
        return "cpu";
    }
    return "cpu";
}

LutBackend
parseLutBackend(const std::string &name)
{
    for (LutBackend b :
         {LutBackend::kCpu, LutBackend::kBvh, LutBackend::kLinear})
        if (name == lutBackendName(b))
            return b;
    fatal("unknown LUT backend '" + name + "' (use cpu, bvh or linear)");
}

SelectiveLutBuilder::SelectiveLutBuilder(const JunoScene &scene,
                                         const ThresholdPolicy &policy,
                                         const InvertedFileIndex &ivf,
                                         rt::RtDevice &device)
    : scene_(scene), policy_(policy), ivf_(ivf), device_(device)
{
    JUNO_REQUIRE(scene.built(), "scene not built");
    JUNO_REQUIRE(policy.trained(), "policy not trained");
}

GateLut
SelectiveLutBuilder::build(const float *query,
                           const std::vector<Neighbor> &probes,
                           const SelectiveLutParams &params) const
{
    GateLut lut;
    buildInto(query, probes, params, lut);
    return lut;
}

void
SelectiveLutBuilder::buildInto(const float *query,
                               const std::vector<Neighbor> &probes,
                               const SelectiveLutParams &params,
                               GateLut &lut) const
{
    const Metric metric = scene_.metric();
    const int subspaces = scene_.numSubspaces();
    const int entries = scene_.entries();
    const std::size_t nprobs = probes.size();
    JUNO_REQUIRE(nprobs > 0, "no probed clusters");

    const bool is_l2 = metric == Metric::kL2;
    const bool cpu = params.backend == LutBackend::kCpu;
    lut.subspaces = subspaces;
    lut.entries = entries;
    lut.shared_across_probes = !is_l2;
    lut.has_inner = params.inner_gate;
    const std::size_t slabs = lut.shared_across_probes ? 1 : nprobs;
    const std::size_t cells = slabs * lut.cells();
    // resize keeps capacity across queries. The ray backends write hit
    // cells only, so they start from zeros; the CPU gate writes every
    // cell of a non-empty gate.
    lut.delta.resize(cells);
    lut.flag.resize(cells);
    lut.inner.resize(lut.has_inner ? cells : 0);
    if (!cpu) {
        std::fill(lut.delta.begin(), lut.delta.end(), 0.0f);
        std::fill(lut.flag.begin(), lut.flag.end(), 0.0f);
        std::fill(lut.inner.begin(), lut.inner.end(), 0.0f);
    }
    lut.miss.resize(slabs * static_cast<std::size_t>(subspaces));
    lut.selected.assign(slabs, 0);
    lut.base.assign(nprobs, 0.0f);

    rays_.clear();
    ctxs_.clear();
    rt::TraversalStats gate_stats;
    residual_.resize(static_cast<std::size_t>(ivf_.dim()));
    for (std::size_t p = 0; p < slabs; ++p) {
        // Projections are cluster residuals for L2, the raw query for
        // IP (one slab for every probe).
        const float *proj_src = query;
        if (is_l2) {
            ivf_.residual(query, static_cast<cluster_t>(probes[p].id),
                          residual_.data());
            proj_src = residual_.data();
        }
        for (int s = 0; s < subspaces; ++s) {
            const float x = proj_src[2 * s];
            const float y = proj_src[2 * s + 1];
            const double thr_raw = policy_.threshold(s, x, y);
            const double thr =
                policy_.scaled(s, thr_raw, params.threshold_scale);
            // Inner gate at half scale: the reward sphere of the
            // JUNO-M reward/penalty scheme (paper Sec. 5.4).
            const double thr_inner =
                lut.has_inner ? policy_.scaled(s, thr_raw,
                                               params.threshold_scale * 0.5)
                              : 0.0;

            // Miss score for this (probe, subspace): the tightest score
            // an unselected entry could still have (paper: "a large
            // constant"; we charge the gate boundary).
            float miss;
            if (is_l2) {
                const double m = thr * params.miss_penalty;
                miss = static_cast<float>(m * m);
            } else {
                miss = static_cast<float>(thr);
            }
            lut.miss[p * static_cast<std::size_t>(subspaces) +
                     static_cast<std::size_t>(s)] = miss;

            const std::size_t row =
                p * lut.cells() + lut.cell(s, 0);
            if (cpu) {
                simd::LutGate gate;
                gate.x = x;
                gate.y = y;
                gate.inner_product = !is_l2;
                gate.limit = scene_.gateLimit(s, x, y, thr);
                if (lut.has_inner)
                    gate.inner_limit = scene_.gateLimit(s, x, y, thr_inner);
                gate.miss = miss;
                float *inner =
                    lut.has_inner ? lut.inner.data() + row : nullptr;
                if (std::isinf(gate.limit) && gate.limit < 0.0f) {
                    // Empty gate (the ray backends cast no ray).
                    std::fill_n(lut.delta.data() + row, entries, 0.0f);
                    std::fill_n(lut.flag.data() + row, entries, 0.0f);
                    if (inner != nullptr)
                        std::fill_n(inner, entries, 0.0f);
                    continue;
                }
                const std::size_t hits = simd::lutGate(
                    gate, scene_.entryX(s), scene_.entryY(s),
                    static_cast<std::size_t>(entries),
                    lut.delta.data() + row, lut.flag.data() + row, inner);
                lut.selected[p] += hits;
                ++gate_stats.rays;
                gate_stats.prim_tests += static_cast<std::uint64_t>(entries);
                gate_stats.hits += hits;
                continue;
            }

            rt::Ray ray;
            if (!scene_.makeRay(s, x, y, thr, ray))
                continue; // empty gate: every entry misses
            RayCtx ctx;
            ctx.slab = static_cast<std::uint32_t>(p);
            ctx.subspace = s;
            ctx.miss = miss;
            const float k = scene_.coordScale(s);
            ctx.qnorm_scaled_sqr = (x * k) * (x * k) + (y * k) * (y * k);
            ctx.tmax_inner = lut.has_inner
                                 ? scene_.gateTmax(s, x, y, thr_inner)
                                 : -std::numeric_limits<float>::infinity();
            ray.payload = ctxs_.size();
            rays_.push_back(ray);
            ctxs_.push_back(ctx);
        }
    }
    if (cpu)
        device_.mergeStats(gate_stats);
    else
        traceRays(params.backend, lut);

    // IP base term: score(q, centroid) added per probed cluster,
    // computed by the dispatched kernel.
    if (!is_l2) {
        for (std::size_t p = 0; p < nprobs; ++p)
            lut.base[p] = simd::innerProduct(
                query, ivf_.centroid(static_cast<cluster_t>(probes[p].id)),
                ivf_.dim());
    }
}

void
SelectiveLutBuilder::traceRays(LutBackend backend, GateLut &lut) const
{
    device_.setMode(backend == LutBackend::kBvh
                        ? rt::ExecMode::kRtCore
                        : rt::ExecMode::kCudaFallback);
    // The any-hit shader (paper Alg. 2 RT_HitShader): recover the score
    // from thit, write the entry's cells. Always returns true: JUNO
    // wants every in-gate entry, not the closest hit.
    const bool is_l2 = scene_.metric() == Metric::kL2;
    device_.launch(scene_.scene(), rays_, [&](const rt::Ray &ray,
                                              const rt::Hit &hit) {
        const RayCtx &ctx = ctxs_[static_cast<std::size_t>(ray.payload)];
        int sphere_s;
        entry_t e;
        JunoScene::unpackId(hit.user_id, sphere_s, e);
        // Geometric isolation makes cross-subspace hits impossible;
        // verify anyway (cheap) and drop any that would appear.
        if (sphere_s != ctx.subspace)
            return true;

        const float value =
            is_l2 ? scene_.lutValueL2(ctx.subspace, hit.thit)
                  : scene_.lutValueIp(ctx.subspace, ctx.qnorm_scaled_sqr,
                                      hit.thit);
        const std::size_t cell =
            ctx.slab * lut.cells() + lut.cell(ctx.subspace, e);
        lut.delta[cell] = value - ctx.miss;
        lut.flag[cell] = 1.0f;
        if (lut.has_inner)
            lut.inner[cell] = hit.thit <= ctx.tmax_inner ? 1.0f : 0.0f;
        ++lut.selected[ctx.slab];
        return true;
    });
}

} // namespace juno
