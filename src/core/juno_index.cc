#include "core/juno_index.h"

#include <algorithm>

#include "common/logging.h"
#include "common/mmap_blob.h"
#include "registry/index_spec.h"
#include "registry/snapshot.h"

namespace juno {

JunoParams
junoPresetH(JunoParams base)
{
    base.mode = SearchMode::kExactDistance;
    base.threshold_scale = 1.0;
    return base;
}

JunoParams
junoPresetM(JunoParams base)
{
    base.mode = SearchMode::kRewardPenalty;
    base.threshold_scale = 1.0;
    return base;
}

JunoParams
junoPresetL(JunoParams base)
{
    base.mode = SearchMode::kHitCount;
    base.threshold_scale = 0.8;
    return base;
}

JunoIndex::JunoIndex(Metric metric, FloatMatrixView points,
                     const JunoParams &params)
    : metric_(metric), num_points_(points.rows()), dim_(points.cols()),
      params_(params)
{
    JUNO_REQUIRE(dim_ % 2 == 0,
                 "JUNO requires an even dimension (2-D subspaces), got "
                     << dim_);
    JUNO_REQUIRE(params.nprobs > 0, "nprobs must be positive");
    JUNO_REQUIRE(params.threshold_scale > 0.0 &&
                     params.threshold_scale <= 1.0,
                 "threshold_scale must be in (0, 1]");

    const int subspaces = static_cast<int>(dim_ / 2);

    // Offline step 1: coarse clustering + inverted lists (Alg. 1, 2-3).
    InvertedFileIndex::Params ivf_params;
    ivf_params.clusters = params.clusters;
    ivf_params.seed = params.seed;
    ivf_params.max_training_points = params.max_training_points;
    ivf_.build(points, ivf_params);

    // Offline steps 2-3: residuals + per-subspace codebooks (Alg. 1,
    // 4-9). M = 2 is mandatory for the RT mapping.
    FloatMatrix residuals(num_points_, dim_);
    for (idx_t p = 0; p < num_points_; ++p)
        ivf_.residual(points.row(p), ivf_.label(p), residuals.row(p));

    PQParams pq_params;
    pq_params.num_subspaces = subspaces;
    pq_params.entries = params.pq_entries;
    pq_params.seed = params.seed + 1;
    pq_params.max_training_points = params.max_training_points;
    pq_.train(residuals.view(), pq_params);
    codes_ = pq_.encode(residuals.view());

    // Offline step 4: density map + threshold regressors. L2 thresholds
    // live in residual space (rays start at residual projections); IP
    // thresholds live in raw query space (the LUT is probe-invariant).
    const FloatMatrixView policy_domain =
        metric_ == Metric::kL2 ? residuals.view() : points;
    density_.build(policy_domain, subspaces, params.density_grid);
    ThresholdPolicy::Params policy_params = params.policy;
    policy_params.seed = params.seed + 2;
    policy_.train(metric_, policy_domain, subspaces, density_,
                  policy_params);
    policy_.setMode(params.threshold_mode);

    buildInterleaved();
    finishConstruction();
}

void
JunoIndex::buildInterleaved()
{
    interleaved_.build(ivf_.lists(), codes_, params_.pq_entries,
                       /*with_packed4=*/false);
}

void
JunoIndex::finishConstruction()
{
    // Subspace-level inverted index (Alg. 1, 12-14) and the traversable
    // scene (Alg. 1, 10-11); both derive deterministically from the
    // trained state, so load() rebuilds them instead of storing them.
    interest_.build(ivf_, codes_, params_.pq_entries);
    scene_.build(metric_, pq_, policy_, params_.scene);
}

namespace {
/** Snapshot meta-section format of this index type. */
constexpr std::uint32_t kFormatVersion = 1;

/** Shared by save and spec(): every build/search knob, in order. */
void
writeParams(Writer &meta, const JunoParams &params)
{
    meta.writePod<std::int32_t>(params.clusters);
    meta.writePod<std::int32_t>(params.pq_entries);
    meta.writePod<std::int64_t>(params.nprobs);
    meta.writePod<std::int32_t>(static_cast<std::int32_t>(params.mode));
    meta.writePod(params.threshold_scale);
    meta.writePod<std::int32_t>(
        static_cast<std::int32_t>(params.threshold_mode));
    meta.writePod(params.miss_penalty);
    // Once "use RT core" (0/1); LutBackend keeps those two values.
    meta.writePod<std::uint8_t>(static_cast<std::uint8_t>(params.lut));
    meta.writePod<std::uint8_t>(0); // retired pipelined knob, always 0
    meta.writePod<std::uint8_t>(1); // retired layout knob, always 1
    meta.writePod<std::int32_t>(params.density_grid);
    meta.writePod<std::int64_t>(params.policy.train_samples);
    meta.writePod<std::int64_t>(params.policy.ref_samples);
    meta.writePod<std::int64_t>(params.policy.contain_topk);
    meta.writePod<std::int32_t>(params.policy.poly_degree);
    meta.writePod<std::uint64_t>(params.policy.seed);
    meta.writePod(params.scene.gate_radius);
    meta.writePod(params.scene.max_gate_fraction);
    meta.writePod<std::uint64_t>(params.seed);
    meta.writePod<std::int64_t>(params.max_training_points);
}

JunoParams
readParams(Reader &meta)
{
    JunoParams params;
    params.clusters = meta.readPod<std::int32_t>();
    params.pq_entries = meta.readPod<std::int32_t>();
    params.nprobs = meta.readPod<std::int64_t>();
    const auto mode = meta.readPod<std::int32_t>();
    JUNO_REQUIRE(mode >= 0 && mode <= 2, "corrupt search mode tag");
    params.mode = static_cast<SearchMode>(mode);
    params.threshold_scale = meta.readPod<double>();
    const auto tmode = meta.readPod<std::int32_t>();
    JUNO_REQUIRE(tmode >= 0 && tmode <= 2,
                 "corrupt threshold mode tag");
    params.threshold_mode = static_cast<ThresholdMode>(tmode);
    params.miss_penalty = meta.readPod<double>();
    const auto lut = meta.readPod<std::uint8_t>();
    JUNO_REQUIRE(lut <= static_cast<std::uint8_t>(LutBackend::kCpu),
                 "corrupt LUT backend tag");
    params.lut = static_cast<LutBackend>(lut);
    meta.readPod<std::uint8_t>(); // retired pipelined knob
    meta.readPod<std::uint8_t>(); // retired layout knob
    params.density_grid = meta.readPod<std::int32_t>();
    params.policy.train_samples = meta.readPod<std::int64_t>();
    params.policy.ref_samples = meta.readPod<std::int64_t>();
    params.policy.contain_topk = meta.readPod<std::int64_t>();
    params.policy.poly_degree = meta.readPod<std::int32_t>();
    params.policy.seed = meta.readPod<std::uint64_t>();
    params.scene.gate_radius = meta.readPod<float>();
    params.scene.max_gate_fraction = meta.readPod<float>();
    params.seed = meta.readPod<std::uint64_t>();
    params.max_training_points = meta.readPod<std::int64_t>();
    return params;
}

const char *
modeKey(SearchMode mode)
{
    switch (mode) {
    case SearchMode::kExactDistance:
        return "h";
    case SearchMode::kRewardPenalty:
        return "m";
    case SearchMode::kHitCount:
        return "l";
    }
    return "h";
}

const char *
thresholdModeKey(ThresholdMode mode)
{
    switch (mode) {
    case ThresholdMode::kDynamic:
        return "dyn";
    case ThresholdMode::kStaticSmall:
        return "small";
    case ThresholdMode::kStaticLarge:
        return "large";
    }
    return "dyn";
}

} // namespace

std::string
JunoIndex::spec() const
{
    IndexSpec spec;
    spec.type = "juno";
    spec.setInt("nlist", params_.clusters);
    spec.setInt("entries", params_.pq_entries);
    spec.setInt("nprobe", params_.nprobs);
    spec.set("mode", modeKey(params_.mode));
    spec.setDouble("scale", params_.threshold_scale);
    spec.set("tmode", thresholdModeKey(params_.threshold_mode));
    spec.setDouble("penalty", params_.miss_penalty);
    spec.set("lut", lutBackendName(params_.lut));
    spec.setInt("grid", params_.density_grid);
    spec.setInt("psamples", params_.policy.train_samples);
    spec.setInt("prefs", params_.policy.ref_samples);
    spec.setInt("ptopk", params_.policy.contain_topk);
    spec.setInt("pdeg", params_.policy.poly_degree);
    spec.setDouble("radius", params_.scene.gate_radius);
    spec.setDouble("gatefrac", params_.scene.max_gate_fraction);
    spec.setInt("seed", static_cast<long>(params_.seed));
    spec.setInt("train", params_.max_training_points);
    // policy.seed is intentionally absent: the constructor always
    // derives it from seed (+2), so it cannot diverge.
    return spec.toString();
}

void
JunoIndex::saveSections(SnapshotWriter &writer) const
{
    Writer &meta = writer.section("meta");
    meta.writePod<std::uint32_t>(kFormatVersion);
    writeMetricTag(meta, metric_);
    meta.writePod<std::int64_t>(num_points_);
    meta.writePod<std::int64_t>(dim_);
    writeParams(meta, params_);
    meta.writePod<std::int64_t>(codes_.num_points);
    meta.writePod<std::int32_t>(codes_.num_subspaces);
    meta.writePod<std::uint8_t>(1); // interleaved layout present

    ivf_.save(writer.section("ivf"));
    pq_.save(writer.section("pq"));
    writer.addBlob("codes", codes_.data(),
                   codes_.count() * sizeof(entry_t));
    density_.save(writer.section("density"));
    policy_.save(writer.section("policy"));
    interleaved_.save(writer, "ileav.");
}

std::unique_ptr<JunoIndex>
JunoIndex::open(SnapshotReader &reader)
{
    const std::string what = reader.path() + " [juno]";
    auto meta = reader.stream("meta");
    checkFormatVersion(meta, kFormatVersion, what);
    std::unique_ptr<JunoIndex> index(new JunoIndex());
    index->metric_ = readMetricTag(meta);
    index->num_points_ = meta.readPod<std::int64_t>();
    index->dim_ = meta.readPod<std::int64_t>();
    JUNO_REQUIRE(index->num_points_ > 0 && index->dim_ > 0 &&
                     index->dim_ % 2 == 0,
                 what << ": corrupt index header");
    index->params_ = readParams(meta);
    index->codes_.num_points = meta.readPod<std::int64_t>();
    index->codes_.num_subspaces = meta.readPod<std::int32_t>();
    const bool has_interleaved = meta.readPod<std::uint8_t>() != 0;
    JUNO_REQUIRE(index->codes_.num_points == index->num_points_ &&
                     index->codes_.num_subspaces > 0 &&
                     index->codes_.num_subspaces ==
                         static_cast<int>(index->dim_ / 2),
                 what << ": corrupt PQ codes shape");
    // Overflow guard: the code-plane product must not wrap before the
    // blob-size comparison below.
    JUNO_REQUIRE(static_cast<std::uint64_t>(index->codes_.num_points) <=
                     kMaxSerializedPayloadBytes / sizeof(entry_t) /
                         static_cast<std::uint64_t>(
                             index->codes_.num_subspaces),
                 what << ": implausible code plane (corrupt file)");

    auto ivf_stream = reader.stream("ivf");
    index->ivf_.load(ivf_stream);
    auto pq_stream = reader.stream("pq");
    index->pq_.load(pq_stream);
    const auto codes_blob = reader.blob("codes");
    if (codes_blob.bytes != index->codes_.count() * sizeof(entry_t))
        fatal(what + ": PQ code payload size mismatch (corrupt file)");
    index->codes_.adoptView(
        reinterpret_cast<const entry_t *>(codes_blob.data),
        codes_blob.keepalive);
    auto density_stream = reader.stream("density");
    index->density_.load(density_stream);
    auto policy_stream = reader.stream("policy");
    index->policy_.load(policy_stream, index->density_);
    index->policy_.setMode(index->params_.threshold_mode);
    if (has_interleaved) {
        index->interleaved_.load(reader, "ileav.");
        JUNO_REQUIRE(index->interleaved_.numLists() ==
                             index->ivf_.numClusters() &&
                         index->interleaved_.subspaces() ==
                             index->codes_.num_subspaces,
                     what << ": interleaved layout shape mismatch");
    } else {
        // Written by a build that could skip the layout.
        index->buildInterleaved();
    }

    index->finishConstruction();
    return index;
}

std::unique_ptr<JunoIndex>
JunoIndex::load(const std::string &path)
{
    SnapshotReader reader(path);
    const IndexSpec spec = IndexSpec::parse(reader.spec());
    JUNO_REQUIRE(spec.type == "juno",
                 path << " holds a '" << spec.type
                      << "' index, not a JUNO index (use openIndex)");
    return open(reader);
}

std::string
JunoIndex::name() const
{
    std::string n = searchModeName(params_.mode);
    n += "(C=" + std::to_string(ivf_.numClusters());
    n += ",E=" + std::to_string(pq_.entries());
    n += ",scale=" + std::to_string(params_.threshold_scale).substr(0, 4);
    n += ",lut=";
    n += lutBackendName(params_.lut);
    n += ")";
    return n;
}

void
JunoIndex::setNprobs(idx_t nprobs)
{
    JUNO_REQUIRE(nprobs > 0, "nprobs must be positive");
    params_.nprobs = nprobs;
}

void
JunoIndex::setThresholdScale(double scale)
{
    JUNO_REQUIRE(scale > 0.0 && scale <= 1.0,
                 "threshold_scale must be in (0, 1]");
    params_.threshold_scale = scale;
}

void
JunoIndex::setThresholdMode(ThresholdMode mode)
{
    params_.threshold_mode = mode;
    policy_.setMode(mode);
}

void
JunoIndex::setMissPenalty(double penalty)
{
    JUNO_REQUIRE(penalty >= 0.0, "miss_penalty must be non-negative");
    params_.miss_penalty = penalty;
}

SelectiveLutParams
JunoIndex::lutParams() const
{
    SelectiveLutParams lp;
    lp.threshold_scale = params_.threshold_scale;
    lp.miss_penalty = params_.miss_penalty;
    lp.inner_gate = params_.mode == SearchMode::kRewardPenalty;
    lp.backend = params_.lut;
    return lp;
}

std::vector<Neighbor>
JunoIndex::probe(const float *query) const
{
    return ivf_.probe(metric_, query, params_.nprobs);
}

std::vector<Neighbor>
JunoIndex::probe(const float *query, idx_t nprobs) const
{
    return ivf_.probe(metric_, query, nprobs);
}

void
JunoIndex::prefetchProbedLists(const std::vector<Neighbor> &probes) const
{
    if (!interleaved_.planesMapped())
        return;
    for (const auto &pr : probes) {
        const auto c = static_cast<cluster_t>(pr.id);
        memAdvise(interleaved_.listBlocks(c),
                  interleaved_.listBlocksBytes(c), MemAdvice::kWillNeed);
        if (interleaved_.packed4())
            memAdvise(interleaved_.listPacked(c),
                      interleaved_.listPackedBytes(c),
                      MemAdvice::kWillNeed);
    }
}

/**
 * Per-worker search state: a private RT device (so traversal counters
 * accumulate without contention), the LUT builder and distance
 * calculator bound to it, and the reusable gate LUT. Lives in a
 * SearchContext, so it persists across chunks and batches.
 */
struct JunoIndex::Worker {
    explicit Worker(JunoIndex &owner)
        : builder(owner.scene_, owner.policy_, owner.ivf_, device),
          calc(owner.ivf_, owner.interest_, owner.interleaved_)
    {
    }

    rt::RtDevice device;
    SelectiveLutBuilder builder;
    DistanceCalculator calc;
    /** Reused per-query gate LUT. */
    GateLut lut;
};

void
JunoIndex::searchChunk(const SearchChunk &chunk, SearchContext &ctx)
{
    auto &w = ctx.scratch<Worker>(
        [this] { return std::make_unique<Worker>(*this); });
    const idx_t k = std::min(chunk.k, num_points_);
    const SelectiveLutParams lut_params = lutParams();

    for (idx_t qi = chunk.begin; qi < chunk.end; ++qi) {
        const float *q = chunk.queries.row(qi);
        {
            StageScope t(ctx, Stage::kFilter);
            ctx.probes = probe(q, ctx.scaledNprobes(params_.nprobs));
            // JUNO scores all probed lists in one calculator run, so
            // the cooperative deadline cuts in before the run: a query
            // starting past its deadline keeps only the best cluster —
            // still valid neighbours, just partial.
            if (ctx.probes.size() > 1 && ctx.pastDeadline()) {
                ctx.probes.resize(1);
                ctx.markDegraded(qi);
            }
            // Cold lists start paging in while the LUT stage below
            // runs (out-of-core overlap).
            prefetchProbedLists(ctx.probes);
        }
        {
            StageScope t(ctx, Stage::kRtLut);
            w.builder.buildInto(q, ctx.probes, lut_params, w.lut);
        }
        StageScope t(ctx, Stage::kScan);
        (*chunk.results)[static_cast<std::size_t>(qi)] =
            w.calc.run(metric_, params_.mode, ctx.probes, w.lut, k);
    }

    MutexLock lock(stats_mutex_);
    device_.mergeStats(w.device.totalStats());
    w.device.resetStats();
}

} // namespace juno
