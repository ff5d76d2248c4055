/**
 * @file
 * Tests of the batched query engine: parallel-vs-serial determinism
 * for every index type, chunking invariance, option handling and the
 * stats toggle.
 */
#include <gtest/gtest.h>

#include <thread>

#include "baseline/flat_index.h"
#include "baseline/hnsw.h"
#include "baseline/ivfflat_index.h"
#include "baseline/ivfpq_index.h"
#include "common/logging.h"
#include "core/juno_index.h"
#include "core/rt_exact_index.h"
#include "dataset/synthetic.h"
#include "engine/query_engine.h"

namespace juno {
namespace {

Dataset
smallDataset()
{
    SyntheticSpec spec;
    spec.kind = DatasetKind::kDeepLike;
    spec.num_points = 600;
    spec.num_queries = 23; // deliberately not a multiple of any chunk
    spec.dim = 8;
    spec.seed = 4242;
    return makeDataset(spec);
}

SearchRequest
request(const Dataset &ds, idx_t k, int threads, idx_t batch_size = 0)
{
    SearchRequest req;
    req.queries = ds.queries.view();
    req.options.k = k;
    req.options.threads = threads;
    req.options.batch_size = batch_size;
    return req;
}

/**
 * threads=4, chunked and one-query-per-request searches must return
 * bitwise-identical lists to threads=1.
 */
void
expectDeterministic(AnnIndex &index, const Dataset &ds, idx_t k)
{
    const auto serial = index.search(request(ds, k, 1));
    const auto parallel = index.search(request(ds, k, 4));
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t q = 0; q < serial.size(); ++q)
        EXPECT_EQ(serial[q], parallel[q]) << "query " << q;
    // Chunking must not change results either.
    const auto chunked = index.search(request(ds, k, 4, 3));
    for (std::size_t q = 0; q < serial.size(); ++q)
        EXPECT_EQ(serial[q], chunked[q]) << "query " << q;
    // Nor may the batch around a query: each row searched as its own
    // 1-row request matches its batch row.
    for (idx_t q = 0; q < ds.queries.rows(); ++q) {
        const auto one = index.search(
            FloatMatrixView(ds.queries.row(q), 1, ds.queries.cols()), k);
        ASSERT_EQ(one.size(), 1u);
        EXPECT_EQ(serial[static_cast<std::size_t>(q)], one[0])
            << "query " << q;
    }
}

TEST(SearchEngine, FlatDeterministicAcrossThreads)
{
    const auto ds = smallDataset();
    FlatIndex index(ds.metric, ds.base.view());
    expectDeterministic(index, ds, 10);
}

TEST(SearchEngine, IvfFlatDeterministicAcrossThreads)
{
    const auto ds = smallDataset();
    IvfFlatIndex::Params params;
    params.clusters = 16;
    params.nprobs = 4;
    IvfFlatIndex index(ds.metric, ds.base.view(), params);
    expectDeterministic(index, ds, 10);
}

TEST(SearchEngine, IvfPqDeterministicAcrossThreads)
{
    const auto ds = smallDataset();
    IvfPqIndex::Params params;
    params.clusters = 16;
    params.pq_subspaces = 4;
    params.pq_entries = 16;
    params.nprobs = 4;
    IvfPqIndex index(ds.metric, ds.base.view(), params);
    expectDeterministic(index, ds, 10);
}

TEST(SearchEngine, IvfPqHnswRouterDeterministicAcrossThreads)
{
    const auto ds = smallDataset();
    IvfPqIndex::Params params;
    params.clusters = 16;
    params.pq_subspaces = 4;
    params.pq_entries = 16;
    params.nprobs = 4;
    params.use_hnsw_router = true;
    IvfPqIndex index(ds.metric, ds.base.view(), params);
    expectDeterministic(index, ds, 10);
}

TEST(SearchEngine, HnswDeterministicAcrossThreads)
{
    const auto ds = smallDataset();
    Hnsw index;
    Hnsw::Params params;
    params.m = 8;
    index.build(ds.metric, ds.base.view(), params);
    index.setEfSearch(64);
    expectDeterministic(index, ds, 10);
}

TEST(SearchEngine, JunoDeterministicAcrossThreads)
{
    const auto ds = smallDataset();
    JunoParams params = junoPresetH();
    params.clusters = 16;
    params.pq_entries = 16;
    params.nprobs = 4;
    params.density_grid = 20;
    params.policy.train_samples = 40;
    params.policy.ref_samples = 300;
    params.policy.contain_topk = 20;
    JunoIndex index(ds.metric, ds.base.view(), params);
    expectDeterministic(index, ds, 10);
}

TEST(SearchEngine, JunoBvhDeterministicAcrossThreads)
{
    const auto ds = smallDataset();
    JunoParams params = junoPresetH();
    params.clusters = 16;
    params.pq_entries = 16;
    params.nprobs = 4;
    params.density_grid = 20;
    params.policy.train_samples = 40;
    params.policy.ref_samples = 300;
    params.policy.contain_topk = 20;
    params.lut = LutBackend::kBvh;
    JunoIndex index(ds.metric, ds.base.view(), params);
    expectDeterministic(index, ds, 10);
}

TEST(SearchEngine, RtExactDeterministicAcrossThreads)
{
    const auto ds = smallDataset();
    RtExactIndex index(ds.base.view());
    expectDeterministic(index, ds, 5);
}

TEST(SearchEngine, HnswIndexInterfaceReportsShape)
{
    const auto ds = smallDataset();
    Hnsw index;
    index.build(ds.metric, ds.base.view(), {});
    EXPECT_EQ(index.size(), ds.base.rows());
    EXPECT_EQ(index.dim(), ds.base.cols());
    EXPECT_NE(index.name().find("HNSW"), std::string::npos);
    const auto results = index.search(ds.queries.view(), 5);
    ASSERT_EQ(results.size(), static_cast<std::size_t>(ds.queries.rows()));
    for (const auto &r : results)
        EXPECT_EQ(r.size(), 5u);
}

TEST(SearchEngine, StatsToggleSkipsLedger)
{
    const auto ds = smallDataset();
    FlatIndex index(ds.metric, ds.base.view());

    SearchRequest req = request(ds, 5, 2);
    req.options.collect_stats = false;
    index.search(req);
    EXPECT_EQ(index.stageTimers().totalSeconds(), 0.0);

    req.options.collect_stats = true;
    index.search(req);
    EXPECT_GT(index.stageTimers().totalSeconds(), 0.0);
}

TEST(SearchEngine, StageTimersAccumulateAcrossParallelBatch)
{
    const auto ds = smallDataset();
    IvfFlatIndex::Params params;
    params.clusters = 16;
    params.nprobs = 4;
    IvfFlatIndex index(ds.metric, ds.base.view(), params);
    index.search(request(ds, 10, 4, 2));
    // Every worker's filter+scan time must land in the merged ledger.
    EXPECT_GT(index.stageTimers().seconds("filter"), 0.0);
    EXPECT_GT(index.stageTimers().seconds("scan"), 0.0);
}

TEST(SearchEngine, RejectsBadRequests)
{
    const auto ds = smallDataset();
    FlatIndex index(ds.metric, ds.base.view());
    EXPECT_THROW(index.search(request(ds, -1, 1)), ConfigError);
    FloatMatrix wrong(3, ds.base.cols() + 2);
    SearchRequest req;
    req.queries = wrong.view();
    req.options.k = 1;
    EXPECT_THROW(index.search(req), ConfigError);
}

TEST(SearchEngine, EmptyBatchReturnsEmpty)
{
    const auto ds = smallDataset();
    FlatIndex index(ds.metric, ds.base.view());
    SearchRequest req;
    req.queries = FloatMatrixView(nullptr, 0, ds.base.cols());
    req.options.k = 3;
    EXPECT_TRUE(index.search(req).empty());
}

/**
 * Degenerate requests must behave identically for every index type:
 * empty batch -> empty results; k == 0 -> one empty list per query;
 * k > numPoints -> truncated lists with valid, distinct ids.
 */
void
expectDegenerateContract(AnnIndex &index, const Dataset &ds)
{
    // Empty batch: no results, even with a zero-column view.
    SearchRequest empty;
    empty.queries = FloatMatrixView(nullptr, 0, 0);
    empty.options.k = 5;
    EXPECT_TRUE(index.search(empty).empty()) << index.name();

    // k == 0: one empty neighbour list per query.
    const auto zero_k = index.search(request(ds, 0, 1));
    ASSERT_EQ(zero_k.size(),
              static_cast<std::size_t>(ds.queries.rows()))
        << index.name();
    for (const auto &res : zero_k)
        EXPECT_TRUE(res.empty()) << index.name();

    // k far beyond the index size: truncated, ids valid and distinct.
    const idx_t n = index.size();
    const auto huge_k = index.search(request(ds, n + 100, 2));
    ASSERT_EQ(huge_k.size(),
              static_cast<std::size_t>(ds.queries.rows()))
        << index.name();
    for (const auto &res : huge_k) {
        EXPECT_LE(static_cast<idx_t>(res.size()), n) << index.name();
        std::vector<bool> seen(static_cast<std::size_t>(n), false);
        for (const auto &nb : res) {
            ASSERT_GE(nb.id, 0) << index.name();
            ASSERT_LT(nb.id, n) << index.name();
            EXPECT_FALSE(seen[static_cast<std::size_t>(nb.id)])
                << index.name() << " duplicate id " << nb.id;
            seen[static_cast<std::size_t>(nb.id)] = true;
        }
    }
}

TEST(SearchEngine, DegenerateRequestsUniformAcrossIndexTypes)
{
    const auto ds = smallDataset();

    FlatIndex flat(ds.metric, ds.base.view());
    expectDegenerateContract(flat, ds);
    // The exact scan must return every point when k exceeds N.
    const auto all = flat.search(request(ds, flat.size() + 7, 1));
    for (const auto &res : all)
        EXPECT_EQ(static_cast<idx_t>(res.size()), flat.size());

    IvfFlatIndex::Params ivf_params;
    ivf_params.clusters = 16;
    ivf_params.nprobs = 4;
    IvfFlatIndex ivfflat(ds.metric, ds.base.view(), ivf_params);
    expectDegenerateContract(ivfflat, ds);

    IvfPqIndex::Params pq_params;
    pq_params.clusters = 16;
    pq_params.pq_subspaces = 4;
    pq_params.nprobs = 4;
    IvfPqIndex ivfpq(ds.metric, ds.base.view(), pq_params);
    expectDegenerateContract(ivfpq, ds);

    Hnsw hnsw;
    Hnsw::Params hnsw_params;
    hnsw_params.m = 8;
    hnsw.build(ds.metric, ds.base.view(), hnsw_params);
    expectDegenerateContract(hnsw, ds);

    JunoParams juno_params = junoPresetH();
    juno_params.clusters = 16;
    juno_params.pq_entries = 16;
    juno_params.nprobs = 4;
    juno_params.density_grid = 20;
    juno_params.policy.train_samples = 40;
    juno_params.policy.ref_samples = 300;
    juno_params.policy.contain_topk = 20;
    JunoIndex juno(ds.metric, ds.base.view(), juno_params);
    expectDegenerateContract(juno, ds);

    RtExactIndex rt(ds.base.view());
    expectDegenerateContract(rt, ds);
}

TEST(SearchEngine, ZeroThreadsPicksHardwareConcurrency)
{
    const auto ds = smallDataset();
    FlatIndex index(ds.metric, ds.base.view());
    const auto serial = index.search(request(ds, 5, 1));
    const auto auto_threads = index.search(request(ds, 5, 0));
    EXPECT_GE(index.lastSearchThreads(), 1);
    for (std::size_t q = 0; q < serial.size(); ++q)
        EXPECT_EQ(serial[q], auto_threads[q]);
}

TEST(SearchEngine, ChunkResolutionRespectsRequestAndGrain)
{
    EXPECT_EQ(QueryEngine::resolveChunk(100, 4, 7), 7);  // explicit
    EXPECT_GE(QueryEngine::resolveChunk(100, 4, 0), 4);  // min grain
    EXPECT_GE(QueryEngine::resolveChunk(3, 8, 0), 3);    // tiny batch
    EXPECT_EQ(QueryEngine::resolveThreads(3), 3);
    EXPECT_GE(QueryEngine::resolveThreads(0), 1);
}

/**
 * The serving layer's read-path contract: search() may be called from
 * several caller threads at once on one index, each caller getting
 * results identical to a serial reference run.
 */
void
expectConcurrentCallersMatchSerial(AnnIndex &index, const Dataset &ds,
                                   idx_t k, int caller_threads)
{
    const auto reference = index.search(request(ds, k, 1));
    constexpr int kCallers = 4;
    constexpr int kRepeats = 8;
    std::vector<int> mismatches(kCallers, 0);
    std::vector<std::thread> callers;
    for (int c = 0; c < kCallers; ++c)
        callers.emplace_back([&, c] {
            for (int rep = 0; rep < kRepeats; ++rep) {
                const auto got =
                    index.search(request(ds, k, caller_threads));
                if (got != reference)
                    ++mismatches[static_cast<std::size_t>(c)];
            }
        });
    for (auto &t : callers)
        t.join();
    for (int c = 0; c < kCallers; ++c)
        EXPECT_EQ(mismatches[static_cast<std::size_t>(c)], 0)
            << index.name() << " caller " << c;
}

TEST(SearchEngine, ConcurrentCallersFlat)
{
    const auto ds = smallDataset();
    FlatIndex index(ds.metric, ds.base.view());
    expectConcurrentCallersMatchSerial(index, ds, 10, 1);
}

TEST(SearchEngine, ConcurrentCallersIvfFlat)
{
    const auto ds = smallDataset();
    IvfFlatIndex::Params params;
    params.clusters = 16;
    params.nprobs = 4;
    IvfFlatIndex index(ds.metric, ds.base.view(), params);
    expectConcurrentCallersMatchSerial(index, ds, 10, 1);
}

TEST(SearchEngine, ConcurrentCallersJuno)
{
    const auto ds = smallDataset();
    JunoParams params = junoPresetH();
    params.clusters = 16;
    params.pq_entries = 16;
    params.nprobs = 4;
    params.density_grid = 20;
    params.policy.train_samples = 40;
    params.policy.ref_samples = 300;
    params.policy.contain_topk = 20;
    JunoIndex index(ds.metric, ds.base.view(), params);
    expectConcurrentCallersMatchSerial(index, ds, 10, 1);
}

TEST(SearchEngine, ConcurrentMultiThreadedCallers)
{
    // Multi-threaded requests serialise on the worker pool but must
    // still interleave correctly with each other and with inline
    // callers.
    const auto ds = smallDataset();
    FlatIndex index(ds.metric, ds.base.view());
    expectConcurrentCallersMatchSerial(index, ds, 10, 2);
}

TEST(SearchEngine, ConcurrentCallersAccumulateStats)
{
    const auto ds = smallDataset();
    FlatIndex index(ds.metric, ds.base.view());
    index.resetStageTimers();
    constexpr int kCallers = 3;
    std::vector<std::thread> callers;
    for (int c = 0; c < kCallers; ++c)
        callers.emplace_back(
            [&] { index.search(request(ds, 5, 1)); });
    for (auto &t : callers)
        t.join();
    // All callers' scan time must land in the shared ledger (merged
    // under the engine's sink lock, not lost to a race).
    EXPECT_GT(index.stageTimers().seconds("scan"), 0.0);
}

TEST(SearchEngine, ReusedResultsBufferMatchesFreshOne)
{
    const auto ds = smallDataset();
    FlatIndex index(ds.metric, ds.base.view());
    const auto fresh = index.search(request(ds, 10, 1));

    SearchResults reused;
    index.search(request(ds, 10, 1), reused);
    EXPECT_EQ(reused, fresh);
    // Second pass through the same buffer (the serving layer's
    // steady state) must overwrite every slot, not append.
    index.search(request(ds, 10, 2), reused);
    EXPECT_EQ(reused, fresh);

    // Degenerate k == 0 through a dirty buffer must clear the lists.
    index.search(request(ds, 0, 1), reused);
    ASSERT_EQ(reused.size(), static_cast<std::size_t>(ds.queries.rows()));
    for (const auto &list : reused)
        EXPECT_TRUE(list.empty());
}

TEST(VisitedSetScratch, InsertAndEpochClear)
{
    VisitedSet visited;
    visited.reset(10);
    EXPECT_TRUE(visited.insert(3));
    EXPECT_FALSE(visited.insert(3));
    EXPECT_TRUE(visited.contains(3));
    EXPECT_FALSE(visited.contains(4));
    visited.clear();
    EXPECT_FALSE(visited.contains(3));
    EXPECT_TRUE(visited.insert(3));
}

} // namespace
} // namespace juno
