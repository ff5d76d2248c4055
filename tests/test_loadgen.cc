/**
 * @file
 * Tests of the serving load generator (harness/loadgen): count,
 * duration and stop-flag runs of the closed loop, shedding in an
 * overloaded open loop, writer visibility probes over a LiveIndex
 * under both metrics and with reused query rows, spec validation, and
 * the conservation predicate catching a lost completion. The writer
 * tests also destroy a service whose owned LiveIndex may be mid-merge,
 * which TSan checks against the service's tracer lifetime.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <memory>
#include <ostream>
#include <string>
#include <thread>

#include "baseline/flat_index.h"
#include "baseline/ivfflat_index.h"
#include "common/logging.h"
#include "dataset/synthetic.h"
#include "harness/loadgen.h"
#include "live/live_index.h"
#include "serve/search_service.h"

namespace juno {
namespace {

using namespace std::chrono_literals;

Dataset
smallDataset(DatasetKind kind = DatasetKind::kDeepLike)
{
    SyntheticSpec spec;
    spec.kind = kind;
    spec.num_points = 500;
    spec.num_queries = 40;
    spec.dim = 8;
    spec.seed = 777;
    return makeDataset(spec);
}

IvfFlatIndex
smallIvf(const Dataset &ds)
{
    IvfFlatIndex::Params params;
    params.clusters = 8;
    params.nprobs = 2;
    params.max_iters = 4;
    return IvfFlatIndex(ds.metric, ds.base.view(), params);
}

/** Flat index whose every chunk sleeps, to back-pressure the queue. */
class SlowFlatIndex : public FlatIndex {
  public:
    SlowFlatIndex(Metric metric, FloatMatrixView points,
                  std::chrono::microseconds delay)
        : FlatIndex(metric, points), delay_(delay)
    {
    }

  protected:
    void
    searchChunk(const SearchChunk &chunk, SearchContext &ctx) override
    {
        std::this_thread::sleep_for(delay_);
        FlatIndex::searchChunk(chunk, ctx);
    }

  private:
    std::chrono::microseconds delay_;
};

LoadSpec
closedLoop(int clients, std::uint64_t requests)
{
    LoadSpec spec;
    spec.arrival = Arrival::kClosed;
    spec.clients = clients;
    spec.window = 4;
    spec.k = 5;
    spec.requests = requests;
    return spec;
}

/** Runs @p spec on a started service, drains it, checks conservation. */
LoadResult
runConserved(SearchService &service, FloatMatrixView queries,
             const LoadSpec &spec)
{
    service.start();
    LoadResult load = runLoad(service, queries, spec);
    service.stop();
    std::string why;
    EXPECT_TRUE(conserved(service.snapshot(), load, &why)) << why;
    return load;
}

struct CountCase {
    int clients;
    std::uint64_t requests;
    std::size_t queue_capacity;
};

std::ostream &
operator<<(std::ostream &os, const CountCase &c)
{
    return os << c.clients << " clients, " << c.requests
              << " requests, queue " << c.queue_capacity;
}

class ClosedLoopCount : public ::testing::TestWithParam<CountCase> {};

TEST_P(ClosedLoopCount, ServesExactlyRequests)
{
    const CountCase c = GetParam();
    const Dataset ds = smallDataset();
    IvfFlatIndex index = smallIvf(ds);
    ServiceConfig config;
    config.max_batch = 4;
    config.queue_capacity = c.queue_capacity;
    SearchService service(index, config);
    const LoadResult load = runConserved(
        service, ds.queries.view(), closedLoop(c.clients, c.requests));
    EXPECT_EQ(load.reads.attempted, c.requests);
    EXPECT_EQ(load.reads.completed, c.requests);
    EXPECT_EQ(load.reads.shed(), 0u);
    EXPECT_EQ(service.snapshot().completed, c.requests);
    EXPECT_GT(load.qps, 0.0);
}

INSTANTIATE_TEST_SUITE_P(
    Loadgen, ClosedLoopCount,
    ::testing::Values(CountCase{4, 3, 4096},   // requests < clients
                      CountCase{4, 103, 4096}, // remainder spread
                      CountCase{3, 300, 2}));  // full queue: retried

TEST(Loadgen, DurationEndsRun)
{
    const Dataset ds = smallDataset();
    IvfFlatIndex index = smallIvf(ds);
    SearchService service(index, ServiceConfig{});
    LoadSpec spec = closedLoop(2, 0);
    spec.duration_s = 0.2;
    const LoadResult load = runConserved(service, ds.queries.view(), spec);
    EXPECT_GE(load.seconds, 0.2);
    EXPECT_LT(load.seconds, 30.0);
    EXPECT_GT(load.reads.completed, 0u);
}

TEST(Loadgen, StopFlagEndsRun)
{
    const Dataset ds = smallDataset();
    IvfFlatIndex index = smallIvf(ds);
    SearchService service(index, ServiceConfig{});
    std::atomic<bool> stop{false};
    LoadSpec spec = closedLoop(2, 0);
    spec.stop = &stop;
    std::thread stopper([&] {
        std::this_thread::sleep_for(100ms);
        stop.store(true);
    });
    // The flag is the only stop condition: returning at all is the test.
    const LoadResult load = runConserved(service, ds.queries.view(), spec);
    stopper.join();
    EXPECT_LT(load.seconds, 30.0);
    EXPECT_GT(load.reads.completed, 0u);
}

TEST(Loadgen, OverloadedOpenLoopShedsAndConserves)
{
    const Dataset ds = smallDataset();
    SlowFlatIndex index(ds.metric, ds.base.view(), 2ms);
    ServiceConfig config;
    config.max_batch = 1;
    config.queue_capacity = 4;
    SearchService service(index, config);
    LoadSpec spec;
    spec.arrival = Arrival::kOpen;
    spec.clients = 2;
    spec.offered_qps = 4000.0; // ~8x the ~500 QPS the sleep allows
    spec.k = 5;
    spec.duration_s = 0.3;
    const LoadResult load = runConserved(service, ds.queries.view(), spec);
    EXPECT_GT(load.reads.shed_full, 0u);
    EXPECT_EQ(load.reads.retried_full, 0u);
    EXPECT_EQ(service.snapshot().rejected_full, load.reads.shed_full);
    EXPECT_GT(load.reads.completed, 0u);
}

void
expectProbesVisible(DatasetKind kind, Metric metric)
{
    const Dataset ds = smallDataset(kind);
    ASSERT_EQ(ds.metric, metric);
    LiveConfig lcfg;
    lcfg.merge_threshold = 32; // merges publish inside the run
    SearchService service(
        std::make_unique<LiveIndex>(ds.metric, ds.base.view(),
                                    "ivfflat:nlist=8,nprobe=2,iters=4",
                                    lcfg),
        ServiceConfig{});
    LoadSpec spec = closedLoop(2, 0);
    spec.duration_s = 0.5;
    spec.writes.insert_rate = 400.0;
    spec.writes.delete_rate = 100.0;
    spec.writes.source = ds.base.view();
    const LoadResult load = runConserved(service, ds.queries.view(), spec);
    const WriteResult &w = load.writes;
    EXPECT_GT(w.inserts, 16u);
    EXPECT_GT(w.removes, 0u);
    EXPECT_GT(w.probes, 0u);
    EXPECT_EQ(w.probes_missed, 0u);
    EXPECT_EQ(w.lag_us.count, w.probes);
    EXPECT_GE(w.polls.completed, w.probes);
}

TEST(Loadgen, WriterProbesVisibleL2)
{
    expectProbesVisible(DatasetKind::kDeepLike, Metric::kL2);
}

TEST(Loadgen, WriterProbesVisibleInnerProduct)
{
    expectProbesVisible(DatasetKind::kTtiLike, Metric::kInnerProduct);
}

TEST(Loadgen, WriterProbesVisibleWhenQueryRowsRepeat)
{
    // Two query rows and k = 2: from the fifth probe on, each probe
    // reuses a row that already has k live copies, which an exact
    // copy would tie with and lose to.
    SyntheticSpec dspec;
    dspec.num_points = 200;
    dspec.num_queries = 2;
    dspec.dim = 8;
    dspec.seed = 99;
    const Dataset ds = makeDataset(dspec);
    SearchService service(
        std::make_unique<LiveIndex>(ds.metric, ds.base.view(), "flat"),
        ServiceConfig{});
    LoadSpec spec = closedLoop(1, 0);
    spec.k = 2;
    spec.duration_s = 0.5;
    spec.writes.insert_rate = 1000.0;
    spec.writes.source = ds.base.view();
    const LoadResult load = runConserved(service, ds.queries.view(), spec);
    EXPECT_GT(load.writes.probes, 4u);
    EXPECT_EQ(load.writes.probes_missed, 0u);
}

TEST(Loadgen, ProbeVectorScalesPerMetricAndRound)
{
    const float q[2] = {1.0f, -2.0f};
    EXPECT_EQ(probeVector(q, 2, Metric::kL2), (std::vector<float>{1, -2}));
    EXPECT_EQ(probeVector(q, 2, Metric::kInnerProduct),
              (std::vector<float>{16, -32}));
    EXPECT_EQ(probeVector(q, 2, Metric::kL2, 2),
              (std::vector<float>{3, -6}));
}

TEST(Loadgen, RejectsInvalidSpecs)
{
    const Dataset ds = smallDataset();
    IvfFlatIndex index = smallIvf(ds);
    SearchService service(index, ServiceConfig{});
    service.start();
    EXPECT_THROW(runLoad(service, ds.queries.view(), closedLoop(0, 10)),
                 ConfigError);
    EXPECT_THROW(runLoad(service, ds.queries.view(), closedLoop(2, 0)),
                 ConfigError); // no stop condition
    LoadSpec open = closedLoop(2, 10);
    open.arrival = Arrival::kOpen; // offered_qps unset
    EXPECT_THROW(runLoad(service, ds.queries.view(), open), ConfigError);
    LoadSpec writes = closedLoop(2, 10);
    writes.writes.insert_rate = 10.0; // no source rows
    EXPECT_THROW(runLoad(service, ds.queries.view(), writes),
                 ConfigError);
    service.stop();
    EXPECT_EQ(service.snapshot().submitted, 0u);
}

TEST(Loadgen, ConservationCatchesALostCompletion)
{
    const Dataset ds = smallDataset();
    IvfFlatIndex index = smallIvf(ds);
    SearchService service(index, ServiceConfig{});
    const LoadResult load =
        runConserved(service, ds.queries.view(), closedLoop(2, 50));
    ServiceStats::Snapshot snap = service.snapshot();
    ASSERT_TRUE(conserved(snap, load));
    snap.completed -= 1;
    std::string why;
    EXPECT_FALSE(conserved(snap, load, &why));
    EXPECT_NE(why.find("completed"), std::string::npos) << why;
}

} // namespace
} // namespace juno
