/**
 * @file
 * Live-mutability serving bench: what concurrent writes cost the read
 * path, and how fresh an insert actually is.
 *
 * Two legs over the same dataset and service configuration:
 *
 *  - read-only baseline: the micro-batching SearchService over a
 *    frozen index, closed-loop clients for a fixed wall-clock window;
 *  - mixed read/write: the same clients over a LiveIndex while a
 *    writer injects inserts and deletes at a configured rate, with
 *    the background merge publishing generations mid-run.
 *
 * Both legs' traffic comes from harness/loadgen (its closed-loop
 * clients and its paced writer).
 *
 * Freshness lag is measured directly: every 16th insert is a probe
 * whose vector is a query-set row (the guaranteed unique nearest
 * neighbour of itself), and the writer polls the serving path until
 * the new id appears in the top-k — the insert-to-first-visible-query
 * latency, reported as percentiles. The design bound is one query
 * latency (inserts are visible to the very next search), so the lag
 * distribution should track the read path's, not the merge cadence.
 *
 * Gates (exit nonzero, `--smoke` is the CI leg): both legs conserve
 * requests (loadgen's predicate), every probe must become visible (a
 * missed probe is a freshness bug, not noise), and the mixed leg must
 * publish at least one generation so the numbers cover a reader swap.
 * `--json <path>` dumps the measured points (BENCH_live.json).
 */
#include <algorithm>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <utility>

#include "bench_common.h"
#include "common/build_info.h"
#include "common/logging.h"
#include "common/parse.h"
#include "dataset/synthetic.h"
#include "harness/loadgen.h"
#include "harness/reporter.h"
#include "live/live_index.h"
#include "registry/index_factory.h"
#include "serve/search_service.h"

using namespace juno;

namespace {

/** Command-line settings; parseArgs() fills every field. */
struct Options {
    bool smoke = false;
    std::string json_path;
    idx_t num_points = 0;
    idx_t k = 0;
    int clients = 0;
    /** Wall-clock seconds each leg serves. */
    double seconds = 0.0;
    double insert_rate = 0.0;
    double delete_rate = 0.0;
    idx_t merge_threshold = 0;
};

const char kUsage[] =
    "usage: bench_live [--smoke] [--json path] [--n N] [--k K] "
    "[--clients C]\n"
    "                  [--seconds S] [--insert-rate R] [--delete-rate R] "
    "[--merge-threshold N]\n"
    "  --smoke is a preset; explicit flags override it\n";

Options
parseArgs(int argc, char **argv)
{
    Options opt;
    try {
        const Args args(argc, argv, 1, {"smoke"},
                        {"smoke", "json", "n", "k", "clients", "seconds",
                         "insert-rate", "delete-rate", "merge-threshold"});
        // The preset is only a fallback, so an explicit flag wins.
        opt.smoke = args.has("smoke");
        const bool smoke = opt.smoke;
        opt.json_path = args.get("json", "");
        opt.num_points = args.getInt("n", smoke ? 4000 : bench::scale1M(),
                                     1, 100000000);
        opt.k = args.getInt("k", 10, 1, 1000000);
        opt.clients = static_cast<int>(args.getInt("clients", 2, 1, 4096));
        opt.seconds = args.getDouble("seconds", smoke ? 1.0 : 2.0, 0.001,
                                     86400.0);
        opt.insert_rate = args.getDouble("insert-rate",
                                         smoke ? 1500.0 : 2000.0, 0.0, 1e7);
        opt.delete_rate = args.getDouble("delete-rate",
                                         smoke ? 400.0 : 500.0, 0.0, 1e7);
        opt.merge_threshold = args.getInt("merge-threshold",
                                          smoke ? 256 : 1024, 1, 100000000);
    } catch (const ConfigError &err) {
        std::fprintf(stderr, "bench_live: %s\n%s", err.what(), kUsage);
        std::exit(2);
    }
    return opt;
}

/** A leg's read side: the clients' QPS plus the service's latencies. */
struct Leg {
    LoadResult load;
    ServiceStats::Snapshot snap;
};

/**
 * Serves one leg: closed-loop read clients for opt.seconds (duration
 * based, so the legs compare whatever their throughput) alongside
 * @p writes, gated on loadgen's conservation predicate.
 */
Leg
serveLeg(SearchService &service, FloatMatrixView queries,
         const Options &opt, const char *name, int &failures,
         const WriteLoad &writes = {})
{
    LoadSpec spec;
    spec.clients = opt.clients;
    spec.k = opt.k;
    spec.duration_s = opt.seconds;
    spec.writes = writes;
    service.start();
    Leg leg;
    leg.load = runLoad(service, queries, spec);
    service.stop();
    leg.snap = service.snapshot();
    std::string why;
    if (!conserved(leg.snap, leg.load, &why)) {
        std::fprintf(stderr, "CONSERVATION FAIL: %s leg: %s\n", name,
                     why.c_str());
        ++failures;
    }
    return leg;
}

void
writeJson(const std::string &path, const Options &opt, const Leg &base,
          const Leg &mixed, const LiveStats &live)
{
    std::ofstream out(path);
    if (!out) {
        std::fprintf(stderr, "cannot write %s\n", path.c_str());
        return;
    }
    auto leg = [&](const char *name, const Leg &r) {
        out << "  \"" << name << "\": {\"qps\": " << r.load.qps
            << ", \"completed\": " << r.load.reads.completed
            << ", \"p50_us\": " << r.snap.total_us.p50
            << ", \"p95_us\": " << r.snap.total_us.p95
            << ", \"p99_us\": " << r.snap.total_us.p99 << "}";
    };
    const WriteResult &w = mixed.load.writes;
    out << "{\n  \"bench\": \"live\",\n  \"build\": "
        << buildInfoJson() << ",\n  \"points\": " << opt.num_points
        << ",\n  \"insert_rate\": " << opt.insert_rate
        << ",\n  \"delete_rate\": " << opt.delete_rate << ",\n";
    leg("read_only", base);
    out << ",\n";
    leg("mixed", mixed);
    out << ",\n  \"read_overhead\": "
        << (base.load.qps > 0.0 ? mixed.load.qps / base.load.qps : 0.0)
        << ",\n  \"writer\": {\"inserts\": " << w.inserts
        << ", \"removes\": " << w.removes
        << ", \"rejected\": " << w.rejected << "},\n"
        << "  \"freshness_lag_us\": {\"probes\": " << w.probes
        << ", \"missed\": " << w.probes_missed;
    if (w.lag_us.count > 0)
        out << ", \"p50\": " << w.lag_us.p50
            << ", \"p95\": " << w.lag_us.p95
            << ", \"p99\": " << w.lag_us.p99
            << ", \"max\": " << w.lag_us.max;
    out << "},\n"
        << "  \"live\": {\"generation\": " << live.generation
        << ", \"generations_published\": "
        << live.generations_published
        << ", \"merges\": " << live.merges
        << ", \"live_count\": " << live.live_count << "}\n}\n";
    std::printf("snapshot written to %s\n", path.c_str());
}

} // namespace

int
main(int argc, char **argv)
{
    const Options opt = parseArgs(argc, argv);

    auto spec = bench::deepSpec(opt.num_points);
    const Dataset ds = makeDataset(spec);
    const std::string index_spec =
        "ivfflat:nlist=" +
        std::to_string(bench::clustersFor(opt.num_points)) +
        ",nprobe=8";

    ServiceConfig config;
    config.search_threads = bench::benchThreads();

    std::printf("dataset: %lld points dim %lld, spec %s, %d clients "
                "for %.1fs/leg, writes +%.0f/-%.0f per sec\n",
                static_cast<long long>(ds.base.rows()),
                static_cast<long long>(ds.base.cols()), index_spec.c_str(),
                opt.clients, opt.seconds, opt.insert_rate,
                opt.delete_rate);

    // Leg 1: read-only baseline over the frozen index.
    int failures = 0;
    Leg base;
    {
        SearchService service(
            buildIndex(ds.metric, ds.base.view(), index_spec), config);
        base = serveLeg(service, ds.queries.view(), opt, "read-only",
                        failures);
    }

    // Leg 2: the same read traffic over a LiveIndex while loadgen's
    // paced writer inserts and deletes. Its deletes only touch ids it
    // inserted, so the read workload's ground set never shrinks; every
    // 16th insert is a query-set row polled until visible (the
    // insert-to-first-visible-query lag).
    Leg mixed;
    LiveStats live;
    {
        LiveConfig lcfg;
        lcfg.merge_threshold = opt.merge_threshold;
        lcfg.fresh_capacity =
            std::max<idx_t>(4 * opt.merge_threshold, 4096);
        SearchService service(
            std::make_unique<LiveIndex>(ds.metric, ds.base.view(),
                                        index_spec, std::move(lcfg)),
            config);
        WriteLoad writes;
        writes.insert_rate = opt.insert_rate;
        writes.delete_rate = opt.delete_rate;
        writes.source = ds.base.view();
        mixed = serveLeg(service, ds.queries.view(), opt, "mixed",
                         failures, writes);
        live = service.liveStats();
    }
    const WriteResult &wr = mixed.load.writes;

    printBanner("Serving under live mutation");
    TablePrinter table({"leg", "read_QPS", "vs_read_only", "p50_us",
                        "p95_us", "p99_us"});
    for (const auto &[name, leg] : {std::pair{"read-only", &base},
                                    std::pair{"mixed r/w", &mixed}})
        table.addRow({name, TablePrinter::num(leg->load.qps),
                      TablePrinter::num(base.load.qps > 0.0
                                            ? leg->load.qps / base.load.qps
                                            : 0.0),
                      TablePrinter::num(leg->snap.total_us.p50),
                      TablePrinter::num(leg->snap.total_us.p95),
                      TablePrinter::num(leg->snap.total_us.p99)});
    table.print();
    std::printf("freshness lag (insert -> first visible query): "
                "%llu probes, %llu missed",
                static_cast<unsigned long long>(wr.probes),
                static_cast<unsigned long long>(wr.probes_missed));
    // No visible probe leaves no lag to summarise; the freshness gate
    // below reports that run.
    if (wr.lag_us.count > 0)
        std::printf(", p50 %.0fus p95 %.0fus p99 %.0fus max %.0fus",
                    wr.lag_us.p50, wr.lag_us.p95, wr.lag_us.p99,
                    wr.lag_us.max);
    std::printf("\nwriter: +%llu -%llu (%llu rejected); live: "
                "generation %llu, %llu published, %llu merges, "
                "%lld ids live\n",
                static_cast<unsigned long long>(wr.inserts),
                static_cast<unsigned long long>(wr.removes),
                static_cast<unsigned long long>(wr.rejected),
                static_cast<unsigned long long>(live.generation),
                static_cast<unsigned long long>(
                    live.generations_published),
                static_cast<unsigned long long>(live.merges),
                static_cast<long long>(live.live_count));

    if (!opt.json_path.empty())
        writeJson(opt.json_path, opt, base, mixed, live);

    if (wr.probes == 0 || wr.probes_missed != 0) {
        std::fprintf(stderr,
                     "FRESHNESS FAIL: %llu of %llu probes never "
                     "became visible\n",
                     static_cast<unsigned long long>(wr.probes_missed),
                     static_cast<unsigned long long>(wr.probes));
        ++failures;
    }
    if (live.generations_published == 0) {
        std::fprintf(stderr,
                     "MERGE FAIL: no generation published during the "
                     "mixed leg (write traffic below the threshold?)\n");
        ++failures;
    }
    if (failures != 0) {
        std::fprintf(stderr, "\n%s FAIL: %d gate violations\n",
                     opt.smoke ? "SMOKE" : "BENCH", failures);
        return 1;
    }
    if (opt.smoke)
        std::printf("\nSMOKE PASS: every probe visible, %llu "
                    "generations published under load\n",
                    static_cast<unsigned long long>(
                        live.generations_published));
    else
        std::printf("\npaper context: JUNO's index is frozen at build "
                    "time; this leg shows the serving layer absorbing "
                    "updates with freshness bounded by one query "
                    "latency instead of a rebuild.\n");
    return 0;
}
