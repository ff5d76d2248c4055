/**
 * @file
 * juno_perfbench: runs one workload of the repository benchmark.
 *
 *   juno_perfbench --workload juno-batch|pq-serve|live-mixed
 *                  --seed N --seconds S --trace 0|1 [--trace-dir DIR]
 *
 * Prints a provenance line, a report line holding every value the run
 * measured, and as the last line the result object run.py checks
 * against BENCHMARK.json: end-to-end metrics for --trace 0, per-layer
 * metrics for --trace 1. Exits 1 when any correctness check failed
 * (after printing), 2 on bad arguments.
 */
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <stdexcept>
#include <string>
#include <thread>

#include "common/build_info.h"
#include "common/parse.h"
#include "workloads.h"

using namespace perfbench;

namespace {

struct MetricDef {
    const char *name;
    const char *unit;
};

// Must list exactly BENCHMARK.json's "end_to_end" metrics (run.py checks).
// Every workload measures each of these; none can read 0.
constexpr MetricDef kEndToEnd[] = {
    {"setup_s", "s"},
    {"qps", "1/s"},
    {"recall", "fraction"},
    {"rss_mb", "MiB"},
};

// Must list exactly BENCHMARK.json's "per_layer" metrics. A layer a
// workload does not run reads 0 there.
constexpr MetricDef kPerLayer[] = {
    {"ivf.filter_us_per_q", "us"},
    {"core.lut_us_per_q", "us"},
    {"core.scan_us_per_q", "us"},
    {"core.lut_selected_frac", "fraction"},
    {"core.points_scanned_per_q", "count"},
    {"core.scan_ns_per_point", "ns"},
    {"rtcore.rays_per_q", "count"},
    {"rtcore.node_visits_per_q", "count"},
    {"rtcore.prim_tests_per_q", "count"},
    {"rtcore.hit_frac", "fraction"},
    {"engine.busy_frac", "fraction"},
    {"quant.lut_us_per_q", "us"},
    {"quant.scan_us_per_q", "us"},
    {"quant.codes_per_q", "count"},
    {"quant.scan_ns_per_code", "ns"},
    {"serve.submit_us.p50", "us"},
    {"serve.submit_us.p99", "us"},
    {"serve.queue_us.p50", "us"},
    {"serve.queue_us.p99", "us"},
    {"serve.batch_us.p50", "us"},
    {"serve.search_us.p50", "us"},
    {"serve.search_us.p99", "us"},
    {"serve.mean_batch", "count"},
    {"serve.shed_frac", "fraction"},
    {"serve.rss_growth_kb_per_kreq", "KiB/kreq"},
    {"live.insert_us.p99", "us"},
    {"live.remove_us.p99", "us"},
    {"live.upsert_us.p99", "us"},
    {"live.merges", "count"},
    {"live.merge_ms.p50", "ms"},
    {"live.fresh_rows.mean", "count"},
    {"live.tombstones.mean", "count"},
    {"live.rejected_full", "count"},
    {"fresh_p50_ms", "ms"},
    {"fresh_p99_ms", "ms"},
    {"write_p99_us", "us"},
    {"error_rate", "fraction"},
    {"loadgen.late_p99_us", "us"},
    {"traced.qps", "1/s"},
    {"lat_p50_ms", "ms"},
    {"lat_p99_ms", "ms"},
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "%s\nusage: juno_perfbench --workload "
                 "juno-batch|pq-serve|live-mixed --seed N --seconds S "
                 "--trace 0|1 [--trace-dir DIR]\n",
                 why);
    std::exit(2);
}

std::int64_t
intFlag(const std::string &flag, const std::string &value, std::int64_t lo,
        std::int64_t hi)
{
    const auto v = juno::parseInt64InRange(value, lo, hi);
    if (!v)
        usage((flag + " wants an integer in [" + std::to_string(lo) + ", " +
               std::to_string(hi) + "]")
                  .c_str());
    return *v;
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int a = 1; a < argc; ++a) {
        const std::string flag = argv[a];
        if (a + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const std::string value = argv[++a];
        if (flag == "--workload")
            args.workload = value;
        else if (flag == "--seed")
            args.seed = static_cast<std::uint64_t>(
                intFlag(flag, value, 0, INT64_MAX));
        else if (flag == "--seconds")
            args.seconds = static_cast<double>(intFlag(flag, value, 1, 600));
        else if (flag == "--trace")
            args.trace = intFlag(flag, value, 0, 1) == 1;
        else if (flag == "--trace-dir")
            args.trace_dir = value;
        else
            usage(("unknown flag " + flag).c_str());
    }
    if (args.workload.empty())
        usage("--workload is required");
    return args;
}

std::string
number(double v)
{
    char buf[64];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

std::string
metricJson(const MetricDef &m, double value)
{
    return "\"" + std::string(m.name) + "\": {\"value\": " + number(value) +
           ", \"unit\": \"" + m.unit + "\"}";
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    RunResult result;
    try {
        if (args.trace)
            std::filesystem::create_directories(args.trace_dir);
        if (args.workload == "juno-batch")
            runJunoBatch(args, result);
        else if (args.workload == "pq-serve")
            runPqServe(args, result);
        else if (args.workload == "live-mixed")
            runLiveMixed(args, result);
        else
            usage(("unknown workload " + args.workload).c_str());
    } catch (const std::exception &e) {
        std::fprintf(stderr, "run aborted: %s\n", e.what());
        return 1;
    }
    if (result.attempted == 0) {
        std::fprintf(stderr, "run attempted no operation\n");
        return 1;
    }
    result.set("error_rate", static_cast<double>(result.failed) /
                                 static_cast<double>(result.attempted));
    if (args.trace) {
        result.set("traced.qps", result.values.at("qps"));
    }

    // Provenance: no result is comparable across hosts, builds or seeds.
    std::string prov = "{\"provenance\": {\"workload\": \"" + args.workload +
                       "\", \"seed\": " + std::to_string(args.seed) +
                       ", \"seconds\": " + number(args.seconds) +
                       ", \"trace\": " + (args.trace ? "1" : "0") +
                       ", \"nproc\": " +
                       std::to_string(std::thread::hardware_concurrency()) +
                       ", \"build\": " + juno::buildInfoJson();
    for (const auto &[key, value] : result.params)
        prov += ", \"" + key + "\": " + value;
    std::printf("%s}}\n", prov.c_str());

    std::string report = "{\"report\": {";
    bool first = true;
    auto emit = [&](const MetricDef &m) {
        const auto it = result.values.find(m.name);
        if (it == result.values.end())
            return;
        report += (first ? "" : ", ") + metricJson(m, it->second);
        first = false;
    };
    for (const MetricDef &m : kEndToEnd)
        emit(m);
    for (const MetricDef &m : kPerLayer)
        emit(m);
    report += "}, \"violations\": [";
    for (std::size_t i = 0; i < result.violations.size(); ++i)
        report += (i ? ", \"" : "\"") + result.violations[i] + "\"";
    std::printf("%s]}\n", report.c_str());

    std::string metrics;
    if (args.trace) {
        for (const MetricDef &m : kPerLayer) {
            const auto it = result.values.find(m.name);
            metrics += (metrics.empty() ? "" : ", ") +
                       metricJson(m, it == result.values.end() ? 0.0
                                                               : it->second);
        }
    } else {
        for (const MetricDef &m : kEndToEnd) {
            const auto it = result.values.find(m.name);
            if (it == result.values.end() || !(it->second > 0.0)) {
                std::fprintf(stderr, "end-to-end metric %s missing or not "
                                     "positive\n",
                             m.name);
                return 1;
            }
            metrics += (metrics.empty() ? "" : ", ") + metricJson(m, it->second);
        }
    }
    for (const auto &kv : result.values) {
        bool known = false;
        for (const MetricDef &m : kEndToEnd)
            known = known || kv.first == m.name;
        for (const MetricDef &m : kPerLayer)
            known = known || kv.first == m.name;
        if (!known) {
            std::fprintf(stderr, "workload set undeclared metric %s\n",
                         kv.first.c_str());
            return 1;
        }
    }
    const bool correct = result.failed == 0 && result.violations.empty();
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(result.attempted),
                static_cast<unsigned long long>(result.failed),
                metrics.c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}
