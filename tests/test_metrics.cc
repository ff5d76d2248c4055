/** @file Unit tests for the metrics registry and HistogramMetric
 * (obs/metrics.h). */
#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <thread>
#include <vector>

#include "common/logging.h"
#include "common/rng.h"
#include "common/stats.h"
#include "obs/metrics.h"

namespace juno {
namespace {

TEST(MetricsRegistry, InvalidNameThrows)
{
    MetricsRegistry reg;
    const auto zero = [] { return std::uint64_t{0}; };
    EXPECT_THROW(reg.counterCallback("juno test", "spaces", zero),
                 ConfigError);
    EXPECT_THROW(reg.gaugeCallback("", "empty", [] { return 0.0; }),
                 ConfigError);
    EXPECT_THROW(reg.summaryCallback("9starts_with_digit", "digit",
                                     [] { return HistogramSummary{}; }),
                 ConfigError);
    EXPECT_EQ(reg.size(), 0u);
}

TEST(MetricsRegistry, CallbackRegistrationIsRaii)
{
    MetricsRegistry reg;
    {
        auto handle = reg.counterCallback("juno_cb_total", "cb",
                                          [] { return 7u; });
        EXPECT_EQ(reg.size(), 1u);
        EXPECT_NE(reg.renderPrometheus().find("juno_cb_total 7"),
                  std::string::npos);
    }
    EXPECT_EQ(reg.size(), 0u);
}

TEST(MetricsRegistry, ReplacedRegistrationOldHandleNoOps)
{
    // Re-registering a name replaces the entry; the superseded
    // handle's destructor must not tear down the replacement.
    MetricsRegistry reg;
    auto first = reg.gaugeCallback("juno_cb_gauge", "cb",
                                   [] { return 1.0; });
    auto second = reg.gaugeCallback("juno_cb_gauge", "cb",
                                    [] { return 2.0; });
    first.release();
    EXPECT_EQ(reg.size(), 1u);
    EXPECT_NE(reg.renderPrometheus().find("juno_cb_gauge 2"),
              std::string::npos);
}

TEST(MetricsRegistry, PrometheusFormat)
{
    MetricsRegistry reg;
    auto req = reg.counterCallback("juno_req_total", "Requests",
                                   [] { return std::uint64_t{5}; });
    auto info = reg.info("juno_build_info", "Build",
                         {{"git_sha", "abc"}, {"compiler", "gcc"}});
    const std::string text = reg.renderPrometheus();
    EXPECT_NE(text.find("# HELP juno_req_total Requests\n"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE juno_req_total counter\n"),
              std::string::npos);
    EXPECT_NE(text.find("juno_req_total 5\n"), std::string::npos);
    EXPECT_NE(
        text.find(
            "juno_build_info{git_sha=\"abc\",compiler=\"gcc\"} 1\n"),
        std::string::npos);
    // Exposition ends with a newline (required by the text format).
    ASSERT_FALSE(text.empty());
    EXPECT_EQ(text.back(), '\n');
}

TEST(MetricsRegistry, SummaryCallbackRendersQuantiles)
{
    MetricsRegistry reg;
    auto handle = reg.summaryCallback("juno_lat_us", "Latency", [] {
        HistogramSummary s;
        s.count = 10;
        s.mean = 4.0;
        s.p50 = 3.0;
        s.p95 = 9.0;
        s.p99 = 9.9;
        s.max = 10.0;
        return s;
    });
    const std::string text = reg.renderPrometheus();
    EXPECT_NE(text.find("# TYPE juno_lat_us summary"),
              std::string::npos);
    EXPECT_NE(text.find("juno_lat_us{quantile=\"0.5\"} 3"),
              std::string::npos);
    EXPECT_NE(text.find("juno_lat_us_count 10"), std::string::npos);
}

TEST(MetricsRegistry, JsonExportParsesAsKeyValue)
{
    MetricsRegistry reg;
    auto a = reg.counterCallback("juno_a_total", "a",
                                 [] { return std::uint64_t{3}; });
    auto b = reg.gaugeCallback("juno_b", "b", [] { return 1.5; });
    const std::string json = reg.renderJson();
    EXPECT_EQ(json.front(), '{');
    EXPECT_EQ(json.back(), '}');
    EXPECT_NE(json.find("\"juno_a_total\":3"), std::string::npos);
    EXPECT_NE(json.find("\"juno_b\":1.5"), std::string::npos);
}

TEST(MetricsRegistry, ClearDropsEntriesAndHandlesNoOp)
{
    MetricsRegistry reg;
    auto handle =
        reg.counterCallback("juno_cb_total", "cb", [] { return 1u; });
    auto gauge =
        reg.gaugeCallback("juno_cb_gauge", "cb", [] { return 2.0; });
    reg.clear();
    EXPECT_EQ(reg.size(), 0u);
    handle.release(); // must not throw or resurrect anything
    gauge.release();
    EXPECT_EQ(reg.size(), 0u);
}

TEST(MetricsRegistry, GlobalIsSingleton)
{
    EXPECT_EQ(&MetricsRegistry::global(), &MetricsRegistry::global());
}

TEST(MetricsRegistry, LabeledCounterFamilySharesOneHelpTypeBlock)
{
    MetricsRegistry reg;
    std::uint64_t full = 3, expired = 9;
    auto r1 = reg.counterCallback("juno_shed_total",
                                  {{"reason", "queue_full"}}, "Shed",
                                  [&] { return full; });
    auto r2 = reg.counterCallback("juno_shed_total",
                                  {{"reason", "expired"}}, "Shed",
                                  [&] { return expired; });
    const std::string text = reg.renderPrometheus();
    // Both samples present, with their label sets...
    EXPECT_NE(text.find("juno_shed_total{reason=\"queue_full\"} 3"),
              std::string::npos);
    EXPECT_NE(text.find("juno_shed_total{reason=\"expired\"} 9"),
              std::string::npos);
    // ...under exactly one HELP and one TYPE line for the family (a
    // repeated TYPE for the same metric is an invalid exposition).
    auto countOf = [&](const std::string &needle) {
        std::size_t n = 0, pos = 0;
        while ((pos = text.find(needle, pos)) != std::string::npos) {
            ++n;
            pos += needle.size();
        }
        return n;
    };
    EXPECT_EQ(countOf("# TYPE juno_shed_total counter"), 1u);
    EXPECT_EQ(countOf("# HELP juno_shed_total"), 1u);
    // JSON export keys each sample by its full labeled name.
    const std::string json = reg.renderJson();
    EXPECT_NE(json.find("juno_shed_total{reason=\\\"expired\\\"}"),
              std::string::npos);
}

TEST(MetricsRegistry, LabeledCounterValidatesBaseNameOnly)
{
    MetricsRegistry reg;
    // The base must still be a legal metric name even though the full
    // key carries braces and quotes.
    EXPECT_THROW(reg.counterCallback("bad name", {{"a", "b"}}, "h",
                                     [] { return std::uint64_t{0}; }),
                 ConfigError);
    auto ok = reg.counterCallback("good_name", {{"a", "b"}}, "h",
                                  [] { return std::uint64_t{1}; });
    EXPECT_EQ(reg.size(), 1u);
}

// ---- HistogramMetric: the quantile contract, QuantileSketch as oracle ----

/** The nearest-rank sample x_(ceil(q*n)) of the oracle's stream. */
double
nearestRank(const QuantileSketch &oracle, double q)
{
    const auto n = static_cast<double>(oracle.count());
    const double rank = std::max(1.0, std::ceil(q * n));
    // Interpolation at an exact sample position returns that sample.
    return n == 1.0 ? oracle.quantile(0.0)
                    : oracle.quantile((rank - 1.0) / (n - 1.0));
}

/** Records @p xs into a histogram and the oracle, then checks the
 * contract: exact count/mean/max, p50/p95/p99 within 1% of the
 * nearest-rank sample. */
void
expectContract(const std::vector<double> &xs)
{
    HistogramMetric h;
    QuantileSketch oracle;
    for (const double x : xs) {
        h.observe(x);
        oracle.add(x);
    }
    const HistogramSummary s = h.summary();
    EXPECT_EQ(s.count, xs.size());
    EXPECT_DOUBLE_EQ(s.mean, oracle.mean());
    EXPECT_EQ(s.max, oracle.quantile(1.0));
    const struct {
        double q;
        double got;
    } quantiles[] = {{0.50, s.p50}, {0.95, s.p95}, {0.99, s.p99}};
    for (const auto &[q, got] : quantiles) {
        const double want = nearestRank(oracle, q);
        EXPECT_LE(std::abs(got - want), 0.01 * std::abs(want))
            << "q=" << q << " got " << got << " want " << want;
    }
}

TEST(HistogramMetric, EmptySummaryIsZero)
{
    const HistogramSummary s = HistogramMetric().summary();
    EXPECT_EQ(s.count, 0u);
    EXPECT_EQ(s.mean, 0.0);
    EXPECT_EQ(s.p99, 0.0);
    EXPECT_EQ(s.max, 0.0);
}

TEST(HistogramMetric, UniformMatchesNearestRank)
{
    std::vector<double> xs;
    for (int i = 1; i <= 1000; ++i)
        xs.push_back(static_cast<double>(i));
    expectContract(xs);
}

TEST(HistogramMetric, HeavyTailedLognormalMatchesNearestRank)
{
    Rng rng(11);
    std::vector<double> xs;
    for (int i = 0; i < 20000; ++i)
        xs.push_back(std::exp(4.0 + 2.5 * rng.gaussian()));
    expectContract(xs);
}

TEST(HistogramMetric, ConstantStreamIsExact)
{
    HistogramMetric h;
    QuantileSketch oracle;
    for (int i = 0; i < 777; ++i) {
        h.observe(123.456);
        oracle.add(123.456);
    }
    const HistogramSummary s = h.summary();
    EXPECT_EQ(s.count, 777u);
    EXPECT_EQ(s.p50, 123.456);
    EXPECT_EQ(s.p95, 123.456);
    EXPECT_EQ(s.p99, 123.456);
    EXPECT_EQ(s.max, 123.456);
    // The mean is the stream's sum over its count, rounding included.
    EXPECT_EQ(s.mean, oracle.mean());
}

TEST(HistogramMetric, ZerosAreExact)
{
    HistogramMetric h;
    for (int i = 0; i < 50; ++i)
        h.observe(0.0);
    const HistogramSummary s = h.summary();
    EXPECT_EQ(s.count, 50u);
    EXPECT_EQ(s.mean, 0.0);
    EXPECT_EQ(s.p50, 0.0);
    EXPECT_EQ(s.p99, 0.0);
    EXPECT_EQ(s.max, 0.0);
}

TEST(HistogramMetric, MixedExtremesMatchNearestRank)
{
    // 0.01 and 1e9 are eleven decades apart, both inside the range.
    std::vector<double> xs;
    for (int i = 0; i < 1000; ++i)
        xs.push_back(i % 10 < 9 ? 0.01 : 1e9);
    expectContract(xs);
    // And with the rare value at the median.
    xs.assign(500, 0.01);
    xs.insert(xs.end(), 501, 1e9);
    expectContract(xs);
}

TEST(HistogramMetric, OutOfRangeReportsMinAndMax)
{
    // Below 2^-20 and above 2^44 the under/overflow buckets report
    // the exact extremes.
    HistogramMetric h;
    for (int i = 0; i < 10; ++i) {
        h.observe(1e-9);
        h.observe(1e15);
    }
    h.observe(1e-9);
    const HistogramSummary s = h.summary();
    EXPECT_EQ(s.p50, 1e-9);
    EXPECT_EQ(s.p99, 1e15);
    EXPECT_EQ(s.max, 1e15);
}

TEST(HistogramMetric, ConcurrentRecordingLosesNothing)
{
    // The TSan leg runs this too: concurrent observe() calls and a
    // racing summary must be race-free, and the final summary must see
    // every observation.
    HistogramMetric h;
    constexpr int kThreads = 4;
    constexpr int kPerThread = 2000;
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t)
        threads.emplace_back([&, t] {
            for (int i = 0; i < kPerThread; ++i)
                h.observe(static_cast<double>(t * kPerThread + i + 1));
            if (t == 0)
                (void)h.summary();
        });
    for (auto &thread : threads)
        thread.join();
    constexpr int kTotal = kThreads * kPerThread;
    const HistogramSummary s = h.summary();
    EXPECT_EQ(s.count, static_cast<std::size_t>(kTotal));
    // 1..kTotal: integer sums are exact in a double, whatever order
    // the threads added them in.
    EXPECT_EQ(s.mean, (kTotal + 1) / 2.0);
    EXPECT_EQ(s.max, static_cast<double>(kTotal));
    EXPECT_NEAR(s.p50, kTotal / 2.0, 0.01 * kTotal / 2.0);
}

} // namespace
} // namespace juno
