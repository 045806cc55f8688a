/**
 * @file
 * Tests for the telemetry substrate: online stats, window percentiles,
 * metric registry, and table rendering.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <bit>
#include <cmath>
#include <cstdint>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "telemetry/latency_histogram.h"
#include "telemetry/metric_registry.h"
#include "telemetry/online_stats.h"
#include "telemetry/window_percentile.h"

namespace sol::telemetry {
namespace {

using sim::Millis;
using sim::Seconds;
using sim::TimePoint;

// ---------------------------------------------------------------------------
// OnlineStats
// ---------------------------------------------------------------------------

TEST(OnlineStatsTest, EmptyIsZero)
{
    OnlineStats stats;
    EXPECT_EQ(stats.count(), 0u);
    EXPECT_DOUBLE_EQ(stats.mean(), 0.0);
    EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
    EXPECT_DOUBLE_EQ(stats.min(), 0.0);
    EXPECT_DOUBLE_EQ(stats.max(), 0.0);
}

TEST(OnlineStatsTest, SingleValue)
{
    OnlineStats stats;
    stats.Add(5.0);
    EXPECT_EQ(stats.count(), 1u);
    EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
    EXPECT_DOUBLE_EQ(stats.variance(), 0.0);
    EXPECT_DOUBLE_EQ(stats.min(), 5.0);
    EXPECT_DOUBLE_EQ(stats.max(), 5.0);
}

TEST(OnlineStatsTest, MatchesClosedForm)
{
    OnlineStats stats;
    for (const double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0}) {
        stats.Add(x);
    }
    EXPECT_DOUBLE_EQ(stats.mean(), 5.0);
    // Sample variance with n-1 = 7: sum of squares = 32 -> 32/7.
    EXPECT_NEAR(stats.variance(), 32.0 / 7.0, 1e-12);
    EXPECT_NEAR(stats.stddev(), std::sqrt(32.0 / 7.0), 1e-12);
    EXPECT_DOUBLE_EQ(stats.min(), 2.0);
    EXPECT_DOUBLE_EQ(stats.max(), 9.0);
    EXPECT_DOUBLE_EQ(stats.sum(), 40.0);
}

TEST(OnlineStatsTest, NegativeValues)
{
    OnlineStats stats;
    stats.Add(-3.0);
    stats.Add(3.0);
    EXPECT_DOUBLE_EQ(stats.mean(), 0.0);
    EXPECT_DOUBLE_EQ(stats.min(), -3.0);
    EXPECT_DOUBLE_EQ(stats.max(), 3.0);
}

TEST(OnlineStatsTest, ResetClears)
{
    OnlineStats stats;
    stats.Add(1.0);
    stats.Add(2.0);
    stats.Reset();
    EXPECT_EQ(stats.count(), 0u);
    EXPECT_DOUBLE_EQ(stats.sum(), 0.0);
}

// ---------------------------------------------------------------------------
// Ewma
// ---------------------------------------------------------------------------

TEST(EwmaTest, SeedsWithFirstValue)
{
    Ewma ewma(0.1);
    EXPECT_TRUE(ewma.empty());
    ewma.Add(10.0);
    EXPECT_FALSE(ewma.empty());
    EXPECT_DOUBLE_EQ(ewma.value(), 10.0);
}

TEST(EwmaTest, ConvergesToConstant)
{
    Ewma ewma(0.3);
    ewma.Add(0.0);
    for (int i = 0; i < 100; ++i) {
        ewma.Add(8.0);
    }
    EXPECT_NEAR(ewma.value(), 8.0, 1e-6);
}

TEST(EwmaTest, AlphaOneTracksExactly)
{
    Ewma ewma(1.0);
    ewma.Add(1.0);
    ewma.Add(42.0);
    EXPECT_DOUBLE_EQ(ewma.value(), 42.0);
}

TEST(EwmaTest, ResetForgets)
{
    Ewma ewma(0.5);
    ewma.Add(100.0);
    ewma.Reset();
    EXPECT_TRUE(ewma.empty());
    ewma.Add(1.0);
    EXPECT_DOUBLE_EQ(ewma.value(), 1.0);
}

// ---------------------------------------------------------------------------
// SlidingWindow
// ---------------------------------------------------------------------------

TEST(SlidingWindowTest, FillsToCapacity)
{
    SlidingWindow window(3);
    window.Add(1.0);
    window.Add(2.0);
    EXPECT_FALSE(window.full());
    window.Add(3.0);
    EXPECT_TRUE(window.full());
    EXPECT_DOUBLE_EQ(window.Mean(), 2.0);
}

TEST(SlidingWindowTest, EvictsOldest)
{
    SlidingWindow window(3);
    for (const double x : {1.0, 2.0, 3.0, 10.0}) {
        window.Add(x);
    }
    EXPECT_DOUBLE_EQ(window.Mean(), 5.0);  // {10, 2, 3}.
}

TEST(SlidingWindowTest, QuantileNearestRank)
{
    SlidingWindow window(5);
    for (const double x : {5.0, 1.0, 4.0, 2.0, 3.0}) {
        window.Add(x);
    }
    EXPECT_DOUBLE_EQ(window.Quantile(0.0), 1.0);
    EXPECT_DOUBLE_EQ(window.Quantile(0.5), 3.0);
    EXPECT_DOUBLE_EQ(window.Quantile(1.0), 5.0);
}

TEST(SlidingWindowTest, EmptyQuantileIsZero)
{
    SlidingWindow window(4);
    EXPECT_DOUBLE_EQ(window.Quantile(0.9), 0.0);
    EXPECT_DOUBLE_EQ(window.Mean(), 0.0);
}

// ---------------------------------------------------------------------------
// WindowPercentile
// ---------------------------------------------------------------------------

TEST(WindowPercentileTest, QuantileOverWindow)
{
    WindowPercentile wp(Seconds(10));
    for (int i = 1; i <= 10; ++i) {
        wp.Add(Seconds(i), static_cast<double>(i));
    }
    EXPECT_DOUBLE_EQ(wp.Quantile(Seconds(10), 1.0), 10.0);
    EXPECT_DOUBLE_EQ(wp.Quantile(Seconds(10), 0.0), 1.0);
}

TEST(WindowPercentileTest, OldSamplesEvicted)
{
    WindowPercentile wp(Seconds(5));
    wp.Add(Seconds(0), 100.0);
    wp.Add(Seconds(8), 1.0);
    // At t=10 the window is (5, 10]; the t=0 sample is gone.
    EXPECT_DOUBLE_EQ(wp.Quantile(Seconds(10), 1.0), 1.0);
    EXPECT_EQ(wp.Count(Seconds(10)), 1u);
}

TEST(WindowPercentileTest, P90OfMixedSamples)
{
    WindowPercentile wp(Seconds(100));
    // 95 low samples and 5 high ones: P90 should stay low.
    for (int i = 0; i < 95; ++i) {
        wp.Add(Millis(i * 100), 0.01);
    }
    for (int i = 95; i < 100; ++i) {
        wp.Add(Millis(i * 100), 0.99);
    }
    EXPECT_LT(wp.Quantile(Seconds(10), 0.9), 0.5);
    // 20 high samples tip the P90 over.
    for (int i = 100; i < 120; ++i) {
        wp.Add(Millis(i * 100), 0.99);
    }
    EXPECT_GT(wp.Quantile(Seconds(12), 0.9), 0.5);
}

TEST(WindowPercentileTest, EmptyReturnsZero)
{
    WindowPercentile wp(Seconds(1));
    EXPECT_DOUBLE_EQ(wp.Quantile(Seconds(5), 0.9), 0.0);
}

TEST(WindowPercentileTest, ResetClears)
{
    WindowPercentile wp(Seconds(10));
    wp.Add(Seconds(1), 5.0);
    wp.Reset();
    EXPECT_EQ(wp.Count(Seconds(1)), 0u);
}

// ---------------------------------------------------------------------------
// MetricRegistry and TableWriter
// ---------------------------------------------------------------------------

TEST(MetricRegistryTest, CountersAccumulate)
{
    MetricRegistry registry;
    registry.Increment("a");
    registry.Increment("a", 4);
    EXPECT_EQ(registry.Counter("a"), 5u);
    EXPECT_EQ(registry.Counter("missing"), 0u);
}

TEST(MetricRegistryTest, GaugesOverwrite)
{
    MetricRegistry registry;
    registry.SetGauge("g", 1.5);
    registry.SetGauge("g", 2.5);
    EXPECT_DOUBLE_EQ(registry.Gauge("g"), 2.5);
    EXPECT_TRUE(registry.HasGauge("g"));
    EXPECT_FALSE(registry.HasGauge("missing"));
}

TEST(MetricRegistryTest, SeriesAppend)
{
    MetricRegistry registry;
    registry.AppendSeries("s", 1.0, 10.0);
    registry.AppendSeries("s", 2.0, 20.0);
    const auto& series = registry.Series("s");
    ASSERT_EQ(series.size(), 2u);
    EXPECT_DOUBLE_EQ(series[1].y, 20.0);
    EXPECT_TRUE(registry.Series("missing").empty());
}

TEST(MetricRegistryTest, ClearRemovesEverything)
{
    MetricRegistry registry;
    registry.Increment("c");
    registry.SetGauge("g", 1.0);
    registry.AppendSeries("s", 0.0, 0.0);
    registry.Clear();
    EXPECT_EQ(registry.Counter("c"), 0u);
    EXPECT_FALSE(registry.HasGauge("g"));
    EXPECT_TRUE(registry.Series("s").empty());
}

TEST(TableWriterTest, RejectsMismatchedRow)
{
    TableWriter table({"a", "b"});
    EXPECT_THROW(table.AddRow({"only-one"}), std::invalid_argument);
}

TEST(TableWriterTest, RendersAlignedColumns)
{
    TableWriter table({"name", "value"});
    table.AddRow({"x", "1"});
    table.AddRow({"longer-name", "2"});
    std::ostringstream out;
    table.Print(out);
    const std::string text = out.str();
    EXPECT_NE(text.find("longer-name"), std::string::npos);
    EXPECT_NE(text.find("name"), std::string::npos);
    // Header separator present.
    EXPECT_NE(text.find("|--"), std::string::npos);
}

TEST(TableWriterTest, NumFormatsPrecision)
{
    EXPECT_EQ(TableWriter::Num(1.23456, 2), "1.23");
    EXPECT_EQ(TableWriter::Num(2.0, 0), "2");
}

// ---------------------------------------------------------------------------
// MetricScope namespacing and registry merging (multi-agent accounting)
// ---------------------------------------------------------------------------

TEST(MetricScopeTest, PrefixesEveryMetricKind)
{
    MetricRegistry registry;
    MetricScope scope(registry, "node0");
    scope.Increment("epochs", 3);
    scope.SetGauge("p99", 1.5);
    scope.AppendSeries("trace", 1.0, 2.0);

    EXPECT_EQ(registry.Counter("node0.epochs"), 3u);
    EXPECT_EQ(registry.Gauge("node0.p99"), 1.5);
    ASSERT_EQ(registry.Series("node0.trace").size(), 1u);
    EXPECT_EQ(scope.Counter("epochs"), 3u);
    EXPECT_EQ(scope.Gauge("p99"), 1.5);
}

TEST(MetricScopeTest, SubScopesNest)
{
    MetricRegistry registry;
    MetricScope agent = MetricScope(registry, "node1").Sub("harvest");
    agent.Increment("denied");
    EXPECT_EQ(registry.Counter("node1.harvest.denied"), 1u);
}

TEST(MetricRegistryTest, MergeFromNamespacesAndAccumulates)
{
    MetricRegistry node;
    node.Increment("epochs", 5);
    node.SetGauge("p99", 2.0);
    node.AppendSeries("trace", 0.0, 1.0);

    MetricRegistry fleet;
    fleet.MergeFrom(node, "node3");
    fleet.MergeFrom(node, "node3");  // Counters accumulate on re-merge.
    EXPECT_EQ(fleet.Counter("node3.epochs"), 10u);
    EXPECT_EQ(fleet.Gauge("node3.p99"), 2.0);
    EXPECT_EQ(fleet.Series("node3.trace").size(), 2u);
}

// ---------------------------------------------------------------------------
// JSON output (the machine-readable bench companion)
// ---------------------------------------------------------------------------

TEST(MetricRegistryTest, WriteJsonEmitsAllMetricKinds)
{
    MetricRegistry registry;
    registry.Increment("runs", 2);
    registry.SetGauge("speedup", 1.25);
    registry.AppendSeries("curve", 1.0, 2.0);
    std::ostringstream out;
    registry.WriteJson(out);
    const std::string json = out.str();
    EXPECT_NE(json.find("\"runs\": 2"), std::string::npos);
    EXPECT_NE(json.find("\"speedup\": 1.25"), std::string::npos);
    EXPECT_NE(json.find("[[1,2]]"), std::string::npos);
}

TEST(BenchJsonTest, TablesSerializeWithNumericCells)
{
    TableWriter table({"workload", "perf"});
    table.AddRow({"image-dnn", "1.250"});
    table.AddRow({"moses", "n/a"});

    BenchJson json("fig_test");
    json.AddTable("results", table);
    std::ostringstream out;
    json.Write(out);
    const std::string text = out.str();
    EXPECT_NE(text.find("\"bench\": \"fig_test\""), std::string::npos);
    EXPECT_NE(text.find("\"headers\": [\"workload\",\"perf\"]"),
              std::string::npos);
    // Numeric-looking cells become JSON numbers, others stay strings.
    EXPECT_NE(text.find("[\"image-dnn\",1.25]"), std::string::npos);
    EXPECT_NE(text.find("[\"moses\",\"n/a\"]"), std::string::npos);
}

TEST(BenchJsonTest, CellsRoundTripOrStayStrings)
{
    // Each cell either reads back as the value it shows or stays the
    // exact string: integers digit for digit, other literals as the
    // shortest text of the same double.
    const struct {
        const char* cell;
        const char* written;
    } corpus[] = {
        {"1234567890123456", "1234567890123456"},
        {"18446744073709551615", "18446744073709551615"},
        {" 12", "\" 12\""},
        {"-0x1f", "\"-0x1f\""},
        {"0x1f", "\"0x1f\""},
        {"007", "\"007\""},
        {"0.1234567890123", "0.1234567890123"},
        {"+5", "\"+5\""},
        {"1e400", "\"1e400\""},
        {"1.250", "1.25"},
        {"-0.5", "-0.5"},
        {"2.5e-3", "0.0025"},
        {"12.", "\"12.\""},
        {".5", "\".5\""},
        {"", "\"\""},
    };
    for (const auto& c : corpus) {
        TableWriter table({"cell"});
        table.AddRow({c.cell});
        BenchJson json("fig_test");
        json.AddTable("results", table);
        std::ostringstream out;
        json.Write(out);
        EXPECT_NE(out.str().find("\n    [" + std::string(c.written) + "]"),
                  std::string::npos)
            << "cell '" << c.cell << "' written as:\n" << out.str();
    }
}

TEST(BenchJsonTest, MetricsSectionsEmbedRegistries)
{
    MetricRegistry registry;
    registry.Increment("conflicts", 4);
    BenchJson json("fig_test");
    json.AddMetrics("fleet", registry);
    std::ostringstream out;
    json.Write(out);
    EXPECT_NE(out.str().find("\"conflicts\": 4"), std::string::npos);
}

// ---------------------------------------------------------------------------
// LatencyHistogram
// ---------------------------------------------------------------------------

TEST(LatencyHistogramTest, EmptySnapshotIsZero)
{
    LatencyHistogram hist;
    EXPECT_TRUE(hist.empty());
    EXPECT_EQ(hist.count(), 0u);
    EXPECT_EQ(hist.min_ns(), 0u);
    EXPECT_EQ(hist.max_ns(), 0u);
    const LatencySnapshot snap = hist.Snapshot();
    EXPECT_EQ(snap.count, 0u);
    EXPECT_EQ(snap.p50_ns, 0u);
    EXPECT_EQ(snap.p999_ns, 0u);
}

TEST(LatencyHistogramTest, SmallValuesAreExact)
{
    // Values below the sub-bucket count land in unit-wide buckets.
    LatencyHistogram hist;
    for (std::uint64_t v = 0; v < 8; ++v) {
        hist.Record(v);
    }
    EXPECT_EQ(hist.count(), 8u);
    EXPECT_EQ(hist.min_ns(), 0u);
    EXPECT_EQ(hist.max_ns(), 7u);
    EXPECT_EQ(hist.ValueAtPercentile(1.0), 0u);
    EXPECT_EQ(hist.ValueAtPercentile(100.0), 7u);
}

TEST(LatencyHistogramTest, PercentilesWithinBucketError)
{
    // Log-bucketed with 8 sub-buckets: relative error <= 1/8 per value.
    LatencyHistogram hist;
    for (std::uint64_t v = 1; v <= 10'000; ++v) {
        hist.Record(v);
    }
    const std::uint64_t p50 = hist.ValueAtPercentile(50.0);
    EXPECT_GE(p50, 4'400u);
    EXPECT_LE(p50, 5'650u);
    const std::uint64_t p99 = hist.ValueAtPercentile(99.0);
    EXPECT_GE(p99, 8'700u);
    EXPECT_LE(p99, 10'000u);  // Clamped to the observed max.
    const std::uint64_t p100 = hist.ValueAtPercentile(100.0);
    EXPECT_GE(p100, 8'750u);  // Top bucket's representative...
    EXPECT_LE(p100, 10'000u);  // ...never above the observed max.
}

TEST(LatencyHistogramTest, PercentileClampedToObservedRange)
{
    LatencyHistogram hist;
    hist.Record(1'000'000);
    // A single sample: every percentile is that sample, not a bucket
    // representative above or below it.
    EXPECT_EQ(hist.ValueAtPercentile(0.0), 1'000'000u);
    EXPECT_EQ(hist.ValueAtPercentile(50.0), 1'000'000u);
    EXPECT_EQ(hist.ValueAtPercentile(99.9), 1'000'000u);
}

TEST(LatencyHistogramTest, MergeMatchesCombinedRecording)
{
    std::vector<std::uint64_t> spread_a;
    std::vector<std::uint64_t> spread_b;
    for (std::uint64_t v = 1; v <= 500; ++v) {
        spread_a.push_back(v * 3);
        spread_b.push_back(v * 7'919);
    }
    constexpr std::uint64_t kMax = ~std::uint64_t{0};
    struct Case {
        const char* name;
        std::vector<std::uint64_t> target;
        std::vector<std::uint64_t> other;
    };
    const std::vector<Case> cases = {
        {"overlapping spreads", spread_a, spread_b},
        {"exact buckets 0-7", {3, 9, 20, 1'000}, {0, 1, 2, 3, 4, 5, 6, 7}},
        {"into exact buckets", {0, 1, 2, 3, 4, 5, 6, 7}, {5, 8, 1'000}},
        // UINT64_MAX lands in the last bucket (495), above its bucket's
        // midpoint: a merge that skips other's top bucket would report
        // the clamped max instead of the bucket representative.
        {"sample at UINT64_MAX", {5, 100, 100'000}, {kMax}},
        {"top bucket of several", {5, 100}, {1'000, kMax - 1, kMax}},
        {"single-sample other", spread_a, {4'242}},
        {"empty other", spread_a, {}},
        {"empty target", {}, spread_b},
        {"disjoint, other above", {1, 2, 3, 10, 11}, {1u << 30, 3u << 30}},
        {"disjoint, other below", {1u << 30, 3u << 30}, {1, 2, 3, 10, 11}},
    };
    for (const Case& c : cases) {
        SCOPED_TRACE(c.name);
        LatencyHistogram a;
        LatencyHistogram b;
        LatencyHistogram combined;
        for (const std::uint64_t v : c.target) {
            a.Record(v);
            combined.Record(v);
        }
        for (const std::uint64_t v : c.other) {
            b.Record(v);
            combined.Record(v);
        }
        a.Merge(b);
        EXPECT_EQ(a.count(), combined.count());
        EXPECT_EQ(a.sum_ns(), combined.sum_ns());
        EXPECT_EQ(a.min_ns(), combined.min_ns());
        EXPECT_EQ(a.max_ns(), combined.max_ns());
        // Every rank, not a few percentiles: a dropped or misplaced
        // bucket anywhere shifts the answer at some rank.
        const std::uint64_t count = combined.count();
        EXPECT_EQ(a.ValueAtPercentile(0.0), combined.ValueAtPercentile(0.0));
        for (std::uint64_t k = 1; k <= count; ++k) {
            const double p = 100.0 * static_cast<double>(k) /
                             static_cast<double>(count);
            ASSERT_EQ(a.ValueAtPercentile(p), combined.ValueAtPercentile(p))
                << "rank " << k << " of " << count;
        }
    }
}

TEST(LatencyHistogramTest, ResetClears)
{
    LatencyHistogram hist;
    hist.Record(42);
    hist.Reset();
    EXPECT_TRUE(hist.empty());
    EXPECT_EQ(hist.ValueAtPercentile(50.0), 0u);
}

/**
 * The dense layout LatencyHistogram replaced: every bucket of the
 * uint64 range held by value. Kept only as the reference the sparse
 * run is checked against, bit for bit.
 */
class DenseHistogram
{
  public:
    static constexpr std::size_t kSubBuckets = 8;
    static constexpr std::size_t kNumBuckets = kSubBuckets + 61 * kSubBuckets;

    void
    Record(std::uint64_t value_ns)
    {
        ++buckets_[BucketIndex(value_ns)];
        ++count_;
        sum_ += value_ns;
        min_ = std::min(min_, value_ns);
        max_ = std::max(max_, value_ns);
    }

    void
    Merge(const DenseHistogram& other)
    {
        for (std::size_t i = 0; i < kNumBuckets; ++i) {
            buckets_[i] += other.buckets_[i];
        }
        count_ += other.count_;
        sum_ += other.sum_;
        min_ = std::min(min_, other.min_);
        max_ = std::max(max_, other.max_);
    }

    void Reset() { *this = DenseHistogram(); }

    std::uint64_t
    ValueAtPercentile(double p) const
    {
        if (count_ == 0) {
            return 0;
        }
        const double clamped = std::clamp(p, 0.0, 100.0);
        auto rank = static_cast<std::uint64_t>(
            std::ceil(clamped / 100.0 * static_cast<double>(count_)));
        rank = std::clamp<std::uint64_t>(rank, 1, count_);
        std::uint64_t cumulative = 0;
        for (std::size_t i = 0; i < kNumBuckets; ++i) {
            cumulative += buckets_[i];
            if (cumulative >= rank) {
                return std::clamp(BucketRepresentative(i), min_, max_);
            }
        }
        return max_;
    }

    LatencySnapshot
    Snapshot() const
    {
        return {count_,
                sum_,
                count_ == 0 ? 0 : min_,
                max_,
                ValueAtPercentile(50.0),
                ValueAtPercentile(90.0),
                ValueAtPercentile(99.0),
                ValueAtPercentile(99.9)};
    }

    std::uint64_t count() const { return count_; }

  private:
    static std::size_t
    BucketIndex(std::uint64_t value_ns)
    {
        if (value_ns < kSubBuckets) {
            return static_cast<std::size_t>(value_ns);
        }
        const int shift = 60 - std::countl_zero(value_ns);
        return kSubBuckets + static_cast<std::size_t>(shift) * kSubBuckets +
               static_cast<std::size_t>(value_ns >> shift) - kSubBuckets;
    }

    static std::uint64_t
    BucketRepresentative(std::size_t index)
    {
        if (index < kSubBuckets) {
            return index;
        }
        const std::size_t shift = (index - kSubBuckets) / kSubBuckets;
        const std::size_t sub = (index - kSubBuckets) % kSubBuckets;
        return (static_cast<std::uint64_t>(kSubBuckets + sub) << shift) +
               ((std::uint64_t{1} << shift) >> 1);
    }

    std::array<std::uint64_t, kNumBuckets> buckets_{};
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t min_ = ~std::uint64_t{0};
    std::uint64_t max_ = 0;
};

void
ExpectSameSnapshot(const LatencySnapshot& sparse,
                   const LatencySnapshot& dense)
{
    EXPECT_EQ(sparse.count, dense.count);
    EXPECT_EQ(sparse.sum_ns, dense.sum_ns);
    EXPECT_EQ(sparse.min_ns, dense.min_ns);
    EXPECT_EQ(sparse.max_ns, dense.max_ns);
    EXPECT_EQ(sparse.p50_ns, dense.p50_ns);
    EXPECT_EQ(sparse.p90_ns, dense.p90_ns);
    EXPECT_EQ(sparse.p99_ns, dense.p99_ns);
    EXPECT_EQ(sparse.p999_ns, dense.p999_ns);
}

TEST(LatencyHistogramTest, SparseRunMatchesDenseLayoutOnASeededStream)
{
    // One seeded stream drives eight sparse histograms and their dense
    // twins: records anywhere in the 64 octaves and clustered runs (an
    // agent's epochs), merges of random pairs (self, empty and disjoint
    // ones included), copies, fresh histograms that have no storage
    // yet, and resets followed by re-recording. Each step checks the
    // histogram it touched, at every rank while it is tiny and at the
    // top rank always, where a sample lost past the run's end shows;
    // checkpoints check every histogram, and every rank of the small
    // ones.
    constexpr std::size_t kHistograms = 8;
    constexpr int kSteps = 20'000;
    std::vector<LatencyHistogram> sparse(kHistograms);
    std::vector<DenseHistogram> dense(kHistograms);
    std::mt19937_64 rng(20221008u);
    const auto anywhere = [&rng] {
        const auto bits = static_cast<int>(rng() % 65);
        if (bits == 0) {
            return std::uint64_t{0};
        }
        const std::uint64_t top = std::uint64_t{1} << (bits - 1);
        return top | (rng() & (top - 1));
    };
    const auto check_ranks = [&](std::size_t h, std::uint64_t up_to) {
        const std::uint64_t count = dense[h].count();
        if (count > up_to) {
            return;
        }
        for (std::uint64_t k = 0; k <= count; ++k) {
            const double p = count == 0 ? 0.0
                                        : 100.0 * static_cast<double>(k) /
                                              static_cast<double>(count);
            ASSERT_EQ(sparse[h].ValueAtPercentile(p),
                      dense[h].ValueAtPercentile(p))
                << "histogram " << h << ", rank " << k << " of " << count;
        }
    };

    std::uint64_t merges = 0;
    std::uint64_t resets = 0;
    for (int step = 0; step < kSteps; ++step) {
        const std::size_t h = rng() % kHistograms;
        const std::uint64_t kind = rng() % 100;
        if (kind < 55) {
            const std::uint64_t value = anywhere();
            sparse[h].Record(value);
            dense[h].Record(value);
        } else if (kind < 75) {
            const std::uint64_t center = anywhere();
            const std::uint64_t spread = center / 16 + 1;
            for (std::uint64_t n = rng() % 40 + 1; n > 0; --n) {
                const std::uint64_t value = center - rng() % spread;
                sparse[h].Record(value);
                dense[h].Record(value);
            }
        } else if (kind < 90) {
            const std::uint64_t pick = rng() % 10;
            if (pick == 0) {
                sparse[h].Merge(LatencyHistogram());
                dense[h].Merge(DenseHistogram());
            } else {
                const std::size_t other =
                    pick == 1 ? h : rng() % kHistograms;
                sparse[h].Merge(sparse[other]);
                dense[h].Merge(dense[other]);
            }
            ++merges;
        } else if (kind < 93) {
            const std::size_t other = rng() % kHistograms;
            sparse[h] = sparse[other];
            dense[h] = dense[other];
        } else if (kind < 95) {
            sparse[h] = LatencyHistogram();
            dense[h] = DenseHistogram();
        } else {
            sparse[h].Reset();
            dense[h].Reset();
            ++resets;
        }
        ExpectSameSnapshot(sparse[h].Snapshot(), dense[h].Snapshot());
        EXPECT_EQ(sparse[h].ValueAtPercentile(100.0),
                  dense[h].ValueAtPercentile(100.0));
        check_ranks(h, 16);
        if (step % 100 == 99 || step == kSteps - 1) {
            for (std::size_t i = 0; i < kHistograms; ++i) {
                SCOPED_TRACE("step " + std::to_string(step));
                ExpectSameSnapshot(sparse[i].Snapshot(),
                                   dense[i].Snapshot());
                check_ranks(i, 64);
            }
        }
        if (HasFailure()) {
            FAIL() << "diverged at step " << step << ", histogram " << h;
        }
    }
    EXPECT_GT(merges, 2'000u);
    EXPECT_GT(resets, 400u);
}

TEST(SharedLatencyHistogramTest, RecordsThroughTheLock)
{
    SharedLatencyHistogram shared;
    shared.Record(100);
    shared.Record(200);
    const LatencyHistogram copy = shared.Histogram();
    EXPECT_EQ(copy.count(), 2u);
    EXPECT_EQ(copy.sum_ns(), 300u);
    shared.Reset();
    EXPECT_TRUE(shared.Histogram().empty());
}

// ---------------------------------------------------------------------------
// MetricRegistry: histograms + the unknown-name contract
// ---------------------------------------------------------------------------

TEST(MetricRegistryTest, HasCounterAndHasSeriesDistinguishMissing)
{
    MetricRegistry registry;
    registry.Increment("present", 0);  // Zero-valued but registered.
    registry.AppendSeries("curve", 1.0, 2.0);
    EXPECT_TRUE(registry.HasCounter("present"));
    EXPECT_FALSE(registry.HasCounter("absent"));
    EXPECT_TRUE(registry.HasSeries("curve"));
    EXPECT_FALSE(registry.HasSeries("absent"));
    // The unknown-name reads themselves return zero/empty...
    EXPECT_EQ(registry.Counter("absent"), 0u);
    EXPECT_TRUE(registry.Series("absent").empty());
    // ...and never materialize the name as a side effect.
    EXPECT_FALSE(registry.HasCounter("absent"));
    EXPECT_FALSE(registry.HasSeries("absent"));
}

TEST(MetricRegistryTest, HistogramsRecordMergeAndSnapshot)
{
    MetricRegistry registry;
    registry.RecordLatency("epoch_ns", 1'000);
    registry.RecordLatency("epoch_ns", 3'000);
    EXPECT_TRUE(registry.HasHistogram("epoch_ns"));
    EXPECT_FALSE(registry.HasHistogram("absent"));
    EXPECT_EQ(registry.Histogram("epoch_ns").count(), 2u);
    EXPECT_TRUE(registry.Histogram("absent").empty());

    LatencyHistogram more;
    more.Record(5'000);
    registry.MergeHistogram("epoch_ns", more);
    EXPECT_EQ(registry.Histogram("epoch_ns").count(), 3u);

    // SetHistogram overwrites (the idempotent-flush idiom).
    registry.SetHistogram("epoch_ns", more);
    EXPECT_EQ(registry.Histogram("epoch_ns").count(), 1u);
}

TEST(MetricRegistryTest, WriteJsonEmitsHistogramPercentiles)
{
    MetricRegistry registry;
    for (std::uint64_t v = 1; v <= 100; ++v) {
        registry.RecordLatency("admit_ns", v * 1'000);
    }
    std::ostringstream out;
    registry.WriteJson(out);
    const std::string json = out.str();
    EXPECT_NE(json.find("\"histograms\""), std::string::npos);
    EXPECT_NE(json.find("\"admit_ns\""), std::string::npos);
    EXPECT_NE(json.find("\"p50_ns\""), std::string::npos);
    EXPECT_NE(json.find("\"p99_ns\""), std::string::npos);
    EXPECT_NE(json.find("\"count\": 100"), std::string::npos);
}

TEST(MetricRegistryTest, MergeFromMergesHistogramsBucketwise)
{
    MetricRegistry node;
    node.RecordLatency("epoch_ns", 2'000);
    MetricRegistry fleet;
    fleet.RecordLatency("node0.epoch_ns", 1'000);
    fleet.MergeFrom(node, "node0");
    EXPECT_EQ(fleet.Histogram("node0.epoch_ns").count(), 2u);
    EXPECT_EQ(fleet.Histogram("node0.epoch_ns").sum_ns(), 3'000u);
}

TEST(MetricScopeTest, HistogramCallsPrefix)
{
    MetricRegistry registry;
    MetricScope scope(registry, "arbiter");
    scope.RecordLatency("lock_wait_ns", 500);
    EXPECT_TRUE(registry.HasHistogram("arbiter.lock_wait_ns"));
    LatencyHistogram replacement;
    replacement.Record(1);
    replacement.Record(2);
    scope.SetHistogram("lock_wait_ns", replacement);
    EXPECT_EQ(registry.Histogram("arbiter.lock_wait_ns").count(), 2u);
    scope.MergeHistogram("lock_wait_ns", replacement);
    EXPECT_EQ(registry.Histogram("arbiter.lock_wait_ns").count(), 4u);
}

// ---------------------------------------------------------------------------
// OnlineStats::Merge (Chan et al. parallel combination)
// ---------------------------------------------------------------------------

TEST(OnlineStatsMergeTest, MergeMatchesSequentialAccumulation)
{
    OnlineStats left;
    OnlineStats right;
    OnlineStats sequential;
    for (int i = 0; i < 50; ++i) {
        const double x = 3.5 * i - 40.0;
        left.Add(x);
        sequential.Add(x);
    }
    for (int i = 0; i < 37; ++i) {
        const double x = -0.25 * i * i + 7.0;
        right.Add(x);
        sequential.Add(x);
    }

    left.Merge(right);
    EXPECT_EQ(left.count(), sequential.count());
    EXPECT_NEAR(left.mean(), sequential.mean(), 1e-9);
    EXPECT_NEAR(left.variance(), sequential.variance(), 1e-6);
    EXPECT_DOUBLE_EQ(left.min(), sequential.min());
    EXPECT_DOUBLE_EQ(left.max(), sequential.max());
    EXPECT_NEAR(left.sum(), sequential.sum(), 1e-9);
}

TEST(OnlineStatsMergeTest, MergingEmptyIsIdentityBothWays)
{
    OnlineStats stats;
    stats.Add(1.0);
    stats.Add(3.0);

    OnlineStats empty;
    stats.Merge(empty);  // Right identity.
    EXPECT_EQ(stats.count(), 2u);
    EXPECT_DOUBLE_EQ(stats.mean(), 2.0);

    OnlineStats target;
    target.Merge(stats);  // Left identity: adopt other's state.
    EXPECT_EQ(target.count(), 2u);
    EXPECT_DOUBLE_EQ(target.mean(), 2.0);
    EXPECT_DOUBLE_EQ(target.min(), 1.0);
    EXPECT_DOUBLE_EQ(target.max(), 3.0);

    OnlineStats a;
    OnlineStats b;
    a.Merge(b);  // Empty + empty stays empty.
    EXPECT_EQ(a.count(), 0u);
    EXPECT_DOUBLE_EQ(a.mean(), 0.0);
}

TEST(OnlineStatsMergeTest, DistantMeansStayNumericallyStable)
{
    // The naive sum-of-squares formulation loses catastrophically when
    // two shards observe well-separated clusters; Chan's delta term
    // must not.
    OnlineStats low;
    OnlineStats high;
    OnlineStats sequential;
    for (int i = 0; i < 100; ++i) {
        low.Add(1e6 + i);
        sequential.Add(1e6 + i);
    }
    for (int i = 0; i < 100; ++i) {
        high.Add(-1e6 + i);
        sequential.Add(-1e6 + i);
    }
    low.Merge(high);
    EXPECT_NEAR(low.variance(), sequential.variance(),
                sequential.variance() * 1e-9);
}

// ---------------------------------------------------------------------------
// WindowPercentile edge cases
// ---------------------------------------------------------------------------

TEST(WindowPercentileTest, SingleSampleAnswersEveryQuantile)
{
    WindowPercentile tracker(Seconds(1));
    tracker.Add(TimePoint(Millis(100)), 42.0);
    EXPECT_DOUBLE_EQ(tracker.Quantile(TimePoint(Millis(100)), 0.0), 42.0);
    EXPECT_DOUBLE_EQ(tracker.Quantile(TimePoint(Millis(100)), 0.5), 42.0);
    EXPECT_DOUBLE_EQ(tracker.Quantile(TimePoint(Millis(100)), 1.0), 42.0);
    EXPECT_EQ(tracker.Count(TimePoint(Millis(100))), 1u);
}

TEST(WindowPercentileTest, EvictionBoundaryIsExclusive)
{
    // The window is (now - window, now]: a sample exactly `window` old
    // is evicted, one nanosecond younger survives.
    WindowPercentile tracker(Millis(100));
    tracker.Add(TimePoint(Millis(100)), 1.0);
    EXPECT_EQ(tracker.Count(TimePoint(Millis(200))), 1u);
    EXPECT_EQ(tracker.Count(TimePoint(Millis(200)) + sim::Duration(1)), 0u);
}

TEST(WindowPercentileTest, CountEvictsBeforeCounting)
{
    WindowPercentile tracker(Millis(100));
    for (int i = 0; i < 10; ++i) {
        tracker.Add(TimePoint(Millis(10 * i)), i);
    }
    // At 250ms only samples newer than 150ms remain: 160..190ms.
    EXPECT_EQ(tracker.Count(TimePoint(Millis(250))), 0u);
    tracker.Reset();
    for (int i = 0; i < 10; ++i) {
        tracker.Add(TimePoint(Millis(10 * i)), i);
    }
    EXPECT_EQ(tracker.Count(TimePoint(Millis(150))), 5u);
}

TEST(WindowPercentileTest, ExtremeValuesSurviveQuantiles)
{
    WindowPercentile tracker(Seconds(10));
    const double huge = 1e300;
    tracker.Add(TimePoint(Millis(1)), -huge);
    tracker.Add(TimePoint(Millis(2)), 0.0);
    tracker.Add(TimePoint(Millis(3)), huge);
    EXPECT_DOUBLE_EQ(tracker.Quantile(TimePoint(Millis(3)), 0.0), -huge);
    EXPECT_DOUBLE_EQ(tracker.Quantile(TimePoint(Millis(3)), 0.5), 0.0);
    EXPECT_DOUBLE_EQ(tracker.Quantile(TimePoint(Millis(3)), 1.0), huge);
}

}  // namespace
}  // namespace sol::telemetry
