/**
 * @file
 * Named metric collection for experiments and runtime introspection.
 *
 * Benchmarks accumulate counters/gauges/series/latency-histograms here
 * and render them as aligned tables (the rows the paper's figures
 * plot), CSV, or JSON. Multi-agent harnesses namespace their metrics
 * per agent/node with MetricScope, and every bench binary emits a
 * machine-readable BENCH_<name>.json alongside its human tables via
 * BenchJson so figure data stays diffable across PRs.
 *
 * A MetricRegistry is single-threaded by design: every hot-path writer
 * owns its registry exclusively and snapshots flow upward through
 * MergeFrom at collection points (SharedMetricRegistry adds one lock
 * for concurrent producers). Lookups of unknown
 * names are non-mutating and well-defined: Counter/Gauge return 0,
 * Series returns an empty vector, Histogram returns an empty
 * histogram; use HasCounter/HasGauge/HasSeries/HasHistogram to
 * distinguish "absent" from "zero".
 */
#pragma once

#include <cstdint>
#include <map>
#include <ostream>
#include <string>
#include <utility>
#include <vector>

#include "core/sync.h"
#include "core/thread_annotations.h"
#include "telemetry/latency_histogram.h"

namespace sol::telemetry {

/** One (x, y) point in a reported series. */
struct SeriesPoint {
    double x;
    double y;
};

/** Registry of counters, gauges, series, and latency histograms keyed
 *  by name. */
class MetricRegistry
{
  public:
    /** Adds delta to a monotonically increasing counter. */
    void Increment(const std::string& name, std::uint64_t delta = 1);

    /**
     * Sets a counter to an absolute value. For publishers that keep
     * their own authoritative tally (e.g. atomic hot-path counters)
     * and flush snapshots into the registry: unlike Increment, a
     * repeated flush is idempotent.
     */
    void SetCounter(const std::string& name, std::uint64_t value);

    /** Sets a point-in-time value. */
    void SetGauge(const std::string& name, double value);

    /** Appends a point to a named series. */
    void AppendSeries(const std::string& name, double x, double y);

    /** Adds one nanosecond sample to a named latency histogram. */
    void RecordLatency(const std::string& name, std::uint64_t value_ns);

    /** Replaces a histogram with a snapshot (idempotent flush, the
     *  SetCounter idiom for distribution-owning publishers). */
    void SetHistogram(const std::string& name,
                      const LatencyHistogram& histogram);

    /** Bucket-wise adds a histogram into a named one. */
    void MergeHistogram(const std::string& name,
                        const LatencyHistogram& histogram);

    std::uint64_t Counter(const std::string& name) const;
    double Gauge(const std::string& name) const;

    /**
     * Series points for `name`. An unknown name returns a reference to
     * a shared empty vector (never inserts); this is part of the API
     * contract, not an accident — probing a series never mutates the
     * registry.
     */
    const std::vector<SeriesPoint>& Series(const std::string& name) const;

    /** Histogram for `name`; unknown names return a shared empty
     *  histogram (never inserts). */
    const LatencyHistogram& Histogram(const std::string& name) const;

    bool HasCounter(const std::string& name) const;
    bool HasGauge(const std::string& name) const;
    bool HasSeries(const std::string& name) const;
    bool HasHistogram(const std::string& name) const;

    /** Writes every counter, gauge, series, and histogram snapshot as
     *  one JSON object (histograms as integer-ns count/sum/min/max/
     *  p50/p90/p99/p999). */
    void WriteJson(std::ostream& os) const;

    /**
     * Merges another registry's metrics under `prefix + "."`: counters
     * add, gauges overwrite, series append, histograms bucket-wise add.
     */
    void MergeFrom(const MetricRegistry& other, const std::string& prefix);

    void Clear();

    const std::map<std::string, std::uint64_t>& counters() const
    {
        return counters_;
    }
    const std::map<std::string, double>& gauges() const { return gauges_; }
    const std::map<std::string, LatencyHistogram>& histograms() const
    {
        return histograms_;
    }

  private:
    std::map<std::string, std::uint64_t> counters_;
    std::map<std::string, double> gauges_;
    std::map<std::string, std::vector<SeriesPoint>> series_;
    std::map<std::string, LatencyHistogram> histograms_;
};

/**
 * Mutex-guarded MetricRegistry aggregation point for concurrent
 * producers.
 *
 * MetricRegistry itself is single-threaded by design (every hot-path
 * writer owns its registry exclusively). When several threads must
 * merge their metrics into one aggregate, SharedMetricRegistry is that
 * aggregation point — writers pay the lock once per merge, never per
 * event, and readers take a consistent snapshot by value. (The sharded
 * fleet no longer merges through it: each shard's stepping thread
 * copies its gauges into a per-shard slot, see
 * fleet::ShardedFleetRunner::WindowMetricsSnapshot.)
 *
 * Merge order across threads is not deterministic, so only
 * order-insensitive operations are exposed: counter merges add,
 * gauge/series merges overwrite *namespaced* keys (each producer owns
 * its prefix, so concurrent merges never overwrite each other's keys).
 *
 * Histogram merge rules: histograms merge by bucket-wise addition
 * (count/sum add, min/max extend), which is commutative and
 * associative — so unlike gauges, two producers *may* merge into the
 * same histogram key and the result is exact regardless of merge
 * order. Merging is equivalent to recording the concatenated samples.
 */
class SharedMetricRegistry
{
  public:
    /** Merges `other` under `prefix + "."` (thread-safe). */
    void
    MergeFrom(const MetricRegistry& other, const std::string& prefix)
    {
        core::MutexLock lock(mutex_);
        registry_.MergeFrom(other, prefix);
    }

    /** Adds delta to a counter (thread-safe). */
    void
    Increment(const std::string& name, std::uint64_t delta = 1)
    {
        core::MutexLock lock(mutex_);
        registry_.Increment(name, delta);
    }

    /** Copies the current aggregate out (thread-safe). */
    MetricRegistry
    Snapshot() const
    {
        core::MutexLock lock(mutex_);
        return registry_;
    }

    /** Drops every metric (thread-safe). */
    void
    Clear()
    {
        core::MutexLock lock(mutex_);
        registry_.Clear();
    }

  private:
    mutable core::Mutex mutex_;
    MetricRegistry registry_ SOL_GUARDED_BY(mutex_);
};

/**
 * Prefix-forwarding view of a MetricRegistry.
 *
 * Co-located agents and multi-node fleets share one registry; each
 * writer namespaces its metrics ("node0.smart-harvest.epochs") by going
 * through a scope. Scopes nest: Sub("x").Sub("y") writes "x.y.<name>".
 */
class MetricScope
{
  public:
    MetricScope(MetricRegistry& registry, std::string prefix)
        : registry_(registry), prefix_(std::move(prefix))
    {
    }

    void
    Increment(const std::string& name, std::uint64_t delta = 1)
    {
        registry_.Increment(Key(name), delta);
    }

    void
    SetCounter(const std::string& name, std::uint64_t value)
    {
        registry_.SetCounter(Key(name), value);
    }

    void
    SetGauge(const std::string& name, double value)
    {
        registry_.SetGauge(Key(name), value);
    }

    void
    AppendSeries(const std::string& name, double x, double y)
    {
        registry_.AppendSeries(Key(name), x, y);
    }

    void
    RecordLatency(const std::string& name, std::uint64_t value_ns)
    {
        registry_.RecordLatency(Key(name), value_ns);
    }

    void
    SetHistogram(const std::string& name,
                 const LatencyHistogram& histogram)
    {
        registry_.SetHistogram(Key(name), histogram);
    }

    void
    MergeHistogram(const std::string& name,
                   const LatencyHistogram& histogram)
    {
        registry_.MergeHistogram(Key(name), histogram);
    }

    std::uint64_t
    Counter(const std::string& name) const
    {
        return registry_.Counter(Key(name));
    }

    double
    Gauge(const std::string& name) const
    {
        return registry_.Gauge(Key(name));
    }

    /** Derives a nested scope. */
    MetricScope
    Sub(const std::string& prefix) const
    {
        return MetricScope(registry_, Key(prefix));
    }

    const std::string& prefix() const { return prefix_; }
    MetricRegistry& registry() { return registry_; }

  private:
    std::string
    Key(const std::string& name) const
    {
        return prefix_.empty() ? name : prefix_ + "." + name;
    }

    MetricRegistry& registry_;
    std::string prefix_;
};

/**
 * Fixed-column table writer for paper-style result rows.
 *
 * Usage:
 *   TableWriter t({"workload", "perf", "power"});
 *   t.AddRow({"Synthetic", "1.00", "0.52"});
 *   t.Print(std::cout);
 */
class TableWriter
{
  public:
    explicit TableWriter(std::vector<std::string> headers);

    void AddRow(std::vector<std::string> cells);
    void Print(std::ostream& os) const;

    /** Formats a double with fixed precision. */
    static std::string Num(double v, int precision = 3);

    const std::vector<std::string>& headers() const { return headers_; }
    const std::vector<std::vector<std::string>>& rows() const
    {
        return rows_;
    }

  private:
    std::vector<std::string> headers_;
    std::vector<std::vector<std::string>> rows_;
};

/**
 * Machine-readable companion of a bench binary's human output.
 *
 * Each bench registers the tables it prints (and, optionally, a metric
 * registry) and then writes BENCH_<name>.json next to the binary's
 * working directory, so per-figure data is diffable across commits:
 *
 *   TableWriter table(...);           // printed for humans as before
 *   BenchJson json("fig6_harvest_safeguards");
 *   json.AddTable("results", table);
 *   json.WriteFile();                 // -> BENCH_fig6_harvest_safeguards.json
 *
 * Cells that are JSON number literals are emitted as JSON numbers
 * that read back as the same value (integers digit for digit), so
 * downstream tooling can chart them without re-parsing strings; every
 * other cell stays a string. The output
 * directory can be overridden with the SOL_BENCH_JSON_DIR environment
 * variable; setting it to "-" disables file output.
 */
class BenchJson
{
  public:
    explicit BenchJson(std::string bench_name);

    /** Registers a printed table under a section name. */
    void AddTable(const std::string& section, const TableWriter& table);

    /** Registers a whole metric registry under a section name. */
    void AddMetrics(const std::string& section,
                    const MetricRegistry& registry);

    /** Serializes all registered sections as one JSON document. */
    void Write(std::ostream& os) const;

    /**
     * Writes BENCH_<name>.json and prints a one-line confirmation.
     *
     * @return false if the file could not be opened (the bench's human
     *   output is unaffected).
     */
    bool WriteFile() const;

  private:
    struct Section {
        std::string name;
        bool is_table = false;
        // Copied snapshots, so callers may discard the originals.
        std::vector<std::string> headers;
        std::vector<std::vector<std::string>> rows;
        MetricRegistry metrics;
    };

    std::string bench_name_;
    std::vector<Section> sections_;
};

}  // namespace sol::telemetry
