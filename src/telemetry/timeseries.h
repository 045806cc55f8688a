/**
 * @file
 * Deterministic metric timelines: fixed-cadence virtual-time sampling
 * of counters, gauges, and histogram percentiles into ring-buffered
 * series.
 *
 * Until PR 9 the fleet exposed two temporal extremes: end-of-run
 * aggregates (BENCH_*.json behavior vectors) and raw per-event traces
 * (the PR 7 flight recorder). Neither answers the production question
 * "when did the invalid-data storm start hurting p99, and how long
 * until safeguards contained it?" — that needs periodic *timelines* of
 * every health metric, the thing a Prometheus scrape loop gives a real
 * control plane. TimeSeriesStore is that layer, built to the repo's
 * standing invariants:
 *
 *  - Deterministic: samples are taken at virtual-time boundaries the
 *    simulation already synchronizes on (fleet window boundaries, node
 *    driver ticks), carry virtual timestamps, and store integer
 *    values only. A scenario's full timeline — every series,
 *    every sample — is byte-identical across repeat runs and across
 *    1/2/8 fleet worker threads, fingerprinted by timeline_hash().
 *  - Observe-only: sampling never schedules events and never mutates
 *    the sampled state, so enabling a timeline leaves event-trace
 *    hashes byte-stable.
 *  - Bounded: each series is a fixed-capacity ring that keeps the
 *    *tail* (most recent samples) with an exact total_appended()
 *    count, so long fleet runs can sample forever in O(1) memory.
 *    (The flight recorder keeps the head of a run; a health timeline
 *    is the opposite — alerts ask about "now minus lookback".)
 *
 * telemetry::AlertEngine (alerting.h) evaluates SLO/alert rules over
 * these series.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <map>
#include <string>
#include <vector>

#include "core/sync.h"
#include "core/thread_annotations.h"
#include "sim/time.h"

namespace sol::telemetry {

/** One timeline point: a virtual timestamp and an integer value. */
struct TimeSample {
    sim::TimePoint at{0};
    std::int64_t value = 0;

    friend bool
    operator==(const TimeSample& a, const TimeSample& b)
    {
        return a.at == b.at && a.value == b.value;
    }
};

/**
 * Fixed-capacity ring of TimeSamples for one metric.
 *
 * Appends must carry non-decreasing timestamps (samples are taken at
 * monotonic virtual-time boundaries); queries exploit that order.
 * When full, appending evicts the oldest sample — the ring keeps the
 * most recent `capacity` samples and counts every append exactly.
 */
class TimeSeries
{
  public:
    explicit TimeSeries(std::size_t capacity);

    /** Appends one sample (O(1)); `at` must be >= the latest sample's
     *  timestamp. Evicts the oldest sample when full. */
    void Append(sim::TimePoint at, std::int64_t value);

    /** Samples currently retained (<= capacity). */
    std::size_t size() const { return count_; }
    std::size_t capacity() const { return ring_.size(); }
    bool empty() const { return count_ == 0; }

    /** Samples ever appended (retained + evicted). */
    std::uint64_t total_appended() const { return appended_; }

    /** Retained sample by index, 0 = oldest retained. @pre i < size(). */
    TimeSample at(std::size_t i) const;

    /** Most recent sample. @pre !empty(). */
    TimeSample Latest() const;

    /**
     * Value of the latest sample at or before `t`. Returns false when
     * no retained sample is that old (before the first sample, or
     * already evicted).
     */
    bool ValueAt(sim::TimePoint t, std::int64_t* value) const;

    /**
     * Change over the trailing window (t - lookback, t]: value at `t`
     * minus value at `t - lookback` (each resolved as the latest
     * sample at or before the instant). Returns false when either
     * endpoint has no retained sample — rate rules refuse to fire on
     * partial windows rather than extrapolate.
     */
    bool DeltaOver(sim::TimePoint t, sim::Duration lookback,
                   std::int64_t* delta) const;

  private:
    std::vector<TimeSample> ring_;
    std::size_t head_ = 0;  ///< Index of the oldest retained sample.
    std::size_t count_ = 0;
    std::uint64_t appended_ = 0;
};

/**
 * Named collection of TimeSeries sharing one per-series capacity.
 *
 * Single-threaded by design, like MetricRegistry: the sampling
 * boundary that writes it is always a single logical thread (the
 * thread calling the fleet runner's Run, between windows; a node's
 * driver). Use
 * SharedTimeSeriesStore when a live thread (a scrape handler) must
 * read while a driver samples.
 */
class TimeSeriesStore
{
  public:
    explicit TimeSeriesStore(std::size_t series_capacity = 1024);

    /** Appends one sample to `name` (creating the series on first
     *  use). Timestamps per series must be non-decreasing. */
    void Append(const std::string& name, sim::TimePoint at,
                std::int64_t value);

    /** Series by name; null when absent (never inserts — probing is
     *  non-mutating, the MetricRegistry contract). */
    const TimeSeries* Find(const std::string& name) const;

    /** Latest value of `name` at or before `t`; false when absent or
     *  not that old. */
    bool ValueAt(const std::string& name, sim::TimePoint t,
                 std::int64_t* value) const;

    std::size_t num_series() const { return series_.size(); }

    /** Total samples appended across every series. */
    std::uint64_t total_appended() const;

    /** Visits every series in name order (deterministic). */
    void VisitSeries(
        const std::function<void(const std::string&, const TimeSeries&)>&
            fn) const;

    /**
     * FNV-1a fingerprint over every series name and every retained
     * sample (name order): two stores with identical timelines hash
     * identically, so determinism gates compare one integer.
     */
    std::uint64_t timeline_hash() const;

    void Clear();

  private:
    std::size_t series_capacity_;
    std::map<std::string, TimeSeries> series_;
};

/**
 * Mutex-guarded TimeSeriesStore for concurrent producer/scraper pairs.
 *
 * The threaded node's driver samples its health timeline on the driver
 * thread while a live scrape (over Snapshot()) reads from another; this
 * wrapper is the SharedMetricRegistry idiom applied
 * to timelines — writers pay the lock per *sample* (10 Hz class, not
 * per event), readers take a consistent copy.
 */
class SharedTimeSeriesStore
{
  public:
    explicit SharedTimeSeriesStore(std::size_t series_capacity = 1024)
        : store_(series_capacity)
    {
    }

    void
    Append(const std::string& name, sim::TimePoint at, std::int64_t value)
    {
        core::MutexLock lock(mutex_);
        store_.Append(name, at, value);
    }

    /** Copies the current timelines out (thread-safe). */
    TimeSeriesStore
    Snapshot() const
    {
        core::MutexLock lock(mutex_);
        return store_;
    }

    std::uint64_t
    timeline_hash() const
    {
        core::MutexLock lock(mutex_);
        return store_.timeline_hash();
    }

    void
    Clear()
    {
        core::MutexLock lock(mutex_);
        store_.Clear();
    }

  private:
    mutable core::Mutex mutex_;
    TimeSeriesStore store_ SOL_GUARDED_BY(mutex_);
};

}  // namespace sol::telemetry
