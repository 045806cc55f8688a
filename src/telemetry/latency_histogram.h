/**
 * @file
 * Log-bucketed latency histogram: real distributions for the runtime's
 * hot-path durations.
 *
 * Until PR 7 the only latency the system reported was a single average
 * (the arbiter's lock_wait_ns() sum); tail behavior — the thing the
 * paper's safeguard story is about — was invisible. LatencyHistogram is
 * the HDR-style fix: values (nanoseconds) land in power-of-two ranges
 * split into 2^kSubBits linear sub-buckets, giving ~12.5% relative
 * bucket width over the full uint64 range, with O(1) recording (a
 * bit-scan and one increment).
 *
 * Storage is sparse: a histogram counts only the contiguous run of
 * buckets its samples have reached, and holds none until its first
 * sample. One agent's epochs reach about a dozen of the 496 buckets,
 * and every agent's engine holds a histogram (77 per node at the
 * paper's deployment shape), so a full array per agent would be most
 * of a node's footprint. The run grows by whole octaves (kSubBuckets
 * buckets) when a sample or a merge lands outside it. Once a
 * histogram has seen its range, recording into it, merging into it
 * and Reset() allocate nothing.
 *
 * Design constraints, in order:
 *   - Mergeable: bucket-wise addition, so per-agent histograms roll up
 *     to node and fleet distributions exactly (MetricRegistry::MergeFrom
 *     merges histograms this way; see SharedMetricRegistry's rules).
 *   - Deterministic: percentiles are integer bucket representatives
 *     computed only from the recorded values, so a simulated run's
 *     p99 is bit-reproducible and golden-testable.
 *   - Cheap enough for always-on: EpochEngine records every epoch's
 *     duration whether or not tracing is enabled.
 *
 * SharedLatencyHistogram wraps one histogram in a mutex for genuinely
 * concurrent producers (the arbiter's admit path under
 * track_contention); everything else records into thread-owned
 * histograms and merges at collection points.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <vector>

#include "core/sync.h"
#include "core/thread_annotations.h"

namespace sol::telemetry {

/** Percentile summary of one histogram (integer nanoseconds). */
struct LatencySnapshot {
    std::uint64_t count = 0;
    std::uint64_t sum_ns = 0;
    std::uint64_t min_ns = 0;
    std::uint64_t max_ns = 0;
    std::uint64_t p50_ns = 0;
    std::uint64_t p90_ns = 0;
    std::uint64_t p99_ns = 0;
    std::uint64_t p999_ns = 0;

    bool operator==(const LatencySnapshot&) const = default;
};

/** Mergeable log-bucketed histogram of nanosecond durations. */
class LatencyHistogram
{
  public:
    /** Linear sub-buckets per power-of-two range (8 => <=12.5% bucket
     *  width beyond the exact 0..7 range). */
    static constexpr int kSubBits = 3;
    static constexpr std::size_t kSubBuckets = std::size_t{1} << kSubBits;
    static constexpr std::size_t kNumBuckets =
        kSubBuckets + (64 - kSubBits) * kSubBuckets;

    // Copy-only: declaring the copies suppresses the implicit moves,
    // which would leave a source's counts without their buckets.
    LatencyHistogram() = default;
    LatencyHistogram(const LatencyHistogram&) = default;
    LatencyHistogram& operator=(const LatencyHistogram&) = default;

    /** Adds one sample (O(1); allocates only to grow the run). */
    void Record(std::uint64_t value_ns);

    /** Bucket-wise addition of another histogram (exact: merging then
     *  querying equals querying the concatenated samples). Touches only
     *  the buckets between `other`'s min and max, so its cost follows
     *  the spread of `other`'s samples, not kNumBuckets. */
    void Merge(const LatencyHistogram& other);

    /** Forgets every sample but keeps the run and its storage, so a
     *  histogram refilled over the same range does not allocate. */
    void Reset();

    std::uint64_t count() const { return count_; }
    std::uint64_t sum_ns() const { return sum_; }
    std::uint64_t min_ns() const { return count_ == 0 ? 0 : min_; }
    std::uint64_t max_ns() const { return max_; }
    bool empty() const { return count_ == 0; }

    /**
     * Value at percentile `p` (0..100): the representative (midpoint)
     * of the bucket containing the ceil(p/100 * count)-th sample,
     * clamped to the observed [min, max]. Deterministic integer
     * arithmetic; 0 when empty.
     */
    std::uint64_t ValueAtPercentile(double p) const;

    /** p50/p90/p99/p999 plus count/sum/min/max in one pass-friendly
     *  struct (the shape MetricRegistry::WriteJson emits). */
    LatencySnapshot Snapshot() const;

  private:
    static std::size_t BucketIndex(std::uint64_t value_ns);
    static std::uint64_t BucketRepresentative(std::size_t index);

    /** Widens the run, by whole octaves, to cover buckets [lo, hi]. */
    void Cover(std::size_t lo, std::size_t hi);

    /** Counts of buckets [first_, first_ + buckets_.size()), empty
     *  until the first sample. first_ and the run's length are whole
     *  octaves (multiples of kSubBuckets). */
    std::vector<std::uint64_t> buckets_;
    std::size_t first_ = 0;
    std::uint64_t count_ = 0;
    std::uint64_t sum_ = 0;
    std::uint64_t min_ = ~std::uint64_t{0};
    std::uint64_t max_ = 0;
};

/**
 * Mutex-guarded histogram for concurrent producers.
 *
 * The arbiter's admit path is called from every agent's actuator
 * thread; its latency histograms take this lock per sample. The
 * critical section is a bit-scan and five integer updates (plus, a few
 * times in the histogram's life, growing its run), so the lock costs
 * less than the clock reads that produce the sample (and the whole
 * path is gated behind track_contention).
 */
class SharedLatencyHistogram
{
  public:
    void
    Record(std::uint64_t value_ns)
    {
        core::MutexLock lock(mutex_);
        histogram_.Record(value_ns);
    }

    /** Copies the histogram out (thread-safe). */
    LatencyHistogram
    Histogram() const
    {
        core::MutexLock lock(mutex_);
        return histogram_;
    }

    LatencySnapshot
    Snapshot() const
    {
        core::MutexLock lock(mutex_);
        return histogram_.Snapshot();
    }

    void
    Reset()
    {
        core::MutexLock lock(mutex_);
        histogram_.Reset();
    }

  private:
    mutable core::Mutex mutex_;
    LatencyHistogram histogram_ SOL_GUARDED_BY(mutex_);
};

}  // namespace sol::telemetry
