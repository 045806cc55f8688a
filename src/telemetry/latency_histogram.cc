#include "telemetry/latency_histogram.h"

#include <algorithm>
#include <bit>
#include <cmath>

namespace sol::telemetry {

std::size_t
LatencyHistogram::BucketIndex(std::uint64_t value_ns)
{
    if (value_ns < kSubBuckets) {
        return static_cast<std::size_t>(value_ns);
    }
    const int log = 63 - std::countl_zero(value_ns);
    const int shift = log - kSubBits;
    const std::size_t sub =
        static_cast<std::size_t>(value_ns >> shift) - kSubBuckets;
    return kSubBuckets + static_cast<std::size_t>(shift) * kSubBuckets +
           sub;
}

std::uint64_t
LatencyHistogram::BucketRepresentative(std::size_t index)
{
    if (index < kSubBuckets) {
        return static_cast<std::uint64_t>(index);
    }
    const std::size_t rest = index - kSubBuckets;
    const std::size_t shift = rest / kSubBuckets;
    const std::size_t sub = rest % kSubBuckets;
    const std::uint64_t lower =
        static_cast<std::uint64_t>(kSubBuckets + sub) << shift;
    const std::uint64_t width = std::uint64_t{1} << shift;
    return lower + (width >> 1);
}

void
LatencyHistogram::Cover(std::size_t lo, std::size_t hi)
{
    std::size_t first = lo / kSubBuckets * kSubBuckets;
    std::size_t end = (hi / kSubBuckets + 1) * kSubBuckets;
    if (!buckets_.empty()) {
        first = std::min(first, first_);
        end = std::max(end, first_ + buckets_.size());
        if (first == first_ && end == first_ + buckets_.size()) {
            return;
        }
    }
    // Sized exactly: the run grows a few times in a histogram's life,
    // and most histograms never leave their first octaves.
    std::vector<std::uint64_t> grown(end - first);
    if (!buckets_.empty()) {
        std::copy(buckets_.begin(), buckets_.end(),
                  grown.begin() +
                      static_cast<std::ptrdiff_t>(first_ - first));
    }
    buckets_.swap(grown);
    first_ = first;
}

void
LatencyHistogram::Record(std::uint64_t value_ns)
{
    const std::size_t index = BucketIndex(value_ns);
    // Unsigned wrap-around makes an index below the run fail this too.
    if (index - first_ >= buckets_.size()) {
        Cover(index, index);
    }
    ++buckets_[index - first_];
    ++count_;
    sum_ += value_ns;
    min_ = std::min(min_, value_ns);
    max_ = std::max(max_, value_ns);
}

void
LatencyHistogram::Merge(const LatencyHistogram& other)
{
    if (other.count_ == 0) {
        return;
    }
    // Every sample of `other` lies in [min_, max_], so only the buckets
    // between theirs can be non-zero: an agent's epochs span a few
    // octaves, a dozen or so of the 496 buckets. Covering those (not
    // other's whole run) means a merge whose samples already lie in
    // this run allocates nothing; a self-merge never reallocates.
    const std::size_t lo = BucketIndex(other.min_);
    const std::size_t hi = BucketIndex(other.max_);
    Cover(lo, hi);
    for (std::size_t i = lo; i <= hi; ++i) {
        buckets_[i - first_] += other.buckets_[i - other.first_];
    }
    count_ += other.count_;
    sum_ += other.sum_;
    min_ = std::min(min_, other.min_);
    max_ = std::max(max_, other.max_);
}

void
LatencyHistogram::Reset()
{
    std::fill(buckets_.begin(), buckets_.end(), 0);
    count_ = 0;
    sum_ = 0;
    min_ = ~std::uint64_t{0};
    max_ = 0;
}

std::uint64_t
LatencyHistogram::ValueAtPercentile(double p) const
{
    if (count_ == 0) {
        return 0;
    }
    const double clamped = std::clamp(p, 0.0, 100.0);
    auto rank = static_cast<std::uint64_t>(
        std::ceil(clamped / 100.0 * static_cast<double>(count_)));
    rank = std::clamp<std::uint64_t>(rank, 1, count_);

    std::uint64_t cumulative = 0;
    for (std::size_t i = 0; i < buckets_.size(); ++i) {
        cumulative += buckets_[i];
        if (cumulative >= rank) {
            return std::clamp(BucketRepresentative(first_ + i), min_,
                              max_);
        }
    }
    return max_;
}

LatencySnapshot
LatencyHistogram::Snapshot() const
{
    LatencySnapshot snapshot;
    snapshot.count = count_;
    snapshot.sum_ns = sum_;
    snapshot.min_ns = min_ns();
    snapshot.max_ns = max_ns();
    snapshot.p50_ns = ValueAtPercentile(50.0);
    snapshot.p90_ns = ValueAtPercentile(90.0);
    snapshot.p99_ns = ValueAtPercentile(99.0);
    snapshot.p999_ns = ValueAtPercentile(99.9);
    return snapshot;
}

}  // namespace sol::telemetry
