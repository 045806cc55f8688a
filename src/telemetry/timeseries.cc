#include "telemetry/timeseries.h"

#include <stdexcept>


namespace sol::telemetry {

TimeSeries::TimeSeries(std::size_t capacity)
    : ring_(capacity == 0 ? 1 : capacity)
{
}

void
TimeSeries::Append(sim::TimePoint at, std::int64_t value)
{
    if (count_ > 0 && at < Latest().at) {
        throw std::invalid_argument(
            "TimeSeries::Append timestamps must be non-decreasing");
    }
    if (count_ == ring_.size()) {
        // Full: overwrite the oldest slot (keep the tail of the run).
        ring_[head_] = TimeSample{at, value};
        head_ = (head_ + 1) % ring_.size();
    } else {
        ring_[(head_ + count_) % ring_.size()] = TimeSample{at, value};
        ++count_;
    }
    ++appended_;
}

TimeSample
TimeSeries::at(std::size_t i) const
{
    return ring_[(head_ + i) % ring_.size()];
}

TimeSample
TimeSeries::Latest() const
{
    return at(count_ - 1);
}

bool
TimeSeries::ValueAt(sim::TimePoint t, std::int64_t* value) const
{
    // Binary search over the (time-ordered) retained window for the
    // last sample with at <= t.
    if (count_ == 0 || at(0).at > t) {
        return false;
    }
    std::size_t lo = 0;
    std::size_t hi = count_ - 1;
    while (lo < hi) {
        const std::size_t mid = lo + (hi - lo + 1) / 2;
        if (at(mid).at <= t) {
            lo = mid;
        } else {
            hi = mid - 1;
        }
    }
    *value = at(lo).value;
    return true;
}

bool
TimeSeries::DeltaOver(sim::TimePoint t, sim::Duration lookback,
                      std::int64_t* delta) const
{
    std::int64_t now_value = 0;
    std::int64_t then_value = 0;
    if (!ValueAt(t, &now_value) || !ValueAt(t - lookback, &then_value)) {
        return false;
    }
    *delta = now_value - then_value;
    return true;
}

TimeSeriesStore::TimeSeriesStore(std::size_t series_capacity)
    : series_capacity_(series_capacity == 0 ? 1 : series_capacity)
{
}

void
TimeSeriesStore::Append(const std::string& name, sim::TimePoint at,
                        std::int64_t value)
{
    auto it = series_.find(name);
    if (it == series_.end()) {
        it = series_.emplace(name, TimeSeries(series_capacity_)).first;
    }
    it->second.Append(at, value);
}

const TimeSeries*
TimeSeriesStore::Find(const std::string& name) const
{
    const auto it = series_.find(name);
    return it == series_.end() ? nullptr : &it->second;
}

bool
TimeSeriesStore::ValueAt(const std::string& name, sim::TimePoint t,
                         std::int64_t* value) const
{
    const TimeSeries* series = Find(name);
    return series != nullptr && series->ValueAt(t, value);
}

std::uint64_t
TimeSeriesStore::total_appended() const
{
    std::uint64_t total = 0;
    for (const auto& [name, series] : series_) {
        total += series.total_appended();
    }
    return total;
}

void
TimeSeriesStore::VisitSeries(
    const std::function<void(const std::string&, const TimeSeries&)>& fn)
    const
{
    for (const auto& [name, series] : series_) {
        fn(name, series);
    }
}

namespace {

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;
constexpr std::uint64_t kFnvPrime = 0x100000001b3ULL;

void
FnvMix(std::uint64_t& hash, std::uint64_t value)
{
    for (int i = 0; i < 8; ++i) {
        hash ^= (value >> (i * 8)) & 0xff;
        hash *= kFnvPrime;
    }
}

}  // namespace

std::uint64_t
TimeSeriesStore::timeline_hash() const
{
    std::uint64_t hash = kFnvOffset;
    for (const auto& [name, series] : series_) {
        for (const char c : name) {
            hash ^= static_cast<unsigned char>(c);
            hash *= kFnvPrime;
        }
        FnvMix(hash, series.total_appended());
        for (std::size_t i = 0; i < series.size(); ++i) {
            const TimeSample sample = series.at(i);
            FnvMix(hash, static_cast<std::uint64_t>(sample.at.count()));
            FnvMix(hash, static_cast<std::uint64_t>(sample.value));
        }
    }
    return hash;
}

void
TimeSeriesStore::Clear()
{
    series_.clear();
}

}  // namespace sol::telemetry
