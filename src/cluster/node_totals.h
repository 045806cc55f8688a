/**
 * @file
 * What a node reports upward, and the one health-sample writer.
 *
 * NodeCore::AddTotalsTo is the only code that reads a node's counters
 * upward. A shard folds its nodes' totals, and fleet::ShardedFleetRunner
 * folds its shards' into Totals(), Stats(), its fleet metrics and its
 * per-window health partials; workloads::RunScenario reads Totals(). All
 * of it is exact integer sums and bucket-wise histogram adds, so totals
 * folded in any grouping equal one walk over every node.
 *
 * AppendHealthSample writes the health series a node and the fleet
 * both sample, from the same totals, so the two timelines cannot drift
 * apart.
 */
#pragma once

#include <cstdint>
#include <string>

#include "core/runtime_stats.h"
#include "sim/time.h"
#include "telemetry/latency_histogram.h"

namespace sol::cluster {

/** Roll-up of one node or of any group of nodes. */
struct NodeTotals {
    core::RuntimeStats stats;            ///< Every agent's counters.
    telemetry::LatencyHistogram epochs;  ///< Merged epoch durations (ns).
    std::uint64_t arbiter_requests = 0;
    std::uint64_t conflicts_observed = 0;
    std::uint64_t conflicts_resolved = 0;  ///< Denied by the arbiter.
    /** The synthetic actuators' arbiter-facing expand requests. */
    std::uint64_t expands_admitted = 0;
    std::uint64_t expands_denied = 0;
    std::uint64_t agents = 0;  ///< Real + synthetic.

    /** Adds another group's totals (shard partials into the fleet's). */
    void Accumulate(const NodeTotals& other);

    /** Zeroes the totals in place; the histogram keeps its storage, so
     *  a partial reused every sampled window stops allocating. */
    void Reset();
};

/**
 * Appends one health sample of `totals` at `at` to `store` (a
 * telemetry::TimeSeriesStore or SharedTimeSeriesStore): 12 counter
 * series named `prefix` + "safeguard.trips", "safeguard.mitigations",
 * "model.failures", "model.intercepted", "data.harvested",
 * "data.invalid", "epochs", "actions", "arbiter.requests",
 * "arbiter.denied", "agent.halted_ns" and "agent.active_ns" (agents x
 * elapsed virtual time, the error-budget denominator of time-fraction
 * SLOs), and the merged epoch latency as `latency_stem` + ".count",
 * ".p50_ns", ".p90_ns", ".p99_ns" and ".p999_ns".
 */
template <typename Store>
void
AppendHealthSample(Store& store, const std::string& prefix,
                   const std::string& latency_stem, sim::TimePoint at,
                   const NodeTotals& totals)
{
    const auto append = [&store, at](const std::string& name,
                                     std::uint64_t value) {
        store.Append(name, at, static_cast<std::int64_t>(value));
    };
    const core::RuntimeStats& stats = totals.stats;
    append(prefix + "safeguard.trips", stats.safeguard_triggers);
    append(prefix + "safeguard.mitigations", stats.mitigations);
    append(prefix + "model.failures", stats.failed_assessments);
    append(prefix + "model.intercepted", stats.intercepted_predictions);
    append(prefix + "data.harvested", stats.samples_collected);
    append(prefix + "data.invalid", stats.invalid_samples);
    append(prefix + "epochs", stats.epochs);
    append(prefix + "actions", stats.actions_taken);
    append(prefix + "arbiter.requests", totals.arbiter_requests);
    append(prefix + "arbiter.denied", totals.conflicts_resolved);
    append(prefix + "agent.halted_ns",
           static_cast<std::uint64_t>(stats.halted_time.count()));
    append(prefix + "agent.active_ns",
           totals.agents * static_cast<std::uint64_t>(at.count()));
    const telemetry::LatencySnapshot latency = totals.epochs.Snapshot();
    append(latency_stem + ".count", latency.count);
    append(latency_stem + ".p50_ns", latency.p50_ns);
    append(latency_stem + ".p90_ns", latency.p90_ns);
    append(latency_stem + ".p99_ns", latency.p99_ns);
    append(latency_stem + ".p999_ns", latency.p999_ns);
}

}  // namespace sol::cluster
