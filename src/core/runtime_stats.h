/**
 * @file
 * Introspection counters exported by the SOL runtimes.
 *
 * These back both the experiment reports (how often safeguards fired,
 * how many predictions expired) and the operational monitoring a
 * production deployment would alert on. Both runtimes maintain them
 * through the shared core::EpochEngine, so the counters obey the same
 * identities everywhere (tests/runtime_parity_test.cc asserts
 * field-for-field equality between the runtimes):
 *
 *   epochs        = model_updates + short_circuit_epochs
 *   predictions_delivered = epochs
 *                 = actions_with_prediction + expired_predictions
 *                   + dropped_while_halted + still-queued
 *   actions_taken = actions_with_prediction + actuator_timeouts
 *
 * The counters are declared once, in BasicRuntimeStats, and listed
 * once more, in ForEachCounter; Accumulate, Snapshot, operator<< and
 * the node's per-agent gauges all walk that list, and a static_assert
 * below fails the build when a field is missing from it.
 */
#pragma once

#include <cstddef>
#include <cstdint>
#include <ostream>

#include "core/sync.h"
#include "sim/time.h"

namespace sol::core {

/**
 * Counters maintained by the runtime while an agent executes, over a
 * counter type and a time type: plain integers (RuntimeStats) or
 * relaxed atomics (AtomicRuntimeStats).
 */
template <typename Counter, typename Time>
struct BasicRuntimeStats {
    // Model loop.
    Counter samples_collected{};
    Counter invalid_samples{};   ///< Rejected by ValidateData.
    Counter epochs{};
    Counter model_updates{};
    Counter short_circuit_epochs{};  ///< Ended without enough data.
    Counter model_assessments{};
    Counter failed_assessments{};
    Counter intercepted_predictions{};  ///< Replaced by defaults.

    // Prediction flow.
    Counter predictions_delivered{};
    Counter default_predictions{};
    /** Evicted by the queue bound, or stale when dequeued. */
    Counter expired_predictions{};
    /** Dropped at delivery while actuation was halted, or flushed from
     *  the queue by a safeguard trigger. */
    Counter dropped_while_halted{};
    /** High-water mark of the bounded prediction queue. Compared against
     *  RuntimeOptions::max_queued_predictions it shows how close the
     *  agent runs to eviction (the queue-bound overflow path). */
    Counter peak_queued_predictions{};

    // Actuator loop.
    Counter actions_taken{};
    Counter actions_with_prediction{};
    /** Conservative TakeAction(empty) fallbacks: the actuation timeout
     *  fired without a prediction, or the queued one arrived stale. */
    Counter actuator_timeouts{};
    Counter actuator_assessments{};
    Counter safeguard_triggers{};  ///< Healthy -> failing edges.
    Counter mitigations{};         ///< Mitigate() invocations.
    Time halted_time{};            ///< Total time actuation halted.

    /**
     * Folds another agent's counters into this one (multi-agent
     * roll-ups): counters add, peaks take the maximum.
     */
    void Accumulate(const BasicRuntimeStats& other);

    /** Copies every field into plain integers (relaxed loads when the
     *  fields are atomic; fields may then be skewed by in-flight
     *  updates, which is the same guarantee a reader between two
     *  updates of one epoch gets). */
    BasicRuntimeStats<std::uint64_t, sim::Duration> Snapshot() const;

    bool operator==(const BasicRuntimeStats&) const = default;
};

/** The counters as plain values: one agent's copy, or a roll-up. */
using RuntimeStats = BasicRuntimeStats<std::uint64_t, sim::Duration>;

/**
 * The threaded runtime's counters. The model and actuator threads
 * update disjoint-or-commutative counters many times per epoch; routing
 * those through a mutex put a lock acquisition on every sample of the
 * 50 us collection loops. Relaxed atomics are exact for monotonic
 * counters, and Snapshot() is a per-field load.
 */
using AtomicRuntimeStats =
    BasicRuntimeStats<Relaxed<std::uint64_t>, Relaxed<sim::Duration>>;

/** How a counter folds across agents. */
enum class CounterFold {
    kSum,  ///< Counts and times add.
    kMax,  ///< Peaks take the maximum.
};

/**
 * Calls `f(name, fold, s.field...)` once per counter, in declaration
 * order, passing the same field of every struct in `stats`: one struct
 * to read its fields, two to copy or fold one into the other. `name` is
 * the exported name; the halted time exports in seconds.
 */
template <typename F, typename... Stats>
constexpr void
ForEachCounter(F&& f, Stats&... stats)
{
    using enum CounterFold;
    f("samples_collected", kSum, stats.samples_collected...);
    f("invalid_samples", kSum, stats.invalid_samples...);
    f("epochs", kSum, stats.epochs...);
    f("model_updates", kSum, stats.model_updates...);
    f("short_circuit_epochs", kSum, stats.short_circuit_epochs...);
    f("model_assessments", kSum, stats.model_assessments...);
    f("failed_assessments", kSum, stats.failed_assessments...);
    f("intercepted_predictions", kSum, stats.intercepted_predictions...);
    f("predictions_delivered", kSum, stats.predictions_delivered...);
    f("default_predictions", kSum, stats.default_predictions...);
    f("expired_predictions", kSum, stats.expired_predictions...);
    f("dropped_while_halted", kSum, stats.dropped_while_halted...);
    f("peak_queued_predictions", kMax, stats.peak_queued_predictions...);
    f("actions_taken", kSum, stats.actions_taken...);
    f("actions_with_prediction", kSum, stats.actions_with_prediction...);
    f("actuator_timeouts", kSum, stats.actuator_timeouts...);
    f("actuator_assessments", kSum, stats.actuator_assessments...);
    f("safeguard_triggers", kSum, stats.safeguard_triggers...);
    f("mitigations", kSum, stats.mitigations...);
    f("halted_seconds", kSum, stats.halted_time...);
}

// Every field is one 8-byte counter or time, so a field missing from
// ForEachCounter shows up as a size mismatch.
static_assert(
    [] {
        std::size_t listed = 0;
        RuntimeStats stats;
        ForEachCounter(
            [&listed](const char*, CounterFold, const auto&) { ++listed; },
            stats);
        return listed * sizeof(std::uint64_t) == sizeof(RuntimeStats);
    }(),
    "every RuntimeStats field must be listed in ForEachCounter");

template <typename Counter, typename Time>
void
BasicRuntimeStats<Counter, Time>::Accumulate(const BasicRuntimeStats& other)
{
    ForEachCounter(
        [](const char*, CounterFold fold, auto& mine, const auto& theirs) {
            if (fold == CounterFold::kMax) {
                Raise(mine, theirs);
            } else {
                mine += theirs;
            }
        },
        *this, other);
}

template <typename Counter, typename Time>
RuntimeStats
BasicRuntimeStats<Counter, Time>::Snapshot() const
{
    RuntimeStats out;
    ForEachCounter(
        [](const char*, CounterFold, auto& copy, const auto& field) {
            copy = field;
        },
        out, *this);
    return out;
}

/** Writes the stats as "name = value" lines (the halted time in
 *  seconds). */
std::ostream& operator<<(std::ostream& os, const RuntimeStats& stats);

}  // namespace sol::core
