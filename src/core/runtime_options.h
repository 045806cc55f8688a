/**
 * @file
 * Ablation and fault switches shared by both SOL runtimes.
 *
 * SimRuntime (deterministic experiments) and ThreadedRuntime (real
 * threads) honor the same options so a configuration studied in
 * simulation carries over to deployment unchanged.
 */
#pragma once

#include <cstddef>

namespace sol::core {

/** Ablation and fault switches for a SOL runtime. */
struct RuntimeOptions {
    /**
     * Blocking-actuator ablation (Figs 4, 6-right): the actuator has no
     * timeout and acts only when a prediction arrives, even if stale.
     */
    bool blocking_actuator = false;

    /** Skip ValidateData (the "without data validation" baseline). */
    bool disable_data_validation = false;

    /** Skip AssessModel interception (the "without model safeguard"). */
    bool disable_model_assessment = false;

    /** Skip AssessPerformance/Mitigate (no actuator safeguard). */
    bool disable_actuator_safeguard = false;

    /** Bound on queued predictions; oldest are evicted beyond this.
     *  The engine allocates the queue's max + 1 slots up front, so the
     *  bound is capped at kMaxQueuedPredictionsLimit (construction
     *  throws std::invalid_argument above it). */
    std::size_t max_queued_predictions = 8;

    static constexpr std::size_t kMaxQueuedPredictionsLimit = 4096;
};

}  // namespace sol::core
