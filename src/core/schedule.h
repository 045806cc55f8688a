/**
 * @file
 * The SOL Schedule (paper Listing 3): developer-provided parameters for
 * how often the Model and Actuator functions run.
 */
#pragma once

#include <istream>
#include <string>
#include <vector>

#include "sim/time.h"

namespace sol::core {

/** Scheduling parameters for one agent. */
struct Schedule {
    // --- Model loop -----------------------------------------------------

    /** Validated datapoints needed before the model updates/predicts. */
    int data_per_epoch = 1;

    /** Interval between CollectData calls. */
    sim::Duration data_collect_interval = sim::Millis(100);

    /**
     * Deadline for a learning epoch. If too few valid datapoints arrive
     * in time, the epoch is short-circuited with a default prediction.
     */
    sim::Duration max_epoch_time = sim::Seconds(2);

    /** AssessModel runs every this many epochs. */
    int assess_model_every_epochs = 1;

    // --- Actuator loop -----------------------------------------------------

    /**
     * Upper bound on the time between control actions: if no prediction
     * arrives within this delay, TakeAction runs with an empty prediction.
     */
    sim::Duration max_actuation_delay = sim::Seconds(5);

    /** Interval between AssessPerformance safeguard checks. */
    sim::Duration assess_actuator_interval = sim::Seconds(1);

    /**
     * Checks internal consistency.
     *
     * @return Human-readable problems; empty when the schedule is valid.
     */
    std::vector<std::string> Validate() const;

    /** True when Validate() reports no problems. */
    bool IsValid() const { return Validate().empty(); }
};

/**
 * Parses a schedule from "key = value" lines (the config_file in paper
 * Listing 3). Durations accept ns/us/ms/s suffixes, e.g.
 *
 *     data_per_epoch = 10
 *     data_collect_interval = 100ms
 *     max_epoch_time = 1s
 *
 * Unknown keys and malformed lines throw std::invalid_argument. Missing
 * keys keep their defaults.
 */
Schedule ParseSchedule(std::istream& in);

/**
 * Parses a duration literal like "250ms", "50us", "1s", "1.5s": digits
 * with at most one decimal point, then ns, us, ms or s. Throws
 * std::invalid_argument on anything else, and when the value does not
 * fit in int64 nanoseconds.
 */
sim::Duration ParseDuration(const std::string& text);

}  // namespace sol::core
