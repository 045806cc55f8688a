#include "cluster/synthetic_agent.h"

#include <algorithm>
#include <cmath>

#include "workloads/trace_driver.h"

namespace sol::cluster {

namespace {

/** Telemetry readings are plausible within this band; injected faults
 *  land far outside it so ValidateData rejects them. */
constexpr double kValidRange = 100.0;
constexpr double kFaultValue = 1e9;

/** Ceiling on SyntheticAgentConfig::period_jitter: keeps the scale
 *  factor in [0.1, 1.9] so jittered periods stay the same order of
 *  magnitude as the configured ones. */
constexpr double kMaxPeriodJitter = 0.9;

/** How much denser a burst-profile agent collects: kBurstFactor x the
 *  samples per epoch at a kBurstFactor x shorter interval. */
constexpr double kBurstFactor = 4.0;

}  // namespace

SyntheticModel::SyntheticModel(const SyntheticAgentConfig& config,
                               const sim::Clock& clock)
    : config_(config),
      clock_(clock),
      rng_(sim::DeriveStreamSeed(config.seed, 0))
{
}

double
SyntheticModel::CollectData()
{
    // Mean-reverting random walk, bounded well inside the valid band.
    signal_ = 0.95 * signal_ + rng_.NextGaussian();
    double invalid_fraction = config_.invalid_fraction;
    if (config_.trace_driver != nullptr) {
        // Correlated invalid-data storms: the rate is a pure function
        // of (tenant, virtual time), so the RNG stream stays in sync
        // across runs, thread counts, and node backends.
        invalid_fraction = config_.trace_driver->InvalidRateAt(
            config_.tenant, clock_.Now(), invalid_fraction);
    }
    if (rng_.NextBool(invalid_fraction)) {
        return kFaultValue;  // Out-of-range reading (driver glitch).
    }
    return signal_;
}

bool
SyntheticModel::ValidateData(const double& data)
{
    return std::abs(data) < kValidRange;
}

void
SyntheticModel::CommitData(sim::TimePoint /*time*/, const double& data)
{
    epoch_sum_ += data;
    ++epoch_count_;
    ++epoch_commits_;
}

void
SyntheticModel::UpdateModel()
{
    if (epoch_count_ > 0) {
        model_value_ = epoch_sum_ / static_cast<double>(epoch_count_);
    }
    epoch_sum_ = 0.0;
    epoch_count_ = 0;
    epoch_commits_ = 0;
}

core::Prediction<double>
SyntheticModel::ModelPredict()
{
    return core::MakePrediction(model_value_, clock_.Now(),
                                config_.prediction_ttl);
}

core::Prediction<double>
SyntheticModel::DefaultPredict()
{
    epoch_commits_ = 0;  // Epoch exit (see header); harmless double
                         // reset on the interception path.
    return core::MakeDefaultPrediction(0.0, clock_.Now(),
                                       config_.prediction_ttl);
}

bool
SyntheticModel::AssessModel()
{
    // Mid-run model degradation: scripted by storm window, recovered
    // the moment the window closes (the engine keeps the model
    // learning and re-assesses every epoch).
    return config_.trace_driver == nullptr ||
           !config_.trace_driver->ModelDegradedAt(config_.tenant,
                                                  clock_.Now());
}

bool
SyntheticModel::ShortCircuitEpoch()
{
    if (config_.trace_driver == nullptr) {
        return false;
    }
    const int target = config_.trace_driver->EpochTargetAt(
        config_.tenant, clock_.Now(), config_.data_per_epoch);
    if (target >= config_.data_per_epoch) {
        // Full demand: let the engine's own completeness check end the
        // epoch (the engine tests ShortCircuitEpoch *before* it, so
        // returning true here would turn every epoch into a
        // short-circuit and suppress model-driven actuation entirely).
        return false;
    }
    return epoch_commits_ >= static_cast<std::uint64_t>(target);
}

SyntheticActuator::SyntheticActuator(const SyntheticAgentConfig& config)
    : config_(config), rng_(sim::DeriveStreamSeed(config.seed, 1))
{
}

void
SyntheticActuator::TakeAction(std::optional<core::Prediction<double>> pred)
{
    const bool model_driven = pred.has_value() && !pred->is_default;
    double expand_fraction = config_.expand_fraction;
    if (config_.trace_driver != nullptr && clock_ != nullptr) {
        // Actuation pressure follows demand: flash crowds raise the
        // expand probability (arbiter conflicts/denials spike), quiet
        // periods lower it.
        expand_fraction = config_.trace_driver->ExpandFractionAt(
            config_.tenant, clock_->Now(), expand_fraction);
    }
    if (model_driven && rng_.NextBool(expand_fraction)) {
        if (core::AdmitActuation(governor_, config_.name, config_.domain,
                                 core::ActuationIntent::kExpand,
                                 std::abs(pred->value))) {
            holding_.store(true, std::memory_order_relaxed);
            expands_admitted_.fetch_add(1, std::memory_order_relaxed);
            return;
        }
        // Denied: fall through to the safe path.
        expands_denied_.fetch_add(1, std::memory_order_relaxed);
    }
    Restore();
}

bool
SyntheticActuator::AssessPerformance()
{
    // Scripted failure window: assessments are 1-indexed, so a config
    // of {from=3, count=2} fails exactly the 3rd and 4th assessment.
    ++assessments_seen_;
    const bool scripted_ok =
        config_.fail_assessments_from == 0 ||
        assessments_seen_ < config_.fail_assessments_from ||
        assessments_seen_ >= config_.fail_assessments_from +
                                 config_.fail_assessments_count;
    // Storm-scripted failures (cascading safeguard trips): fail while
    // a fail_actuator window covers this tenant, recover after it.
    const bool storm_failing =
        config_.trace_driver != nullptr && clock_ != nullptr &&
        config_.trace_driver->ActuatorFailingAt(config_.tenant,
                                                clock_->Now());
    return scripted_ok && !storm_failing;
}

void
SyntheticActuator::Restore()
{
    // Restores are always admitted; announcing one releases any hold.
    core::AdmitActuation(governor_, config_.name, config_.domain,
                         core::ActuationIntent::kRestore);
    holding_.store(false, std::memory_order_relaxed);
}

core::Schedule
MakeSyntheticSchedule(const SyntheticAgentConfig& config)
{
    core::Schedule schedule;
    schedule.data_per_epoch = config.data_per_epoch;
    schedule.data_collect_interval = config.data_collect_interval;
    schedule.max_epoch_time = config.max_epoch_time;
    schedule.max_actuation_delay = config.max_actuation_delay;
    schedule.assess_actuator_interval = config.assess_actuator_interval;

    // Heterogeneous schedules: both draws come from a dedicated seed
    // stream, so enabling them changes nothing about the telemetry or
    // actuation streams, and leaving both off skips the RNG entirely
    // (prior PRs' trace hashes depend on that).
    if (config.period_jitter > 0.0 || config.burst_fraction > 0.0) {
        sim::Rng rng(sim::DeriveStreamSeed(config.seed, 2));
        if (config.period_jitter > 0.0) {
            // Clamp so a misread knob (e.g. 1.0 as "full jitter")
            // cannot scale a period to ~zero and storm the queue.
            const double jitter =
                std::min(config.period_jitter, kMaxPeriodJitter);
            const double factor =
                1.0 + jitter * (2.0 * rng.NextDouble() - 1.0);
            const auto scale = [factor](sim::Duration d) {
                const auto scaled = static_cast<std::int64_t>(
                    static_cast<double>(d.count()) * factor);
                return std::max<sim::Duration>(sim::Nanos(scaled),
                                               sim::Nanos(1));
            };
            schedule.data_collect_interval =
                scale(schedule.data_collect_interval);
            schedule.max_epoch_time = scale(schedule.max_epoch_time);
            schedule.max_actuation_delay =
                scale(schedule.max_actuation_delay);
            schedule.assess_actuator_interval =
                scale(schedule.assess_actuator_interval);
        }
        if (config.burst_fraction > 0.0 &&
            rng.NextBool(config.burst_fraction)) {
            schedule.data_per_epoch = std::max(
                1, static_cast<int>(static_cast<double>(
                       schedule.data_per_epoch) *
                   kBurstFactor));
            const auto dense = static_cast<std::int64_t>(
                static_cast<double>(
                    schedule.data_collect_interval.count()) /
                kBurstFactor);
            schedule.data_collect_interval =
                std::max<sim::Duration>(sim::Nanos(dense),
                                        sim::Nanos(1));
        }
    }

    // Zipfian tenant popularity: cold tenants collect up to
    // cadence_stretch x slower than hot ones. A pure construction-time
    // scale (no RNG draw), identical in both node backends.
    if (config.trace_driver != nullptr) {
        const double scale =
            config.trace_driver->CadenceScale(config.tenant);
        if (scale > 1.0) {
            const auto stretched = static_cast<std::int64_t>(
                static_cast<double>(
                    schedule.data_collect_interval.count()) *
                scale);
            schedule.data_collect_interval =
                std::max<sim::Duration>(sim::Nanos(stretched),
                                        sim::Nanos(1));
        }
    }
    return schedule;
}

}  // namespace sol::cluster
