/**
 * @file
 * SmartHarvest: the paper's CPU harvesting agent (section 5.2, after
 * Wang et al., EuroSys 2021), re-implemented in SOL with the full
 * safeguard set.
 *
 * The agent samples the primary VM's CPU usage at 50 us granularity,
 * computes distributional features over each 25 ms learning epoch, and
 * uses a cost-sensitive one-against-all classifier (the VowpalWabbit
 * model family) to predict the maximum number of cores the primary VM
 * will need in the next 25 ms. Idle cores are loaned to an ElasticVM and
 * returned the moment the primary needs them.
 *
 * Safeguards:
 *  - ValidateData range-checks usage samples and discards samples taken
 *    while the primary uses all its granted cores (censored observations
 *    that would bias the model toward underprediction).
 *  - AssessModel measures the fraction of recent epochs in which the
 *    model's prediction left the primary out of idle cores; when high,
 *    predictions are intercepted and the conservative default (return
 *    all cores) is used while the model relearns.
 *  - The Actuator waits at most 100 ms (4 epochs) for a prediction and
 *    otherwise returns all cores to the primary VM.
 *  - The Actuator safeguard monitors the P99 of vCPU wait over a
 *    trailing window and disables harvesting while waits are high.
 */
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "core/actuation.h"
#include "core/actuator.h"
#include "core/model.h"
#include "core/schedule.h"
#include "ml/cost_sensitive.h"
#include "node/node.h"
#include "telemetry/window_percentile.h"

namespace sol::agents {

/** Canonical registry name of the SmartHarvest agent. */
inline constexpr const char* kSmartHarvestName = "smart-harvest";

/** One 50 us hypervisor usage sample. */
struct HarvestSample {
    double usage_cores = 0.0;  ///< Cores the primary VM is using now.
    int granted_cores = 0;     ///< Cores currently granted to it.
    int allocated_cores = 0;   ///< Cores it owns.
};

/** Tunables for SmartHarvest. */
struct SmartHarvestConfig {
    /** Cost of under-predicting demand by one core (QoS harm). */
    double under_penalty = 4.0;
    /** Cost of over-predicting by one core (missed harvest). */
    double over_penalty = 1.0;
    unsigned feature_bits = 16;
    double learning_rate = 0.1;
    sim::Duration prediction_ttl = sim::Millis(60);
    /** Epochs in the out-of-cores assessment window (40 = 1 s); must be
     *  positive. */
    std::size_t assess_window = 40;
    /** AssessModel fails when more than this fraction of recent epochs
     *  ran the primary out of idle cores. */
    double assess_threshold = 0.10;
    /** Actuator safeguard: trailing window for the wait percentile. */
    sim::Duration safeguard_window = sim::Seconds(5);
    /** Trigger when P99 of per-interval core-wait exceeds this many
     *  average waiting cores. */
    double safeguard_wait_threshold = 1.0;
    std::uint64_t seed = 2;
};

/** Cost-sensitive classifier predicting next-epoch peak core demand. */
class HarvestModel : public core::Model<HarvestSample, int>
{
  public:
    HarvestModel(node::Node& node, node::VmId primary_vm,
                 const sim::Clock& clock,
                 const SmartHarvestConfig& config = {});

    HarvestSample CollectData() override;
    bool ValidateData(const HarvestSample& data) override;
    void CommitData(sim::TimePoint time, const HarvestSample& data) override;
    void UpdateModel() override;
    core::Prediction<int> ModelPredict() override;
    core::Prediction<int> DefaultPredict() override;
    bool AssessModel() override;

    const ml::CostSensitiveClassifier& classifier() const
    {
        return classifier_;
    }

    /**
     * Fault injection (Fig 6 middle): the broken model severely and
     * consistently underestimates primary demand.
     */
    void BreakModel(bool broken) { broken_ = broken; }

    /** Fraction of recent epochs that ran out of idle cores. */
    double OutOfCoresFraction() const;

  private:
    void BuildFeatures(ml::FeatureVector& out) const;

    node::Node& node_;
    node::VmId vm_;
    const sim::Clock& clock_;
    SmartHarvestConfig config_;
    ml::CostSensitiveClassifier classifier_;

    // Epoch accumulation (committed, validated samples only).
    std::vector<double> epoch_usage_;

    // Saturation tracking over *all* samples (including discarded ones).
    std::uint64_t epoch_samples_total_ = 0;
    std::uint64_t epoch_samples_saturated_ = 0;

    // Out-of-cores history ring for AssessModel.
    std::vector<bool> out_of_cores_ring_;
    std::size_t ring_pos_ = 0;
    std::size_t ring_count_ = 0;

    // Supervised pair bookkeeping.
    std::optional<ml::FeatureVector> prev_features_;
    int prev_label_ = 0;
    bool features_valid_ = false;
    ml::FeatureVector features_;

    bool broken_ = false;
};

/** Actuator applying grants with the vCPU-wait safeguard. */
class HarvestActuator : public core::Actuator<int>
{
  public:
    HarvestActuator(node::Node& node, node::VmId primary_vm,
                    node::VmId elastic_vm, const sim::Clock& clock,
                    const SmartHarvestConfig& config = {});

    void TakeAction(std::optional<core::Prediction<int>> pred) override;
    bool AssessPerformance() override;
    void Mitigate() override;
    void CleanUp() override;

    bool safeguard_active() const { return safeguard_active_; }

    /** Installs the shared-node governor; nullptr acts ungoverned. */
    void SetGovernor(core::ActuationGovernor* governor)
    {
        governor_ = governor;
    }

  private:
    node::Node& node_;
    node::VmId primary_;
    node::VmId elastic_;
    const sim::Clock& clock_;
    SmartHarvestConfig config_;
    core::ActuationGovernor* governor_ = nullptr;
    telemetry::WindowPercentile wait_p99_;
    sim::Duration last_wait_{0};
    sim::TimePoint last_check_{0};
    bool have_baseline_ = false;
    bool safeguard_active_ = false;
};

/** Paper schedule: 25 ms epochs of 500 x 50 us samples, 100 ms actuation
 *  timeout, 100 ms safeguard checks. */
core::Schedule SmartHarvestSchedule();

}  // namespace sol::agents
