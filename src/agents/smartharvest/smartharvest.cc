#include "agents/smartharvest/smartharvest.h"

#include <algorithm>
#include <cmath>
#include <numeric>
#include <stdexcept>

namespace sol::agents {

core::Schedule
SmartHarvestSchedule()
{
    core::Schedule schedule;
    schedule.data_per_epoch = 500;
    schedule.data_collect_interval = sim::Micros(50);
    // 25 ms nominal epochs with headroom for transiently discarded
    // samples; sustained saturation still short-circuits to the default.
    schedule.max_epoch_time = sim::Millis(32);
    schedule.assess_model_every_epochs = 1;
    schedule.max_actuation_delay = sim::Millis(100);
    schedule.assess_actuator_interval = sim::Millis(100);
    return schedule;
}

// ---------------------------------------------------------------------------
// HarvestModel
// ---------------------------------------------------------------------------

HarvestModel::HarvestModel(node::Node& node, node::VmId primary_vm,
                           const sim::Clock& clock,
                           const SmartHarvestConfig& config)
    : node_(node),
      vm_(primary_vm),
      clock_(clock),
      config_(config),
      classifier_(ml::CostSensitiveConfig{
          static_cast<std::size_t>(node.AllocatedCores(primary_vm)) + 1,
          config.learning_rate, 0.0}),
      out_of_cores_ring_(config.assess_window, false),
      features_(config.feature_bits)
{
    if (config.assess_window == 0) {
        throw std::invalid_argument("assess_window must be positive");
    }
    epoch_usage_.reserve(600);
}

HarvestSample
HarvestModel::CollectData()
{
    HarvestSample sample;
    sample.usage_cores = node_.SampleCpuUsage(vm_);
    sample.granted_cores = node_.GrantedCores(vm_);
    sample.allocated_cores = node_.AllocatedCores(vm_);

    // Saturation tracking must see every sample, including ones later
    // discarded by validation: running out of idle cores while harvesting
    // is exactly the signal AssessModel monitors.
    ++epoch_samples_total_;
    const bool harvesting = sample.granted_cores < sample.allocated_cores;
    if (harvesting &&
        sample.usage_cores >=
            static_cast<double>(sample.granted_cores) - 1e-9) {
        ++epoch_samples_saturated_;
    }
    return sample;
}

bool
HarvestModel::ValidateData(const HarvestSample& data)
{
    // Range checks: usage must lie within [0, granted].
    if (!(data.usage_cores >= 0.0 &&
          data.usage_cores <=
              static_cast<double>(data.granted_cores) + 1e-9)) {
        return false;
    }
    // Censoring check (paper 5.2): when the primary uses all its granted
    // cores we cannot tell how many more it needed, so learning from the
    // sample would bias the model toward underprediction.
    if (data.usage_cores >=
        static_cast<double>(data.granted_cores) - 1e-9) {
        return false;
    }
    return true;
}

void
HarvestModel::CommitData(sim::TimePoint /*time*/, const HarvestSample& data)
{
    epoch_usage_.push_back(data.usage_cores);
}

void
HarvestModel::UpdateModel()
{
    const int allocated = node_.AllocatedCores(vm_);

    // Label: the peak core demand observed this epoch. If any sample was
    // saturated, the demand was at least the grant — use the grant as a
    // (censored) lower bound.
    double peak = 0.0;
    for (const double u : epoch_usage_) {
        peak = std::max(peak, u);
    }
    if (epoch_samples_saturated_ > 0) {
        peak = std::max(peak,
                        static_cast<double>(node_.GrantedCores(vm_)));
    }
    const int label = std::clamp(
        static_cast<int>(std::ceil(peak - 1e-9)), 0, allocated);

    // Train on the previous epoch's features against this epoch's label.
    if (prev_features_.has_value()) {
        classifier_.Update(*prev_features_,
                           ml::AsymmetricCosts(
                               static_cast<std::size_t>(allocated) + 1,
                               static_cast<std::size_t>(label),
                               config_.under_penalty,
                               config_.over_penalty));
    }

    // Out-of-cores history for the model assessment.
    out_of_cores_ring_[ring_pos_] = epoch_samples_saturated_ > 0;
    ring_pos_ = (ring_pos_ + 1) % out_of_cores_ring_.size();
    ring_count_ = std::min(ring_count_ + 1, out_of_cores_ring_.size());

    // Features for the next prediction.
    BuildFeatures(features_);
    features_valid_ = true;
    prev_features_ = features_;
    prev_label_ = label;

    epoch_usage_.clear();
    epoch_samples_total_ = 0;
    epoch_samples_saturated_ = 0;
}

void
HarvestModel::BuildFeatures(ml::FeatureVector& out) const
{
    out.Clear();
    out.AddBias();
    if (epoch_usage_.empty()) {
        out.Add("empty", 1.0);
        out.Add("prev_label", static_cast<double>(prev_label_));
        return;
    }
    std::vector<double> sorted(epoch_usage_);
    std::sort(sorted.begin(), sorted.end());
    const auto n = sorted.size();
    const double mean =
        std::accumulate(sorted.begin(), sorted.end(), 0.0) /
        static_cast<double>(n);
    double var = 0.0;
    for (const double u : sorted) {
        var += (u - mean) * (u - mean);
    }
    var /= static_cast<double>(n);
    auto quantile = [&](double q) {
        const auto rank = static_cast<std::size_t>(
            q * static_cast<double>(n - 1) + 0.5);
        return sorted[rank];
    };
    out.Add("mean", mean);
    out.Add("std", std::sqrt(var));
    out.Add("min", sorted.front());
    out.Add("max", sorted.back());
    out.Add("p50", quantile(0.5));
    out.Add("p90", quantile(0.9));
    out.Add("last", epoch_usage_.back());
    out.Add("prev_label", static_cast<double>(prev_label_));
}

core::Prediction<int>
HarvestModel::ModelPredict()
{
    const int allocated = node_.AllocatedCores(vm_);
    int predicted;
    if (broken_) {
        // Fault injection: severe, consistent underestimation.
        predicted = 1;
    } else if (features_valid_) {
        predicted = static_cast<int>(classifier_.Predict(features_));
    } else {
        predicted = allocated;
    }
    predicted = std::clamp(predicted, 0, allocated);
    return core::MakePrediction(predicted, clock_.Now(),
                                config_.prediction_ttl);
}

core::Prediction<int>
HarvestModel::DefaultPredict()
{
    // Conservative: assume the primary needs everything (no harvesting).
    return core::MakeDefaultPrediction(node_.AllocatedCores(vm_),
                                       clock_.Now(),
                                       config_.prediction_ttl);
}

bool
HarvestModel::AssessModel()
{
    if (ring_count_ < out_of_cores_ring_.size()) {
        return true;  // Not enough history yet.
    }
    return OutOfCoresFraction() <= config_.assess_threshold;
}

double
HarvestModel::OutOfCoresFraction() const
{
    if (ring_count_ == 0) {
        return 0.0;
    }
    std::size_t bad = 0;
    for (std::size_t i = 0; i < ring_count_; ++i) {
        if (out_of_cores_ring_[i]) {
            ++bad;
        }
    }
    return static_cast<double>(bad) / static_cast<double>(ring_count_);
}

// ---------------------------------------------------------------------------
// HarvestActuator
// ---------------------------------------------------------------------------

HarvestActuator::HarvestActuator(node::Node& node, node::VmId primary_vm,
                                 node::VmId elastic_vm,
                                 const sim::Clock& clock,
                                 const SmartHarvestConfig& config)
    : node_(node),
      primary_(primary_vm),
      elastic_(elastic_vm),
      clock_(clock),
      config_(config),
      wait_p99_(config.safeguard_window)
{
}

void
HarvestActuator::TakeAction(std::optional<core::Prediction<int>> pred)
{
    const int allocated = node_.AllocatedCores(primary_);
    int grant;
    if (pred.has_value()) {
        grant = std::clamp(pred->value, 0, allocated);
    } else {
        // Conservative: no fresh prediction means no harvesting.
        grant = allocated;
    }
    if (grant < allocated &&
        !core::AdmitActuation(governor_, kSmartHarvestName,
                              core::ActuationDomain::kCpuCores,
                              core::ActuationIntent::kExpand,
                              allocated - grant)) {
        // Denied: another agent holds a coupled resource; do not take
        // cores away from the primary this round.
        grant = allocated;
    }
    if (grant == allocated) {
        core::AdmitActuation(governor_, kSmartHarvestName,
                             core::ActuationDomain::kCpuCores,
                             core::ActuationIntent::kRestore, 0.0);
    }
    node_.GrantCores(primary_, grant);
    node_.GrantCores(elastic_, allocated - grant);
}

bool
HarvestActuator::AssessPerformance()
{
    const sim::TimePoint now = clock_.Now();
    const sim::Duration wait = node_.VcpuWaitTime(primary_);
    if (have_baseline_) {
        const sim::Duration interval = now - last_check_;
        if (interval > sim::Duration::zero()) {
            // Average number of cores left waiting over the interval.
            const double waiting_cores =
                sim::ToSeconds(wait - last_wait_) /
                sim::ToSeconds(interval);
            wait_p99_.Add(now, waiting_cores);
        }
    }
    last_wait_ = wait;
    last_check_ = now;
    have_baseline_ = true;

    if (wait_p99_.Count(now) < 10) {
        return true;
    }
    const double p99 = wait_p99_.Quantile(now, 0.99);
    safeguard_active_ = p99 > config_.safeguard_wait_threshold;
    return !safeguard_active_;
}

void
HarvestActuator::Mitigate()
{
    // Give every core back to the primary VM.
    core::AdmitActuation(governor_, kSmartHarvestName,
                         core::ActuationDomain::kCpuCores,
                         core::ActuationIntent::kRestore, 0.0);
    const int allocated = node_.AllocatedCores(primary_);
    node_.GrantCores(primary_, allocated);
    node_.GrantCores(elastic_, 0);
}

void
HarvestActuator::CleanUp()
{
    core::AdmitActuation(governor_, kSmartHarvestName,
                         core::ActuationDomain::kCpuCores,
                         core::ActuationIntent::kRestore, 0.0);
    const int allocated = node_.AllocatedCores(primary_);
    node_.GrantCores(primary_, allocated);
    node_.GrantCores(elastic_, 0);
}

}  // namespace sol::agents
