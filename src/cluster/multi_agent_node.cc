#include "cluster/multi_agent_node.h"

#include <stdexcept>
#include <utility>

namespace sol::cluster {

namespace {

using sim::DeriveStreamSeed;

node::NodeConfig
MakeNodeConfig(const MultiAgentNodeConfig& config)
{
    node::NodeConfig node_config;
    node_config.total_cores = config.total_cores;
    return node_config;
}

}  // namespace

void
WriteAgentRuntimeStats(telemetry::MetricScope scope,
                       const core::RuntimeStats& stats)
{
    scope.SetGauge("epochs", static_cast<double>(stats.epochs));
    scope.SetGauge("samples_collected",
                   static_cast<double>(stats.samples_collected));
    scope.SetGauge("invalid_samples",
                   static_cast<double>(stats.invalid_samples));
    scope.SetGauge("model_updates",
                   static_cast<double>(stats.model_updates));
    scope.SetGauge("short_circuit_epochs",
                   static_cast<double>(stats.short_circuit_epochs));
    scope.SetGauge("model_assessments",
                   static_cast<double>(stats.model_assessments));
    scope.SetGauge("failed_assessments",
                   static_cast<double>(stats.failed_assessments));
    scope.SetGauge("intercepted_predictions",
                   static_cast<double>(stats.intercepted_predictions));
    scope.SetGauge("predictions_delivered",
                   static_cast<double>(stats.predictions_delivered));
    scope.SetGauge("default_predictions",
                   static_cast<double>(stats.default_predictions));
    scope.SetGauge("expired_predictions",
                   static_cast<double>(stats.expired_predictions));
    scope.SetGauge("dropped_while_halted",
                   static_cast<double>(stats.dropped_while_halted));
    scope.SetGauge("peak_queued_predictions",
                   static_cast<double>(stats.peak_queued_predictions));
    scope.SetGauge("actions_taken",
                   static_cast<double>(stats.actions_taken));
    scope.SetGauge("actions_with_prediction",
                   static_cast<double>(stats.actions_with_prediction));
    scope.SetGauge("actuator_timeouts",
                   static_cast<double>(stats.actuator_timeouts));
    scope.SetGauge("actuator_assessments",
                   static_cast<double>(stats.actuator_assessments));
    scope.SetGauge("safeguard_triggers",
                   static_cast<double>(stats.safeguard_triggers));
    scope.SetGauge("mitigations", static_cast<double>(stats.mitigations));
    scope.SetGauge("halted_seconds", sim::ToSeconds(stats.halted_time));
}

void
AppendNodeHealthSample(telemetry::SharedTimeSeriesStore& health,
                       const std::string& prefix,
                       const core::RuntimeStats& stats,
                       const InterferenceArbiter& arbiter,
                       const telemetry::LatencyHistogram& epochs,
                       std::size_t num_agents, sim::TimePoint at)
{
    const std::string p = prefix.empty() ? "" : prefix + ".";
    const auto append = [&health, &p, at](const char* name,
                                          std::uint64_t value) {
        health.Append(p + name, at, static_cast<std::int64_t>(value));
    };
    append("safeguard.trips", stats.safeguard_triggers);
    append("safeguard.mitigations", stats.mitigations);
    append("model.failures", stats.failed_assessments);
    append("model.intercepted", stats.intercepted_predictions);
    append("data.harvested", stats.samples_collected);
    append("data.invalid", stats.invalid_samples);
    append("epochs", stats.epochs);
    append("actions", stats.actions_taken);
    append("arbiter.requests", arbiter.requests());
    append("arbiter.denied", arbiter.conflicts_resolved());
    append("agent.halted_ns",
           static_cast<std::uint64_t>(stats.halted_time.count()));
    append("agent.active_ns",
           num_agents * static_cast<std::uint64_t>(at.count()));
    const telemetry::LatencySnapshot s = epochs.Snapshot();
    append("epoch_latency.count", s.count);
    append("epoch_latency.p50_ns", s.p50_ns);
    append("epoch_latency.p90_ns", s.p90_ns);
    append("epoch_latency.p99_ns", s.p99_ns);
    append("epoch_latency.p999_ns", s.p999_ns);
}

void
AssignChannelRates(const MultiAgentNodeConfig& config, sim::Rng& rng,
                   node::ChannelArray& channels)
{
    // A hot channel is drawn until one below the hot rate turns up, so
    // either config below would spin forever.
    if (config.hot_channels > config.num_channels) {
        throw std::invalid_argument("hot_channels exceeds num_channels");
    }
    if (config.hot_channels > 0 &&
        !(config.hot_rate_per_sec > config.cold_rate_per_sec)) {
        throw std::invalid_argument(
            "hot_rate_per_sec must exceed cold_rate_per_sec");
    }
    for (node::ChannelId c = 0; c < channels.num_channels(); ++c) {
        channels.SetIncidentRate(c, config.cold_rate_per_sec);
    }
    for (std::size_t picked = 0; picked < config.hot_channels;) {
        const auto c = static_cast<node::ChannelId>(
            rng.NextBelow(config.num_channels));
        if (channels.IncidentRate(c) < config.hot_rate_per_sec) {
            channels.SetIncidentRate(c, config.hot_rate_per_sec);
            ++picked;
        }
    }
}

MultiAgentNode::MultiAgentNode(sim::EventQueue& queue,
                               MultiAgentNodeConfig config)
    : queue_(queue),
      config_(std::move(config)),
      rng_(DeriveStreamSeed(config_.seed, 0)),
      node_(MakeNodeConfig(config_)),
      memory_(config_.memory_batches, config_.fast_tier_batches),
      channels_(config_.num_channels, config_.channel_visibility),
      policy_(config_.num_channels),
      arbiter_(config_.arbiter,
               telemetry::MetricScope(metrics_, "arbiter")),
      incident_rng_(DeriveStreamSeed(config_.seed, 1))
{
    // --- Shared CPU substrate: one primary VM, one elastic VM. --------
    workloads::TailBenchConfig primary_config =
        workloads::ImageDnnConfig(DeriveStreamSeed(config_.seed, 2));
    primary_workload_ =
        std::make_shared<workloads::TailBench>(primary_config);
    elastic_workload_ = std::make_shared<workloads::BestEffort>();
    primary_ = node_.AddVm(
        node::VmConfig{"primary", primary_config.vcpus},
        primary_workload_);
    elastic_ = node_.AddVm(
        node::VmConfig{"elastic", primary_config.vcpus},
        elastic_workload_);
    node_.GrantCores(elastic_, 0);  // Nothing harvested yet.

    // --- Memory substrate. --------------------------------------------
    workloads::ZipfMemoryConfig pattern_config =
        workloads::ObjectStoreMemConfig(DeriveStreamSeed(config_.seed, 3));
    pattern_config.num_batches = config_.memory_batches;
    memory_pattern_ =
        std::make_unique<workloads::ZipfMemoryPattern>(pattern_config);

    // --- Telemetry-channel substrate: a few hot channels. -------------
    AssignChannelRates(config_, rng_, channels_);

    // --- Agents: concurrent registration on the shared node. ----------
    if (config_.run_overclock) {
        agents::SmartOverclockConfig cfg = config_.overclock;
        cfg.seed = DeriveStreamSeed(config_.seed, 4);
        overclock_model_ = std::make_unique<agents::OverclockModel>(
            node_, primary_, queue_, cfg);
        overclock_actuator_ = std::make_unique<agents::OverclockActuator>(
            node_, primary_, queue_, cfg);
        overclock_actuator_->SetGovernor(&arbiter_);
        overclock_runtime_ = std::make_unique<OverclockRuntime>(
            queue_, *overclock_model_, *overclock_actuator_,
            agents::SmartOverclockSchedule(), config_.runtime);
        overclock_runtime_->SetTraceRecorder(config_.trace);
        AddAgentSlot(agents::kSmartOverclockName, overclock_runtime_.get(),
                     overclock_actuator_.get());
    }
    if (config_.run_harvest) {
        agents::SmartHarvestConfig cfg = config_.harvest;
        cfg.seed = DeriveStreamSeed(config_.seed, 5);
        harvest_model_ = std::make_unique<agents::HarvestModel>(
            node_, primary_, queue_, cfg);
        harvest_actuator_ = std::make_unique<agents::HarvestActuator>(
            node_, primary_, elastic_, queue_, cfg);
        harvest_actuator_->SetGovernor(&arbiter_);
        harvest_runtime_ = std::make_unique<HarvestRuntime>(
            queue_, *harvest_model_, *harvest_actuator_,
            agents::SmartHarvestSchedule(), config_.runtime);
        harvest_runtime_->SetTraceRecorder(config_.trace);
        AddAgentSlot(agents::kSmartHarvestName, harvest_runtime_.get(),
                     harvest_actuator_.get());
    }
    if (config_.run_memory) {
        agents::SmartMemoryConfig cfg = config_.memory;
        cfg.seed = DeriveStreamSeed(config_.seed, 6);
        memory_model_ = std::make_unique<agents::MemoryModel>(
            memory_, queue_, cfg);
        memory_actuator_ = std::make_unique<agents::MemoryActuator>(
            memory_, queue_, cfg);
        memory_actuator_->SetGovernor(&arbiter_);
        memory_runtime_ = std::make_unique<MemoryRuntime>(
            queue_, *memory_model_, *memory_actuator_,
            agents::SmartMemorySchedule(), config_.runtime);
        memory_runtime_->SetTraceRecorder(config_.trace);
        AddAgentSlot(agents::kSmartMemoryName, memory_runtime_.get(),
                     memory_actuator_.get());
    }
    if (config_.run_monitor) {
        agents::SmartMonitorConfig cfg = config_.monitor;
        cfg.seed = DeriveStreamSeed(config_.seed, 7);
        monitor_model_ = std::make_unique<agents::MonitorModel>(
            channels_, policy_, queue_, cfg);
        monitor_actuator_ = std::make_unique<agents::MonitorActuator>(
            policy_, cfg);
        monitor_actuator_->SetGovernor(&arbiter_);
        monitor_runtime_ = std::make_unique<MonitorRuntime>(
            queue_, *monitor_model_, *monitor_actuator_,
            agents::SmartMonitorSchedule(), config_.runtime);
        monitor_runtime_->SetTraceRecorder(config_.trace);
        AddAgentSlot(agents::kSmartMonitorName, monitor_runtime_.get(),
                     monitor_actuator_.get());
    }

    // --- Synthetic filler agents up to fleet-realistic counts. --------
    // Stream seeds 8.. follow the real agents' 4..7; domains alternate
    // between the two that are uncoupled from the CPU conflict surface.
    synthetics_.reserve(config_.synthetic_agents);
    for (std::size_t i = 0; i < config_.synthetic_agents; ++i) {
        SyntheticAgentConfig cfg = config_.synthetic;
        cfg.name = "synthetic" + std::to_string(i);
        cfg.seed = DeriveStreamSeed(config_.seed, 8 + i);
        cfg.domain = i % 2 == 0
                         ? core::ActuationDomain::kTelemetryBudget
                         : core::ActuationDomain::kMemoryPlacement;
        cfg.trace_driver = config_.trace_driver;
        cfg.tenant = config_.node_index * config_.synthetic_agents + i;
        if (config_.customize_synthetic) {
            config_.customize_synthetic(i, cfg);
        }
        synthetics_.push_back(std::make_unique<SyntheticAgent>(
            queue_, cfg, &arbiter_, config_.runtime));
        SyntheticAgent* agent = synthetics_.back().get();
        agent->runtime().SetTraceRecorder(config_.trace);
        AddAgentSlot(agent->name(), &agent->runtime(),
                     &agent->actuator());
    }
}

MultiAgentNode::~MultiAgentNode() = default;

void
MultiAgentNode::Start()
{
    if (started_) {
        return;
    }
    started_ = true;

    if (config_.health != nullptr &&
        config_.health_period <= sim::Duration::zero()) {
        throw std::invalid_argument(
            "MultiAgentNodeConfig::health_period must be positive");
    }
    const sim::Duration node_tick = config_.node_tick;
    next_health_sample_ = queue_.Now() + config_.health_period;
    node_driver_ = std::make_unique<sim::PeriodicTask>(
        queue_, node_tick, [this, node_tick] {
            node_.Advance(queue_.Now(), node_tick);
            // Health sampling piggybacks on the driver tick that is
            // already scheduled: observe-only, so the event trace is
            // byte-identical with sampling on or off.
            if (config_.health != nullptr &&
                queue_.Now() >= next_health_sample_) {
                SampleNodeHealth(queue_.Now());
                do {
                    next_health_sample_ += config_.health_period;
                } while (next_health_sample_ <= queue_.Now());
            }
        });
    const sim::Duration memory_tick = config_.memory_tick;
    memory_driver_ = std::make_unique<sim::PeriodicTask>(
        queue_, memory_tick, [this, memory_tick] {
            memory_pattern_->GenerateAccesses(queue_.Now() - memory_tick,
                                              memory_tick, memory_);
        });
    const sim::Duration channel_tick = config_.channel_tick;
    channel_driver_ = std::make_unique<sim::PeriodicTask>(
        queue_, channel_tick, [this, channel_tick] {
            channels_.Advance(queue_.Now() - channel_tick, channel_tick,
                              incident_rng_);
        });

    for (const AgentSlot& slot : slots_) {
        slot.start();
    }
}

void
MultiAgentNode::Stop()
{
    for (const AgentSlot& slot : slots_) {
        slot.stop();
    }
}

void
MultiAgentNode::StopAgent(const std::string& name)
{
    for (const AgentSlot& slot : slots_) {
        if (slot.name == name) {
            slot.stop();
        }
    }
}

void
MultiAgentNode::StartAgent(const std::string& name)
{
    for (const AgentSlot& slot : slots_) {
        if (slot.name == name) {
            slot.start();
        }
    }
}

void
MultiAgentNode::CleanUpAll()
{
    registry_.CleanUpAll();
}

void
MultiAgentNode::SampleNodeHealth(sim::TimePoint at)
{
    AppendNodeHealthSample(*config_.health, config_.name,
                           AggregateStats(), arbiter_,
                           EpochLatencyHistogram(), num_agents(), at);
}

std::uint64_t
MultiAgentNode::TotalEpochs() const
{
    std::uint64_t epochs = 0;
    for (const AgentSlot& slot : slots_) {
        epochs += slot.stats().epochs;
    }
    return epochs;
}

core::RuntimeStats
MultiAgentNode::AggregateStats() const
{
    core::RuntimeStats total;
    for (const AgentSlot& slot : slots_) {
        total.Accumulate(slot.stats());
    }
    return total;
}

telemetry::LatencyHistogram
MultiAgentNode::EpochLatencyHistogram() const
{
    telemetry::LatencyHistogram merged;
    MergeEpochLatencyInto(merged);
    return merged;
}

void
MultiAgentNode::MergeEpochLatencyInto(telemetry::LatencyHistogram& out) const
{
    for (const AgentSlot& slot : slots_) {
        slot.merge_epoch_latency(out);
    }
}

core::RuntimeStats
MultiAgentNode::StatsFor(const std::string& name) const
{
    for (const AgentSlot& slot : slots_) {
        if (slot.name == name) {
            return slot.stats();
        }
    }
    return core::RuntimeStats{};
}

core::RuntimeStats
MultiAgentNode::OverclockStats() const
{
    return StatsFor(agents::kSmartOverclockName);
}

core::RuntimeStats
MultiAgentNode::HarvestStats() const
{
    return StatsFor(agents::kSmartHarvestName);
}

core::RuntimeStats
MultiAgentNode::MemoryStats() const
{
    return StatsFor(agents::kSmartMemoryName);
}

core::RuntimeStats
MultiAgentNode::MonitorStats() const
{
    return StatsFor(agents::kSmartMonitorName);
}

void
MultiAgentNode::CollectMetrics()
{
    for (const AgentSlot& slot : slots_) {
        WriteAgentRuntimeStats(
            telemetry::MetricScope(metrics_, slot.name), slot.stats());
    }
    arbiter_.WriteMetrics();

    telemetry::MetricScope node_scope(metrics_, "node");
    node_scope.SetGauge("primary_p99_ms",
                        primary_workload_->PerformanceValue());
    node_scope.SetGauge(
        "primary_completed_requests",
        static_cast<double>(primary_workload_->completed_requests()));
    node_scope.SetGauge("harvested_core_seconds",
                        elastic_workload_->core_seconds());
    node_scope.SetGauge("energy_joules", node_.EnergyJoules());
    node_scope.SetGauge("primary_freq_ghz", node_.VmFrequency(primary_));
    node_scope.SetGauge("memory_remote_fraction",
                        memory_.stats().RemoteFraction());
    node_scope.SetGauge("incident_coverage",
                        channels_.stats().Coverage());
    node_scope.SetGauge("total_epochs",
                        static_cast<double>(TotalEpochs()));
    const telemetry::LatencyHistogram epoch_hist = EpochLatencyHistogram();
    if (!epoch_hist.empty()) {
        // Snapshot-overwrite, so repeated collections stay idempotent.
        node_scope.SetHistogram("epoch_ns", epoch_hist);
    }
}

}  // namespace sol::cluster
