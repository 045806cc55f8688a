#include "cluster/node_shard.h"

#include <string>

#include "sim/rng.h"

namespace sol::cluster {

void
FleetStats::Accumulate(const FleetStats& other)
{
    total_agents += other.total_agents;
    total_epochs += other.total_epochs;
    total_actions += other.total_actions;
    safeguard_triggers += other.safeguard_triggers;
    arbiter_requests += other.arbiter_requests;
    conflicts_observed += other.conflicts_observed;
    conflicts_resolved += other.conflicts_resolved;
}

void
HealthTotals::Accumulate(const HealthTotals& other)
{
    stats.Accumulate(other.stats);
    epochs.Merge(other.epochs);
    arbiter_requests += other.arbiter_requests;
    arbiter_denied += other.arbiter_denied;
    agents += other.agents;
}

void
HealthTotals::Reset()
{
    stats = {};
    epochs.Reset();
    arbiter_requests = 0;
    arbiter_denied = 0;
    agents = 0;
}

NodeShard::NodeShard(const NodeShardConfig& config)
    : config_(config)
{
    queue_.SetPendingLimit(config_.queue_pending_limit);
    if (config_.trace_session != nullptr) {
        // The queue is the shard's virtual clock, so every event on
        // this track carries a deterministic timestamp.
        const std::string track =
            config_.trace_track.empty()
                ? "shard" + std::to_string(config_.first_node_index)
                : config_.trace_track;
        trace_ = config_.trace_session->NewRecorder(
            track, &queue_, config_.trace_capacity);
    }
    nodes_.reserve(config_.num_nodes);
    for (std::size_t i = 0; i < config_.num_nodes; ++i) {
        const std::size_t global = config_.first_node_index + i;
        MultiAgentNodeConfig node_config = config_.node;
        node_config.name = "node" + std::to_string(global);
        node_config.seed =
            sim::DeriveStreamSeed(config_.base_seed, global);
        node_config.node_index = global;
        node_config.trace = trace_;
        nodes_.push_back(
            std::make_unique<MultiAgentNode>(queue_, node_config));
    }
}

void
NodeShard::RunUntil(sim::TimePoint horizon)
{
    // Bind the shard track for the duration of the step: arbiter spans
    // emitted from inside node events land on it, whichever worker
    // thread is stepping this shard.
    telemetry::trace::ScopedThreadRecorder bind(trace_);
    if (!started_) {
        started_ = true;
        for (std::size_t i = 0; i < nodes_.size(); ++i) {
            MultiAgentNode* node = nodes_[i].get();
            const std::size_t global = config_.first_node_index + i;
            const sim::Duration offset = config_.start_stagger * global;
            if (offset <= sim::Duration::zero()) {
                node->Start();
            } else {
                queue_.ScheduleAfter(offset, [node] { node->Start(); });
            }
        }
    }
    queue_.RunUntil(horizon);
}

void
NodeShard::Stop()
{
    for (auto& node : nodes_) {
        node->Stop();
    }
}

void
NodeShard::CleanUpAll()
{
    for (auto& node : nodes_) {
        node->CleanUpAll();
    }
}

FleetStats
NodeShard::Stats() const
{
    FleetStats stats;
    for (const auto& node : nodes_) {
        const core::RuntimeStats runtime = node->AggregateStats();
        stats.total_agents += node->num_agents();
        stats.total_epochs += runtime.epochs;
        stats.total_actions += runtime.actions_taken;
        stats.safeguard_triggers += runtime.safeguard_triggers;
        stats.arbiter_requests += node->arbiter().requests();
        stats.conflicts_observed += node->arbiter().conflicts_observed();
        stats.conflicts_resolved += node->arbiter().conflicts_resolved();
    }
    return stats;
}

void
NodeShard::AddHealthTo(HealthTotals& out) const
{
    for (const auto& node : nodes_) {
        out.stats.Accumulate(node->AggregateStats());
        node->MergeEpochLatencyInto(out.epochs);
        out.arbiter_requests += node->arbiter().requests();
        out.arbiter_denied += node->arbiter().conflicts_resolved();
        out.agents += node->num_agents();
    }
}

void
NodeShard::CollectNodeMetrics(telemetry::MetricRegistry& out)
{
    for (auto& node : nodes_) {
        node->CollectMetrics();
        out.MergeFrom(node->metrics(), node->name());
    }
}

}  // namespace sol::cluster
