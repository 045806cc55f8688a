#include "cluster/node_shard.h"

#include <string>

#include "sim/rng.h"

namespace sol::cluster {

FleetStats
FleetStats::Of(const NodeTotals& totals)
{
    FleetStats fleet;
    fleet.total_agents = totals.agents;
    fleet.total_epochs = totals.stats.epochs;
    fleet.total_actions = totals.stats.actions_taken;
    fleet.safeguard_triggers = totals.stats.safeguard_triggers;
    fleet.arbiter_requests = totals.arbiter_requests;
    fleet.conflicts_observed = totals.conflicts_observed;
    fleet.conflicts_resolved = totals.conflicts_resolved;
    return fleet;
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
        trace_ = config_.trace_session->NewRecorder(track, &queue_);
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

void
NodeShard::AddTotalsTo(NodeTotals& out) const
{
    for (const auto& node : nodes_) {
        node->AddTotalsTo(out);
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
