/**
 * @file
 * Shard-steppable core of the fleet driver: a group of MultiAgentNodes
 * on one private event queue.
 *
 * A shard owns its queue (arena, virtual clock, trace hash), its
 * contiguous slice of the fleet's nodes, and their staggered-start
 * scheduling, so it is a self-contained work item.
 * fleet::ShardedFleetRunner holds one shard (the serial fleet: every
 * node on one virtual clock, one thread) or many, and any of its
 * threads may claim a shard and step it to a window's horizon, in
 * parallel with the other shards.
 *
 * Nodes never exchange events across shards — fleet nodes are
 * statistically independent by construction (per-node RNG streams) —
 * so a shard's trace depends only on the fleet seed and on *which*
 * global node indices it owns, never on which thread steps it or how
 * many sibling shards exist. That is the whole determinism argument of
 * the sharded runner (docs/FLEET.md).
 */
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "cluster/multi_agent_node.h"
#include "sim/event_queue.h"
#include "telemetry/metric_registry.h"
#include "telemetry/trace.h"

namespace sol::cluster {

/** Fleet-scope counters, projected from a group's NodeTotals. */
struct FleetStats {
    std::uint64_t total_agents = 0;  ///< Real + synthetic, all nodes.
    std::uint64_t total_epochs = 0;
    std::uint64_t total_actions = 0;
    std::uint64_t safeguard_triggers = 0;
    std::uint64_t arbiter_requests = 0;
    std::uint64_t conflicts_observed = 0;
    std::uint64_t conflicts_resolved = 0;

    static FleetStats Of(const NodeTotals& totals);

    bool operator==(const FleetStats&) const = default;
};

/** Configuration of one shard: a contiguous slice of the fleet. */
struct NodeShardConfig {
    /** Global index of the shard's first node; node k of the shard is
     *  global node `first_node_index + k` ("node17"), and both its RNG
     *  stream and its start stagger derive from that global index, so
     *  a node behaves identically no matter how the fleet is sliced
     *  into shards. */
    std::size_t first_node_index = 0;
    std::size_t num_nodes = 0;

    /** Fleet seed; global node i runs stream DeriveStreamSeed(seed, i). */
    std::uint64_t base_seed = 1;

    /** Offset between consecutive *global* node start times. */
    sim::Duration start_stagger = sim::Millis(1);

    /** Backpressure bound on this shard's queue (0 = unlimited); see
     *  fleet::FleetConfig::queue_pending_limit for the drop
     *  semantics. */
    std::size_t queue_pending_limit = 0;

    /**
     * Flight-recorder session the shard creates its track in (null
     * disables tracing). The shard owns one SPSC ring for everything it
     * steps: its queue serializes every node's agents on whichever
     * worker thread runs the shard, so one recorder — timestamped
     * against the shard's virtual clock, hence byte-deterministic — is
     * safe. It is also injected as every node's `trace` config, and
     * RunUntil binds it as the thread-current recorder so arbiter spans
     * land on the shard track too.
     */
    telemetry::trace::TraceSession* trace_session = nullptr;

    /** Track name for the shard's recorder (session-default ring
     *  capacity); empty derives "shard<first_node_index>". */
    std::string trace_track;

    /** Template applied to every node (name/seed overridden per node). */
    MultiAgentNodeConfig node;
};

/** A group of MultiAgentNodes stepped together on one virtual clock. */
class NodeShard
{
  public:
    explicit NodeShard(const NodeShardConfig& config);

    /**
     * Advances the shard to an absolute virtual time. The first call
     * schedules every node's staggered start. Horizons must be
     * non-decreasing across calls (the queue never runs backwards).
     */
    void RunUntil(sim::TimePoint horizon);

    /** Advances the shard by a relative span of virtual time. */
    void Run(sim::Duration span) { RunUntil(queue_.Now() + span); }

    /** Stops every node's agent runtimes. */
    void Stop();

    /** SRE incident response: cleans up every agent on every node. */
    void CleanUpAll();

    /** Adds every node's totals into `out`. Read-only, so the thread
     *  that just stepped the shard can call it while other threads step
     *  theirs. */
    void AddTotalsTo(NodeTotals& out) const;

    /** Merges per-node metrics (namespaced by node name) into `out`. */
    void CollectNodeMetrics(telemetry::MetricRegistry& out);

    std::size_t num_nodes() const { return nodes_.size(); }
    std::size_t first_node_index() const
    {
        return config_.first_node_index;
    }
    MultiAgentNode& node(std::size_t i) { return *nodes_[i]; }
    sim::EventQueue& queue() { return queue_; }
    const sim::EventQueue& queue() const { return queue_; }

    /** The shard's trace recorder (null when tracing is disabled). */
    telemetry::trace::TraceRecorder* trace() { return trace_; }

  private:
    NodeShardConfig config_;
    sim::EventQueue queue_;
    /** Owned by config_.trace_session; created before the nodes so it
     *  can be injected into their configs. */
    telemetry::trace::TraceRecorder* trace_ = nullptr;
    std::vector<std::unique_ptr<MultiAgentNode>> nodes_;
    bool started_ = false;
};

}  // namespace sol::cluster
