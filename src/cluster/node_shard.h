/**
 * @file
 * Shard-steppable core of the fleet drivers: a group of MultiAgentNodes
 * on one private event queue.
 *
 * PR 2's ClusterDriver stepped every node of the fleet serially on one
 * shared EventQueue — correct, but a hard scaling wall: one virtual
 * clock means one thread, no matter how many cores the host has. The
 * shard is the extraction of that loop into a self-contained unit:
 * it owns its queue (arena, virtual clock, trace hash), its contiguous
 * slice of the fleet's nodes, and the staggered-start scheduling, so a
 * driver can hold one shard (ClusterDriver — the serial case, exactly
 * as before) or many (fleet::ShardedFleetRunner — each one a work item
 * that any of its threads may claim, stepped in parallel within a
 * virtual-time window).
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
#include "core/runtime_stats.h"
#include "sim/event_queue.h"
#include "telemetry/latency_histogram.h"
#include "telemetry/metric_registry.h"
#include "telemetry/trace.h"

namespace sol::cluster {

/** Roll-up counters across a group of nodes (shard or whole fleet). */
struct FleetStats {
    std::uint64_t total_agents = 0;  ///< Real + synthetic, all nodes.
    std::uint64_t total_epochs = 0;
    std::uint64_t total_actions = 0;
    std::uint64_t safeguard_triggers = 0;
    std::uint64_t arbiter_requests = 0;
    std::uint64_t conflicts_observed = 0;
    std::uint64_t conflicts_resolved = 0;

    /** Field-wise sum, for rolling shard stats up to fleet totals. */
    void Accumulate(const FleetStats& other);
};

/**
 * What a fleet health sample reads from a group of nodes: every agent's
 * runtime counters, the merged epoch-latency histogram, arbiter
 * admissions and denials, and the agent count. All of it is exact
 * integer sums and bucket-wise histogram adds, so per-shard totals
 * folded in any grouping equal one walk over every node.
 */
struct HealthTotals {
    core::RuntimeStats stats;
    telemetry::LatencyHistogram epochs;
    std::uint64_t arbiter_requests = 0;
    std::uint64_t arbiter_denied = 0;
    std::uint64_t agents = 0;

    /** Adds another group's totals (shard partials into the fleet's). */
    void Accumulate(const HealthTotals& other);

    /** Zeroes the totals in place; the histogram keeps its storage, so
     *  a partial reused every sampled window stops allocating. */
    void Reset();
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
     *  ClusterConfig::queue_pending_limit for the drop semantics. */
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

    /** Track name for the shard's recorder; empty derives
     *  "shard<first_node_index>". */
    std::string trace_track;

    /** Ring capacity for the shard's recorder (0 = session default). */
    std::size_t trace_capacity = 0;

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

    /** Roll-up counters across the shard's nodes. */
    FleetStats Stats() const;

    /** Adds the shard's nodes' health totals into `out`. Read-only, so
     *  the worker that just stepped the shard can call it while other
     *  workers step theirs. */
    void AddHealthTo(HealthTotals& out) const;

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
