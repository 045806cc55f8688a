/**
 * @file
 * Fleet driver: N multi-agent nodes on one shared event queue.
 *
 * The paper's results come from a production fleet; this driver is the
 * repo's scaled-down analogue. Every node gets its own RNG stream
 * (derived from the base seed and the node index) so nodes are
 * statistically independent but the whole fleet is reproducible from
 * one seed. Node agent runtimes are started with a small per-node
 * stagger so the fleet's learning epochs do not beat in lockstep — the
 * same desynchronization real deployments get for free.
 *
 * Since the sharded-fleet work, the per-node stepping lives in
 * cluster::NodeShard; ClusterDriver is the serial, single-shard fleet —
 * one virtual clock, every node interleaved on it, exactly the PR 2
 * semantics. For fleets too large to step on one thread, see
 * fleet::ShardedFleetRunner, which holds many shards and steps them on
 * several threads in fork-join virtual-time windows.
 *
 * Aggregated fleet statistics land in one MetricRegistry: per-node
 * metrics namespaced by node name ("node3.smart-harvest.epochs") plus
 * fleet totals ("fleet.total_epochs", "fleet.conflicts_resolved").
 */
#pragma once

#include <cstdint>

#include "cluster/multi_agent_node.h"
#include "cluster/node_shard.h"
#include "sim/event_queue.h"
#include "telemetry/metric_registry.h"

namespace sol::cluster {

/** Configuration of a simulated fleet. */
struct ClusterConfig {
    std::size_t num_nodes = 4;

    /** Fleet seed; node i runs stream DeriveNodeSeed(base_seed, i). */
    std::uint64_t base_seed = 1;

    /** Offset between consecutive nodes' agent start times. */
    sim::Duration start_stagger = sim::Millis(1);

    /**
     * Backpressure bound on the shared event queue (0 = unlimited).
     * Million-event fleet runs set this as a guard rail: an event storm
     * shows up as `fleet.queue.dropped` instead of a silent OOM. Drops
     * are lossy (an agent whose control event is shed may stall for the
     * rest of the run — see sim::EventQueue::SetPendingLimit), so set
     * it far above the expected peak and treat any non-zero
     * `fleet.queue.dropped` as an invalid run.
     */
    std::size_t queue_pending_limit = 0;

    /** Template applied to every node (name/seed overridden per node). */
    MultiAgentNodeConfig node;
};

/** Steps N MultiAgentNodes over one shared virtual clock. */
class ClusterDriver
{
  public:
    explicit ClusterDriver(const ClusterConfig& config);

    /**
     * Advances the fleet by `span` of virtual time. The first call
     * schedules every node's staggered start.
     */
    void Run(sim::Duration span) { shard_.Run(span); }

    /** Stops every node's agent runtimes. */
    void Stop() { shard_.Stop(); }

    /** SRE fleet-wide incident response: cleans up every agent. */
    void CleanUpAll() { shard_.CleanUpAll(); }

    /** Roll-up counters across all nodes. */
    FleetStats Stats() const { return shard_.Stats(); }

    /**
     * Aggregates per-node metrics (namespaced by node name) and fleet
     * totals into `out`.
     */
    void CollectFleetMetrics(telemetry::MetricRegistry& out);

    std::size_t num_nodes() const { return shard_.num_nodes(); }
    MultiAgentNode& node(std::size_t i) { return shard_.node(i); }
    sim::EventQueue& queue() { return shard_.queue(); }

    /** The per-node seed derivation (exposed for tests). */
    static std::uint64_t DeriveNodeSeed(std::uint64_t base_seed,
                                        std::size_t node_index);

  private:
    static NodeShardConfig MakeShardConfig(const ClusterConfig& config);

    NodeShard shard_;
};

/**
 * Writes fleet roll-up counters plus one queue's health gauges into a
 * "fleet"-scoped section of `out`. Shared by ClusterDriver (its single
 * queue) and fleet::ShardedFleetRunner (per-shard queue stats summed
 * before the call).
 */
void WriteFleetScope(telemetry::MetricRegistry& out,
                     const FleetStats& fleet, std::size_t num_nodes,
                     const sim::EventQueueStats& queue);

/**
 * Writes one queue's health gauges (executed/scheduled/cancelled/
 * dropped/pending/peak_pending/arena_capacity) under `scope`. The one
 * place these gauge names are spelled — the fleet scope and the
 * per-shard window metrics both go through it.
 */
void WriteQueueGauges(telemetry::MetricScope scope,
                      const sim::EventQueueStats& queue);

}  // namespace sol::cluster
