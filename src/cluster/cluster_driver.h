/**
 * @file
 * Fleet-scope gauge writers: the one place the "fleet.*" roll-up and
 * queue-health gauge names are spelled.
 *
 * fleet::ShardedFleetRunner is the repo's one fleet driver; a serial
 * fleet is a runner with one shard and one thread. The file keeps the
 * name it had when it also held a serial driver because
 * perfbench/fleet_bench.cc includes it for WriteQueueGauges, and
 * perfbench changes only together with the benchmark itself.
 */
#pragma once

#include <cstddef>

#include "cluster/node_shard.h"
#include "sim/event_queue.h"
#include "telemetry/metric_registry.h"

namespace sol::cluster {

/**
 * Writes fleet roll-up counters plus the fleet's queue health gauges
 * (per-shard queue stats summed before the call) into a
 * "fleet"-scoped section of `out`.
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
