#include "cluster/cluster_driver.h"

namespace sol::cluster {

void
WriteFleetScope(telemetry::MetricRegistry& out, const FleetStats& fleet,
                std::size_t num_nodes,
                const sim::EventQueueStats& queue)
{
    telemetry::MetricScope scope(out, "fleet");
    scope.SetGauge("num_nodes", static_cast<double>(num_nodes));
    scope.SetGauge("total_agents",
                   static_cast<double>(fleet.total_agents));
    scope.SetGauge("total_epochs",
                   static_cast<double>(fleet.total_epochs));
    scope.SetGauge("total_actions",
                   static_cast<double>(fleet.total_actions));
    scope.SetGauge("safeguard_triggers",
                   static_cast<double>(fleet.safeguard_triggers));
    scope.SetGauge("arbiter_requests",
                   static_cast<double>(fleet.arbiter_requests));
    scope.SetGauge("conflicts_observed",
                   static_cast<double>(fleet.conflicts_observed));
    scope.SetGauge("conflicts_resolved",
                   static_cast<double>(fleet.conflicts_resolved));

    // Queue health: arena footprint and drop counters are fleet-level
    // signals whether the fleet runs on one queue or one per shard.
    WriteQueueGauges(scope.Sub("queue"), queue);
}

void
WriteQueueGauges(telemetry::MetricScope scope,
                 const sim::EventQueueStats& queue)
{
    scope.SetGauge("executed", static_cast<double>(queue.executed));
    scope.SetGauge("scheduled", static_cast<double>(queue.scheduled));
    scope.SetGauge("cancelled", static_cast<double>(queue.cancelled));
    scope.SetGauge("dropped", static_cast<double>(queue.dropped));
    scope.SetGauge("pending", static_cast<double>(queue.pending));
    scope.SetGauge("peak_pending",
                   static_cast<double>(queue.peak_pending));
    scope.SetGauge("arena_capacity",
                   static_cast<double>(queue.arena_capacity));
}

}  // namespace sol::cluster
