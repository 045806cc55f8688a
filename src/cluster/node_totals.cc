#include "cluster/node_totals.h"

namespace sol::cluster {

void
NodeTotals::Accumulate(const NodeTotals& other)
{
    stats.Accumulate(other.stats);
    epochs.Merge(other.epochs);
    arbiter_requests += other.arbiter_requests;
    conflicts_observed += other.conflicts_observed;
    conflicts_resolved += other.conflicts_resolved;
    expands_admitted += other.expands_admitted;
    expands_denied += other.expands_denied;
    agents += other.agents;
}

void
NodeTotals::Reset()
{
    stats = {};
    epochs.Reset();
    arbiter_requests = 0;
    conflicts_observed = 0;
    conflicts_resolved = 0;
    expands_admitted = 0;
    expands_denied = 0;
    agents = 0;
}

}  // namespace sol::cluster
