/**
 * @file
 * Agent interference on a shared node — the deployment risk the paper's
 * section 5 studies but no single-agent experiment can show.
 *
 * Panel 1 runs the primary-VM QoS story four ways on one 16-core node:
 *   harvest-only    — SmartHarvest alone (the fig 6 setting);
 *   overclock-only  — SmartOverclock alone (the fig 1 setting);
 *   ungoverned      — all four agents, conflicting actuations admitted
 *                     (the naive "just deploy them together");
 *   arbitrated      — all four agents behind the InterferenceArbiter.
 * Reported: primary P99, harvested capacity, node energy, and the
 * number of conflicting actuations observed/resolved.
 *
 * Panel 2 scales the arbitrated node to a small serial fleet (every node
 * on one virtual clock: a one-shard, one-thread ShardedFleetRunner) and
 * reports per-node and aggregate behavior; the full fleet metric
 * registry is embedded in this bench's BENCH_fig_interference.json.
 */
#include <iostream>

#include "cluster/multi_agent_node.h"
#include "fleet/fleet_runner.h"
#include "telemetry/metric_registry.h"

using sol::cluster::MultiAgentNode;
using sol::cluster::MultiAgentNodeConfig;
using sol::fleet::FleetConfig;
using sol::fleet::ShardedFleetRunner;
using sol::telemetry::BenchJson;
using sol::telemetry::TableWriter;

namespace {

constexpr auto kDuration = sol::sim::Seconds(60);

struct NodeRunResult {
    double p99_ms = 0.0;
    double harvested_core_s = 0.0;
    double energy_j = 0.0;
    std::uint64_t conflicts_observed = 0;
    std::uint64_t conflicts_resolved = 0;
    std::uint64_t total_epochs = 0;
};

NodeRunResult
RunNode(MultiAgentNodeConfig config)
{
    sol::sim::EventQueue queue;
    MultiAgentNode node(queue, config);
    node.Start();
    queue.RunFor(kDuration);
    node.CollectMetrics();

    NodeRunResult result;
    result.p99_ms = node.primary_workload().PerformanceValue();
    result.harvested_core_s =
        node.metrics().Gauge("node.harvested_core_seconds");
    result.energy_j = node.node().EnergyJoules();
    result.conflicts_observed = node.arbiter().conflicts_observed();
    result.conflicts_resolved = node.arbiter().conflicts_resolved();
    result.total_epochs = node.TotalEpochs();
    node.Stop();
    return result;
}

}  // namespace

int
main()
{
    std::cout << "=== Interference: co-located agents on one node ===\n";
    std::cout << "(primary-VM P99 under SmartOverclock + SmartHarvest +"
              << " SmartMemory + SmartMonitor, 60 s simulated)\n\n";

    BenchJson json("fig_interference");
    TableWriter table({"config", "P99 ms", "harvested core-s",
                       "energy J", "conflicts seen",
                       "conflicts resolved", "epochs"});

    const auto add_row = [&table](const char* name,
                                  const NodeRunResult& r) {
        table.AddRow({name, TableWriter::Num(r.p99_ms, 1),
                      TableWriter::Num(r.harvested_core_s, 0),
                      TableWriter::Num(r.energy_j, 0),
                      std::to_string(r.conflicts_observed),
                      std::to_string(r.conflicts_resolved),
                      std::to_string(r.total_epochs)});
    };

    MultiAgentNodeConfig harvest_only;
    harvest_only.run_overclock = false;
    harvest_only.run_memory = false;
    harvest_only.run_monitor = false;
    add_row("harvest-only", RunNode(harvest_only));

    MultiAgentNodeConfig overclock_only;
    overclock_only.run_harvest = false;
    overclock_only.run_memory = false;
    overclock_only.run_monitor = false;
    add_row("overclock-only", RunNode(overclock_only));

    MultiAgentNodeConfig ungoverned;
    ungoverned.arbiter.enabled = false;
    add_row("all-agents ungoverned", RunNode(ungoverned));

    MultiAgentNodeConfig arbitrated;
    add_row("all-agents arbitrated", RunNode(arbitrated));

    table.Print(std::cout);
    std::cout << "\nThe ungoverned node admits every conflicting"
              << " actuation (boosting frequency on cores the primary"
              << " just lost); the arbiter resolves each conflict toward"
              << " the safe action at a small efficiency cost.\n";
    json.AddTable("single_node", table);

    // --- Panel 2: the arbitrated node, fleet-scaled. -------------------
    std::cout << "\n=== Fleet: 4 arbitrated nodes, one virtual clock ==="
              << "\n\n";
    FleetConfig fleet_config;
    fleet_config.num_nodes = 4;
    fleet_config.num_shards = 1;  // Every node on one queue.
    fleet_config.num_threads = 1;
    ShardedFleetRunner runner(fleet_config);
    runner.Run(kDuration);

    TableWriter fleet_table({"node", "P99 ms", "epochs",
                             "conflicts resolved"});
    for (std::size_t i = 0; i < runner.num_nodes(); ++i) {
        MultiAgentNode& node = runner.node(i);
        fleet_table.AddRow(
            {node.name(),
             TableWriter::Num(node.primary_workload().PerformanceValue(),
                              1),
             std::to_string(node.TotalEpochs()),
             std::to_string(node.arbiter().conflicts_resolved())});
    }
    fleet_table.Print(std::cout);

    const sol::cluster::FleetStats fleet = runner.Stats();
    std::cout << "\nfleet totals: epochs=" << fleet.total_epochs
              << " actions=" << fleet.total_actions
              << " safeguard_triggers=" << fleet.safeguard_triggers
              << " conflicts_resolved=" << fleet.conflicts_resolved
              << "\n";
    json.AddTable("fleet_nodes", fleet_table);

    sol::telemetry::MetricRegistry fleet_metrics;
    runner.CollectFleetMetrics(fleet_metrics);
    json.AddMetrics("fleet_metrics", fleet_metrics);
    runner.Stop();

    json.WriteFile();
    return 0;
}
