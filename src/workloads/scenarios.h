/**
 * @file
 * Named trace-driven workload scenarios with behavior verdicts.
 *
 * A Scenario binds a fleet shape (nodes x synthetics, horizon) to a
 * TraceDriver demand description and runs it on the sharded fleet
 * executor, harvesting *behavioral* counters — safeguard triggers,
 * arbiter conflicts and denials, prediction drops, short-circuit
 * epochs, epoch-latency percentiles — instead of just throughput. The
 * library below ships the realistic shapes (steady state, Zipfian
 * hotspots, diurnal cycles, flash crowds) and the adversarial ones
 * (correlated invalid-data storms across a shard, cascading safeguard
 * trips under coupled-domain pressure, mid-run model degradation).
 *
 * Every scenario is byte-deterministic: the TraceDriver is a pure
 * function of virtual time and the fleet runner is thread-count
 * invariant, so a scenario's fleet trace hash and its entire behavior
 * counter vector are identical at 1/2/8 worker threads and across
 * repeated runs. bench/scenario_suite.cc turns that into a CI gate:
 * each scenario emits BENCH_scenario_<name>.json whose behavior table
 * is diffed against the committed golden baseline by
 * tools/check_bench_verdicts.py — a change in *behavior*, not just
 * speed, fails the build. docs/SCENARIOS.md catalogs the knobs and the
 * baseline-update procedure.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "cluster/multi_agent_node.h"
#include "sim/time.h"
#include "telemetry/alerting.h"
#include "telemetry/timeseries.h"
#include "workloads/trace_driver.h"

namespace sol::workloads {

/** Fleet sizing one scenario mode runs at. */
struct ScenarioShape {
    std::size_t num_nodes = 4;
    std::size_t synthetic_agents = 8;  ///< Plus the 4 real agents.
    sim::Duration horizon = sim::Seconds(2);
};

/** One named workload scenario. */
struct Scenario {
    std::string name;
    std::string summary;
    bool adversarial = false;

    /** Full-bench sizing. */
    ScenarioShape full{16, 24, sim::Seconds(8)};
    /** CI smoke sizing (committed baselines are recorded in this
     *  mode, so it must stay fixed). */
    ScenarioShape smoke{4, 8, sim::Seconds(2)};

    std::uint64_t base_seed = 1;

    /** Builds the demand description for a shape. num_tenants is
     *  shape.num_nodes * shape.synthetic_agents (node-major). */
    std::function<TraceDriverConfig(const ScenarioShape& shape,
                                    std::size_t num_tenants)>
        build_driver;

    /** Optional extra node-template customization (synthetic cadence,
     *  conflict domains, runtime options) applied after the defaults. */
    std::function<void(cluster::MultiAgentNodeConfig&)> customize_node;

    /**
     * Alert rules from telemetry::DefaultFleetAlertRules() that MUST
     * fire at least once when this scenario runs in smoke mode with
     * health sampling on, and — by omission — the rules that must stay
     * silent. steady_state expects none: the default pack is
     * calibrated so the control scenario never pages.
     */
    std::vector<std::string> expected_alerts;

    /** True when the scenario must produce NO alert transitions at
     *  all (the steady_state control). Stronger than an empty
     *  expected_alerts, which only means "nothing required". */
    bool expect_silent = false;
};

/** Execution options for one scenario run. */
struct ScenarioOptions {
    std::size_t num_threads = 1;
    /** True runs the smoke shape (the committed-baseline mode). */
    bool smoke = false;
    /** Sample fleet health timelines and evaluate the default alert
     *  pack at every window boundary. Observe-only: the fleet trace
     *  hash and behavior vector are identical either way. */
    bool health = true;
};

/** Machine-readable outcome of one scenario run. */
struct ScenarioResult {
    std::string name;
    std::size_t threads = 0;
    ScenarioShape shape;
    std::uint64_t fleet_trace_hash = 0;
    std::uint64_t driver_hash = 0;
    std::uint64_t total_events = 0;
    double wall_seconds = 0.0;

    /**
     * Behavior verdict counters in a fixed order (stable across runs,
     * so vectors compare and serialize deterministically): runtime
     * counters summed over every agent of every node, arbiter and
     * synthetic-actuator accounting, queue health, and the merged
     * epoch-latency percentiles (virtual ns).
     */
    std::vector<std::pair<std::string, std::uint64_t>> behavior;

    /** Value of one behavior counter (0 when absent). */
    std::uint64_t Counter(const std::string& key) const;

    /** FNV-1a hash of every health sample (0 when health was off). */
    std::uint64_t timeline_hash = 0;
    /** Total health samples appended across all series. */
    std::uint64_t health_samples = 0;
    /** Every alert transition, in virtual-time order. */
    std::vector<telemetry::AlertEvent> alerts;
    /** Per-SLO budget accounting at end of run. */
    std::vector<telemetry::SloStatus> slos;
    /** Full HEALTH_<name>.json document (empty when health was off). */
    std::string health_json;

    /** Sorted, deduplicated names of rules that fired at least once. */
    std::vector<std::string> FiredRules() const;
};

/** The scenario library (>= 6 scenarios, >= 3 adversarial). */
const std::vector<Scenario>& ScenarioLibrary();

/** Library scenario by name; nullptr when unknown. */
const Scenario* FindScenario(const std::string& name);

/** Runs one scenario on a ShardedFleetRunner (one shard per node). */
ScenarioResult RunScenario(const Scenario& scenario,
                           const ScenarioOptions& options);

/** True when two runs agree on every determinism-gated field: trace
 *  hashes, event totals, and the full behavior vector. */
bool SameBehavior(const ScenarioResult& a, const ScenarioResult& b);

/** True when two runs agree on the health timeline hash, the sample
 *  count, and the full alert transition log (timestamps included). */
bool SameHealth(const ScenarioResult& a, const ScenarioResult& b);

}  // namespace sol::workloads
