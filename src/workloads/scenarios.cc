// determinism-lint: allow-file(wall-clock) -- the two steady_clock
// reads time the run for the human-facing report only; wall_seconds is
// excluded from the behavior vector that SameBehavior() compares.
#include "workloads/scenarios.h"

#include <algorithm>
#include <chrono>

#include "core/runtime_stats.h"
#include "fleet/fleet_runner.h"
#include "telemetry/latency_histogram.h"

namespace sol::workloads {

namespace {

/** Instant at a fraction of the horizon (storm windows and curve
 *  breakpoints scale with the run length, so smoke and full modes see
 *  the same story at different magnifications). */
sim::TimePoint
Frac(sim::Duration horizon, double fraction)
{
    return sim::TimePoint(static_cast<std::int64_t>(
        static_cast<double>(horizon.count()) * fraction));
}

sim::Duration
FracSpan(sim::Duration horizon, double fraction)
{
    return sim::Duration(Frac(horizon, fraction));
}

std::vector<Scenario>
BuildLibrary()
{
    std::vector<Scenario> library;

    // --- steady_state: the flat-load control. Full demand, uniform
    // popularity, no storms — byte-identical to an unmodulated fleet
    // (tests/scenario_test.cc locks that equivalence), so drift here
    // means the *runtime* changed, not the workload.
    {
        Scenario s;
        s.name = "steady_state";
        s.summary = "flat full demand, uniform tenants, no faults "
                    "(control: equals the unmodulated fleet)";
        s.base_seed = 11;
        s.build_driver = [](const ScenarioShape&,
                            std::size_t num_tenants) {
            TraceDriverConfig d;
            d.seed = 11;
            d.num_tenants = num_tenants;
            d.curve = {DemandCurveKind::kFlat, 1.0, 1.0};
            return d;
        };
        s.expect_silent = true;
        library.push_back(std::move(s));
    }

    // --- zipf_hotspots: skewed tenant popularity. Hot tenants keep
    // the 10 ms cadence, cold ones stretch to 3x — non-uniform epoch
    // rates and arbiter pressure concentrated on the low-index nodes.
    {
        Scenario s;
        s.name = "zipf_hotspots";
        s.summary = "Zipf(1.0) tenant popularity; cold tenants collect "
                    "3x slower, load skews onto the hot shards";
        s.base_seed = 12;
        s.build_driver = [](const ScenarioShape&,
                            std::size_t num_tenants) {
            TraceDriverConfig d;
            d.seed = 12;
            d.num_tenants = num_tenants;
            d.zipf_skew = 1.0;
            d.cadence_stretch = 3.0;
            d.curve = {DemandCurveKind::kFlat, 1.0, 1.0};
            return d;
        };
        s.expected_alerts = {"epoch_p99_high"};
        library.push_back(std::move(s));
    }

    // --- diurnal_cycle: two morning-peak cycles over the horizon.
    // Trough demand short-circuits epochs (sparse data -> default
    // actions); crests refill them and restore model-driven actuation.
    {
        Scenario s;
        s.name = "diurnal_cycle";
        s.summary = "triangle-wave demand 0.3..1.0, two cycles; epochs "
                    "thin out at the trough, refill at the crest";
        s.base_seed = 13;
        s.build_driver = [](const ScenarioShape& shape,
                            std::size_t num_tenants) {
            TraceDriverConfig d;
            d.seed = 13;
            d.num_tenants = num_tenants;
            d.curve.kind = DemandCurveKind::kDiurnal;
            d.curve.base = 0.3;
            d.curve.peak = 1.0;
            d.curve.period = FracSpan(shape.horizon, 0.5);
            return d;
        };
        library.push_back(std::move(s));
    }

    // --- flash_crowd: quiet half-demand fleet, then a burst window at
    // full demand with doubled actuation pressure. Outside the flash
    // every epoch short-circuits (no model-driven expands at all);
    // inside it the expand probability jumps to 0.6 and the arbiter
    // sees the conflict/denial spike.
    {
        Scenario s;
        s.name = "flash_crowd";
        s.summary = "demand 0.5 with a full-demand flash in the 40-60% "
                    "window at 2x actuation pressure";
        s.base_seed = 14;
        s.build_driver = [](const ScenarioShape& shape,
                            std::size_t num_tenants) {
            TraceDriverConfig d;
            d.seed = 14;
            d.num_tenants = num_tenants;
            d.curve.kind = DemandCurveKind::kFlashCrowd;
            d.curve.base = 0.5;
            d.curve.peak = 1.0;
            d.curve.at = Frac(shape.horizon, 0.4);
            d.curve.duration = FracSpan(shape.horizon, 0.2);
            d.pressure_gain = 2.0;
            return d;
        };
        s.customize_node = [](cluster::MultiAgentNodeConfig& node) {
            node.synthetic.expand_fraction = 0.3;
        };
        library.push_back(std::move(s));
    }

    // --- invalid_storm (adversarial): a correlated invalid-data storm
    // across the first half of the fleet's shards. Validation rejects
    // ~95% of their reads, epochs die on the max_epoch_time deadline,
    // and the affected agents fall back to default actions until the
    // storm passes.
    {
        Scenario s;
        s.name = "invalid_storm";
        s.summary = "correlated 95% invalid-data storm over half the "
                    "fleet's shards in the 30-60% window";
        s.adversarial = true;
        s.base_seed = 15;
        s.build_driver = [](const ScenarioShape& shape,
                            std::size_t num_tenants) {
            TraceDriverConfig d;
            d.seed = 15;
            d.num_tenants = num_tenants;
            d.curve = {DemandCurveKind::kFlat, 1.0, 1.0};
            StormWindow storm;
            storm.from = Frac(shape.horizon, 0.3);
            storm.until = Frac(shape.horizon, 0.6);
            storm.tenant_begin = 0;
            storm.tenant_end = num_tenants / 2;
            storm.invalid_rate = 0.95;
            d.storms.push_back(storm);
            return d;
        };
        s.expected_alerts = {"epoch_p99_high"};
        library.push_back(std::move(s));
    }

    // --- cascading_safeguards (adversarial): synthetics contend on
    // the *coupled* CPU domains (frequency <-> cores, the arbiter's
    // default coupling — the surface the real agents study), at a
    // fast assessment cadence; a mid-run actuator-failure storm over
    // half the fleet trips their safeguards, halts actuation, floods
    // mitigations, and churns denials while holds unwind. Recovery
    // after the window exercises the resume path fleet-wide.
    {
        Scenario s;
        s.name = "cascading_safeguards";
        s.summary = "coupled-domain pressure + actuator-failure storm "
                    "over half the fleet: safeguard trips cascade, "
                    "then recover";
        s.adversarial = true;
        s.base_seed = 16;
        s.build_driver = [](const ScenarioShape& shape,
                            std::size_t num_tenants) {
            TraceDriverConfig d;
            d.seed = 16;
            d.num_tenants = num_tenants;
            d.curve = {DemandCurveKind::kFlat, 1.0, 1.0};
            StormWindow storm;
            storm.from = Frac(shape.horizon, 0.4);
            storm.until = Frac(shape.horizon, 0.7);
            storm.tenant_begin = 0;
            storm.tenant_end = num_tenants / 2;
            storm.fail_actuator = true;
            d.storms.push_back(storm);
            return d;
        };
        s.customize_node = [](cluster::MultiAgentNodeConfig& node) {
            node.synthetic.assess_actuator_interval = sim::Millis(200);
            node.synthetic.expand_fraction = 0.35;
            node.customize_synthetic =
                [](std::size_t i, cluster::SyntheticAgentConfig& cfg) {
                    cfg.domain =
                        i % 2 == 0
                            ? core::ActuationDomain::kCpuFrequency
                            : core::ActuationDomain::kCpuCores;
                };
        };
        s.expected_alerts = {"arbiter_denial_ratio", "halted_time_burn",
                             "safeguard_trip_rate"};
        library.push_back(std::move(s));
    }

    // --- model_degradation (adversarial): half the fleet's models go
    // bad mid-run. Assessments fail, the model safeguard intercepts
    // every prediction (defaults delivered, learning continues), and
    // the fleet recovers the moment the window closes.
    {
        Scenario s;
        s.name = "model_degradation";
        s.summary = "mid-run model degradation over half the fleet in "
                    "the 35-75% window: interceptions, then recovery";
        s.adversarial = true;
        s.base_seed = 17;
        s.build_driver = [](const ScenarioShape& shape,
                            std::size_t num_tenants) {
            TraceDriverConfig d;
            d.seed = 17;
            d.num_tenants = num_tenants;
            d.curve = {DemandCurveKind::kFlat, 1.0, 1.0};
            StormWindow storm;
            storm.from = Frac(shape.horizon, 0.35);
            storm.until = Frac(shape.horizon, 0.75);
            storm.tenant_begin = 0;
            storm.tenant_end = num_tenants / 2;
            storm.degrade_model = true;
            d.storms.push_back(storm);
            return d;
        };
        s.expected_alerts = {"model_failure_rate"};
        library.push_back(std::move(s));
    }

    return library;
}

}  // namespace

std::uint64_t
ScenarioResult::Counter(const std::string& key) const
{
    for (const auto& [name, value] : behavior) {
        if (name == key) {
            return value;
        }
    }
    return 0;
}

std::vector<std::string>
ScenarioResult::FiredRules() const
{
    std::vector<std::string> fired;
    for (const telemetry::AlertEvent& event : alerts) {
        if (event.firing) {
            fired.push_back(event.rule);
        }
    }
    std::sort(fired.begin(), fired.end());
    fired.erase(std::unique(fired.begin(), fired.end()), fired.end());
    return fired;
}

const std::vector<Scenario>&
ScenarioLibrary()
{
    static const std::vector<Scenario> library = BuildLibrary();
    return library;
}

const Scenario*
FindScenario(const std::string& name)
{
    for (const Scenario& scenario : ScenarioLibrary()) {
        if (scenario.name == name) {
            return &scenario;
        }
    }
    return nullptr;
}

ScenarioResult
RunScenario(const Scenario& scenario, const ScenarioOptions& options)
{
    const ScenarioShape shape =
        options.smoke ? scenario.smoke : scenario.full;
    const std::size_t num_tenants =
        shape.num_nodes * shape.synthetic_agents;

    TraceDriverConfig driver_config;
    if (scenario.build_driver) {
        driver_config = scenario.build_driver(shape, num_tenants);
    }
    driver_config.num_tenants = num_tenants;
    const TraceDriver driver(driver_config);

    fleet::FleetConfig fleet;
    fleet.num_nodes = shape.num_nodes;
    fleet.num_shards = shape.num_nodes;  // Fixed: one shard per node.
    fleet.num_threads = options.num_threads;
    fleet.base_seed = scenario.base_seed;
    fleet.window = sim::Millis(100);
    fleet.queue_pending_limit = std::size_t{1} << 20;
    fleet.node.synthetic_agents = shape.synthetic_agents;
    fleet.node.trace_driver = &driver;
    if (scenario.customize_node) {
        scenario.customize_node(fleet.node);
    }

    telemetry::TimeSeriesStore health;
    telemetry::AlertEngine engine;
    if (options.health) {
        engine.AddRules(telemetry::DefaultFleetAlertRules());
        fleet.health = &health;
        fleet.alerts = &engine;
    }

    fleet::ShardedFleetRunner runner(fleet);
    const auto start = std::chrono::steady_clock::now();
    runner.Run(shape.horizon);
    const auto end = std::chrono::steady_clock::now();
    runner.Stop();

    // Fleet-wide roll-ups: runtime counters and the epoch-latency
    // distribution summed/merged over every agent of every node, plus
    // the arbiters' and the synthetic actuators' accounting.
    const cluster::NodeTotals totals = runner.Totals();
    const core::RuntimeStats& agents = totals.stats;
    const sim::EventQueueStats queue = runner.QueueStats();
    const telemetry::LatencySnapshot latency = totals.epochs.Snapshot();

    ScenarioResult result;
    result.name = scenario.name;
    result.threads = runner.num_threads();
    result.shape = shape;
    result.fleet_trace_hash = runner.fleet_trace_hash();
    result.driver_hash = driver.trace_hash();
    result.total_events = runner.total_executed();
    result.wall_seconds =
        std::chrono::duration<double>(end - start).count();
    result.behavior = {
        {"agents", totals.agents},
        {"epochs", agents.epochs},
        {"model_updates", agents.model_updates},
        {"short_circuit_epochs", agents.short_circuit_epochs},
        {"samples_collected", agents.samples_collected},
        {"invalid_samples", agents.invalid_samples},
        {"model_assessments", agents.model_assessments},
        {"failed_assessments", agents.failed_assessments},
        {"intercepted_predictions", agents.intercepted_predictions},
        {"predictions_delivered", agents.predictions_delivered},
        {"default_predictions", agents.default_predictions},
        {"expired_predictions", agents.expired_predictions},
        {"dropped_while_halted", agents.dropped_while_halted},
        {"actions_taken", agents.actions_taken},
        {"actions_with_prediction", agents.actions_with_prediction},
        {"actuator_timeouts", agents.actuator_timeouts},
        {"actuator_assessments", agents.actuator_assessments},
        {"safeguard_triggers", agents.safeguard_triggers},
        {"mitigations", agents.mitigations},
        {"halted_ns",
         static_cast<std::uint64_t>(
             agents.halted_time.count() < 0 ? 0
                                            : agents.halted_time.count())},
        {"arbiter_requests", totals.arbiter_requests},
        {"conflicts_observed", totals.conflicts_observed},
        {"conflicts_resolved", totals.conflicts_resolved},
        {"expands_admitted", totals.expands_admitted},
        {"expands_denied", totals.expands_denied},
        {"queue_dropped", queue.dropped},
        {"total_events", result.total_events},
        {"epoch_p50_ns", latency.p50_ns},
        {"epoch_p90_ns", latency.p90_ns},
        {"epoch_p99_ns", latency.p99_ns},
        {"epoch_p999_ns", latency.p999_ns},
    };
    if (options.health) {
        result.timeline_hash = health.timeline_hash();
        result.health_samples = health.total_appended();
        result.alerts = engine.events();
        result.slos = engine.SloStatuses(health);
        result.health_json = telemetry::HealthReportWriter::ToString(
            "scenario_" + scenario.name, health, engine);
    }
    return result;
}

bool
SameBehavior(const ScenarioResult& a, const ScenarioResult& b)
{
    return a.name == b.name &&
           a.fleet_trace_hash == b.fleet_trace_hash &&
           a.driver_hash == b.driver_hash &&
           a.total_events == b.total_events && a.behavior == b.behavior;
}

bool
SameHealth(const ScenarioResult& a, const ScenarioResult& b)
{
    return a.timeline_hash == b.timeline_hash &&
           a.health_samples == b.health_samples && a.alerts == b.alerts;
}

}  // namespace sol::workloads
