/**
 * @file
 * Node-level differential parity: the node core's two backends run as
 * each other's reference. ThreadedMultiAgentNode (77 real agent
 * threads, hardened concurrent arbiter) must produce field-for-field
 * identical aggregated RuntimeStats, the same gauge keys with equal
 * values (bar the substrate gauges), and identical arbiter
 * conflict/denial counters to the simulated MultiAgentNode over
 * identical scripted scenarios. This extends the
 * single-runtime parity gate (tests/runtime_parity_test.cc) to the
 * full node: shared arbiter, registry teardown paths, and restarts
 * while peers hold coupled domains.
 *
 * Determinism strategy (see docs/CLUSTER.md "Threaded-node parity"):
 *
 *   - Only synthetic agents run (the real four share mutable substrate
 *     whose advancement is driver-paced, so their telemetry values are
 *     not instant-for-instant comparable across backends; synthetics
 *     depend only on their seed streams and the clock).
 *   - Every agent gets a distinct prime collect interval near 10 ms,
 *     so no two agents ever touch the arbiter at the same virtual
 *     instant: the global admission order is simply virtual-time
 *     order, on both backends.
 *   - On the threaded leg each agent runs on its own core::ManualClock;
 *     the harness merges all agents' tick instants into one timeline
 *     and grants exactly one tick to one agent at a time, quiescing
 *     (model parked, deliveries drained, due assessments done) before
 *     the next grant. Real threads, serialized virtual time.
 *   - Scripted restarts land exactly at the restarted agent's own tick
 *     instant, where both backends resume phase-aligned.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <functional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cluster/multi_agent_node.h"
#include "cluster/threaded_multi_agent_node.h"
#include "core/manual_clock.h"
#include "sim/event_queue.h"
#include "workloads/trace_driver.h"

namespace sol::cluster {
namespace {

using sim::Millis;
using sim::Seconds;

using ThreadedNode = ThreadedMultiAgentNode<core::ManualClock>;

/** One scripted agent restart: after the agent's own tick `tick`. */
struct ScriptedRestart {
    std::size_t agent = 0;
    std::uint64_t tick = 1;
};

/** A complete node scenario, run identically on both node variants. */
struct NodeScenario {
    std::size_t num_agents = 2;
    sim::Duration horizon = Millis(80);
    bool safeguard = false;
    std::vector<ScriptedRestart> restarts;
    /** Optional demand oracle (must not stretch cadence: the harness
     *  timeline is built from the prime intervals). */
    const workloads::TraceDriver* trace_driver = nullptr;
    /** Applied on top of the harness baseline (never override
     *  data_collect_interval / assess_actuator_interval — the harness
     *  owns the timing). */
    std::function<void(std::size_t, SyntheticAgentConfig&)> customize;
};

/** Distinct prime collect intervals near 10 ms: no two agents ever
 *  share a virtual instant (k1*p1 == k2*p2 would need p2 | k1 with
 *  k1 < 20, impossible for primes ~1e7). */
std::vector<sim::Duration>
PrimeIntervals(std::size_t n)
{
    const auto is_prime = [](std::int64_t v) {
        for (std::int64_t d = 3; d * d <= v; d += 2) {
            if (v % d == 0) {
                return false;
            }
        }
        return true;
    };
    std::vector<sim::Duration> intervals;
    intervals.reserve(n);
    for (std::int64_t v = 10000019; intervals.size() < n; v += 2) {
        if (is_prime(v)) {
            intervals.push_back(sim::Nanos(v));
        }
    }
    return intervals;
}

MultiAgentNodeConfig
MakeNodeConfig(const NodeScenario& scenario,
               const std::vector<sim::Duration>& intervals)
{
    MultiAgentNodeConfig config;
    config.seed = 42;
    config.run_overclock = false;
    config.run_harvest = false;
    config.run_memory = false;
    config.run_monitor = false;
    config.synthetic_agents = scenario.num_agents;
    config.trace_driver = scenario.trace_driver;
    config.runtime.blocking_actuator = true;
    config.runtime.disable_actuator_safeguard = !scenario.safeguard;
    const bool safeguard = scenario.safeguard;
    const auto user = scenario.customize;
    config.customize_synthetic = [intervals, safeguard, user](
                                     std::size_t i,
                                     SyntheticAgentConfig& cfg) {
        cfg.data_collect_interval = intervals[i];
        cfg.assess_actuator_interval = intervals[i];
        cfg.max_epoch_time = Seconds(100);
        cfg.max_actuation_delay = Seconds(100);
        if (safeguard) {
            // Safeguard-on parity needs one delivery (hence one wake,
            // hence one due assessment) per tick: the sim backend
            // assesses on its own periodic event chain, the threaded
            // one only on delivery wakes.
            cfg.data_per_epoch = 1;
            cfg.invalid_fraction = 0.0;
        }
        if (user) {
            user(i, cfg);
        }
    };
    return config;
}

/** Collect ticks agent i completes before the horizon. */
std::vector<std::uint64_t>
TickBudgets(const NodeScenario& scenario,
            const std::vector<sim::Duration>& intervals)
{
    std::vector<std::uint64_t> budgets;
    budgets.reserve(scenario.num_agents);
    for (std::size_t i = 0; i < scenario.num_agents; ++i) {
        budgets.push_back(static_cast<std::uint64_t>(
            scenario.horizon.count() / intervals[i].count()));
    }
    return budgets;
}

std::string
AgentName(std::size_t i)
{
    return "synthetic" + std::to_string(i);
}

/** Everything the parity assertion compares. */
struct NodeLegResult {
    std::vector<core::RuntimeStats> agents;  ///< By synthetic index.
    core::RuntimeStats aggregate;
    std::uint64_t arbiter_requests = 0;
    std::uint64_t conflicts_observed = 0;
    std::uint64_t conflicts_resolved = 0;
    std::map<std::string, std::uint64_t> counters;
    std::map<std::string, double> gauges;
};

NodeLegResult
RunSimNodeLeg(const NodeScenario& scenario,
              const std::vector<sim::Duration>& intervals)
{
    sim::EventQueue queue;
    MultiAgentNode node(queue, MakeNodeConfig(scenario, intervals));
    node.Start();

    // Restarts in virtual-time order; RunUntil is inclusive, so the
    // agent's tick-k collect (and its same-instant delivery, wake, and
    // assessment) completes before the stop.
    std::vector<std::pair<sim::TimePoint, std::size_t>> restarts;
    for (const ScriptedRestart& r : scenario.restarts) {
        restarts.emplace_back(
            sim::TimePoint(intervals[r.agent] *
                           static_cast<std::int64_t>(r.tick)),
            r.agent);
    }
    std::sort(restarts.begin(), restarts.end());
    for (const auto& [when, agent] : restarts) {
        queue.RunUntil(when);
        node.StopAgent(AgentName(agent));
        node.StartAgent(AgentName(agent));
    }
    queue.RunUntil(sim::TimePoint(scenario.horizon));
    node.Stop();
    node.CollectMetrics();

    NodeLegResult result;
    for (std::size_t i = 0; i < scenario.num_agents; ++i) {
        result.agents.push_back(node.AgentStats(AgentName(i)));
    }
    result.aggregate = node.AggregateStats();
    result.arbiter_requests = node.arbiter().requests();
    result.conflicts_observed = node.arbiter().conflicts_observed();
    result.conflicts_resolved = node.arbiter().conflicts_resolved();
    result.counters = node.metrics().counters();
    result.gauges = node.metrics().gauges();
    return result;
}

template <typename Condition>
bool
WaitUntil(Condition condition)
{
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(20);
    while (std::chrono::steady_clock::now() < deadline) {
        if (condition()) {
            return true;
        }
        std::this_thread::sleep_for(std::chrono::microseconds(100));
    }
    return condition();
}

/** Waits until agent `slot` fully digested its `granted` ticks: model
 *  parked on the tick budget, every delivery acted on or dropped, and
 *  (safeguard on) every due actuator assessment completed. Once true,
 *  the agent has no arbiter call in flight (stats are bumped after
 *  TakeAction returns), so the next agent's grant cannot race it. */
void
QuiesceAgent(ThreadedNode& node, std::size_t slot, std::uint64_t granted,
             bool safeguard)
{
    const std::string name = AgentName(slot);
    const bool done = WaitUntil([&] {
        if (!node.synthetic_clock(slot).Parked()) {
            return false;
        }
        const core::RuntimeStats stats = node.AgentStats(name);
        if (stats.samples_collected != granted) {
            return false;
        }
        if (stats.predictions_delivered !=
            stats.actions_with_prediction + stats.dropped_while_halted) {
            return false;
        }
        return !safeguard ||
               stats.actuator_assessments == stats.predictions_delivered;
    });
    ASSERT_TRUE(done) << name << " failed to quiesce at tick " << granted;
}

NodeLegResult
RunThreadedNodeLeg(const NodeScenario& scenario,
                   const std::vector<sim::Duration>& intervals)
{
    ThreadedNode node(MakeNodeConfig(scenario, intervals));
    node.Start();

    // Merge every agent's tick instants (and scripted restarts, which
    // sort after the same agent's same-instant tick) into one global
    // virtual timeline; all instants are distinct by the prime
    // construction, so this order IS the sim backend's event order.
    struct TimelineEvent {
        std::int64_t when;
        int kind;  // 0 = grant one tick, 1 = restart.
        std::size_t agent;
        std::uint64_t tick;
        bool operator<(const TimelineEvent& o) const
        {
            return std::tie(when, kind) < std::tie(o.when, o.kind);
        }
    };
    const std::vector<std::uint64_t> budgets =
        TickBudgets(scenario, intervals);
    std::vector<TimelineEvent> timeline;
    for (std::size_t i = 0; i < scenario.num_agents; ++i) {
        for (std::uint64_t k = 1; k <= budgets[i]; ++k) {
            timeline.push_back(
                {intervals[i].count() * static_cast<std::int64_t>(k), 0,
                 i, k});
        }
    }
    for (const ScriptedRestart& r : scenario.restarts) {
        timeline.push_back(
            {intervals[r.agent].count() *
                 static_cast<std::int64_t>(r.tick),
             1, r.agent, r.tick});
    }
    std::sort(timeline.begin(), timeline.end());

    const bool safeguard = scenario.safeguard;
    for (const TimelineEvent& event : timeline) {
        if (event.kind == 0) {
            node.synthetic_clock(event.agent).GrantTicks(1);
            QuiesceAgent(node, event.agent, event.tick, safeguard);
            if (testing::Test::HasFatalFailure()) {
                break;
            }
        } else {
            node.StopAgent(AgentName(event.agent));
            node.StartAgent(AgentName(event.agent));
        }
    }
    node.Stop();
    node.CollectMetrics();

    NodeLegResult result;
    for (std::size_t i = 0; i < scenario.num_agents; ++i) {
        result.agents.push_back(node.AgentStats(AgentName(i)));
    }
    result.aggregate = node.AggregateStats();
    result.arbiter_requests = node.arbiter().requests();
    result.conflicts_observed = node.arbiter().conflicts_observed();
    result.conflicts_resolved = node.arbiter().conflicts_resolved();
    result.counters = node.metrics().counters();
    result.gauges = node.metrics().gauges();
    return result;
}

/** The full node-scope parity assertion. */
void
ExpectNodeParity(const NodeLegResult& sim, const NodeLegResult& threaded)
{
    // Every RuntimeStats field, per agent and rolled up.
    EXPECT_EQ(sim.agents, threaded.agents);
    EXPECT_EQ(sim.aggregate, threaded.aggregate);

    EXPECT_EQ(sim.arbiter_requests, threaded.arbiter_requests);
    EXPECT_EQ(sim.conflicts_observed, threaded.conflicts_observed);
    EXPECT_EQ(sim.conflicts_resolved, threaded.conflicts_resolved);

    // Every metric counter (all counters are arbiter accounting:
    // per-agent requests/admitted/denied/restores plus per-pair denial
    // attribution, which is admission-order sensitive).
    EXPECT_EQ(sim.counters, threaded.counters);

    // One gauge list, whichever backend: the same keys both ways.
    std::vector<std::string> sim_keys;
    for (const auto& [key, value] : sim.gauges) {
        sim_keys.push_back(key);
    }
    std::vector<std::string> threaded_keys;
    for (const auto& [key, value] : threaded.gauges) {
        threaded_keys.push_back(key);
    }
    EXPECT_EQ(sim_keys, threaded_keys);

    // Equal values, except the substrate gauges: with no real agent the
    // threaded leg runs no substrate driver, so its substrate never
    // advances while the simulated node's does.
    const std::set<std::string> substrate = {
        "node.primary_p99_ms",         "node.primary_completed_requests",
        "node.harvested_core_seconds", "node.energy_joules",
        "node.primary_freq_ghz",       "node.memory_remote_fraction",
        "node.incident_coverage"};
    for (const auto& [key, value] : sim.gauges) {
        const auto it = threaded.gauges.find(key);
        if (substrate.count(key) == 0 && it != threaded.gauges.end()) {
            EXPECT_EQ(it->second, value) << "gauge " << key;
        }
    }
}

TEST(NodeParityTest, SeventySevenAgentCleanRunMatchesSimulatedNode)
{
    NodeScenario scenario;
    scenario.num_agents = 77;
    scenario.horizon = Millis(60);
    scenario.safeguard = false;

    const auto intervals = PrimeIntervals(scenario.num_agents);
    const NodeLegResult sim = RunSimNodeLeg(scenario, intervals);
    const NodeLegResult threaded =
        RunThreadedNodeLeg(scenario, intervals);
    ExpectNodeParity(sim, threaded);

    // The run did real work on all 77 agents.
    std::uint64_t expected_samples = 0;
    for (const std::uint64_t b : TickBudgets(scenario, intervals)) {
        expected_samples += b;
    }
    EXPECT_EQ(sim.aggregate.samples_collected, expected_samples);
    EXPECT_GT(sim.arbiter_requests, 0u);
}

TEST(NodeParityTest, ConflictingOverclockVsHarvestIntents)
{
    // Two agents with always/mostly-expanding actuators on the coupled
    // CPU-frequency/CPU-cores pair: the stand-in for SmartOverclock
    // boosting frequency while SmartHarvest reclaims cores. Agent 0
    // takes the hold first (its prime interval is shorter) and agent
    // 1's expands are denied until agent 0's coin restores.
    NodeScenario scenario;
    scenario.num_agents = 2;
    scenario.horizon = Millis(160);
    scenario.safeguard = false;
    scenario.customize = [](std::size_t i, SyntheticAgentConfig& cfg) {
        cfg.data_per_epoch = 1;
        cfg.invalid_fraction = 0.0;
        cfg.domain = i == 0 ? core::ActuationDomain::kCpuFrequency
                            : core::ActuationDomain::kCpuCores;
        cfg.expand_fraction = i == 0 ? 1.0 : 0.6;
    };

    const auto intervals = PrimeIntervals(scenario.num_agents);
    const NodeLegResult sim = RunSimNodeLeg(scenario, intervals);
    const NodeLegResult threaded =
        RunThreadedNodeLeg(scenario, intervals);
    ExpectNodeParity(sim, threaded);

    EXPECT_GT(sim.conflicts_observed, 0u);
    EXPECT_EQ(sim.conflicts_observed, sim.conflicts_resolved);
    EXPECT_GT(sim.counters.at("arbiter.denial.synthetic1.by.synthetic0"),
              0u);
}

TEST(NodeParityTest, SafeguardTripsMidHold)
{
    // Agent 0 expands every action and holds kCpuFrequency; its 4th,
    // 5th, and 6th actuator assessments fail, so the safeguard trips
    // while the hold is live. Mitigate restores (releasing the hold),
    // deliveries drop while halted, and the agent resumes at its 7th
    // assessment — meanwhile agent 1's expands on the coupled domain
    // flip from denied to admitted the moment the hold is released.
    NodeScenario scenario;
    scenario.num_agents = 2;
    scenario.horizon = Millis(120);
    scenario.safeguard = true;
    scenario.customize = [](std::size_t i, SyntheticAgentConfig& cfg) {
        cfg.domain = i == 0 ? core::ActuationDomain::kCpuFrequency
                            : core::ActuationDomain::kCpuCores;
        cfg.expand_fraction = 1.0;
        if (i == 0) {
            cfg.fail_assessments_from = 4;
            cfg.fail_assessments_count = 3;
        }
    };

    const auto intervals = PrimeIntervals(scenario.num_agents);
    const NodeLegResult sim = RunSimNodeLeg(scenario, intervals);
    const NodeLegResult threaded =
        RunThreadedNodeLeg(scenario, intervals);
    ExpectNodeParity(sim, threaded);

    EXPECT_EQ(sim.aggregate.safeguard_triggers, 1u);
    EXPECT_EQ(sim.aggregate.mitigations, 3u);
    EXPECT_GT(sim.aggregate.dropped_while_halted, 0u);
    EXPECT_GT(sim.conflicts_observed, 0u);
}

TEST(NodeParityTest, AgentRestartWhilePeerHoldsCoupledDomain)
{
    // Agent 0 holds kCpuCores from its first action; agent 1 is
    // stopped and restarted at its own 4th tick while that coupled
    // hold is live. The restart must not leak or duplicate deliveries,
    // and agent 1's post-restart expands must still be denied by the
    // surviving hold.
    NodeScenario scenario;
    scenario.num_agents = 2;
    scenario.horizon = Millis(160);
    scenario.safeguard = false;
    scenario.restarts = {{1, 4}};
    scenario.customize = [](std::size_t i, SyntheticAgentConfig& cfg) {
        cfg.data_per_epoch = 1;
        cfg.invalid_fraction = 0.0;
        cfg.domain = i == 0 ? core::ActuationDomain::kCpuCores
                            : core::ActuationDomain::kCpuFrequency;
        cfg.expand_fraction = i == 0 ? 1.0 : 0.5;
    };

    const auto intervals = PrimeIntervals(scenario.num_agents);
    const NodeLegResult sim = RunSimNodeLeg(scenario, intervals);
    const NodeLegResult threaded =
        RunThreadedNodeLeg(scenario, intervals);
    ExpectNodeParity(sim, threaded);

    EXPECT_GT(sim.conflicts_observed, 0u);
}

TEST(NodeParityTest, MixedFleetWithDefaultEpochShapeAndRestart)
{
    // Eight agents with the default synthetic epoch shape (5 samples
    // per epoch, 2% injected-invalid readings) and a mid-epoch restart:
    // epochs span multiple ticks, partial epochs reset on restart, and
    // the two backends must still agree on every counter.
    NodeScenario scenario;
    scenario.num_agents = 8;
    scenario.horizon = Millis(140);
    scenario.safeguard = false;
    scenario.restarts = {{3, 7}};

    const auto intervals = PrimeIntervals(scenario.num_agents);
    const NodeLegResult sim = RunSimNodeLeg(scenario, intervals);
    const NodeLegResult threaded =
        RunThreadedNodeLeg(scenario, intervals);
    ExpectNodeParity(sim, threaded);

    EXPECT_GT(sim.aggregate.epochs, 0u);
    EXPECT_GT(sim.aggregate.invalid_samples, 0u);
}

TEST(NodeParityTest, TraceDrivenFlashCrowdMatchesSimulatedNode)
{
    // A TraceDriver flash crowd over both backends: demand 0.5 outside
    // the 60-100 ms flash window (epoch targets shrink to 3 of 5
    // samples, epochs short-circuit into default actions), full demand
    // plus 2x actuation pressure inside it (full epochs, model-driven
    // expands). The driver is a pure function of the virtual clock and
    // both backends read the same instants, so every modulated counter
    // — short-circuits, model updates, arbiter admissions — must stay
    // field-for-field identical. No cadence stretch: the harness
    // timeline owns the tick instants.
    NodeScenario scenario;
    scenario.num_agents = 8;
    scenario.horizon = Millis(160);
    scenario.safeguard = false;
    scenario.customize = [](std::size_t, SyntheticAgentConfig& cfg) {
        cfg.expand_fraction = 0.6;
    };

    workloads::TraceDriverConfig driver_config;
    driver_config.seed = 21;
    driver_config.num_tenants = scenario.num_agents;
    driver_config.curve.kind = workloads::DemandCurveKind::kFlashCrowd;
    driver_config.curve.base = 0.5;
    driver_config.curve.peak = 1.0;
    driver_config.curve.at = sim::TimePoint(Millis(60));
    driver_config.curve.duration = Millis(40);
    driver_config.pressure_gain = 2.0;
    const workloads::TraceDriver driver(driver_config);
    scenario.trace_driver = &driver;

    const auto intervals = PrimeIntervals(scenario.num_agents);
    const NodeLegResult sim = RunSimNodeLeg(scenario, intervals);
    const NodeLegResult threaded =
        RunThreadedNodeLeg(scenario, intervals);
    ExpectNodeParity(sim, threaded);

    // The modulation really happened on both sides: thin epochs outside
    // the flash, full model-driven epochs inside it.
    EXPECT_GT(sim.aggregate.short_circuit_epochs, 0u);
    EXPECT_GT(sim.aggregate.model_updates, 0u);
    EXPECT_GT(sim.aggregate.default_predictions, 0u);
    EXPECT_GT(sim.arbiter_requests, 0u);
}

}  // namespace
}  // namespace sol::cluster
