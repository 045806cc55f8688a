/**
 * @file
 * Tests for the multi-agent node + cluster simulation subsystem:
 * InterferenceArbiter conflict resolution, MultiAgentNode lifecycle and
 * per-agent accounting, and ClusterDriver fleet determinism.
 */
#include <gtest/gtest.h>

#include <chrono>
#include <stdexcept>
#include <thread>
#include <vector>

#include "cluster/cluster_driver.h"
#include "cluster/interference_arbiter.h"
#include "cluster/multi_agent_node.h"
#include "cluster/threaded_multi_agent_node.h"
#include "core/prediction.h"
#include "sim/event_queue.h"

namespace sol {
namespace {

using cluster::ArbitrationPolicy;
using cluster::ClusterConfig;
using cluster::ClusterDriver;
using cluster::InterferenceArbiter;
using cluster::InterferenceArbiterConfig;
using cluster::MultiAgentNode;
using cluster::MultiAgentNodeConfig;
using cluster::ThreadedMultiAgentNode;
using core::ActuationDomain;
using core::ActuationIntent;
using core::ActuationRequest;

ActuationRequest
Expand(const std::string& agent, ActuationDomain domain,
       double magnitude = 1.0)
{
    return {agent, domain, ActuationIntent::kExpand, magnitude};
}

ActuationRequest
Restore(const std::string& agent, ActuationDomain domain)
{
    return {agent, domain, ActuationIntent::kRestore, 0.0};
}

/** Node configs whose hot-channel draw could never finish. */
std::vector<MultiAgentNodeConfig>
UnplaceableHotChannelConfigs()
{
    std::vector<MultiAgentNodeConfig> configs(3);
    configs[0].num_channels = 4;
    configs[0].hot_channels = 5;  // More hot channels than channels.
    configs[1].hot_rate_per_sec = configs[1].cold_rate_per_sec;
    configs[2].hot_rate_per_sec = 0.001;  // Colder than cold (0.004).
    return configs;
}

// ---- InterferenceArbiter ------------------------------------------------

TEST(InterferenceArbiter, ResolvesOverclockVsHarvestDeterministically)
{
    telemetry::MetricRegistry metrics;
    InterferenceArbiter arbiter(
        {}, telemetry::MetricScope(metrics, "arbiter"));

    // Scripted conflict: SmartHarvest reclaims cores, then
    // SmartOverclock tries to raise frequency on the coupled domain.
    EXPECT_TRUE(
        arbiter.Admit(Expand("smart-harvest", ActuationDomain::kCpuCores))
            .admitted);
    const auto denied = arbiter.Admit(
        Expand("smart-overclock", ActuationDomain::kCpuFrequency, 2.3));
    EXPECT_FALSE(denied.admitted);
    EXPECT_EQ(denied.conflicting_agent, "smart-harvest");
    EXPECT_EQ(arbiter.conflicts_resolved(), 1u);

    // The holder restores; the boost is now admitted.
    EXPECT_TRUE(
        arbiter.Admit(Restore("smart-harvest", ActuationDomain::kCpuCores))
            .admitted);
    EXPECT_TRUE(arbiter
                    .Admit(Expand("smart-overclock",
                                  ActuationDomain::kCpuFrequency, 2.3))
                    .admitted);
    EXPECT_EQ(arbiter.conflicts_resolved(), 1u);

    // Per-agent accounting is kept in contention-safe atomics and
    // published into the registry on demand.
    arbiter.WriteMetrics();
    EXPECT_EQ(metrics.Counter("arbiter.smart-overclock.denied"), 1u);
    EXPECT_EQ(metrics.Counter("arbiter.smart-harvest.restores"), 1u);
    EXPECT_EQ(metrics.Counter(
                  "arbiter.denial.smart-overclock.by.smart-harvest"),
              1u);
}

TEST(InterferenceArbiter, SameDomainContentionBetweenAgents)
{
    telemetry::MetricRegistry metrics;
    InterferenceArbiter arbiter(
        {}, telemetry::MetricScope(metrics, "arbiter"));

    EXPECT_TRUE(arbiter.Admit(Expand("a", ActuationDomain::kCpuCores))
                    .admitted);
    // Refreshing one's own hold is never a conflict.
    EXPECT_TRUE(arbiter.Admit(Expand("a", ActuationDomain::kCpuCores))
                    .admitted);
    EXPECT_FALSE(arbiter.Admit(Expand("b", ActuationDomain::kCpuCores))
                     .admitted);
    EXPECT_EQ(arbiter.HolderOf(ActuationDomain::kCpuCores), "a");

    // Uncoupled domains do not conflict.
    EXPECT_TRUE(
        arbiter.Admit(Expand("b", ActuationDomain::kTelemetryBudget))
            .admitted);

    // A holder newer than b's first denial is attributed by name too.
    EXPECT_TRUE(arbiter.Admit(Restore("a", ActuationDomain::kCpuCores))
                    .admitted);
    EXPECT_TRUE(arbiter.Admit(Expand("c", ActuationDomain::kCpuCores))
                    .admitted);
    const auto denied =
        arbiter.Admit(Expand("b", ActuationDomain::kCpuCores));
    EXPECT_FALSE(denied.admitted);
    EXPECT_EQ(denied.conflicting_agent, "c");
    arbiter.WriteMetrics();
    EXPECT_EQ(metrics.Counter("arbiter.denial.b.by.a"), 1u);
    EXPECT_EQ(metrics.Counter("arbiter.denial.b.by.c"), 1u);
    EXPECT_EQ(metrics.Counter("arbiter.conflicts"), 2u);
}

TEST(InterferenceArbiter, RestoreIsNeverBlocked)
{
    telemetry::MetricRegistry metrics;
    InterferenceArbiter arbiter(
        {}, telemetry::MetricScope(metrics, "arbiter"));

    EXPECT_TRUE(arbiter.Admit(Expand("a", ActuationDomain::kCpuCores))
                    .admitted);
    // A denied agent can still restore (its safeguard path).
    EXPECT_FALSE(
        arbiter.Admit(Expand("b", ActuationDomain::kCpuFrequency))
            .admitted);
    EXPECT_TRUE(
        arbiter.Admit(Restore("b", ActuationDomain::kCpuFrequency))
            .admitted);
}

TEST(InterferenceArbiter, DisabledArbiterObservesButAdmits)
{
    telemetry::MetricRegistry metrics;
    InterferenceArbiterConfig config;
    config.enabled = false;
    InterferenceArbiter arbiter(
        config, telemetry::MetricScope(metrics, "arbiter"));

    EXPECT_TRUE(
        arbiter.Admit(Expand("smart-harvest", ActuationDomain::kCpuCores))
            .admitted);
    EXPECT_TRUE(arbiter
                    .Admit(Expand("smart-overclock",
                                  ActuationDomain::kCpuFrequency))
                    .admitted);
    EXPECT_EQ(arbiter.conflicts_observed(), 1u);
    EXPECT_EQ(arbiter.conflicts_resolved(), 0u);
}

TEST(InterferenceArbiter, StaticPriorityLetsImportantAgentThrough)
{
    telemetry::MetricRegistry metrics;
    InterferenceArbiterConfig config;
    config.policy = ArbitrationPolicy::kStaticPriority;
    config.priority = {"smart-overclock", "smart-harvest"};
    InterferenceArbiter arbiter(
        config, telemetry::MetricScope(metrics, "arbiter"));

    EXPECT_TRUE(
        arbiter.Admit(Expand("smart-harvest", ActuationDomain::kCpuCores))
            .admitted);
    // Overclock outranks the harvest holder and is admitted...
    EXPECT_TRUE(arbiter
                    .Admit(Expand("smart-overclock",
                                  ActuationDomain::kCpuFrequency))
                    .admitted);
    // ...and the lower-priority agent's next expand is the one denied.
    EXPECT_FALSE(
        arbiter.Admit(Expand("smart-harvest", ActuationDomain::kCpuCores))
            .admitted);
}

// ---- Scripted conflict through the real actuators -----------------------

TEST(MultiAgentNode, ArbiterResolvesScriptedActuatorConflict)
{
    sim::EventQueue queue;
    MultiAgentNodeConfig config;
    MultiAgentNode node(queue, config);

    auto* harvest = node.harvest_actuator();
    auto* overclock = node.overclock_actuator();
    ASSERT_NE(harvest, nullptr);
    ASSERT_NE(overclock, nullptr);

    const double nominal = node.node().NominalFrequency();
    const double boost =
        node.node().AllowedFrequencies().back();  // Highest DVFS step.
    const int allocated = node.node().AllocatedCores(node.primary_vm());

    // Script: SmartHarvest acts on a prediction that reclaims cores...
    harvest->TakeAction(core::MakePrediction(allocated - 2, queue.Now(),
                                             sim::Seconds(1)));
    EXPECT_EQ(node.node().GrantedCores(node.elastic_vm()), 2);

    // ...then SmartOverclock tries to boost: the arbiter denies it and
    // the actuator takes its conservative action (nominal frequency).
    overclock->TakeAction(
        core::MakePrediction(boost, queue.Now(), sim::Seconds(1)));
    EXPECT_EQ(node.node().VmFrequency(node.primary_vm()), nominal);
    EXPECT_GE(node.arbiter().conflicts_resolved(), 1u);

    // Once harvesting stops, the same boost goes through.
    harvest->TakeAction(std::nullopt);  // Conservative: return cores.
    overclock->TakeAction(
        core::MakePrediction(boost, queue.Now(), sim::Seconds(1)));
    EXPECT_EQ(node.node().VmFrequency(node.primary_vm()), boost);

    // Determinism: the scripted sequence resolves exactly one conflict.
    EXPECT_EQ(node.arbiter().conflicts_resolved(), 1u);
}

// ---- MultiAgentNode lifecycle -------------------------------------------

TEST(MultiAgentNode, RejectsUnplaceableHotChannels)
{
    for (const MultiAgentNodeConfig& config :
         UnplaceableHotChannelConfigs()) {
        sim::EventQueue queue;
        EXPECT_THROW(MultiAgentNode(queue, config), std::invalid_argument);
    }
    // Every channel hot is fine, and so is any rate with none hot.
    MultiAgentNodeConfig all_hot;
    all_hot.num_channels = 4;
    all_hot.hot_channels = 4;
    sim::EventQueue queue;
    MultiAgentNode hot_node(queue, all_hot);
    for (node::ChannelId c = 0; c < 4; ++c) {
        EXPECT_EQ(hot_node.channels().IncidentRate(c),
                  all_hot.hot_rate_per_sec);
    }
    MultiAgentNodeConfig none_hot;
    none_hot.hot_channels = 0;
    none_hot.hot_rate_per_sec = 0.0;
    EXPECT_NO_THROW(MultiAgentNode(queue, none_hot));
}

TEST(MultiAgentNode, RunsAllFourAgentsConcurrently)
{
    sim::EventQueue queue;
    MultiAgentNodeConfig config;
    MultiAgentNode node(queue, config);

    // All four agents are registered before the node even starts.
    EXPECT_EQ(node.registry().size(), 4u);
    EXPECT_TRUE(node.registry().Contains("smart-overclock"));
    EXPECT_TRUE(node.registry().Contains("smart-harvest"));
    EXPECT_TRUE(node.registry().Contains("smart-memory"));
    EXPECT_TRUE(node.registry().Contains("smart-monitor"));

    node.Start();
    queue.RunFor(sim::Seconds(5));

    // Every agent's model loop made progress on the shared queue.
    EXPECT_GT(node.OverclockStats().epochs, 0u);
    EXPECT_GT(node.HarvestStats().epochs, 0u);
    EXPECT_GT(node.MonitorStats().epochs, 0u);
    // SmartMemory's epoch is 38.4 s; its model loop must at least be
    // collecting scan rounds by now.
    EXPECT_GT(node.MemoryStats().samples_collected, 0u);
    // Harvest dominates the epoch count (25 ms epochs => ~40/s).
    EXPECT_GE(node.TotalEpochs(), 150u);

    node.CollectMetrics();
    EXPECT_GT(node.metrics().Gauge("smart-harvest.epochs"), 0.0);
    EXPECT_GT(node.metrics().Gauge("smart-overclock.actions_taken"), 0.0);
    EXPECT_GT(node.metrics().Gauge("node.total_epochs"), 0.0);
    node.Stop();
}

TEST(MultiAgentNode, DisabledAgentsLeaveRegistryAndQueueIdle)
{
    sim::EventQueue queue;
    MultiAgentNodeConfig config;
    config.run_memory = false;
    config.run_monitor = false;
    MultiAgentNode node(queue, config);

    EXPECT_EQ(node.registry().size(), 2u);
    node.Start();
    queue.RunFor(sim::Seconds(1));
    EXPECT_EQ(node.MemoryStats().epochs, 0u);
    EXPECT_EQ(node.MonitorStats().epochs, 0u);
    EXPECT_GT(node.HarvestStats().epochs, 0u);
    node.Stop();
}

TEST(MultiAgentNode, CleanUpAllRestoresCleanNodeState)
{
    sim::EventQueue queue;
    MultiAgentNodeConfig config;
    MultiAgentNode node(queue, config);
    node.Start();
    queue.RunFor(sim::Seconds(5));

    // The SRE path: terminate every agent by registry alone.
    node.CleanUpAll();
    EXPECT_EQ(node.node().VmFrequency(node.primary_vm()),
              node.node().NominalFrequency());
    EXPECT_EQ(node.node().GrantedCores(node.elastic_vm()), 0);
    EXPECT_EQ(node.node().GrantedCores(node.primary_vm()),
              node.node().AllocatedCores(node.primary_vm()));
    EXPECT_TRUE(node.policy().is_uniform());

    // CleanUp is idempotent.
    node.CleanUpAll();
    EXPECT_EQ(node.node().GrantedCores(node.elastic_vm()), 0);
}

TEST(MultiAgentNode, TeardownWhileIntentsAreInFlight)
{
    // Destroying a running node mid-flight — agents scheduled, holds
    // live in the arbiter, nothing stopped or cleaned up first — must
    // tear down via the registry cleanups alone. The aggressive
    // expand profile keeps coupled-domain holds live at the moment of
    // destruction.
    sim::EventQueue queue;
    MultiAgentNodeConfig config;
    config.synthetic_agents = 8;
    config.synthetic.expand_fraction = 1.0;
    config.customize_synthetic = [](std::size_t i,
                                    cluster::SyntheticAgentConfig& c) {
        c.domain = i % 2 == 0 ? ActuationDomain::kCpuFrequency
                              : ActuationDomain::kCpuCores;
    };
    {
        MultiAgentNode node(queue, config);
        node.Start();
        queue.RunFor(sim::Seconds(1));
        EXPECT_GT(node.arbiter().requests(), 0u);
        bool any_holding = false;
        for (std::size_t i = 0; i < node.num_synthetic_agents(); ++i) {
            any_holding |= node.synthetic_agent(i).actuator().holding();
        }
        EXPECT_TRUE(any_holding);
        // No Stop(), no CleanUpAll(): scope exit does everything.
    }
    // The queue outlives the node; pending agent events were cancelled.
    queue.RunFor(sim::Seconds(1));
}

TEST(MultiAgentNode, RestartsAfterStop)
{
    // Stop() clears started(), and a later Start() resumes every agent
    // on the drivers armed by the first Start().
    sim::EventQueue queue;
    MultiAgentNodeConfig config;
    config.synthetic_agents = 4;
    MultiAgentNode node(queue, config);
    node.Start();
    queue.RunFor(sim::Seconds(1));
    node.Stop();
    EXPECT_FALSE(node.started());
    const std::uint64_t stopped_at = node.TotalEpochs();
    EXPECT_GT(stopped_at, 0u);
    queue.RunFor(sim::Seconds(1));
    EXPECT_EQ(node.TotalEpochs(), stopped_at);

    node.Start();
    EXPECT_TRUE(node.started());
    queue.RunFor(sim::Seconds(2));
    EXPECT_GT(node.TotalEpochs(), stopped_at);
    EXPECT_GT(node.synthetic_agent(3).runtime().stats().epochs, 0u);
    node.Stop();
}

TEST(MultiAgentNode, RunIsDeterministicForAFixedSeed)
{
    auto run = [](std::uint64_t seed) {
        sim::EventQueue queue;
        MultiAgentNodeConfig config;
        config.seed = seed;
        MultiAgentNode node(queue, config);
        node.Start();
        queue.RunFor(sim::Seconds(3));
        node.CollectMetrics();
        struct Result {
            std::uint64_t epochs;
            std::uint64_t harvest_samples;
            std::uint64_t arbiter_requests;
            double p99;
        } r{node.TotalEpochs(),
            node.HarvestStats().samples_collected,
            node.arbiter().requests(),
            node.primary_workload().PerformanceValue()};
        node.Stop();
        return r;
    };

    const auto a = run(7);
    const auto b = run(7);
    EXPECT_EQ(a.epochs, b.epochs);
    EXPECT_EQ(a.harvest_samples, b.harvest_samples);
    EXPECT_EQ(a.arbiter_requests, b.arbiter_requests);
    EXPECT_EQ(a.p99, b.p99);

    // A different seed drives a different trajectory.
    const auto c = run(8);
    EXPECT_NE(a.p99, c.p99);
}

// ---- Synthetic agents: fleet-realistic node pressure ---------------------

TEST(SyntheticAgents, Reach77AgentsPerNodeWithRealProgress)
{
    sim::EventQueue queue;
    MultiAgentNodeConfig config;
    config.synthetic_agents = 73;  // + the 4 real agents = 77 (paper).
    MultiAgentNode node(queue, config);

    EXPECT_EQ(node.num_agents(), 77u);
    EXPECT_EQ(node.registry().size(), 77u);
    EXPECT_EQ(node.num_synthetic_agents(), 73u);
    EXPECT_TRUE(node.registry().Contains("synthetic0"));
    EXPECT_TRUE(node.registry().Contains("synthetic72"));

    node.Start();
    queue.RunFor(sim::Seconds(2));

    // Every synthetic runtime makes learning progress of its own.
    for (std::size_t i = 0; i < node.num_synthetic_agents(); ++i) {
        EXPECT_GT(node.synthetic_agent(i).runtime().stats().epochs, 0u)
            << "synthetic" << i << " made no progress";
    }
    // The real agents still run underneath the synthetic load.
    EXPECT_GT(node.HarvestStats().epochs, 0u);
    EXPECT_GT(node.OverclockStats().epochs, 0u);

    // 73 extra actuators produce real arbiter pressure: requests and
    // resolved conflicts on the telemetry/memory domains.
    EXPECT_GT(node.arbiter().requests(), 1000u);
    EXPECT_GT(node.arbiter().conflicts_resolved(), 0u);

    // AggregateStats rolls synthetics into the node totals.
    const core::RuntimeStats total = node.AggregateStats();
    EXPECT_GT(total.epochs, node.HarvestStats().epochs);
    EXPECT_GT(total.invalid_samples, 0u);  // Injected bad readings.
    EXPECT_GE(total.peak_queued_predictions, 1u);
    node.Stop();
}

TEST(SyntheticAgents, CleanUpAllReleasesSyntheticHolds)
{
    sim::EventQueue queue;
    MultiAgentNodeConfig config;
    config.synthetic_agents = 16;
    MultiAgentNode node(queue, config);
    node.Start();
    queue.RunFor(sim::Seconds(2));

    node.CleanUpAll();
    for (std::size_t i = 0; i < node.num_synthetic_agents(); ++i) {
        EXPECT_FALSE(node.synthetic_agent(i).actuator().holding())
            << "synthetic" << i << " still holds its domain";
    }
    // The real agents' clean state is preserved too.
    EXPECT_EQ(node.node().VmFrequency(node.primary_vm()),
              node.node().NominalFrequency());
}

TEST(SyntheticAgents, FleetRunsAreDeterministicAtFullPressure)
{
    const auto run = [](std::uint64_t seed) {
        ClusterConfig config;
        config.num_nodes = 2;
        config.base_seed = seed;
        config.node.synthetic_agents = 73;
        ClusterDriver driver(config);
        driver.Run(sim::Seconds(1));
        struct Result {
            std::uint64_t trace_hash;
            std::uint64_t executed;
            std::uint64_t epochs;
            std::uint64_t arbiter;
        } r{driver.queue().trace_hash(), driver.queue().executed(),
            driver.Stats().total_epochs, driver.Stats().arbiter_requests};
        driver.Stop();
        return r;
    };

    const auto a = run(5);
    const auto b = run(5);
    EXPECT_EQ(a.trace_hash, b.trace_hash);
    EXPECT_EQ(a.executed, b.executed);
    EXPECT_EQ(a.epochs, b.epochs);
    EXPECT_EQ(a.arbiter, b.arbiter);
    EXPECT_EQ(run(5).trace_hash, a.trace_hash);
    EXPECT_NE(run(6).trace_hash, a.trace_hash);

    // 154 agents on one queue is real pressure, not idle filler.
    EXPECT_GT(a.executed, 50'000u);
}

TEST(SyntheticAgents, QueuePendingLimitSurfacesInFleetMetrics)
{
    ClusterConfig config;
    config.num_nodes = 1;
    config.node.synthetic_agents = 40;
    config.queue_pending_limit = 32;  // Far below what 44 agents need.
    ClusterDriver driver(config);
    driver.Run(sim::Millis(500));

    telemetry::MetricRegistry out;
    driver.CollectFleetMetrics(out);
    // The storm is loud: drops are counted, never silently absorbed.
    EXPECT_GT(out.Gauge("fleet.queue.dropped"), 0.0);
    EXPECT_LE(out.Gauge("fleet.queue.pending"), 32.0);
    driver.Stop();
}

// ---- ThreadedMultiAgentNode (real threads, real clock) -------------------

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
        std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
    return condition();
}

TEST(ThreadedMultiAgentNode, RunsSyntheticFleetOnRealThreads)
{
    MultiAgentNodeConfig config;
    config.run_overclock = false;
    config.run_harvest = false;
    config.run_memory = false;
    config.run_monitor = false;
    config.synthetic_agents = 12;
    // Wall-clock cadence fast enough to make real progress in a blink.
    config.synthetic.data_collect_interval = sim::Micros(200);
    config.synthetic.max_epoch_time = sim::Millis(5);
    config.synthetic.max_actuation_delay = sim::Millis(10);
    config.synthetic.assess_actuator_interval = sim::Millis(2);
    config.synthetic.prediction_ttl = sim::Millis(10);

    ThreadedMultiAgentNode<> node(config);
    EXPECT_EQ(node.num_agents(), 12u);
    EXPECT_EQ(node.registry().size(), 12u);
    EXPECT_TRUE(node.registry().Contains("synthetic0"));

    node.Start();
    EXPECT_TRUE(node.started());
    // All 12 agent threads make learning progress and announce intents
    // into the shared arbiter concurrently.
    EXPECT_TRUE(WaitUntil([&] {
        return node.AggregateStats().epochs > 100 &&
               node.arbiter().requests() > 50;
    })) << "threaded synthetic fleet made no progress";
    node.Stop();
    EXPECT_FALSE(node.started());

    const core::RuntimeStats total = node.AggregateStats();
    EXPECT_GT(total.samples_collected, total.epochs);
    EXPECT_GT(total.actions_taken, 0u);
    node.CollectMetrics();
    EXPECT_GT(node.metrics().Gauge("synthetic0.epochs"), 0.0);
    EXPECT_GT(node.metrics().Gauge("node.total_epochs"), 0.0);

    // The whole node restarts cleanly (threads re-spawn).
    node.Start();
    const std::uint64_t before = node.AggregateStats().epochs;
    EXPECT_TRUE(
        WaitUntil([&] { return node.AggregateStats().epochs > before; }));
    node.Stop();
}

TEST(ThreadedMultiAgentNode, RejectsUnplaceableHotChannels)
{
    for (const MultiAgentNodeConfig& config :
         UnplaceableHotChannelConfigs()) {
        EXPECT_THROW(ThreadedMultiAgentNode<>{config},
                     std::invalid_argument);
    }
}

TEST(ThreadedMultiAgentNode, RunsRealAgentsOnSharedSubstrate)
{
    MultiAgentNodeConfig config;  // All four real agents, no synthetics.
    ThreadedMultiAgentNode<> node(config);
    EXPECT_EQ(node.registry().size(), 4u);
    EXPECT_TRUE(node.registry().Contains("smart-overclock"));
    EXPECT_TRUE(node.registry().Contains("smart-harvest"));
    EXPECT_TRUE(node.registry().Contains("smart-memory"));
    EXPECT_TRUE(node.registry().Contains("smart-monitor"));

    node.Start();
    // Harvest runs 25 ms epochs on the wall clock; the driver thread
    // advances the shared substrate underneath all four agents.
    EXPECT_TRUE(WaitUntil([&] {
        return node.AgentStats("smart-harvest").epochs > 5 &&
               node.AgentStats("smart-overclock").epochs > 0;
    })) << "real agents made no progress on the threaded node";
    node.Stop();

    node.CollectMetrics();
    EXPECT_GT(node.metrics().Gauge("smart-harvest.epochs"), 0.0);
    EXPECT_GT(node.metrics().Gauge("node.primary_freq_ghz"), 0.0);

    // Incident response drives the substrate back to its clean state.
    node.CleanUpAll();
}

TEST(ThreadedMultiAgentNode, TeardownWhileIntentsAreInFlight)
{
    MultiAgentNodeConfig config;
    config.run_overclock = false;
    config.run_harvest = false;
    config.run_memory = false;
    config.run_monitor = false;
    config.synthetic_agents = 8;
    config.synthetic.data_collect_interval = sim::Micros(200);
    config.synthetic.max_epoch_time = sim::Millis(5);
    config.synthetic.max_actuation_delay = sim::Millis(10);
    config.synthetic.prediction_ttl = sim::Millis(10);
    config.synthetic.expand_fraction = 1.0;
    config.customize_synthetic = [](std::size_t i,
                                    cluster::SyntheticAgentConfig& c) {
        c.domain = i % 2 == 0 ? ActuationDomain::kCpuFrequency
                              : ActuationDomain::kCpuCores;
    };

    ThreadedMultiAgentNode<> node(config);
    node.Start();
    // Destroy the node the moment agents are actively hammering the
    // arbiter: the destructor must stop every runtime thread and run
    // the registry cleanups while holds are still live.
    EXPECT_TRUE(
        WaitUntil([&] { return node.arbiter().requests() > 100; }));
    // Scope exit with 8 threads mid-intent: no Stop(), no CleanUpAll().
}

TEST(ThreadedMultiAgentNode, SingleAgentRestartWhilePeersRun)
{
    MultiAgentNodeConfig config;
    config.run_overclock = false;
    config.run_harvest = false;
    config.run_memory = false;
    config.run_monitor = false;
    config.synthetic_agents = 4;
    config.synthetic.data_collect_interval = sim::Micros(200);
    config.synthetic.max_epoch_time = sim::Millis(5);
    config.synthetic.max_actuation_delay = sim::Millis(10);
    config.synthetic.prediction_ttl = sim::Millis(10);

    ThreadedMultiAgentNode<> node(config);
    node.Start();
    ASSERT_TRUE(WaitUntil(
        [&] { return node.AgentStats("synthetic1").epochs > 10; }));

    node.StopAgent("synthetic1");
    const std::uint64_t stopped_at =
        node.AgentStats("synthetic1").epochs;
    const std::uint64_t peer_at = node.AgentStats("synthetic0").epochs;
    // Peers keep making progress while synthetic1 is down.
    EXPECT_TRUE(WaitUntil([&] {
        return node.AgentStats("synthetic0").epochs > peer_at + 10;
    }));
    EXPECT_EQ(node.AgentStats("synthetic1").epochs, stopped_at);

    // Restart resumes the same agent (stats continue, not reset).
    node.StartAgent("synthetic1");
    EXPECT_TRUE(WaitUntil([&] {
        return node.AgentStats("synthetic1").epochs > stopped_at;
    }));
    node.Stop();
}

// ---- ClusterDriver -------------------------------------------------------

TEST(ClusterDriver, StepsMultipleNodesOnOneSharedClock)
{
    ClusterConfig config;
    config.num_nodes = 3;
    ClusterDriver driver(config);
    driver.Run(sim::Seconds(2));

    const cluster::FleetStats fleet = driver.Stats();
    EXPECT_GT(fleet.total_epochs, 0u);
    EXPECT_GT(fleet.total_actions, 0u);
    for (std::size_t i = 0; i < driver.num_nodes(); ++i) {
        EXPECT_GT(driver.node(i).TotalEpochs(), 0u)
            << "node " << i << " made no progress";
    }

    telemetry::MetricRegistry out;
    driver.CollectFleetMetrics(out);
    EXPECT_EQ(out.Gauge("fleet.num_nodes"), 3.0);
    EXPECT_GT(out.Gauge("fleet.total_epochs"), 0.0);
    EXPECT_GT(out.Gauge("node0.smart-harvest.epochs"), 0.0);
    EXPECT_GT(out.Gauge("node2.smart-harvest.epochs"), 0.0);
    driver.Stop();
}

TEST(ClusterDriver, PerNodeRngStreamsAreIndependentButReproducible)
{
    auto run = [](std::uint64_t base_seed) {
        ClusterConfig config;
        config.num_nodes = 2;
        config.base_seed = base_seed;
        ClusterDriver driver(config);
        driver.Run(sim::Seconds(2));
        std::vector<double> p99;
        for (std::size_t i = 0; i < driver.num_nodes(); ++i) {
            p99.push_back(
                driver.node(i).primary_workload().PerformanceValue());
        }
        driver.Stop();
        return p99;
    };

    const auto a = run(1);
    const auto b = run(1);
    EXPECT_EQ(a, b);  // Same fleet seed => identical fleet trajectory.
    EXPECT_NE(a[0], a[1]);  // Nodes within a fleet diverge.

    // Distinct per-node seeds come out of the derivation.
    EXPECT_NE(ClusterDriver::DeriveNodeSeed(1, 0),
              ClusterDriver::DeriveNodeSeed(1, 1));
    EXPECT_NE(ClusterDriver::DeriveNodeSeed(1, 0),
              ClusterDriver::DeriveNodeSeed(2, 0));
}

TEST(ClusterDriver, CleanUpAllSweepsEveryNode)
{
    ClusterConfig config;
    config.num_nodes = 2;
    ClusterDriver driver(config);
    driver.Run(sim::Seconds(2));
    driver.CleanUpAll();
    for (std::size_t i = 0; i < driver.num_nodes(); ++i) {
        MultiAgentNode& node = driver.node(i);
        EXPECT_EQ(node.node().VmFrequency(node.primary_vm()),
                  node.node().NominalFrequency());
        EXPECT_EQ(node.node().GrantedCores(node.elastic_vm()), 0);
    }
}

}  // namespace
}  // namespace sol
