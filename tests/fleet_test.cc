/**
 * @file
 * Tests for the fleet driver, the sharded parallel fleet executor:
 * bit-determinism across thread counts, the serial one-shard fleet
 * (full synthetic pressure, queue backpressure, per-node RNG streams),
 * shard-partition edge cases (empty shard, single-node shard), mid-run
 * node drain, heterogeneous synthetic schedules, the window-boundary
 * shard gauges, and the failure modes of a window (this suite runs
 * under TSan in CI, the runner's cases 20x — see
 * .github/workflows/ci.yml).
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <thread>
#include <typeinfo>
#include <vector>

#include "cluster/cluster_driver.h"
#include "cluster/node_shard.h"
#include "cluster/synthetic_agent.h"
#include "fleet/fleet_runner.h"
#include "telemetry/metric_registry.h"
#include "telemetry/timeseries.h"

namespace sol {
namespace {

using cluster::NodeShard;
using cluster::NodeShardConfig;
using fleet::FleetConfig;
using fleet::ShardedFleetRunner;

/** Small but real fleet: every node carries synthetic agents so the
 *  shards do meaningful work without making the suite slow. */
FleetConfig
SmallFleet(std::size_t num_nodes, std::size_t num_threads,
           std::uint64_t seed = 1)
{
    FleetConfig config;
    config.num_nodes = num_nodes;
    config.num_threads = num_threads;
    config.base_seed = seed;
    config.window = sim::Millis(50);
    config.node.synthetic_agents = 8;
    return config;
}

struct FleetFingerprint {
    std::uint64_t trace_hash;
    std::uint64_t executed;
    std::uint64_t epochs;
    std::uint64_t arbiter_requests;

    bool
    operator==(const FleetFingerprint& other) const
    {
        return trace_hash == other.trace_hash &&
               executed == other.executed && epochs == other.epochs &&
               arbiter_requests == other.arbiter_requests;
    }
};

FleetFingerprint
Fingerprint(ShardedFleetRunner& runner)
{
    const cluster::FleetStats stats = runner.Stats();
    return {runner.fleet_trace_hash(), runner.total_executed(),
            stats.total_epochs, stats.arbiter_requests};
}

// ---- NodeShard: the extracted shard-steppable core ----------------------

TEST(NodeShard, GlobalIndexingMatchesSerialDriver)
{
    // A shard owning global nodes [2, 4) must name and seed them by
    // their global index ("node2", "node3"), as a one-shard fleet
    // would.
    NodeShardConfig config;
    config.first_node_index = 2;
    config.num_nodes = 2;
    config.base_seed = 7;
    NodeShard shard(config);

    ASSERT_EQ(shard.num_nodes(), 2u);
    EXPECT_EQ(shard.node(0).name(), "node2");
    EXPECT_EQ(shard.node(1).name(), "node3");
    EXPECT_EQ(shard.first_node_index(), 2u);

    shard.Run(sim::Seconds(1));
    EXPECT_GT(shard.Stats().total_epochs, 0u);
    shard.Stop();
}

TEST(NodeShard, EmptyShardAdvancesCleanly)
{
    NodeShardConfig config;
    config.num_nodes = 0;
    NodeShard shard(config);

    shard.Run(sim::Seconds(5));
    EXPECT_EQ(shard.queue().executed(), 0u);
    EXPECT_EQ(shard.queue().Now(), sim::Seconds(5));
    EXPECT_EQ(shard.Stats().total_agents, 0u);
    shard.Stop();  // No-ops, but must be safe.
    shard.CleanUpAll();
}

// ---- Determinism across thread counts -----------------------------------

TEST(ShardedFleetRunner, TraceHashIdenticalAcrossThreadCounts)
{
    auto run = [](std::size_t threads) {
        ShardedFleetRunner runner(SmallFleet(4, threads));
        runner.Run(sim::Seconds(1));
        const FleetFingerprint print = Fingerprint(runner);
        runner.Stop();
        return print;
    };

    const FleetFingerprint one = run(1);
    const FleetFingerprint two = run(2);
    const FleetFingerprint eight = run(8);
    EXPECT_EQ(one, two);
    EXPECT_EQ(one, eight);
    EXPECT_GT(one.executed, 10'000u);
    EXPECT_GT(one.epochs, 0u);

    // A different seed drives a genuinely different fleet.
    ShardedFleetRunner other(SmallFleet(4, 2, /*seed=*/9));
    other.Run(sim::Seconds(1));
    EXPECT_NE(one.trace_hash, other.fleet_trace_hash());
    other.Stop();
}

TEST(ShardedFleetRunner, HeterogeneousSchedulesStayDeterministic)
{
    auto run = [](std::size_t threads) {
        FleetConfig config = SmallFleet(4, threads);
        config.node.synthetic.period_jitter = 0.2;
        config.node.synthetic.burst_fraction = 0.25;
        ShardedFleetRunner runner(config);
        runner.Run(sim::Seconds(1));
        const FleetFingerprint print = Fingerprint(runner);
        runner.Stop();
        return print;
    };

    const FleetFingerprint a = run(1);
    const FleetFingerprint b = run(4);
    EXPECT_EQ(a, b);

    // Heterogeneity changes the trace relative to the uniform fleet.
    ShardedFleetRunner uniform(SmallFleet(4, 2));
    uniform.Run(sim::Seconds(1));
    EXPECT_NE(a.trace_hash, uniform.fleet_trace_hash());
    uniform.Stop();
}

TEST(ShardedFleetRunner, MatchesSerialShardComposition)
{
    // One shard holding the whole fleet is the serial fleet: more
    // threads than shards must neither deadlock nor change the
    // result.
    auto run = [](std::size_t threads) {
        FleetConfig config = SmallFleet(3, threads);
        config.num_shards = 1;
        ShardedFleetRunner runner(config);
        runner.Run(sim::Millis(800));
        const FleetFingerprint print = Fingerprint(runner);
        runner.Stop();
        return print;
    };

    const FleetFingerprint serial = run(1);
    const FleetFingerprint wide = run(4);
    EXPECT_EQ(serial, wide);
}

// ---- The serial fleet: one shard, one thread -----------------------------

/** Every node interleaved on one queue, stepped by the calling thread. */
FleetConfig
SerialFleet(std::size_t num_nodes, std::uint64_t seed = 1)
{
    FleetConfig config;
    config.num_nodes = num_nodes;
    config.num_shards = 1;
    config.num_threads = 1;
    config.base_seed = seed;
    return config;
}

TEST(SyntheticAgents, FleetRunsAreDeterministicAtFullPressure)
{
    const auto run = [](std::uint64_t seed) {
        FleetConfig config = SerialFleet(2, seed);
        config.node.synthetic_agents = 73;
        ShardedFleetRunner runner(config);
        runner.Run(sim::Seconds(1));
        const FleetFingerprint print = Fingerprint(runner);
        runner.Stop();
        return print;
    };

    const FleetFingerprint a = run(5);
    EXPECT_EQ(run(5), a);
    EXPECT_NE(run(6).trace_hash, a.trace_hash);

    // 154 agents on one queue is real pressure, not idle filler.
    EXPECT_GT(a.executed, 50'000u);
}

TEST(SyntheticAgents, QueuePendingLimitSurfacesInFleetMetrics)
{
    FleetConfig config = SerialFleet(1);
    config.node.synthetic_agents = 40;
    config.queue_pending_limit = 32;  // Far below what 44 agents need.
    ShardedFleetRunner runner(config);
    runner.Run(sim::Millis(500));

    telemetry::MetricRegistry out;
    runner.CollectFleetMetrics(out);
    // The storm is loud: drops are counted, never silently absorbed.
    EXPECT_GT(out.Gauge("fleet.queue.dropped"), 0.0);
    EXPECT_LE(out.Gauge("fleet.queue.pending"), 32.0);
    runner.Stop();
}

TEST(ShardedFleetRunner, PerNodeRngStreamsAreIndependentButReproducible)
{
    const auto run = [](std::uint64_t base_seed) {
        ShardedFleetRunner runner(SerialFleet(2, base_seed));
        runner.Run(sim::Seconds(2));
        std::vector<double> p99;
        for (std::size_t i = 0; i < runner.num_nodes(); ++i) {
            p99.push_back(
                runner.node(i).primary_workload().PerformanceValue());
        }
        runner.Stop();
        return p99;
    };

    const std::vector<double> a = run(1);
    EXPECT_EQ(run(1), a);   // Same fleet seed => every node reproduces.
    EXPECT_NE(a[0], a[1]);  // Nodes within a fleet diverge.
}

// ---- Shard-partition edge cases ------------------------------------------

TEST(ShardedFleetRunner, MoreShardsThanNodesLeavesEmptyShards)
{
    FleetConfig config = SmallFleet(2, 2);
    config.num_shards = 5;  // Shards 2..4 own zero nodes.
    ShardedFleetRunner runner(config);
    ASSERT_EQ(runner.num_shards(), 5u);
    EXPECT_EQ(runner.shard(0).num_nodes(), 1u);
    EXPECT_EQ(runner.shard(1).num_nodes(), 1u);
    EXPECT_EQ(runner.shard(4).num_nodes(), 0u);

    runner.Run(sim::Millis(500));
    EXPECT_GT(runner.total_executed(), 0u);
    EXPECT_EQ(runner.shard(4).queue().executed(), 0u);
    EXPECT_EQ(runner.shard(4).queue().Now(), sim::Millis(500));
    EXPECT_EQ(runner.Stats().total_agents, 2u * (4u + 8u));
    runner.Stop();
}

TEST(ShardedFleetRunner, SingleNodeShardsPartitionTheWholeFleet)
{
    FleetConfig config = SmallFleet(3, 2);
    // num_shards = 0 resolves to one shard per node.
    ShardedFleetRunner runner(config);
    ASSERT_EQ(runner.num_shards(), 3u);
    for (std::size_t s = 0; s < runner.num_shards(); ++s) {
        EXPECT_EQ(runner.shard(s).num_nodes(), 1u);
        EXPECT_EQ(runner.shard(s).first_node_index(), s);
    }
    // Global node lookup crosses shard boundaries.
    EXPECT_EQ(runner.node(0).name(), "node0");
    EXPECT_EQ(runner.node(2).name(), "node2");
    EXPECT_THROW(runner.node(3), std::out_of_range);
}

// ---- Mid-run drain -------------------------------------------------------

TEST(ShardedFleetRunner, MidRunNodeDrainIsDeterministic)
{
    auto run = [](std::size_t threads) {
        ShardedFleetRunner runner(SmallFleet(3, threads));
        runner.Run(sim::Millis(500));
        runner.DrainNode(1);
        const std::uint64_t epochs_at_drain =
            runner.node(1).TotalEpochs();
        runner.Run(sim::Millis(500));
        struct Result {
            FleetFingerprint print;
            std::uint64_t drained_epochs_frozen;
            std::uint64_t other_epochs;
        } result{Fingerprint(runner),
                 runner.node(1).TotalEpochs() - epochs_at_drain,
                 runner.node(0).TotalEpochs()};
        runner.Stop();
        return result;
    };

    const auto a = run(1);
    const auto b = run(4);
    // The drained node froze; its neighbors kept learning.
    EXPECT_EQ(a.drained_epochs_frozen, 0u);
    EXPECT_GT(a.other_epochs, 0u);
    // And the drain at a window boundary is thread-count independent.
    EXPECT_EQ(a.print, b.print);
    EXPECT_EQ(b.drained_epochs_frozen, 0u);
}

// ---- Window-boundary metrics ---------------------------------------------

TEST(ShardedFleetRunner, ConcurrentWindowMergePopulatesShardGauges)
{
    FleetConfig config = SmallFleet(4, 4);
    config.metrics_every_n_windows = 1;
    ShardedFleetRunner runner(config);
    runner.Run(sim::Seconds(1));

    const telemetry::MetricRegistry metrics =
        runner.WindowMetricsSnapshot();
    for (std::size_t s = 0; s < runner.num_shards(); ++s) {
        const std::string prefix = "shard" + std::to_string(s);
        EXPECT_GT(metrics.Gauge(prefix + ".queue.executed"), 0.0)
            << prefix;
        EXPECT_EQ(metrics.Gauge(prefix + ".virtual_seconds"), 1.0)
            << prefix;
        EXPECT_EQ(metrics.Gauge(prefix + ".num_nodes"), 1.0) << prefix;
    }
    runner.Stop();
}

TEST(ShardedFleetRunner, WindowMetricsSnapshotHoldsTheLastMergedWindow)
{
    FleetConfig config = SmallFleet(3, 2);
    config.metrics_every_n_windows = 2;
    ShardedFleetRunner runner(config);
    runner.Run(sim::Millis(100));  // Windows 1 and 2; 2 merges.

    const telemetry::MetricRegistry merged = runner.WindowMetricsSnapshot();
    std::size_t expected_gauges = 0;
    for (std::size_t s = 0; s < runner.num_shards(); ++s) {
        const std::string prefix = "shard" + std::to_string(s) + ".";
        telemetry::MetricRegistry expected;
        cluster::WriteQueueGauges(telemetry::MetricScope(expected, "queue"),
                                  runner.shard(s).queue().stats());
        for (const auto& [name, value] : expected.gauges()) {
            EXPECT_EQ(merged.Gauge(prefix + name), value) << prefix + name;
        }
        EXPECT_GT(merged.Gauge(prefix + "queue.executed"), 0.0) << prefix;
        EXPECT_EQ(merged.Gauge(prefix + "num_nodes"), 1.0) << prefix;
        EXPECT_EQ(merged.Gauge(prefix + "virtual_seconds"), 0.1) << prefix;
        expected_gauges += expected.gauges().size() + 2;
    }
    EXPECT_EQ(merged.gauges().size(), expected_gauges);
    EXPECT_TRUE(merged.counters().empty());
    EXPECT_TRUE(merged.histograms().empty());

    // Window 3 is not a merge window: the shards move on, the snapshot
    // does not.
    runner.Run(sim::Millis(50));
    EXPECT_GT(static_cast<double>(runner.shard(0).queue().executed()),
              merged.Gauge("shard0.queue.executed"));
    EXPECT_EQ(runner.WindowMetricsSnapshot().gauges(), merged.gauges());
    runner.Stop();

    config.metrics_every_n_windows = 0;
    ShardedFleetRunner off(config);
    off.Run(sim::Millis(100));
    const telemetry::MetricRegistry none = off.WindowMetricsSnapshot();
    EXPECT_TRUE(none.gauges().empty());
    EXPECT_TRUE(none.counters().empty());
    EXPECT_TRUE(none.histograms().empty());
    off.Stop();
}

// ---- Failure modes ---------------------------------------------------------

/** Runs `run` and expects exactly std::logic_error, the poisoned-runner
 *  error (std::invalid_argument derives from it, so EXPECT_THROW with
 *  std::logic_error would also accept a second shard failure). */
template <typename Fn>
void
ExpectPoisoned(Fn run)
{
    try {
        run();
        ADD_FAILURE() << "Run returned on a poisoned runner";
    } catch (const std::logic_error& e) {
        EXPECT_EQ(typeid(e), typeid(std::logic_error)) << e.what();
    }
}

TEST(ShardedFleetRunner, ShardExceptionRethrowsAndPoisonsTheRunner)
{
    // With node health on and a zero period, every node's Start()
    // throws: node 0 inside RunUntil itself, the others from a start
    // event on their shard's queue.
    for (const std::size_t threads : {1u, 2u, 4u}) {
        SCOPED_TRACE(threads);
        telemetry::SharedTimeSeriesStore node_health;
        FleetConfig config = SmallFleet(4, threads);
        config.node.health = &node_health;
        config.node.health_period = sim::Duration::zero();
        ShardedFleetRunner runner(config);
        EXPECT_EQ(runner.num_threads(), threads);
        EXPECT_THROW(runner.Run(sim::Millis(100)), std::invalid_argument);
        ExpectPoisoned([&runner] { runner.Run(sim::Millis(100)); });
        // The destructor must still return: every helper thread is
        // parked between windows.
    }
}

TEST(ShardedFleetRunner, HealthSampleExceptionPoisonsTheRunner)
{
    // A store that already holds fleet.epochs at 10 s rejects the
    // window's sample at 50 ms, after the shards reached 50 ms.
    telemetry::TimeSeriesStore health;
    health.Append("fleet.epochs", sim::Seconds(10), 0);
    FleetConfig config = SmallFleet(2, 2);
    config.health = &health;
    ShardedFleetRunner runner(config);
    EXPECT_THROW(runner.Run(sim::Millis(50)), std::invalid_argument);
    EXPECT_EQ(runner.shard(0).queue().Now(), sim::Millis(50));
    EXPECT_EQ(runner.Now(), sim::Millis(50));

    // The failed window is not re-sampled: the next Run throws before
    // it appends anything.
    const std::uint64_t appended = health.total_appended();
    ExpectPoisoned([&runner] { runner.Run(sim::Millis(50)); });
    EXPECT_EQ(health.total_appended(), appended);
    EXPECT_EQ(runner.Now(), sim::Millis(50));
}

TEST(ShardedFleetRunner, CollectFleetMetricsAggregatesAcrossShards)
{
    ShardedFleetRunner runner(SmallFleet(3, 2));
    runner.Run(sim::Seconds(1));

    telemetry::MetricRegistry out;
    runner.CollectFleetMetrics(out);
    EXPECT_EQ(out.Gauge("fleet.num_nodes"), 3.0);
    EXPECT_EQ(out.Gauge("fleet.num_shards"), 3.0);
    EXPECT_EQ(out.Gauge("fleet.num_threads"), 2.0);
    EXPECT_GT(out.Gauge("fleet.total_epochs"), 0.0);
    EXPECT_EQ(out.Gauge("fleet.queue.executed"),
              static_cast<double>(runner.total_executed()));
    // Per-node namespacing survives the shard boundary.
    EXPECT_GT(out.Gauge("node0.smart-harvest.epochs"), 0.0);
    EXPECT_GT(out.Gauge("node2.smart-harvest.epochs"), 0.0);
    runner.Stop();
}

TEST(ShardedFleetRunner, CleanUpAllSweepsEveryShard)
{
    ShardedFleetRunner runner(SmallFleet(4, 2));
    runner.Run(sim::Seconds(1));
    runner.CleanUpAll();
    for (std::size_t i = 0; i < runner.num_nodes(); ++i) {
        cluster::MultiAgentNode& node = runner.node(i);
        EXPECT_EQ(node.node().VmFrequency(node.primary_vm()),
                  node.node().NominalFrequency());
        EXPECT_EQ(node.node().GrantedCores(node.elastic_vm()), 0);
    }
    runner.Stop();
}

// ---- SharedMetricRegistry under real contention --------------------------

TEST(SharedMetricRegistry, ConcurrentMergesFromManyThreadsAddUp)
{
    constexpr int kThreads = 8;
    constexpr int kMergesPerThread = 200;

    telemetry::SharedMetricRegistry shared;
    std::atomic<int> ready{0};
    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&shared, &ready, t] {
            ready.fetch_add(1);
            while (ready.load() < kThreads) {
                // Spin so every thread merges concurrently.
            }
            telemetry::MetricRegistry local;
            local.Increment("merges");
            local.SetGauge("last_value", static_cast<double>(t));
            for (int i = 0; i < kMergesPerThread; ++i) {
                // Counters accumulate under a shared key; gauges land
                // in each producer's own namespace.
                shared.MergeFrom(local, "producer" + std::to_string(t));
                shared.Increment("total_merges");
            }
        });
    }
    for (std::thread& thread : threads) {
        thread.join();
    }

    const telemetry::MetricRegistry snapshot = shared.Snapshot();
    EXPECT_EQ(snapshot.Counter("total_merges"),
              static_cast<std::uint64_t>(kThreads * kMergesPerThread));
    for (int t = 0; t < kThreads; ++t) {
        const std::string prefix = "producer" + std::to_string(t);
        EXPECT_EQ(snapshot.Counter(prefix + ".merges"),
                  static_cast<std::uint64_t>(kMergesPerThread));
        EXPECT_EQ(snapshot.Gauge(prefix + ".last_value"),
                  static_cast<double>(t));
    }
}

}  // namespace
}  // namespace sol
