/**
 * @file
 * The steady schedule→fire path allocates nothing, and building a node
 * stays within a fixed memory budget.
 *
 * This binary replaces the global allocation functions with counting
 * wrappers around malloc/free, warms a queue up, and then checks that a
 * long steady stretch of SimRuntime and PeriodicTask events performs no
 * heap allocation at all: closures are built in recycled arena slots,
 * radix buckets keep their capacity, handles and liveness tokens only
 * bump ConfinedShared counts, and every delivered prediction lands in
 * the engine's fixed ring, allocated when the runtime was built. The
 * wrappers also sum the bytes requested, which bounds what one
 * fleet-shaped node allocates while it is built: the fleet pays it once
 * per node. A fleet runner's window-boundary gauge merge allocates
 * nothing either, nor does a latency histogram that has seen its range.
 */
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdint>
#include <cstdlib>
#include <memory>
#include <new>
#include <string>
#include <vector>

#include "cluster/multi_agent_node.h"
#include "core/sim_runtime.h"
#include "fleet/fleet_runner.h"
#include "ml/cost_sensitive.h"
#include "sim/event_queue.h"
#include "telemetry/latency_histogram.h"

namespace {

// Tests allocate on one thread (a one-thread fleet runner starts no
// helper); nothing else allocates while a count is read.
std::uint64_t g_allocations = 0;
std::uint64_t g_allocated_bytes = 0;

void*
CountedAlloc(std::size_t size, std::size_t align)
{
    ++g_allocations;
    g_allocated_bytes += size;
    const std::size_t bytes = size == 0 ? 1 : size;
    void* p = align <= alignof(std::max_align_t)
                  ? std::malloc(bytes)
                  : std::aligned_alloc(align,
                                       (bytes + align - 1) / align * align);
    if (p == nullptr) {
        throw std::bad_alloc();
    }
    return p;
}

}  // namespace

void*
operator new(std::size_t size)
{
    return CountedAlloc(size, alignof(std::max_align_t));
}
void*
operator new(std::size_t size, std::align_val_t align)
{
    return CountedAlloc(size, static_cast<std::size_t>(align));
}
void
operator delete(void* p) noexcept
{
    std::free(p);
}
void
operator delete(void* p, std::size_t) noexcept
{
    std::free(p);
}
void
operator delete(void* p, std::align_val_t) noexcept
{
    std::free(p);
}
void
operator delete(void* p, std::size_t, std::align_val_t) noexcept
{
    std::free(p);
}

namespace sol::core {
namespace {

using sim::Millis;
using sim::Seconds;

/** Model that allocates nothing per sample or epoch. */
class QuietModel : public Model<int, int>
{
  public:
    explicit QuietModel(const sim::Clock& clock) : clock_(clock) {}

    int CollectData() override { return 1; }
    bool ValidateData(const int& data) override { return data >= 0; }
    void CommitData(sim::TimePoint, const int&) override {}
    void UpdateModel() override {}
    Prediction<int>
    ModelPredict() override
    {
        return MakePrediction(1, clock_.Now(), Seconds(10));
    }
    Prediction<int>
    DefaultPredict() override
    {
        return MakeDefaultPrediction(0, clock_.Now(), Seconds(10));
    }
    bool AssessModel() override { return true; }

  private:
    const sim::Clock& clock_;
};

/** Actuator that stays healthy and acts on every prediction, so the
 *  whole loop runs: delivery into the engine's queue, the actuator wake
 *  that consumes it, timeout re-arms, and passing assessments. */
class LiveActuator : public Actuator<int>
{
  public:
    void
    TakeAction(std::optional<Prediction<int>> pred) override
    {
        with_prediction += pred.has_value() ? 1 : 0;
    }
    bool AssessPerformance() override { return true; }
    void Mitigate() override {}
    void CleanUp() override {}

    std::uint64_t with_prediction = 0;
};

Schedule
SteadySchedule()
{
    Schedule schedule;
    schedule.data_per_epoch = 4;
    schedule.data_collect_interval = Millis(10);
    schedule.max_epoch_time = Millis(100);
    schedule.max_actuation_delay = Millis(30);
    schedule.assess_actuator_interval = Millis(50);
    return schedule;
}

TEST(HotPathTest, SteadySimRuntimeAndPeriodicTaskEventsDoNotAllocate)
{
    sim::EventQueue queue;
    std::vector<std::unique_ptr<QuietModel>> models;
    std::vector<std::unique_ptr<LiveActuator>> actuators;
    std::vector<std::unique_ptr<SimRuntime<int, int>>> runtimes;
    for (int i = 0; i < 16; ++i) {
        models.push_back(std::make_unique<QuietModel>(queue));
        actuators.push_back(std::make_unique<LiveActuator>());
        runtimes.push_back(std::make_unique<SimRuntime<int, int>>(
            queue, *models.back(), *actuators.back(), SteadySchedule()));
        runtimes.back()->Start();
        queue.RunFor(Millis(1));  // Stagger the agents.
    }
    int ticks = 0;
    sim::PeriodicTask task(queue, sim::Micros(50), [&ticks] { ++ticks; });

    // Warm-up grows the arena and the radix buckets. A bucket gets its
    // storage the first time an event lands in it, and bucket b first
    // fills when the clock crosses 2^(b-1) ns — at most 64 one-off
    // allocations in a queue's life. So the measured window sits
    // between two such crossings: 2^33 ns (8.6 s) and 2^34 ns (17.2 s).
    queue.RunUntil(Seconds(9));
    const auto acted = [&actuators] {
        std::uint64_t total = 0;
        for (const auto& actuator : actuators) {
            total += actuator->with_prediction;
        }
        return total;
    };
    const std::uint64_t allocations = g_allocations;
    const std::uint64_t executed = queue.executed();
    const std::uint64_t cancelled = queue.stats().cancelled;
    const std::uint64_t acted_before = acted();

    queue.RunUntil(Seconds(17));

    EXPECT_EQ(g_allocations - allocations, 0u);
    // The window really was the steady path: PeriodicTask ticks plus
    // every SimRuntime continuation kind, timeout cancels included, and
    // the agents' predictions were queued and acted on.
    EXPECT_GT(queue.executed() - executed, 150'000u);
    EXPECT_GT(queue.stats().cancelled - cancelled, 0u);
    EXPECT_EQ(queue.stats().dropped, 0u);
    EXPECT_GT(ticks, 150'000);
    // 16 agents, one 40 ms epoch each, over 8 s.
    EXPECT_GT(acted() - acted_before, 16u * 150u);
    for (const auto& runtime : runtimes) {
        EXPECT_FALSE(runtime->actuator_halted());
        EXPECT_EQ(runtime->stats().dropped_while_halted, 0u);
    }
}

TEST(HotPathTest, ClassifierStopsAllocatingOnceItsIndicesAreSeen)
{
    ml::CostSensitiveConfig config;
    config.num_classes = 7;
    ml::CostSensitiveClassifier classifier(config);
    ml::FeatureVector x(16);
    x.AddBias();
    x.Add("mean", 2.5);
    x.Add("p90", 4.0);
    const std::vector<double> costs = ml::AsymmetricCosts(7, 3, 4.0, 1.0);
    classifier.Update(x, costs);

    const std::uint64_t allocations = g_allocations;
    std::size_t predicted = 0;
    for (int i = 0; i < 100; ++i) {
        classifier.Update(x, costs);
        predicted += classifier.Predict(x);
    }
    EXPECT_EQ(g_allocations - allocations, 0u);
    EXPECT_GT(predicted, 0u);
}

TEST(HotPathTest, FleetWindowGaugeMergeDoesNotAllocate)
{
    // Two identical one-thread fleets, one merging its shard gauges at
    // every window boundary and one never: the simulation allocates
    // the same in both, so a difference in a window is the merge's own.
    const auto fleet_config = [](std::size_t metrics_every_n_windows) {
        fleet::FleetConfig config;
        config.num_nodes = 2;
        config.num_threads = 1;
        config.window = Millis(50);
        config.node.synthetic_agents = 4;
        config.metrics_every_n_windows = metrics_every_n_windows;
        return config;
    };
    fleet::ShardedFleetRunner merging(fleet_config(1));
    fleet::ShardedFleetRunner quiet(fleet_config(0));
    const auto window_allocations = [](fleet::ShardedFleetRunner& runner) {
        const std::uint64_t allocations = g_allocations;
        runner.Run(Millis(50));
        return g_allocations - allocations;
    };
    merging.Run(Seconds(2));
    quiet.Run(Seconds(2));

    EXPECT_EQ(window_allocations(merging), window_allocations(quiet));
    EXPECT_EQ(merging.fleet_trace_hash(), quiet.fleet_trace_hash());
    EXPECT_EQ(merging.WindowMetricsSnapshot().Gauge("shard1.virtual_seconds"),
              2.05);
    merging.Stop();
    quiet.Stop();
}

TEST(HotPathTest, LatencyHistogramStopsAllocatingOnceItsRangeIsSeen)
{
    // An engine's epoch histogram grows its run while its first epochs
    // reach new octaves, then settles: recording inside the run,
    // resetting and refilling it, and merging in samples that lie
    // inside it all reuse the storage it has.
    telemetry::LatencyHistogram hist;
    for (std::uint64_t v = 1'000; v <= 1'000'000; v *= 10) {
        hist.Record(v);
    }
    telemetry::LatencyHistogram inside;
    inside.Record(2'500);
    inside.Record(640'000);

    const std::uint64_t allocations = g_allocations;
    for (std::uint64_t v = 1'000; v <= 1'000'000; v += 997) {
        hist.Record(v);
    }
    hist.Reset();
    for (std::uint64_t v = 1'000'000; v >= 1'000; v /= 2) {
        hist.Record(v);
    }
    hist.Merge(inside);
    hist.Merge(hist);
    EXPECT_EQ(g_allocations - allocations, 0u);
    EXPECT_EQ(hist.count(), 2u * (10u + 2u));
    EXPECT_EQ(hist.min_ns(), 1'953u);
    EXPECT_EQ(hist.max_ns(), 1'000'000u);
}

TEST(HotPathTest, FleetShapedNodeBuildsWithinQuarterMebibyte)
{
    // The paper's deployment shape: the four paper agents plus 73
    // synthetics. Building one takes 227,432 bytes: every agent's
    // epoch histogram starts without storage, and SmartHarvest's
    // classifier rows are sparse. 4,000-byte dense epoch histograms
    // (538,336 bytes per node) fail the budget, as does a dense
    // per-agent classifier table (once 3.67 MB).
    cluster::MultiAgentNodeConfig config;
    config.synthetic_agents = 73;
    sim::EventQueue queue;

    const std::uint64_t bytes = g_allocated_bytes;
    auto node = std::make_unique<cluster::MultiAgentNode>(queue, config);
    const std::uint64_t built = g_allocated_bytes - bytes;

    EXPECT_EQ(node->num_agents(), 77u);
    EXPECT_LE(built, std::uint64_t{256} << 10);
    RecordProperty("construction_bytes", std::to_string(built));
}

}  // namespace
}  // namespace sol::core
