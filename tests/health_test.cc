/**
 * @file
 * Deterministic fleet health timelines: TimeSeries ring semantics,
 * AlertEngine rule evaluation, health reports, and the fleet/node
 * sampling integration.
 *
 * The load-bearing properties, in test order:
 *   1. TimeSeries — ring keeps the tail, queries refuse partial
 *      windows instead of extrapolating.
 *   2. TimeSeriesStore — name-ordered visitation, fixed-point gauge
 *      scaling, a timeline fingerprint that equal timelines share.
 *   3. AlertEngine — threshold/rate/burn conditions, hold timers,
 *      firing/resolved edges with observed values, SLO budgets.
 *   4. Fleet integration — window-boundary sampling is byte-identical
 *      across repeat runs and 1/2/8 fleet threads, and observe-only
 *      (enabling it leaves the fleet trace hash untouched). Both node
 *      backends reject a non-positive sampling period.
 *   5. SharedTimeSeriesStore under concurrent producers/scrapers (the
 *      TSan leg repeats HealthConcurrency tests 20x).
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "cluster/multi_agent_node.h"
#include "cluster/threaded_multi_agent_node.h"
#include "fleet/fleet_runner.h"
#include "sim/event_queue.h"
#include "sim/rng.h"
#include "telemetry/alerting.h"
#include "telemetry/metric_registry.h"
#include "telemetry/timeseries.h"

namespace sol::telemetry {
namespace {

sim::TimePoint
Ms(std::int64_t ms)
{
    return sim::TimePoint(sim::Millis(ms));
}

// ---- TimeSeries ring ----------------------------------------------------

TEST(TimeSeries, AppendsInOrderAndReportsLatest)
{
    TimeSeries series(8);
    EXPECT_TRUE(series.empty());
    series.Append(Ms(100), 5);
    series.Append(Ms(200), 7);
    series.Append(Ms(200), 9);  // Equal timestamps are legal.
    ASSERT_EQ(series.size(), 3u);
    EXPECT_EQ(series.at(0).value, 5);
    EXPECT_EQ(series.at(2).value, 9);
    EXPECT_EQ(series.Latest().at, Ms(200));
    EXPECT_EQ(series.Latest().value, 9);
    EXPECT_EQ(series.total_appended(), 3u);
}

TEST(TimeSeries, RingEvictsOldestAndKeepsTail)
{
    TimeSeries series(4);
    for (int i = 0; i < 10; ++i) {
        series.Append(Ms(100 * (i + 1)), i);
    }
    ASSERT_EQ(series.size(), 4u);
    EXPECT_EQ(series.capacity(), 4u);
    EXPECT_EQ(series.total_appended(), 10u);
    // Retained samples are the most recent four, oldest first.
    EXPECT_EQ(series.at(0).value, 6);
    EXPECT_EQ(series.at(3).value, 9);
}

TEST(TimeSeries, ValueAtResolvesLatestSampleAtOrBefore)
{
    TimeSeries series(8);
    series.Append(Ms(100), 1);
    series.Append(Ms(300), 3);
    std::int64_t value = -1;
    EXPECT_FALSE(series.ValueAt(Ms(50), &value));  // Before first.
    EXPECT_TRUE(series.ValueAt(Ms(100), &value));
    EXPECT_EQ(value, 1);
    EXPECT_TRUE(series.ValueAt(Ms(200), &value));  // Holds prior value.
    EXPECT_EQ(value, 1);
    EXPECT_TRUE(series.ValueAt(Ms(999), &value));
    EXPECT_EQ(value, 3);
}

TEST(TimeSeries, DeltaOverRefusesPartialWindows)
{
    TimeSeries series(8);
    series.Append(Ms(100), 10);
    series.Append(Ms(600), 25);
    std::int64_t delta = 0;
    // Window start (t - lookback) predates the first sample: refuse.
    EXPECT_FALSE(series.DeltaOver(Ms(400), sim::Millis(500), &delta));
    EXPECT_TRUE(series.DeltaOver(Ms(600), sim::Millis(500), &delta));
    EXPECT_EQ(delta, 15);
}

TEST(TimeSeries, DeltaOverRefusesEvictedWindowStart)
{
    TimeSeries series(2);
    series.Append(Ms(100), 1);
    series.Append(Ms(200), 2);
    series.Append(Ms(300), 3);  // Evicts the 100ms sample.
    std::int64_t delta = 0;
    EXPECT_FALSE(series.DeltaOver(Ms(300), sim::Millis(200), &delta));
    EXPECT_TRUE(series.DeltaOver(Ms(300), sim::Millis(100), &delta));
    EXPECT_EQ(delta, 1);
}

// ---- TimeSeriesStore ----------------------------------------------------

TEST(TimeSeriesStore, FindNeverInsertsAndVisitIsNameOrdered)
{
    TimeSeriesStore store;
    store.Append("b.two", Ms(100), 2);
    store.Append("a.one", Ms(100), 1);
    EXPECT_EQ(store.Find("missing"), nullptr);
    EXPECT_EQ(store.num_series(), 2u);

    std::vector<std::string> order;
    store.VisitSeries([&](const std::string& name, const TimeSeries&) {
        order.push_back(name);
    });
    ASSERT_EQ(order.size(), 2u);
    EXPECT_EQ(order[0], "a.one");
    EXPECT_EQ(order[1], "b.two");
    EXPECT_EQ(store.total_appended(), 2u);
}

TEST(TimeSeriesStore, TimelineHashFingerprintsContent)
{
    TimeSeriesStore a;
    TimeSeriesStore b;
    a.Append("x", Ms(100), 1);
    b.Append("x", Ms(100), 1);
    EXPECT_EQ(a.timeline_hash(), b.timeline_hash());

    b.Append("x", Ms(200), 2);
    EXPECT_NE(a.timeline_hash(), b.timeline_hash());

    a.Append("x", Ms(200), 3);  // Same shape, different value.
    EXPECT_NE(a.timeline_hash(), b.timeline_hash());

    a.Clear();
    EXPECT_EQ(a.num_series(), 0u);
}

// ---- AlertEngine --------------------------------------------------------

AlertRule
ThresholdRule(const std::string& series, std::int64_t bound)
{
    AlertRule rule;
    rule.name = series + "_high";
    rule.kind = AlertKind::kThreshold;
    rule.series = series;
    rule.threshold = bound;
    return rule;
}

TEST(AlertEngine, ThresholdFiresAndResolvesWithValues)
{
    TimeSeriesStore store;
    AlertEngine engine;
    engine.AddRule(ThresholdRule("p99", 100));

    store.Append("p99", Ms(100), 50);
    engine.Evaluate(store, Ms(100));
    EXPECT_FALSE(engine.IsFiring("p99_high"));

    store.Append("p99", Ms(200), 150);
    engine.Evaluate(store, Ms(200));
    EXPECT_TRUE(engine.IsFiring("p99_high"));
    EXPECT_EQ(engine.FiringCount(), 1u);

    store.Append("p99", Ms(300), 80);
    engine.Evaluate(store, Ms(300));
    EXPECT_FALSE(engine.IsFiring("p99_high"));
    EXPECT_TRUE(engine.EverFired("p99_high"));

    ASSERT_EQ(engine.events().size(), 2u);
    EXPECT_EQ(engine.events()[0].at, Ms(200));
    EXPECT_TRUE(engine.events()[0].firing);
    EXPECT_EQ(engine.events()[0].value, 150);
    EXPECT_EQ(engine.events()[1].at, Ms(300));
    EXPECT_FALSE(engine.events()[1].firing);
    EXPECT_EQ(engine.events()[1].value, 80);
}

TEST(AlertEngine, FireBelowInvertsTheComparison)
{
    TimeSeriesStore store;
    AlertEngine engine;
    AlertRule rule = ThresholdRule("throughput", 10);
    rule.name = "throughput_low";
    rule.fire_above = false;
    engine.AddRule(rule);

    store.Append("throughput", Ms(100), 50);
    engine.Evaluate(store, Ms(100));
    EXPECT_FALSE(engine.IsFiring("throughput_low"));
    store.Append("throughput", Ms(200), 5);
    engine.Evaluate(store, Ms(200));
    EXPECT_TRUE(engine.IsFiring("throughput_low"));
}

TEST(AlertEngine, RateOfChangeRefusesPartialWindows)
{
    TimeSeriesStore store;
    AlertEngine engine;
    AlertRule rule;
    rule.name = "trip_rate";
    rule.kind = AlertKind::kRateOfChange;
    rule.series = "trips";
    rule.threshold = 5;
    rule.lookback = sim::Millis(200);
    engine.AddRule(rule);

    // One sample: the window start has no sample, so a huge absolute
    // value still cannot fire the rule.
    store.Append("trips", Ms(100), 1000);
    engine.Evaluate(store, Ms(100));
    EXPECT_FALSE(engine.IsFiring("trip_rate"));

    store.Append("trips", Ms(300), 1004);
    engine.Evaluate(store, Ms(300));
    EXPECT_FALSE(engine.IsFiring("trip_rate"));  // Delta 4 < 5.

    store.Append("trips", Ms(500), 1010);
    engine.Evaluate(store, Ms(500));
    EXPECT_TRUE(engine.IsFiring("trip_rate"));  // Delta 6 >= 5.
}

TEST(AlertEngine, HoldDelaysFiringUntilSustained)
{
    TimeSeriesStore store;
    AlertEngine engine;
    AlertRule rule = ThresholdRule("p99", 100);
    rule.hold = sim::Millis(250);
    engine.AddRule(rule);

    store.Append("p99", Ms(100), 150);
    engine.Evaluate(store, Ms(100));
    EXPECT_FALSE(engine.IsFiring("p99_high"));  // Hold running.

    store.Append("p99", Ms(200), 150);
    engine.Evaluate(store, Ms(200));
    EXPECT_FALSE(engine.IsFiring("p99_high"));  // 100ms < 250ms held.

    store.Append("p99", Ms(400), 150);
    engine.Evaluate(store, Ms(400));
    EXPECT_TRUE(engine.IsFiring("p99_high"));  // Held 300ms >= 250ms.

    // A single false observation resets the hold timer entirely.
    store.Append("p99", Ms(500), 50);
    engine.Evaluate(store, Ms(500));
    store.Append("p99", Ms(600), 150);
    engine.Evaluate(store, Ms(600));
    EXPECT_FALSE(engine.IsFiring("p99_high"));
}

TEST(AlertEngine, BurnRateComparesWindowedRatioAgainstBudget)
{
    TimeSeriesStore store;
    AlertEngine engine;
    AlertRule rule;
    rule.name = "invalid_burn";
    rule.kind = AlertKind::kBurnRate;
    rule.series = "invalid";
    rule.total_series = "total";
    rule.budget_ppm = 100'000;  // 10%.
    rule.burn_factor_milli = 2'000;  // Fire at >= 2x budget = 20%.
    rule.lookback = sim::Millis(200);
    engine.AddRule(rule);

    store.Append("invalid", Ms(100), 0);
    store.Append("total", Ms(100), 0);
    engine.Evaluate(store, Ms(100));

    // Window [100, 300]: 100 invalid of 1000 = 10% < 20%: silent.
    store.Append("invalid", Ms(300), 100);
    store.Append("total", Ms(300), 1000);
    engine.Evaluate(store, Ms(300));
    EXPECT_FALSE(engine.IsFiring("invalid_burn"));

    // Window [300, 500]: 300 more invalid of 1000 = 30% >= 20%: fire,
    // with the observed windowed ratio in ppm as the event value.
    store.Append("invalid", Ms(500), 400);
    store.Append("total", Ms(500), 2000);
    engine.Evaluate(store, Ms(500));
    EXPECT_TRUE(engine.IsFiring("invalid_burn"));
    ASSERT_FALSE(engine.events().empty());
    EXPECT_EQ(engine.events().back().value, 300'000);
}

TEST(AlertEngine, SloStatusesAccountWholeRunBudgets)
{
    TimeSeriesStore store;
    AlertEngine engine;
    AlertRule rule;
    rule.name = "invalid_burn";
    rule.kind = AlertKind::kBurnRate;
    rule.series = "invalid";
    rule.total_series = "total";
    rule.budget_ppm = 100'000;
    engine.AddRule(rule);
    engine.AddRule(ThresholdRule("p99", 1));  // Non-SLO: not reported.

    store.Append("invalid", Ms(100), 50);
    store.Append("total", Ms(100), 1000);
    const auto slos = engine.SloStatuses(store);
    ASSERT_EQ(slos.size(), 1u);
    EXPECT_EQ(slos[0].rule, "invalid_burn");
    EXPECT_EQ(slos[0].errors, 50);
    EXPECT_EQ(slos[0].total, 1000);
    EXPECT_EQ(slos[0].consumed_ppm, 50'000);
    EXPECT_EQ(slos[0].remaining_ppm, 50'000);
}

TEST(AlertEngine, RejectsMalformedRules)
{
    AlertEngine engine;
    AlertRule nameless;
    nameless.series = "x";
    EXPECT_THROW(engine.AddRule(nameless), std::invalid_argument);

    AlertRule seriesless;
    seriesless.name = "x";
    EXPECT_THROW(engine.AddRule(seriesless), std::invalid_argument);

    AlertRule burn;
    burn.name = "burn";
    burn.kind = AlertKind::kBurnRate;
    burn.series = "err";  // Missing total_series and budget.
    EXPECT_THROW(engine.AddRule(burn), std::invalid_argument);

    // Windowed rules whose window could never work. A lookback <= 0
    // makes DeltaOver read the same sample twice, so the delta is
    // always 0: the rate rule never fires, and the burn rule reads it
    // as "no activity".
    AlertRule rate;
    rate.name = "rate";
    rate.kind = AlertKind::kRateOfChange;
    rate.series = "x";
    rate.threshold = 30;
    for (const sim::Duration lookback : {sim::Millis(0), sim::Millis(-500)}) {
        rate.lookback = lookback;
        EXPECT_THROW(engine.AddRule(rate), std::invalid_argument);
    }
    burn.total_series = "total";
    burn.budget_ppm = 50'000;
    burn.lookback = sim::Millis(0);
    EXPECT_THROW(engine.AddRule(burn), std::invalid_argument);
    // A burn factor <= 0 fires on a stream with zero errors.
    burn.lookback = sim::Millis(500);
    for (const std::int64_t factor : {0, -1000}) {
        burn.burn_factor_milli = factor;
        EXPECT_THROW(engine.AddRule(burn), std::invalid_argument);
    }
    AlertRule held = ThresholdRule("p99", 100);
    held.hold = sim::Millis(-1);
    EXPECT_THROW(engine.AddRule(held), std::invalid_argument);
    EXPECT_EQ(engine.num_rules(), 0u);

    // The same rules with working windows are accepted.
    rate.lookback = sim::Millis(500);
    burn.burn_factor_milli = 1000;
    held.hold = sim::Duration::zero();
    engine.AddRules({rate, burn, held});
    EXPECT_EQ(engine.num_rules(), 3u);
}

TEST(AlertEngine, RandomRulesThrowOrHaveWorkingWindows)
{
    // Seeded random rules: each is rejected or has positive windows,
    // and no accepted burn rule fires on a stream with zero errors.
    sim::Rng rng(0xa1e47);
    const auto millis = [&rng](std::int64_t lo, std::int64_t hi) {
        return sim::Millis(rng.NextInRange(lo, hi));
    };
    int accepted_burn_rules = 0;
    int rejected = 0;
    for (int i = 0; i < 2000; ++i) {
        AlertRule rule;
        rule.name = "rule";
        rule.kind = static_cast<AlertKind>(rng.NextBelow(3));
        rule.series = "errors";
        rule.total_series = rng.NextBool(0.9) ? "total" : "";
        rule.fire_above = rng.NextBool(0.5);
        rule.threshold = rng.NextInRange(-50, 50);
        rule.lookback = millis(-1000, 1000);
        rule.hold = millis(-1000, 1000);
        rule.budget_ppm = rng.NextInRange(-100'000, 200'000);
        rule.burn_factor_milli = rng.NextInRange(-2000, 4000);
        const bool windowed = rule.kind != AlertKind::kThreshold;
        const bool burn = rule.kind == AlertKind::kBurnRate;
        const bool malformed =
            (windowed && rule.lookback <= sim::Duration::zero()) ||
            rule.hold < sim::Duration::zero() ||
            (burn && (rule.total_series.empty() || rule.budget_ppm <= 0 ||
                      rule.burn_factor_milli <= 0));
        AlertEngine engine;
        try {
            engine.AddRule(rule);
        } catch (const std::invalid_argument&) {
            EXPECT_TRUE(malformed) << "rule " << i << " rejected";
            ++rejected;
            continue;
        }
        ASSERT_FALSE(malformed) << "rule " << i << " accepted";
        if (!burn) {
            continue;
        }
        ++accepted_burn_rules;
        // 3 s of traffic in 100 ms samples, 100 requests each, no errors.
        TimeSeriesStore store;
        for (int t = 100; t <= 3000; t += 100) {
            store.Append("errors", Ms(t), 0);
            store.Append("total", Ms(t), t);
            engine.Evaluate(store, Ms(t));
        }
        EXPECT_TRUE(engine.events().empty()) << "rule " << i << " fired";
    }
    EXPECT_GT(rejected, 0);
    EXPECT_GT(accepted_burn_rules, 0);
}

TEST(AlertEngine, DefaultFleetPackIsWellFormed)
{
    const std::vector<AlertRule> pack = DefaultFleetAlertRules();
    EXPECT_GE(pack.size(), 7u);
    std::vector<std::string> names;
    for (const AlertRule& rule : pack) {
        EXPECT_FALSE(rule.name.empty());
        // Trace instants truncate string args beyond 23 bytes; every
        // pack rule name must survive the mirror whole.
        EXPECT_LE(rule.name.size(), 23u) << rule.name;
        EXPECT_FALSE(rule.series.empty()) << rule.name;
        if (rule.kind == AlertKind::kBurnRate) {
            EXPECT_FALSE(rule.total_series.empty()) << rule.name;
            EXPECT_GT(rule.budget_ppm, 0) << rule.name;
        }
        names.push_back(rule.name);
    }
    std::sort(names.begin(), names.end());
    EXPECT_EQ(std::adjacent_find(names.begin(), names.end()), names.end())
        << "duplicate rule names in the default pack";

    AlertEngine engine;
    engine.AddRules(pack);  // Must all pass AddRule validation.
    EXPECT_EQ(engine.num_rules(), pack.size());
}

// ---- Health report ------------------------------------------------------

TEST(HealthReportWriter, SerializesTimelineAlertsAndSlos)
{
    TimeSeriesStore store;
    AlertEngine engine;
    engine.AddRule(ThresholdRule("p99", 100));
    store.Append("p99", Ms(100), 150);
    engine.Evaluate(store, Ms(100));

    const std::string json =
        HealthReportWriter::ToString("unit", store, engine);
    EXPECT_NE(json.find("\"health\": \"unit\""), std::string::npos) << json;
    EXPECT_NE(json.find("\"timeline_hash\""), std::string::npos);
    EXPECT_NE(json.find("\"p99\""), std::string::npos);
    EXPECT_NE(json.find("\"rule\": \"p99_high\""), std::string::npos);
    EXPECT_NE(json.find("\"state\": \"firing\""), std::string::npos);

    // Deterministic: an identical store/engine serializes identically.
    TimeSeriesStore store2;
    AlertEngine engine2;
    engine2.AddRule(ThresholdRule("p99", 100));
    store2.Append("p99", Ms(100), 150);
    engine2.Evaluate(store2, Ms(100));
    EXPECT_EQ(json, HealthReportWriter::ToString("unit", store2, engine2));
}

// ---- Fleet integration --------------------------------------------------

fleet::FleetConfig
SmallFleet(TimeSeriesStore* health, AlertEngine* alerts)
{
    fleet::FleetConfig config;
    config.num_nodes = 4;
    config.num_shards = 4;
    config.num_threads = 1;
    config.base_seed = 7;
    config.window = sim::Millis(100);
    config.node.synthetic_agents = 2;
    config.health = health;
    config.alerts = alerts;
    return config;
}

struct FleetHealthRun {
    std::uint64_t trace_hash = 0;
    std::uint64_t executed = 0;
    std::uint64_t timeline_hash = 0;
    std::uint64_t samples = 0;
    std::vector<AlertEvent> alerts;
};

/** Fleet layout: nodes sliced into shards (several nodes per shard
 *  when shards < nodes). */
struct FleetShape {
    std::size_t nodes = 4;
    std::size_t shards = 4;
};

/** The health sample at the fleet's current horizon against the same
 *  quantities recomputed from public node reads, which walk every node
 *  of every shard on the calling thread. A roll-up taken on the wrong
 *  window or over the wrong nodes disagrees with them. */
void
ExpectFinalSampleMatchesNodes(fleet::ShardedFleetRunner& runner,
                              const TimeSeriesStore& health)
{
    std::uint64_t epochs = 0;
    std::uint64_t requests = 0;
    LatencyHistogram latency;
    for (std::size_t i = 0; i < runner.num_nodes(); ++i) {
        cluster::MultiAgentNode& node = runner.node(i);
        epochs += node.AggregateStats().epochs;
        requests += node.arbiter().requests();
        latency.Merge(node.EpochLatencyHistogram());
    }
    ASSERT_GT(epochs, 0u);
    const auto sample = [&health, &runner](const char* name) {
        std::int64_t value = -1;
        EXPECT_TRUE(health.ValueAt(name, runner.Now(), &value)) << name;
        return static_cast<std::uint64_t>(value);
    };
    EXPECT_EQ(sample("fleet.epochs"), epochs);
    EXPECT_EQ(sample("fleet.arbiter.requests"), requests);
    EXPECT_EQ(sample("fleet.node.epoch_latency.count"), latency.count());
    EXPECT_EQ(sample("fleet.node.epoch_latency.p99_ns"),
              latency.ValueAtPercentile(99.0));
}

FleetHealthRun
RunSmallFleet(std::size_t threads, bool with_health,
              std::size_t every_n_windows = 1, FleetShape shape = {})
{
    TimeSeriesStore health;
    AlertEngine engine;
    engine.AddRules(DefaultFleetAlertRules());
    fleet::FleetConfig config = SmallFleet(
        with_health ? &health : nullptr, with_health ? &engine : nullptr);
    config.num_nodes = shape.nodes;
    config.num_shards = shape.shards;
    config.num_threads = threads;
    config.health_every_n_windows = every_n_windows;
    fleet::ShardedFleetRunner runner(config);
    runner.Run(sim::Seconds(1));
    if (with_health && every_n_windows != 0) {
        // 1 s is a whole number of sampling periods for N = 1 and 2, so
        // the last window was sampled.
        ExpectFinalSampleMatchesNodes(runner, health);
    }
    runner.Stop();

    FleetHealthRun result;
    result.trace_hash = runner.fleet_trace_hash();
    result.executed = runner.total_executed();
    result.timeline_hash = health.timeline_hash();
    result.samples = health.total_appended();
    result.alerts = engine.events();
    return result;
}

TEST(FleetHealth, TimelineIsIdenticalAcrossRepeatsAndThreads)
{
    struct Layout {
        const char* name;
        FleetShape shape;
        std::size_t every_n_windows;
    };
    for (const Layout& layout :
         {Layout{"4 nodes in 4 shards", {4, 4}, 1},
          Layout{"6 nodes in 3 shards", {6, 3}, 1},
          Layout{"6 nodes in 3 shards, every 2nd window", {6, 3}, 2}}) {
        SCOPED_TRACE(layout.name);
        const FleetHealthRun base =
            RunSmallFleet(1, true, layout.every_n_windows, layout.shape);
        EXPECT_GT(base.samples, 0u);

        const FleetHealthRun repeat =
            RunSmallFleet(1, true, layout.every_n_windows, layout.shape);
        EXPECT_EQ(base.timeline_hash, repeat.timeline_hash);
        EXPECT_EQ(base.samples, repeat.samples);
        EXPECT_EQ(base.alerts, repeat.alerts);

        for (const std::size_t threads : {std::size_t{2}, std::size_t{8}}) {
            const FleetHealthRun run = RunSmallFleet(
                threads, true, layout.every_n_windows, layout.shape);
            EXPECT_EQ(base.timeline_hash, run.timeline_hash)
                << threads << " threads";
            EXPECT_EQ(base.samples, run.samples) << threads << " threads";
            EXPECT_EQ(base.alerts, run.alerts) << threads << " threads";
        }
    }
}

TEST(FleetHealth, SamplingIsObserveOnly)
{
    const FleetHealthRun with = RunSmallFleet(1, true);
    const FleetHealthRun without = RunSmallFleet(1, false);
    EXPECT_EQ(with.trace_hash, without.trace_hash);
    EXPECT_EQ(with.executed, without.executed);
    EXPECT_EQ(without.samples, 0u);
}

TEST(FleetHealth, SamplingCadenceFollowsEveryNWindows)
{
    const FleetHealthRun every = RunSmallFleet(1, true, 1);
    const FleetHealthRun sparse = RunSmallFleet(1, true, 2);
    const FleetHealthRun never = RunSmallFleet(1, true, 0);
    EXPECT_GT(every.samples, sparse.samples);
    EXPECT_GT(sparse.samples, 0u);
    EXPECT_EQ(never.samples, 0u);
    // Halving the cadence halves the per-series sample count; the
    // series population is unchanged.
    EXPECT_EQ(sparse.samples * 2, every.samples);
}

TEST(FleetHealth, FleetSeriesCarryExpectedNames)
{
    TimeSeriesStore health;
    fleet::FleetConfig config = SmallFleet(&health, nullptr);
    fleet::ShardedFleetRunner runner(config);
    runner.Run(sim::Millis(300));
    runner.Stop();

    for (const char* name :
         {"fleet.epochs", "fleet.data.harvested", "fleet.data.invalid",
          "fleet.safeguard.trips", "fleet.safeguard.mitigations",
          "fleet.model.failures", "fleet.model.intercepted",
          "fleet.actions", "fleet.queue.executed", "fleet.queue.dropped",
          "fleet.queue.pending", "fleet.arbiter.requests",
          "fleet.arbiter.denied", "fleet.agent.halted_ns",
          "fleet.agent.active_ns", "fleet.node.epoch_latency.count",
          "fleet.node.epoch_latency.p50_ns",
          "fleet.node.epoch_latency.p99_ns"}) {
        EXPECT_NE(health.Find(name), nullptr) << name;
    }
    // active_ns is the SLO denominator: agents x elapsed virtual time.
    std::int64_t active = 0;
    ASSERT_TRUE(health.ValueAt("fleet.agent.active_ns", Ms(300), &active));
    const std::int64_t agents = 4 * (2 + 4);  // 4 nodes x (2 syn + 4 real).
    EXPECT_EQ(active, agents * Ms(300).count());
}

// ---- Node-level sampling ------------------------------------------------

TEST(NodeHealth, DriverTickSamplesAtConfiguredPeriod)
{
    sim::EventQueue queue;
    SharedTimeSeriesStore health;
    cluster::MultiAgentNodeConfig config;
    config.name = "node0";
    config.synthetic_agents = 2;
    config.health = &health;
    config.health_period = sim::Millis(100);
    cluster::MultiAgentNode node(queue, config);
    node.Start();
    queue.RunFor(sim::Seconds(1));

    const TimeSeriesStore snapshot = health.Snapshot();
    const TimeSeries* epochs = snapshot.Find("node0.epochs");
    ASSERT_NE(epochs, nullptr);
    // ~10 samples over 1s at 100ms cadence (first at 100ms).
    EXPECT_GE(epochs->size(), 9u);
    EXPECT_LE(epochs->size(), 11u);
    EXPECT_NE(snapshot.Find("node0.epoch_latency.p99_ns"), nullptr);
    EXPECT_NE(snapshot.Find("node0.agent.active_ns"), nullptr);
}

TEST(NodeHealth, SampleWritesExactlyTheNodeSeries)
{
    sim::EventQueue queue;
    SharedTimeSeriesStore health;
    cluster::MultiAgentNodeConfig config;
    config.name = "node3";
    config.synthetic_agents = 2;
    config.health = &health;
    cluster::MultiAgentNode node(queue, config);
    node.Start();
    queue.RunFor(sim::Millis(300));
    node.Stop();

    std::set<std::string> written;
    health.Snapshot().VisitSeries(
        [&written](const std::string& name, const TimeSeries&) {
            written.insert(name);
        });
    const std::set<std::string> expected = {
        "node3.safeguard.trips",         "node3.safeguard.mitigations",
        "node3.model.failures",          "node3.model.intercepted",
        "node3.data.harvested",          "node3.data.invalid",
        "node3.epochs",                  "node3.actions",
        "node3.arbiter.requests",        "node3.arbiter.denied",
        "node3.agent.halted_ns",         "node3.agent.active_ns",
        "node3.epoch_latency.count",     "node3.epoch_latency.p50_ns",
        "node3.epoch_latency.p90_ns",    "node3.epoch_latency.p99_ns",
        "node3.epoch_latency.p999_ns",
    };
    EXPECT_EQ(written, expected);
}

TEST(NodeHealth, RejectsNonPositivePeriod)
{
    sim::EventQueue queue;
    SharedTimeSeriesStore health;
    cluster::MultiAgentNodeConfig config;
    config.health = &health;
    config.health_period = sim::Duration::zero();
    cluster::MultiAgentNode node(queue, config);
    EXPECT_THROW(node.Start(), std::invalid_argument);
    EXPECT_FALSE(node.started());
}

TEST(NodeHealth, ThreadedNodeRejectsNonPositivePeriod)
{
    SharedTimeSeriesStore health;
    cluster::MultiAgentNodeConfig config;
    config.health = &health;
    config.health_period = sim::Duration::zero();
    cluster::ThreadedMultiAgentNode<> node(config);
    EXPECT_THROW(node.Start(), std::invalid_argument);
    EXPECT_FALSE(node.started());
    EXPECT_EQ(health.Snapshot().num_series(), 0u);
}

/** Each driver tick set to zero, then to -5 ns: a zero tick would
 *  re-fire at one instant forever, a negative one clamps to zero. */
template <typename Check>
void
ForEachNonPositiveDriverTick(Check check)
{
    using Config = cluster::MultiAgentNodeConfig;
    for (sim::Duration Config::*tick :
         {&Config::node_tick, &Config::memory_tick, &Config::channel_tick}) {
        for (const sim::Duration bad :
             {sim::Duration::zero(), sim::Nanos(-5)}) {
            Config config;
            config.synthetic_agents = 1;
            config.*tick = bad;
            check(config);
        }
    }
}

TEST(NodeHealth, RejectsNonPositiveDriverTicks)
{
    ForEachNonPositiveDriverTick([](const cluster::MultiAgentNodeConfig& c) {
        sim::EventQueue queue;
        cluster::MultiAgentNode node(queue, c);
        EXPECT_THROW(node.Start(), std::invalid_argument);
        EXPECT_FALSE(node.started());
        EXPECT_EQ(queue.stats().scheduled, 0u);  // Nothing was armed.
    });
}

TEST(NodeHealth, ThreadedNodeRejectsNonPositiveDriverTicks)
{
    ForEachNonPositiveDriverTick([](cluster::MultiAgentNodeConfig c) {
        // No real agent, so no driver thread would spin on a bad tick
        // even if Start() let it through.
        c.run_overclock = c.run_harvest = c.run_memory = c.run_monitor =
            false;
        cluster::ThreadedMultiAgentNode<> node(c);
        EXPECT_THROW(node.Start(), std::invalid_argument);
        EXPECT_FALSE(node.started());
    });
}

// ---- Concurrency (TSan leg repeats HealthConcurrency 20x) ---------------

TEST(HealthConcurrency, SharedStoreSurvivesProducersAndScrapers)
{
    SharedTimeSeriesStore store;
    constexpr int kProducers = 4;
    constexpr int kSamples = 500;
    std::atomic<bool> stop{false};

    std::vector<std::thread> producers;
    producers.reserve(kProducers);
    for (int p = 0; p < kProducers; ++p) {
        producers.emplace_back([&store, p] {
            const std::string name = "series." + std::to_string(p);
            for (int i = 0; i < kSamples; ++i) {
                store.Append(name, Ms(i), i);
            }
        });
    }
    std::thread scraper([&store, &stop] {
        std::uint64_t scrapes = 0;
        while (!stop.load(std::memory_order_relaxed) || scrapes == 0) {
            const TimeSeriesStore snapshot = store.Snapshot();
            (void)snapshot.timeline_hash();
            ++scrapes;
        }
    });
    for (std::thread& t : producers) {
        t.join();
    }
    stop.store(true, std::memory_order_relaxed);
    scraper.join();

    const TimeSeriesStore final_snapshot = store.Snapshot();
    EXPECT_EQ(final_snapshot.num_series(),
              static_cast<std::size_t>(kProducers));
    EXPECT_EQ(final_snapshot.total_appended(),
              static_cast<std::uint64_t>(kProducers) * kSamples);
}

}  // namespace
}  // namespace sol::telemetry
