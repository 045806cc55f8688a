/**
 * @file
 * Google-benchmark micro-benchmarks for the SOL runtime primitives and
 * learning models: the per-operation costs that determine whether an
 * agent fits inside its production resource budget (e.g. 1% of a core).
 */
#include <benchmark/benchmark.h>

#include <deque>
#include <vector>

#include "core/schedule.h"
#include "ml/cost_sensitive.h"
#include "ml/qlearning.h"
#include "ml/thompson.h"
#include "sim/event_queue.h"
#include "sim/rng.h"
#include "telemetry/online_stats.h"
#include "telemetry/window_percentile.h"

namespace {

void
BM_RngNextDouble(benchmark::State& state)
{
    sol::sim::Rng rng(1);
    for (auto _ : state) {
        benchmark::DoNotOptimize(rng.NextDouble());
    }
}
BENCHMARK(BM_RngNextDouble);

void
BM_RngBeta(benchmark::State& state)
{
    sol::sim::Rng rng(1);
    for (auto _ : state) {
        benchmark::DoNotOptimize(rng.NextBeta(3.0, 5.0));
    }
}
BENCHMARK(BM_RngBeta);

void
BM_EventQueueScheduleAndRun(benchmark::State& state)
{
    for (auto _ : state) {
        sol::sim::EventQueue queue;
        for (int i = 0; i < 1000; ++i) {
            queue.ScheduleAt(sol::sim::Millis(i), [] {});
        }
        queue.RunUntil(sol::sim::Seconds(10));
        benchmark::DoNotOptimize(queue.executed());
    }
    state.SetItemsProcessed(state.iterations() * 1000);
}
BENCHMARK(BM_EventQueueScheduleAndRun);

// Steady-state churn: 1000 concurrent self-re-arming events (the
// PeriodicTask / runtime-loop pattern). Every firing files its own
// arena slot again; items/sec is sustained simulation throughput.
void
BM_EventQueueSteadyChurn(benchmark::State& state)
{
    sol::sim::EventQueue queue;
    for (int i = 0; i < 1000; ++i) {
        const sol::sim::Duration period = sol::sim::Micros(50 + i % 97);
        queue.ScheduleAfter(period,
                            [period] { return sol::sim::Next::After(period); });
    }
    const std::uint64_t before = queue.executed();
    for (auto _ : state) {
        queue.RunFor(sol::sim::Millis(1));
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(queue.executed() - before));
}
BENCHMARK(BM_EventQueueSteadyChurn);

// Cancellation-heavy churn: each firing also arms and immediately
// cancels a timeout (SimRuntime re-arms its actuator timeout on every
// action). Eager arena removal keeps cancelled events from piling up
// in the heap; the seed binary-heap queue dragged them to deadline.
void
BM_EventQueueCancelChurn(benchmark::State& state)
{
    sol::sim::EventQueue queue;
    for (int i = 0; i < 1000; ++i) {
        const sol::sim::Duration period = sol::sim::Micros(50 + i % 97);
        queue.ScheduleAfter(period, [&queue, period] {
            queue.ScheduleAfter(sol::sim::Millis(5), [] {}).Cancel();
            return sol::sim::Next::After(period);
        });
    }
    const std::uint64_t before = queue.executed();
    for (auto _ : state) {
        queue.RunFor(sol::sim::Millis(1));
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(queue.executed() - before));
}
BENCHMARK(BM_EventQueueCancelChurn);

// The fleet77_x2 per-shard shape (perfbench measures ~235 pending and a
// cancel ratio of 0.028 there): 2 streams at 50 us — the node substrate
// tick and SmartHarvest's collect, which share one phase, so every
// 50 us the queue pops a two-event instant, as once per node tick in
// the fleet — over 230 agent streams at 10 ms x 2^k, k in 0..7 (10 ms
// to 1.28 s), plus timeouts armed on ~2.9% of steps and cancelled 64
// steps later, long before their deadline, so ~2.8% of all schedules
// are cancelled. Items are fired events.
void
BM_EventQueueFleetMix(benchmark::State& state)
{
    struct Streams {
        sol::sim::EventQueue queue;
        std::vector<sol::sim::Duration> period;
    };
    struct Fire {
        Streams* streams;
        std::size_t index;
        sol::sim::Next
        operator()() const
        {
            return sol::sim::Next::After(streams->period[index]);
        }
    };
    constexpr std::size_t kFast = 2;
    constexpr std::size_t kStreams = kFast + 230;
    Streams streams;
    sol::sim::Rng rng(1);
    const auto phase = [&rng](sol::sim::Duration period) {
        return sol::sim::Duration(static_cast<std::int64_t>(
            rng.NextBelow(static_cast<std::uint64_t>(period.count()))));
    };
    const sol::sim::Duration fast_phase = phase(sol::sim::Micros(50));
    for (std::size_t i = 0; i < kStreams; ++i) {
        const sol::sim::Duration period =
            i < kFast ? sol::sim::Micros(50)
                      : sol::sim::Millis(10) * (1 << rng.NextBelow(8));
        streams.period.push_back(period);
        streams.queue.ScheduleAfter(i < kFast ? fast_phase : phase(period),
                                    Fire{&streams, i});
    }
    std::deque<sol::sim::EventHandle> timeouts;
    const std::uint64_t before = streams.queue.executed();
    for (auto _ : state) {
        // cancelled / scheduled = 0.028 needs 0.028 / (1 - 0.028) =
        // 0.029 cancelled timeouts per fired event.
        if (rng.NextBelow(1000) < 29) {
            timeouts.push_back(
                streams.queue.ScheduleAfter(sol::sim::Seconds(10), [] {}));
            if (timeouts.size() > 64) {
                timeouts.front().Cancel();
                timeouts.pop_front();
            }
        }
        benchmark::DoNotOptimize(streams.queue.Step());
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(streams.queue.executed() - before));
}
BENCHMARK(BM_EventQueueFleetMix);

void
BM_QLearnerUpdate(benchmark::State& state)
{
    sol::ml::QLearnerConfig config;
    config.num_states = 24;
    config.num_actions = 3;
    sol::ml::QLearner learner(config);
    std::size_t s = 0;
    for (auto _ : state) {
        learner.Update(s % 24, s % 3, 1.0, (s + 1) % 24);
        ++s;
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_QLearnerUpdate);

void
BM_CostSensitivePredict(benchmark::State& state)
{
    sol::ml::CostSensitiveConfig config;
    config.num_classes = 7;
    sol::ml::CostSensitiveClassifier clf(config);
    sol::ml::FeatureVector x(16);
    x.AddBias();
    for (int i = 0; i < 8; ++i) {
        x.Add("f" + std::to_string(i), 0.5);
    }
    for (auto _ : state) {
        benchmark::DoNotOptimize(clf.Predict(x));
    }
}
BENCHMARK(BM_CostSensitivePredict);

void
BM_CostSensitiveUpdate(benchmark::State& state)
{
    sol::ml::CostSensitiveConfig config;
    config.num_classes = 7;
    sol::ml::CostSensitiveClassifier clf(config);
    sol::ml::FeatureVector x(16);
    x.AddBias();
    for (int i = 0; i < 8; ++i) {
        x.Add("f" + std::to_string(i), 0.5);
    }
    const std::vector<double> costs = {3, 2, 1, 0, 1, 2, 3};
    for (auto _ : state) {
        clf.Update(x, costs);
    }
}
BENCHMARK(BM_CostSensitiveUpdate);

void
BM_ThompsonSelect(benchmark::State& state)
{
    sol::ml::ThompsonSampler ts(6);
    sol::sim::Rng rng(1);
    for (auto _ : state) {
        benchmark::DoNotOptimize(ts.SelectArm(rng));
    }
}
BENCHMARK(BM_ThompsonSelect);

void
BM_WindowPercentileAddQuery(benchmark::State& state)
{
    sol::telemetry::WindowPercentile wp(sol::sim::Seconds(100));
    sol::sim::Rng rng(1);
    std::int64_t t = 0;
    for (auto _ : state) {
        wp.Add(sol::sim::Seconds(t), rng.NextDouble());
        if (t % 10 == 0) {
            benchmark::DoNotOptimize(
                wp.Quantile(sol::sim::Seconds(t), 0.9));
        }
        ++t;
    }
}
BENCHMARK(BM_WindowPercentileAddQuery);

void
BM_ScheduleParse(benchmark::State& state)
{
    const std::string text =
        "data_per_epoch = 10\ndata_collect_interval = 100ms\n"
        "max_epoch_time = 1500ms\nmax_actuation_delay = 5s\n";
    for (auto _ : state) {
        std::istringstream in(text);
        benchmark::DoNotOptimize(sol::core::ParseSchedule(in));
    }
}
BENCHMARK(BM_ScheduleParse);

}  // namespace

BENCHMARK_MAIN();
