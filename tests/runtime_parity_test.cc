/**
 * @file
 * Differential parity harness: SimRuntime and ThreadedRuntime must
 * produce field-for-field identical RuntimeStats for the same scripted
 * agent. This is the permanent anti-drift regression gate for the
 * shared core::EpochEngine — any semantic divergence between the two
 * scheduling backends shows up as a counter mismatch here.
 *
 * Determinism on real threads comes from two pieces:
 *
 *   - core::ManualClock (core/manual_clock.h), a ClockPolicy whose
 *     SleepFor consumes explicitly
 *     granted ticks (one tick = one data_collect_interval) and only
 *     advances virtual time once the actuator has fully caught up with
 *     every delivered prediction (the "drain gate"). The clock is
 *     therefore frozen whenever the actuator reads it, so action,
 *     assessment, and halt timestamps are exact virtual instants.
 *   - blocking_actuator scenarios with never-expiring predictions, so
 *     actuator activity is purely prediction/assessment driven (the
 *     real-time timeout paths keep their per-runtime unit tests).
 *
 * Under the gate, each tick runs in lockstep: collect (+ deliver /
 * assess / act) fully completes in both backends before the next tick
 * starts, which makes even halted_time comparable to the nanosecond.
 * Scenarios cover valid/invalid/fault-injected samples, forced and
 * deadline short-circuits, failing model assessments (interception),
 * actuator-safeguard trips with recovery, and Stop/Start cycles —
 * including the two historical drift bugs: ThreadedRuntime missing
 * SetDataFault, and ThreadedRuntime forgetting a failed model
 * assessment across a restart.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <thread>
#include <utility>
#include <vector>

#include "core/manual_clock.h"
#include "core/sync.h"
#include "core/thread_annotations.h"
#include "core/sim_runtime.h"
#include "core/threaded_runtime.h"
#include "sim/event_queue.h"

namespace sol::core {
namespace {

using sim::Millis;
using sim::Seconds;

/** One collect tick = one virtual data_collect_interval. */
constexpr sim::Duration kTick = Millis(10);

/** Sample value the installed data fault corrupts into an invalid
 *  reading; without the fault hook it validates fine. */
constexpr int kFaultMarker = 777;

/** One scripted collect tick. */
struct ScenarioTick {
    /** Sample returned by CollectData: negative = invalid,
     *  kFaultMarker = corrupted by the fault hook (if installed). */
    int sample = 1;
    /** Model requests ShortCircuitEpoch after this sample. */
    bool short_circuit = false;
};

/** A complete scripted run, executed identically on both runtimes. */
struct Scenario {
    std::vector<ScenarioTick> ticks;
    /** Result of the k-th AssessModel call (true beyond the script). */
    std::vector<bool> model_assessments;
    /** Result of the k-th AssessPerformance call (true beyond). */
    std::vector<bool> actuator_assessments;
    Schedule schedule;
    RuntimeOptions options;
    /** Stop + Start after this many ticks (0 = no restart). */
    std::size_t restart_after_tick = 0;
    /** Install the kFaultMarker-corrupting data fault on the runtime. */
    bool install_fault = false;
};

/** Baseline schedule: tick-paced collection, never-expiring epochs,
 *  blocking actuator (every parity scenario uses blocking mode so
 *  actuator activity is prediction/assessment driven, not timer
 *  driven). */
Schedule
ParitySchedule()
{
    Schedule schedule;
    schedule.data_per_epoch = 1;
    schedule.data_collect_interval = kTick;
    schedule.max_epoch_time = Seconds(100);
    schedule.assess_model_every_epochs = 1;
    schedule.max_actuation_delay = Seconds(100);
    schedule.assess_actuator_interval = kTick;
    return schedule;
}

RuntimeOptions
ParityOptions(bool safeguard_enabled)
{
    RuntimeOptions options;
    options.blocking_actuator = true;
    options.disable_actuator_safeguard = !safeguard_enabled;
    return options;
}

/** Plays the scenario's tick script; thread-safe for the threaded
 *  runtime, deterministic on the event queue. */
class ScriptedModel : public Model<int, int>
{
  public:
    explicit ScriptedModel(const Scenario& scenario) : scenario_(scenario)
    {
    }

    int
    CollectData() override
    {
        const std::size_t i = position_.fetch_add(1);
        // The harnesses bound collection at the script length (event
        // horizon / granted ticks), so the fallback is defensive only.
        short_circuit_ = i < scenario_.ticks.size() &&
                         scenario_.ticks[i].short_circuit;
        return i < scenario_.ticks.size() ? scenario_.ticks[i].sample : 1;
    }

    bool ValidateData(const int& data) override { return data >= 0; }

    void
    CommitData(sim::TimePoint, const int&) override
    {
        commits_.fetch_add(1);
    }

    void UpdateModel() override {}

    Prediction<int>
    ModelPredict() override
    {
        return Prediction<int>{1, sim::kTimeInfinity, false};
    }

    Prediction<int>
    DefaultPredict() override
    {
        return Prediction<int>{0, sim::kTimeInfinity, true};
    }

    bool
    AssessModel() override
    {
        std::function<void()> barrier;
        {
            core::MutexLock lock(barrier_mutex_);
            barrier = assess_barrier_;
        }
        if (barrier) {
            barrier();  // Crash-consistency race: block mid-assessment.
        }
        const std::size_t k = assessments_.fetch_add(1);
        return k < scenario_.model_assessments.size()
                   ? scenario_.model_assessments[k]
                   : true;
    }

    bool ShortCircuitEpoch() override { return short_circuit_; }

    /** Hook run at AssessModel entry (threaded leg only); the race
     *  harness parks the model thread here while Stop() is joining. */
    void
    SetAssessBarrier(std::function<void()> barrier)
    {
        core::MutexLock lock(barrier_mutex_);
        assess_barrier_ = std::move(barrier);
    }

    std::size_t collects() const { return position_.load(); }
    std::uint64_t commits() const { return commits_.load(); }

  private:
    const Scenario& scenario_;
    std::atomic<std::size_t> position_{0};
    std::atomic<std::size_t> assessments_{0};
    std::atomic<std::uint64_t> commits_{0};
    bool short_circuit_ = false;  // Model-loop thread only.
    core::Mutex barrier_mutex_;
    std::function<void()> assess_barrier_ SOL_GUARDED_BY(barrier_mutex_);
};

class ScriptedActuator : public Actuator<int>
{
  public:
    explicit ScriptedActuator(const Scenario& scenario)
        : scenario_(scenario)
    {
    }

    void
    TakeAction(std::optional<Prediction<int>> pred) override
    {
        actions_.fetch_add(1);
        if (pred.has_value() && pred->is_default) {
            default_actions_.fetch_add(1);
        }
    }

    bool
    AssessPerformance() override
    {
        const std::size_t k = assessments_.fetch_add(1);
        return k < scenario_.actuator_assessments.size()
                   ? scenario_.actuator_assessments[k]
                   : true;
    }

    void Mitigate() override { mitigations_.fetch_add(1); }
    void CleanUp() override {}

    std::size_t assessments() const { return assessments_.load(); }

  private:
    const Scenario& scenario_;
    std::atomic<std::uint64_t> actions_{0};
    std::atomic<std::uint64_t> default_actions_{0};
    std::atomic<std::uint64_t> mitigations_{0};
    std::atomic<std::size_t> assessments_{0};
};

std::function<void(int&)>
MarkerFault()
{
    return [](int& data) {
        if (data == kFaultMarker) {
            data = -kFaultMarker;
        }
    };
}

using ParityThreadedRuntime = ThreadedRuntime<int, int, ManualClock>;

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
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    return condition();
}

/** Blocks until the threaded leg finished the phase: the model parked
 *  on the tick budget, every scripted collect ran, every due actuator
 *  assessment completed, and the actuator drained every delivery. */
void
Quiesce(ParityThreadedRuntime& runtime, const ScriptedModel& model,
        const ScriptedActuator& actuator, std::size_t expected_collects,
        std::size_t expected_assessments)
{
    const bool done = WaitUntil([&] {
        if (!runtime.clock().Parked() ||
            model.collects() != expected_collects ||
            actuator.assessments() != expected_assessments) {
            return false;
        }
        const RuntimeStats stats = runtime.stats();
        return stats.predictions_delivered ==
               stats.actions_with_prediction + stats.dropped_while_halted;
    });
    ASSERT_TRUE(done) << "threaded leg failed to quiesce: collects="
                      << model.collects() << "/" << expected_collects
                      << " assessments=" << actuator.assessments() << "/"
                      << expected_assessments;
}

RuntimeStats
RunSimLeg(const Scenario& scenario)
{
    sim::EventQueue queue;
    ScriptedModel model(scenario);
    ScriptedActuator actuator(scenario);
    SimRuntime<int, int> runtime(queue, model, actuator,
                                 scenario.schedule, scenario.options);
    if (scenario.install_fault) {
        runtime.SetDataFault(MarkerFault());
    }
    runtime.Start();
    if (scenario.restart_after_tick > 0) {
        queue.RunUntil(kTick * static_cast<std::int64_t>(
                                   scenario.restart_after_tick));
        runtime.Stop();
        runtime.Start();
    }
    queue.RunUntil(kTick *
                   static_cast<std::int64_t>(scenario.ticks.size()));
    runtime.Stop();
    return runtime.stats();
}

RuntimeStats
RunThreadedLeg(const Scenario& scenario)
{
    ScriptedModel model(scenario);
    ScriptedActuator actuator(scenario);
    ParityThreadedRuntime runtime(model, actuator, scenario.schedule,
                                  scenario.options);
    if (scenario.install_fault) {
        runtime.SetDataFault(MarkerFault());
    }
    const bool safeguard = !scenario.options.disable_actuator_safeguard;
    runtime.clock().SetGate([&runtime, safeguard] {
        const RuntimeStats stats = runtime.stats();
        // The actuator caught up when every delivery was either acted
        // on or dropped — and, with the safeguard on (one delivery and
        // one due assessment per tick), when the current tick's
        // assessment ran, so halt/resume instants are exact.
        return stats.predictions_delivered ==
                   stats.actions_with_prediction +
                       stats.dropped_while_halted &&
               (!safeguard || stats.actuator_assessments ==
                                  stats.predictions_delivered);
    });

    const std::size_t total = scenario.ticks.size();
    const std::size_t phase1 = scenario.restart_after_tick > 0
                                   ? scenario.restart_after_tick
                                   : total;
    runtime.Start();
    runtime.clock().GrantTicks(phase1);
    Quiesce(runtime, model, actuator, phase1, safeguard ? phase1 : 0);
    if (scenario.restart_after_tick > 0) {
        runtime.Stop();
        runtime.Start();
        runtime.clock().GrantTicks(total - phase1);
        Quiesce(runtime, model, actuator, total, safeguard ? total : 0);
    }
    runtime.Stop();
    return runtime.stats();
}

std::vector<ScenarioTick>
ValidTicks(std::size_t n)
{
    return std::vector<ScenarioTick>(n, ScenarioTick{1, false});
}

TEST(RuntimeParityTest, CleanEpochsProduceIdenticalStats)
{
    Scenario scenario;
    scenario.ticks = ValidTicks(12);
    scenario.schedule = ParitySchedule();
    scenario.schedule.data_per_epoch = 3;
    scenario.schedule.assess_model_every_epochs = 2;
    scenario.options = ParityOptions(/*safeguard_enabled=*/false);

    const RuntimeStats sim = RunSimLeg(scenario);
    const RuntimeStats threaded = RunThreadedLeg(scenario);
    EXPECT_EQ(sim, threaded);  // Every RuntimeStats field.

    EXPECT_EQ(sim.samples_collected, 12u);
    EXPECT_EQ(sim.epochs, 4u);
    EXPECT_EQ(sim.model_updates, 4u);
    EXPECT_EQ(sim.model_assessments, 2u);  // Epochs 2 and 4.
    EXPECT_EQ(sim.predictions_delivered, 4u);
    EXPECT_EQ(sim.actions_with_prediction, 4u);
}

TEST(RuntimeParityTest, InvalidFaultedAndShortCircuitSamples)
{
    Scenario scenario;
    // Epoch 1: two valid samples -> complete.
    // Epoch 2: invalid, fault-corrupted, valid -> deadline (3 ticks).
    // Epoch 3: model-forced short circuit.
    // Epoch 4: two valid -> complete.
    // Epoch 5: fault-corrupted, valid, valid -> complete.
    // Epoch 6: one valid sample, still in flight at the horizon.
    scenario.ticks = {{1, false},           {1, false}, {-1, false},
                      {kFaultMarker, false}, {1, false}, {1, true},
                      {1, false},           {1, false}, {kFaultMarker, false},
                      {1, false},           {1, false}, {1, false}};
    scenario.install_fault = true;
    scenario.schedule = ParitySchedule();
    scenario.schedule.data_per_epoch = 2;
    scenario.schedule.max_epoch_time = 3 * kTick;
    scenario.options = ParityOptions(/*safeguard_enabled=*/false);

    const RuntimeStats sim = RunSimLeg(scenario);
    const RuntimeStats threaded = RunThreadedLeg(scenario);
    EXPECT_EQ(sim, threaded);  // Every RuntimeStats field.

    // The data-fault hook fired on both runtimes (the old
    // ThreadedRuntime had no SetDataFault at all).
    EXPECT_EQ(sim.invalid_samples, 3u);
    EXPECT_EQ(threaded.invalid_samples, 3u);
    EXPECT_EQ(sim.epochs, 5u);
    EXPECT_EQ(sim.model_updates, 3u);
    EXPECT_EQ(sim.short_circuit_epochs, 2u);
    EXPECT_EQ(sim.default_predictions, 2u);
}

TEST(RuntimeParityTest, FailingModelAssessmentIntercepts)
{
    Scenario scenario;
    scenario.ticks = ValidTicks(10);
    scenario.schedule = ParitySchedule();
    scenario.schedule.assess_model_every_epochs = 2;
    // Assessed at epochs 2, 4, 6, 8, 10: fail at 4 and 6, so epochs
    // 4-7 are intercepted and 8+ recover.
    scenario.model_assessments = {true, false, false, true, true};
    scenario.options = ParityOptions(/*safeguard_enabled=*/false);

    const RuntimeStats sim = RunSimLeg(scenario);
    const RuntimeStats threaded = RunThreadedLeg(scenario);
    EXPECT_EQ(sim, threaded);  // Every RuntimeStats field.

    EXPECT_EQ(sim.model_assessments, 5u);
    EXPECT_EQ(sim.failed_assessments, 2u);
    EXPECT_EQ(sim.intercepted_predictions, 4u);
    EXPECT_EQ(sim.default_predictions, 4u);
}

TEST(RuntimeParityTest, ActuatorSafeguardTripAndRecovery)
{
    Scenario scenario;
    scenario.ticks = ValidTicks(12);
    scenario.schedule = ParitySchedule();
    // One assessment per tick: trip at tick 4, recover at tick 9.
    scenario.actuator_assessments = {true,  true,  true, false, false,
                                     false, false, false, true,  true,
                                     true,  true};
    scenario.options = ParityOptions(/*safeguard_enabled=*/true);

    const RuntimeStats sim = RunSimLeg(scenario);
    const RuntimeStats threaded = RunThreadedLeg(scenario);
    EXPECT_EQ(sim, threaded);  // Every RuntimeStats field.

    EXPECT_EQ(sim.actuator_assessments, 12u);
    EXPECT_EQ(sim.safeguard_triggers, 1u);
    EXPECT_EQ(sim.mitigations, 5u);  // Failing ticks 4-8.
    // Tick 4's queued prediction is flushed by the trigger; ticks 5-9
    // deliver while halted and are dropped at delivery.
    EXPECT_EQ(sim.dropped_while_halted, 6u);
    EXPECT_EQ(sim.actions_taken, 6u);  // Ticks 1-3 and 10-12.
    // Halted from the tick-4 trip to the tick-9 recovery, exactly.
    EXPECT_EQ(sim.halted_time, 5 * kTick);
}

TEST(RuntimeParityTest, RestartMidEpochResetsOnlyEpochProgress)
{
    Scenario scenario;
    scenario.ticks = ValidTicks(10);
    scenario.schedule = ParitySchedule();
    scenario.schedule.data_per_epoch = 3;
    scenario.options = ParityOptions(/*safeguard_enabled=*/false);
    // Stop one sample into epoch 2; the partial epoch restarts from
    // scratch while counters and model state persist.
    scenario.restart_after_tick = 4;

    const RuntimeStats sim = RunSimLeg(scenario);
    const RuntimeStats threaded = RunThreadedLeg(scenario);
    EXPECT_EQ(sim, threaded);  // Every RuntimeStats field.

    EXPECT_EQ(sim.samples_collected, 10u);
    EXPECT_EQ(sim.epochs, 3u);  // Ticks 1-3, 5-7, 8-10.
    EXPECT_EQ(sim.model_updates, 3u);
    EXPECT_EQ(sim.short_circuit_epochs, 0u);
}

TEST(RuntimeParityTest, RestartPersistsFailedModelAssessment)
{
    Scenario scenario;
    scenario.ticks = ValidTicks(8);
    scenario.schedule = ParitySchedule();
    scenario.schedule.assess_model_every_epochs = 2;
    // Assessed at epochs 2 (ok), 4 (fail), 6 (fail), 8 (fail). The
    // restart lands right after the epoch-4 failure: epoch 5 runs
    // before any post-restart assessment, so it is intercepted only if
    // the failed assessment survived the restart — the exact state the
    // old ThreadedRuntime forgot (its model_ok was loop-local).
    scenario.model_assessments = {true, false, false, false};
    scenario.options = ParityOptions(/*safeguard_enabled=*/false);
    scenario.restart_after_tick = 4;

    const RuntimeStats sim = RunSimLeg(scenario);
    const RuntimeStats threaded = RunThreadedLeg(scenario);
    EXPECT_EQ(sim, threaded);  // Every RuntimeStats field.

    EXPECT_EQ(sim.failed_assessments, 3u);
    EXPECT_EQ(sim.intercepted_predictions, 5u);  // Epochs 4-8.
    EXPECT_EQ(threaded.intercepted_predictions, 5u);
}

TEST(RuntimeParityTest, StopRacingPendingModelAssessmentKeepsPrediction)
{
    // Crash-consistency: Stop() lands while the model thread is inside
    // the epoch-3 model assessment. The model loop has already passed
    // its running_ check, so it finishes the epoch and queues the
    // prediction after running_ flipped false — the actuator thread is
    // gone by then, so the delivery must survive in the engine across
    // the restart and be acted on at the restart instant, exactly like
    // the sim leg (where the same-instant wake acts before the stop).
    Scenario scenario;
    scenario.ticks = ValidTicks(6);
    scenario.schedule = ParitySchedule();
    scenario.options = ParityOptions(/*safeguard_enabled=*/false);
    scenario.restart_after_tick = 3;

    const RuntimeStats sim = RunSimLeg(scenario);

    ScriptedModel model(scenario);
    ScriptedActuator actuator(scenario);
    ParityThreadedRuntime runtime(model, actuator, scenario.schedule,
                                  scenario.options);
    runtime.clock().SetGate([&runtime] {
        const RuntimeStats stats = runtime.stats();
        return stats.predictions_delivered ==
               stats.actions_with_prediction + stats.dropped_while_halted;
    });

    runtime.Start();
    runtime.clock().GrantTicks(2);
    Quiesce(runtime, model, actuator, 2, 0);

    std::atomic<bool> in_assessment{false};
    std::atomic<bool> release{false};
    model.SetAssessBarrier([&] {
        in_assessment.store(true);
        while (!release.load()) {
            std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
    });
    runtime.clock().GrantTicks(1);
    ASSERT_TRUE(WaitUntil([&] { return in_assessment.load(); }));

    // Stop() joins the model thread, which is parked in AssessModel.
    std::thread stopper([&] { runtime.Stop(); });
    ASSERT_TRUE(WaitUntil([&] { return !runtime.running(); }));
    release.store(true);
    stopper.join();
    model.SetAssessBarrier(nullptr);

    // The epoch-3 delivery happened after running_ flipped false and
    // nobody acted on it: it must be queued, not lost.
    EXPECT_EQ(runtime.stats().predictions_delivered, 3u);
    EXPECT_EQ(runtime.stats().actions_with_prediction, 2u);
    EXPECT_EQ(runtime.queued_predictions(), 1u);

    runtime.Start();
    runtime.clock().GrantTicks(3);
    Quiesce(runtime, model, actuator, 6, 0);
    runtime.Stop();

    const RuntimeStats threaded = runtime.stats();
    EXPECT_EQ(sim, threaded);  // Every RuntimeStats field.
    EXPECT_EQ(threaded.predictions_delivered,
              threaded.actions_with_prediction);
    EXPECT_EQ(threaded.samples_collected, 6u);
    EXPECT_EQ(threaded.epochs, 6u);
}

TEST(RuntimeParityTest, RestartWhileHaltedKeepsSafeguardEngaged)
{
    Scenario scenario;
    scenario.ticks = ValidTicks(10);
    scenario.schedule = ParitySchedule();
    // Trip at tick 3; restart after tick 5 (still halted); recover at
    // tick 8. The halt and its accounting must span the restart.
    scenario.actuator_assessments = {true, true,  false, false, false,
                                     false, false, true,  true,  true};
    scenario.options = ParityOptions(/*safeguard_enabled=*/true);
    scenario.restart_after_tick = 5;

    const RuntimeStats sim = RunSimLeg(scenario);
    const RuntimeStats threaded = RunThreadedLeg(scenario);
    EXPECT_EQ(sim, threaded);  // Every RuntimeStats field.

    EXPECT_EQ(sim.actuator_assessments, 10u);
    EXPECT_EQ(sim.safeguard_triggers, 1u);  // The restart adds none.
    EXPECT_EQ(sim.mitigations, 5u);         // Failing ticks 3-7.
    EXPECT_EQ(sim.dropped_while_halted, 6u);  // Ticks 3-8.
    EXPECT_EQ(sim.actions_taken, 4u);         // Ticks 1-2 and 9-10.
    // Halted tick 3 -> tick 8; the stopped span [5, 5] adds nothing.
    EXPECT_EQ(sim.halted_time, 5 * kTick);
}

}  // namespace
}  // namespace sol::core
