/**
 * @file
 * Tests for the SOL core: schedule validation/parsing, prediction
 * expiry, the agent registry, and — most importantly — the SimRuntime's
 * learning-epoch and safeguard semantics, using an instrumented fake
 * agent.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "core/agent_registry.h"
#include "core/epoch_engine.h"
#include "core/prediction.h"
#include "core/runtime_stats.h"
#include "core/schedule.h"
#include "core/sim_runtime.h"
#include "core/sync.h"
#include "sim/event_queue.h"

namespace sol::core {
namespace {

using sim::EventQueue;
using sim::Millis;
using sim::Seconds;

// ---------------------------------------------------------------------------
// Prediction
// ---------------------------------------------------------------------------

TEST(PredictionTest, FreshUntilExpiry)
{
    const auto pred = MakePrediction(42, Millis(100), Millis(50));
    EXPECT_TRUE(pred.FreshAt(Millis(100)));
    EXPECT_TRUE(pred.FreshAt(Millis(150)));
    EXPECT_FALSE(pred.FreshAt(Millis(151)));
    EXPECT_FALSE(pred.is_default);
}

TEST(PredictionTest, DefaultFlagSet)
{
    const auto pred = MakeDefaultPrediction(7, Millis(0), Millis(10));
    EXPECT_TRUE(pred.is_default);
    EXPECT_EQ(pred.value, 7);
}

// ---------------------------------------------------------------------------
// Schedule
// ---------------------------------------------------------------------------

TEST(ScheduleTest, DefaultIsValid)
{
    EXPECT_TRUE(Schedule{}.IsValid());
}

TEST(ScheduleTest, DetectsEveryInvalidField)
{
    Schedule schedule;
    schedule.data_per_epoch = 0;
    EXPECT_FALSE(schedule.IsValid());

    schedule = Schedule{};
    schedule.data_collect_interval = Millis(0);
    EXPECT_FALSE(schedule.IsValid());

    schedule = Schedule{};
    schedule.max_epoch_time = Millis(0);
    EXPECT_FALSE(schedule.IsValid());

    schedule = Schedule{};
    schedule.max_epoch_time = Millis(10);
    schedule.data_collect_interval = Millis(20);
    EXPECT_FALSE(schedule.IsValid());

    schedule = Schedule{};
    schedule.assess_model_every_epochs = 0;
    EXPECT_FALSE(schedule.IsValid());

    schedule = Schedule{};
    schedule.max_actuation_delay = Millis(0);
    EXPECT_FALSE(schedule.IsValid());

    schedule = Schedule{};
    schedule.assess_actuator_interval = Millis(0);
    EXPECT_FALSE(schedule.IsValid());
}

TEST(ScheduleTest, ValidateListsAllProblems)
{
    Schedule schedule;
    schedule.data_per_epoch = -1;
    schedule.max_actuation_delay = Millis(0);
    EXPECT_EQ(schedule.Validate().size(), 2u);
}

TEST(ParseDurationTest, AllUnits)
{
    EXPECT_EQ(ParseDuration("250ns"), sim::Nanos(250));
    EXPECT_EQ(ParseDuration("50us"), sim::Micros(50));
    EXPECT_EQ(ParseDuration("100ms"), Millis(100));
    EXPECT_EQ(ParseDuration("2s"), Seconds(2));
    EXPECT_EQ(ParseDuration("1.5s"), Millis(1500));
}

TEST(ParseDurationTest, RejectsGarbage)
{
    EXPECT_THROW(ParseDuration("abc"), std::invalid_argument);
    EXPECT_THROW(ParseDuration("10years"), std::invalid_argument);
    EXPECT_THROW(ParseDuration("1.2.3ms"), std::invalid_argument);
    // Past int64 nanoseconds: converting those is undefined behaviour.
    EXPECT_THROW(ParseDuration("10000000000s"), std::invalid_argument);
    EXPECT_THROW(ParseDuration("99999999999999999999s"),
                 std::invalid_argument);
    EXPECT_THROW(ParseDuration(std::string(400, '9') + "ns"),
                 std::invalid_argument);
}

TEST(ParseScheduleTest, ParsesListing3StyleConfig)
{
    std::istringstream in(
        "# SmartOverclock schedule\n"
        "data_per_epoch = 10\n"
        "data_collect_interval = 100ms\n"
        "max_epoch_time = 1500ms\n"
        "assess_model_every_epochs = 1\n"
        "max_actuation_delay = 5s\n"
        "assess_actuator_interval = 1s\n");
    const Schedule schedule = ParseSchedule(in);
    EXPECT_EQ(schedule.data_per_epoch, 10);
    EXPECT_EQ(schedule.data_collect_interval, Millis(100));
    EXPECT_EQ(schedule.max_epoch_time, Millis(1500));
    EXPECT_EQ(schedule.max_actuation_delay, Seconds(5));
    EXPECT_TRUE(schedule.IsValid());
}

TEST(ParseScheduleTest, RejectsUnknownKey)
{
    std::istringstream in("bogus_key = 12\n");
    EXPECT_THROW(ParseSchedule(in), std::invalid_argument);
}

TEST(ParseScheduleTest, RejectsMalformedLine)
{
    std::istringstream in("data_per_epoch 10\n");
    EXPECT_THROW(ParseSchedule(in), std::invalid_argument);
}

TEST(ParseScheduleTest, EmptyInputKeepsDefaults)
{
    std::istringstream in("\n# comment only\n");
    const Schedule schedule = ParseSchedule(in);
    EXPECT_EQ(schedule.data_per_epoch, Schedule{}.data_per_epoch);
}

// ---------------------------------------------------------------------------
// AgentRegistry
// ---------------------------------------------------------------------------

TEST(AgentRegistryTest, CleanUpRunsCallback)
{
    AgentRegistry registry;
    int cleanups = 0;
    registry.Register("agent", [&] { ++cleanups; });
    EXPECT_TRUE(registry.CleanUp("agent"));
    EXPECT_TRUE(registry.CleanUp("agent"));  // Idempotent by contract.
    EXPECT_EQ(cleanups, 2);
}

TEST(AgentRegistryTest, UnknownAgentReturnsFalse)
{
    AgentRegistry registry;
    EXPECT_FALSE(registry.CleanUp("ghost"));
}

TEST(AgentRegistryTest, CleanUpAllRunsEverything)
{
    AgentRegistry registry;
    int total = 0;
    registry.Register("a", [&] { total += 1; });
    registry.Register("b", [&] { total += 10; });
    registry.CleanUpAll();
    EXPECT_EQ(total, 11);
}

TEST(AgentRegistryTest, UnregisterRemoves)
{
    AgentRegistry registry;
    registry.Register("a", [] {});
    EXPECT_TRUE(registry.Contains("a"));
    registry.Unregister("a");
    EXPECT_FALSE(registry.Contains("a"));
    EXPECT_EQ(registry.size(), 0u);
}

TEST(AgentRegistryTest, ReRegisterReplaces)
{
    AgentRegistry registry;
    int which = 0;
    registry.Register("a", [&] { which = 1; });
    registry.Register("a", [&] { which = 2; });
    registry.CleanUp("a");
    EXPECT_EQ(which, 2);
    EXPECT_EQ(registry.size(), 1u);
}

TEST(AgentRegistryTest, NamesSorted)
{
    AgentRegistry registry;
    registry.Register("zeta", [] {});
    registry.Register("alpha", [] {});
    const auto names = registry.Names();
    ASSERT_EQ(names.size(), 2u);
    EXPECT_EQ(names[0], "alpha");
    EXPECT_EQ(names[1], "zeta");
}

TEST(AgentRegistryTest, MultiAgentRegistrationAndLookup)
{
    // The deployment shape: many agents side by side in one registry,
    // each terminable by name without disturbing the others.
    AgentRegistry registry;
    std::vector<int> cleaned(8, 0);
    for (int i = 0; i < 8; ++i) {
        registry.Register("agent-" + std::to_string(i),
                          [&cleaned, i] { ++cleaned[i]; });
    }
    EXPECT_EQ(registry.size(), 8u);
    EXPECT_TRUE(registry.CleanUp("agent-3"));
    EXPECT_EQ(cleaned[3], 1);
    EXPECT_EQ(cleaned[2], 0);
    // CleanUp does not unregister: the callback stays invocable.
    EXPECT_TRUE(registry.Contains("agent-3"));
    registry.CleanUpAll();
    for (int i = 0; i < 8; ++i) {
        EXPECT_GE(cleaned[i], 1) << "agent-" << i;
    }
}

TEST(AgentRegistryTest, ConcurrentRegisterDeregisterAndCleanUp)
{
    // Agents churn (register/unregister) on some threads while an SRE
    // thread repeatedly fires whole-registry cleanup. Nothing may
    // deadlock, crash, or run a callback after a torn registration.
    AgentRegistry registry;
    std::atomic<int> cleanups{0};
    constexpr int kThreads = 4;
    constexpr int kIterations = 500;

    std::vector<std::thread> churners;
    for (int t = 0; t < kThreads; ++t) {
        churners.emplace_back([&registry, &cleanups, t] {
            const std::string name = "churn-" + std::to_string(t);
            for (int i = 0; i < kIterations; ++i) {
                registry.Register(name, [&cleanups] { ++cleanups; });
                registry.CleanUp(name);
                registry.Unregister(name);
            }
        });
    }
    std::thread sre([&registry] {
        for (int i = 0; i < kIterations; ++i) {
            registry.CleanUpAll();
            registry.Names();
            registry.size();
        }
    });
    for (auto& thread : churners) {
        thread.join();
    }
    sre.join();

    // Every churner ran its own cleanup each iteration; the SRE sweep
    // may have added more.
    EXPECT_GE(cleanups.load(), kThreads * kIterations);
    EXPECT_EQ(registry.size(), 0u);
}

TEST(AgentRegistryTest, ScopedRegistrationCleansUpOnDestruction)
{
    AgentRegistry registry;
    int cleaned = 0;
    {
        ScopedRegistration scoped(registry, "scoped-agent",
                                  [&cleaned] { ++cleaned; });
        EXPECT_TRUE(registry.Contains("scoped-agent"));
        EXPECT_EQ(cleaned, 0);
    }
    EXPECT_EQ(cleaned, 1);
    EXPECT_FALSE(registry.Contains("scoped-agent"));
}

TEST(AgentRegistryTest, ScopedRegistrationMoveTransfersOwnership)
{
    AgentRegistry registry;
    int cleaned = 0;
    {
        ScopedRegistration outer;
        {
            ScopedRegistration inner(registry, "moved-agent",
                                     [&cleaned] { ++cleaned; });
            outer = std::move(inner);
        }
        // The moved-from registration released nothing.
        EXPECT_EQ(cleaned, 0);
        EXPECT_TRUE(registry.Contains("moved-agent"));
    }
    EXPECT_EQ(cleaned, 1);
    EXPECT_FALSE(registry.Contains("moved-agent"));
}

// ---------------------------------------------------------------------------
// SimRuntime semantics, via an instrumented fake agent.
// ---------------------------------------------------------------------------

/** Scripted model: integers as data, integers as predictions. */
class FakeModel : public Model<int, int>
{
  public:
    explicit FakeModel(const sim::Clock& clock) : clock_(clock) {}

    int
    CollectData() override
    {
        ++collects;
        return next_data;
    }

    bool
    ValidateData(const int& data) override
    {
        ++validations;
        return data >= 0;  // Negative data is invalid.
    }

    void
    CommitData(sim::TimePoint, const int& data) override
    {
        committed.push_back(data);
    }

    void
    UpdateModel() override
    {
        ++updates;
    }

    Prediction<int>
    ModelPredict() override
    {
        ++predicts;
        return MakePrediction(100 + predicts, clock_.Now(), ttl);
    }

    Prediction<int>
    DefaultPredict() override
    {
        ++defaults;
        return MakeDefaultPrediction(-1, clock_.Now(), ttl);
    }

    bool
    AssessModel() override
    {
        ++assessments;
        return model_healthy;
    }

    bool
    ShortCircuitEpoch() override
    {
        return short_circuit;
    }

    const sim::Clock& clock_;
    sim::Duration ttl = Seconds(10);
    int next_data = 1;
    bool model_healthy = true;
    bool short_circuit = false;
    int collects = 0;
    int validations = 0;
    int updates = 0;
    int predicts = 0;
    int defaults = 0;
    int assessments = 0;
    std::vector<int> committed;
};

/** Recording actuator. */
class FakeActuator : public Actuator<int>
{
  public:
    void
    TakeAction(std::optional<Prediction<int>> pred) override
    {
        actions.push_back(pred);
    }

    bool
    AssessPerformance() override
    {
        ++assessments;
        return performance_ok;
    }

    void
    Mitigate() override
    {
        ++mitigations;
    }

    void
    CleanUp() override
    {
        ++cleanups;
    }

    std::vector<std::optional<Prediction<int>>> actions;
    bool performance_ok = true;
    int assessments = 0;
    int mitigations = 0;
    int cleanups = 0;
};

Schedule
FastSchedule()
{
    Schedule schedule;
    schedule.data_per_epoch = 4;
    schedule.data_collect_interval = Millis(10);
    schedule.max_epoch_time = Millis(100);
    schedule.assess_model_every_epochs = 1;
    schedule.max_actuation_delay = Millis(200);
    schedule.assess_actuator_interval = Millis(50);
    return schedule;
}

class SimRuntimeTest : public ::testing::Test
{
  protected:
    SimRuntimeTest() : model(queue) {}

    void
    Start(RuntimeOptions options = {})
    {
        runtime = std::make_unique<SimRuntime<int, int>>(
            queue, model, actuator, FastSchedule(), options);
        runtime->Start();
    }

    EventQueue queue;
    FakeModel model;
    FakeActuator actuator;
    std::unique_ptr<SimRuntime<int, int>> runtime;
};

TEST_F(SimRuntimeTest, RejectsInvalidSchedule)
{
    Schedule bad;
    bad.data_per_epoch = 0;
    EXPECT_THROW((SimRuntime<int, int>(queue, model, actuator, bad)),
                 std::invalid_argument);
}

TEST_F(SimRuntimeTest, EpochCollectsExactlyDataPerEpoch)
{
    Start();
    // One epoch: 4 collects at 10 ms -> prediction at t=40ms.
    queue.RunUntil(Millis(45));
    EXPECT_EQ(model.collects, 4);
    EXPECT_EQ(model.updates, 1);
    EXPECT_EQ(model.predicts, 1);
    EXPECT_EQ(runtime->stats().epochs, 1u);
}

TEST_F(SimRuntimeTest, PredictionsReachActuatorImmediately)
{
    Start();
    queue.RunUntil(Millis(45));
    ASSERT_EQ(actuator.actions.size(), 1u);
    ASSERT_TRUE(actuator.actions[0].has_value());
    EXPECT_EQ(actuator.actions[0]->value, 101);
}

TEST_F(SimRuntimeTest, EpochsRepeat)
{
    Start();
    queue.RunUntil(Millis(400));
    EXPECT_EQ(runtime->stats().epochs, 10u);
    EXPECT_EQ(model.updates, 10);
}

TEST_F(SimRuntimeTest, InvalidDataDiscardedAndRetried)
{
    Start();
    model.next_data = -1;  // Everything invalid.
    queue.RunUntil(Millis(95));
    EXPECT_TRUE(model.committed.empty());
    EXPECT_GT(runtime->stats().invalid_samples, 0u);
    // Epoch short-circuits at max_epoch_time with a default prediction.
    queue.RunUntil(Millis(160));
    EXPECT_GE(model.defaults, 1);
    EXPECT_GE(runtime->stats().short_circuit_epochs, 1u);
    ASSERT_FALSE(actuator.actions.empty());
    EXPECT_TRUE(actuator.actions[0].has_value());
    EXPECT_TRUE(actuator.actions[0]->is_default);
}

TEST_F(SimRuntimeTest, PartialInvalidDataExtendsEpoch)
{
    Start();
    // First two samples invalid, rest valid: the epoch still completes
    // with 4 valid samples, just later.
    model.next_data = -1;
    queue.RunUntil(Millis(25));
    model.next_data = 5;
    queue.RunUntil(Millis(65));
    // Two invalid samples (t=10,20) then four valid (t=30..60): the
    // epoch completes late but with full data, not short-circuited.
    EXPECT_EQ(runtime->stats().epochs, 1u);
    EXPECT_EQ(model.committed.size(), 4u);
    EXPECT_EQ(runtime->stats().short_circuit_epochs, 0u);
}

TEST_F(SimRuntimeTest, DisableValidationCommitsBadData)
{
    RuntimeOptions options;
    options.disable_data_validation = true;
    Start(options);
    model.next_data = -7;
    queue.RunUntil(Millis(45));
    ASSERT_EQ(model.committed.size(), 4u);
    EXPECT_EQ(model.committed[0], -7);
    EXPECT_EQ(runtime->stats().invalid_samples, 0u);
}

TEST_F(SimRuntimeTest, DataFaultAppliedBeforeValidation)
{
    Start();
    runtime->SetDataFault([](int& data) { data = -99; });
    queue.RunUntil(Millis(45));
    EXPECT_TRUE(model.committed.empty());
    EXPECT_GT(runtime->stats().invalid_samples, 0u);
}

TEST_F(SimRuntimeTest, FailedAssessmentInterceptsPredictions)
{
    Start();
    model.model_healthy = false;
    queue.RunUntil(Millis(45));
    // The model still updates and predicts, but the actuator sees the
    // default.
    EXPECT_EQ(model.updates, 1);
    EXPECT_EQ(model.predicts, 1);
    EXPECT_EQ(model.defaults, 1);
    ASSERT_EQ(actuator.actions.size(), 1u);
    EXPECT_TRUE(actuator.actions[0]->is_default);
    EXPECT_EQ(runtime->stats().intercepted_predictions, 1u);
    EXPECT_TRUE(runtime->model_assessment_failing());
}

TEST_F(SimRuntimeTest, ModelRecoversWhenAssessmentPasses)
{
    Start();
    model.model_healthy = false;
    queue.RunUntil(Millis(45));
    model.model_healthy = true;
    queue.RunUntil(Millis(90));
    ASSERT_EQ(actuator.actions.size(), 2u);
    EXPECT_FALSE(actuator.actions[1]->is_default);
    EXPECT_FALSE(runtime->model_assessment_failing());
}

TEST_F(SimRuntimeTest, DisableModelAssessmentNeverIntercepts)
{
    RuntimeOptions options;
    options.disable_model_assessment = true;
    Start(options);
    model.model_healthy = false;
    queue.RunUntil(Millis(95));
    EXPECT_EQ(model.assessments, 0);
    EXPECT_EQ(runtime->stats().intercepted_predictions, 0u);
}

TEST_F(SimRuntimeTest, AssessmentCadenceEveryKEpochs)
{
    Schedule schedule = FastSchedule();
    schedule.assess_model_every_epochs = 3;
    runtime = std::make_unique<SimRuntime<int, int>>(queue, model,
                                                     actuator, schedule);
    runtime->Start();
    queue.RunUntil(Millis(400));  // 10 epochs.
    EXPECT_EQ(model.assessments, 3);  // Epochs 3, 6, 9.
}

TEST_F(SimRuntimeTest, ShortCircuitEndsEpochWithDefault)
{
    Start();
    model.short_circuit = true;
    queue.RunUntil(Millis(15));
    EXPECT_EQ(runtime->stats().epochs, 1u);
    EXPECT_EQ(model.updates, 0);
    EXPECT_EQ(model.defaults, 1);
}

TEST_F(SimRuntimeTest, ActuatorTimeoutDeliversEmpty)
{
    Start();
    model.short_circuit = false;
    // Stall the model so no predictions arrive at all.
    runtime->StallModelFor(Seconds(10));
    queue.RunUntil(Millis(450));
    // Timeouts every 200 ms: at 200 and 400 ms.
    ASSERT_GE(actuator.actions.size(), 2u);
    for (const auto& action : actuator.actions) {
        EXPECT_FALSE(action.has_value());
    }
    EXPECT_GE(runtime->stats().actuator_timeouts, 2u);
}

TEST_F(SimRuntimeTest, StallDefersCollects)
{
    Start();
    runtime->StallModelFor(Millis(500));
    queue.RunUntil(Millis(490));
    EXPECT_EQ(model.collects, 0);
    queue.RunUntil(Millis(600));
    EXPECT_GT(model.collects, 0);
}

TEST_F(SimRuntimeTest, ExpiredPredictionsDroppedByActuator)
{
    Start();
    // Already-expired predictions (e.g. built from stale telemetry)
    // must never reach TakeAction.
    model.ttl = Millis(-1);
    queue.RunUntil(Millis(250));
    EXPECT_GT(runtime->stats().expired_predictions, 0u);
    for (const auto& action : actuator.actions) {
        EXPECT_FALSE(action.has_value());
    }
}

TEST_F(SimRuntimeTest, BlockingActuatorUsesStalePredictions)
{
    RuntimeOptions options;
    options.blocking_actuator = true;
    Start(options);
    model.ttl = Millis(1);
    queue.RunUntil(Millis(250));
    // The blocking ablation acts on whatever arrives, however stale,
    // and never times out.
    EXPECT_EQ(runtime->stats().actuator_timeouts, 0u);
    ASSERT_FALSE(actuator.actions.empty());
    for (const auto& action : actuator.actions) {
        EXPECT_TRUE(action.has_value());
    }
}

TEST_F(SimRuntimeTest, SafeguardHaltsActuationAndMitigates)
{
    Start();
    actuator.performance_ok = false;
    queue.RunUntil(Millis(500));
    EXPECT_TRUE(runtime->actuator_halted());
    EXPECT_GT(actuator.mitigations, 0);
    EXPECT_EQ(runtime->stats().safeguard_triggers, 1u);
    // Actions stop after the halt (only pre-halt actions recorded).
    const auto actions_at_halt = actuator.actions.size();
    queue.RunUntil(Millis(900));
    EXPECT_EQ(actuator.actions.size(), actions_at_halt);
}

TEST_F(SimRuntimeTest, SafeguardResumesWhenHealthy)
{
    Start();
    actuator.performance_ok = false;
    queue.RunUntil(Millis(300));
    EXPECT_TRUE(runtime->actuator_halted());
    actuator.performance_ok = true;
    queue.RunUntil(Millis(600));
    EXPECT_FALSE(runtime->actuator_halted());
    EXPECT_GT(runtime->stats().halted_time.count(), 0);
    // Actions flow again.
    EXPECT_GT(actuator.actions.size(), 0u);
}

TEST_F(SimRuntimeTest, DisableActuatorSafeguardNeverAssesses)
{
    RuntimeOptions options;
    options.disable_actuator_safeguard = true;
    Start(options);
    actuator.performance_ok = false;
    queue.RunUntil(Millis(500));
    EXPECT_EQ(actuator.assessments, 0);
    EXPECT_FALSE(runtime->actuator_halted());
}

TEST_F(SimRuntimeTest, StopHaltsBothLoops)
{
    Start();
    queue.RunUntil(Millis(45));
    runtime->Stop();
    const int collects = model.collects;
    const auto actions = actuator.actions.size();
    queue.RunUntil(Millis(500));
    EXPECT_EQ(model.collects, collects);
    EXPECT_EQ(actuator.actions.size(), actions);
    EXPECT_FALSE(runtime->running());
}

TEST_F(SimRuntimeTest, StoppedContinuationsStillFireAsNoOps)
{
    Start();
    queue.RunUntil(Millis(45));
    runtime->Stop();
    const std::size_t stranded = queue.pending();
    ASSERT_GT(stranded, 0u);
    const std::uint64_t executed = queue.executed();
    const std::uint64_t hash = queue.trace_hash();
    const int collects = model.collects;
    queue.RunUntil(Millis(500));
    // Stop leaves its continuations queued: they fire (and so count in
    // the trace fingerprint) but do nothing.
    EXPECT_EQ(queue.executed(), executed + stranded);
    EXPECT_NE(queue.trace_hash(), hash);
    EXPECT_EQ(queue.pending(), 0u);
    EXPECT_EQ(model.collects, collects);
}

TEST_F(SimRuntimeTest, ContinuationsOutliveADestroyedRuntime)
{
    Start();
    queue.RunUntil(Millis(45));
    const std::size_t stranded = queue.pending();
    ASSERT_GT(stranded, 0u);
    const std::uint64_t executed = queue.executed();
    const int collects = model.collects;
    runtime.reset();
    // The continuations hold only `this` and a liveness token, which the
    // runtime stranded false as it died: they fire without touching the
    // destroyed runtime (the sanitizer legs would flag a use after free).
    EXPECT_EQ(queue.pending(), stranded);
    queue.RunUntil(Millis(500));
    EXPECT_EQ(queue.executed(), executed + stranded);
    EXPECT_EQ(model.collects, collects);
}

TEST_F(SimRuntimeTest, QueueBoundEvictsOldest)
{
    // Bound 0 is the one-slot ring: every delivery is evicted the
    // instant it is queued, so no prediction ever reaches the actuator.
    for (const std::size_t bound : {std::size_t{2}, std::size_t{0}}) {
        SCOPED_TRACE(bound);
        EventQueue q;
        FakeModel m(q);
        FakeActuator a;
        RuntimeOptions options;
        options.max_queued_predictions = bound;
        SimRuntime<int, int> rt(q, m, a, FastSchedule(), options);
        rt.Start();
        // Every delivered prediction is accounted exactly once: acted
        // on, expired (evicted or stale), dropped while halted, or
        // still queued.
        const auto accounted = [&rt] {
            const RuntimeStats& stats = rt.stats();
            return stats.actions_with_prediction +
                   stats.expired_predictions +
                   stats.dropped_while_halted + rt.queued_predictions();
        };
        q.RunUntil(Millis(250));
        ASSERT_GT(rt.stats().predictions_delivered, 0u);
        EXPECT_EQ(accounted(), rt.stats().predictions_delivered);
        EXPECT_LE(rt.stats().peak_queued_predictions, bound + 1);
        if (bound == 0) {
            EXPECT_EQ(rt.stats().actions_with_prediction, 0u);
            EXPECT_EQ(rt.stats().expired_predictions,
                      rt.stats().predictions_delivered);
        }

        // Predictions are consumed at their delivery instant in sim, so
        // halting actuation is what stops the queue draining: while
        // halted, deliveries are dropped rather than queued.
        a.performance_ok = false;
        q.RunUntil(Millis(750));
        EXPECT_GT(rt.stats().dropped_while_halted, 0u);
        EXPECT_EQ(rt.queued_predictions(), 0u);
        EXPECT_EQ(accounted(), rt.stats().predictions_delivered);
    }
}

// The engine's queue directly: deliveries nothing consumes in between
// evict the oldest first, and the survivors reach the actuator in
// delivery order.
TEST(EpochEngineTest, BoundedQueueEvictsOldestFirst)
{
    for (const std::size_t bound : {std::size_t{2}, std::size_t{0}}) {
        SCOPED_TRACE(bound);
        EventQueue q;
        FakeModel m(q);
        FakeActuator a;
        RuntimeOptions options;
        options.max_queued_predictions = bound;
        EpochEngine<int, int, SimEnginePolicy> engine(m, a, FastSchedule(),
                                                      options);
        for (int value = 1; value <= 4; ++value) {
            EXPECT_TRUE(engine.Deliver(
                MakePrediction(value, q.Now(), Seconds(1))));
        }
        EXPECT_EQ(engine.queued_predictions(), bound);
        EXPECT_EQ(engine.stats().expired_predictions, 4 - bound);
        EXPECT_EQ(engine.stats().peak_queued_predictions, bound + 1);

        using Wake = EpochEngine<int, int, SimEnginePolicy>::WakeOutcome;
        for (std::size_t i = 0; i < bound; ++i) {
            EXPECT_EQ(engine.ActuatorWake(q.Now(), false), Wake::kActed);
        }
        EXPECT_EQ(engine.ActuatorWake(q.Now(), false), Wake::kNothingToDo);
        ASSERT_EQ(a.actions.size(), bound);
        for (std::size_t i = 0; i < bound; ++i) {
            ASSERT_TRUE(a.actions[i].has_value());
            EXPECT_EQ(a.actions[i]->value,
                      static_cast<int>(4 - bound + 1 + i));
        }

        // The ring wraps: a second round reuses the same slots in order.
        for (int value = 5; value <= 7; ++value) {
            engine.Deliver(MakePrediction(value, q.Now(), Seconds(1)));
        }
        while (engine.ActuatorWake(q.Now(), false) == Wake::kActed) {
        }
        ASSERT_EQ(a.actions.size(), 2 * bound);
        for (std::size_t i = 0; i < bound; ++i) {
            EXPECT_EQ(a.actions[bound + i]->value,
                      static_cast<int>(7 - bound + 1 + i));
        }
    }
}

TEST(EpochEngineTest, RejectsQueueBoundAboveLimit)
{
    EventQueue q;
    FakeModel m(q);
    FakeActuator a;
    RuntimeOptions options;
    options.max_queued_predictions =
        RuntimeOptions::kMaxQueuedPredictionsLimit;
    EXPECT_NO_THROW((SimRuntime<int, int>(q, m, a, FastSchedule(), options)));
    options.max_queued_predictions += 1;
    EXPECT_THROW((SimRuntime<int, int>(q, m, a, FastSchedule(), options)),
                 std::invalid_argument);
}

TEST_F(SimRuntimeTest, StatsCountersConsistent)
{
    Start();
    queue.RunUntil(Seconds(2));
    const RuntimeStats& stats = runtime->stats();
    EXPECT_EQ(stats.epochs,
              stats.model_updates + stats.short_circuit_epochs);
    EXPECT_EQ(stats.predictions_delivered, stats.epochs);
    EXPECT_EQ(stats.actions_taken,
              stats.actions_with_prediction + stats.actuator_timeouts);
}

TEST_F(SimRuntimeTest, RuntimeStatsPrintable)
{
    Start();
    queue.RunUntil(Millis(100));
    std::ostringstream out;
    out << runtime->stats();
    EXPECT_NE(out.str().find("epochs = "), std::string::npos);
}

TEST(RuntimeStatsTest, AccumulateAddsCountsAndKeepsThePeak)
{
    RuntimeStats total;
    total.epochs = 3;
    total.peak_queued_predictions = 4;
    total.halted_time = Millis(2);
    RuntimeStats other;
    other.epochs = 5;
    other.peak_queued_predictions = 2;
    other.halted_time = Millis(7);
    total.Accumulate(other);
    EXPECT_EQ(total.epochs, 8u);
    EXPECT_EQ(total.peak_queued_predictions, 4u);
    EXPECT_EQ(total.halted_time, Millis(9));
}

// ---------------------------------------------------------------------------
// Relaxed<T>: the threaded engine's counters and flags
// ---------------------------------------------------------------------------

TEST(Relaxed, IncrementReturnsTheNewValue)
{
    Relaxed<std::uint64_t> n;
    EXPECT_EQ(n.load(), 0u);
    EXPECT_EQ(++n, 1u);
    EXPECT_EQ(++n, 2u);
    n += 5;
    EXPECT_EQ(n.load(), 7u);
    n = 3;
    EXPECT_EQ(static_cast<std::uint64_t>(n), 3u);

    Relaxed<bool> flag;
    EXPECT_FALSE(flag);
    flag = true;
    EXPECT_TRUE(flag);
}

TEST(Relaxed, RaiseNeverLowersTheValue)
{
    Relaxed<std::uint64_t> peak(5);
    peak.Raise(3);
    EXPECT_EQ(peak.load(), 5u);
    peak.Raise(9);
    EXPECT_EQ(peak.load(), 9u);
    peak.Raise(9);
    EXPECT_EQ(peak.load(), 9u);

    // The plain twin the simulated engine uses.
    std::uint64_t plain = 5;
    Raise(plain, 3);
    EXPECT_EQ(plain, 5u);
    Raise(plain, 9);
    EXPECT_EQ(plain, 9u);
}

TEST(Relaxed, DurationsAdd)
{
    Relaxed<sim::Duration> halted;
    EXPECT_EQ(halted.load(), sim::Duration::zero());
    halted += Millis(3);
    halted += sim::Micros(250);
    EXPECT_EQ(halted.load(), Millis(3) + sim::Micros(250));
}

TEST(Relaxed, ConcurrentIncrementsAndRaisesAreExact)
{
    constexpr std::uint64_t kThreads = 4;
    constexpr std::uint64_t kPerThread = 100'000;
    Relaxed<std::uint64_t> count;
    Relaxed<std::uint64_t> peak;
    Relaxed<sim::Duration> time;
    std::vector<std::thread> threads;
    for (std::uint64_t t = 0; t < kThreads; ++t) {
        threads.emplace_back([&count, &peak, &time, t] {
            for (std::uint64_t i = 1; i <= kPerThread; ++i) {
                ++count;
                peak.Raise(i * kThreads + t);
                time += sim::Nanos(1);
            }
        });
    }
    for (std::thread& thread : threads) {
        thread.join();
    }
    EXPECT_EQ(count.load(), kThreads * kPerThread);
    EXPECT_EQ(peak.load(), kPerThread * kThreads + kThreads - 1);
    EXPECT_EQ(time.load(),
              sim::Nanos(static_cast<std::int64_t>(kThreads * kPerThread)));
}

}  // namespace
}  // namespace sol::core
