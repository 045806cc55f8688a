/**
 * @file
 * Tests for the flight-recorder tracing layer: SPSC ring semantics
 * (exact drop accounting, drain-and-reuse), TraceSpan/instant slot
 * contents, thread-recorder binding, Chrome trace_event serialization
 * (well-formedness + byte determinism), safeguard instrumentation on
 * the epoch engine, sim-mode trace byte-determinism across runs and
 * thread counts, and concurrent record/drain from a 77-producer fleet
 * (this suite runs under TSan in CI — see .github/workflows/ci.yml).
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <optional>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include "cluster/node_shard.h"
#include "core/sim_runtime.h"
#include "fleet/fleet_runner.h"
#include "sim/event_queue.h"
#include "sim/time.h"
#include "telemetry/trace.h"

namespace sol {
namespace {

using telemetry::trace::ChromeTraceWriter;
using telemetry::trace::CurrentThreadRecorder;
using telemetry::trace::ScopedThreadRecorder;
using telemetry::trace::TraceEvent;
using telemetry::trace::TraceRecorder;
using telemetry::trace::TraceSession;
using telemetry::trace::TraceSpan;

/** Settable clock so tests control every timestamp exactly. */
class TestClock : public sim::Clock
{
  public:
    sim::TimePoint Now() const override { return now; }
    sim::TimePoint now{};
};

/** Drains a recorder into a vector of slot copies. */
std::vector<TraceEvent>
Drain(TraceRecorder& recorder)
{
    std::vector<TraceEvent> events;
    recorder.ConsumeAll(
        [&events](const TraceEvent& event) { events.push_back(event); });
    return events;
}

// ---------------------------------------------------------------------------
// TraceRecorder: SPSC ring semantics
// ---------------------------------------------------------------------------

TEST(TraceRecorderTest, OverflowDropsAreCountedExactly)
{
    TraceRecorder recorder("t", nullptr, 8);
    ASSERT_EQ(recorder.capacity(), 8u);
    for (int i = 0; i < 20; ++i) {
        recorder.Instant("tick", "test", {{"i", i}});
    }
    // The ring keeps the head of the run and counts every rejection.
    EXPECT_EQ(recorder.recorded(), 8u);
    EXPECT_EQ(recorder.dropped(), 12u);

    const std::vector<TraceEvent> events = Drain(recorder);
    ASSERT_EQ(events.size(), 8u);
    for (int i = 0; i < 8; ++i) {
        EXPECT_EQ(events[static_cast<std::size_t>(i)].args[0].value, i);
    }
}

TEST(TraceRecorderTest, DrainFreesSlotsForNewEvents)
{
    TraceRecorder recorder("t", nullptr, 4);
    for (int i = 0; i < 6; ++i) {
        recorder.Instant("a", "test");
    }
    EXPECT_EQ(recorder.dropped(), 2u);
    EXPECT_EQ(Drain(recorder).size(), 4u);

    // The ring is empty again; new events are accepted, and the drop
    // counter keeps its history (it is cumulative, not per-drain).
    recorder.Instant("b", "test");
    EXPECT_EQ(recorder.recorded(), 5u);
    EXPECT_EQ(recorder.dropped(), 2u);
    const std::vector<TraceEvent> events = Drain(recorder);
    ASSERT_EQ(events.size(), 1u);
    EXPECT_STREQ(events[0].name, "b");
}

TEST(TraceRecorderTest, CapacityRoundsUpToPowerOfTwo)
{
    EXPECT_EQ(TraceRecorder("t", nullptr, 5).capacity(), 8u);
    EXPECT_EQ(TraceRecorder("t", nullptr, 1).capacity(), 2u);
    EXPECT_EQ(TraceRecorder("t", nullptr, 64).capacity(), 64u);
}

TEST(TraceRecorderTest, NullClockStampsZeroExplicitTimestampsSurvive)
{
    TraceRecorder recorder("t", nullptr, 8);
    recorder.Instant("point", "test");
    recorder.Complete("span", "test", sim::Micros(10), sim::Micros(5));

    const std::vector<TraceEvent> events = Drain(recorder);
    ASSERT_EQ(events.size(), 2u);
    EXPECT_EQ(events[0].ts_ns, 0);
    EXPECT_EQ(events[1].ts_ns, 10'000);
    EXPECT_EQ(events[1].dur_ns, 5'000);
}

TEST(TraceRecorderTest, ClockDrivesInstantTimestamps)
{
    TestClock clock;
    TraceRecorder recorder("t", &clock, 8);
    clock.now = sim::Micros(1234) + sim::Nanos(567);
    recorder.Instant("point", "test");
    const std::vector<TraceEvent> events = Drain(recorder);
    ASSERT_EQ(events.size(), 1u);
    EXPECT_EQ(events[0].ts_ns, 1'234'567);
}

// ---------------------------------------------------------------------------
// TraceSpan
// ---------------------------------------------------------------------------

TEST(TraceSpanTest, RecordsLifetimeWithArgsAndTruncatedString)
{
    TestClock clock;
    TraceRecorder recorder("t", &clock, 8);
    const std::string long_name(40, 'x');
    {
        clock.now = sim::Micros(100);
        TraceSpan span(&recorder, "phase", "test");
        span.AddArg("a", 1);
        span.AddArg("b", 2);
        span.AddArg("c", 3);  // Beyond kMaxArgs: silently ignored.
        span.SetString("agent", long_name);
        clock.now = sim::Micros(130);
    }
    const std::vector<TraceEvent> events = Drain(recorder);
    ASSERT_EQ(events.size(), 1u);
    const TraceEvent& event = events[0];
    EXPECT_EQ(event.kind, TraceEvent::Kind::kComplete);
    EXPECT_EQ(event.ts_ns, 100'000);
    EXPECT_EQ(event.dur_ns, 30'000);
    ASSERT_EQ(event.num_args, 2u);
    EXPECT_EQ(event.args[0].value, 1);
    EXPECT_EQ(event.args[1].value, 2);
    EXPECT_STREQ(event.string_key, "agent");
    EXPECT_EQ(std::string(event.string_value),
              long_name.substr(0, TraceEvent::kMaxStringArg));
}

TEST(TraceSpanTest, NullRecorderIsANoOp)
{
    // The disabled path: no clock reads, no slots, no crashes.
    TraceSpan span(nullptr, "phase", "test");
    span.AddArg("a", 1);
    span.SetString("agent", "name");
}

TEST(TraceSpanTest, SpanOnAFullRingCountsADrop)
{
    TraceRecorder recorder("t", nullptr, 2);
    recorder.Instant("a", "test");
    recorder.Instant("b", "test");
    {
        TraceSpan span(&recorder, "late", "test");
    }
    EXPECT_EQ(recorder.recorded(), 2u);
    EXPECT_EQ(recorder.dropped(), 1u);
}

// ---------------------------------------------------------------------------
// ScopedThreadRecorder
// ---------------------------------------------------------------------------

TEST(ScopedThreadRecorderTest, BindsAndRestoresNested)
{
    TraceRecorder outer("outer", nullptr, 4);
    TraceRecorder inner("inner", nullptr, 4);
    EXPECT_EQ(CurrentThreadRecorder(), nullptr);
    {
        ScopedThreadRecorder bind_outer(&outer);
        EXPECT_EQ(CurrentThreadRecorder(), &outer);
        {
            ScopedThreadRecorder bind_inner(&inner);
            EXPECT_EQ(CurrentThreadRecorder(), &inner);
        }
        EXPECT_EQ(CurrentThreadRecorder(), &outer);
    }
    EXPECT_EQ(CurrentThreadRecorder(), nullptr);
}

TEST(ScopedThreadRecorderTest, BindingIsPerThread)
{
    TraceRecorder recorder("main", nullptr, 4);
    ScopedThreadRecorder bind(&recorder);
    TraceRecorder* seen = &recorder;
    std::thread([&seen] { seen = CurrentThreadRecorder(); }).join();
    EXPECT_EQ(seen, nullptr);
    EXPECT_EQ(CurrentThreadRecorder(), &recorder);
}

// ---------------------------------------------------------------------------
// TraceSession
// ---------------------------------------------------------------------------

TEST(TraceSessionTest, TracksKeepCreationOrderAndTotalsSum)
{
    TraceSession session(/*default_capacity=*/16);
    TraceRecorder* a = session.NewRecorder("alpha", nullptr);
    TraceRecorder* b = session.NewRecorder("beta", nullptr, 4);
    ASSERT_EQ(session.size(), 2u);
    EXPECT_EQ(&session.recorder(0), a);
    EXPECT_EQ(&session.recorder(1), b);
    EXPECT_EQ(a->capacity(), 16u);  // Session default.
    EXPECT_EQ(b->capacity(), 4u);   // Explicit override.

    for (int i = 0; i < 3; ++i) {
        a->Instant("a", "test");
    }
    for (int i = 0; i < 6; ++i) {
        b->Instant("b", "test");
    }
    EXPECT_EQ(session.total_recorded(), 3u + 4u);
    EXPECT_EQ(session.total_dropped(), 2u);
}

// ---------------------------------------------------------------------------
// ChromeTraceWriter
// ---------------------------------------------------------------------------

/** Minimal structural JSON check: every brace/bracket balances and
 *  every string literal closes (escape-aware). */
bool
JsonIsBalanced(const std::string& text)
{
    std::vector<char> stack;
    bool in_string = false;
    bool escaped = false;
    for (const char c : text) {
        if (in_string) {
            if (escaped) {
                escaped = false;
            } else if (c == '\\') {
                escaped = true;
            } else if (c == '"') {
                in_string = false;
            }
            continue;
        }
        switch (c) {
            case '"': in_string = true; break;
            case '{': stack.push_back('{'); break;
            case '[': stack.push_back('['); break;
            case '}':
                if (stack.empty() || stack.back() != '{') {
                    return false;
                }
                stack.pop_back();
                break;
            case ']':
                if (stack.empty() || stack.back() != '[') {
                    return false;
                }
                stack.pop_back();
                break;
            default: break;
        }
    }
    return !in_string && stack.empty();
}

TEST(ChromeTraceWriterTest, EmitsWellFormedTraceEventJson)
{
    TestClock clock;
    TraceSession session;
    TraceRecorder* recorder = session.NewRecorder("worker \"7\"", &clock, 4);
    clock.now = sim::Micros(42) + sim::Nanos(7);
    recorder->Instant("deny", "arbiter", {{"domain", 3}}, "agent",
                      "smart-harvest");
    recorder->Complete("collect", "epoch", sim::Micros(10),
                       sim::Micros(32), {{"epoch", 5}});
    recorder->Instant("x", "test");
    recorder->Instant("x", "test");
    recorder->Instant("x", "test");  // Overflows the 4-slot ring.

    const std::string json = ChromeTraceWriter::ToString(session);
    EXPECT_TRUE(JsonIsBalanced(json)) << json;
    EXPECT_EQ(json.rfind(R"({"displayTimeUnit":"ms","traceEvents":[)", 0),
              0u);
    // Process + per-track metadata (the track name is escaped).
    EXPECT_NE(json.find(R"("name":"process_name")"), std::string::npos);
    EXPECT_NE(json.find(R"("args":{"name":"worker \"7\""}})"),
              std::string::npos);
    // The instant: point phase, scoped to thread, integer + string args.
    EXPECT_NE(json.find(R"("ph":"i")"), std::string::npos);
    EXPECT_NE(json.find(R"("ts":42.007,"s":"t",)"
                        R"("args":{"domain":3,"agent":"smart-harvest"})"),
              std::string::npos);
    // The span: integer-math microsecond begin + duration.
    EXPECT_NE(json.find(R"("ph":"X")"), std::string::npos);
    EXPECT_NE(json.find(R"("ts":10.000,"dur":32.000,"args":{"epoch":5})"),
              std::string::npos);
    // The overflow is published, never silent.
    EXPECT_NE(json.find(R"("name":"trace_dropped","ts":0,)"
                        R"("args":{"dropped":1})"),
              std::string::npos);
}

TEST(ChromeTraceWriterTest, SerializationDrainsTheSession)
{
    TraceSession session;
    TraceRecorder* recorder = session.NewRecorder("t", nullptr, 8);
    recorder->Instant("once", "test");
    const std::string first = ChromeTraceWriter::ToString(session);
    EXPECT_NE(first.find(R"("name":"once")"), std::string::npos);

    // A second serialization sees an empty ring: metadata only.
    const std::string second = ChromeTraceWriter::ToString(session);
    EXPECT_EQ(second.find(R"("name":"once")"), std::string::npos);
    EXPECT_TRUE(JsonIsBalanced(second));
}

// ---------------------------------------------------------------------------
// Epoch-engine instrumentation: safeguard instants
// ---------------------------------------------------------------------------

/** Minimal agent whose actuator health is scripted from the test. */
class TraceFakeModel : public core::Model<int, int>
{
  public:
    explicit TraceFakeModel(const sim::Clock& clock) : clock_(clock) {}
    int CollectData() override { return 1; }
    bool ValidateData(const int&) override { return true; }
    void CommitData(sim::TimePoint, const int&) override {}
    void UpdateModel() override {}
    core::Prediction<int>
    ModelPredict() override
    {
        return core::MakePrediction(1, clock_.Now(), sim::Seconds(10));
    }
    core::Prediction<int>
    DefaultPredict() override
    {
        return core::MakeDefaultPrediction(0, clock_.Now(),
                                           sim::Seconds(10));
    }
    bool AssessModel() override { return true; }
    bool ShortCircuitEpoch() override { return false; }

  private:
    const sim::Clock& clock_;
};

class TraceFakeActuator : public core::Actuator<int>
{
  public:
    void TakeAction(std::optional<core::Prediction<int>>) override {}
    bool AssessPerformance() override { return performance_ok; }
    void Mitigate() override {}
    void CleanUp() override {}
    bool performance_ok = true;
};

TEST(EngineTraceTest, SafeguardTripEmitsTriggerMitigateResume)
{
    sim::EventQueue queue;
    TraceFakeModel model(queue);
    TraceFakeActuator actuator;
    core::Schedule schedule;
    schedule.data_per_epoch = 4;
    schedule.data_collect_interval = sim::Millis(10);
    schedule.max_epoch_time = sim::Millis(100);
    schedule.assess_model_every_epochs = 1;
    schedule.max_actuation_delay = sim::Millis(200);
    schedule.assess_actuator_interval = sim::Millis(50);

    core::SimRuntime<int, int> runtime(queue, model, actuator, schedule);
    TraceSession session;
    runtime.SetTraceRecorder(session.NewRecorder("agent", &queue));
    runtime.Start();

    actuator.performance_ok = false;
    queue.RunUntil(sim::Millis(300));
    ASSERT_TRUE(runtime.actuator_halted());
    actuator.performance_ok = true;
    queue.RunUntil(sim::Millis(600));
    ASSERT_FALSE(runtime.actuator_halted());
    runtime.Stop();

    std::multiset<std::string> names;
    session.recorder(0).ConsumeAll([&names](const TraceEvent& event) {
        names.insert(event.name);
    });
    // Epoch phases span the trace...
    EXPECT_GT(names.count("collect"), 0u);
    EXPECT_GT(names.count("actuate"), 0u);
    // ...and the full safeguard arc is instant-marked.
    EXPECT_EQ(names.count("safeguard_trigger"), 1u);
    EXPECT_GT(names.count("mitigate"), 0u);
    EXPECT_EQ(names.count("safeguard_resume"), 1u);
}

// ---------------------------------------------------------------------------
// Sim-mode byte determinism
// ---------------------------------------------------------------------------

std::string
SimNodeTraceBytes()
{
    TraceSession session;
    cluster::NodeShardConfig config;
    config.num_nodes = 1;
    config.base_seed = 7;
    config.trace_session = &session;
    cluster::NodeShard shard(config);
    shard.Run(sim::Seconds(1));
    shard.Stop();
    return ChromeTraceWriter::ToString(session);
}

TEST(TraceDeterminismTest, SimNodeTraceBytesIdenticalAcrossRuns)
{
    const std::string first = SimNodeTraceBytes();
    const std::string second = SimNodeTraceBytes();
    EXPECT_GT(first.size(), 1'000u);
    EXPECT_NE(first.find(R"("name":"collect")"), std::string::npos);
    EXPECT_NE(first.find(R"("name":"actuate")"), std::string::npos);
    EXPECT_EQ(first, second);
}

std::string
FleetTraceBytes(std::size_t threads)
{
    TraceSession session;
    fleet::FleetConfig config;
    config.num_nodes = 2;
    config.num_threads = threads;
    config.window = sim::Millis(50);
    config.node.synthetic_agents = 4;
    config.trace = &session;
    fleet::ShardedFleetRunner runner(config);
    runner.Run(sim::Millis(400));
    runner.Stop();
    return ChromeTraceWriter::ToString(session);
}

TEST(TraceDeterminismTest, FleetTraceBytesInvariantAcrossThreadCounts)
{
    const std::string serial = FleetTraceBytes(1);
    const std::string wide = FleetTraceBytes(2);
    EXPECT_GT(serial.size(), 1'000u);
    // The fleet track records every window; shard tracks carry
    // the per-node engine spans.
    EXPECT_NE(serial.find(R"("name":"fleet")"), std::string::npos);
    EXPECT_NE(serial.find(R"("name":"window")"), std::string::npos);
    EXPECT_NE(serial.find(R"("name":"shard0")"), std::string::npos);
    EXPECT_EQ(serial, wide);
}

// ---------------------------------------------------------------------------
// Concurrency: a 77-producer fleet recording while the writer drains
// ---------------------------------------------------------------------------

TEST(TraceConcurrencyTest, ManyProducersRecordWhileConsumerDrains)
{
    constexpr std::size_t kProducers = 77;
    constexpr int kEventsPerProducer = 200;

    TraceSession session;
    std::vector<TraceRecorder*> recorders;
    recorders.reserve(kProducers);
    for (std::size_t i = 0; i < kProducers; ++i) {
        recorders.push_back(session.NewRecorder(
            "agent" + std::to_string(i), nullptr, 64));
    }

    std::atomic<bool> go{false};
    std::atomic<std::size_t> done{0};
    std::vector<std::thread> producers;
    producers.reserve(kProducers);
    for (std::size_t i = 0; i < kProducers; ++i) {
        producers.emplace_back([&go, &done, recorder = recorders[i]] {
            while (!go.load(std::memory_order_acquire)) {
            }
            ScopedThreadRecorder bind(recorder);
            for (int e = 0; e < kEventsPerProducer; ++e) {
                if (e % 2 == 0) {
                    TraceSpan span(CurrentThreadRecorder(), "work",
                                   "test");
                    span.AddArg("e", e);
                } else {
                    recorder->Instant("tick", "test", {{"e", e}});
                }
            }
            done.fetch_add(1, std::memory_order_release);
        });
    }

    // The consumer drains every ring while the producers are still
    // recording — the SPSC contract under test.
    std::uint64_t consumed = 0;
    go.store(true, std::memory_order_release);
    while (done.load(std::memory_order_acquire) < kProducers) {
        for (TraceRecorder* recorder : recorders) {
            recorder->ConsumeAll([&consumed](const TraceEvent&) {
                ++consumed;
            });
        }
    }
    for (std::thread& producer : producers) {
        producer.join();
    }
    for (TraceRecorder* recorder : recorders) {
        recorder->ConsumeAll(
            [&consumed](const TraceEvent&) { ++consumed; });
    }

    // Every event was either consumed exactly once or counted dropped.
    EXPECT_EQ(consumed, session.total_recorded());
    EXPECT_EQ(session.total_recorded() + session.total_dropped(),
              kProducers * static_cast<std::uint64_t>(kEventsPerProducer));
}

}  // namespace
}  // namespace sol
