/**
 * @file
 * Property-style parameterized sweeps over the SimRuntime: invariants
 * that must hold for any valid schedule and failure pattern.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <tuple>
#include <utility>
#include <vector>

#include "core/sim_runtime.h"
#include "sim/event_queue.h"
#include "sim/rng.h"

namespace sol::core {
namespace {

using sim::EventQueue;
using sim::Millis;
using sim::Seconds;

/** Simple counting agent reused across the sweeps. */
class CountingModel : public Model<int, int>
{
  public:
    explicit CountingModel(const sim::Clock& clock, double invalid_prob,
                           std::uint64_t seed)
        : clock_(clock), invalid_prob_(invalid_prob), rng_(seed)
    {
    }

    int
    CollectData() override
    {
        ++collects;
        return rng_.NextBool(invalid_prob_) ? -1 : 1;
    }

    bool
    ValidateData(const int& data) override
    {
        return data >= 0;
    }

    void
    CommitData(sim::TimePoint, const int&) override
    {
        ++commits;
    }

    void
    UpdateModel() override
    {
        ++updates;
    }

    Prediction<int>
    ModelPredict() override
    {
        return MakePrediction(1, clock_.Now(), Seconds(1));
    }

    Prediction<int>
    DefaultPredict() override
    {
        return MakeDefaultPrediction(0, clock_.Now(), Seconds(1));
    }

    bool
    AssessModel() override
    {
        return true;
    }

    const sim::Clock& clock_;
    double invalid_prob_;
    sim::Rng rng_;
    int collects = 0;
    int commits = 0;
    int updates = 0;
};

class CountingActuator : public Actuator<int>
{
  public:
    void
    TakeAction(std::optional<Prediction<int>> pred) override
    {
        ++actions;
        with_pred += pred.has_value() ? 1 : 0;
    }

    bool
    AssessPerformance() override
    {
        return true;
    }

    void
    Mitigate() override
    {
    }

    void
    CleanUp() override
    {
    }

    int actions = 0;
    int with_pred = 0;
};

// Sweep over (data_per_epoch, collect_interval_ms, invalid_prob).
using SweepParam = std::tuple<int, int, double>;

class RuntimeSweepTest : public ::testing::TestWithParam<SweepParam>
{
};

TEST_P(RuntimeSweepTest, InvariantsHoldUnderAnyConfiguration)
{
    const auto [per_epoch, interval_ms, invalid_prob] = GetParam();
    EventQueue queue;
    CountingModel model(queue, invalid_prob, 99);
    CountingActuator actuator;

    Schedule schedule;
    schedule.data_per_epoch = per_epoch;
    schedule.data_collect_interval = Millis(interval_ms);
    schedule.max_epoch_time = Millis(interval_ms * per_epoch * 3);
    schedule.max_actuation_delay = Millis(interval_ms * per_epoch * 5);
    schedule.assess_actuator_interval = Millis(50);

    SimRuntime<int, int> runtime(queue, model, actuator, schedule);
    runtime.Start();
    queue.RunUntil(Seconds(20));
    runtime.Stop();

    const RuntimeStats& stats = runtime.stats();

    // Every epoch ends in exactly one of: update+predict or default.
    EXPECT_EQ(stats.epochs,
              stats.model_updates + stats.short_circuit_epochs);

    // Every delivered prediction came from an epoch.
    EXPECT_EQ(stats.predictions_delivered, stats.epochs);

    // Every full epoch commits exactly data_per_epoch samples; epochs
    // that short-circuited at the deadline (and the in-flight epoch at
    // Stop) may add up to per_epoch - 1 partial commits each.
    const int full_commits =
        static_cast<int>(stats.model_updates) * per_epoch;
    EXPECT_GE(model.commits, full_commits);
    EXPECT_LE(model.commits,
              full_commits +
                  static_cast<int>(stats.short_circuit_epochs + 1) *
                      (per_epoch - 1));

    // Collect accounting: every collect is either committed or invalid.
    EXPECT_EQ(static_cast<std::uint64_t>(model.collects),
              static_cast<std::uint64_t>(model.commits) +
                  stats.invalid_samples);

    // Actions = prediction-driven + timeout fallbacks.
    EXPECT_EQ(stats.actions_taken,
              stats.actions_with_prediction + stats.actuator_timeouts);

    // With no safeguard failures, nothing was halted or mitigated.
    EXPECT_EQ(stats.safeguard_triggers, 0u);
    EXPECT_EQ(stats.mitigations, 0u);

    // Progress: something must have happened in 20 s.
    EXPECT_GT(stats.epochs, 0u);
    EXPECT_GT(stats.actions_taken, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Schedules, RuntimeSweepTest,
    ::testing::Values(SweepParam{1, 10, 0.0}, SweepParam{4, 10, 0.0},
                      SweepParam{10, 5, 0.0}, SweepParam{4, 10, 0.2},
                      SweepParam{4, 10, 0.5}, SweepParam{10, 5, 0.3},
                      SweepParam{2, 50, 0.1}, SweepParam{25, 2, 0.05}));

// Sweep over stall patterns: the actuator must keep acting regardless.
class StallSweepTest : public ::testing::TestWithParam<int>
{
};

TEST_P(StallSweepTest, ActuatorKeepsActingThroughStalls)
{
    const int stall_ms = GetParam();
    EventQueue queue;
    CountingModel model(queue, 0.0, 7);
    CountingActuator actuator;

    Schedule schedule;
    schedule.data_per_epoch = 4;
    schedule.data_collect_interval = Millis(10);
    schedule.max_epoch_time = Millis(100);
    schedule.max_actuation_delay = Millis(100);
    schedule.assess_actuator_interval = Millis(50);

    SimRuntime<int, int> runtime(queue, model, actuator, schedule);
    runtime.Start();

    // Stall the model every second.
    for (int t = 1; t <= 10; ++t) {
        queue.ScheduleAt(Seconds(t), [&runtime, stall_ms] {
            runtime.StallModelFor(Millis(stall_ms));
        });
    }
    queue.RunUntil(Seconds(12));
    runtime.Stop();

    // The non-blocking design guarantees an upper bound on the time
    // between actions: in 12 s with a 100 ms max delay, at least ~100
    // actions even if the model was stalled the whole time.
    EXPECT_GT(actuator.actions, 100);
    if (stall_ms > 200) {
        // Long stalls force timeout actions.
        EXPECT_GT(runtime.stats().actuator_timeouts, 0u);
    }
}

INSTANTIATE_TEST_SUITE_P(Stalls, StallSweepTest,
                         ::testing::Values(50, 200, 500, 900));

// --- EventQueue differential test --------------------------------------
//
// The arena-backed radix queue must be observationally identical to the
// obviously-correct reference: a sorted vector popping the strict
// (time, insertion-sequence) minimum. A long seeded stream of mixed
// schedule/cancel/step/run-until operations is applied to both; any
// divergence in execution order, clock position, or counter accounting
// fails. Cancels target random live handles (and occasionally stale
// ones, which must be no-ops on both sides).
//
// The stream also aims at what a radix queue can get wrong, and the
// test asserts that each case actually occurred:
//   - bursts of >= 3 events at one future instant, so the instant is
//     reached through a redistribution, while firing events schedule
//     zero-delay children at that same instant;
//   - cancelling a burst member after part of its instant has fired;
//   - a RunUntil that stops short of the next event, then a schedule at
//     Now() (the queue's lower time bound must not pass the horizon);
//   - times at and beyond 2^40 ns, through far schedules and clock
//     leaps;
//   - self-re-arming events (a sim::Next closure), which the reference
//     models as a fresh schedule drawn after the firing's own children:
//     zero-delay re-arms behind those children, re-arms At a past time
//     (clamped to Now()), and cancels through the handle of the first
//     schedule after the event has re-armed;
//   - fan-out events, whose first firing schedules 129-300 children —
//     enough to exhaust the arena's free list, so the arena grows (and
//     its key records move) while the closure runs — and then re-arms.

constexpr int kChildIdBase = 1'000'000;
constexpr int kFanOutIdBase = 2'000'000;
constexpr int kMaxFanOut = 300;
constexpr std::int64_t kFarNs = std::int64_t{1} << 40;

/** Children a fan-out event schedules on its first firing: 129-300,
 *  more than one arena block of 128 slots. */
int
FanOutSize(std::uint64_t seed, int id)
{
    const std::uint64_t h = sim::DeriveStreamSeed(
        seed ^ 0xfa0u, static_cast<std::uint64_t>(id));
    return 129 + static_cast<int>(h % (kMaxFanOut - 128));
}

/** Fan-out child `k`'s id and its delay after its parent's firing:
 *  zero one time in five, else 1-5000 ns. Children never re-arm. */
int
FanOutChildId(int parent, int k)
{
    return kFanOutIdBase + parent * (kMaxFanOut + 1) + k;
}

std::int64_t
FanOutChildDelay(std::uint64_t seed, int child)
{
    const std::uint64_t h = sim::DeriveStreamSeed(
        seed ^ 0xfa1u, static_cast<std::uint64_t>(child));
    return h % 5 == 0 ? 0 : 1 + static_cast<std::int64_t>((h >> 8) % 5000);
}

/** Every fifth scheduled event spawns a zero-delay child when it fires;
 *  children spawn nothing. */
bool
SpawnsChild(int id)
{
    return id < kChildIdBase && id % 5 == 0;
}

/** What an event asks for after a firing: nothing, a re-arm `ns` after
 *  Now(), or a re-arm At `ns` before Now() (which clamps to Now()). */
struct RearmRequest {
    enum class Kind { kDone, kAfter, kAtPast };
    Kind kind = Kind::kDone;
    std::int64_t ns = 0;
};

/**
 * The seeded re-arm plan both queues follow: one top-level event in
 * three re-arms, for 2-6 firings in all; each re-arm is zero-delay one
 * time in five, At a past time one in ten, else 1-3000 ns out. Children
 * never re-arm; a fan-out event always re-arms after its fan-out.
 */
RearmRequest
RearmAfterFiring(std::uint64_t seed, int id, int firing, bool fan_out)
{
    if (id >= kChildIdBase) {
        return {};
    }
    if (fan_out && firing == 1) {
        return {RearmRequest::Kind::kAfter, 1 + id % 3000};
    }
    const std::uint64_t plan =
        sim::DeriveStreamSeed(seed, static_cast<std::uint64_t>(id));
    const int firings = 2 + static_cast<int>((plan >> 8) % 5);
    if (plan % 3 != 0 || firing >= firings) {
        return {};
    }
    const std::uint64_t h =
        sim::DeriveStreamSeed(plan, static_cast<std::uint64_t>(firing));
    const auto ns = static_cast<std::int64_t>((h >> 8) % 3000);
    switch (h % 10) {
        case 0:
        case 1:
            return {RearmRequest::Kind::kAfter, 0};
        case 2:
            return {RearmRequest::Kind::kAtPast, ns};
        default:
            return {RearmRequest::Kind::kAfter, 1 + ns};
    }
}

/** Folds one executed (time, seq) pair the way EventQueue::trace_hash
 *  does (FNV-1a over the two words). */
std::uint64_t
MixTrace(std::uint64_t hash, std::int64_t when, std::uint64_t seq)
{
    constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;
    hash ^= static_cast<std::uint64_t>(when);
    hash *= kFnvPrime;
    hash ^= seq;
    hash *= kFnvPrime;
    return hash;
}

/** Reference model: the queue semantics in their simplest form. */
class ReferenceQueue
{
  public:
    explicit ReferenceQueue(std::uint64_t seed) : seed_(seed) {}

    void
    Schedule(std::int64_t when, int id, bool fan_out = false)
    {
        pending_.push_back({std::max(when, now_), next_seq_++, id, fan_out});
        ++scheduled_;
    }

    /** True when the id was still pending (mirrors a cancel taking
     *  effect); stale ids are no-ops. */
    bool
    Cancel(int id)
    {
        for (auto it = pending_.begin(); it != pending_.end(); ++it) {
            if (it->id == id) {
                pending_.erase(it);
                ++cancelled_;
                return true;
            }
        }
        return false;
    }

    bool
    Step()
    {
        const auto it = Earliest();
        if (it == pending_.end()) {
            return false;
        }
        Fire(it);
        return true;
    }

    void
    RunUntil(std::int64_t horizon)
    {
        while (true) {
            const auto it = Earliest();
            if (it == pending_.end() || it->when > horizon) {
                break;
            }
            Fire(it);
        }
        now_ = std::max(now_, horizon);
    }

    std::int64_t now() const { return now_; }
    std::uint64_t trace_hash() const { return trace_hash_; }
    std::size_t pending() const { return pending_.size(); }
    std::uint64_t scheduled() const { return scheduled_; }
    std::uint64_t cancelled() const { return cancelled_; }
    const std::vector<int>& executed_order() const
    {
        return executed_order_;
    }

  private:
    struct Entry {
        std::int64_t when;
        std::uint64_t seq;
        int id;
        bool fan_out;
    };

    std::vector<Entry>::iterator
    Earliest()
    {
        auto best = pending_.end();
        for (auto it = pending_.begin(); it != pending_.end(); ++it) {
            if (best == pending_.end() || it->when < best->when ||
                (it->when == best->when && it->seq < best->seq)) {
                best = it;
            }
        }
        return best;
    }

    /** Runs an entry: its children first, then (a re-arm) a fresh
     *  schedule under the same id, so its seq follows the children's. */
    void
    Fire(std::vector<Entry>::iterator it)
    {
        now_ = std::max(now_, it->when);
        const int id = it->id;
        const bool fan_out = it->fan_out;
        trace_hash_ = MixTrace(trace_hash_, it->when, it->seq);
        pending_.erase(it);
        executed_order_.push_back(id);
        if (SpawnsChild(id)) {
            Schedule(now_, id + kChildIdBase);
        }
        const int firing = ++firings_[id];
        if (fan_out && firing == 1) {
            for (int k = 0; k < FanOutSize(seed_, id); ++k) {
                const int child = FanOutChildId(id, k);
                Schedule(now_ + FanOutChildDelay(seed_, child), child);
            }
        }
        const RearmRequest next = RearmAfterFiring(seed_, id, firing, fan_out);
        if (next.kind == RearmRequest::Kind::kAfter) {
            Schedule(now_ + next.ns, id, fan_out);
        } else if (next.kind == RearmRequest::Kind::kAtPast) {
            Schedule(now_ - next.ns, id, fan_out);
        }
    }

    std::uint64_t seed_;
    std::map<int, int> firings_;
    std::vector<Entry> pending_;
    std::uint64_t next_seq_ = 0;
    std::uint64_t scheduled_ = 0;
    std::uint64_t cancelled_ = 0;
    std::int64_t now_ = 0;
    std::uint64_t trace_hash_ = 0xcbf29ce484222325ull;
    std::vector<int> executed_order_;
};

/** How often the stream hit each radix-queue edge case. */
struct EdgeCoverage {
    int bursts = 0;             ///< >= 3 events at one future instant.
    int mid_burst_cancels = 0;  ///< Burst member cancelled mid-instant.
    int short_stop_schedules = 0;  ///< Schedule at Now() after RunUntil
                                   ///< stopped short of pending events.
    int far_fires = 0;          ///< Ops firing events at >= 2^40 ns.
    int rearms = 0;             ///< Re-arms returned by closures.
    int zero_delay_rearms = 0;  ///< ... with a zero delay.
    int past_rearms = 0;        ///< ... At a past time (clamped).
    int cancels_after_rearm = 0;  ///< First-schedule handle cancelling
                                  ///< an event after it re-armed.
    int grew_then_rearmed = 0;  ///< Closures that grew the arena while
                                ///< firing, then re-armed.
};

/** Runs the seeded op stream against both queues, checking lockstep
 *  (void so ASSERT_* can bail; results land in the out-params). */
void
RunDifferential(std::uint64_t seed, int num_ops,
                std::vector<int>* order_out, std::uint64_t* hash_out,
                EdgeCoverage* coverage)
{
    EventQueue queue;
    ReferenceQueue reference(seed);
    sim::Rng rng(seed);

    std::vector<int> executed_order;
    std::map<int, int> firings;  // Per event id.
    std::vector<std::pair<int, sim::EventHandle>> handles;
    std::vector<std::size_t> last_burst;  // Indices into `handles`.
    std::int64_t last_burst_time = -1;
    std::size_t seen_executed = 0;
    int next_id = 0;
    bool stopped_short = false;

    struct Context {
        std::uint64_t seed;
        EventQueue* queue;
        std::vector<int>* order;
        std::map<int, int>* firings;
        EdgeCoverage* coverage;
    } context{seed, &queue, &executed_order, &firings, coverage};
    // One closure per event for its whole life: the firing count lives
    // in it, so a re-arm that rebuilt or lost the closure would show.
    struct Fire {
        int id;
        int fired = 0;
        Context* ctx;
        bool fan_out = false;
        sim::Next
        operator()()
        {
            EventQueue& queue = *ctx->queue;
            ctx->order->push_back(id);
            (*ctx->firings)[id] = ++fired;
            if (SpawnsChild(id)) {
                queue.ScheduleAfter(sim::Duration::zero(),
                                    Fire{id + kChildIdBase, 0, ctx});
            }
            const std::size_t blocks = queue.stats().arena_blocks;
            if (fan_out && fired == 1) {
                for (int k = 0; k < FanOutSize(ctx->seed, id); ++k) {
                    const int child = FanOutChildId(id, k);
                    queue.ScheduleAfter(
                        sim::Nanos(FanOutChildDelay(ctx->seed, child)),
                        Fire{child, 0, ctx});
                }
            }
            const RearmRequest next =
                RearmAfterFiring(ctx->seed, id, fired, fan_out);
            if (next.kind == RearmRequest::Kind::kDone) {
                return sim::Next::Done();
            }
            ++ctx->coverage->rearms;
            if (queue.stats().arena_blocks > blocks) {
                ++ctx->coverage->grew_then_rearmed;
            }
            if (next.kind == RearmRequest::Kind::kAtPast) {
                ++ctx->coverage->past_rearms;
                return sim::Next::At(queue.Now() - sim::Nanos(next.ns));
            }
            if (next.ns == 0) {
                ++ctx->coverage->zero_delay_rearms;
            }
            return sim::Next::After(sim::Nanos(next.ns));
        }
    };
    const auto schedule = [&](std::int64_t when, bool fan_out = false) {
        const int id = next_id++;
        handles.emplace_back(
            id, queue.ScheduleAt(sim::TimePoint(sim::Nanos(when)),
                                 Fire{id, 0, &context, fan_out}));
        reference.Schedule(when, id, fan_out);
    };
    // A cancel through the first schedule's handle; counts the cancels
    // that removed an event which had already fired and re-armed.
    const auto cancel = [&](int id, sim::EventHandle& handle) {
        const bool was_pending = handle.pending();
        handle.Cancel();
        if (was_pending && firings[id] > 0) {
            ++coverage->cancels_after_rearm;
        }
        return was_pending;
    };

    for (int op = 0; op < num_ops; ++op) {
        const std::uint64_t choice = rng.NextBelow(100);
        const bool after_short_stop = stopped_short;
        stopped_short = false;
        if (choice < 45) {
            // Schedule at a random offset; 1-in-5 at the current
            // instant (same-instant FIFO is the subtle invariant), and
            // now and then far out, past 2^40 ns.
            std::int64_t offset = 0;
            if (!rng.NextBool(0.2)) {
                offset = rng.NextBool(0.02)
                             ? kFarNs + rng.NextInRange(0, 1 << 20)
                             : rng.NextInRange(0, 5000);
            }
            if (offset == 0 && after_short_stop) {
                ++coverage->short_stop_schedules;
            }
            schedule(queue.Now().count() + offset);
        } else if (choice < 50) {
            // A burst of 3-6 events at one future instant: the queue
            // reaches it through a redistribution.
            const std::int64_t when =
                queue.Now().count() + rng.NextInRange(1, 5000);
            const int size = static_cast<int>(rng.NextInRange(3, 6));
            last_burst.clear();
            for (int i = 0; i < size; ++i) {
                last_burst.push_back(handles.size());
                schedule(when);
            }
            last_burst_time = when;
            ++coverage->bursts;
        } else if (choice < 62 || (choice < 66 && last_burst.empty())) {
            // Cancel a random handle — often live, sometimes already
            // fired or cancelled (must be a no-op on both sides).
            if (!handles.empty()) {
                auto& [id, handle] =
                    handles[rng.NextBelow(handles.size())];
                const bool was_pending = cancel(id, handle);
                const bool ref_effect = reference.Cancel(id);
                ASSERT_EQ(was_pending, ref_effect)
                    << "handle/reference liveness disagreed for " << id;
            }
        } else if (choice < 66) {
            // Cancel a member of the last burst — mid-instant when the
            // clock already stands at the burst and part of it fired.
            auto& [id, handle] =
                handles[last_burst[rng.NextBelow(last_burst.size())]];
            const bool mid_burst =
                queue.Now().count() == last_burst_time &&
                std::any_of(last_burst.begin(), last_burst.end(),
                            [&](std::size_t h) {
                                return std::find(executed_order.begin(),
                                                 executed_order.end(),
                                                 handles[h].first) !=
                                       executed_order.end();
                            });
            const bool was_pending = cancel(id, handle);
            const bool ref_effect = reference.Cancel(id);
            ASSERT_EQ(was_pending, ref_effect)
                << "burst cancel disagreed for " << id;
            if (was_pending && mid_burst) {
                ++coverage->mid_burst_cancels;
            }
        } else if (choice < 79) {
            const bool stepped = queue.Step();
            const bool ref_stepped = reference.Step();
            ASSERT_EQ(stepped, ref_stepped) << "Step at op " << op;
        } else if (choice < 80) {
            // A fan-out event 0-5000 ns out.
            schedule(queue.Now().count() + rng.NextInRange(0, 5000), true);
        } else {
            // Run to a nearby horizon, or (rarely) leap 2^40 ns ahead.
            const std::int64_t span =
                choice < 98 ? rng.NextInRange(0, 3000)
                            : kFarNs + rng.NextInRange(0, 1 << 20);
            const std::int64_t horizon = queue.Now().count() + span;
            queue.RunUntil(sim::TimePoint(sim::Nanos(horizon)));
            reference.RunUntil(horizon);
            stopped_short = queue.pending() > 0;
        }
        if (queue.Now().count() >= kFarNs &&
            executed_order.size() > seen_executed) {
            ++coverage->far_fires;
        }
        seen_executed = executed_order.size();

        ASSERT_EQ(queue.Now().count(), reference.now())
            << "clocks diverged at op " << op;
        ASSERT_EQ(queue.pending(), reference.pending())
            << "pending diverged at op " << op;
        ASSERT_EQ(queue.stats().scheduled, reference.scheduled())
            << "scheduled diverged at op " << op;
        ASSERT_EQ(executed_order.size(),
                  reference.executed_order().size())
            << "executed count diverged at op " << op;
    }

    // Drain both and compare the complete execution order.
    while (queue.Step()) {
    }
    while (reference.Step()) {
    }
    EXPECT_EQ(executed_order, reference.executed_order());
    EXPECT_EQ(queue.trace_hash(), reference.trace_hash());

    const sim::EventQueueStats stats = queue.stats();
    EXPECT_EQ(stats.scheduled, reference.scheduled());
    EXPECT_EQ(stats.cancelled, reference.cancelled());
    EXPECT_EQ(stats.executed, executed_order.size());
    EXPECT_EQ(stats.pending, 0u);
    EXPECT_EQ(stats.dropped, 0u);
    EXPECT_EQ(stats.scheduled,
              stats.executed + stats.cancelled + stats.pending);

    *order_out = executed_order;
    *hash_out = queue.trace_hash();
}

class EventQueueDifferentialTest
    : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(EventQueueDifferentialTest, MatchesSortedVectorReference)
{
    const std::uint64_t seed = GetParam();
    std::vector<int> order;
    std::uint64_t hash = 0;
    EdgeCoverage coverage;
    RunDifferential(seed, 10'000, &order, &hash, &coverage);
    if (testing::Test::HasFatalFailure()) {
        return;
    }
    EXPECT_FALSE(order.empty());
    // The stream must actually have exercised every edge case.
    EXPECT_GT(coverage.bursts, 0);
    EXPECT_GT(coverage.mid_burst_cancels, 0);
    EXPECT_GT(coverage.short_stop_schedules, 0);
    EXPECT_GT(coverage.far_fires, 0);
    EXPECT_GT(coverage.rearms, 0);
    EXPECT_GT(coverage.zero_delay_rearms, 0);
    EXPECT_GT(coverage.past_rearms, 0);
    EXPECT_GT(coverage.cancels_after_rearm, 0);
    EXPECT_GT(coverage.grew_then_rearmed, 0);

    // The same seed must replay the same order and trace fingerprint.
    std::vector<int> order2;
    std::uint64_t hash2 = 0;
    EdgeCoverage coverage2;
    RunDifferential(seed, 10'000, &order2, &hash2, &coverage2);
    EXPECT_EQ(order, order2);
    EXPECT_EQ(hash, hash2);
}

INSTANTIATE_TEST_SUITE_P(Seeds, EventQueueDifferentialTest,
                         ::testing::Values(1u, 42u, 0xdeadbeefu, 7u,
                                           2024u));

}  // namespace
}  // namespace sol::core
