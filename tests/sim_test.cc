/**
 * @file
 * Tests for the simulation substrate: time, RNG, event queue, samplers.
 */
#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <map>
#include <stdexcept>
#include <utility>
#include <vector>

#include "sim/confined_shared.h"
#include "sim/event_queue.h"
#include "sim/rng.h"
#include "sim/samplers.h"
#include "sim/time.h"

namespace sol::sim {
namespace {

// ---------------------------------------------------------------------------
// Time helpers
// ---------------------------------------------------------------------------

TEST(TimeTest, ConstructorsAgree)
{
    EXPECT_EQ(Micros(1), Nanos(1000));
    EXPECT_EQ(Millis(1), Micros(1000));
    EXPECT_EQ(Seconds(1), Millis(1000));
    EXPECT_EQ(SecondsF(0.5), Millis(500));
}

TEST(TimeTest, Conversions)
{
    EXPECT_DOUBLE_EQ(ToSeconds(Millis(1500)), 1.5);
    EXPECT_DOUBLE_EQ(ToMillis(Micros(2500)), 2.5);
    EXPECT_DOUBLE_EQ(ToSeconds(Duration::zero()), 0.0);
}

TEST(TimeTest, InfinityOrdersAfterEverything)
{
    EXPECT_GT(kTimeInfinity, Seconds(1'000'000'000));
}

// ---------------------------------------------------------------------------
// Rng
// ---------------------------------------------------------------------------

TEST(RngTest, Deterministic)
{
    Rng a(123);
    Rng b(123);
    for (int i = 0; i < 100; ++i) {
        EXPECT_EQ(a.NextU64(), b.NextU64());
    }
}

TEST(RngTest, DifferentSeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.NextU64() == b.NextU64()) {
            ++same;
        }
    }
    EXPECT_LT(same, 3);
}

TEST(RngTest, DoubleInUnitInterval)
{
    Rng rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double x = rng.NextDouble();
        EXPECT_GE(x, 0.0);
        EXPECT_LT(x, 1.0);
    }
}

TEST(RngTest, NextBelowRespectsBound)
{
    Rng rng(9);
    for (std::uint64_t bound : {1ULL, 2ULL, 7ULL, 1000ULL}) {
        for (int i = 0; i < 1000; ++i) {
            EXPECT_LT(rng.NextBelow(bound), bound);
        }
    }
}

TEST(RngTest, NextBelowCoversAllValues)
{
    Rng rng(11);
    std::map<std::uint64_t, int> counts;
    for (int i = 0; i < 6000; ++i) {
        ++counts[rng.NextBelow(6)];
    }
    EXPECT_EQ(counts.size(), 6u);
    for (const auto& [value, count] : counts) {
        EXPECT_GT(count, 700) << "value " << value;  // ~1000 expected.
    }
}

TEST(RngTest, NextInRangeInclusive)
{
    Rng rng(13);
    bool saw_lo = false;
    bool saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const auto v = rng.NextInRange(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        saw_lo |= v == -3;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(RngTest, BernoulliEdgeCases)
{
    Rng rng(15);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.NextBool(0.0));
        EXPECT_TRUE(rng.NextBool(1.0));
    }
}

TEST(RngTest, BernoulliFrequency)
{
    Rng rng(17);
    int heads = 0;
    for (int i = 0; i < 10000; ++i) {
        heads += rng.NextBool(0.3) ? 1 : 0;
    }
    EXPECT_NEAR(heads / 10000.0, 0.3, 0.03);
}

TEST(RngTest, GaussianMoments)
{
    Rng rng(19);
    double sum = 0.0;
    double sq = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) {
        const double x = rng.NextGaussian();
        sum += x;
        sq += x * x;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.03);
    EXPECT_NEAR(sq / n, 1.0, 0.05);
}

TEST(RngTest, ExponentialMean)
{
    Rng rng(21);
    double sum = 0.0;
    const int n = 50000;
    for (int i = 0; i < n; ++i) {
        sum += rng.NextExponential(4.0);
    }
    EXPECT_NEAR(sum / n, 0.25, 0.01);
}

TEST(RngTest, GammaMeanMatchesAlpha)
{
    Rng rng(23);
    for (const double alpha : {0.5, 1.0, 2.5, 9.0}) {
        double sum = 0.0;
        const int n = 20000;
        for (int i = 0; i < n; ++i) {
            sum += rng.NextGamma(alpha);
        }
        EXPECT_NEAR(sum / n, alpha, 0.08 * alpha + 0.02) << alpha;
    }
}

TEST(RngTest, BetaMeanAndSupport)
{
    Rng rng(25);
    double sum = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        const double x = rng.NextBeta(2.0, 6.0);
        EXPECT_GE(x, 0.0);
        EXPECT_LE(x, 1.0);
        sum += x;
    }
    EXPECT_NEAR(sum / n, 0.25, 0.01);
}

TEST(RngTest, ForkedStreamsIndependent)
{
    Rng a(31);
    Rng b = a.Fork();
    int same = 0;
    for (int i = 0; i < 100; ++i) {
        if (a.NextU64() == b.NextU64()) {
            ++same;
        }
    }
    EXPECT_LT(same, 3);
}

// ---------------------------------------------------------------------------
// EventQueue
// ---------------------------------------------------------------------------

TEST(EventQueueTest, RunsInTimeOrder)
{
    EventQueue queue;
    std::vector<int> order;
    queue.ScheduleAt(Millis(30), [&] { order.push_back(3); });
    queue.ScheduleAt(Millis(10), [&] { order.push_back(1); });
    queue.ScheduleAt(Millis(20), [&] { order.push_back(2); });
    queue.RunUntil(Millis(100));
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueueTest, SameInstantRunsInInsertionOrder)
{
    EventQueue queue;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i) {
        queue.ScheduleAt(Millis(5), [&order, i] { order.push_back(i); });
    }
    queue.RunUntil(Millis(10));
    for (int i = 0; i < 10; ++i) {
        EXPECT_EQ(order[static_cast<std::size_t>(i)], i);
    }
}

TEST(EventQueueTest, ClockAdvancesToEventTime)
{
    EventQueue queue;
    TimePoint seen{-1};
    queue.ScheduleAt(Millis(42), [&] { seen = queue.Now(); });
    queue.RunUntil(Seconds(1));
    EXPECT_EQ(seen, Millis(42));
    EXPECT_EQ(queue.Now(), Seconds(1));
}

TEST(EventQueueTest, HorizonRespected)
{
    EventQueue queue;
    bool fired = false;
    queue.ScheduleAt(Millis(500), [&] { fired = true; });
    queue.RunUntil(Millis(499));
    EXPECT_FALSE(fired);
    queue.RunUntil(Millis(500));
    EXPECT_TRUE(fired);
}

TEST(EventQueueTest, ScheduleAfterUsesCurrentTime)
{
    EventQueue queue;
    TimePoint seen{-1};
    queue.ScheduleAt(Millis(10), [&] {
        queue.ScheduleAfter(Millis(5), [&] { seen = queue.Now(); });
    });
    queue.RunUntil(Millis(100));
    EXPECT_EQ(seen, Millis(15));
}

TEST(EventQueueTest, PastEventsClampToNow)
{
    EventQueue queue;
    queue.RunUntil(Millis(100));
    TimePoint seen{-1};
    queue.ScheduleAt(Millis(10), [&] { seen = queue.Now(); });
    queue.RunUntil(Millis(200));
    EXPECT_EQ(seen, Millis(100));
}

TEST(EventQueueTest, CancelPreventsExecution)
{
    EventQueue queue;
    bool fired = false;
    EventHandle handle =
        queue.ScheduleAt(Millis(10), [&] { fired = true; });
    handle.Cancel();
    queue.RunUntil(Millis(100));
    EXPECT_FALSE(fired);
    EXPECT_TRUE(handle.cancelled());
}

TEST(EventQueueTest, ExecutedCountsOnlyLiveEvents)
{
    EventQueue queue;
    auto h1 = queue.ScheduleAt(Millis(1), [] {});
    queue.ScheduleAt(Millis(2), [] {});
    h1.Cancel();
    queue.RunUntil(Millis(10));
    EXPECT_EQ(queue.executed(), 1u);
}

TEST(EventQueueTest, StepExecutesOne)
{
    EventQueue queue;
    int count = 0;
    queue.ScheduleAt(Millis(1), [&] { ++count; });
    queue.ScheduleAt(Millis(2), [&] { ++count; });
    EXPECT_TRUE(queue.Step());
    EXPECT_EQ(count, 1);
    EXPECT_TRUE(queue.Step());
    EXPECT_EQ(count, 2);
    EXPECT_FALSE(queue.Step());
}

TEST(EventQueueTest, RunUntilIdleDrains)
{
    EventQueue queue;
    int count = 0;
    // Chain of events, each scheduling the next.
    std::function<void()> chain = [&] {
        if (++count < 50) {
            queue.ScheduleAfter(Millis(1), chain);
        }
    };
    queue.ScheduleAfter(Millis(1), chain);
    queue.RunUntilIdle();
    EXPECT_EQ(count, 50);
}

TEST(EventQueueTest, CancelAfterFireIsHarmlessNoOp)
{
    EventQueue queue;
    int fired = 0;
    EventHandle handle = queue.ScheduleAt(Millis(1), [&] { ++fired; });
    queue.RunUntil(Millis(10));
    EXPECT_EQ(fired, 1);
    // The event already ran: Cancel must not take effect (the handle's
    // generation token can no longer match the recycled slot).
    handle.Cancel();
    EXPECT_FALSE(handle.cancelled());
    EXPECT_FALSE(handle.pending());
    EXPECT_EQ(queue.stats().cancelled, 0u);
}

TEST(EventQueueTest, CancelRemovesEventEagerly)
{
    EventQueue queue;
    EventHandle handle = queue.ScheduleAt(Seconds(100), [] {});
    EXPECT_EQ(queue.pending(), 1u);
    EXPECT_TRUE(handle.pending());
    handle.Cancel();
    // Eager semantics: the event leaves the queue immediately instead
    // of rotting until its deadline.
    EXPECT_EQ(queue.pending(), 0u);
    EXPECT_FALSE(handle.pending());
    EXPECT_TRUE(handle.cancelled());
    EXPECT_EQ(queue.stats().cancelled, 1u);
    // Double-cancel is a no-op.
    handle.Cancel();
    EXPECT_EQ(queue.stats().cancelled, 1u);
}

TEST(EventQueueTest, StaleHandleCannotCancelRecycledSlot)
{
    EventQueue queue;
    EventHandle old_handle = queue.ScheduleAt(Millis(1), [] {});
    queue.RunUntil(Millis(2));  // Fires; the arena slot is recycled.

    bool fired = false;
    queue.ScheduleAt(Millis(5), [&] { fired = true; });
    // The LIFO free list hands the new event the old event's slot; the
    // stale handle's generation token must not be able to touch it.
    old_handle.Cancel();
    queue.RunUntil(Millis(10));
    EXPECT_TRUE(fired);
    EXPECT_FALSE(old_handle.cancelled());
}

TEST(EventQueueTest, SameInstantFifoSurvivesInterleavedCancellation)
{
    EventQueue queue;
    std::vector<int> order;
    std::vector<EventHandle> handles;
    for (int i = 0; i < 10; ++i) {
        handles.push_back(queue.ScheduleAt(
            Millis(5), [&order, i] { order.push_back(i); }));
    }
    for (int i = 1; i < 10; i += 2) {
        handles[static_cast<std::size_t>(i)].Cancel();
    }
    queue.RunUntil(Millis(10));
    // Cancelling the odd events must not disturb the insertion order
    // of the surviving same-instant events.
    EXPECT_EQ(order, (std::vector<int>{0, 2, 4, 6, 8}));
}

TEST(EventQueueTest, CancelMidInstantSkipsOnlyThatEvent)
{
    EventQueue queue;
    std::vector<int> order;
    std::vector<EventHandle> handles(5);
    for (int i = 0; i < 5; ++i) {
        handles[static_cast<std::size_t>(i)] =
            queue.ScheduleAt(Millis(5), [&, i] {
                order.push_back(i);
                if (i == 1) {
                    handles[2].Cancel();  // Same instant, next to fire.
                    handles[1].Cancel();  // Firing right now: no-op.
                    handles[0].Cancel();  // Already fired: no-op.
                }
            });
    }
    queue.RunUntil(Millis(10));
    EXPECT_EQ(order, (std::vector<int>{0, 1, 3, 4}));
    EXPECT_TRUE(handles[2].cancelled());
    EXPECT_FALSE(handles[1].cancelled());
    EXPECT_FALSE(handles[0].cancelled());
    EXPECT_EQ(queue.stats().cancelled, 1u);
}

TEST(EventQueueTest, PendingLimitAdmitsSelfRearmAtSaturation)
{
    EventQueue queue;
    queue.SetPendingLimit(1);
    PeriodicTask task(queue, Millis(1), [] {});
    queue.RunUntil(Millis(100));
    // A firing event leaves pending() when it is popped, so the tick's
    // re-arm fits under a limit of one and the loop never stalls.
    EXPECT_EQ(queue.executed(), 100u);
    EXPECT_EQ(queue.stats().dropped, 0u);
}

TEST(EventQueueTest, PendingLimitDropsLoudly)
{
    EventQueue queue;
    queue.SetPendingLimit(2);
    int fired = 0;
    queue.ScheduleAt(Millis(1), [&] { ++fired; });
    queue.ScheduleAt(Millis(2), [&] { ++fired; });
    EventHandle dropped = queue.ScheduleAt(Millis(3), [&] { ++fired; });
    // The overflowing event is rejected: never runs, and its handle
    // says so up front.
    EXPECT_TRUE(dropped.cancelled());
    EXPECT_FALSE(dropped.pending());
    EXPECT_EQ(queue.stats().dropped, 1u);
    queue.RunUntil(Millis(10));
    EXPECT_EQ(fired, 2);
    // Capacity freed by firing events re-admits new ones.
    queue.ScheduleAt(Millis(11), [&] { ++fired; });
    queue.RunUntil(Millis(20));
    EXPECT_EQ(fired, 3);
}

TEST(EventQueueTest, ArenaRecyclesSlotsOnTheSteadyPath)
{
    EventQueue queue;
    PeriodicTask task(queue, Millis(1), [] {});
    queue.RunUntil(Seconds(10));  // 10k firings through one slot chain.
    const EventQueueStats stats = queue.stats();
    EXPECT_GE(stats.executed, 10'000u);
    // One periodic event in flight: the arena never grows past its
    // first block, however many events pass through.
    EXPECT_EQ(stats.arena_blocks, 1u);
    EXPECT_LE(stats.peak_pending, 2u);
}

TEST(EventQueueTest, TraceHashIsDeterministicForAFixedSeed)
{
    const auto run = [](std::uint64_t seed) {
        EventQueue queue;
        Rng rng(seed);
        // A seeded cascade: each event schedules a random follow-up.
        std::function<void(int)> step = [&](int depth) {
            if (depth > 0) {
                queue.ScheduleAfter(
                    Micros(static_cast<std::int64_t>(rng.NextBelow(500))),
                    [&step, depth] { step(depth - 1); });
            }
        };
        for (int i = 0; i < 50; ++i) {
            step(40);
        }
        queue.RunUntilIdle();
        return queue.trace_hash();
    };
    EXPECT_EQ(run(7), run(7));   // Same seed, same trace fingerprint.
    EXPECT_NE(run(7), run(11));  // Different seed, different trace.
}

TEST(EventQueueTest, TraceHashSeesTimingDivergence)
{
    EventQueue a;
    EventQueue b;
    a.ScheduleAt(Millis(1), [] {});
    b.ScheduleAt(Millis(2), [] {});
    a.RunUntil(Millis(10));
    b.RunUntil(Millis(10));
    EXPECT_NE(a.trace_hash(), b.trace_hash());
}

TEST(EventQueueTest, HandleOutlivesQueueSafely)
{
    EventHandle handle;
    int destroyed = 0;
    {
        EventQueue queue;
        struct Counted {
            int* destroyed;
            ~Counted() { ++*destroyed; }
            void operator()() const {}
        };
        handle = queue.ScheduleAt(Millis(1), Counted{&destroyed});
        destroyed = 0;  // Ignore the temporary's destruction.
    }
    // The dying queue destroyed its unrun event; the handle keeps only
    // the emptied arena alive, so every operation on it is a no-op.
    EXPECT_EQ(destroyed, 1);
    EXPECT_FALSE(handle.pending());
    handle.Cancel();
    EXPECT_FALSE(handle.cancelled());
    EXPECT_FALSE(handle.pending());
}

TEST(EventQueueTest, StatsTrackLifetimeCounters)
{
    EventQueue queue;
    auto h1 = queue.ScheduleAt(Millis(1), [] {});
    queue.ScheduleAt(Millis(2), [] {});
    h1.Cancel();
    queue.RunUntil(Millis(10));
    const EventQueueStats stats = queue.stats();
    EXPECT_EQ(stats.scheduled, 2u);
    EXPECT_EQ(stats.executed, 1u);
    EXPECT_EQ(stats.cancelled, 1u);
    EXPECT_EQ(stats.pending, 0u);
    EXPECT_EQ(stats.peak_pending, 2u);
    EXPECT_GT(stats.arena_capacity, 0u);
}

// ---------------------------------------------------------------------------
// Self-re-arming events
// ---------------------------------------------------------------------------

/** How often a Counted closure was built (constructed, copied or
 *  moved) and destroyed. */
struct Lifetimes {
    int built = 0;
    int destroyed = 0;
};

/** Wraps a closure and counts its builds and destructions; `kPad`
 *  extra bytes push it past the inline buffer onto the heap. */
template <typename Fn, std::size_t kPad = 0>
struct Counted {
    Counted(Lifetimes* lifetimes, Fn closure)
        : life(lifetimes), fn(std::move(closure))
    {
        ++life->built;
    }
    Counted(const Counted& other) : life(other.life), fn(other.fn)
    {
        ++life->built;
    }
    Counted(Counted&& other) noexcept
        : life(other.life), fn(std::move(other.fn))
    {
        ++life->built;
    }
    ~Counted() { ++life->destroyed; }
    Counted& operator=(const Counted&) = delete;

    auto operator()() { return fn(); }

    Lifetimes* life;
    Fn fn;
    std::array<unsigned char, kPad> pad{};
};

template <std::size_t kPad>
void
ExpectBuiltOnceAcrossFirings()
{
    EventQueue queue;
    Lifetimes life;
    int fired = 0;
    const auto loop = [&fired] {
        return ++fired < 1000 ? Next::After(Millis(1)) : Next::Done();
    };
    using Closure = Counted<decltype(loop), kPad>;
    // Padded closures box on the heap; the others are built inline.
    static_assert((sizeof(Closure) > detail::InlineEvent::kInlineBytes) ==
                  (kPad > 0));
    queue.ScheduleAfter(Millis(1), Closure(&life, loop));
    // One build in the slot (beside the temporary, already destroyed).
    const Lifetimes scheduled = life;
    EXPECT_EQ(scheduled.built - scheduled.destroyed, 1);
    queue.RunUntil(Seconds(10));
    EXPECT_EQ(fired, 1000);
    EXPECT_EQ(life.built, scheduled.built);  // Never rebuilt.
    EXPECT_EQ(life.destroyed, scheduled.destroyed + 1);  // Once, on Done.
    const EventQueueStats stats = queue.stats();
    EXPECT_EQ(stats.executed, 1000u);
    EXPECT_EQ(stats.scheduled, 1000u);  // Each re-arm is a schedule.
    EXPECT_EQ(stats.pending, 0u);
    EXPECT_EQ(stats.peak_pending, 1u);
}

TEST(RearmTest, ClosureIsBuiltOnceAcrossItsFirings)
{
    ExpectBuiltOnceAcrossFirings<0>();
    ExpectBuiltOnceAcrossFirings<32>();
}

TEST(RearmTest, FirstHandleCancelsTheLoopBetweenFirings)
{
    EventQueue queue;
    int fired = 0;
    bool pending_while_firing = true;
    EventHandle handle;
    handle = queue.ScheduleAfter(Millis(1), [&] {
        ++fired;
        pending_while_firing = handle.pending();
        handle.Cancel();  // A firing event cannot cancel itself.
        return Next::After(Millis(1));
    });
    queue.RunUntil(Millis(5) + Micros(500));
    EXPECT_EQ(fired, 5);
    EXPECT_FALSE(pending_while_firing);
    EXPECT_FALSE(handle.cancelled());
    EXPECT_TRUE(handle.pending());  // The same handle names the re-arm.
    handle.Cancel();
    EXPECT_TRUE(handle.cancelled());
    EXPECT_FALSE(handle.pending());
    EXPECT_EQ(queue.pending(), 0u);
    queue.RunUntil(Millis(20));
    EXPECT_EQ(fired, 5);
    const EventQueueStats stats = queue.stats();
    EXPECT_EQ(stats.scheduled, 6u);
    EXPECT_EQ(stats.executed, 5u);
    EXPECT_EQ(stats.cancelled, 1u);
}

TEST(RearmTest, ThrowingClosureIsDestroyedAndItsSlotRecycled)
{
    EventQueue queue;
    Lifetimes life;
    int fired = 0;
    const auto loop = [&fired] {
        if (++fired == 3) {
            throw std::runtime_error("model crashed");
        }
        return Next::After(Millis(1));
    };
    EventHandle handle = queue.ScheduleAfter(
        Millis(1), Counted<decltype(loop)>(&life, loop));
    EXPECT_EQ(queue.pending(), 1u);
    EXPECT_THROW(queue.RunUntil(Millis(10)), std::runtime_error);
    EXPECT_EQ(fired, 3);
    EXPECT_EQ(life.built, life.destroyed);
    EXPECT_EQ(queue.pending(), 0u);
    EXPECT_FALSE(handle.pending());
    // The slot went back to the free list with a new generation: the
    // next event takes it, and the old handle cannot reach that event.
    int later = 0;
    EventHandle next = queue.ScheduleAfter(Millis(1), [&later] { ++later; });
    handle.Cancel();
    EXPECT_FALSE(handle.cancelled());
    EXPECT_TRUE(next.pending());
    queue.RunUntil(Millis(20));
    EXPECT_EQ(later, 1);
    EXPECT_EQ(queue.stats().arena_blocks, 1u);
}

TEST(RearmTest, RearmRefusedByThePendingLimitIsADrop)
{
    EventQueue queue;
    queue.SetPendingLimit(2);
    queue.ScheduleAt(Seconds(1), [] {});
    Lifetimes life;
    int fired = 0;
    const auto loop = [&queue, &fired] {
        if (++fired == 3) {
            queue.ScheduleAt(Seconds(2), [] {});  // Fills the limit.
        }
        return Next::After(Millis(1));
    };
    EventHandle handle = queue.ScheduleAfter(
        Millis(1), Counted<decltype(loop)>(&life, loop));
    queue.RunUntil(Millis(100));
    // The third re-arm found two events pending: dropped, and the loop
    // ended there (the overload hole a queue limit opens).
    EXPECT_EQ(fired, 3);
    EXPECT_EQ(queue.stats().dropped, 1u);
    EXPECT_EQ(life.built, life.destroyed);
    EXPECT_FALSE(handle.pending());
    EXPECT_EQ(queue.pending(), 2u);
    EXPECT_EQ(queue.stats().scheduled, 5u);  // 3 schedules + 2 re-arms.
}

TEST(RearmTest, ZeroDelayRearmRunsAfterItsOwnSameInstantChildren)
{
    EventQueue queue;
    std::vector<int> order;
    int fired = 0;
    queue.ScheduleAt(Millis(1), [&] {
        order.push_back(0);
        if (++fired == 3) {
            return Next::Done();
        }
        queue.ScheduleAfter(Duration::zero(), [&order] { order.push_back(1); });
        queue.ScheduleAt(Millis(0), [&order] { order.push_back(2); });
        // Zero delay, then At a past time (clamped to now): both run
        // after the two children just scheduled at this instant.
        return fired == 1 ? Next::After(Duration::zero())
                          : Next::At(Millis(0));
    });
    queue.ScheduleAt(Millis(1), [&order] { order.push_back(9); });
    queue.RunUntil(Millis(5));
    EXPECT_EQ(order, (std::vector<int>{0, 9, 1, 2, 0, 1, 2, 0}));
    EXPECT_EQ(queue.executed(), 8u);
    EXPECT_EQ(queue.stats().scheduled, 8u);
}

// A closure that schedules enough events while it fires to exhaust the
// free list grows the arena under its own feet: one block of 128 slots
// becomes three, and the key records move each time. Whatever the
// queue does with the firing slot after the closure returns — re-file
// it, or recycle it — must reach the slot's current key.

constexpr int kFanOut = 300;
constexpr int kParent = -1;

/** One firing: the virtual time and who fired (kParent or a child). */
using Firing = std::pair<std::int64_t, int>;

/** Schedules kFanOut fire-once children, a third each 500 us, 1 ms
 *  and 1.5 ms after Now(); each records its firing in `log`. */
void
ScheduleFanOut(EventQueue& queue, std::vector<Firing>* log)
{
    for (int i = 0; i < kFanOut; ++i) {
        queue.ScheduleAfter(Micros(500 * (1 + i % 3)), [&queue, log, i] {
            log->emplace_back(queue.Now().count(), i);
        });
    }
}

/** The (time, seq) order of a parent fired at 1 ms with a fan-out,
 *  then (when `rearmed`) again at 2 ms. The re-arm draws its sequence
 *  number after every child, so it runs after the 2 ms children. */
std::vector<Firing>
FanOutOrder(bool rearmed)
{
    std::vector<Firing> expected{{Millis(1).count(), kParent}};
    for (int offset = 0; offset < 3; ++offset) {
        for (int i = offset; i < kFanOut; i += 3) {
            expected.emplace_back(Micros(1500 + 500 * offset).count(), i);
        }
        if (rearmed && offset == 1) {
            expected.emplace_back(Millis(2).count(), kParent);
        }
    }
    return expected;
}

TEST(ArenaGrowthTest, RearmingClosureThatGrowsTheArenaFiresOnTime)
{
    EventQueue queue;
    std::vector<Firing> log;
    int fired = 0;
    EventHandle handle = queue.ScheduleAt(Millis(1), [&] {
        log.emplace_back(queue.Now().count(), kParent);
        if (++fired == 1) {
            ScheduleFanOut(queue, &log);
        }
        return Next::After(Millis(1));
    });
    EXPECT_EQ(queue.stats().arena_blocks, 1u);
    queue.RunUntil(Millis(1));
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(queue.stats().arena_blocks, 3u);
    EXPECT_TRUE(handle.pending());  // Re-filed at 2 ms under its handle.
    EXPECT_EQ(queue.pending(), 1u + kFanOut);
    queue.RunUntil(Millis(2) + Micros(500));
    EXPECT_EQ(fired, 2);
    EXPECT_TRUE(handle.pending());
    EXPECT_EQ(log, FanOutOrder(true));
    handle.Cancel();
    EXPECT_TRUE(handle.cancelled());
    EXPECT_EQ(queue.pending(), 0u);
    queue.RunUntil(Millis(10));
    EXPECT_EQ(fired, 2);
    const EventQueueStats stats = queue.stats();
    EXPECT_EQ(stats.executed, 2u + kFanOut);
    EXPECT_EQ(stats.scheduled, 3u + kFanOut);  // 2 re-arms.
    EXPECT_EQ(stats.cancelled, 1u);
    EXPECT_EQ(stats.arena_blocks, 3u);
}

TEST(ArenaGrowthTest, FireOnceClosureThatGrowsTheArenaIsRecycled)
{
    EventQueue queue;
    std::vector<Firing> log;
    EventHandle handle = queue.ScheduleAt(Millis(1), [&] {
        log.emplace_back(queue.Now().count(), kParent);
        ScheduleFanOut(queue, &log);
    });
    ASSERT_TRUE(queue.Step());
    EXPECT_EQ(queue.stats().arena_blocks, 3u);
    EXPECT_FALSE(handle.pending());
    EXPECT_EQ(queue.pending(), static_cast<std::size_t>(kFanOut));
    // The parent's slot was the last one freed, so the next event takes
    // it under a new generation: the old handle cannot reach it.
    int later = 0;
    EventHandle next = queue.ScheduleAt(Millis(3), [&later] { ++later; });
    handle.Cancel();
    EXPECT_FALSE(handle.cancelled());
    EXPECT_TRUE(next.pending());
    queue.RunUntil(Millis(10));
    EXPECT_EQ(later, 1);
    EXPECT_EQ(log, FanOutOrder(false));
    EXPECT_EQ(queue.stats().executed, 2u + kFanOut);
    EXPECT_EQ(queue.stats().arena_blocks, 3u);
}

TEST(ArenaGrowthTest, ThrowingClosureThatGrowsTheArenaIsRecycled)
{
    EventQueue queue;
    Lifetimes life;
    std::vector<Firing> log;
    const auto grow_then_throw = [&]() -> Next {
        log.emplace_back(queue.Now().count(), kParent);
        ScheduleFanOut(queue, &log);
        throw std::runtime_error("model crashed");
    };
    EventHandle handle = queue.ScheduleAt(
        Millis(1), Counted<decltype(grow_then_throw)>(&life, grow_then_throw));
    EXPECT_THROW(queue.RunUntil(Millis(10)), std::runtime_error);
    EXPECT_EQ(life.built, life.destroyed);
    EXPECT_FALSE(handle.pending());
    EXPECT_EQ(queue.pending(), static_cast<std::size_t>(kFanOut));
    EXPECT_EQ(queue.stats().arena_blocks, 3u);
    int later = 0;
    EventHandle next = queue.ScheduleAt(Millis(3), [&later] { ++later; });
    handle.Cancel();
    EXPECT_FALSE(handle.cancelled());
    EXPECT_TRUE(next.pending());
    queue.RunUntil(Millis(10));
    EXPECT_EQ(later, 1);
    EXPECT_EQ(log, FanOutOrder(false));
    EXPECT_EQ(queue.pending(), 0u);
}

TEST(ArenaGrowthTest, CancelledClosureWhoseDestructorGrowsTheArena)
{
    // Cancelling destroys the closure in its slot; a destructor that
    // schedules grows the arena before the slot reaches the free list.
    EventQueue queue;
    std::vector<Firing> log;
    struct FanOutOnDestroy {
        EventQueue* queue;
        std::vector<Firing>* log;
        bool armed = true;
        FanOutOnDestroy(EventQueue* q, std::vector<Firing>* l)
            : queue(q), log(l)
        {}
        FanOutOnDestroy(FanOutOnDestroy&& other) noexcept
            : queue(other.queue), log(other.log)
        {
            other.armed = false;
        }
        ~FanOutOnDestroy()
        {
            if (armed) {
                ScheduleFanOut(*queue, log);
            }
        }
        void operator()() const {}
    };
    queue.RunUntil(Millis(1));
    EventHandle handle =
        queue.ScheduleAt(Millis(5), FanOutOnDestroy(&queue, &log));
    handle.Cancel();
    EXPECT_TRUE(handle.cancelled());
    EXPECT_EQ(queue.stats().arena_blocks, 3u);
    EXPECT_EQ(queue.pending(), static_cast<std::size_t>(kFanOut));
    // The free list stayed intact: the next two schedules take two
    // distinct free slots, and every event fires once.
    int later = 0;
    queue.ScheduleAt(Millis(3), [&later] { ++later; });
    queue.ScheduleAt(Millis(3), [&later] { ++later; });
    queue.RunUntil(Millis(10));
    EXPECT_EQ(later, 2);
    std::vector<Firing> expected = FanOutOrder(false);
    expected.erase(expected.begin());  // The closure never fired.
    EXPECT_EQ(log, expected);
    EXPECT_EQ(queue.pending(), 0u);
}

TEST(ConfinedSharedTest, LastOwnerDestroysTheObject)
{
    int destroyed = 0;
    struct Tracked {
        int* destroyed;
        ~Tracked() { ++*destroyed; }
    };
    {
        auto a = ConfinedShared<Tracked>::Make(Tracked{&destroyed});
        destroyed = 0;  // Ignore the temporary's destruction.
        ConfinedShared<Tracked> b = a;
        ConfinedShared<Tracked> c = std::move(b);
        EXPECT_EQ(a.get(), c.get());
        a = ConfinedShared<Tracked>();
        EXPECT_FALSE(a);
        EXPECT_EQ(destroyed, 0);  // c still owns it.
    }
    EXPECT_EQ(destroyed, 1);
}

TEST(PeriodicTaskTest, TicksAtPeriod)
{
    EventQueue queue;
    std::vector<TimePoint> ticks;
    PeriodicTask task(queue, Millis(10),
                      [&] { ticks.push_back(queue.Now()); });
    queue.RunUntil(Millis(35));
    ASSERT_EQ(ticks.size(), 3u);
    EXPECT_EQ(ticks[0], Millis(10));
    EXPECT_EQ(ticks[1], Millis(20));
    EXPECT_EQ(ticks[2], Millis(30));
}

TEST(PeriodicTaskTest, StopHaltsTicks)
{
    EventQueue queue;
    int count = 0;
    PeriodicTask task(queue, Millis(10), [&] { ++count; });
    queue.RunUntil(Millis(25));
    task.Stop();
    queue.RunUntil(Millis(100));
    EXPECT_EQ(count, 2);
}

TEST(PeriodicTaskTest, DestructionCancelsPending)
{
    EventQueue queue;
    int count = 0;
    {
        PeriodicTask task(queue, Millis(10), [&] { ++count; });
        queue.RunUntil(Millis(15));
    }
    queue.RunUntil(Millis(100));
    EXPECT_EQ(count, 1);
}

TEST(PeriodicTaskTest, RejectsNonPositivePeriod)
{
    // A zero period would re-fire at one instant forever, and a negative
    // one clamps to zero; neither may reach the queue.
    EventQueue queue;
    EXPECT_THROW(PeriodicTask(queue, Duration::zero(), [] {}),
                 std::invalid_argument);
    EXPECT_THROW(PeriodicTask(queue, Nanos(-5), [] {}),
                 std::invalid_argument);
    EXPECT_EQ(queue.stats().scheduled, 0u);
}

TEST(PeriodicTaskTest, StopFromItsOwnTickEndsTheLoop)
{
    EventQueue queue;
    int count = 0;
    PeriodicTask* self = nullptr;
    PeriodicTask task(queue, Millis(10), [&] {
        if (++count == 3) {
            self->Stop();
        }
    });
    self = &task;
    queue.RunUntil(Millis(100));
    EXPECT_EQ(count, 3);
    EXPECT_EQ(queue.pending(), 0u);
}

TEST(PeriodicTaskTest, StopLeavesNothingInTheQueue)
{
    EventQueue queue;
    PeriodicTask task(queue, Millis(10), [] {});
    queue.RunUntil(Millis(15));
    EXPECT_EQ(queue.pending(), 1u);  // The armed next tick.
    task.Stop();
    // Stop cancels the pending tick eagerly — no dead event lingers.
    EXPECT_EQ(queue.pending(), 0u);
}

// ---------------------------------------------------------------------------
// Samplers
// ---------------------------------------------------------------------------

TEST(ZipfSamplerTest, UniformWhenSkewZero)
{
    Rng rng(41);
    ZipfSampler zipf(10, 0.0);
    std::vector<int> counts(10, 0);
    for (int i = 0; i < 20000; ++i) {
        ++counts[zipf.Sample(rng)];
    }
    for (const int c : counts) {
        EXPECT_NEAR(c, 2000, 250);
    }
}

TEST(ZipfSamplerTest, SkewFavorsLowRanks)
{
    Rng rng(43);
    ZipfSampler zipf(100, 1.0);
    std::vector<int> counts(100, 0);
    for (int i = 0; i < 50000; ++i) {
        ++counts[zipf.Sample(rng)];
    }
    EXPECT_GT(counts[0], counts[10]);
    EXPECT_GT(counts[10], counts[99]);
}

TEST(ZipfSamplerTest, PmfSumsToOne)
{
    ZipfSampler zipf(64, 0.9);
    double total = 0.0;
    for (std::size_t i = 0; i < 64; ++i) {
        total += zipf.Pmf(i);
    }
    EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST(ZipfSamplerTest, PmfMonotonicallyDecreasing)
{
    ZipfSampler zipf(32, 1.2);
    for (std::size_t i = 1; i < 32; ++i) {
        EXPECT_GE(zipf.Pmf(i - 1), zipf.Pmf(i) - 1e-12);
    }
}

TEST(RankPermutationTest, IsAPermutation)
{
    Rng rng(47);
    RankPermutation perm(50, rng);
    std::vector<bool> seen(50, false);
    for (std::size_t r = 0; r < 50; ++r) {
        const auto item = perm.ItemFor(r);
        ASSERT_LT(item, 50u);
        EXPECT_FALSE(seen[item]);
        seen[item] = true;
    }
}

TEST(RankPermutationTest, ChurnPreservesPermutation)
{
    Rng rng(53);
    RankPermutation perm(50, rng);
    perm.Churn(0.2, rng);
    std::vector<bool> seen(50, false);
    for (std::size_t r = 0; r < 50; ++r) {
        const auto item = perm.ItemFor(r);
        EXPECT_FALSE(seen[item]);
        seen[item] = true;
    }
}

TEST(RankPermutationTest, ShuffleChangesMapping)
{
    Rng rng(59);
    RankPermutation perm(100, rng);
    std::vector<std::size_t> before(100);
    for (std::size_t r = 0; r < 100; ++r) {
        before[r] = perm.ItemFor(r);
    }
    perm.Shuffle(rng);
    int moved = 0;
    for (std::size_t r = 0; r < 100; ++r) {
        if (perm.ItemFor(r) != before[r]) {
            ++moved;
        }
    }
    EXPECT_GT(moved, 50);
}

// Property sweep: zipf head coverage grows with skew.
class ZipfSkewTest : public ::testing::TestWithParam<double>
{
};

TEST_P(ZipfSkewTest, Top10CoverageGrowsWithSkew)
{
    const double skew = GetParam();
    ZipfSampler zipf(100, skew);
    double top10 = 0.0;
    for (std::size_t i = 0; i < 10; ++i) {
        top10 += zipf.Pmf(i);
    }
    // Uniform coverage of the top 10 items is 0.10.
    if (skew == 0.0) {
        EXPECT_NEAR(top10, 0.10, 1e-9);
    } else {
        EXPECT_GT(top10, 0.10);
    }
}

INSTANTIATE_TEST_SUITE_P(Skews, ZipfSkewTest,
                         ::testing::Values(0.0, 0.5, 0.9, 1.2, 1.5));

}  // namespace
}  // namespace sol::sim
