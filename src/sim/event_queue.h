/**
 * @file
 * Discrete-event simulation core.
 *
 * The EventQueue is the heart of the deterministic experiment harness: the
 * node, the workloads, and the SOL SimRuntime all schedule callbacks on it
 * and observe a single shared virtual clock. Events that fire at the same
 * instant execute in insertion order, so a fixed seed reproduces a run
 * exactly.
 *
 * A closure returns void to fire once, or a sim::Next to say when it
 * wants to run again: Next::After(delay), Next::At(time) or
 * Next::Done(). Every periodic loop in the runtime — node drivers
 * (PeriodicTask), agent collect ticks, actuator assessments — is such a
 * self-re-arming continuation: its closure is built once, and each
 * re-arm files the slot it already holds again. The re-arm draws its
 * sequence number when the closure returns, where a ScheduleAfter
 * written as the closure's last statement would draw it, so the event
 * order is the same as rebuilding the closure each time. A re-arm
 * counts as a schedule in every counter and against the pending limit.
 *
 * Internals (see sim/event_arena.h): events live in arena-allocated slots
 * addressed by 32-bit ids, keys and closure payloads in separate
 * parallel arrays, ordered by a monotone radix queue. A steady event
 * costs O(1) work: schedule appends its slot id to a bucket, cancel
 * swap-removes it, and pop takes the current instant's next event or
 * first redistributes the lowest occupied bucket. The schedule/fire
 * path performs no heap allocation (closures up to 24 bytes are stored
 * inline in the slot and fired in place) and no atomic read-modify-
 * write (handles and liveness tokens count references with
 * ConfinedShared, see sim/confined_shared.h). Stale handles are
 * invalidated in O(1) by a generation token, and pop order is the
 * strict (time, sequence) total order the seed binary-heap queue used —
 * same seeds produce byte-identical traces, which trace_hash()
 * fingerprints.
 *
 * Thread confinement: a queue, its handles and the continuations on it
 * belong to one thread at a time — the thread stepping the owning shard
 * in the current fleet window (sim/confined_shared.h states the
 * contract).
 */
#pragma once

#include <cstdint>
#include <functional>
#include <utility>

#include "sim/confined_shared.h"
#include "sim/event_arena.h"
#include "sim/time.h"

namespace sol::sim {

/**
 * Handle that allows a scheduled event to be cancelled.
 *
 * Cancellation is eager: the event is unlinked from the queue the
 * moment Cancel() runs, so a cancelled high-frequency timeout costs
 * nothing at its deadline. Cancelling an event that already fired (or
 * was already cancelled) is a harmless no-op — the generation token in
 * the handle can never match a recycled slot. Handles may outlive the
 * queue; every operation on a stale handle is safe and does nothing.
 *
 * The handle of a self-re-arming event names every occurrence: it is
 * pending() between firings, and Cancel() removes the pending one and
 * ends the loop. While the event fires it is not pending() and cannot
 * be cancelled through its handle; the closure returns Next::Done()
 * to stop itself.
 *
 * A handle shares ownership of the queue's arena through a non-atomic
 * ConfinedShared count, so it must stay on the thread that owns the
 * queue (see the file comment).
 */
class EventHandle
{
  public:
    EventHandle() = default;

    /** Removes the event from the queue if it has not fired yet. */
    void Cancel();

    /**
     * True if this handle's Cancel() took effect before the event
     * fired, or the event was rejected by the queue's pending limit.
     * Either way the callback is guaranteed never to run.
     */
    bool cancelled() const { return cancel_took_effect_; }

    /** True while the event is still scheduled (not fired/cancelled). */
    bool pending() const;

  private:
    friend class EventQueue;
    EventHandle(ConfinedShared<detail::EventArena> arena,
                std::uint32_t index, std::uint32_t generation)
        : arena_(std::move(arena)), index_(index), generation_(generation)
    {}

    /** Inert handle for events dropped by the pending limit. */
    static EventHandle
    Dropped()
    {
        EventHandle handle;
        handle.cancel_took_effect_ = true;
        return handle;
    }

    ConfinedShared<detail::EventArena> arena_;
    std::uint32_t index_ = detail::kNilEvent;
    std::uint32_t generation_ = 0;
    bool cancel_took_effect_ = false;
};

/** Counters describing an EventQueue's lifetime behavior. */
struct EventQueueStats {
    std::uint64_t scheduled = 0;  ///< Events admitted to the queue.
    std::uint64_t executed = 0;   ///< Events that fired.
    std::uint64_t cancelled = 0;  ///< Events removed before firing.
    std::uint64_t dropped = 0;    ///< Events rejected by the limit.
    std::size_t pending = 0;      ///< Events currently scheduled.
    std::size_t peak_pending = 0;
    std::size_t arena_capacity = 0;  ///< Event slots allocated.
    std::size_t arena_blocks = 0;
};

/** Virtual-time event queue with deterministic same-instant ordering. */
class EventQueue : public Clock
{
  public:
    EventQueue() : arena_(ConfinedShared<detail::EventArena>::Make()) {}

    /** Destroys every pending event unrun; outstanding handles become
     *  inert. */
    ~EventQueue() override { arena_->Close(); }

    EventQueue(const EventQueue&) = delete;
    EventQueue& operator=(const EventQueue&) = delete;

    /** Current virtual time. */
    TimePoint Now() const override { return now_; }

    /** Schedules fn at an absolute virtual time (clamped to >= Now()).
     *  `fn` takes no arguments and returns void (fires once) or
     *  sim::Next (re-arms in place; see the file comment). */
    template <typename Fn>
    EventHandle
    ScheduleAt(TimePoint when, Fn&& fn)
    {
        return Schedule(when, std::forward<Fn>(fn));
    }

    /** Schedules fn after a relative delay (clamped to >= 0). */
    template <typename Fn>
    EventHandle
    ScheduleAfter(Duration delay, Fn&& fn)
    {
        if (delay < Duration::zero()) {
            delay = Duration::zero();
        }
        return Schedule(now_ + delay, std::forward<Fn>(fn));
    }

    /** Runs events until the queue is empty or the horizon is reached.
     *
     * The virtual clock is advanced to the horizon even if the last event
     * fires earlier, so periodic drivers stay in lockstep across calls.
     */
    void RunUntil(TimePoint horizon);

    /** Runs events for a relative span of virtual time. */
    void RunFor(Duration span) { RunUntil(now_ + span); }

    /** Runs until the queue drains entirely (caps at max_events). */
    void RunUntilIdle(std::uint64_t max_events = 100'000'000);

    /** Executes the single earliest pending event, if any. */
    bool Step();

    /**
     * Backpressure bound on pending events (0 = unlimited, the
     * default). Once `limit` events are pending, further schedules are
     * rejected: the callback is discarded, stats().dropped counts it,
     * and the returned handle reports cancelled().
     *
     * A refused re-arm counts as a drop too: its closure is destroyed
     * and the loop ends.
     *
     * This is an OOM guard rail, not flow control: a drop is *lossy*.
     * Self-rescheduling loops (runtime timeouts, periodic drivers)
     * whose re-arm is dropped stay silently stalled for the rest of
     * the run, so the limit must sit far above the workload's peak
     * (stats().peak_pending) and stats().dropped must be checked —
     * any non-zero value means the run's results are degraded. The
     * fleet driver surfaces it as the `fleet.queue.dropped` gauge.
     */
    void SetPendingLimit(std::size_t limit) { pending_limit_ = limit; }

    /** Number of events still pending (cancelled events excluded —
     *  cancellation removes them immediately). */
    std::size_t pending() const { return arena_->pending(); }

    /** Total events executed so far (cancelled events excluded). */
    std::uint64_t executed() const { return executed_; }

    /**
     * Order-sensitive FNV-1a fingerprint of every (time, sequence)
     * pair executed so far. Two runs of the same seeded simulation
     * produce the same hash; any divergence in event order or timing
     * changes it. The determinism regression tests and the fleet bench
     * compare these across runs.
     */
    std::uint64_t trace_hash() const { return trace_hash_; }

    /** Lifetime counters (allocation footprint, drops, peaks). */
    EventQueueStats stats() const;

  private:
    /** Fires a popped event and, when its closure re-arms, files the
     *  same slot again under a sequence number drawn now — after every
     *  event the closure scheduled — or drops the re-arm at the
     *  pending limit as a refused schedule. */
    void
    Fire(detail::EventArena& arena, const detail::EventArena::Popped& event)
    {
        now_ = event.when;
        ++executed_;
        MixTrace(event.when, event.seq);
        const Next next = arena.FirePopped(event);
        if (!next.rearms()) {
            return;
        }
        if (pending_limit_ != 0 && arena.pending() >= pending_limit_) {
            ++dropped_;
            arena.Discard(event);
            return;
        }
        arena.Refile(event, next.When(now_), next_seq_++);
    }

    template <typename Fn>
    EventHandle
    Schedule(TimePoint when, Fn&& fn)
    {
        if (when < now_) {
            when = now_;
        }
        detail::EventArena& arena = *arena_;
        if (pending_limit_ != 0 && arena.pending() >= pending_limit_) {
            ++dropped_;
            return EventHandle::Dropped();
        }
        const std::uint32_t index =
            arena.Push(when, next_seq_++, std::forward<Fn>(fn));
        return EventHandle(arena_, index, arena.GenerationOf(index));
    }

    /** Folds one executed event into the trace fingerprint. */
    void
    MixTrace(TimePoint when, std::uint64_t seq)
    {
        constexpr std::uint64_t kFnvPrime = 0x100000001b3ull;
        trace_hash_ ^= static_cast<std::uint64_t>(when.count());
        trace_hash_ *= kFnvPrime;
        trace_hash_ ^= seq;
        trace_hash_ *= kFnvPrime;
    }

    ConfinedShared<detail::EventArena> arena_;
    TimePoint now_{0};
    std::uint64_t next_seq_ = 0;
    std::uint64_t executed_ = 0;
    std::uint64_t dropped_ = 0;
    std::uint64_t trace_hash_ = 0xcbf29ce484222325ull;  // FNV offset basis.
    std::size_t pending_limit_ = 0;
};

/**
 * Runs a callback at a fixed period until stopped: one self-re-arming
 * event, scheduled once. Used by node drivers and telemetry samplers.
 */
class PeriodicTask
{
  public:
    /**
     * Starts ticking. The first tick fires at start + period.
     *
     * @param queue Event queue that owns time.
     * @param period Interval between ticks; std::invalid_argument
     *        unless positive (a zero period would never let time pass).
     * @param fn Callback invoked each tick.
     */
    PeriodicTask(EventQueue& queue, Duration period,
                 std::function<void()> fn);
    ~PeriodicTask();

    PeriodicTask(const PeriodicTask&) = delete;
    PeriodicTask& operator=(const PeriodicTask&) = delete;

    /** Stops future ticks; safe to call multiple times. The pending
     *  tick is cancelled eagerly, leaving nothing in the queue. */
    void Stop();

  private:
    EventQueue& queue_;
    Duration period_;
    std::function<void()> fn_;
    ConfinedShared<bool> alive_;
    EventHandle next_;  ///< Valid across re-arms: set once.
};

}  // namespace sol::sim
