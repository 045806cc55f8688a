#include "sim/event_queue.h"

#include <cassert>
#include <utility>

namespace sol::sim {

void
EventHandle::Cancel()
{
    if (arena_ && arena_->Remove(index_, generation_)) {
        cancel_took_effect_ = true;
    }
}

bool
EventHandle::pending() const
{
    return arena_ && arena_->IsLive(index_, generation_);
}

void
EventQueue::RunUntil(TimePoint horizon)
{
    // Hoist the arena deref out of the hot loop; the arena cannot be
    // released while its owning queue is running.
    detail::EventArena& arena = *arena_;
    detail::EventArena::Popped event;
    while (arena.PopEarliest(horizon, &event)) {
        now_ = event.when;
        ++executed_;
        MixTrace(event.when, event.seq);
        arena.InvokePopped(event);
    }
    if (horizon > now_ && horizon != kTimeInfinity) {
        now_ = horizon;
    }
}

void
EventQueue::RunUntilIdle(std::uint64_t max_events)
{
    std::uint64_t budget = max_events;
    while (budget-- > 0 && Step()) {
    }
}

bool
EventQueue::Step()
{
    detail::EventArena::Popped event;
    if (!arena_->PopEarliest(kTimeInfinity, &event)) {
        return false;
    }
    now_ = event.when;
    ++executed_;
    MixTrace(event.when, event.seq);
    arena_->InvokePopped(event);
    return true;
}

EventQueueStats
EventQueue::stats() const
{
    const detail::EventArena::Stats arena = arena_->stats();
    EventQueueStats stats;
    stats.scheduled = arena.scheduled;
    stats.executed = executed_;
    stats.cancelled = arena.cancelled;
    stats.dropped = dropped_;
    stats.pending = arena_->pending();
    stats.peak_pending = arena.peak_pending;
    stats.arena_capacity = arena.capacity;
    stats.arena_blocks = arena.blocks;
    return stats;
}

PeriodicTask::PeriodicTask(EventQueue& queue, Duration period,
                           std::function<void()> fn)
    : queue_(queue),
      period_(period),
      fn_(std::move(fn)),
      alive_(ConfinedShared<bool>::Make(true))
{
    assert(period_ > Duration::zero());
    Arm();
}

PeriodicTask::~PeriodicTask()
{
    Stop();
}

void
PeriodicTask::Stop()
{
    *alive_ = false;
    next_.Cancel();
}

void
PeriodicTask::Arm()
{
    next_ = queue_.ScheduleAfter(period_, [this, alive = alive_] {
        if (!*alive) {
            return;
        }
        fn_();
        if (*alive) {
            Arm();
        }
    });
}

}  // namespace sol::sim
