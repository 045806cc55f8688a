#include "sim/event_queue.h"

#include <stdexcept>
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
        Fire(arena, event);
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
    detail::EventArena& arena = *arena_;
    detail::EventArena::Popped event;
    if (!arena.PopEarliest(kTimeInfinity, &event)) {
        return false;
    }
    Fire(arena, event);
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
    // A period of zero would re-fire at one instant forever (and a
    // negative one clamps to zero), so no RunUntil would return.
    if (period_ <= Duration::zero()) {
        throw std::invalid_argument("PeriodicTask period must be positive");
    }
    next_ = queue_.ScheduleAfter(period_, [this, alive = alive_] {
        if (!*alive) {
            return Next::Done();
        }
        fn_();
        // fn_ may have stopped or destroyed this task.
        return *alive ? Next::After(period_) : Next::Done();
    });
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

}  // namespace sol::sim
