/**
 * @file
 * Event storage and ordering for the discrete-event simulation core:
 * arena-allocated event slots ordered by a monotone radix queue.
 *
 *  - Next: what a continuation returns to run again — After(delay),
 *    At(time) or Done().
 *  - InlineEvent: a type-erased callable built in place in its slot,
 *    with a 24-byte inline buffer. Every closure the runtimes schedule
 *    fits inline, so the steady path performs no closure allocation;
 *    larger callables transparently spill to the heap for correctness.
 *    A closure returning void fires once. A closure returning Next is
 *    a self-re-arming continuation: when it asks to run again, it
 *    stays built in its slot and the slot is filed again, so a
 *    periodic loop builds its closure once in its whole life.
 *  - EventKey / EventArena: event slots addressed by dense 32-bit ids
 *    and recycled through a free list. The 32-byte key records — (time,
 *    sequence) plus the slot's place in the queue — sit in one
 *    slot-indexed array, two per cache line, which may move when the
 *    arena grows; the closure payloads sit in fixed-size blocks that
 *    never move, and are only touched on schedule and fire.
 *    Generation counters give O(1) handle invalidation:
 *    freeing a slot bumps its generation, so a stale handle can never
 *    touch a recycled event. A re-armed slot is never freed, so it
 *    keeps its generation and every handle to it stays valid.
 *
 * Ordering is a monotone radix queue (a radix heap). Schedules are
 * clamped to Now(), so no pending event is earlier than `last_`, the
 * time of the last popped event. Each event is filed in the bucket
 * named by the highest bit in which its time differs from last_:
 * bucket b >= 1 holds times that agree with last_ above bit b-1 and
 * have bit b-1 set, and bucket 0 holds the events at last_ itself —
 * the current instant — in sequence order. Every time in bucket b is
 * below every time in the buckets above it, so the earliest event is in
 * the lowest non-empty bucket, which one count-trailing-zeros on an
 * occupancy mask finds. Pop takes bucket 0's head. When bucket 0 is
 * empty, the lowest non-empty bucket is redistributed: its minimum
 * time becomes last_, and each of its events moves to a strictly lower
 * bucket, so an event moves at most 63 times in its life. Schedule
 * appends to a bucket and cancel swap-removes from one, both O(1);
 * bucket 0 tombstones a cancelled entry instead, to keep its sequence
 * order.
 *
 * Buckets are vectors of 32-bit slot ids and the keys stay in the slot
 * records, so a redistribution's key loads are independent of each
 * other, where a pointer-linked heap chases a chain of dependent loads
 * on every pop. There is no bucket width or other constant to tune: the
 * buckets are the bits of the time. Times are non-negative int64
 * nanoseconds, so two of them never differ in bit 63 and 64 buckets
 * (0..63) cover every case.
 *
 * Pop order is the strict (time, sequence) total order, independent of
 * bucket layout, so a fixed seed reproduces a run exactly.
 */
#pragma once

#include <algorithm>
#include <array>
#include <bit>
#include <cassert>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <new>
#include <type_traits>
#include <utility>
#include <vector>

#include "sim/time.h"

namespace sol::sim {

/**
 * What a self-re-arming continuation returns: run again after a delay,
 * at a time, or never. The queue files the event's slot again with the
 * closure still built in it, so handles to the event stay valid and
 * nothing is rebuilt.
 *
 * The re-arm takes its sequence number when the closure returns, after
 * every event the closure scheduled while it ran, exactly as a
 * ScheduleAfter written as the closure's last statement would: a
 * zero-delay re-arm runs after the closure's own same-instant children.
 */
class Next
{
  public:
    /** Run again `delay` from now (clamped to >= 0, as ScheduleAfter). */
    static constexpr Next
    After(Duration delay)
    {
        return Next(Kind::kAfter, delay);
    }

    /** Run again at `when` (clamped to >= Now(), as ScheduleAt). */
    static constexpr Next
    At(TimePoint when)
    {
        return Next(Kind::kAt, when);
    }

    /** Fire no more: the closure is destroyed and its slot recycled. */
    static constexpr Next Done() { return Next(Kind::kDone, Duration{0}); }

    constexpr bool rearms() const { return kind_ != Kind::kDone; }

    /** The re-arm time when the closure returned at `now`. */
    constexpr TimePoint
    When(TimePoint now) const
    {
        const TimePoint when = kind_ == Kind::kAfter ? now + value_ : value_;
        return when < now ? now : when;
    }

  private:
    enum class Kind : std::uint8_t { kDone, kAfter, kAt };

    constexpr Next(Kind kind, Duration value) : value_(value), kind_(kind)
    {}

    Duration value_;  ///< After's delay or At's time.
    Kind kind_;
};

}  // namespace sol::sim

namespace sol::sim::detail {

/** Sentinel slot id: "no event". */
inline constexpr std::uint32_t kNilEvent = 0xffffffffu;

/**
 * Type-erased callable built in place in an arena slot, with inline
 * small-buffer storage.
 *
 * Emplace() constructs a closure of up to kInlineBytes directly in the
 * buffer (no allocation) and boxes anything larger on the heap. A
 * stored closure never moves — it is built in its slot and fired there
 * — so there is no relocation path. Firing and destruction dispatch
 * through a static ops table chosen at compile time from the closure's
 * return type; an empty InlineEvent is two words of state.
 */
class alignas(32) InlineEvent
{
  public:
    /**
     * Inline capacity: what a 32-byte payload record (two per cache
     * line in the arena's payload array) leaves beside the ops
     * pointer. The runtimes' closures — a captured `this` plus a
     * ConfinedShared liveness token — take 16 bytes, so 8 are spare
     * for callers' own closures. Larger callables transparently box on
     * the heap; every steady-path closure in src/ fits.
     */
    static constexpr std::size_t kInlineBytes = 24;

    InlineEvent() = default;
    InlineEvent(const InlineEvent&) = delete;
    InlineEvent& operator=(const InlineEvent&) = delete;
    ~InlineEvent() { Reset(); }

    /** Stores `fn` in this (empty) event. */
    template <typename F>
    void
    Emplace(F&& fn)
    {
        using Fn = std::decay_t<F>;
        static_assert(std::is_invocable_v<Fn&>,
                      "event callables take no arguments");
        using Result = std::invoke_result_t<Fn&>;
        static_assert(std::is_void_v<Result> || std::is_same_v<Result, Next>,
                      "event callables return void (fire once) or "
                      "sim::Next (re-arm)");
        assert(ops_ == nullptr);
        if constexpr (sizeof(Fn) <= kInlineBytes &&
                      alignof(Fn) <= alignof(std::max_align_t)) {
            ::new (static_cast<void*>(storage_)) Fn(std::forward<F>(fn));
            ops_ = &kInlineOps<Fn>;
        } else {
            ::new (static_cast<void*>(storage_))
                Fn*(new Fn(std::forward<F>(fn)));
            ops_ = &kHeapOps<Fn>;
        }
    }

    /**
     * Runs the callable in one dispatch (the arena's fire path — one
     * indirect call). A fire-once closure, one that returns Done(), and
     * one that throws are destroyed by that same call, leaving this
     * event empty; a closure that re-arms stays built here.
     */
    Next
    Fire()
    {
        assert(ops_ != nullptr);
        const Ops* ops = ops_;
        ops_ = nullptr;
        const Next next = ops->fire(storage_);
        if (next.rearms()) {
            ops_ = ops;
        }
        return next;
    }

    /** Destroys the held callable (no-op when empty). */
    void
    Reset()
    {
        if (ops_ != nullptr) {
            ops_->destroy(storage_);
            ops_ = nullptr;
        }
    }

  private:
    struct Ops {
        /** Runs; destroys unless the closure re-arms. */
        Next (*fire)(void* storage);
        void (*destroy)(void* storage);
    };

    /**
     * Invokes `fn` and returns its re-arm request (Done() for a void
     * closure), calling `destroy` unless it re-arms — also when it
     * throws, so a throwing callback never leaks its captures.
     */
    template <typename Fn, typename Destroy>
    static Next
    Invoke(Fn& fn, Destroy destroy)
    {
        struct Guard {
            Destroy destroy;
            bool keep = false;
            ~Guard()
            {
                if (!keep) {
                    destroy();
                }
            }
        } guard{destroy};
        if constexpr (std::is_void_v<std::invoke_result_t<Fn&>>) {
            fn();
            return Next::Done();
        } else {
            const Next next = fn();
            guard.keep = next.rearms();
            return next;
        }
    }

    template <typename Fn>
    static Next
    InlineFire(void* storage)
    {
        Fn* fn = static_cast<Fn*>(storage);
        return Invoke(*fn, [fn] { fn->~Fn(); });
    }
    template <typename Fn>
    static void
    InlineDestroy(void* storage)
    {
        static_cast<Fn*>(storage)->~Fn();
    }
    template <typename Fn>
    static constexpr Ops kInlineOps = {&InlineFire<Fn>, &InlineDestroy<Fn>};

    template <typename Fn>
    static Fn*&
    Boxed(void* storage)
    {
        return *static_cast<Fn**>(storage);
    }
    template <typename Fn>
    static Next
    HeapFire(void* storage)
    {
        Fn* fn = Boxed<Fn>(storage);
        return Invoke(*fn, [fn] { delete fn; });
    }
    template <typename Fn>
    static void
    HeapDestroy(void* storage)
    {
        delete Boxed<Fn>(storage);
    }
    template <typename Fn>
    static constexpr Ops kHeapOps = {&HeapFire<Fn>, &HeapDestroy<Fn>};

    alignas(std::max_align_t) unsigned char storage_[kInlineBytes];
    const Ops* ops_ = nullptr;
};

/**
 * One event slot's key record: the (time, sequence) ordering key plus
 * the slot's place in the radix queue. 32 bytes (two per cache line),
 * packed apart from the closure payloads, so redistribution and cancel
 * never drag closure bytes through the cache.
 *
 * `bucket` is kNoBucket while the slot is free or its event has been
 * popped and is firing; a handle's Cancel() is rejected then. While the
 * slot sits on the free list, `pos` doubles as the next-free link.
 */
struct alignas(32) EventKey {
    static constexpr std::uint32_t kNoBucket = 0xffffffffu;

    TimePoint when{0};
    std::uint64_t seq = 0;
    std::uint32_t generation = 0;  ///< Bumped on Free; validates handles.
    std::uint32_t bucket = kNoBucket;  ///< Radix bucket holding the slot.
    std::uint32_t pos = kNilEvent;     ///< Index within that bucket.
};

static_assert(sizeof(void*) != 8 || sizeof(EventKey) == 32,
              "EventKey must stay half a cache line on 64-bit targets");
static_assert(sizeof(void*) != 8 || sizeof(InlineEvent) == 32,
              "InlineEvent must stay half a cache line on 64-bit "
              "targets");

/**
 * Arena-allocated event slots ordered by a monotone radix queue (see
 * the file comment).
 *
 * Slots are addressed by dense uint32 ids and recycled LIFO through a
 * free list. The EventKey records sit in one array indexed by slot id,
 * so a key lookup is a single load; that array may move when the arena
 * grows, so no EventKey reference is held across a closure call. The
 * InlineEvent payloads sit in fixed-size blocks that never move, so a
 * closure runs in place while it schedules and grows the arena. The
 * queue orders by (when, seq): strict total order, so same-instant
 * events run in insertion order.
 *
 * Owned by its EventQueue through a ConfinedShared pointer so that
 * EventHandles may outlive the queue: the queue Close()s the arena as
 * it dies, and a handle's later Cancel() finds no slot to touch.
 */
class EventArena
{
  public:
    /** Counters over the arena's whole lifetime. */
    struct Stats {
        std::uint64_t scheduled = 0;  ///< Events admitted by Push.
        std::uint64_t cancelled = 0;  ///< Events removed before firing.
        std::size_t peak_pending = 0;
        std::size_t capacity = 0;     ///< Event slots allocated.
        std::size_t blocks = 0;       ///< Fixed-size blocks allocated.
    };

    /**
     * Key of the event surfaced by PopEarliest. The payload stays in
     * the arena (slot out of the queue but still allocated) and is run
     * in place by FirePopped; the cached payload pointer stays valid
     * until the slot is recycled because payload blocks never move.
     */
    struct Popped {
        TimePoint when{0};
        std::uint64_t seq = 0;
        std::uint32_t index = kNilEvent;
        InlineEvent* fn = nullptr;
    };

    EventArena() = default;
    EventArena(const EventArena&) = delete;
    EventArena& operator=(const EventArena&) = delete;

    std::size_t pending() const { return live_; }

    Stats
    stats() const
    {
        Stats s = stats_;
        s.capacity = keys_.size();
        s.blocks = fns_.size();
        return s;
    }

    /**
     * Schedules `fn` at `when`, which must not be earlier than the last
     * popped event's time; returns its slot id (see GenerationOf). The
     * closure is built directly in its slot.
     */
    template <typename Fn>
    std::uint32_t
    Push(TimePoint when, std::uint64_t seq, Fn&& fn)
    {
        assert(when >= last_);
        if (free_head_ == kNilEvent) {
            Grow();
        }
        const std::uint32_t index = free_head_;
        // Build the closure before unlinking the slot, so a throwing
        // copy leaves the free list intact.
        payload(index).Emplace(std::forward<Fn>(fn));
        EventKey& k = key(index);
        free_head_ = k.pos;
        k.when = when;
        k.seq = seq;
        File(index, k);
        Admitted();
        return index;
    }

    /**
     * Pops the earliest event if it fires at or before `horizon`,
     * taking it out of the queue but leaving the slot allocated so the
     * closure can run in place. The caller must follow up with
     * FirePopped(*out), and with Refile or Discard when the closure
     * re-arms.
     *
     * last_ only ever moves to the time of an event that is popped, so
     * it never passes `horizon`: a RunUntil that stops short of the
     * next event leaves Now() schedulable.
     */
    bool
    PopEarliest(TimePoint horizon, Popped* out)
    {
        if (last_ > horizon) {
            return false;
        }
        std::vector<std::uint32_t>& current = buckets_[0];
        for (;;) {
            while (head_ < current.size()) {
                const std::uint32_t index = current[head_++];
                if (index == kNilEvent) {
                    continue;  // Cancelled at the current instant.
                }
                EventKey& k = key(index);
                out->when = k.when;
                out->seq = k.seq;
                out->index = index;
                out->fn = &payload(index);
                k.bucket = EventKey::kNoBucket;  // Firing: not cancellable.
                // The event leaves the pending count here, not when its
                // slot is recycled: a firing callback that re-arms itself
                // must see the pending() it would see after the event,
                // or a saturated pending limit would shed the re-arm and
                // stall the loop.
                --live_;
                return true;
            }
            current.clear();
            head_ = 0;
            if (!Redistribute(horizon)) {
                return false;
            }
        }
    }

    /**
     * Runs a popped event's closure directly from its (still allocated)
     * slot — one dispatch, no payload relocation — and returns what the
     * closure asked for. Payload blocks are address-stable, so the
     * closure may freely schedule new events (growing the arena and
     * moving the keys) while it runs; a Cancel() of the firing event
     * through its own handle is rejected because the slot is in no
     * bucket.
     *
     * A closure that fires once, returns Done() or throws is destroyed
     * and its slot recycled. One that re-arms keeps the slot, out of
     * every bucket and out of the pending count, until the caller
     * Refiles or Discards it.
     */
    Next
    FirePopped(const Popped& popped)
    {
        // RAII slot recycle: PopEarliest already took the event out of
        // the pending count, so even a throwing callback must not lose
        // the slot (or skip the generation bump that invalidates
        // handles). Runs after the payload's own destruction.
        struct RecycleGuard {
            EventArena* arena;
            const Popped* popped;
            bool keep = false;
            ~RecycleGuard()
            {
                if (!keep) {
                    arena->Recycle(*popped);
                }
            }
        } recycle{this, &popped};
        const Next next = popped.fn->Fire();
        recycle.keep = next.rearms();
        return next;
    }

    /**
     * Files a re-armed slot again at (`when`, `seq`) with its closure
     * and generation untouched, so its handles stay valid. Counts as a
     * schedule, exactly as the Push it replaces. `when` must not be
     * earlier than the popped event's time.
     */
    void
    Refile(const Popped& popped, TimePoint when, std::uint64_t seq)
    {
        assert(when >= last_);
        EventKey& k = key(popped.index);
        k.when = when;
        k.seq = seq;
        File(popped.index, k);
        Admitted();
    }

    /** Destroys a re-armed closure that will not run again (the
     *  pending limit refused its re-arm) and recycles its slot. */
    void
    Discard(const Popped& popped)
    {
        popped.fn->Reset();
        Recycle(popped);
    }

    /**
     * Eagerly removes a pending event (cancellation) in O(1); a no-op
     * returning false when the handle is stale (the event already fired
     * or is firing, was cancelled, or the slot was recycled).
     */
    bool
    Remove(std::uint32_t index, std::uint32_t generation)
    {
        if (!IsLive(index, generation)) {
            return false;
        }
        EventKey& k = key(index);
        std::vector<std::uint32_t>& bucket = buckets_[k.bucket];
        if (k.bucket == 0) {
            bucket[k.pos] = kNilEvent;  // Keeps the instant's order.
        } else {
            const std::uint32_t moved = bucket.back();
            bucket[k.pos] = moved;
            key(moved).pos = k.pos;
            bucket.pop_back();
            if (bucket.empty()) {
                mask_ &= ~(std::uint64_t{1} << k.bucket);
            }
        }
        ++stats_.cancelled;
        Free(index);
        return true;
    }

    /** True while the (index, generation) pair names a queued event. */
    bool
    IsLive(std::uint32_t index, std::uint32_t generation) const
    {
        return index < keys_.size() &&
               key(index).generation == generation &&
               key(index).bucket != EventKey::kNoBucket;
    }

    std::uint32_t
    GenerationOf(std::uint32_t index) const
    {
        return key(index).generation;
    }

    /**
     * Destroys every pending event unrun and releases all storage (the
     * owning queue is dying). Lifetime counters survive; every later
     * IsLive() and Remove() is false, since no slot id is in range.
     */
    void
    Close()
    {
        // Detach the storage first: a closure's destructor may cancel
        // through a handle into this arena, which must then find it
        // already empty.
        std::vector<std::unique_ptr<InlineEvent[]>> fns = std::move(fns_);
        fns_.clear();
        keys_ = {};
        buckets_ = {};
        free_head_ = kNilEvent;
        head_ = 0;
        mask_ = 0;
        live_ = 0;
    }

  private:
    static constexpr std::size_t kBlockShift = 7;
    static constexpr std::size_t kBlockSize = std::size_t{1} << kBlockShift;
    static constexpr std::size_t kBuckets = 64;
    /** Ids a bucket reserves when it first grows. A fresh queue fills
     *  its buckets from empty, and doubling from one id would
     *  reallocate at every power of two on the way up. */
    static constexpr std::size_t kMinBucketCapacity = 64;

    EventKey& key(std::uint32_t index) { return keys_[index]; }
    const EventKey& key(std::uint32_t index) const { return keys_[index]; }
    InlineEvent&
    payload(std::uint32_t index)
    {
        return fns_[index >> kBlockShift][index & (kBlockSize - 1)];
    }

    /** Appends a slot to the bucket its time selects relative to last_:
     *  the bit width of the XOR, 0 for the current instant. */
    void
    File(std::uint32_t index, EventKey& k)
    {
        const auto b = static_cast<std::uint32_t>(std::bit_width(
            static_cast<std::uint64_t>(k.when.count()) ^
            static_cast<std::uint64_t>(last_.count())));
        std::vector<std::uint32_t>& bucket = buckets_[b];
        k.bucket = b;
        k.pos = static_cast<std::uint32_t>(bucket.size());
        if (bucket.size() == bucket.capacity()) {
            bucket.reserve(
                std::max(kMinBucketCapacity, 2 * bucket.size()));
        }
        bucket.push_back(index);
        mask_ |= std::uint64_t{1} << b;
    }

    /**
     * Refills the empty current-instant bucket from the lowest
     * non-empty bucket: its minimum time becomes last_ and every event
     * in it is re-filed below it. Changes nothing and returns false
     * when the queue is empty or its earliest event is past `horizon`.
     */
    bool
    Redistribute(TimePoint horizon)
    {
        const std::uint64_t occupied = mask_ & ~std::uint64_t{1};
        if (occupied == 0) {
            return false;
        }
        const auto b = static_cast<std::uint32_t>(std::countr_zero(occupied));
        std::vector<std::uint32_t>& source = buckets_[b];
        TimePoint earliest = kTimeInfinity;
        for (const std::uint32_t index : source) {
            earliest = std::min(earliest, key(index).when);
        }
        if (earliest > horizon) {
            return false;
        }
        last_ = earliest;
        // Every event here agrees with the new last_ above bit b-1, so
        // each lands in a bucket below b: `source` is not appended to
        // while it is walked.
        for (const std::uint32_t index : source) {
            File(index, key(index));
        }
        source.clear();
        mask_ &= ~(std::uint64_t{1} << b);
        // The events now at last_ arrived in bucket order; restore the
        // instant's sequence order (later schedules at last_ carry
        // higher sequence numbers, so appending keeps it).
        std::vector<std::uint32_t>& current = buckets_[0];
        if (current.size() > 1) {
            std::sort(current.begin(), current.end(),
                      [this](std::uint32_t x, std::uint32_t y) {
                          return key(x).seq < key(y).seq;
                      });
            for (std::size_t i = 0; i < current.size(); ++i) {
                key(current[i]).pos = static_cast<std::uint32_t>(i);
            }
        }
        return true;
    }

    /** Counts one more pending event (a Push or a Refile). */
    void
    Admitted()
    {
        ++live_;
        ++stats_.scheduled;
        if (live_ > stats_.peak_pending) {
            stats_.peak_pending = live_;
        }
    }

    /** Pushes a fired slot, its closure already destroyed, on the free
     *  list; the generation bump invalidates its handles. */
    void
    Recycle(const Popped& popped)
    {
        EventKey& k = key(popped.index);
        ++k.generation;
        k.pos = free_head_;
        free_head_ = popped.index;
    }

    /** Recycles a cancelled slot: bumps its generation (invalidating
     *  every handle to the event), destroys the payload, and pushes the
     *  slot on the free list. The key is looked up again after the
     *  payload's destructor, which may schedule and so move the keys. */
    void
    Free(std::uint32_t index)
    {
        ++key(index).generation;
        key(index).bucket = EventKey::kNoBucket;
        payload(index).Reset();
        key(index).pos = free_head_;
        free_head_ = index;
        --live_;
    }

    /** Adds one payload block and its keys to the free list. Every
     *  allocation comes before the first change, so a throwing one
     *  leaves the arena as it was. */
    void
    Grow()
    {
        const std::size_t first = keys_.size();
        assert(first + kBlockSize < kNilEvent);
        auto fns = std::make_unique<InlineEvent[]>(kBlockSize);
        if (fns_.size() == fns_.capacity()) {
            fns_.reserve(2 * fns_.size() + 1);
        }
        keys_.resize(first + kBlockSize);
        fns_.push_back(std::move(fns));  // Reserved: cannot throw.
        // Threaded last-first so the lowest new index pops first.
        for (std::size_t i = first + kBlockSize; i-- > first;) {
            keys_[i].pos = free_head_;
            free_head_ = static_cast<std::uint32_t>(i);
        }
    }

    /** keys_[id]: every slot's key record, kBlockSize more per block. */
    std::vector<EventKey> keys_;
    /** fns_[id >> kBlockShift][id & (kBlockSize - 1)]: payloads. */
    std::vector<std::unique_ptr<InlineEvent[]>> fns_;
    /** buckets_[b]: slot ids filed under bit width b of (when ^ last_). */
    std::array<std::vector<std::uint32_t>, kBuckets> buckets_;
    TimePoint last_{0};  ///< Time of the last popped event.
    std::size_t head_ = 0;  ///< Next unread entry of buckets_[0].
    /** Bit b set while buckets_[b] has entries, for b >= 1. Bit 0 is
     *  never read: bucket 0 drains through head_. */
    std::uint64_t mask_ = 0;
    std::uint32_t free_head_ = kNilEvent;
    std::size_t live_ = 0;
    Stats stats_;
};

}  // namespace sol::sim::detail
