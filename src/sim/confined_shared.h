/**
 * @file
 * Shared ownership with a plain, non-atomic reference count.
 *
 * std::shared_ptr pays a lock-prefixed read-modify-write for every copy
 * and every release once the process has started a second thread. The
 * simulator copies shared owners on every event — each returned
 * EventHandle shares its queue's arena, and each runtime continuation
 * carries its runtime's liveness token — so those owners use this
 * plain count instead.
 *
 * Thread-confinement contract. Per-shard simulation state — one
 * EventQueue, every EventHandle into it, every continuation scheduled
 * on it, and the liveness tokens those continuations carry — is only
 * touched by the one thread stepping that shard. A shard may move to
 * another thread between windows, but every such hand-off is ordered by
 * a happens-before edge (the fleet window's release/acquire check-in
 * and opening, a thread join, a mutex). ConfinedShared relies on exactly that: all copies of one
 * pointer may be created, copied and destroyed on one thread at a time,
 * never concurrently. Sharing one across threads without such an edge
 * is a data race, which ThreadSanitizer reports.
 */
#pragma once

#include <cstddef>
#include <utility>

namespace sol::sim {

/**
 * Reference-counted owner of one T whose copies stay on one thread at a
 * time (see the file comment). Copying increments and destruction
 * decrements a plain counter stored next to the object; the last owner
 * destroys it. Empty (null) when default-constructed or moved from.
 */
template <typename T>
class ConfinedShared
{
  public:
    ConfinedShared() = default;

    /** Allocates a T constructed from `args`, owned once. */
    template <typename... Args>
    static ConfinedShared
    Make(Args&&... args)
    {
        ConfinedShared owner;
        owner.box_ = new Box(std::forward<Args>(args)...);
        return owner;
    }

    ConfinedShared(const ConfinedShared& other) : box_(other.box_)
    {
        if (box_ != nullptr) {
            ++box_->refs;
        }
    }

    ConfinedShared(ConfinedShared&& other) noexcept
        : box_(std::exchange(other.box_, nullptr))
    {}

    ConfinedShared&
    operator=(ConfinedShared other) noexcept
    {
        std::swap(box_, other.box_);
        return *this;
    }

    ~ConfinedShared()
    {
        if (box_ != nullptr && --box_->refs == 0) {
            delete box_;
        }
    }

    T* get() const { return box_ != nullptr ? &box_->value : nullptr; }
    T& operator*() const { return box_->value; }
    T* operator->() const { return &box_->value; }
    explicit operator bool() const { return box_ != nullptr; }

  private:
    struct Box {
        template <typename... Args>
        explicit Box(Args&&... args) : value(std::forward<Args>(args)...)
        {}

        std::size_t refs = 1;
        T value;
    };

    Box* box_ = nullptr;
};

}  // namespace sol::sim
