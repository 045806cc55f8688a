/**
 * @file
 * Annotated synchronization primitives: std::mutex and friends wrapped
 * so Clang Thread Safety Analysis can track them.
 *
 * libstdc++'s std::mutex / std::lock_guard carry no capability
 * attributes, so `-Wthread-safety` cannot see an acquisition through
 * them: every SOL_GUARDED_BY member would warn even in correct code.
 * These wrappers are zero-cost shims (one inlined forwarding call per
 * operation, no extra state) that carry the attributes:
 *
 *   - Mutex / SharedMutex: SOL_CAPABILITY-annotated lockables.
 *   - ScopedLock<M> / SharedScopedLock<M>: the std::lock_guard /
 *     std::shared_lock replacements, declared SOL_SCOPED_CAPABILITY.
 *   - NullMutex: the simulation backend's no-op lockable (moved here
 *     from epoch_engine.h), annotated like a real one so EpochEngine's
 *     discipline is checked identically under both policies.
 *   - ConditionVariable: std::condition_variable_any, which (unlike
 *     std::condition_variable) waits on any BasicLockable — here a
 *     ScopedLock, so the guarded state a wait predicate reads stays
 *     inside the analyzed lock scope.
 *   - Relaxed<T>: a lock-free value whose every access is a relaxed
 *     atomic, for counters, peaks and flags that order no other memory
 *     (the threaded EpochEngine's stats and its halt/model flags).
 *
 * Condition-variable waits release and reacquire the lock internally;
 * the analysis does not model that (the wait happens inside a system
 * header, where diagnostics are suppressed) and sees only the truth
 * that matters statically: the lock is held before and after the wait.
 * Wait *predicates* run with the lock held but are separate closures
 * the analysis walks into without that context — annotate them with
 * SOL_NO_THREAD_SAFETY_ANALYSIS (see ThreadedRuntime::ActuatorLoop).
 */
#pragma once

#include <atomic>
#include <concepts>
#include <condition_variable>
#include <mutex>
#include <shared_mutex>
#include <type_traits>

#include "core/thread_annotations.h"

namespace sol::core {

/** Annotated std::mutex. Prefer ScopedLock over manual lock/unlock. */
class SOL_CAPABILITY("mutex") Mutex
{
  public:
    Mutex() = default;
    Mutex(const Mutex&) = delete;
    Mutex& operator=(const Mutex&) = delete;

    void lock() SOL_ACQUIRE() { m_.lock(); }
    void unlock() SOL_RELEASE() { m_.unlock(); }
    bool try_lock() SOL_TRY_ACQUIRE(true) { return m_.try_lock(); }

  private:
    std::mutex m_;
};

/** Annotated std::shared_mutex (reader/writer lock). */
class SOL_CAPABILITY("shared_mutex") SharedMutex
{
  public:
    SharedMutex() = default;
    SharedMutex(const SharedMutex&) = delete;
    SharedMutex& operator=(const SharedMutex&) = delete;

    void lock() SOL_ACQUIRE() { m_.lock(); }
    void unlock() SOL_RELEASE() { m_.unlock(); }
    void lock_shared() SOL_ACQUIRE_SHARED() { m_.lock_shared(); }
    void unlock_shared() SOL_RELEASE_SHARED() { m_.unlock_shared(); }

  private:
    std::shared_mutex m_;
};

/**
 * Lockable that does nothing: the simulation backend is single-
 * threaded, so EpochEngine's queue guard compiles away — but it still
 * carries the capability attributes, so the sim policy's locking
 * discipline is analyzed exactly like the threaded policy's.
 */
class SOL_CAPABILITY("mutex") NullMutex
{
  public:
    void lock() SOL_ACQUIRE() {}
    void unlock() SOL_RELEASE() {}
    bool try_lock() SOL_TRY_ACQUIRE(true) { return true; }
};

/**
 * RAII exclusive lock over any annotated lockable (the std::lock_guard
 * replacement). Also BasicLockable itself — lock()/unlock() exist so a
 * ConditionVariable can release/reacquire it during a wait — but user
 * code should never call them directly.
 */
template <typename M>
class SOL_SCOPED_CAPABILITY ScopedLock
{
  public:
    explicit ScopedLock(M& m) SOL_ACQUIRE(m) : m_(m) { m_.lock(); }
    ~ScopedLock() SOL_RELEASE() { m_.unlock(); }

    ScopedLock(const ScopedLock&) = delete;
    ScopedLock& operator=(const ScopedLock&) = delete;

    /** For ConditionVariable only. */
    void lock() SOL_ACQUIRE() { m_.lock(); }
    /** For ConditionVariable only. */
    void unlock() SOL_RELEASE() { m_.unlock(); }

  private:
    M& m_;
};

/** RAII shared (reader) lock over a SharedMutex. */
template <typename M>
class SOL_SCOPED_CAPABILITY SharedScopedLock
{
  public:
    explicit SharedScopedLock(M& m) SOL_ACQUIRE_SHARED(m) : m_(m)
    {
        m_.lock_shared();
    }
    ~SharedScopedLock() SOL_RELEASE() { m_.unlock_shared(); }

    SharedScopedLock(const SharedScopedLock&) = delete;
    SharedScopedLock& operator=(const SharedScopedLock&) = delete;

  private:
    M& m_;
};

using MutexLock = ScopedLock<Mutex>;
using ReaderLock = SharedScopedLock<SharedMutex>;
using WriterLock = ScopedLock<SharedMutex>;

/** Condition variable that waits on a ScopedLock (BasicLockable). */
using ConditionVariable = std::condition_variable_any;

/**
 * A value any thread may update or read without a lock, where nothing
 * else is published through it: every access is a relaxed atomic. It
 * reads and writes like a plain T (`++n`, `n += d`, `flag = true`,
 * `if (flag)`), so code templated over plain or Relaxed fields is
 * written once. Updates are exact, never lost; a reader on another
 * thread may see a value a few updates old, and two fields read one
 * after the other may be skewed by in-flight updates.
 */
template <typename T>
class Relaxed
{
  public:
    Relaxed() : value_(T{}) {}
    Relaxed(T value) : value_(value) {}
    Relaxed(const Relaxed&) = delete;
    Relaxed& operator=(const Relaxed&) = delete;

    T load() const { return value_.load(std::memory_order_relaxed); }
    operator T() const { return load(); }

    Relaxed&
    operator=(T value)
    {
        value_.store(value, std::memory_order_relaxed);
        return *this;
    }

    /** Adds one; returns the new value. */
    T
    operator++() requires std::integral<T>
    {
        return value_.fetch_add(1, std::memory_order_relaxed) + 1;
    }

    Relaxed&
    operator+=(T delta)
    {
        if constexpr (std::integral<T>) {
            value_.fetch_add(delta, std::memory_order_relaxed);
        } else {
            T seen = load();
            while (!value_.compare_exchange_weak(
                seen, seen + delta, std::memory_order_relaxed)) {
            }
        }
        return *this;
    }

    /** Raises the value to at least `value`; never lowers it. */
    void
    Raise(T value)
    {
        T seen = load();
        while (seen < value &&
               !value_.compare_exchange_weak(seen, value,
                                             std::memory_order_relaxed)) {
        }
    }

  private:
    std::atomic<T> value_;
};

/** Raises a plain peak to at least `value` (Relaxed::Raise's twin). */
template <typename T>
void
Raise(T& peak, std::type_identity_t<T> value)
{
    if (peak < value) {
        peak = value;
    }
}

template <typename T>
void
Raise(Relaxed<T>& peak, std::type_identity_t<T> value)
{
    peak.Raise(value);
}

}  // namespace sol::core
