/**
 * @file
 * Real-time SOL runtime: two OS threads joined by a condition-variable
 * prediction queue.
 *
 * This is the blocking-loop adapter around core::EpochEngine, which
 * owns the paper's section 4.2 epoch/assessment/safeguard semantics
 * (see epoch_engine.h — both runtimes share that single
 * implementation, so the semantics cannot drift apart). The Model
 * control loop and the Actuator control loop run in separately
 * scheduled threads, so a throttled or stalled model can never starve
 * the actuator, which keeps taking safe actions on its
 * max_actuation_delay timeout. Every RuntimeOptions ablation switch,
 * the queued-prediction bound, and the SetDataFault fault-injection
 * hook behave exactly as in SimRuntime (the parity suite in
 * tests/runtime_parity_test.cc asserts field-for-field identical
 * RuntimeStats); experiments use SimRuntime for determinism, while
 * examples and deployments use this.
 *
 * The time source is a policy (ClockPolicy template parameter):
 * deployments use the default SteadyClockPolicy (wall clock, real
 * sleeps); the parity tests substitute a manually advanced clock to
 * make the threaded runtime deterministic. Stats counters are
 * core::Relaxed atomics (AtomicRuntimeStats) so stats() snapshots
 * without stopping either loop.
 */
#pragma once

#include <atomic>
#include <chrono>
#include <functional>
#include <thread>
#include <utility>

#include "core/actuator.h"
#include "core/epoch_engine.h"
#include "core/sync.h"
#include "core/thread_annotations.h"
#include "core/model.h"
#include "core/runtime_options.h"
#include "core/runtime_stats.h"
#include "core/schedule.h"
#include "sim/time.h"

namespace sol::core {

/**
 * Default time-source policy: the OS steady clock and real sleeps.
 *
 * The origin is fixed at the first Start() so TimePoints stay
 * monotonic across Stop/Start cycles, matching the virtual clock's
 * behavior under SimRuntime restarts.
 */
class SteadyClockPolicy
{
  public:
    /** Called by Start() before the loop threads exist. */
    void
    OnStart()
    {
        if (!started_) {
            origin_ = std::chrono::steady_clock::now();
            started_ = true;
        }
    }

    /** Called by Stop() before joining; wakes custom clocks whose
     *  SleepFor can block indefinitely. Real sleeps are finite. */
    void Interrupt() {}

    sim::TimePoint
    Now() const
    {
        return std::chrono::duration_cast<sim::Duration>(
            std::chrono::steady_clock::now() - origin_);
    }

    void
    SleepFor(sim::Duration d)
    {
        std::this_thread::sleep_for(d);
    }

    /** Blocking wait until `ready` (the blocking-actuator ablation).
     *  `lock` is the caller's held ScopedLock over the queue mutex;
     *  the cv releases/reacquires it internally. */
    template <typename Lock, typename Ready>
    void
    Wait(ConditionVariable& cv, Lock& lock, Ready ready)
    {
        cv.wait(lock, ready);
    }

    /**
     * Wait until `ready` or the timeout.
     *
     * @return false when the wait timed out with `ready` still false.
     */
    template <typename Lock, typename Ready>
    bool
    WaitFor(ConditionVariable& cv, Lock& lock, sim::Duration timeout,
            Ready ready)
    {
        return cv.wait_for(lock, std::chrono::nanoseconds(timeout),
                           ready);
    }

  private:
    std::chrono::steady_clock::time_point origin_{};
    bool started_ = false;
};

/**
 * Runs one agent on real threads.
 *
 * @tparam D Telemetry datum type.
 * @tparam P Prediction payload type.
 * @tparam ClockPolicy Time source + blocking primitives (tests inject
 *         a manual clock; deployments keep the default).
 */
template <typename D, typename P, typename ClockPolicy = SteadyClockPolicy>
class ThreadedRuntime
{
  public:
    ThreadedRuntime(Model<D, P>& model, Actuator<P>& actuator,
                    const Schedule& schedule, RuntimeOptions options = {})
        : engine_(model, actuator, schedule, options)
    {
    }

    ~ThreadedRuntime() { Stop(); }

    ThreadedRuntime(const ThreadedRuntime&) = delete;
    ThreadedRuntime& operator=(const ThreadedRuntime&) = delete;

    /**
     * Starts both loops. Start after Stop resumes with a fresh epoch;
     * engine state (counters, a failing model assessment, a tripped
     * safeguard) persists across the restart.
     */
    void
    Start()
    {
        if (running_.exchange(true)) {
            return;
        }
        clock_.OnStart();
        const sim::TimePoint now = clock_.Now();
        engine_.OnStart(now);
        // Fixed before the threads spawn so the first assessment falls
        // due exactly one interval after start, however late the
        // actuator thread begins running.
        actuator_start_ = now;
        model_thread_ = std::thread([this] { ModelLoop(); });
        actuator_thread_ = std::thread([this] { ActuatorLoop(); });
    }

    /** Stops both loops and joins the threads. */
    void
    Stop()
    {
        if (!running_.exchange(false)) {
            return;
        }
        clock_.Interrupt();
        queue_cv_.notify_all();
        if (model_thread_.joinable()) {
            model_thread_.join();
        }
        if (actuator_thread_.joinable()) {
            actuator_thread_.join();
        }
        engine_.OnStop(clock_.Now());
    }

    bool running() const { return running_.load(); }

    /** Snapshot of the runtime counters (lock-free). */
    RuntimeStats
    stats() const
    {
        return engine_.stats().Snapshot();
    }

    /**
     * Installs the per-sample fault-injection hook (corrupted
     * counters, driver bugs — Fig 2 / Fig 6-left). Install before
     * Start(): the hook is read by the model thread unsynchronized.
     */
    void
    SetDataFault(std::function<void(D&)> fault)
    {
        engine_.SetDataFault(std::move(fault));
    }

    bool actuator_halted() const { return engine_.actuator_halted(); }
    bool model_assessment_failing() const
    {
        return engine_.model_assessment_failing();
    }
    std::size_t queued_predictions() const
    {
        return engine_.queued_predictions();
    }

    const RuntimeOptions& options() const { return engine_.options(); }

    /**
     * Attaches flight-recorder tracks: one for the model thread, one
     * for the actuator thread (distinct recorders — each ring is
     * SPSC). The loops also bind their recorder as the thread-current
     * recorder, so governor/arbiter calls made from inside agent code
     * land on the calling agent's track. Call before Start(); either
     * may be null.
     */
    void
    SetTraceRecorders(telemetry::trace::TraceRecorder* model_side,
                      telemetry::trace::TraceRecorder* actuator_side)
    {
        engine_.SetTraceRecorders(model_side, actuator_side);
    }

    /** Adds the always-on epoch-duration histogram (wall ns) into
     *  `out`, without copying it (safe from any thread). */
    void
    MergeEpochLatencyInto(telemetry::LatencyHistogram& out) const
    {
        engine_.MergeEpochLatencyInto(out);
    }

    /** The time-source policy (tests drive their manual clock). */
    ClockPolicy& clock() { return clock_; }

  private:
    using Engine = EpochEngine<D, P, ThreadedEnginePolicy>;
    using CollectOutcome = typename Engine::CollectOutcome;

    void
    ModelLoop()
    {
        telemetry::trace::ScopedThreadRecorder bind(
            engine_.model_trace());
        while (running_.load()) {
            engine_.BeginEpoch(clock_.Now());
            CollectOutcome outcome = CollectOutcome::kEpochContinues;
            sim::TimePoint tick_now{};
            while (running_.load()) {
                clock_.SleepFor(engine_.schedule().data_collect_interval);
                if (!running_.load()) {
                    return;
                }
                tick_now = clock_.Now();
                outcome = engine_.CollectOnce(tick_now);
                if (outcome != CollectOutcome::kEpochContinues) {
                    break;
                }
            }
            if (!running_.load() ||
                outcome == CollectOutcome::kEpochContinues) {
                return;
            }
            engine_.Deliver(engine_.FinishEpoch(
                tick_now, outcome == CollectOutcome::kEpochComplete));
            // Notify even for a delivery dropped while halted: the
            // kick lets a blocking actuator re-run its safeguard
            // assessment and resume.
            queue_cv_.notify_one();
        }
    }

    void
    ActuatorLoop()
    {
        telemetry::trace::ScopedThreadRecorder bind(
            engine_.actuator_trace());
        sim::TimePoint last_assessment = actuator_start_;
        std::uint64_t seen_seq = 0;
        while (running_.load()) {
            bool timed_out = false;
            {
                MutexLock lock(engine_.queue_mutex());
                // The predicate runs with the queue mutex held (the cv
                // reacquires it before every evaluation), but the
                // analysis walks the closure without that context —
                // the one sanctioned escape hatch for wait predicates
                // (see core/sync.h).
                const auto ready = [this, &seen_seq]()
                    SOL_NO_THREAD_SAFETY_ANALYSIS {
                        return !running_.load() ||
                               engine_.has_queued_locked() ||
                               engine_.delivery_seq_locked() != seen_seq;
                    };
                if (engine_.options().blocking_actuator) {
                    // Ablation (Figs 4, 6-right): no timeout — the
                    // actuator acts only when a prediction arrives.
                    clock_.Wait(queue_cv_, lock, ready);
                } else {
                    timed_out = !clock_.WaitFor(
                        queue_cv_, lock,
                        engine_.schedule().max_actuation_delay, ready);
                }
                seen_seq = engine_.delivery_seq_locked();
            }
            if (!running_.load()) {
                return;
            }

            const sim::TimePoint now = clock_.Now();
            // Assessment before the wake, mirroring the event-queue
            // backend's same-instant order (the assessment chain event
            // precedes the delivery's wake event).
            if (!engine_.options().disable_actuator_safeguard &&
                now - last_assessment >=
                    engine_.schedule().assess_actuator_interval) {
                last_assessment = now;
                engine_.AssessActuator(now);
            }
            engine_.ActuatorWake(now, timed_out);
        }
    }

    Engine engine_;
    ClockPolicy clock_;

    std::atomic<bool> running_{false};
    sim::TimePoint actuator_start_{0};

    std::thread model_thread_;
    std::thread actuator_thread_;
    ConditionVariable queue_cv_;
};

}  // namespace sol::core
