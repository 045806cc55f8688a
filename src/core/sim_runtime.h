/**
 * @file
 * Deterministic SOL runtime on the discrete-event simulator.
 *
 * This is the event-queue adapter around core::EpochEngine, which owns
 * the paper's section 4.2 epoch/assessment/safeguard semantics (see
 * epoch_engine.h for the state machine itself — both runtimes share
 * that single implementation). SimRuntime contributes only scheduling
 * policy on virtual time:
 *
 *   - collect ticks are one self-re-arming event-queue continuation at
 *     data_collect_interval (deferred through model stalls),
 *   - each delivered prediction schedules a zero-delay actuator wake,
 *   - the max_actuation_delay timeout is an armed/cancelled event
 *     relative to the last action,
 *   - actuator assessments are a second self-re-arming continuation.
 *
 * Fault-injection hooks reproduce the paper's failure experiments:
 * per-sample data corruption (Fig 2/6-left, SetDataFault), model-loop
 * stalls (Fig 4/6-right, StallModelFor), and the RuntimeOptions
 * ablation switches that regenerate the "without SOL" baselines.
 */
#pragma once

#include <functional>
#include <utility>

#include "core/actuator.h"
#include "core/epoch_engine.h"
#include "core/model.h"
#include "core/runtime_options.h"
#include "core/runtime_stats.h"
#include "core/schedule.h"
#include "sim/confined_shared.h"
#include "sim/event_queue.h"
#include "sim/time.h"

namespace sol::core {

/**
 * Runs one agent (Model + Actuator + Schedule) on an EventQueue.
 *
 * @tparam D Telemetry datum type.
 * @tparam P Prediction payload type.
 */
template <typename D, typename P>
class SimRuntime
{
  public:
    /**
     * @param queue Event queue that owns virtual time.
     * @param model Developer-provided model logic (not owned).
     * @param actuator Developer-provided control logic (not owned).
     * @param schedule Validated schedule; throws if invalid.
     * @param options Fault/ablation switches.
     */
    SimRuntime(sim::EventQueue& queue, Model<D, P>& model,
               Actuator<P>& actuator, const Schedule& schedule,
               RuntimeOptions options = {})
        : queue_(queue),
          engine_(model, actuator, schedule, options),
          alive_(sim::ConfinedShared<bool>::Make(false))
    {
    }

    ~SimRuntime() { Stop(); }

    SimRuntime(const SimRuntime&) = delete;
    SimRuntime& operator=(const SimRuntime&) = delete;

    /**
     * Starts both control loops. Start after Stop resumes with a fresh
     * epoch; engine state (counters, a failing model assessment, a
     * tripped safeguard) persists across the restart.
     */
    void
    Start()
    {
        if (*alive_) {
            return;
        }
        *alive_ = true;
        engine_.OnStart(queue_.Now());
        engine_.BeginEpoch(queue_.Now());
        ScheduleCollect();
        last_action_time_ = queue_.Now();
        if (!engine_.options().blocking_actuator) {
            ArmActuatorTimeout();
        }
        if (!engine_.options().disable_actuator_safeguard) {
            ScheduleActuatorAssessment();
        }
    }

    /** Stops both loops; pending events become no-ops. */
    void
    Stop()
    {
        if (!*alive_) {
            return;
        }
        engine_.OnStop(queue_.Now());
        *alive_ = false;
        // Strand every pending continuation on the dead token so a
        // later Start() cannot resurrect the old event chains.
        alive_ = sim::ConfinedShared<bool>::Make(false);
    }

    bool running() const { return *alive_; }

    /**
     * Stalls the Model loop for the given duration starting now. Collect
     * ticks scheduled inside the window are deferred to its end, so the
     * samples they would have taken are missed — exactly the effect of
     * the agent being starved by higher-priority work.
     */
    void
    StallModelFor(sim::Duration duration)
    {
        const sim::TimePoint until = queue_.Now() + duration;
        if (until > model_resume_time_) {
            model_resume_time_ = until;
        }
    }

    /**
     * Installs a hook applied to every collected datum before validation
     * (fault injection: corrupted counters, driver bugs).
     */
    void
    SetDataFault(std::function<void(D&)> fault)
    {
        engine_.SetDataFault(std::move(fault));
    }

    /**
     * Attaches a flight-recorder track for this runtime's spans and
     * instants. One recorder serves both engine sides — the event
     * queue serializes everything on one thread, so SPSC holds. Call
     * before Start(); null detaches.
     */
    void
    SetTraceRecorder(telemetry::trace::TraceRecorder* recorder)
    {
        engine_.SetTraceRecorders(recorder, recorder);
    }

    /** Adds the always-on epoch-duration histogram (virtual ns) into
     *  `out`, without copying it. */
    void
    MergeEpochLatencyInto(telemetry::LatencyHistogram& out) const
    {
        engine_.MergeEpochLatencyInto(out);
    }

    const RuntimeStats& stats() const { return engine_.stats(); }
    bool actuator_halted() const { return engine_.actuator_halted(); }
    bool model_assessment_failing() const
    {
        return engine_.model_assessment_failing();
    }
    std::size_t queued_predictions() const
    {
        return engine_.queued_predictions();
    }

  private:
    using Engine = EpochEngine<D, P, SimEnginePolicy>;
    using CollectOutcome = typename Engine::CollectOutcome;
    using WakeOutcome = typename Engine::WakeOutcome;

    // ---- Model loop -----------------------------------------------------

    /** Starts the collect loop: one continuation that re-arms itself
     *  every data_collect_interval for as long as its token lives. */
    void
    ScheduleCollect()
    {
        queue_.ScheduleAfter(engine_.schedule().data_collect_interval,
                             [this, alive = alive_] {
                                 return *alive ? OnCollectTick()
                                               : sim::Next::Done();
                             });
    }

    sim::Next
    OnCollectTick()
    {
        const sim::TimePoint now = queue_.Now();
        if (now < model_resume_time_) {
            // The model loop is stalled: defer to the end of the stall.
            return sim::Next::At(model_resume_time_);
        }

        const CollectOutcome outcome = engine_.CollectOnce(now);
        const sim::Next next =
            sim::Next::After(engine_.schedule().data_collect_interval);
        if (outcome == CollectOutcome::kEpochContinues) {
            return next;
        }
        engine_.Deliver(engine_.FinishEpoch(
            now, outcome == CollectOutcome::kEpochComplete));
        // Wake the actuator for the new prediction (or, while halted,
        // for nothing — the wake is a harmless no-op then).
        queue_.ScheduleAfter(sim::Duration::zero(), [this, alive = alive_] {
            if (*alive) {
                OnActuatorWake(/*from_timeout=*/false);
            }
        });
        engine_.BeginEpoch(now);
        return next;
    }

    // ---- Actuator loop -----------------------------------------------------

    void
    ArmActuatorTimeout()
    {
        timeout_handle_.Cancel();
        timeout_handle_ = queue_.ScheduleAt(
            last_action_time_ + engine_.schedule().max_actuation_delay,
            [this, alive = alive_] {
                if (*alive) {
                    OnActuatorWake(/*from_timeout=*/true);
                }
            });
    }

    void
    OnActuatorWake(bool from_timeout)
    {
        const sim::TimePoint now = queue_.Now();
        const WakeOutcome outcome = engine_.ActuatorWake(now, from_timeout);
        if (outcome == WakeOutcome::kNothingToDo) {
            return;
        }
        // Acted, or woke while halted: either way re-arm relative to
        // now (while halted no actions run, so an arm based on a stale
        // last action time would fire immediately forever).
        last_action_time_ = now;
        if (!engine_.options().blocking_actuator) {
            ArmActuatorTimeout();
        }
    }

    /** Starts the assessment loop, re-arming every
     *  assess_actuator_interval for as long as its token lives. */
    void
    ScheduleActuatorAssessment()
    {
        queue_.ScheduleAfter(engine_.schedule().assess_actuator_interval,
                             [this, alive = alive_] {
                                 return *alive ? OnActuatorAssessment()
                                               : sim::Next::Done();
                             });
    }

    sim::Next
    OnActuatorAssessment()
    {
        const sim::TimePoint now = queue_.Now();
        if (engine_.AssessActuator(now)) {
            // Resumed: restart the action cadence from now.
            last_action_time_ = now;
            if (!engine_.options().blocking_actuator) {
                ArmActuatorTimeout();
            }
        }
        return sim::Next::After(engine_.schedule().assess_actuator_interval);
    }

    sim::EventQueue& queue_;
    Engine engine_;

    /**
     * Liveness token every pending continuation carries (16-byte
     * closures: `this` plus the token). Stop() strands the old token
     * false, so continuations still fire — they count in the queue's
     * trace_hash — but as no-ops that never touch the runtime, even
     * after it is destroyed, and the two loops end there. A
     * re-arming loop keeps the token it was built with, so a Start()
     * after Stop() runs fresh loops and the old ones die out. A
     * ConfinedShared count: continuations stay on the queue's thread,
     * so no copy needs an atomic.
     */
    sim::ConfinedShared<bool> alive_;
    sim::TimePoint model_resume_time_{0};
    sim::TimePoint last_action_time_{0};
    sim::EventHandle timeout_handle_;
};

}  // namespace sol::core
