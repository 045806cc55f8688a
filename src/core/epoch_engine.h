/**
 * @file
 * The single implementation of the paper's section 4.2 epoch/safeguard
 * state machine, shared by both SOL runtimes.
 *
 * SimRuntime (virtual time, event-queue continuations) and
 * ThreadedRuntime (wall clock, blocking loops) used to implement these
 * semantics twice, and the copies drifted: ThreadedRuntime lost the
 * SetDataFault hook and forgot a failed model assessment across a
 * Stop/Start cycle. EpochEngine owns every piece of per-epoch state —
 * data collection/validation/fault injection, the three epoch exits
 * (ShortCircuitEpoch / data_per_epoch / max_epoch_time), the every-K-
 * epochs model assessment with default-prediction interception, the
 * bounded prediction queue, and the actuator safeguard — so the two
 * runtimes cannot diverge again: they are scheduling adapters that
 * decide *when* the engine's step functions run, never *what* they do.
 *
 * The runtimes differ only in their policy, three types:
 *
 *   - SimEnginePolicy: RuntimeStats (plain counters), NullMutex, and
 *     plain bools. The event queue serializes everything on one thread.
 *   - ThreadedEnginePolicy: AtomicRuntimeStats (core::Relaxed
 *     counters), a real mutex around the prediction queue + halt flag,
 *     and Relaxed<bool> flags so accessors are safe from any thread.
 *
 * Relaxed fields read and write like plain ones, so the engine's code
 * is one text for both policies: `++stats_.epochs`, `halted_ = true`,
 * `stats_.halted_time += d`.
 *
 * Unified accounting rules (these resolve the historical drift; the
 * parity suite in tests/runtime_parity_test.cc pins them):
 *
 *   - A prediction delivered while actuation is halted is dropped at
 *     delivery (dropped_while_halted) and never queued.
 *   - A safeguard trigger flushes the queue, counting every flushed
 *     prediction as dropped_while_halted — every delivered prediction
 *     is accounted exactly once (acted on, expired, or dropped).
 *   - actuator_timeouts counts every conservative TakeAction(empty),
 *     whether the prediction was missing or arrived stale, preserving
 *     actions_taken == actions_with_prediction + actuator_timeouts.
 *   - model_ok and the halted flag are engine state: both survive a
 *     Stop/Start cycle (a restart must not forget a failing model or a
 *     tripped safeguard); halted_time accrues only while running.
 */
#pragma once

#include <cassert>
#include <cstdint>
#include <functional>
#include <optional>
#include <stdexcept>
#include <string>
#include <utility>
#include <vector>

#include "core/actuator.h"
#include "core/model.h"
#include "core/prediction.h"
#include "core/runtime_options.h"
#include "core/runtime_stats.h"
#include "core/schedule.h"
#include "core/sync.h"
#include "core/thread_annotations.h"
#include "sim/time.h"
#include "telemetry/latency_histogram.h"
#include "telemetry/trace.h"

namespace sol::core {

/**
 * FIFO of at most `capacity` elements in storage allocated once, at
 * construction: the engine's prediction queue, so a running agent's
 * steady deliver/consume loop never touches the heap. A popped slot is
 * left moved-from until a later push overwrites it.
 */
template <typename T>
class FixedRing
{
  public:
    explicit FixedRing(std::size_t capacity) : slots_(capacity) {}

    std::size_t size() const { return size_; }
    bool empty() const { return size_ == 0; }

    void
    push_back(T value)
    {
        assert(size_ < slots_.size());
        std::size_t tail = head_ + size_;
        if (tail >= slots_.size()) {
            tail -= slots_.size();
        }
        slots_[tail] = std::move(value);
        ++size_;
    }

    /** Removes and returns the oldest element (the queue is non-empty). */
    T
    pop_front()
    {
        assert(size_ > 0);
        T value = std::move(slots_[head_]);
        if (++head_ == slots_.size()) {
            head_ = 0;
        }
        --size_;
        return value;
    }

  private:
    std::vector<T> slots_;
    std::size_t head_ = 0;
    std::size_t size_ = 0;
};

/** Policy for the event-queue backend: everything single-threaded. */
struct SimEnginePolicy {
    using Stats = RuntimeStats;
    using Mutex = NullMutex;
    using Flag = bool;
};

/** Policy for the real-thread backend: relaxed-atomic stats, a real
 *  queue mutex, and relaxed-atomic flags for cross-thread accessors. */
struct ThreadedEnginePolicy {
    using Stats = AtomicRuntimeStats;
    using Mutex = core::Mutex;
    using Flag = Relaxed<bool>;
};

/**
 * The policy-parameterized epoch/safeguard state machine.
 *
 * The owning runtime drives it through step functions:
 *
 *   Model loop:    BeginEpoch -> CollectOnce* -> FinishEpoch -> Deliver
 *   Actuator loop: ActuatorWake (per wake), AssessActuator (per
 *                  assess_actuator_interval, before the wake at the
 *                  same instant)
 *   Lifecycle:     OnStart / OnStop bracket every running span.
 *
 * Threading contract (threaded policy): the model-side functions are
 * called from the model thread only, the actuator-side functions from
 * the actuator thread only; Deliver/ActuatorWake/AssessActuator touch
 * the shared queue + halt flag under the policy mutex internally.
 *
 * Observability: the engine always records every epoch's duration into
 * a LatencyHistogram (MergeEpochLatencyInto()), and — when trace
 * recorders are attached via SetTraceRecorders — emits phase spans
 * (collect / model_update / model_assess / actuate / assess_actuator,
 * plus a per-epoch "epoch" span) and safeguard instants
 * (safeguard_trigger / mitigate / safeguard_resume /
 * model_assessment_failed / prediction_dropped). Two recorders keep
 * the rings SPSC: model-side steps record into the first, actuator-
 * side steps into the second (the sim backend passes the same one
 * twice). With no recorders attached the cost is a null test per step.
 *
 * @tparam D Telemetry datum type.
 * @tparam P Prediction payload type.
 * @tparam Policy SimEnginePolicy or ThreadedEnginePolicy.
 */
template <typename D, typename P, typename Policy>
class EpochEngine
{
  public:
    using Stats = typename Policy::Stats;

    /** What CollectOnce decided about the epoch in progress. */
    enum class CollectOutcome {
        kEpochContinues,     ///< Schedule another collect tick.
        kEpochComplete,      ///< data_per_epoch valid samples committed.
        kEpochShortCircuit,  ///< Deadline hit or model short-circuited.
    };

    /** What ActuatorWake did. */
    enum class WakeOutcome {
        kNothingToDo,  ///< Non-timeout wake with nothing to consume.
        kActed,        ///< TakeAction ran (with or without prediction).
        kHalted,       ///< Actuation is halted; nothing ran.
    };

    EpochEngine(Model<D, P>& model, Actuator<P>& actuator,
                const Schedule& schedule, const RuntimeOptions& options)
        : model_(model),
          actuator_(actuator),
          schedule_(schedule),
          options_(options),
          pending_(QueueSlots(options))
    {
        const auto problems = schedule_.Validate();
        if (!problems.empty()) {
            throw std::invalid_argument("invalid schedule: " + problems[0]);
        }
    }

    EpochEngine(const EpochEngine&) = delete;
    EpochEngine& operator=(const EpochEngine&) = delete;

    // ---- Lifecycle -------------------------------------------------------

    /**
     * Marks the start of a running span. Epoch progress restarts (the
     * caller invokes BeginEpoch next) but model_ok, the halt flag, and
     * all counters persist: a restart must not forget a failing model
     * or a tripped safeguard. If the safeguard is still tripped,
     * halted-time accrual resumes from `now`.
     */
    void
    OnStart(sim::TimePoint now)
    {
        ScopedLock<typename Policy::Mutex> lock(mutex_);
        if (halted_) {
            halt_start_ = now;
        }
    }

    /** Closes the running span: folds an in-progress halt into
     *  halted_time so stats are accurate while stopped. */
    void
    OnStop(sim::TimePoint now)
    {
        ScopedLock<typename Policy::Mutex> lock(mutex_);
        if (halted_) {
            stats_.halted_time += now - halt_start_;
            halt_start_ = now;
        }
    }

    // ---- Model loop ------------------------------------------------------

    /** Opens a learning epoch at `now`. */
    void
    BeginEpoch(sim::TimePoint now)
    {
        epoch_start_ = now;
        valid_samples_ = 0;
    }

    /**
     * One collect tick: CollectData -> fault hook -> ValidateData ->
     * CommitData (valid) or discard (invalid), then the three epoch
     * exits in fixed order: model short-circuit, enough data, epoch
     * deadline.
     */
    CollectOutcome
    CollectOnce(sim::TimePoint now)
    {
        telemetry::trace::TraceSpan span(model_trace_, "collect",
                                         "engine");
        D data = model_.CollectData();
        ++stats_.samples_collected;
        if (data_fault_) {
            data_fault_(data);
        }
        const bool valid =
            options_.disable_data_validation || model_.ValidateData(data);
        if (valid) {
            model_.CommitData(now, data);
            ++valid_samples_;
        } else {
            ++stats_.invalid_samples;
        }
        span.AddArg("valid", valid ? 1 : 0);

        if (model_.ShortCircuitEpoch()) {
            return CollectOutcome::kEpochShortCircuit;
        }
        if (valid_samples_ >= schedule_.data_per_epoch) {
            return CollectOutcome::kEpochComplete;
        }
        if (now - epoch_start_ >= schedule_.max_epoch_time) {
            return CollectOutcome::kEpochShortCircuit;
        }
        return CollectOutcome::kEpochContinues;
    }

    /**
     * Closes the epoch at `now` and produces the prediction to
     * deliver. With enough data the model updates and predicts,
     * assessed every assess_model_every_epochs; while the assessment
     * fails the prediction is intercepted and DefaultPredict delivered
     * instead (the model keeps learning so it can recover). Without
     * enough data the epoch counts as short-circuited and the default
     * is delivered directly. The epoch's duration (now - BeginEpoch's
     * instant) lands in the always-on epoch latency histogram and, if
     * tracing, as an "epoch" span.
     */
    Prediction<P>
    FinishEpoch(sim::TimePoint now, bool enough_data)
    {
        const std::uint64_t epoch_number = ++stats_.epochs;
        Prediction<P> pred;
        if (enough_data) {
            {
                telemetry::trace::TraceSpan span(model_trace_,
                                                 "model_update", "engine");
                model_.UpdateModel();
                ++stats_.model_updates;
                pred = model_.ModelPredict();
            }

            if (!options_.disable_model_assessment &&
                epoch_number % static_cast<std::uint64_t>(
                                   schedule_.assess_model_every_epochs) ==
                    0) {
                telemetry::trace::TraceSpan span(model_trace_,
                                                 "model_assess", "engine");
                ++stats_.model_assessments;
                const bool ok = model_.AssessModel();
                model_ok_ = ok;
                span.AddArg("ok", ok ? 1 : 0);
                if (!ok) {
                    ++stats_.failed_assessments;
                    if (model_trace_ != nullptr) {
                        model_trace_->Instant("model_assessment_failed",
                                              "safeguard");
                    }
                }
            }
            if (!model_ok_) {
                // Interception: the Actuator only ever sees predictions
                // from a model that passes assessment.
                pred = model_.DefaultPredict();
                ++stats_.intercepted_predictions;
            }
        } else {
            ++stats_.short_circuit_epochs;
            pred = model_.DefaultPredict();
        }

        const sim::Duration epoch_duration = now - epoch_start_;
        const auto duration_ns = static_cast<std::uint64_t>(
            epoch_duration.count() < 0 ? 0 : epoch_duration.count());
        if (model_trace_ != nullptr) {
            model_trace_->Complete(
                "epoch", "engine", epoch_start_, epoch_duration,
                {{"epoch", static_cast<std::int64_t>(epoch_number)},
                 {"short_circuit", enough_data ? 0 : 1}});
        }
        {
            ScopedLock<typename Policy::Mutex> lock(mutex_);
            epoch_hist_.Record(duration_ns);
        }
        return pred;
    }

    /**
     * Queues the finished epoch's prediction for the actuator, or
     * drops it (dropped_while_halted) while actuation is halted. The
     * oldest queued prediction is evicted (expired_predictions) beyond
     * options.max_queued_predictions.
     *
     * @return true when the prediction was queued; false when dropped.
     *         Backends should wake the actuator either way — a wake
     *         while halted is how the blocking backend reaches its
     *         safeguard re-assessment.
     */
    bool
    Deliver(Prediction<P> pred)
    {
        ++stats_.predictions_delivered;
        if (pred.is_default) {
            ++stats_.default_predictions;
        }
        ScopedLock<typename Policy::Mutex> lock(mutex_);
        ++delivery_seq_;
        if (halted_) {
            ++stats_.dropped_while_halted;
            if (model_trace_ != nullptr) {
                model_trace_->Instant("prediction_dropped", "safeguard");
            }
            return false;
        }
        pending_.push_back(std::move(pred));
        Raise(stats_.peak_queued_predictions, pending_.size());
        while (pending_.size() > options_.max_queued_predictions) {
            pending_.pop_front();
            ++stats_.expired_predictions;
        }
        return true;
    }

    // ---- Actuator loop ---------------------------------------------------

    /**
     * One actuator wake. Consumes the oldest queued prediction if any;
     * a stale one (non-blocking mode) is dropped as expired and the
     * conservative empty action runs in its place. `from_timeout`
     * distinguishes a max_actuation_delay timeout (which must act even
     * with nothing queued) from a delivery wake (which does nothing if
     * an earlier wake already consumed the prediction).
     */
    WakeOutcome
    ActuatorWake(sim::TimePoint now, bool from_timeout)
    {
        telemetry::trace::TraceSpan span(actuator_trace_, "actuate",
                                         "engine");
        span.AddArg("from_timeout", from_timeout ? 1 : 0);
        std::optional<Prediction<P>> pred;
        {
            ScopedLock<typename Policy::Mutex> lock(mutex_);
            if (halted_) {
                // Deliveries while halted never queue and the trigger
                // flushed the queue, so there is nothing to consume.
                DropPendingLocked();
                return WakeOutcome::kHalted;
            }
            if (!pending_.empty()) {
                pred = pending_.pop_front();
            }
        }
        if (!from_timeout && !pred.has_value()) {
            // Wake for a prediction consumed by an earlier wake at the
            // same instant (or a while-halted kick); nothing to do.
            return WakeOutcome::kNothingToDo;
        }
        if (pred.has_value() && !options_.blocking_actuator &&
            !pred->FreshAt(now)) {
            // Stale prediction: the conservative path takes over.
            pred.reset();
            ++stats_.expired_predictions;
        }
        span.AddArg("with_prediction", pred.has_value() ? 1 : 0);
        actuator_.TakeAction(pred);
        ++stats_.actions_taken;
        if (pred.has_value()) {
            ++stats_.actions_with_prediction;
        } else {
            ++stats_.actuator_timeouts;
        }
        return WakeOutcome::kActed;
    }

    /**
     * One actuator-safeguard assessment. A failing assessment halts
     * actuation (flushing the prediction queue on the healthy->failing
     * edge) and mitigates on every failing check; a passing one clears
     * the halt and folds the halted span into halted_time.
     *
     * @return true when this assessment resumed actuation (so the
     *         event-queue backend re-arms its actuation timeout).
     */
    bool
    AssessActuator(sim::TimePoint now)
    {
        telemetry::trace::TraceSpan span(actuator_trace_,
                                         "assess_actuator", "engine");
        ++stats_.actuator_assessments;
        const bool ok = actuator_.AssessPerformance();
        span.AddArg("ok", ok ? 1 : 0);
        if (!ok) {
            bool newly_halted = false;
            {
                ScopedLock<typename Policy::Mutex> lock(mutex_);
                if (!halted_) {
                    halted_ = true;
                    halt_start_ = now;
                    newly_halted = true;
                    DropPendingLocked();
                }
            }
            if (newly_halted) {
                ++stats_.safeguard_triggers;
                if (actuator_trace_ != nullptr) {
                    actuator_trace_->Instant("safeguard_trigger",
                                             "safeguard");
                }
            }
            actuator_.Mitigate();
            ++stats_.mitigations;
            if (actuator_trace_ != nullptr) {
                actuator_trace_->Instant("mitigate", "safeguard");
            }
            return false;
        }
        ScopedLock<typename Policy::Mutex> lock(mutex_);
        if (halted_) {
            halted_ = false;
            stats_.halted_time += now - halt_start_;
            if (actuator_trace_ != nullptr) {
                actuator_trace_->Instant("safeguard_resume", "safeguard");
            }
            return true;
        }
        return false;
    }

    // ---- Fault injection -------------------------------------------------

    /**
     * Installs a hook applied to every collected datum before
     * validation (fault injection: corrupted counters, driver bugs).
     * With the threaded policy, install before Start(): the hook is
     * read by the model thread without synchronization.
     */
    void
    SetDataFault(std::function<void(D&)> fault)
    {
        data_fault_ = std::move(fault);
    }

    // ---- Observability ---------------------------------------------------

    /**
     * Attaches flight-recorder tracks. `model_side` receives the
     * model-loop spans (collect / model_update / model_assess / epoch),
     * `actuator_side` the actuator-loop spans (actuate /
     * assess_actuator) and safeguard instants. Each recorder is SPSC,
     * so the two sides must be distinct recorders when the loops run
     * on distinct threads; a single-threaded backend passes the same
     * recorder twice. Either may be null (that side untraced). Attach
     * before the owning runtime starts: the pointers are read by the
     * loop threads without synchronization.
     */
    void
    SetTraceRecorders(telemetry::trace::TraceRecorder* model_side,
                      telemetry::trace::TraceRecorder* actuator_side)
    {
        model_trace_ = model_side;
        actuator_trace_ = actuator_side;
    }

    telemetry::trace::TraceRecorder* model_trace() const
    {
        return model_trace_;
    }
    telemetry::trace::TraceRecorder* actuator_trace() const
    {
        return actuator_trace_;
    }

    /** Adds the always-on epoch-duration histogram (ns) into `out`
     *  without copying it (safe from any thread under the threaded
     *  policy: the merge runs under the queue mutex). */
    void
    MergeEpochLatencyInto(telemetry::LatencyHistogram& out) const
    {
        ScopedLock<typename Policy::Mutex> lock(mutex_);
        out.Merge(epoch_hist_);
    }

    // ---- Introspection ---------------------------------------------------

    const Stats& stats() const { return stats_; }
    const Schedule& schedule() const { return schedule_; }
    const RuntimeOptions& options() const { return options_; }
    bool actuator_halted() const { return halted_; }
    bool model_assessment_failing() const
    {
        return !model_ok_;
    }

    std::size_t
    queued_predictions() const
    {
        ScopedLock<typename Policy::Mutex> lock(mutex_);
        return pending_.size();
    }

    /** The queue guard, exposed so the blocking backend can run its
     *  condition-variable wait against the same mutex. */
    typename Policy::Mutex& queue_mutex() const
        SOL_RETURN_CAPABILITY(mutex_)
    {
        return mutex_;
    }

    /** Must hold queue_mutex(): whether a prediction is queued. */
    bool has_queued_locked() const SOL_REQUIRES(mutex_)
    {
        return !pending_.empty();
    }

    /** Must hold queue_mutex(): bumped on every delivery, including
     *  ones dropped while halted — the blocking backend's wait
     *  predicate compares it so a while-halted delivery still wakes
     *  the actuator to re-assess the safeguard. */
    std::uint64_t delivery_seq_locked() const SOL_REQUIRES(mutex_)
    {
        return delivery_seq_;
    }

  private:
    /** Ring slots for the prediction queue: Deliver holds one
     *  prediction beyond the bound until it evicts the oldest. */
    static std::size_t
    QueueSlots(const RuntimeOptions& options)
    {
        if (options.max_queued_predictions >
            RuntimeOptions::kMaxQueuedPredictionsLimit) {
            throw std::invalid_argument(
                "max_queued_predictions " +
                std::to_string(options.max_queued_predictions) +
                " exceeds " +
                std::to_string(RuntimeOptions::kMaxQueuedPredictionsLimit));
        }
        return options.max_queued_predictions + 1;
    }

    /** Must hold mutex_: flushes the queue, counting each prediction
     *  as dropped while halted. */
    void
    DropPendingLocked() SOL_REQUIRES(mutex_)
    {
        while (!pending_.empty()) {
            pending_.pop_front();
            ++stats_.dropped_while_halted;
        }
    }

    Model<D, P>& model_;
    Actuator<P>& actuator_;
    Schedule schedule_;
    RuntimeOptions options_;

    std::function<void(D&)> data_fault_;

    // Model-loop state (owning loop's thread only).
    sim::TimePoint epoch_start_{0};
    int valid_samples_ = 0;
    typename Policy::Flag model_ok_{true};

    // Trace recorders (set before start; loop threads read them
    // without synchronization; null = untraced).
    telemetry::trace::TraceRecorder* model_trace_ = nullptr;
    telemetry::trace::TraceRecorder* actuator_trace_ = nullptr;

    // Prediction queue + halt state + epoch histogram (guarded by
    // mutex_; the histogram rides the existing guard because it is
    // written by the model thread and merged out by any thread).
    // halted_ is Policy::Flag — Relaxed under the threaded policy —
    // because actuator_halted() reads it lock-free; the mutex still
    // orders every *write* against the queue state it gates.
    mutable typename Policy::Mutex mutex_;
    FixedRing<Prediction<P>> pending_ SOL_GUARDED_BY(mutex_);
    std::uint64_t delivery_seq_ SOL_GUARDED_BY(mutex_) = 0;
    typename Policy::Flag halted_{false};
    sim::TimePoint halt_start_ SOL_GUARDED_BY(mutex_){0};
    telemetry::LatencyHistogram epoch_hist_ SOL_GUARDED_BY(mutex_);

    Stats stats_;
};

}  // namespace sol::core
