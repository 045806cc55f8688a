/**
 * @file
 * One node running the paper's full agent complement on real threads.
 *
 * MultiAgentNode (multi_agent_node.h) hosts every agent as a SimRuntime
 * continuation on one event queue: intra-node concurrency is simulated,
 * never exercised. ThreadedMultiAgentNode is the credibility leg behind
 * those numbers: the same node core (node_core.h) — the same substrate,
 * agent builds, seed streams, arbiter, registry, lifecycle, roll-ups, and
 * gauges — with the threaded backend below, which hosts every agent (the
 * four real paper agents plus synthetic fillers up to the paper's ~77
 * per node) on its own core::ThreadedRuntime, so 2×77 OS threads
 * announce actuation intents into the shared InterferenceArbiter
 * genuinely concurrently.
 *
 * What maps across the two backends, by construction:
 *   - Agent logic is shared, not reimplemented: the identical Model and
 *     Actuator objects run under both runtimes (core::EpochEngine owns
 *     the epoch semantics in both, see epoch_engine.h), built by the one
 *     node core from the same per-agent seed streams, so a scripted
 *     scenario is the same scenario on either node.
 *   - The arbiter is the same object with the same policy; it is
 *     hardened for concurrent admission (interference_arbiter.h), and
 *     its decisions depend only on admission order.
 *   - Time is a ClockPolicy template parameter. Deployments use the
 *     default SteadyClockPolicy; the node parity suite
 *     (tests/node_parity_test.cc) instantiates the node over
 *     core::ManualClock and serializes every agent's tick grants into
 *     one global virtual timeline, which pins the admission order to
 *     the event queue's and makes aggregated RuntimeStats, arbiter
 *     counters, and gauges comparable field-for-field.
 *
 * The real four agents share mutable node substrate (VMs, tiered
 * memory, telemetry channels) that is single-threaded by design;
 * LockedModel/LockedActuator decorators serialize every substrate
 * touch on the core's substrate mutex, and a driver thread advances the
 * substrate at node_tick cadence under the same mutex. Synthetic agents
 * touch no substrate and run entirely unlocked — they contend only
 * inside the arbiter, which is the contention the paper studies.
 *
 * Observability: with config.trace_session set, the node creates one
 * flight-recorder track per thread — "<node>.driver", "<node>.control",
 * and "<node>.<agent>.model" / "<node>.<agent>.actuator" per agent —
 * keeping every SPSC ring single-producer across 2×77 agent threads.
 * Agent tracks read the agent's own clock (its ClockPolicy), so under
 * ManualClock the trace timestamps are virtual and deterministic.
 * Lifecycle events (node/agent start/stop, CleanUpAll) land on the
 * control track, which assumes a single controlling thread — the same
 * assumption Start/Stop/StopAgent already make.
 */
#pragma once

#include <atomic>
#include <chrono>
#include <optional>
#include <string>
#include <thread>
#include <utility>

#include "cluster/node_core.h"
#include "cluster/synthetic_agent.h"
#include "core/sync.h"
#include "core/threaded_runtime.h"
#include "sim/event_queue.h"
#include "sim/time.h"
#include "telemetry/trace.h"

namespace sol::cluster {

/** Model decorator serializing every call on a shared mutex (the four
 *  real agents' substrate objects are single-threaded). */
template <typename D, typename P>
class LockedModel : public core::Model<D, P>
{
  public:
    LockedModel(core::Model<D, P>& inner, core::Mutex& mutex)
        : inner_(inner), mutex_(mutex)
    {
    }

    D
    CollectData() override
    {
        core::MutexLock lock(mutex_);
        return inner_.CollectData();
    }

    bool
    ValidateData(const D& data) override
    {
        core::MutexLock lock(mutex_);
        return inner_.ValidateData(data);
    }

    void
    CommitData(sim::TimePoint time, const D& data) override
    {
        core::MutexLock lock(mutex_);
        inner_.CommitData(time, data);
    }

    void
    UpdateModel() override
    {
        core::MutexLock lock(mutex_);
        inner_.UpdateModel();
    }

    core::Prediction<P>
    ModelPredict() override
    {
        core::MutexLock lock(mutex_);
        return inner_.ModelPredict();
    }

    core::Prediction<P>
    DefaultPredict() override
    {
        core::MutexLock lock(mutex_);
        return inner_.DefaultPredict();
    }

    bool
    AssessModel() override
    {
        core::MutexLock lock(mutex_);
        return inner_.AssessModel();
    }

    bool
    ShortCircuitEpoch() override
    {
        core::MutexLock lock(mutex_);
        return inner_.ShortCircuitEpoch();
    }

  private:
    core::Model<D, P>& inner_;
    core::Mutex& mutex_;
};

/** Actuator decorator, same discipline as LockedModel. The governor is
 *  called while the lock is held; the arbiter is thread-safe and never
 *  calls back out, so the lock order is always node → arbiter. */
template <typename P>
class LockedActuator : public core::Actuator<P>
{
  public:
    LockedActuator(core::Actuator<P>& inner, core::Mutex& mutex)
        : inner_(inner), mutex_(mutex)
    {
    }

    void
    TakeAction(std::optional<core::Prediction<P>> pred) override
    {
        core::MutexLock lock(mutex_);
        inner_.TakeAction(std::move(pred));
    }

    bool
    AssessPerformance() override
    {
        core::MutexLock lock(mutex_);
        return inner_.AssessPerformance();
    }

    void
    Mitigate() override
    {
        core::MutexLock lock(mutex_);
        inner_.Mitigate();
    }

    void
    CleanUp() override
    {
        core::MutexLock lock(mutex_);
        inner_.CleanUp();
    }

  private:
    core::Actuator<P>& inner_;
    core::Mutex& mutex_;
};

/**
 * Hosts one agent on its own ThreadedRuntime, and is the sim::Clock its
 * model and actuator read. They take that clock at construction, but the
 * runtime's ClockPolicy only exists once the runtime does — and the
 * runtime needs the model first — so the host reads time zero until Run
 * has built the runtime (nothing reads the clock before Start).
 */
template <typename D, typename P, typename ClockPolicy>
class ThreadedAgentHost : public sim::Clock
{
  public:
    using Runtime = core::ThreadedRuntime<D, P, ClockPolicy>;

    explicit ThreadedAgentHost(core::Mutex* substrate)
        : substrate_(substrate)
    {
    }

    const sim::Clock& clock() const { return *this; }
    Runtime& runtime() { return *runtime_; }

    sim::TimePoint
    Now() const override
    {
        return policy_ != nullptr ? policy_->Now() : sim::TimePoint{};
    }

    /** Builds the runtime over `model` and `actuator` — behind
     *  LockedModel/LockedActuator if the host was built on the substrate
     *  mutex — and returns the actuator the runtime drives. */
    core::Actuator<P>&
    Run(core::Model<D, P>& model, core::Actuator<P>& actuator,
        const core::Schedule& schedule, const core::RuntimeOptions& options)
    {
        core::Model<D, P>* driven_model = &model;
        core::Actuator<P>* driven_actuator = &actuator;
        if (substrate_ != nullptr) {
            driven_model = &locked_model_.emplace(model, *substrate_);
            driven_actuator =
                &locked_actuator_.emplace(actuator, *substrate_);
        }
        runtime_.emplace(*driven_model, *driven_actuator, schedule,
                         options);
        policy_ = &runtime_->clock();
        return *driven_actuator;
    }

  private:
    core::Mutex* substrate_;
    const ClockPolicy* policy_ = nullptr;
    std::optional<LockedModel<D, P>> locked_model_;
    std::optional<LockedActuator<P>> locked_actuator_;
    std::optional<Runtime> runtime_;
};

/**
 * The node core's threaded backend: every agent on its own
 * ThreadedRuntime, each with its own ClockPolicy instance; a driver
 * thread advances the substrate while a real agent runs; lifecycle
 * instants go to the control track.
 */
template <typename ClockPolicy>
class ThreadedNodeBackend
{
  public:
    using Mutex = core::Mutex;
    template <typename D, typename P>
    using Host = ThreadedAgentHost<D, P, ClockPolicy>;
    /** The simulated node's synthetic agent, on real threads. */
    using SyntheticAgent = HostedSyntheticAgent<Host<double, double>>;
    using Core = NodeCore<ThreadedNodeBackend>;

    explicit ThreadedNodeBackend(const MultiAgentNodeConfig& config)
        : config_(config)
    {
        // Driver/control tracks first, then agent tracks in build
        // order: creation order fixes the tid order in the trace.
        if (config_.trace_session != nullptr) {
            driver_trace_ = config_.trace_session->NewRecorder(
                config_.name + ".driver", &trace_clock_);
            control_trace_ = config_.trace_session->NewRecorder(
                config_.name + ".control", &trace_clock_);
        }
    }

    ~ThreadedNodeBackend()
    {
        if (driver_running_.exchange(false) && driver_thread_.joinable()) {
            driver_thread_.join();
        }
    }

    ThreadedNodeBackend(const ThreadedNodeBackend&) = delete;
    ThreadedNodeBackend& operator=(const ThreadedNodeBackend&) = delete;

    /** A host is built on the substrate mutex its agent's calls take,
     *  if any. */
    Mutex* HostOn(Mutex* substrate) { return substrate; }

    /** Gives the agent two SPSC tracks — "<node>.<agent>.model" and
     *  "<node>.<agent>.actuator" — timestamped against the agent's own
     *  clock (none without a trace session). */
    template <typename Runtime>
    void
    Attach(const std::string& agent, Runtime& runtime,
           const sim::Clock& clock)
    {
        if (config_.trace_session == nullptr) {
            return;
        }
        const std::string base = config_.name + "." + agent;
        runtime.SetTraceRecorders(
            config_.trace_session->NewRecorder(base + ".model", &clock),
            config_.trace_session->NewRecorder(base + ".actuator", &clock));
    }

    /** The substrate drivers run on a private queue that the driver
     *  thread advances by wall time. */
    sim::EventQueue& driver_queue() { return substrate_queue_; }

    /** Starts the driver thread, if a real agent runs (synthetic agents
     *  touch no substrate). */
    void
    StartDriving(Core& core)
    {
        if (config_.run_overclock || config_.run_harvest ||
            config_.run_memory || config_.run_monitor) {
            driver_running_.store(true);
            driver_thread_ = std::thread([this, &core] { DriverLoop(core); });
        }
    }

    void
    Note(const char* event, const std::string& agent = {})
    {
        if (control_trace_ != nullptr) {
            control_trace_->Instant(event, "node", {},
                                    agent.empty() ? nullptr : "agent",
                                    agent);
        }
    }

  private:
    /** Every node_tick of wall time, runs the substrate queue forward by
     *  the wall time that passed, under the substrate lock: the node's
     *  drivers advance the substrate exactly as on the simulated node,
     *  paced by the wall clock. */
    void
    DriverLoop(Core& core)
    {
        telemetry::trace::ScopedThreadRecorder bind(driver_trace_);
        // determinism-lint: allow(wall-clock) -- driver pacing only.
        auto last = std::chrono::steady_clock::now();
        while (driver_running_.load()) {
            std::this_thread::sleep_for(
                std::chrono::nanoseconds(config_.node_tick));
            // determinism-lint: allow(wall-clock) -- driver pacing only.
            const auto wall = std::chrono::steady_clock::now();
            telemetry::trace::TraceSpan tick_span(driver_trace_,
                                                  "node_tick", "node");
            core::MutexLock lock(core.substrate_mutex_);
            substrate_queue_.RunFor(
                std::chrono::duration_cast<sim::Duration>(wall - last));
            last = wall;
        }
    }

    const MultiAgentNodeConfig& config_;

    /** Wall timebase for the driver/control tracks (agent tracks use
     *  their agent's clock instead). */
    telemetry::trace::SteadyClock trace_clock_;
    telemetry::trace::TraceRecorder* driver_trace_ = nullptr;
    telemetry::trace::TraceRecorder* control_trace_ = nullptr;

    /** The substrate's clock; only the driver thread runs it. */
    sim::EventQueue substrate_queue_;
    std::atomic<bool> driver_running_{false};
    std::thread driver_thread_;
};

/**
 * All agents of one node, each on its own ThreadedRuntime.
 *
 * Takes MultiAgentNodeConfig wholesale — same substrate sizing, agent
 * selection, synthetic fleet, arbiter policy, and seed derivation — so
 * one config describes the same node under either backend.
 *
 * @tparam ClockPolicy Per-agent time source (every runtime gets its
 *   own instance; tests reach the synthetics' via synthetic_clock()).
 */
template <typename ClockPolicy = core::SteadyClockPolicy>
class ThreadedMultiAgentNode
    : public NodeCore<ThreadedNodeBackend<ClockPolicy>>
{
  public:
    explicit ThreadedMultiAgentNode(MultiAgentNodeConfig config)
        : NodeCore<ThreadedNodeBackend<ClockPolicy>>(std::move(config))
    {
    }

    /** Synthetic agent i's time source — the parity harness drives
     *  each agent's ManualClock through this. */
    ClockPolicy&
    synthetic_clock(std::size_t i)
    {
        return this->synthetic_agent(i).runtime().clock();
    }
};

}  // namespace sol::cluster
