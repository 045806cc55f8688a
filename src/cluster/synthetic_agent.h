/**
 * @file
 * Cheap synthetic agents for fleet-realistic node pressure.
 *
 * The paper's production nodes run ~77 agents concurrently; this repo's
 * four real agents (SmartOverclock/Harvest/Memory/Monitor) exercise the
 * paper's *learning* logic, but four registrations cannot reproduce the
 * registry, arbiter, and event-queue pressure of a production node. A
 * SyntheticAgent is the filler: a complete Model + Actuator + Schedule
 * triple with trivial O(1) logic — a random-walk telemetry stream, a
 * running-mean "model", and an actuator that occasionally spends shared
 * headroom through the node's ActuationGovernor — so 70+ of them run in
 * their own SimRuntimes at realistic cadences for the cost of a few
 * arithmetic ops per event.
 *
 * Everything is seeded: two derived RNG streams (telemetry and actuation
 * coin flips) make a fleet of synthetic agents bit-reproducible from the
 * node seed, which the fleet determinism checks in bench/fleet_scale,
 * bench/scenario_suite and tests/fleet_test.cc rely on.
 */
#pragma once

#include <atomic>
#include <cstdint>
#include <optional>
#include <string>
#include <utility>

#include "core/actuation.h"
#include "core/actuator.h"
#include "core/model.h"
#include "core/prediction.h"
#include "core/runtime_options.h"
#include "core/schedule.h"
#include "core/sim_runtime.h"
#include "sim/event_queue.h"
#include "sim/rng.h"

namespace sol::workloads {
class TraceDriver;
}  // namespace sol::workloads

namespace sol::cluster {

/** Tunables for one synthetic agent. */
struct SyntheticAgentConfig {
    /** Registry/metric name ("synthetic12"). */
    std::string name = "synthetic";

    /** Seed for the agent's derived RNG streams. */
    std::uint64_t seed = 1;

    // --- Cadence (cheap but deployment-shaped) -------------------------
    sim::Duration data_collect_interval = sim::Millis(10);
    int data_per_epoch = 5;
    sim::Duration max_epoch_time = sim::Millis(200);
    sim::Duration max_actuation_delay = sim::Millis(250);
    sim::Duration assess_actuator_interval = sim::Seconds(1);
    sim::Duration prediction_ttl = sim::Millis(200);

    // --- Heterogeneity (defaults off: uniform fleet cadence, so
    // --- existing seeded trace hashes stay byte-stable) ----------------
    /**
     * ± fractional jitter applied to this agent's schedule periods,
     * drawn once at construction from a derived RNG stream (seed
     * stream 2). 0.15 lands each agent's cadence uniformly in
     * [0.85, 1.15]× the configured periods, so a fleet of synthetics
     * stops beating in lockstep and shards see non-uniform load.
     * 0 (default) keeps the exact schedule previous PRs hashed;
     * values above 0.9 are clamped to 0.9 so a period can never be
     * scaled toward zero (event storm).
     */
    double period_jitter = 0.0;

    /**
     * Probability (same derived stream) that this agent runs a burst
     * profile: each epoch collects `burst_factor`× more samples at a
     * `burst_factor`× shorter interval — the same epoch length, but
     * the event traffic arrives in dense bursts with quiet actuation
     * gaps between them. 0 (default) disables burst phases.
     */
    double burst_fraction = 0.0;
    double burst_factor = 4.0;

    // --- Behavior ------------------------------------------------------
    /** Fraction of collected samples injected out-of-range, so the
     *  data-validation safeguard sees steady rejection traffic. */
    double invalid_fraction = 0.02;

    /** Probability a model-driven action announces a kExpand on
     *  `domain` (arbiter pressure); otherwise the agent restores. */
    double expand_fraction = 0.25;

    /** Shared-resource domain this agent contends on. */
    core::ActuationDomain domain = core::ActuationDomain::kTelemetryBudget;

    // --- Demand modulation (defaults off) ------------------------------
    /**
     * Trace-driven demand oracle (workloads/trace_driver.h); null (the
     * default) keeps the flat behavior above, bit-for-bit. When set,
     * the agent evaluates its invalid-read probability, expand
     * probability, per-epoch sample target, and model/actuator health
     * as pure functions of virtual time — so a modulated fleet stays
     * exactly as deterministic as an unmodulated one. Not owned; must
     * outlive the agent.
     */
    const workloads::TraceDriver* trace_driver = nullptr;

    /** Fleet-global tenant index the driver keys popularity and storm
     *  ranges on (node_index * synthetics_per_node + agent index). */
    std::size_t tenant = 0;

    // --- Scripted faults (defaults off) --------------------------------
    /**
     * 1-based index of the first actuator assessment that fails (0 =
     * never fail). With fail_assessments_count, scripts a deterministic
     * safeguard trip at a known point in the run — the parity suite
     * uses it to trip the safeguard while the agent holds a domain.
     */
    std::uint64_t fail_assessments_from = 0;
    std::uint64_t fail_assessments_count = 1;
};

/** Builds the (possibly jittered/bursty) schedule a synthetic agent
 *  runs on, whichever host runs it. */
core::Schedule MakeSyntheticSchedule(const SyntheticAgentConfig& config);

/** Random-walk telemetry + running-mean model; O(1) per call. */
class SyntheticModel : public core::Model<double, double>
{
  public:
    SyntheticModel(const SyntheticAgentConfig& config,
                   const sim::Clock& clock);

    double CollectData() override;
    bool ValidateData(const double& data) override;
    void CommitData(sim::TimePoint time, const double& data) override;
    void UpdateModel() override;
    core::Prediction<double> ModelPredict() override;
    core::Prediction<double> DefaultPredict() override;
    bool AssessModel() override;
    bool ShortCircuitEpoch() override;

  private:
    const SyntheticAgentConfig& config_;
    const sim::Clock& clock_;
    sim::Rng rng_;
    double signal_ = 0.0;        ///< Random-walk telemetry level.
    double epoch_sum_ = 0.0;
    std::uint64_t epoch_count_ = 0;
    double model_value_ = 0.0;   ///< Snapshot taken by UpdateModel.
    /** Valid samples committed this epoch. Unlike epoch_count_ (which
     *  deliberately carries over deadline-truncated epochs so the mean
     *  keeps converging), this resets on *every* epoch exit — both
     *  UpdateModel and DefaultPredict, which together cover all of
     *  EpochEngine::FinishEpoch's paths — because the demand-driven
     *  ShortCircuitEpoch target is a per-epoch quota. */
    std::uint64_t epoch_commits_ = 0;
};

/**
 * Actuator that turns predictions into governor traffic: model-driven
 * actions flip a seeded coin to spend headroom (kExpand on the
 * configured domain) and otherwise return to baseline (kRestore).
 * Denials take the conservative restore path, like the real actuators.
 */
class SyntheticActuator : public core::Actuator<double>
{
  public:
    explicit SyntheticActuator(const SyntheticAgentConfig& config);

    /** Installs the node's admission control (may be nullptr). */
    void SetGovernor(core::ActuationGovernor* governor)
    {
        governor_ = governor;
    }

    /** Installs the agent's time source (may be nullptr). Only needed
     *  when config.trace_driver is set: the actuator evaluates its
     *  demand-scaled expand probability and storm-scripted assessment
     *  failures at clock->Now(). */
    void SetClock(const sim::Clock* clock) { clock_ = clock; }

    void TakeAction(std::optional<core::Prediction<double>> pred) override;
    bool AssessPerformance() override;
    void Mitigate() override { Restore(); }
    void CleanUp() override { Restore(); }

    // Counters are atomic so a parity harness (or the node's metric
    // sweep) can read them while the agent's actuator thread runs.
    bool holding() const
    {
        return holding_.load(std::memory_order_relaxed);
    }
    std::uint64_t expands_admitted() const
    {
        return expands_admitted_.load(std::memory_order_relaxed);
    }
    std::uint64_t expands_denied() const
    {
        return expands_denied_.load(std::memory_order_relaxed);
    }

  private:
    void Restore();

    const SyntheticAgentConfig& config_;
    sim::Rng rng_;
    core::ActuationGovernor* governor_ = nullptr;
    const sim::Clock* clock_ = nullptr;
    std::atomic<bool> holding_{false};
    std::atomic<std::uint64_t> expands_admitted_{0};
    std::atomic<std::uint64_t> expands_denied_{0};
    std::uint64_t assessments_seen_ = 0;  ///< Actuator-thread only.
};

/**
 * Hosts one agent on an event queue: the queue is its clock, and the
 * runtime a SimRuntime on it. The queue serializes every model and
 * actuator call on one thread, so Run wraps nothing.
 */
template <typename D, typename P>
class SimAgentHost
{
  public:
    using Runtime = core::SimRuntime<D, P>;

    explicit SimAgentHost(sim::EventQueue& queue) : queue_(queue) {}

    const sim::Clock& clock() const { return queue_; }
    Runtime& runtime() { return *runtime_; }

    /** Builds the runtime over `model` and `actuator`; returns the
     *  actuator it drives, `actuator` itself. */
    core::Actuator<P>&
    Run(core::Model<D, P>& model, core::Actuator<P>& actuator,
        const core::Schedule& schedule, const core::RuntimeOptions& options)
    {
        runtime_.emplace(queue_, model, actuator, schedule, options);
        return actuator;
    }

  private:
    sim::EventQueue& queue_;
    std::optional<Runtime> runtime_;
};

/**
 * One synthetic agent: model, actuator, and the host that runs them.
 * The host picks the runtime — SimAgentHost an event queue, the
 * threaded node's host real threads — so a synthetic agent is wired
 * once for both node backends, with the same seed streams and cadence.
 */
template <typename Host>
class HostedSyntheticAgent
{
  public:
    using Runtime = typename Host::Runtime;

    /**
     * @param place What the host is built on (SimAgentHost: the shared
     *   event queue, owned by the node/driver).
     * @param config Agent tunables; `config.name` must be unique per
     *   node (it keys the registry and metric namespace).
     * @param governor Node admission control; nullptr runs ungoverned.
     * @param options Shared runtime ablation/fault switches.
     */
    template <typename Place>
    HostedSyntheticAgent(Place&& place, const SyntheticAgentConfig& config,
                         core::ActuationGovernor* governor,
                         const core::RuntimeOptions& options)
        : config_(config),
          host_(std::forward<Place>(place)),
          model_(config_, host_.clock()),
          actuator_(config_)
    {
        host_.Run(model_, actuator_, MakeSyntheticSchedule(config_),
                  options);
        actuator_.SetGovernor(governor);
        actuator_.SetClock(&host_.clock());
    }

    const std::string& name() const { return config_.name; }
    Runtime& runtime() { return host_.runtime(); }
    SyntheticActuator& actuator() { return actuator_; }

    /** The agent's time source (the threaded node's trace tracks
     *  timestamp against it). */
    const sim::Clock& clock() const { return host_.clock(); }

  private:
    SyntheticAgentConfig config_;
    Host host_;  // Before model_: it holds the clock the model reads.
    SyntheticModel model_;
    SyntheticActuator actuator_;
};

/** One synthetic agent on an event queue, ready to Start. */
using SyntheticAgent = HostedSyntheticAgent<SimAgentHost<double, double>>;

}  // namespace sol::cluster
