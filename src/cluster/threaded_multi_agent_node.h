/**
 * @file
 * One node running the paper's full agent complement on real threads.
 *
 * MultiAgentNode (multi_agent_node.h) hosts every agent as a SimRuntime
 * continuation on one event queue: intra-node concurrency is simulated,
 * never exercised. ThreadedMultiAgentNode is the credibility leg behind
 * those numbers: the same agents — the four real paper agents plus
 * synthetic fillers up to the paper's ~77 per node — each hosted on its
 * own core::ThreadedRuntime, so 2×77 OS threads announce actuation
 * intents into the shared InterferenceArbiter genuinely concurrently.
 *
 * What maps across the two node variants, by construction:
 *   - Agent logic is shared, not reimplemented: the identical Model and
 *     Actuator objects run under both runtimes (core::EpochEngine owns
 *     the epoch semantics in both, see epoch_engine.h), and synthetics
 *     draw from the same per-agent seed streams, so a scripted scenario
 *     is the same scenario on either node.
 *   - The arbiter is the same object with the same policy; it is
 *     hardened for concurrent admission (interference_arbiter.h), and
 *     its decisions depend only on admission order.
 *   - Time is a ClockPolicy template parameter. Deployments use the
 *     default SteadyClockPolicy; the node parity suite
 *     (tests/node_parity_test.cc) instantiates the node over
 *     core::ManualClock and serializes every agent's tick grants into
 *     one global virtual timeline, which pins the admission order to
 *     the event queue's and makes aggregated RuntimeStats and arbiter
 *     counters comparable field-for-field.
 *
 * The real four agents share mutable node substrate (VMs, tiered
 * memory, telemetry channels) that is single-threaded by design;
 * LockedModel/LockedActuator decorators serialize every substrate
 * touch on one node-level mutex, and a driver thread advances the
 * substrate at node_tick cadence under the same mutex. Synthetic agents
 * touch no substrate and run entirely unlocked — they contend only
 * inside the arbiter, which is the contention the paper studies.
 *
 * Observability: with config.trace_session set, the node creates one
 * flight-recorder track per thread — "<node>.driver", "<node>.control",
 * and "<node>.<agent>.model" / "<node>.<agent>.actuator" per agent —
 * keeping every SPSC ring single-producer across 2×77 agent threads.
 * Agent tracks read the agent's own PolicyClock, so under ManualClock
 * the trace timestamps are virtual and deterministic. Lifecycle events
 * (node/agent start/stop, CleanUpAll) land on the control track, which
 * assumes a single controlling thread — the same assumption
 * Start/Stop/StopAgent already make.
 */
#pragma once

#include <atomic>
#include <chrono>
#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "agents/smartharvest/smartharvest.h"
#include "agents/smartmemory/smartmemory.h"
#include "agents/smartmonitor/smartmonitor.h"
#include "agents/smartoverclock/smartoverclock.h"
#include "cluster/interference_arbiter.h"
#include "cluster/multi_agent_node.h"
#include "cluster/synthetic_agent.h"
#include "core/agent_registry.h"
#include "core/sync.h"
#include "core/thread_annotations.h"
#include "core/threaded_runtime.h"
#include "node/channel_array.h"
#include "node/node.h"
#include "node/tiered_memory.h"
#include "sim/rng.h"
#include "sim/time.h"
#include "telemetry/metric_registry.h"
#include "telemetry/trace.h"
#include "workloads/best_effort.h"
#include "workloads/memory_patterns.h"
#include "workloads/tailbench.h"

namespace sol::cluster {

/**
 * sim::Clock view of a ThreadedRuntime's ClockPolicy.
 *
 * Models and actuators take `const sim::Clock&` at construction, but a
 * runtime's ClockPolicy only exists once the runtime does — and the
 * runtime needs the model first. The adapter breaks the cycle: build
 * the agent against an unbound PolicyClock, build the runtime, then
 * Bind. Reads before Bind return time zero (nothing reads the clock
 * before Start).
 */
template <typename ClockPolicy>
class PolicyClock : public sim::Clock
{
  public:
    void Bind(const ClockPolicy* policy) { policy_ = policy; }

    sim::TimePoint
    Now() const override
    {
        return policy_ != nullptr ? policy_->Now() : sim::TimePoint{};
    }

  private:
    const ClockPolicy* policy_ = nullptr;
};

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

/** One synthetic agent hosted on a ThreadedRuntime: the same
 *  SyntheticModel/SyntheticActuator logic (and seed streams) as the
 *  SimRuntime-hosted SyntheticAgent, on real threads. */
template <typename ClockPolicy>
class ThreadedSyntheticAgent
{
  public:
    using Runtime = core::ThreadedRuntime<double, double, ClockPolicy>;

    ThreadedSyntheticAgent(const SyntheticAgentConfig& config,
                           core::ActuationGovernor* governor,
                           const core::RuntimeOptions& options)
        : config_(config),
          model_(config_, clock_),
          actuator_(config_),
          runtime_(model_, actuator_, MakeSyntheticSchedule(config_),
                   options)
    {
        clock_.Bind(&runtime_.clock());
        actuator_.SetGovernor(governor);
        actuator_.SetClock(&clock_);
    }

    const std::string& name() const { return config_.name; }
    Runtime& runtime() { return runtime_; }
    SyntheticActuator& actuator() { return actuator_; }

    /** The agent's PolicyClock — trace tracks timestamp against it so
     *  ManualClock runs get virtual, deterministic timestamps. */
    const sim::Clock& clock() const { return clock_; }

  private:
    SyntheticAgentConfig config_;
    PolicyClock<ClockPolicy> clock_;  // Before model_: it captures it.
    SyntheticModel model_;
    SyntheticActuator actuator_;
    Runtime runtime_;
};

/**
 * All agents of one node, each on its own ThreadedRuntime.
 *
 * Reuses MultiAgentNodeConfig wholesale — same substrate sizing, agent
 * selection, synthetic fleet, arbiter policy, and seed derivation — so
 * one config describes the same node under either execution backend.
 *
 * @tparam ClockPolicy Per-agent time source (every runtime gets its
 *   own instance; tests reach them via agent_clock()).
 */
template <typename ClockPolicy = core::SteadyClockPolicy>
class ThreadedMultiAgentNode
{
  public:
    explicit ThreadedMultiAgentNode(MultiAgentNodeConfig config)
        : config_(std::move(config)),
          rng_(sim::DeriveStreamSeed(config_.seed, 0)),
          node_(MakeNodeConfig()),
          memory_(config_.memory_batches, config_.fast_tier_batches),
          channels_(config_.num_channels, config_.channel_visibility),
          policy_(config_.num_channels),
          arbiter_(config_.arbiter,
                   telemetry::MetricScope(metrics_, "arbiter")),
          incident_rng_(sim::DeriveStreamSeed(config_.seed, 1))
    {
        // Driver/control tracks first, then agent tracks in build
        // order: creation order fixes the tid order in the trace.
        if (config_.trace_session != nullptr) {
            driver_trace_ = config_.trace_session->NewRecorder(
                config_.name + ".driver", &trace_clock_);
            control_trace_ = config_.trace_session->NewRecorder(
                config_.name + ".control", &trace_clock_);
        }
        BuildSubstrate();
        BuildRealAgents();
        BuildSynthetics();
    }

    ~ThreadedMultiAgentNode()
    {
        Stop();
        StopDriver();
        // registrations_ destruct first (cleanups run against live
        // runtimes/actuators), mirroring MultiAgentNode's member order.
    }

    ThreadedMultiAgentNode(const ThreadedMultiAgentNode&) = delete;
    ThreadedMultiAgentNode& operator=(const ThreadedMultiAgentNode&) =
        delete;

    /** Starts the substrate driver (if any real agent is enabled) and
     *  every agent's runtime threads. */
    void
    Start()
    {
        if (started_) {
            return;
        }
        started_ = true;
        if (control_trace_ != nullptr) {
            control_trace_->Instant("node_start", "node");
        }
        if (has_real_agents_ && !driver_running_.exchange(true)) {
            driver_thread_ = std::thread([this] { DriverLoop(); });
        }
        for (const AgentSlot& slot : slots_) {
            slot.start();
        }
    }

    /** Stops every agent runtime (the driver keeps the substrate
     *  advancing, as on the simulated node). */
    void
    Stop()
    {
        for (const AgentSlot& slot : slots_) {
            slot.stop();
        }
        if (started_ && control_trace_ != nullptr) {
            control_trace_->Instant("node_stop", "node");
        }
        started_ = false;
    }

    /** Stops/starts one agent's runtime by name (no-op on unknown
     *  names) — an SRE restarting a single agent while its 76 peers
     *  keep running. */
    void
    StopAgent(const std::string& name)
    {
        for (const AgentSlot& slot : slots_) {
            if (slot.name == name) {
                slot.stop();
                if (control_trace_ != nullptr) {
                    control_trace_->Instant("agent_stop", "node", {},
                                            "agent", name);
                }
            }
        }
    }

    void
    StartAgent(const std::string& name)
    {
        for (const AgentSlot& slot : slots_) {
            if (slot.name == name) {
                slot.start();
                if (control_trace_ != nullptr) {
                    control_trace_->Instant("agent_start", "node", {},
                                            "agent", name);
                }
            }
        }
    }

    /** SRE incident response via the node-local registry. */
    void
    CleanUpAll()
    {
        if (control_trace_ != nullptr) {
            control_trace_->Instant("cleanup_all", "node");
        }
        registry_.CleanUpAll();
    }

    /** Refreshes per-agent runtime gauges, the arbiter's counters, and
     *  (when real agents run) the substrate gauges in metrics(). */
    void
    CollectMetrics()
    {
        for (const AgentSlot& slot : slots_) {
            WriteAgentRuntimeStats(
                telemetry::MetricScope(metrics_, slot.name),
                slot.stats());
        }
        arbiter_.WriteMetrics();

        telemetry::MetricScope node_scope(metrics_, "node");
        if (has_real_agents_) {
            core::MutexLock lock(substrate_mutex_);
            node_scope.SetGauge("primary_p99_ms",
                                primary_workload_->PerformanceValue());
            node_scope.SetGauge(
                "primary_completed_requests",
                static_cast<double>(
                    primary_workload_->completed_requests()));
            node_scope.SetGauge("harvested_core_seconds",
                                elastic_workload_->core_seconds());
            node_scope.SetGauge("energy_joules", node_.EnergyJoules());
            node_scope.SetGauge("primary_freq_ghz",
                                node_.VmFrequency(primary_));
            node_scope.SetGauge("memory_remote_fraction",
                                memory_.stats().RemoteFraction());
            node_scope.SetGauge("incident_coverage",
                                channels_.stats().Coverage());
        }
        node_scope.SetGauge("total_epochs",
                            static_cast<double>(TotalEpochs()));
        const telemetry::LatencyHistogram epoch_hist =
            EpochLatencyHistogram();
        if (!epoch_hist.empty()) {
            // Snapshot-overwrite, so repeated collections stay
            // idempotent (same rule as the arbiter's histograms).
            node_scope.SetHistogram("epoch_ns", epoch_hist);
        }
    }

    /** Merged epoch-duration histogram across every agent on the node
     *  (ns in the agents' ClockPolicy timebase; always on). */
    telemetry::LatencyHistogram
    EpochLatencyHistogram() const
    {
        telemetry::LatencyHistogram merged;
        for (const AgentSlot& slot : slots_) {
            slot.merge_epoch_latency(merged);
        }
        return merged;
    }

    std::uint64_t
    TotalEpochs() const
    {
        std::uint64_t epochs = 0;
        for (const AgentSlot& slot : slots_) {
            epochs += slot.stats().epochs;
        }
        return epochs;
    }

    /** Field-wise sum of every agent runtime's counters — the roll-up
     *  the node parity suite compares against MultiAgentNode's. */
    core::RuntimeStats
    AggregateStats() const
    {
        core::RuntimeStats total;
        for (const AgentSlot& slot : slots_) {
            total.Accumulate(slot.stats());
        }
        return total;
    }

    /** One agent's stats by name (zeros for unknown names). */
    core::RuntimeStats
    AgentStats(const std::string& name) const
    {
        for (const AgentSlot& slot : slots_) {
            if (slot.name == name) {
                return slot.stats();
            }
        }
        return core::RuntimeStats{};
    }

    // --- Introspection ---------------------------------------------------
    const std::string& name() const { return config_.name; }
    core::AgentRegistry& registry() { return registry_; }
    InterferenceArbiter& arbiter() { return arbiter_; }
    telemetry::MetricRegistry& metrics() { return metrics_; }
    bool started() const { return started_; }

    /** Total agents on the node (real + synthetic). */
    std::size_t num_agents() const { return slots_.size(); }
    std::size_t num_synthetic_agents() const { return synthetics_.size(); }
    ThreadedSyntheticAgent<ClockPolicy>&
    synthetic_agent(std::size_t i)
    {
        return *synthetics_[i];
    }

    /** Agent names in slot order (real agents first, then synthetics —
     *  the same order as MultiAgentNode builds). */
    std::vector<std::string>
    agent_names() const
    {
        std::vector<std::string> names;
        names.reserve(slots_.size());
        for (const AgentSlot& slot : slots_) {
            names.push_back(slot.name);
        }
        return names;
    }

    /** Agent i's time source — the parity harness drives each agent's
     *  ManualClock through this. */
    ClockPolicy& agent_clock(std::size_t i) { return *slots_[i].clock; }

  private:
    using OverclockRuntime =
        core::ThreadedRuntime<agents::OverclockSample, double,
                              ClockPolicy>;
    using HarvestRuntime =
        core::ThreadedRuntime<agents::HarvestSample, int, ClockPolicy>;
    using MemoryRuntime =
        core::ThreadedRuntime<agents::ScanRound, agents::MemoryPlan,
                              ClockPolicy>;
    using MonitorRuntime =
        core::ThreadedRuntime<agents::MonitorRound, std::vector<double>,
                              ClockPolicy>;

    /** Type-erased handle on one agent (see MultiAgentNode::AgentSlot);
     *  additionally exposes the runtime's clock for lockstep tests. */
    struct AgentSlot {
        std::string name;
        std::function<void()> start;
        std::function<void()> stop;
        std::function<core::RuntimeStats()> stats;
        std::function<void(telemetry::LatencyHistogram&)>
            merge_epoch_latency;
        ClockPolicy* clock = nullptr;
    };

    node::NodeConfig
    MakeNodeConfig() const
    {
        node::NodeConfig node_config;
        node_config.total_cores = config_.total_cores;
        return node_config;
    }

    void
    BuildSubstrate()
    {
        workloads::TailBenchConfig primary_config =
            workloads::ImageDnnConfig(
                sim::DeriveStreamSeed(config_.seed, 2));
        primary_workload_ =
            std::make_shared<workloads::TailBench>(primary_config);
        elastic_workload_ = std::make_shared<workloads::BestEffort>();
        primary_ = node_.AddVm(
            node::VmConfig{"primary", primary_config.vcpus},
            primary_workload_);
        elastic_ = node_.AddVm(
            node::VmConfig{"elastic", primary_config.vcpus},
            elastic_workload_);
        node_.GrantCores(elastic_, 0);  // Nothing harvested yet.

        workloads::ZipfMemoryConfig pattern_config =
            workloads::ObjectStoreMemConfig(
                sim::DeriveStreamSeed(config_.seed, 3));
        pattern_config.num_batches = config_.memory_batches;
        memory_pattern_ = std::make_unique<workloads::ZipfMemoryPattern>(
            pattern_config);

        AssignChannelRates(config_, rng_, channels_);
    }

    /** Registers an agent's runtime in slots_ and the registry. */
    template <typename Runtime, typename Actuator>
    void
    AddAgentSlot(std::string name, Runtime* runtime, Actuator* actuator)
    {
        slots_.push_back({name, [runtime] { runtime->Start(); },
                          [runtime] { runtime->Stop(); },
                          [runtime] { return runtime->stats(); },
                          [runtime](telemetry::LatencyHistogram& out) {
                              runtime->MergeEpochLatencyInto(out);
                          },
                          &runtime->clock()});
        registrations_.emplace_back(registry_, name,
                                    [runtime, actuator] {
                                        runtime->Stop();
                                        actuator->CleanUp();
                                    });
    }

    /**
     * Creates the agent's two SPSC tracks — "<node>.<agent>.model" and
     * "<node>.<agent>.actuator" — timestamped against the agent's own
     * clock, and attaches them to its runtime. No-op without a trace
     * session.
     */
    template <typename Runtime>
    void
    AttachAgentTrace(const std::string& agent_name, Runtime* runtime,
                     const sim::Clock* clock)
    {
        if (config_.trace_session == nullptr) {
            return;
        }
        const std::string base = config_.name + "." + agent_name;
        runtime->SetTraceRecorders(
            config_.trace_session->NewRecorder(base + ".model", clock),
            config_.trace_session->NewRecorder(base + ".actuator",
                                               clock));
    }

    void
    BuildRealAgents()
    {
        using sim::DeriveStreamSeed;
        if (config_.run_overclock) {
            agents::SmartOverclockConfig cfg = config_.overclock;
            cfg.seed = DeriveStreamSeed(config_.seed, 4);
            overclock_clock_ =
                std::make_unique<PolicyClock<ClockPolicy>>();
            overclock_model_ = std::make_unique<agents::OverclockModel>(
                node_, primary_, *overclock_clock_, cfg);
            overclock_actuator_ =
                std::make_unique<agents::OverclockActuator>(
                    node_, primary_, *overclock_clock_, cfg);
            overclock_actuator_->SetGovernor(&arbiter_);
            overclock_locked_model_ = std::make_unique<
                LockedModel<agents::OverclockSample, double>>(
                *overclock_model_, substrate_mutex_);
            overclock_locked_actuator_ =
                std::make_unique<LockedActuator<double>>(
                    *overclock_actuator_, substrate_mutex_);
            overclock_runtime_ = std::make_unique<OverclockRuntime>(
                *overclock_locked_model_, *overclock_locked_actuator_,
                agents::SmartOverclockSchedule(), config_.runtime);
            overclock_clock_->Bind(&overclock_runtime_->clock());
            AttachAgentTrace(agents::kSmartOverclockName,
                             overclock_runtime_.get(),
                             overclock_clock_.get());
            AddAgentSlot(agents::kSmartOverclockName,
                         overclock_runtime_.get(),
                         overclock_locked_actuator_.get());
        }
        if (config_.run_harvest) {
            agents::SmartHarvestConfig cfg = config_.harvest;
            cfg.seed = DeriveStreamSeed(config_.seed, 5);
            harvest_clock_ = std::make_unique<PolicyClock<ClockPolicy>>();
            harvest_model_ = std::make_unique<agents::HarvestModel>(
                node_, primary_, *harvest_clock_, cfg);
            harvest_actuator_ = std::make_unique<agents::HarvestActuator>(
                node_, primary_, elastic_, *harvest_clock_, cfg);
            harvest_actuator_->SetGovernor(&arbiter_);
            harvest_locked_model_ = std::make_unique<
                LockedModel<agents::HarvestSample, int>>(
                *harvest_model_, substrate_mutex_);
            harvest_locked_actuator_ =
                std::make_unique<LockedActuator<int>>(*harvest_actuator_,
                                                      substrate_mutex_);
            harvest_runtime_ = std::make_unique<HarvestRuntime>(
                *harvest_locked_model_, *harvest_locked_actuator_,
                agents::SmartHarvestSchedule(), config_.runtime);
            harvest_clock_->Bind(&harvest_runtime_->clock());
            AttachAgentTrace(agents::kSmartHarvestName,
                             harvest_runtime_.get(),
                             harvest_clock_.get());
            AddAgentSlot(agents::kSmartHarvestName,
                         harvest_runtime_.get(),
                         harvest_locked_actuator_.get());
        }
        if (config_.run_memory) {
            agents::SmartMemoryConfig cfg = config_.memory;
            cfg.seed = DeriveStreamSeed(config_.seed, 6);
            memory_clock_ = std::make_unique<PolicyClock<ClockPolicy>>();
            memory_model_ = std::make_unique<agents::MemoryModel>(
                memory_, *memory_clock_, cfg);
            memory_actuator_ = std::make_unique<agents::MemoryActuator>(
                memory_, *memory_clock_, cfg);
            memory_actuator_->SetGovernor(&arbiter_);
            memory_locked_model_ = std::make_unique<
                LockedModel<agents::ScanRound, agents::MemoryPlan>>(
                *memory_model_, substrate_mutex_);
            memory_locked_actuator_ =
                std::make_unique<LockedActuator<agents::MemoryPlan>>(
                    *memory_actuator_, substrate_mutex_);
            memory_runtime_ = std::make_unique<MemoryRuntime>(
                *memory_locked_model_, *memory_locked_actuator_,
                agents::SmartMemorySchedule(), config_.runtime);
            memory_clock_->Bind(&memory_runtime_->clock());
            AttachAgentTrace(agents::kSmartMemoryName,
                             memory_runtime_.get(), memory_clock_.get());
            AddAgentSlot(agents::kSmartMemoryName, memory_runtime_.get(),
                         memory_locked_actuator_.get());
        }
        if (config_.run_monitor) {
            agents::SmartMonitorConfig cfg = config_.monitor;
            cfg.seed = DeriveStreamSeed(config_.seed, 7);
            monitor_clock_ = std::make_unique<PolicyClock<ClockPolicy>>();
            monitor_model_ = std::make_unique<agents::MonitorModel>(
                channels_, policy_, *monitor_clock_, cfg);
            monitor_actuator_ =
                std::make_unique<agents::MonitorActuator>(policy_, cfg);
            monitor_actuator_->SetGovernor(&arbiter_);
            monitor_locked_model_ = std::make_unique<
                LockedModel<agents::MonitorRound, std::vector<double>>>(
                *monitor_model_, substrate_mutex_);
            monitor_locked_actuator_ = std::make_unique<
                LockedActuator<std::vector<double>>>(*monitor_actuator_,
                                                     substrate_mutex_);
            monitor_runtime_ = std::make_unique<MonitorRuntime>(
                *monitor_locked_model_, *monitor_locked_actuator_,
                agents::SmartMonitorSchedule(), config_.runtime);
            monitor_clock_->Bind(&monitor_runtime_->clock());
            AttachAgentTrace(agents::kSmartMonitorName,
                             monitor_runtime_.get(),
                             monitor_clock_.get());
            AddAgentSlot(agents::kSmartMonitorName,
                         monitor_runtime_.get(),
                         monitor_locked_actuator_.get());
        }
        has_real_agents_ = config_.run_overclock || config_.run_harvest ||
                           config_.run_memory || config_.run_monitor;
    }

    void
    BuildSynthetics()
    {
        // Same seed streams (8..) and per-instance defaulting as
        // MultiAgentNode, so agent i is bit-identical on both nodes.
        synthetics_.reserve(config_.synthetic_agents);
        for (std::size_t i = 0; i < config_.synthetic_agents; ++i) {
            SyntheticAgentConfig cfg = config_.synthetic;
            cfg.name = "synthetic" + std::to_string(i);
            cfg.seed = sim::DeriveStreamSeed(config_.seed, 8 + i);
            cfg.domain = i % 2 == 0
                             ? core::ActuationDomain::kTelemetryBudget
                             : core::ActuationDomain::kMemoryPlacement;
            cfg.trace_driver = config_.trace_driver;
            cfg.tenant =
                config_.node_index * config_.synthetic_agents + i;
            if (config_.customize_synthetic) {
                config_.customize_synthetic(i, cfg);
            }
            synthetics_.push_back(
                std::make_unique<ThreadedSyntheticAgent<ClockPolicy>>(
                    cfg, &arbiter_, config_.runtime));
            auto* agent = synthetics_.back().get();
            AttachAgentTrace(agent->name(), &agent->runtime(),
                             &agent->clock());
            AddAgentSlot(agent->name(), &agent->runtime(),
                         &agent->actuator());
        }
    }

    /** Advances the shared substrate at node_tick cadence (wall time),
     *  batching the slower memory/channel drivers exactly like the
     *  simulated node's PeriodicTasks. */
    void
    DriverLoop()
    {
        telemetry::trace::ScopedThreadRecorder bind(driver_trace_);
        // determinism-lint: allow(wall-clock) -- driver pacing only.
        auto last = std::chrono::steady_clock::now();
        sim::Duration memory_accum{0};
        sim::Duration channel_accum{0};
        sim::Duration health_accum{0};
        while (driver_running_.load()) {
            std::this_thread::sleep_for(
                std::chrono::nanoseconds(config_.node_tick));
            // determinism-lint: allow(wall-clock) -- driver pacing only.
            const auto wall = std::chrono::steady_clock::now();
            const auto elapsed =
                std::chrono::duration_cast<sim::Duration>(wall - last);
            last = wall;
            telemetry::trace::TraceSpan tick_span(driver_trace_,
                                                  "node_tick", "node");
            core::MutexLock lock(substrate_mutex_);
            const sim::TimePoint start = substrate_now_;
            substrate_now_ += elapsed;
            node_.Advance(substrate_now_, elapsed);
            memory_accum += elapsed;
            if (memory_accum >= config_.memory_tick) {
                memory_pattern_->GenerateAccesses(start, memory_accum,
                                                  memory_);
                memory_accum = sim::Duration{0};
            }
            channel_accum += elapsed;
            if (channel_accum >= config_.channel_tick) {
                channels_.Advance(start, channel_accum, incident_rng_);
                channel_accum = sim::Duration{0};
            }
            if (config_.health != nullptr) {
                // Same driver-tick piggyback as the simulated node
                // (AppendNodeHealthSample keeps the series names
                // identical); agent stats and arbiter counters are
                // atomics, epoch histograms merged under each engine's
                // queue mutex, so reading them from the driver thread
                // is safe.
                health_accum += elapsed;
                if (health_accum >= config_.health_period) {
                    AppendNodeHealthSample(
                        *config_.health, config_.name, AggregateStats(),
                        arbiter_, EpochLatencyHistogram(), slots_.size(),
                        substrate_now_);
                    health_accum = sim::Duration{0};
                }
            }
        }
    }

    void
    StopDriver()
    {
        if (driver_running_.exchange(false) && driver_thread_.joinable()) {
            driver_thread_.join();
        }
    }

    MultiAgentNodeConfig config_;
    sim::Rng rng_;

    /** Wall timebase for the driver/control tracks (agent tracks use
     *  their agent's PolicyClock instead). */
    telemetry::trace::SteadyClock trace_clock_;
    telemetry::trace::TraceRecorder* driver_trace_ = nullptr;
    telemetry::trace::TraceRecorder* control_trace_ = nullptr;

    /** Serializes all real-agent and driver substrate access. */
    core::Mutex substrate_mutex_;

    // Substrate (construction order matters: agents reference these).
    node::Node node_;
    node::TieredMemory memory_;
    node::ChannelArray channels_;
    agents::SamplingPolicy policy_;
    std::shared_ptr<workloads::TailBench> primary_workload_;
    std::shared_ptr<workloads::BestEffort> elastic_workload_;
    std::unique_ptr<workloads::ZipfMemoryPattern> memory_pattern_;
    node::VmId primary_ = 0;
    node::VmId elastic_ = 0;

    telemetry::MetricRegistry metrics_;
    InterferenceArbiter arbiter_;

    // Real agents: raw model/actuator, locked decorators, runtime.
    std::unique_ptr<PolicyClock<ClockPolicy>> overclock_clock_;
    std::unique_ptr<agents::OverclockModel> overclock_model_;
    std::unique_ptr<agents::OverclockActuator> overclock_actuator_;
    std::unique_ptr<LockedModel<agents::OverclockSample, double>>
        overclock_locked_model_;
    std::unique_ptr<LockedActuator<double>> overclock_locked_actuator_;
    std::unique_ptr<OverclockRuntime> overclock_runtime_;
    std::unique_ptr<PolicyClock<ClockPolicy>> harvest_clock_;
    std::unique_ptr<agents::HarvestModel> harvest_model_;
    std::unique_ptr<agents::HarvestActuator> harvest_actuator_;
    std::unique_ptr<LockedModel<agents::HarvestSample, int>>
        harvest_locked_model_;
    std::unique_ptr<LockedActuator<int>> harvest_locked_actuator_;
    std::unique_ptr<HarvestRuntime> harvest_runtime_;
    std::unique_ptr<PolicyClock<ClockPolicy>> memory_clock_;
    std::unique_ptr<agents::MemoryModel> memory_model_;
    std::unique_ptr<agents::MemoryActuator> memory_actuator_;
    std::unique_ptr<LockedModel<agents::ScanRound, agents::MemoryPlan>>
        memory_locked_model_;
    std::unique_ptr<LockedActuator<agents::MemoryPlan>>
        memory_locked_actuator_;
    std::unique_ptr<MemoryRuntime> memory_runtime_;
    std::unique_ptr<PolicyClock<ClockPolicy>> monitor_clock_;
    std::unique_ptr<agents::MonitorModel> monitor_model_;
    std::unique_ptr<agents::MonitorActuator> monitor_actuator_;
    std::unique_ptr<LockedModel<agents::MonitorRound,
                                std::vector<double>>>
        monitor_locked_model_;
    std::unique_ptr<LockedActuator<std::vector<double>>>
        monitor_locked_actuator_;
    std::unique_ptr<MonitorRuntime> monitor_runtime_;
    std::vector<std::unique_ptr<ThreadedSyntheticAgent<ClockPolicy>>>
        synthetics_;

    // Substrate driver thread (armed by Start()).
    sim::Rng incident_rng_;
    sim::TimePoint substrate_now_{0};
    std::atomic<bool> driver_running_{false};
    std::thread driver_thread_;
    bool has_real_agents_ = false;

    // Registry last among agent state: its registrations' cleanups run
    // first on destruction, while runtimes and actuators still exist.
    std::vector<AgentSlot> slots_;
    core::AgentRegistry registry_;
    std::vector<core::ScopedRegistration> registrations_;
    bool started_ = false;
};

}  // namespace sol::cluster
