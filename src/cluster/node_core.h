/**
 * @file
 * One node core, two backends.
 *
 * A node runs the paper's full agent complement — SmartOverclock,
 * SmartHarvest, SmartMemory, and SmartMonitor, plus synthetic fillers up
 * to the paper's ~77 agents per node — on one shared substrate, with
 *   - every actuation routed through an InterferenceArbiter that
 *     detects and resolves conflicting actuations (e.g. SmartOverclock
 *     raising frequency while SmartHarvest reclaims cores),
 *   - every agent registered in a node-local core::AgentRegistry, so
 *     an SRE (or a test) can terminate and clean up any or all agents
 *     without knowing their implementation, and
 *   - per-agent accounting namespaced into one telemetry registry
 *     ("smart-harvest.epochs", "arbiter.conflicts", ...).
 *
 * The substrate is shared the way a real node shares it: the
 * overclocking and harvesting agents manage the same primary VM (the
 * direct conflict surface), the memory agent manages the node's tiered
 * memory, and the monitoring agent spreads a sampling budget over the
 * node's telemetry channels.
 *
 * NodeCore is everything about such a node that does not depend on how
 * its agents run: the config, the substrate and its seed streams, the
 * agent builds, the agent slots and registry, the lifecycle, the
 * roll-ups, the gauge list, the health sample, and the teardown order.
 * Its Backend parameter supplies only what really differs:
 *
 *   - How one agent is hosted. `Backend::Host<D, P>` owns the clock the
 *     agent's model and actuator read and the runtime that runs them:
 *       clock()             the agent's time source,
 *       Run(model, actuator, schedule, options)
 *                           builds the runtime and returns the actuator
 *                           it drives,
 *       runtime()           the runtime, once Run has built it.
 *     A host is built on HostOn(substrate): the real agents pass the
 *     substrate mutex they share, synthetic agents nullptr.
 *     Backend::SyntheticAgent is HostedSyntheticAgent over such a host.
 *     Attach(name, runtime, clock) is what the backend records per
 *     agent (trace tracks, clocks).
 *   - What paces the substrate drivers. The first Start() arms the
 *     core's three periodic drivers (node tick, memory accesses,
 *     channel incidents) on driver_queue(), then calls
 *     StartDriving(core) to set that queue running.
 *   - The lock that serializes substrate access: `Backend::Mutex`.
 *   - Lifecycle notes: Note(event, agent) marks each lifecycle action
 *     (the threaded backend's control-track instants).
 *
 * MultiAgentNode (multi_agent_node.h) is the simulated backend: every
 * agent is a SimRuntime on one event queue. ThreadedMultiAgentNode
 * (threaded_multi_agent_node.h) is the threaded backend: every agent on
 * its own ThreadedRuntime. tests/node_parity_test.cc runs each as the
 * other's reference.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <type_traits>
#include <utility>
#include <vector>

#include "agents/smartharvest/smartharvest.h"
#include "agents/smartmemory/smartmemory.h"
#include "agents/smartmonitor/smartmonitor.h"
#include "agents/smartoverclock/smartoverclock.h"
#include "cluster/interference_arbiter.h"
#include "cluster/node_totals.h"
#include "cluster/synthetic_agent.h"
#include "core/agent_registry.h"
#include "core/runtime_stats.h"
#include "core/sync.h"
#include "node/channel_array.h"
#include "node/node.h"
#include "node/tiered_memory.h"
#include "sim/event_queue.h"
#include "sim/rng.h"
#include "telemetry/metric_registry.h"
#include "telemetry/timeseries.h"
#include "telemetry/trace.h"
#include "workloads/best_effort.h"
#include "workloads/memory_patterns.h"
#include "workloads/tailbench.h"

namespace sol::cluster {

/** Configuration of one multi-agent node, whichever backend runs it. */
struct MultiAgentNodeConfig {
    /** Metric namespace and display name ("node0", "node1", ...). */
    std::string name = "node0";

    /** Per-node RNG stream seed; drives workloads and agent seeds. */
    std::uint64_t seed = 1;

    /**
     * Global fleet index of this node (NodeShard sets it from the
     * node's global position). Only used to derive fleet-global tenant
     * indices for the trace driver, so single-node deployments can
     * leave it 0.
     */
    std::size_t node_index = 0;

    /**
     * Trace-driven demand oracle applied to every synthetic agent on
     * the node (workloads/trace_driver.h); null (the default) keeps
     * the flat synthetic-periodic load every prior PR hashed. Not
     * owned; must outlive the node. Synthetic i consults it as tenant
     * `node_index * synthetic_agents + i`.
     */
    const workloads::TraceDriver* trace_driver = nullptr;

    /** Which agents run; disabled agents leave their substrate idle. */
    bool run_overclock = true;
    bool run_harvest = true;
    bool run_memory = true;
    bool run_monitor = true;

    /**
     * Cheap synthetic agents co-located beside the real four, closing
     * the gap to the paper's ~77 agents per node (73 synthetics + the
     * 4 real agents). Each runs a full runtime with O(1) logic and
     * contends through the shared arbiter; 0 (the default) keeps the
     * node exactly as the single-purpose experiments expect it.
     */
    std::size_t synthetic_agents = 0;

    /** Template for every synthetic agent (name/seed/domain are set
     *  per instance; domains alternate telemetry/memory placement so
     *  synthetics pressure the arbiter without monopolizing the
     *  CPU-frequency/cores conflict surface the real agents study). */
    SyntheticAgentConfig synthetic;

    /**
     * Per-instance override applied after the defaults above (index,
     * config already carrying its derived name/seed/domain). Node
     * parity scenarios use this to give each synthetic its own cadence
     * or conflict role; the node core applies it for both backends, so
     * a scenario scripted here runs the same on the simulated and the
     * threaded node.
     */
    std::function<void(std::size_t, SyntheticAgentConfig&)>
        customize_synthetic;

    // --- Substrate sizing -------------------------------------------------
    int total_cores = 16;
    std::size_t memory_batches = 256;
    /** First-tier capacity. Matches memory_batches (the fig 7/8
     *  setting): everything fits locally, and demoting to the slow
     *  tier to save DRAM is entirely the agent's choice. */
    std::size_t fast_tier_batches = 256;
    std::size_t num_channels = 32;
    std::size_t hot_channels = 2;
    double hot_rate_per_sec = 0.5;
    double cold_rate_per_sec = 0.004;
    sim::Duration channel_visibility = sim::Seconds(2);

    // --- Driver cadence (each must be positive; Start() throws
    // std::invalid_argument otherwise) ---------------------------------
    /** Hypervisor tick advancing VMs/counters (50 us = paper sampling). */
    sim::Duration node_tick = sim::Micros(50);
    sim::Duration memory_tick = sim::Millis(100);
    sim::Duration channel_tick = sim::Millis(20);

    /** Shared runtime ablation/fault switches (applied to all agents). */
    core::RuntimeOptions runtime;

    /**
     * Flight-recorder track every agent runtime on this node records
     * into (spans + safeguard instants; see telemetry/trace.h). The
     * node's event queue serializes all agents on one thread, so one
     * SPSC recorder safely serves them all. The caller owns the
     * recorder; null (the default) disables tracing. The threaded node
     * ignores this and uses trace_session instead — its agents need
     * one recorder per thread.
     */
    telemetry::trace::TraceRecorder* trace = nullptr;

    /**
     * Trace session the *threaded* node creates per-agent
     * model/actuator recorders in (two tracks per agent plus driver
     * and control tracks). Ignored by the simulated node; null (the
     * default) disables tracing.
     */
    telemetry::trace::TraceSession* trace_session = nullptr;

    /**
     * Node-local health timeline (null disables). Both backends sample
     * the same "<name>.*" series at `health_period` cadence,
     * piggybacked on the node driver tick — no new events are
     * scheduled, so enabling it never perturbs event traces. On the
     * simulated node timestamps are virtual queue time; on the threaded
     * node they are the driver's substrate clock. The caller owns the
     * store (shared so a live scrape thread can read while the driver
     * samples). The threaded node samples from its driver thread, which
     * only runs when a real agent is enabled.
     */
    telemetry::SharedTimeSeriesStore* health = nullptr;

    /** Cadence of node-health samples (must be positive; Start()
     *  throws std::invalid_argument otherwise). */
    sim::Duration health_period = sim::Millis(100);

    InterferenceArbiterConfig arbiter;

    agents::SmartOverclockConfig overclock;
    agents::SmartHarvestConfig harvest;
    agents::SmartMemoryConfig memory;
    agents::SmartMonitorConfig monitor;
};

/**
 * The node's shared substrate: one primary VM running an image-DNN
 * TailBench workload, one elastic best-effort VM, tiered memory driven
 * by a Zipf access pattern, and telemetry channels with a few hot ones.
 * Built from seed streams 0-3 of the node seed.
 */
struct NodeSubstrate {
    /**
     * Throws std::invalid_argument before the first channel draw when
     * the hot channels can never be placed: more hot channels than
     * channels, or hot channels no hotter than cold ones.
     */
    explicit NodeSubstrate(const MultiAgentNodeConfig& config)
        : node([&config] {
              node::NodeConfig node_config;
              node_config.total_cores = config.total_cores;
              return node_config;
          }()),
          memory(config.memory_batches, config.fast_tier_batches),
          channels(config.num_channels, config.channel_visibility),
          policy(config.num_channels),
          incident_rng(sim::DeriveStreamSeed(config.seed, 1))
    {
        using sim::DeriveStreamSeed;
        // --- Shared CPU substrate: one primary VM, one elastic VM. ----
        const workloads::TailBenchConfig primary_config =
            workloads::ImageDnnConfig(DeriveStreamSeed(config.seed, 2));
        primary_workload =
            std::make_shared<workloads::TailBench>(primary_config);
        elastic_workload = std::make_shared<workloads::BestEffort>();
        primary = node.AddVm(
            node::VmConfig{"primary", primary_config.vcpus},
            primary_workload);
        elastic = node.AddVm(
            node::VmConfig{"elastic", primary_config.vcpus},
            elastic_workload);
        node.GrantCores(elastic, 0);  // Nothing harvested yet.

        // --- Memory substrate. ----------------------------------------
        workloads::ZipfMemoryConfig pattern_config =
            workloads::ObjectStoreMemConfig(DeriveStreamSeed(config.seed, 3));
        pattern_config.num_batches = config.memory_batches;
        memory_pattern =
            std::make_unique<workloads::ZipfMemoryPattern>(pattern_config);

        // --- Telemetry-channel substrate: a few hot channels. ---------
        // A hot channel is drawn until one below the hot rate turns up,
        // so either config below would spin forever.
        if (config.hot_channels > config.num_channels) {
            throw std::invalid_argument("hot_channels exceeds num_channels");
        }
        if (config.hot_channels > 0 &&
            !(config.hot_rate_per_sec > config.cold_rate_per_sec)) {
            throw std::invalid_argument(
                "hot_rate_per_sec must exceed cold_rate_per_sec");
        }
        for (node::ChannelId c = 0; c < channels.num_channels(); ++c) {
            channels.SetIncidentRate(c, config.cold_rate_per_sec);
        }
        sim::Rng rng(DeriveStreamSeed(config.seed, 0));
        for (std::size_t picked = 0; picked < config.hot_channels;) {
            const auto c = static_cast<node::ChannelId>(
                rng.NextBelow(config.num_channels));
            if (channels.IncidentRate(c) < config.hot_rate_per_sec) {
                channels.SetIncidentRate(c, config.hot_rate_per_sec);
                ++picked;
            }
        }
    }

    node::Node node;
    node::TieredMemory memory;
    node::ChannelArray channels;
    agents::SamplingPolicy policy;
    std::shared_ptr<workloads::TailBench> primary_workload;
    std::shared_ptr<workloads::BestEffort> elastic_workload;
    std::unique_ptr<workloads::ZipfMemoryPattern> memory_pattern;
    node::VmId primary = 0;
    node::VmId elastic = 0;
    /** Incident draws of the channel driver (seed stream 1). */
    sim::Rng incident_rng;
};

/** The node core; see the file comment. MultiAgentNode and
 *  ThreadedMultiAgentNode derive from it. */
template <typename Backend>
class NodeCore
{
  public:
    using SyntheticAgent = typename Backend::SyntheticAgent;

    NodeCore(const NodeCore&) = delete;
    NodeCore& operator=(const NodeCore&) = delete;

    /**
     * Starts every agent runtime. The first call also arms the
     * substrate drivers, which keep running until the node dies.
     * Throws std::invalid_argument, before anything starts, when a
     * driver tick is non-positive (a zero tick would re-fire at one
     * instant forever) or health sampling is on with a non-positive
     * period.
     */
    void
    Start()
    {
        const auto require_positive = [](sim::Duration period,
                                         const char* field) {
            if (period <= sim::Duration::zero()) {
                throw std::invalid_argument(
                    std::string("MultiAgentNodeConfig::") + field +
                    " must be positive");
            }
        };
        require_positive(config_.node_tick, "node_tick");
        require_positive(config_.memory_tick, "memory_tick");
        require_positive(config_.channel_tick, "channel_tick");
        if (config_.health != nullptr) {
            require_positive(config_.health_period, "health_period");
        }
        if (started_) {
            return;
        }
        started_ = true;
        backend_.Note("node_start");
        if (driver_queue_ == nullptr) {
            driver_queue_ = &backend_.driver_queue();
            ArmDrivers();
            backend_.StartDriving(*this);
        }
        for (const AgentSlot& slot : slots_) {
            slot.start();
        }
    }

    /** Stops every agent runtime (the drivers keep the substrate
     *  advancing); a later Start() resumes them. */
    void
    Stop()
    {
        for (const AgentSlot& slot : slots_) {
            slot.stop();
        }
        if (started_) {
            backend_.Note("node_stop");
        }
        started_ = false;
    }

    /** Stops/starts one agent's runtime by name (no-op on unknown
     *  names). Models an SRE restarting a single agent while its peers
     *  keep running — the restart scenarios of the node parity suite. */
    void
    StopAgent(const std::string& name)
    {
        for (const AgentSlot& slot : slots_) {
            if (slot.name == name) {
                slot.stop();
                backend_.Note("agent_stop", name);
            }
        }
    }

    void
    StartAgent(const std::string& name)
    {
        for (const AgentSlot& slot : slots_) {
            if (slot.name == name) {
                slot.start();
                backend_.Note("agent_start", name);
            }
        }
    }

    /**
     * SRE incident response: runs every registered agent's CleanUp
     * through the node-local registry, restoring the node to its clean
     * state (nominal frequency, all cores returned, uniform sampling).
     */
    void
    CleanUpAll()
    {
        backend_.Note("cleanup_all");
        registry_.CleanUpAll();
    }

    /** Refreshes the per-agent runtime gauges, the arbiter's counters,
     *  and the node.* gauges in metrics(). */
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
        {
            core::ScopedLock<Mutex> lock(substrate_mutex_);
            const NodeSubstrate& s = substrate_;
            node_scope.SetGauge("primary_p99_ms",
                                s.primary_workload->PerformanceValue());
            node_scope.SetGauge(
                "primary_completed_requests",
                static_cast<double>(
                    s.primary_workload->completed_requests()));
            node_scope.SetGauge("harvested_core_seconds",
                                s.elastic_workload->core_seconds());
            node_scope.SetGauge("energy_joules", s.node.EnergyJoules());
            node_scope.SetGauge("primary_freq_ghz",
                                s.node.VmFrequency(s.primary));
            node_scope.SetGauge("memory_remote_fraction",
                                s.memory.stats().RemoteFraction());
            node_scope.SetGauge("incident_coverage",
                                s.channels.stats().Coverage());
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

    /** Sum of learning epochs completed across every agent. */
    std::uint64_t TotalEpochs() const { return AggregateStats().epochs; }

    /** Field-wise sum of every agent runtime's counters (real and
     *  synthetic) — the node-level roll-up fleet stats build on. */
    core::RuntimeStats
    AggregateStats() const
    {
        core::RuntimeStats total;
        for (const AgentSlot& slot : slots_) {
            total.Accumulate(slot.stats());
        }
        return total;
    }

    /** Merged epoch-duration histogram across every agent on the node
     *  (ns in the agents' timebase; always on). */
    telemetry::LatencyHistogram
    EpochLatencyHistogram() const
    {
        telemetry::LatencyHistogram merged;
        MergeEpochLatencyInto(merged);
        return merged;
    }

    /** Adds every agent's epoch-duration histogram into `out` — the
     *  copy-free form of EpochLatencyHistogram(). */
    void
    MergeEpochLatencyInto(telemetry::LatencyHistogram& out) const
    {
        for (const AgentSlot& slot : slots_) {
            slot.merge_epoch_latency(out);
        }
    }

    /**
     * Adds this node's totals into `out`: every agent's counters and
     * epoch durations, the arbiter's requests and conflicts, the
     * synthetic actuators' expands, and the agent count. The one read
     * of a node's counters that every roll-up above the node (shard,
     * fleet, health sample, scenario result) folds.
     */
    void
    AddTotalsTo(NodeTotals& out) const
    {
        for (const AgentSlot& slot : slots_) {
            out.stats.Accumulate(slot.stats());
            slot.merge_epoch_latency(out.epochs);
        }
        out.arbiter_requests += arbiter_.requests();
        out.conflicts_observed += arbiter_.conflicts_observed();
        out.conflicts_resolved += arbiter_.conflicts_resolved();
        for (const auto& agent : synthetics_) {
            const SyntheticActuator& actuator = agent->actuator();
            out.expands_admitted += actuator.expands_admitted();
            out.expands_denied += actuator.expands_denied();
        }
        out.agents += slots_.size();
    }

    /** One agent's stats by name (zeros for unknown names, so a
     *  disabled real agent reads as idle). */
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

    core::RuntimeStats
    OverclockStats() const
    {
        return AgentStats(agents::kSmartOverclockName);
    }
    core::RuntimeStats
    HarvestStats() const
    {
        return AgentStats(agents::kSmartHarvestName);
    }
    core::RuntimeStats
    MemoryStats() const
    {
        return AgentStats(agents::kSmartMemoryName);
    }
    core::RuntimeStats
    MonitorStats() const
    {
        return AgentStats(agents::kSmartMonitorName);
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
    SyntheticAgent& synthetic_agent(std::size_t i) { return *synthetics_[i]; }

  protected:
    using Mutex = typename Backend::Mutex;
    template <typename D, typename P>
    using Host = typename Backend::template Host<D, P>;

    /** One paper agent: its host, and the model and actuator the host
     *  runs (built against the host's clock). */
    template <typename D, typename P, typename Model, typename Actuator>
    struct RealAgent {
        std::unique_ptr<Host<D, P>> host;
        std::unique_ptr<Model> model;
        std::unique_ptr<Actuator> actuator;
    };

    /** Builds the substrate and every enabled agent; `backend_args`
     *  follow the config into the backend's constructor. */
    template <typename... BackendArgs>
    explicit NodeCore(MultiAgentNodeConfig config,
                      BackendArgs&... backend_args)
        : config_(std::move(config)),
          substrate_(config_),
          arbiter_(config_.arbiter,
                   telemetry::MetricScope(metrics_, "arbiter")),
          backend_(config_, backend_args...)
    {
        slots_.reserve(4 + config_.synthetic_agents);
        registrations_.reserve(4 + config_.synthetic_agents);
        BuildRealAgents();
        BuildSynthetics();
    }

    ~NodeCore() = default;

    /**
     * One type-erased handle per hosted agent. The runtimes have
     * heterogeneous template types; erasing them once at construction
     * lets the lifecycle, the roll-ups, and the gauges iterate agents.
     */
    struct AgentSlot {
        std::string name;
        std::function<void()> start;
        std::function<void()> stop;
        std::function<core::RuntimeStats()> stats;
        std::function<void(telemetry::LatencyHistogram&)>
            merge_epoch_latency;
    };

    // Teardown runs in reverse member order. The backend goes first, so
    // its driver thread stops while the substrate, arbiter, and slots it
    // reads still exist; then the drivers' tasks; then the
    // registrations, whose cleanups stop each runtime and restore its
    // actuator while both still exist; then the agents, and the
    // substrate last.
    MultiAgentNodeConfig config_;
    /** Serializes the real agents' and the drivers' substrate access. */
    Mutex substrate_mutex_;
    NodeSubstrate substrate_;
    telemetry::MetricRegistry metrics_;
    InterferenceArbiter arbiter_;
    RealAgent<agents::OverclockSample, double, agents::OverclockModel,
              agents::OverclockActuator>
        overclock_;
    RealAgent<agents::HarvestSample, int, agents::HarvestModel,
              agents::HarvestActuator>
        harvest_;
    RealAgent<agents::ScanRound, agents::MemoryPlan, agents::MemoryModel,
              agents::MemoryActuator>
        memory_;
    RealAgent<agents::MonitorRound, std::vector<double>,
              agents::MonitorModel, agents::MonitorActuator>
        monitor_;
    std::vector<std::unique_ptr<SyntheticAgent>> synthetics_;
    std::vector<AgentSlot> slots_;
    core::AgentRegistry registry_;
    std::vector<core::ScopedRegistration> registrations_;
    sim::EventQueue* driver_queue_ = nullptr;
    sim::TimePoint next_health_sample_{0};
    std::unique_ptr<sim::PeriodicTask> node_driver_;
    std::unique_ptr<sim::PeriodicTask> memory_driver_;
    std::unique_ptr<sim::PeriodicTask> channel_driver_;
    Backend backend_;
    bool started_ = false;

  private:
    friend Backend;

    void
    BuildRealAgents()
    {
        using sim::DeriveStreamSeed;
        NodeSubstrate& s = substrate_;
        if (config_.run_overclock) {
            agents::SmartOverclockConfig cfg = config_.overclock;
            cfg.seed = DeriveStreamSeed(config_.seed, 4);
            const sim::Clock& clock = NewHost(overclock_);
            overclock_.model = std::make_unique<agents::OverclockModel>(
                s.node, s.primary, clock, cfg);
            overclock_.actuator =
                std::make_unique<agents::OverclockActuator>(
                    s.node, s.primary, clock, cfg);
            HostRealAgent(agents::kSmartOverclockName, overclock_,
                          agents::SmartOverclockSchedule());
        }
        if (config_.run_harvest) {
            agents::SmartHarvestConfig cfg = config_.harvest;
            cfg.seed = DeriveStreamSeed(config_.seed, 5);
            const sim::Clock& clock = NewHost(harvest_);
            harvest_.model = std::make_unique<agents::HarvestModel>(
                s.node, s.primary, clock, cfg);
            harvest_.actuator = std::make_unique<agents::HarvestActuator>(
                s.node, s.primary, s.elastic, clock, cfg);
            HostRealAgent(agents::kSmartHarvestName, harvest_,
                          agents::SmartHarvestSchedule());
        }
        if (config_.run_memory) {
            agents::SmartMemoryConfig cfg = config_.memory;
            cfg.seed = DeriveStreamSeed(config_.seed, 6);
            const sim::Clock& clock = NewHost(memory_);
            memory_.model =
                std::make_unique<agents::MemoryModel>(s.memory, clock, cfg);
            memory_.actuator =
                std::make_unique<agents::MemoryActuator>(s.memory, clock,
                                                         cfg);
            HostRealAgent(agents::kSmartMemoryName, memory_,
                          agents::SmartMemorySchedule());
        }
        if (config_.run_monitor) {
            agents::SmartMonitorConfig cfg = config_.monitor;
            cfg.seed = DeriveStreamSeed(config_.seed, 7);
            const sim::Clock& clock = NewHost(monitor_);
            monitor_.model = std::make_unique<agents::MonitorModel>(
                s.channels, s.policy, clock, cfg);
            monitor_.actuator =
                std::make_unique<agents::MonitorActuator>(s.policy, cfg);
            HostRealAgent(agents::kSmartMonitorName, monitor_,
                          agents::SmartMonitorSchedule());
        }
    }

    /** Synthetic filler agents up to fleet-realistic counts. Stream
     *  seeds 8.. follow the real agents' 4..7; domains alternate
     *  between the two that are uncoupled from the CPU conflict
     *  surface. */
    void
    BuildSynthetics()
    {
        synthetics_.reserve(config_.synthetic_agents);
        for (std::size_t i = 0; i < config_.synthetic_agents; ++i) {
            SyntheticAgentConfig cfg = config_.synthetic;
            cfg.name = "synthetic" + std::to_string(i);
            cfg.seed = sim::DeriveStreamSeed(config_.seed, 8 + i);
            cfg.domain = i % 2 == 0
                             ? core::ActuationDomain::kTelemetryBudget
                             : core::ActuationDomain::kMemoryPlacement;
            cfg.trace_driver = config_.trace_driver;
            cfg.tenant = config_.node_index * config_.synthetic_agents + i;
            if (config_.customize_synthetic) {
                config_.customize_synthetic(i, cfg);
            }
            synthetics_.push_back(std::make_unique<SyntheticAgent>(
                backend_.HostOn(nullptr), cfg, &arbiter_, config_.runtime));
            SyntheticAgent& agent = *synthetics_.back();
            AddAgent(agent.name(), agent.runtime(), agent.clock(),
                     agent.actuator());
        }
    }

    /** Creates a real agent's host on the substrate lock (the agent
     *  shares the node's substrate); returns the clock its model and
     *  actuator read. */
    template <typename D, typename P, typename Model, typename Actuator>
    const sim::Clock&
    NewHost(RealAgent<D, P, Model, Actuator>& agent)
    {
        agent.host =
            std::make_unique<Host<D, P>>(backend_.HostOn(&substrate_mutex_));
        return agent.host->clock();
    }

    /** Hosts a built real agent (its host was built on the substrate
     *  lock, which it takes where the backend needs one). */
    template <typename Agent>
    void
    HostRealAgent(const std::string& name, Agent& agent,
                  const core::Schedule& schedule)
    {
        agent.actuator->SetGovernor(&arbiter_);
        auto& driven = agent.host->Run(*agent.model, *agent.actuator,
                                       schedule, config_.runtime);
        AddAgent(name, agent.host->runtime(), agent.host->clock(), driven);
    }

    /** Attaches a hosted agent and registers it in slots_ and the
     *  registry; the registry cleanup stops the runtime, then cleans up
     *  through `actuator` (the one the runtime drives). */
    template <typename Runtime, typename Actuator>
    void
    AddAgent(const std::string& name, Runtime& runtime,
             const sim::Clock& clock, Actuator& actuator)
    {
        backend_.Attach(name, runtime, clock);
        Runtime* r = &runtime;
        slots_.push_back({name, [r] { r->Start(); }, [r] { r->Stop(); },
                          [r] { return core::RuntimeStats(r->stats()); },
                          [r](telemetry::LatencyHistogram& out) {
                              r->MergeEpochLatencyInto(out);
                          }});
        registrations_.emplace_back(registry_, name,
                                    [r, a = &actuator] {
                                        r->Stop();
                                        a->CleanUp();
                                    });
    }

    /**
     * Arms the three substrate drivers on the backend's driver queue:
     * the node tick advancing the VMs, with the health sample
     * piggybacked on it (observe-only, so the event trace is
     * byte-identical with sampling on or off), memory accesses, and
     * channel incidents.
     */
    void
    ArmDrivers()
    {
        const sim::Duration node_tick = config_.node_tick;
        next_health_sample_ = driver_queue_->Now() + config_.health_period;
        node_driver_ = std::make_unique<sim::PeriodicTask>(
            *driver_queue_, node_tick, [this, node_tick] {
                const sim::TimePoint now = driver_queue_->Now();
                substrate_.node.Advance(now, node_tick);
                if (config_.health != nullptr && now >= next_health_sample_) {
                    SampleHealth(now);
                    do {
                        next_health_sample_ += config_.health_period;
                    } while (next_health_sample_ <= now);
                }
            });
        const sim::Duration memory_tick = config_.memory_tick;
        memory_driver_ = std::make_unique<sim::PeriodicTask>(
            *driver_queue_, memory_tick, [this, memory_tick] {
                substrate_.memory_pattern->GenerateAccesses(
                    driver_queue_->Now() - memory_tick, memory_tick,
                    substrate_.memory);
            });
        const sim::Duration channel_tick = config_.channel_tick;
        channel_driver_ = std::make_unique<sim::PeriodicTask>(
            *driver_queue_, channel_tick, [this, channel_tick] {
                substrate_.channels.Advance(
                    driver_queue_->Now() - channel_tick, channel_tick,
                    substrate_.incident_rng);
            });
    }

    /** Appends one node-health sample at `at`: the "<name>.*" series
     *  of AppendHealthSample, epoch latency under
     *  "<name>.epoch_latency". */
    void
    SampleHealth(sim::TimePoint at)
    {
        NodeTotals totals;
        AddTotalsTo(totals);
        const std::string p = config_.name.empty() ? "" : config_.name + ".";
        AppendHealthSample(*config_.health, p, p + "epoch_latency", at,
                           totals);
    }

    /** Snapshots one agent's runtime counters into its namespace (the
     *  halted time in seconds). */
    static void
    WriteAgentRuntimeStats(telemetry::MetricScope scope,
                           const core::RuntimeStats& stats)
    {
        core::ForEachCounter(
            [&scope](const char* name, core::CounterFold,
                     const auto& value) {
                if constexpr (std::is_same_v<std::decay_t<decltype(value)>,
                                             sim::Duration>) {
                    scope.SetGauge(name, sim::ToSeconds(value));
                } else {
                    scope.SetGauge(name, static_cast<double>(value));
                }
            },
            stats);
    }
};

}  // namespace sol::cluster
