/**
 * @file
 * One simulated node running the paper's full agent complement.
 *
 * Production nodes run tens of learning agents concurrently behind
 * shared safeguards (~77 in the paper's fleet); every experiment
 * elsewhere in this repo instantiates exactly one. MultiAgentNode is
 * the deployment-shaped harness: SmartOverclock, SmartHarvest,
 * SmartMemory, and SmartMonitor all run on one node, each in its own
 * SimRuntime on the shared event queue, with
 *   - every actuation routed through an InterferenceArbiter that
 *     detects and resolves conflicting actuations (e.g. SmartOverclock
 *     raising frequency while SmartHarvest reclaims cores),
 *   - every agent registered in a node-local core::AgentRegistry, so
 *     an SRE (or a test) can terminate and clean up any or all agents
 *     without knowing their implementation, and
 *   - per-agent accounting namespaced into one telemetry registry
 *     ("smart-harvest.epochs", "arbiter.conflicts", ...).
 *
 * The node substrate is shared the way a real node shares it: the
 * overclocking and harvesting agents manage the same primary VM (the
 * direct conflict surface), the memory agent manages the node's tiered
 * memory, and the monitoring agent spreads a sampling budget over the
 * node's telemetry channels.
 */
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "agents/smartharvest/smartharvest.h"
#include "agents/smartmemory/smartmemory.h"
#include "agents/smartmonitor/smartmonitor.h"
#include "agents/smartoverclock/smartoverclock.h"
#include "cluster/interference_arbiter.h"
#include "cluster/synthetic_agent.h"
#include "core/agent_registry.h"
#include "core/sim_runtime.h"
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

/** Snapshots one agent's runtime counters into its metric namespace
 *  (shared by both node variants, so a gauge-by-gauge diff of their
 *  registries is meaningful). */
void WriteAgentRuntimeStats(telemetry::MetricScope scope,
                            const core::RuntimeStats& stats);

/**
 * Appends one node-health timeline sample under `prefix + "."`:
 * safeguard/model/data/arbiter counters, halted-vs-active agent time,
 * and the merged epoch-latency percentiles, all at virtual time `at`.
 * Shared by both node variants so their timelines are name-compatible
 * (the node parity suite can diff them series-by-series).
 */
void AppendNodeHealthSample(telemetry::SharedTimeSeriesStore& health,
                            const std::string& prefix,
                            const core::RuntimeStats& stats,
                            const InterferenceArbiter& arbiter,
                            const telemetry::LatencyHistogram& epochs,
                            std::size_t num_agents, sim::TimePoint at);

/** Configuration of one multi-agent node. */
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
     * 4 real agents). Each runs a full SimRuntime with O(1) logic and
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
     * or conflict role; both node variants apply it identically, so a
     * scenario scripted here runs the same on the simulated and the
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

    // --- Driver cadence ---------------------------------------------------
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
     * variant ignores this and uses trace_session instead — its agents
     * need one recorder per thread.
     */
    telemetry::trace::TraceRecorder* trace = nullptr;

    /**
     * Trace session the *threaded* node variant creates per-agent
     * model/actuator recorders in (two tracks per agent plus driver
     * and control tracks). Ignored by the simulated node; null (the
     * default) disables tracing.
     */
    telemetry::trace::TraceSession* trace_session = nullptr;

    /**
     * Node-local health timeline (null disables). Both node variants
     * sample the same "<name>.*" series via AppendNodeHealthSample at
     * `health_period` cadence, piggybacked on the node driver tick —
     * no new events are scheduled, so enabling it never perturbs event
     * traces. On the simulated node timestamps are virtual queue time;
     * on the threaded node they are the driver's substrate clock. The
     * caller owns the store (shared so a live scrape thread can read
     * while the driver samples). The threaded variant samples from its
     * driver thread, which only runs when a real agent is enabled.
     */
    telemetry::SharedTimeSeriesStore* health = nullptr;

    /** Cadence of node-health samples (must be positive). */
    sim::Duration health_period = sim::Millis(100);

    InterferenceArbiterConfig arbiter;

    agents::SmartOverclockConfig overclock;
    agents::SmartHarvestConfig harvest;
    agents::SmartMemoryConfig memory;
    agents::SmartMonitorConfig monitor;
};

/**
 * Sets every channel to config.cold_rate_per_sec, then raises
 * config.hot_channels distinct channels, drawn from `rng`, to
 * config.hot_rate_per_sec. Both node variants call it, so they draw the
 * same hot channels. Throws std::invalid_argument before the first draw
 * when the draws could never finish: more hot channels than channels,
 * or hot channels no hotter than cold ones.
 */
void AssignChannelRates(const MultiAgentNodeConfig& config, sim::Rng& rng,
                        node::ChannelArray& channels);

/** All four paper agents co-located on one simulated node. */
class MultiAgentNode
{
  public:
    /**
     * @param queue Shared event queue (owned by the caller/driver).
     * @param config Node configuration.
     */
    MultiAgentNode(sim::EventQueue& queue, MultiAgentNodeConfig config);
    ~MultiAgentNode();

    MultiAgentNode(const MultiAgentNode&) = delete;
    MultiAgentNode& operator=(const MultiAgentNode&) = delete;

    /** Starts the node drivers and every enabled agent runtime. */
    void Start();

    /** Stops all runtimes (drivers keep the substrate advancing). */
    void Stop();

    /** Stops/starts one agent's runtime by name (no-op on unknown
     *  names). Models an SRE restarting a single agent while its peers
     *  keep running — the restart scenarios of the node parity suite. */
    void StopAgent(const std::string& name);
    void StartAgent(const std::string& name);

    /**
     * SRE incident response: runs every registered agent's CleanUp
     * through the node-local registry, restoring the node to its clean
     * state (nominal frequency, all cores returned, uniform sampling).
     */
    void CleanUpAll();

    /** Refreshes per-agent and substrate metrics in metrics(). */
    void CollectMetrics();

    /** Sum of learning epochs completed across enabled agents. */
    std::uint64_t TotalEpochs() const;

    /** Field-wise sum of every agent runtime's counters (real and
     *  synthetic) — the node-level roll-up fleet stats build on. */
    core::RuntimeStats AggregateStats() const;

    /** Merged epoch-duration histogram across every agent on the node
     *  (virtual ns; always on). */
    telemetry::LatencyHistogram EpochLatencyHistogram() const;

    /** Adds every agent's epoch-duration histogram into `out` — the
     *  copy-free form of EpochLatencyHistogram() for roll-ups. */
    void MergeEpochLatencyInto(telemetry::LatencyHistogram& out) const;

    // --- Introspection ---------------------------------------------------
    const std::string& name() const { return config_.name; }
    core::AgentRegistry& registry() { return registry_; }
    InterferenceArbiter& arbiter() { return arbiter_; }
    telemetry::MetricRegistry& metrics() { return metrics_; }
    node::Node& node() { return node_; }
    node::TieredMemory& memory() { return memory_; }
    node::ChannelArray& channels() { return channels_; }
    agents::SamplingPolicy& policy() { return policy_; }
    node::VmId primary_vm() const { return primary_; }
    node::VmId elastic_vm() const { return elastic_; }
    const workloads::TailBench& primary_workload() const
    {
        return *primary_workload_;
    }
    bool started() const { return started_; }

    core::RuntimeStats OverclockStats() const;
    core::RuntimeStats HarvestStats() const;
    core::RuntimeStats MemoryStats() const;
    core::RuntimeStats MonitorStats() const;

    agents::OverclockActuator* overclock_actuator()
    {
        return overclock_actuator_.get();
    }
    agents::HarvestActuator* harvest_actuator()
    {
        return harvest_actuator_.get();
    }

    std::size_t num_synthetic_agents() const { return synthetics_.size(); }
    SyntheticAgent& synthetic_agent(std::size_t i)
    {
        return *synthetics_[i];
    }

    /** Total agents on the node (real + synthetic). */
    std::size_t num_agents() const { return slots_.size(); }

  private:
    using OverclockRuntime =
        core::SimRuntime<agents::OverclockSample, double>;
    using HarvestRuntime = core::SimRuntime<agents::HarvestSample, int>;
    using MemoryRuntime =
        core::SimRuntime<agents::ScanRound, agents::MemoryPlan>;
    using MonitorRuntime =
        core::SimRuntime<agents::MonitorRound, std::vector<double>>;

    /**
     * Type-erased handle on one enabled agent. The four runtimes have
     * heterogeneous template types; erasing them once at construction
     * lets Start/Stop/TotalEpochs/CollectMetrics (and any future
     * fleet-wide sweep) iterate agents instead of repeating a
     * per-agent block that must be kept in sync by hand.
     */
    struct AgentSlot {
        std::string name;
        std::function<void()> start;
        std::function<void()> stop;
        std::function<core::RuntimeStats()> stats;
        std::function<void(telemetry::LatencyHistogram&)>
            merge_epoch_latency;
    };

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
                          }});
        registrations_.emplace_back(registry_, name,
                                    [runtime, actuator] {
                                        runtime->Stop();
                                        actuator->CleanUp();
                                    });
    }

    /** Stats of an enabled agent by name; zeros when disabled. */
    core::RuntimeStats StatsFor(const std::string& name) const;

    sim::EventQueue& queue_;
    MultiAgentNodeConfig config_;
    sim::Rng rng_;

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

    // Agents (models + actuators) and their runtimes.
    std::unique_ptr<agents::OverclockModel> overclock_model_;
    std::unique_ptr<agents::OverclockActuator> overclock_actuator_;
    std::unique_ptr<OverclockRuntime> overclock_runtime_;
    std::unique_ptr<agents::HarvestModel> harvest_model_;
    std::unique_ptr<agents::HarvestActuator> harvest_actuator_;
    std::unique_ptr<HarvestRuntime> harvest_runtime_;
    std::unique_ptr<agents::MemoryModel> memory_model_;
    std::unique_ptr<agents::MemoryActuator> memory_actuator_;
    std::unique_ptr<MemoryRuntime> memory_runtime_;
    std::unique_ptr<agents::MonitorModel> monitor_model_;
    std::unique_ptr<agents::MonitorActuator> monitor_actuator_;
    std::unique_ptr<MonitorRuntime> monitor_runtime_;
    std::vector<std::unique_ptr<SyntheticAgent>> synthetics_;

    /** Appends one health sample at `at` (driver-tick piggyback). */
    void SampleNodeHealth(sim::TimePoint at);

    // Substrate drivers (armed by Start()).
    sim::Rng incident_rng_;
    sim::TimePoint next_health_sample_{0};
    std::unique_ptr<sim::PeriodicTask> node_driver_;
    std::unique_ptr<sim::PeriodicTask> memory_driver_;
    std::unique_ptr<sim::PeriodicTask> channel_driver_;

    // Registry last among agent state: its registrations' cleanups run
    // first on destruction, while runtimes and actuators still exist.
    std::vector<AgentSlot> slots_;
    core::AgentRegistry registry_;
    std::vector<core::ScopedRegistration> registrations_;
    bool started_ = false;
};

}  // namespace sol::cluster
