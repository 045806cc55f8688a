/**
 * @file
 * One simulated node running the paper's full agent complement.
 *
 * Production nodes run tens of learning agents concurrently behind
 * shared safeguards (~77 in the paper's fleet); every experiment
 * elsewhere in this repo instantiates exactly one. MultiAgentNode is
 * the deployment-shaped harness: SmartOverclock, SmartHarvest,
 * SmartMemory, and SmartMonitor (plus any synthetic fillers) all run on
 * one node, each in its own SimRuntime on the shared event queue. The
 * node itself — substrate, arbiter, registry, agent builds, lifecycle,
 * roll-ups, gauges — is the node core (node_core.h); this file is its
 * simulated backend.
 */
#pragma once

#include <string>

#include "cluster/node_core.h"
#include "cluster/synthetic_agent.h"
#include "core/sync.h"
#include "sim/event_queue.h"

namespace sol::cluster {

/**
 * The node core's simulated backend: every agent is a SimRuntime on one
 * event queue, which is also every agent's clock. The queue serializes
 * all agents and drivers on one thread, so nothing needs a lock
 * (NullMutex) and no model or actuator call is wrapped.
 */
class SimNodeBackend
{
  public:
    using Mutex = core::NullMutex;
    template <typename D, typename P>
    using Host = SimAgentHost<D, P>;
    using SyntheticAgent = cluster::SyntheticAgent;

    SimNodeBackend(const MultiAgentNodeConfig& config,
                   sim::EventQueue& queue)
        : config_(config), queue_(queue)
    {
    }

    /** Every agent's host is built on the node's queue. */
    sim::EventQueue& HostOn(Mutex* /*substrate*/) { return queue_; }

    /** Every agent records into the node's one trace track. */
    template <typename Runtime>
    void
    Attach(const std::string& /*agent*/, Runtime& runtime,
           const sim::Clock& /*clock*/)
    {
        runtime.SetTraceRecorder(config_.trace);
    }

    /** The substrate drivers run on the node's queue, interleaved with
     *  the agents; the queue's owner runs it. */
    sim::EventQueue& driver_queue() { return queue_; }
    void StartDriving(NodeCore<SimNodeBackend>& /*core*/) {}

    void Note(const char* /*event*/, const std::string& /*agent*/ = {}) {}

  private:
    const MultiAgentNodeConfig& config_;
    sim::EventQueue& queue_;
};

extern template class NodeCore<SimNodeBackend>;

/** All four paper agents co-located on one simulated node. */
class MultiAgentNode : public NodeCore<SimNodeBackend>
{
  public:
    /**
     * @param queue Shared event queue (owned by the caller/driver).
     * @param config Node configuration.
     */
    MultiAgentNode(sim::EventQueue& queue, MultiAgentNodeConfig config);

    // --- Substrate (single-threaded: the queue serializes every use) ----
    node::Node& node() { return substrate_.node; }
    node::TieredMemory& memory() { return substrate_.memory; }
    node::ChannelArray& channels() { return substrate_.channels; }
    agents::SamplingPolicy& policy() { return substrate_.policy; }
    node::VmId primary_vm() const { return substrate_.primary; }
    node::VmId elastic_vm() const { return substrate_.elastic; }
    const workloads::TailBench& primary_workload() const
    {
        return *substrate_.primary_workload;
    }

    agents::OverclockActuator* overclock_actuator()
    {
        return overclock_.actuator.get();
    }
    agents::HarvestActuator* harvest_actuator()
    {
        return harvest_.actuator.get();
    }
};

}  // namespace sol::cluster
