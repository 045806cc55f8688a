/**
 * @file
 * Admission control for conflicting actuations on a shared node.
 *
 * When several learning agents run on one node, their actuators contend
 * for the same physical envelope even when they write different knobs:
 * SmartOverclock boosting a VM's frequency while SmartHarvest loans that
 * VM's cores away stacks two efficiency bets on one power/QoS budget,
 * and two agents writing one knob oscillate it. The paper (section 5)
 * studies exactly this deployment risk; the arbiter is the mechanism
 * that makes it safe.
 *
 * Model: an admitted kExpand request takes a *hold* on its resource
 * domain. A later kExpand from a different agent on the same or a
 * coupled domain is a conflict, resolved deterministically by policy —
 * the denied actuator falls back to its conservative action (the same
 * path it takes for a missing prediction), so denial is always safe.
 * A kRestore releases the agent's hold and is never blocked. All
 * decisions depend only on the sequence of prior requests, so a fixed
 * seed reproduces a multi-agent run exactly; under concurrent callers
 * the decision sequence is whatever admission order the lock table
 * serializes, and it stays internally consistent (no double grants, no
 * lost holds).
 *
 * Concurrency: agents on a ThreadedMultiAgentNode announce intents from
 * their own actuator threads, so Admit must survive true expand/restore
 * races. The hold map is a per-domain lock table: an expand locks the
 * requested domain plus every coupled domain (ascending index order, so
 * overlapping closures serialize instead of deadlocking), checks for a
 * blocking hold, and takes its own hold — all under those locks, which
 * makes "check coupled holds, then grant" atomic. A restore locks only
 * its own domain. Uncoupled domains never share a lock, so agents on
 * disjoint envelopes admit in parallel.
 *
 * Accounting is contention-safe and lock-free on the admit path:
 * per-agent atomic counter blocks (created once per agent name under a
 * shared_mutex) instead of direct writes into the single-threaded
 * MetricRegistry. WriteMetrics() publishes the counters into the
 * arbiter's MetricScope, namespaced per agent exactly as before:
 *   <prefix>.<agent>.requests / .admitted / .denied / .restores
 *   <prefix>.conflicts, <prefix>.denial.<agent>.by.<holder>
 *
 * Observability: with track_contention on, every admit also lands in
 * two latency histograms — lock_wait_ns (time acquiring the domain
 * lock closure) and admit_ns (whole-decision latency) — published by
 * WriteMetrics() as <prefix>.lock_wait_ns / <prefix>.admit_ns. When a
 * flight recorder is bound to the calling thread
 * (telemetry::trace::ScopedThreadRecorder, done by ThreadedRuntime's
 * loops and the shard runner), Admit emits an "expand"/"restore" span
 * with agent + domain args and a "deny" instant naming the blocking
 * holder — so arbiter decisions appear on the track of the agent that
 * made them, keeping every trace ring single-producer.
 */
#pragma once

#include <array>
#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <optional>
#include <string>
#include <utility>
#include <vector>

#include "core/actuation.h"
#include "core/sync.h"
#include "core/thread_annotations.h"
#include "telemetry/metric_registry.h"

namespace sol::cluster {

/** How a conflicting expand request is resolved. */
enum class ArbitrationPolicy {
    /** The agent already holding the resource keeps it; later
     *  conflicting expands are denied until the holder restores. */
    kFirstHolderWins,
    /** A static priority order (config.priority, most important first)
     *  decides: an expand is denied only when a holder of a coupled
     *  domain has equal or higher priority. Lower-priority holders keep
     *  their hold but their next refresh is denied, which drives them
     *  back to the safe baseline. */
    kStaticPriority,
};

/** Tunables for the InterferenceArbiter. */
struct InterferenceArbiterConfig {
    /** When false, every request is admitted (the ungoverned baseline
     *  the interference figure compares against). Accounting still
     *  runs, so conflicts can be counted without being resolved. */
    bool enabled = true;

    ArbitrationPolicy policy = ArbitrationPolicy::kFirstHolderWins;

    /** Priority order for kStaticPriority, most important first.
     *  Agents not listed rank below all listed ones. */
    std::vector<std::string> priority;

    /**
     * Domain pairs that contend for one shared envelope. The default
     * couples CPU frequency and core grants: boosting frequency while
     * cores are harvested away both stresses the node power budget and
     * overclocks capacity the primary does not own anymore.
     */
    std::vector<std::pair<core::ActuationDomain, core::ActuationDomain>>
        couplings = {{core::ActuationDomain::kCpuFrequency,
                      core::ActuationDomain::kCpuCores}};

    /**
     * Accumulate the wall time expand requests spend waiting for the
     * domain lock closure (lock_wait_ns()) and feed the lock-wait and
     * admit-latency histograms. Off by default: the extra clock reads
     * cost more than the locks on uncontended nodes, and deterministic
     * runs never read it.
     */
    bool track_contention = false;
};

/** Detects and resolves conflicting actuations on one node. */
class InterferenceArbiter : public core::ActuationGovernor
{
  public:
    /**
     * @param config Policy and coupling matrix.
     * @param scope Metric namespace WriteMetrics() publishes into.
     */
    InterferenceArbiter(InterferenceArbiterConfig config,
                        telemetry::MetricScope scope);

    /** Thread-safe: callable from any agent thread concurrently. */
    core::ActuationDecision
    Admit(const core::ActuationRequest& request) override;

    /** Agent currently holding a domain, if any (thread-safe). */
    std::optional<std::string> HolderOf(core::ActuationDomain domain) const;

    /** Conflicting expands denied so far (0 when disabled). */
    std::uint64_t conflicts_resolved() const
    {
        return conflicts_resolved_.load(std::memory_order_relaxed);
    }

    /** Conflicting expands observed (counted even when disabled). */
    std::uint64_t conflicts_observed() const
    {
        return conflicts_observed_.load(std::memory_order_relaxed);
    }

    std::uint64_t requests() const
    {
        return requests_.load(std::memory_order_relaxed);
    }

    /** Wall nanoseconds expands spent acquiring the lock closure; 0
     *  unless config.track_contention. */
    std::uint64_t lock_wait_ns() const
    {
        return lock_wait_ns_.load(std::memory_order_relaxed);
    }

    /** Distribution of per-expand lock-closure wait (wall ns); empty
     *  unless config.track_contention. Thread-safe copy. */
    telemetry::LatencyHistogram lock_wait_histogram() const
    {
        return lock_wait_hist_.Histogram();
    }

    /** Distribution of whole-Admit latency (wall ns, expands and
     *  restores); empty unless config.track_contention. Thread-safe
     *  copy. */
    telemetry::LatencyHistogram admit_histogram() const
    {
        return admit_hist_.Histogram();
    }

    /**
     * Publishes the per-agent accounting into the MetricScope given at
     * construction (absolute values, so repeated calls are idempotent).
     * Safe to call while agents keep admitting — counters are
     * snapshots — but the underlying MetricRegistry is single-threaded,
     * so only one thread may be writing metrics at a time.
     */
    void WriteMetrics();

    const InterferenceArbiterConfig& config() const { return config_; }

  private:
    struct Hold {
        std::string agent;
        std::size_t agent_id = 0;  ///< The holder's AgentAccount::id.
        double magnitude = 0.0;
        std::uint64_t admissions = 0;  ///< Times taken or refreshed.
    };

    /** One entry of the per-domain lock table. */
    struct DomainSlot {
        mutable core::Mutex mutex;
        std::optional<Hold> hold SOL_GUARDED_BY(mutex);
    };

    /** Lock-free per-agent accounting block. */
    struct AgentAccount {
        explicit AgentAccount(std::size_t account_id) : id(account_id) {}

        /** Dense id, in creation order: indexes other accounts'
         *  denied_by and names a Hold's holder. */
        const std::size_t id;
        std::atomic<std::uint64_t> requests{0};
        std::atomic<std::uint64_t> admitted{0};
        std::atomic<std::uint64_t> denied{0};
        std::atomic<std::uint64_t> restores{0};
        /** Denial attribution is rare, so a plain guarded vector
         *  suffices: denied_by[h] counts this agent's expands denied by
         *  the holder with id h. Sized to every account that exists at
         *  the first denial, so a denial allocates only when its holder
         *  is newer than that. */
        core::Mutex denial_mutex;
        std::vector<std::uint64_t> denied_by SOL_GUARDED_BY(denial_mutex);
    };

    /** Rank in the priority list; lower is more important. */
    std::size_t PriorityRank(const std::string& agent) const;

    /**
     * The holder blocking `request`. Caller holds every lock in the
     * request domain's closure — a *runtime-computed* set of
     * DomainSlot mutexes, which is exactly the shape Clang's analysis
     * cannot express (capabilities must be named statically), so this
     * and ExpandUnderClosure are the arbiter's two documented escape
     * hatches; tests/arbiter_race_test.cc covers them dynamically.
     */
    const Hold* BlockingHoldLocked(const core::ActuationRequest& request)
        const SOL_NO_THREAD_SAFETY_ANALYSIS;

    /**
     * The expand critical section: locks the request domain's coupling
     * closure in ascending index order, scans for a blocking hold,
     * grants/refreshes the hold on admission, and unlocks in reverse.
     * See BlockingHoldLocked for why the analysis is disabled here.
     */
    core::ActuationDecision
    ExpandUnderClosure(const core::ActuationRequest& request,
                       AgentAccount& account)
        SOL_NO_THREAD_SAFETY_ANALYSIS;

    /** The agent's accounting block, created on first use. */
    AgentAccount& AccountFor(const std::string& agent);

    InterferenceArbiterConfig config_;
    telemetry::MetricScope scope_;

    /** closure_[d] = sorted domain indices coupled to d, including d
     *  itself — the lock set of an expand on d. Immutable after
     *  construction. */
    std::array<std::vector<std::size_t>, core::kNumActuationDomains>
        closure_;
    std::array<DomainSlot, core::kNumActuationDomains> domains_;

    /** Guards the accounts map only; the AgentAccount blocks are
     *  atomic and stable once created, so the hot path reads them
     *  after dropping the shared lock. */
    mutable core::SharedMutex accounts_mutex_;
    std::map<std::string, std::unique_ptr<AgentAccount>> accounts_
        SOL_GUARDED_BY(accounts_mutex_);
    /** accounts_.size(), readable without accounts_mutex_ (denials
     *  size denied_by from it under the domain locks). */
    std::atomic<std::size_t> num_accounts_{0};

    std::atomic<std::uint64_t> requests_{0};
    std::atomic<std::uint64_t> conflicts_observed_{0};
    std::atomic<std::uint64_t> conflicts_resolved_{0};
    std::atomic<std::uint64_t> lock_wait_ns_{0};

    // Populated only under config.track_contention.
    telemetry::SharedLatencyHistogram lock_wait_hist_;
    telemetry::SharedLatencyHistogram admit_hist_;
};

}  // namespace sol::cluster
