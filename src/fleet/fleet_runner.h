/**
 * @file
 * Sharded parallel fleet executor: hundreds of 77-agent nodes on real
 * threads, bit-deterministic regardless of thread count.
 *
 * The paper's deployment setting is a fleet where every node runs ~77
 * learning agents. cluster::ClusterDriver models that fleet faithfully
 * but steps it serially — one virtual clock, one thread, a hard wall
 * around 8 nodes. ShardedFleetRunner is the scaling layer above it:
 *
 *  - The fleet is sliced into S shards (cluster::NodeShard), each
 *    owning its own arena-backed sim::EventQueue, virtual clock, trace
 *    hash, and a contiguous slice of the fleet's nodes. Every node
 *    keeps the per-global-index splitmix64 RNG stream and start
 *    stagger it would have had in the serial driver.
 *  - W worker threads step the shards between barrier-synced
 *    virtual-time windows: every window, each worker advances its
 *    statically assigned shards to the shared horizon, merges its
 *    shards' health gauges into a telemetry::SharedMetricRegistry,
 *    and meets the others at the barrier before the next window opens.
 *  - Determinism: fleet nodes never exchange events (per-node RNG
 *    streams make them statistically independent), so a shard's event
 *    trace depends only on (base_seed, shard composition, window
 *    horizons) — never on which thread stepped it, in what order, or
 *    how many worker threads exist. Shard composition is fixed by
 *    `num_shards` (a *simulation* parameter), while `num_threads` is
 *    pure execution policy: any thread count replays byte-identical
 *    per-shard traces, verified by combining per-shard trace_hash()
 *    values with a commutative mix (fleet_trace_hash()).
 *
 * bench/fleet_scale drives 64 nodes x 77 agents across 1/2/4/8 threads
 * and fails on any cross-thread-count divergence; docs/FLEET.md has
 * the full sharding model and determinism argument.
 */
#pragma once

#include <barrier>
#include <cstdint>
#include <exception>
#include <memory>
#include <thread>
#include <vector>

#include "cluster/cluster_driver.h"
#include "core/sync.h"
#include "core/thread_annotations.h"
#include "cluster/node_shard.h"
#include "sim/event_queue.h"
#include "sim/time.h"
#include "telemetry/alerting.h"
#include "telemetry/metric_registry.h"
#include "telemetry/timeseries.h"

namespace sol::fleet {

/** Configuration of a sharded fleet run. */
struct FleetConfig {
    std::size_t num_nodes = 8;

    /**
     * Shards the fleet is sliced into (0 = one shard per node, the
     * most parallel slicing). This is a *simulation* parameter: nodes
     * sharing a shard interleave on one queue, so changing num_shards
     * changes per-shard traces (deterministically). Keep it fixed when
     * comparing runs; vary num_threads freely instead.
     */
    std::size_t num_shards = 0;

    /**
     * Worker threads stepping the shards (0 = one per shard, capped at
     * hardware concurrency). Pure execution policy: never affects
     * simulation results, only wall-clock speed.
     */
    std::size_t num_threads = 0;

    /** Fleet seed; global node i runs stream DeriveStreamSeed(seed, i). */
    std::uint64_t base_seed = 1;

    /**
     * Virtual-time window between barriers. All shards advance to the
     * same horizon each window; window boundaries are also where
     * telemetry merges happen. Smaller windows tighten fleet-wide
     * metric freshness; larger ones amortize barrier cost.
     */
    sim::Duration window = sim::Millis(100);

    /** Offset between consecutive global nodes' agent start times. */
    sim::Duration start_stagger = sim::Millis(1);

    /** Per-shard queue backpressure bound (0 = unlimited); see
     *  ClusterConfig::queue_pending_limit for drop semantics. */
    std::size_t queue_pending_limit = 0;

    /**
     * Merge per-shard health gauges ("shard3.queue.executed", ...)
     * into window_metrics() every Nth window boundary (0 = never).
     * This is the concurrent-merge path: all workers aggregate into
     * one SharedMetricRegistry at the same boundary.
     */
    std::size_t metrics_every_n_windows = 1;

    /**
     * Flight-recorder session for the whole run (null disables
     * tracing). The runner creates one "fleet" track for window-barrier
     * events plus one track per shard (see NodeShardConfig); creation
     * order (fleet first, shards by index) is fixed, so the serialized
     * trace is byte-deterministic for a fixed (base_seed, num_shards,
     * window schedule) regardless of thread count. The caller owns the
     * session and serializes it after Run.
     */
    telemetry::trace::TraceSession* trace = nullptr;

    /** Per-shard trace ring capacity (0 = session default). Shards on
     *  long runs fill and drop — the head of the run survives, and the
     *  drop count lands in the trace. */
    std::size_t trace_capacity = 4096;

    /**
     * Health timeline store sampled at window barriers (null disables).
     * On every `health_every_n_windows`-th window, each worker rolls up
     * every shard it owns right after stepping it (cluster::
     * HealthTotals: runtime counters, merged epoch histogram, arbiter
     * requests/denials, agent count). At the barrier the main thread
     * folds those per-shard partials in shard order and appends the
     * fleet's health counters, error-budget denominators, and the
     * merged epoch-latency percentiles as "fleet.*" series at the
     * window's virtual horizon. The partials are exact integer sums and
     * bucket-wise histogram adds, so the samples are byte-identical for
     * any thread count. Sampling is observe-only: it schedules no
     * events and mutates no sampled state, so enabling it leaves
     * fleet_trace_hash() and every per-shard trace byte-identical.
     * Caller owns the store.
     */
    telemetry::TimeSeriesStore* health = nullptr;

    /**
     * Alert rules evaluated against `health` right after each sample
     * (null disables; ignored without `health`). Firing/resolved
     * transitions land in the engine's event log and, when tracing is
     * on, as instants on the "fleet" track at the sampled horizon.
     * Caller owns the engine (and reads its events/SLO status after
     * the run).
     */
    telemetry::AlertEngine* alerts = nullptr;

    /** Sample health every Nth window boundary (0 = never). */
    std::size_t health_every_n_windows = 1;

    /** Template applied to every node (name/seed overridden per node). */
    cluster::MultiAgentNodeConfig node;
};

/** Steps N MultiAgentNodes across W worker threads in S shards. */
class ShardedFleetRunner
{
  public:
    explicit ShardedFleetRunner(const FleetConfig& config);

    /** Joins the worker pool. Outstanding shard state is destroyed
     *  with the runner; call Stop() first for a clean agent shutdown. */
    ~ShardedFleetRunner();

    ShardedFleetRunner(const ShardedFleetRunner&) = delete;
    ShardedFleetRunner& operator=(const ShardedFleetRunner&) = delete;

    /**
     * Advances every shard by `span` of virtual time, one barrier-
     * synced window at a time. Blocks until all shards reach the final
     * horizon. The first window schedules every node's staggered
     * start. Like every other mutating call, must not be invoked
     * concurrently with itself.
     *
     * An exception thrown inside a shard (agent callback, allocation
     * failure) is captured on the worker and rethrown here at that
     * window's boundary — the same propagation ClusterDriver::Run
     * gives, instead of std::terminate. After such a throw the fleet's
     * shards are at mixed horizons; destroy the runner rather than
     * calling Run again.
     */
    void Run(sim::Duration span);

    /** Stops every node's agent runtimes (call between Run calls). */
    void Stop();

    /** SRE fleet-wide incident response: cleans up every agent. */
    void CleanUpAll();

    /**
     * Drains one node mid-run: stops its agent runtimes so its queued
     * control events become no-ops and its shard's remaining load
     * shrinks. Deterministic as long as it happens at the same virtual
     * time across runs (i.e. between the same Run calls).
     */
    void DrainNode(std::size_t global_index);

    /** Roll-up counters across every node in the fleet. */
    cluster::FleetStats Stats() const;

    /** Field-wise sum of every shard queue's counters. `pending` and
     *  `peak_pending` sum per-shard values (peaks did not necessarily
     *  coincide; the sum is an upper bound on any instant's total). */
    sim::EventQueueStats QueueStats() const;

    /** Total events executed across all shards. Thread-count-
     *  independent at window boundaries (i.e. whenever Run returns). */
    std::uint64_t total_executed() const;

    /**
     * Order-independent fingerprint of the whole fleet's event traces:
     * a commutative combine (wrapping sum of a splitmix64 finalizer)
     * over per-shard EventQueue::trace_hash() values. Identical for
     * identical (base_seed, num_shards, window schedule) no matter how
     * many threads stepped the shards.
     */
    std::uint64_t fleet_trace_hash() const;

    /** Virtual time every shard has reached (valid between Run calls). */
    sim::TimePoint Now() const { return now_; }

    /**
     * Aggregates per-node metrics (namespaced by node name) and fleet
     * totals into `out` (call between Run calls; walks every node).
     */
    void CollectFleetMetrics(telemetry::MetricRegistry& out);

    /** Snapshot of the shard health gauges merged concurrently at
     *  window boundaries (see FleetConfig::metrics_every_n_windows). */
    telemetry::MetricRegistry WindowMetricsSnapshot() const
    {
        return window_metrics_.Snapshot();
    }

    std::size_t num_nodes() const { return config_.num_nodes; }
    std::size_t num_shards() const { return shards_.size(); }
    std::size_t num_threads() const { return workers_.size(); }
    cluster::NodeShard& shard(std::size_t i) { return *shards_[i]; }

    /** Node by global fleet index. */
    cluster::MultiAgentNode& node(std::size_t global_index);

  private:
    /** Config-derived sizing, computed once (barrier participant
     *  counts and the worker pool must never disagree). */
    struct Resolved {
        std::size_t num_shards;
        std::size_t num_threads;
    };
    static Resolved Resolve(const FleetConfig& config);

    ShardedFleetRunner(const FleetConfig& config, Resolved resolved);

    void WorkerMain(std::size_t worker_index);

    /** Merges one shard's health gauges into window_metrics_. */
    void MergeShardWindowMetrics(std::size_t shard_index);

    /** Folds the per-shard health partials the workers rolled up this
     *  window, appends the fleet's "fleet.*" health series at `at`, and
     *  runs the alert rules. Main thread only, workers parked. */
    void SampleFleetHealth(sim::TimePoint at);

    FleetConfig config_;
    /** Fleet-level track for window-barrier events; owned by
     *  config_.trace (null when tracing is disabled). Written only by
     *  the main thread between barriers. */
    telemetry::trace::TraceRecorder* fleet_trace_ = nullptr;
    std::vector<std::unique_ptr<cluster::NodeShard>> shards_;

    // Window protocol state. Written by the main thread before the
    // start barrier, read by workers after it; the barriers order all
    // access (no atomics needed beyond shutdown_'s lifetime role).
    sim::TimePoint now_{0};
    sim::TimePoint horizon_{0};
    std::uint64_t window_index_ = 0;
    bool merge_this_window_ = false;
    /** Whether this window ends in a health sample: decided once per
     *  window, so the workers' roll-ups and SampleFleetHealth agree. */
    bool sample_this_window_ = false;
    bool shutdown_ = false;

    telemetry::SharedMetricRegistry window_metrics_;

    /** One health roll-up per shard, written by the shard's worker on
     *  sampled windows and read by the main thread after the done
     *  barrier (the barrier orders the hand-off). Empty unless
     *  config_.health is set. */
    std::vector<cluster::HealthTotals> health_partials_;

    // First exception raised inside any shard this window; rethrown by
    // Run() at the window boundary. Once that happens the shards are at
    // mixed horizons and `failed_` poisons every further Run(). The
    // barriers already order the workers' writes before Run()'s reads,
    // but Run() takes the (uncontended) lock anyway so the guarded-by
    // discipline holds everywhere.
    core::Mutex failure_mutex_;
    std::exception_ptr failure_ SOL_GUARDED_BY(failure_mutex_);
    bool failed_ SOL_GUARDED_BY(failure_mutex_) = false;

    std::barrier<> start_barrier_;
    std::barrier<> done_barrier_;
    std::vector<std::thread> workers_;
};

}  // namespace sol::fleet
