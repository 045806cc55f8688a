/**
 * @file
 * The fleet driver: N multi-agent nodes in S shards stepped on W
 * threads, bit-deterministic regardless of thread count.
 *
 * The paper's deployment setting is a fleet where every node runs ~77
 * learning agents. ShardedFleetRunner steps that fleet at every scale
 * the repo uses, from the serial fleet (num_shards = 1 and
 * num_threads = 1: every node interleaved on one queue and one virtual
 * clock, as bench/fig_interference runs it) to hundreds of nodes on
 * real threads:
 *
 *  - The fleet is sliced into S shards (cluster::NodeShard), each
 *    owning its own arena-backed sim::EventQueue, virtual clock, trace
 *    hash, and a contiguous slice of the fleet's nodes. Every node
 *    keeps the RNG stream and start stagger of its global index, so
 *    it behaves the same however the fleet is sliced.
 *  - Fork-join virtual-time windows: the thread that calls Run steps
 *    shards itself beside W - 1 helper threads. Every window, each
 *    thread claims the next unstepped shard from a shared counter,
 *    advances it to the window's horizon, and on merge or sample
 *    windows copies the shard's queue gauges and health roll-up into
 *    that shard's own slot. The window closes once every helper has
 *    checked in; the calling thread then samples fleet health.
 *  - Determinism: fleet nodes never exchange events (per-node RNG
 *    streams make them statistically independent), so a shard's event
 *    trace depends only on (base_seed, shard composition, window
 *    horizons) — never on which thread stepped it, in what order, or
 *    how many threads exist. Shard composition is fixed by
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

#include <atomic>
#include <cstdint>
#include <exception>
#include <memory>
#include <thread>
#include <vector>

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
     * Threads stepping the shards, counting the thread that calls Run
     * (0 = one per shard, capped at hardware concurrency; 1 starts no
     * helper thread). Pure execution policy: never affects simulation
     * results, only wall-clock speed.
     */
    std::size_t num_threads = 0;

    /** Fleet seed; global node i runs stream DeriveStreamSeed(seed, i). */
    std::uint64_t base_seed = 1;

    /**
     * Virtual-time window between fleet synchronization points. All
     * shards advance to the same horizon each window; window boundaries
     * are also where gauges merge and health is sampled. Smaller
     * windows tighten fleet-wide metric freshness; larger ones amortize
     * the fixed per-window cost (waking the helpers, waiting for the
     * last shard, the health sample).
     */
    sim::Duration window = sim::Millis(100);

    /** Offset between consecutive global nodes' agent start times. */
    sim::Duration start_stagger = sim::Millis(1);

    /**
     * Backpressure bound on each shard's event queue (0 = unlimited).
     * Million-event fleet runs set this as a guard rail: an event storm
     * shows up as `fleet.queue.dropped` instead of a silent OOM. Drops
     * are lossy (an agent whose control event is shed may stall for the
     * rest of the run — see sim::EventQueue::SetPendingLimit), so set
     * it far above the expected peak and treat any non-zero
     * `fleet.queue.dropped` as an invalid run.
     */
    std::size_t queue_pending_limit = 0;

    /**
     * Record per-shard queue gauges for WindowMetricsSnapshot() every
     * Nth window boundary (0 = never). The thread that steps a shard
     * copies its queue counters and virtual time into the shard's
     * slot — no string, no lock, no allocation per shard per window;
     * the "shard3.queue.executed"-style names are built only when a
     * snapshot is taken.
     */
    std::size_t metrics_every_n_windows = 1;

    /**
     * Flight-recorder session for the whole run (null disables
     * tracing). The runner creates one "fleet" track for window events
     * plus one track per shard (see NodeShardConfig), each with the
     * session's default ring capacity; creation order (fleet first,
     * shards by index) is fixed, so the serialized trace is
     * byte-deterministic for a fixed (base_seed, num_shards, window
     * schedule) regardless of thread count. Shards on long runs fill
     * and drop — the head of the run survives, and the drop count lands
     * in the trace. The caller owns the session and serializes it after
     * Run.
     */
    telemetry::trace::TraceSession* trace = nullptr;

    /**
     * Health timeline store sampled at window boundaries (null
     * disables). On every `health_every_n_windows`-th window, the
     * thread that steps a shard rolls it up right after stepping it
     * (cluster::NodeTotals). Once the window closes, the calling thread
     * folds those per-shard partials in shard order and appends the
     * fleet's sample at the window's virtual horizon:
     * cluster::AppendHealthSample's series under "fleet." (epoch
     * latency under "fleet.node.epoch_latency") plus the summed queues'
     * "fleet.queue.executed", ".dropped" and ".pending". The partials
     * are exact integer sums and bucket-wise histogram adds, so the
     * samples are byte-identical for any thread count. Sampling is
     * observe-only: it schedules no events and mutates no sampled
     * state, so enabling it leaves fleet_trace_hash() and every
     * per-shard trace byte-identical. Caller owns the store.
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

/** Steps N MultiAgentNodes in S shards on W threads, the caller's
 *  included. */
class ShardedFleetRunner
{
  public:
    explicit ShardedFleetRunner(const FleetConfig& config);

    /** Joins the helper threads. Outstanding shard state is destroyed
     *  with the runner; call Stop() first for a clean agent shutdown. */
    ~ShardedFleetRunner();

    ShardedFleetRunner(const ShardedFleetRunner&) = delete;
    ShardedFleetRunner& operator=(const ShardedFleetRunner&) = delete;

    /**
     * Advances every shard by `span` of virtual time, one fork-join
     * window at a time: the calling thread steps shards beside the
     * helpers and returns once all shards reach the final horizon. The
     * first window schedules every node's staggered start. Like every
     * other mutating call, must not be invoked concurrently with
     * itself.
     *
     * An exception thrown inside a shard (agent callback, allocation
     * failure), on a helper or on the calling thread, is captured and
     * rethrown here once every thread has finished the window,
     * instead of std::terminate. Any exception that escapes a window, a failed
     * health sample's included, poisons the runner: the shards may be
     * at mixed horizons or the timeline half-appended, so every later
     * Run throws std::logic_error. Destroy the runner instead.
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

    /** Every node's totals, folded shard by shard (call between Run
     *  calls; merges every agent's epoch histogram). */
    cluster::NodeTotals Totals() const;

    /** Fleet-scope counters: FleetStats::Of(Totals()). */
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

    /**
     * Every shard's queue gauges as of the last merge window (see
     * FleetConfig::metrics_every_n_windows): "shard<s>.queue.*" as
     * cluster::WriteQueueGauges spells them, "shard<s>.num_nodes" and
     * "shard<s>.virtual_seconds". Empty before the first merge window
     * and when merges are off. Call between Run calls.
     */
    telemetry::MetricRegistry WindowMetricsSnapshot() const;

    std::size_t num_nodes() const { return config_.num_nodes; }
    std::size_t num_shards() const { return shards_.size(); }
    /** Threads stepping shards: the helpers plus the calling thread. */
    std::size_t num_threads() const { return helpers_.size() + 1; }
    cluster::NodeShard& shard(std::size_t i) { return *shards_[i]; }

    /** Node by global fleet index. */
    cluster::MultiAgentNode& node(std::size_t global_index);

  private:
    /** One shard's queue counters and virtual time, copied by the
     *  thread that stepped it at the last merge window. */
    struct ShardGauges {
        sim::EventQueueStats queue;
        sim::TimePoint now{0};
    };

    /** Helper thread body: parks on generation_, steps claimed shards
     *  in every window it is woken for, then checks in (the last of
     *  `num_helpers` to check in wakes the calling thread). */
    void HelperMain(std::uint32_t num_helpers);

    /** Opens the window to horizon_, steps claimed shards on the
     *  calling thread, waits until every helper has checked in, and
     *  rethrows the window's first shard exception. */
    void StepWindow();

    /** Claims the next unstepped shard and steps it to horizon_ until
     *  this window's shards run out, copying each shard's gauges and
     *  health roll-up into its slots when the window asks for them.
     *  The first exception on any thread is captured into failure_ for
     *  StepWindow to rethrow. */
    void StepClaimedShards();

    /** Tells the helpers to exit and joins them. */
    void JoinHelpers();

    /** Folds the per-shard health partials rolled up this window,
     *  appends the fleet's "fleet.*" health series at `at`, and runs
     *  the alert rules. Calling thread only, helpers parked. */
    void SampleFleetHealth(sim::TimePoint at);

    FleetConfig config_;
    /** Fleet-level track for window events; owned by config_.trace
     *  (null when tracing is disabled). Written only by the calling
     *  thread between windows. */
    telemetry::trace::TraceRecorder* fleet_trace_ = nullptr;
    std::vector<std::unique_ptr<cluster::NodeShard>> shards_;

    // Window protocol state. The calling thread writes it before it
    // opens a window (generation_'s release increment) and the helpers
    // read it after acquiring that increment; nothing here is written
    // again before every helper has checked in (checked_in_'s
    // release/acquire), so none of it needs to be atomic.
    sim::TimePoint now_{0};
    sim::TimePoint horizon_{0};
    std::uint64_t window_index_ = 0;
    bool merge_this_window_ = false;
    /** Whether this window ends in a health sample: decided once per
     *  window, so the shard roll-ups and SampleFleetHealth agree. */
    bool sample_this_window_ = false;
    bool shutdown_ = false;
    /** Set when an exception escapes a window; calling thread only. */
    bool failed_ = false;

    /** One gauge slot per shard, written by whichever thread steps the
     *  shard on merge windows. Empty unless
     *  config_.metrics_every_n_windows is set. */
    std::vector<ShardGauges> shard_gauges_;

    /** One health roll-up per shard, written by whichever thread steps
     *  the shard on sampled windows. Empty unless config_.health is
     *  set. */
    std::vector<cluster::NodeTotals> health_partials_;

    /** Incremented to open each window (and once to shut down);
     *  parked helpers wait on it. */
    std::atomic<std::uint32_t> generation_{0};
    /** Index of the next shard to claim in the open window. */
    std::atomic<std::size_t> next_shard_{0};
    /** Helpers done with the open window. */
    std::atomic<std::uint32_t> checked_in_{0};

    // First exception raised inside any shard this window; StepWindow
    // rethrows it once every helper has checked in.
    core::Mutex failure_mutex_;
    std::exception_ptr failure_ SOL_GUARDED_BY(failure_mutex_);

    std::vector<std::thread> helpers_;
};

}  // namespace sol::fleet
