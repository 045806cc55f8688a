#include "fleet/fleet_runner.h"

#include <algorithm>
#include <stdexcept>
#include <string>

#include "sim/rng.h"

namespace sol::fleet {

ShardedFleetRunner::Resolved
ShardedFleetRunner::Resolve(const FleetConfig& config)
{
    const std::size_t num_shards =
        config.num_shards != 0
            ? config.num_shards
            : std::max<std::size_t>(config.num_nodes, 1);
    std::size_t threads = config.num_threads;
    if (threads == 0) {
        const std::size_t hw = std::thread::hardware_concurrency();
        threads = hw == 0 ? 1 : hw;
    }
    // More workers than shards would just idle at the barriers.
    threads = std::clamp<std::size_t>(threads, 1, num_shards);
    return {num_shards, threads};
}

ShardedFleetRunner::ShardedFleetRunner(const FleetConfig& config)
    : ShardedFleetRunner(config, Resolve(config))
{
}

ShardedFleetRunner::ShardedFleetRunner(const FleetConfig& config,
                                       Resolved resolved)
    : config_(config),
      start_barrier_(
          static_cast<std::ptrdiff_t>(resolved.num_threads + 1)),
      done_barrier_(
          static_cast<std::ptrdiff_t>(resolved.num_threads + 1))
{
    if (config_.window <= sim::Duration::zero()) {
        throw std::invalid_argument("FleetConfig::window must be positive");
    }
    const std::size_t num_shards = resolved.num_shards;
    const std::size_t num_threads = resolved.num_threads;

    if (config_.trace != nullptr) {
        // Fleet track before any shard track: fixed creation order
        // keeps the serialized tid order deterministic. No clock —
        // window events carry explicit virtual timestamps.
        fleet_trace_ = config_.trace->NewRecorder("fleet", nullptr);
    }

    // Balanced contiguous partition: the first (num_nodes % num_shards)
    // shards own one extra node. Depends only on (num_nodes,
    // num_shards) — never on the thread count.
    shards_.reserve(num_shards);
    const std::size_t base = config_.num_nodes / num_shards;
    const std::size_t extra = config_.num_nodes % num_shards;
    std::size_t next_node = 0;
    for (std::size_t s = 0; s < num_shards; ++s) {
        cluster::NodeShardConfig shard;
        shard.first_node_index = next_node;
        shard.num_nodes = base + (s < extra ? 1 : 0);
        shard.base_seed = config_.base_seed;
        shard.start_stagger = config_.start_stagger;
        shard.queue_pending_limit = config_.queue_pending_limit;
        shard.trace_session = config_.trace;
        shard.trace_track = "shard" + std::to_string(s);
        shard.trace_capacity = config_.trace_capacity;
        shard.node = config_.node;
        next_node += shard.num_nodes;
        shards_.push_back(std::make_unique<cluster::NodeShard>(shard));
    }
    if (config_.health != nullptr) {
        health_partials_.resize(num_shards);
    }

    workers_.reserve(num_threads);
    try {
        for (std::size_t w = 0; w < num_threads; ++w) {
            workers_.emplace_back([this, w] { WorkerMain(w); });
        }
    } catch (...) {
        // Thread spawn failed partway: the barriers were sized for
        // num_threads + 1 participants, so release the workers that
        // did start (they park at the start barrier before touching
        // anything) by dropping the missing participants, then join.
        // Without this, destroying the joinable threads would
        // std::terminate.
        shutdown_ = true;
        for (std::size_t missing = workers_.size();
             missing < num_threads; ++missing) {
            start_barrier_.arrive_and_drop();
        }
        start_barrier_.arrive_and_wait();
        for (std::thread& worker : workers_) {
            worker.join();
        }
        throw;
    }
}

ShardedFleetRunner::~ShardedFleetRunner()
{
    shutdown_ = true;
    start_barrier_.arrive_and_wait();
    for (std::thread& worker : workers_) {
        worker.join();
    }
}

void
ShardedFleetRunner::WorkerMain(std::size_t worker_index)
{
    while (true) {
        start_barrier_.arrive_and_wait();
        if (shutdown_) {
            return;
        }
        // Static round-robin shard ownership: shard s is stepped by
        // worker (s % W) in every window. Assignment affects only
        // wall-clock balance; shard state is thread-confined here and
        // handed back to the main thread by the done barrier. The
        // health roll-up reads the shard here, on the thread that
        // owns it, while its state is still in this core's cache.
        try {
            for (std::size_t s = worker_index; s < shards_.size();
                 s += workers_.size()) {
                shards_[s]->RunUntil(horizon_);
                if (merge_this_window_) {
                    MergeShardWindowMetrics(s);
                }
                if (sample_this_window_) {
                    cluster::HealthTotals& partial = health_partials_[s];
                    partial = {};
                    shards_[s]->AddHealthTo(partial);
                }
            }
        } catch (...) {
            // Capture for Run() to rethrow at the window boundary —
            // an exception escaping a thread function would terminate
            // the process. First failure wins; the worker still
            // arrives at the done barrier so the window completes.
            core::MutexLock lock(failure_mutex_);
            if (!failure_) {
                failure_ = std::current_exception();
            }
        }
        done_barrier_.arrive_and_wait();
    }
}

void
ShardedFleetRunner::MergeShardWindowMetrics(std::size_t shard_index)
{
    cluster::NodeShard& shard = *shards_[shard_index];
    telemetry::MetricRegistry local;
    cluster::WriteQueueGauges(telemetry::MetricScope(local, "queue"),
                              shard.queue().stats());
    local.SetGauge("num_nodes", static_cast<double>(shard.num_nodes()));
    local.SetGauge("virtual_seconds",
                   sim::ToSeconds(shard.queue().Now()));
    window_metrics_.MergeFrom(local,
                              "shard" + std::to_string(shard_index));
}

void
ShardedFleetRunner::Run(sim::Duration span)
{
    {
        core::MutexLock lock(failure_mutex_);
        if (failed_) {
            // A previous window rethrew a shard exception: the shards
            // are at inconsistent virtual times, so continuing would
            // silently void the determinism guarantee.
            throw std::logic_error(
                "ShardedFleetRunner::Run after a shard failure; destroy "
                "the runner instead");
        }
    }
    const sim::TimePoint end = now_ + span;
    while (now_ < end) {
        const sim::TimePoint horizon =
            std::min(now_ + config_.window, end);
        horizon_ = horizon;
        ++window_index_;
        merge_this_window_ =
            config_.metrics_every_n_windows != 0 &&
            window_index_ % config_.metrics_every_n_windows == 0;
        sample_this_window_ =
            config_.health != nullptr &&
            config_.health_every_n_windows != 0 &&
            window_index_ % config_.health_every_n_windows == 0;
        start_barrier_.arrive_and_wait();
        done_barrier_.arrive_and_wait();
        // Workers are parked at the start barrier again, so the lock
        // is uncontended; the barrier already ordered their writes
        // before our read.
        std::exception_ptr failure;
        {
            core::MutexLock lock(failure_mutex_);
            if (failure_) {
                failure = failure_;
                failure_ = nullptr;
                failed_ = true;
            }
        }
        if (failure) {
            std::rethrow_exception(failure);
        }
        if (fleet_trace_ != nullptr) {
            // One span per barrier-synced window, in virtual time: the
            // same bytes for any thread count.
            fleet_trace_->Complete(
                "window", "fleet", now_, horizon - now_,
                {{"window", static_cast<std::int64_t>(window_index_)},
                 {"merge", merge_this_window_ ? 1 : 0}});
        }
        if (sample_this_window_) {
            SampleFleetHealth(horizon);
        }
        now_ = horizon;
    }
}

void
ShardedFleetRunner::SampleFleetHealth(sim::TimePoint at)
{
    // The workers rolled every shard up at this horizon, right after
    // stepping it (WorkerMain), and are parked now, so folding their
    // partials is race-free. Everything appended is an integer derived
    // from deterministic per-node state at a barrier-synced virtual
    // horizon, and the fold is exact integer sums and bucket-wise
    // histogram adds in shard order — identical across repeat runs and
    // thread counts by the same argument as fleet_trace_hash.
    telemetry::TimeSeriesStore& health = *config_.health;

    cluster::HealthTotals fleet;
    for (const cluster::HealthTotals& partial : health_partials_) {
        fleet.Accumulate(partial);
    }
    const core::RuntimeStats& stats = fleet.stats;
    const sim::EventQueueStats queue = QueueStats();

    const auto append = [&health, at](const char* name,
                                      std::uint64_t value) {
        health.Append(name, at, static_cast<std::int64_t>(value));
    };
    append("fleet.safeguard.trips", stats.safeguard_triggers);
    append("fleet.safeguard.mitigations", stats.mitigations);
    append("fleet.model.failures", stats.failed_assessments);
    append("fleet.model.intercepted", stats.intercepted_predictions);
    append("fleet.data.harvested", stats.samples_collected);
    append("fleet.data.invalid", stats.invalid_samples);
    append("fleet.epochs", stats.epochs);
    append("fleet.actions", stats.actions_taken);
    append("fleet.queue.executed", queue.executed);
    append("fleet.queue.dropped", queue.dropped);
    append("fleet.queue.pending", queue.pending);
    append("fleet.arbiter.requests", fleet.arbiter_requests);
    append("fleet.arbiter.denied", fleet.arbiter_denied);

    // Error-budget denominators for time-fraction SLOs: cumulative
    // halted agent-time against cumulative scheduled agent-time
    // (agents x elapsed virtual time, exact integer math).
    append("fleet.agent.halted_ns",
           static_cast<std::uint64_t>(stats.halted_time.count()));
    append("fleet.agent.active_ns",
           fleet.agents * static_cast<std::uint64_t>(at.count()));

    // Fleet-wide epoch-latency percentiles (merged bucket-wise, so
    // exact and layout-independent).
    const telemetry::LatencySnapshot s = fleet.epochs.Snapshot();
    append("fleet.node.epoch_latency.count", s.count);
    append("fleet.node.epoch_latency.p50_ns", s.p50_ns);
    append("fleet.node.epoch_latency.p90_ns", s.p90_ns);
    append("fleet.node.epoch_latency.p99_ns", s.p99_ns);
    append("fleet.node.epoch_latency.p999_ns", s.p999_ns);

    if (config_.alerts != nullptr) {
        config_.alerts->Evaluate(health, at, fleet_trace_);
    }
}

void
ShardedFleetRunner::Stop()
{
    for (auto& shard : shards_) {
        shard->Stop();
    }
}

void
ShardedFleetRunner::CleanUpAll()
{
    for (auto& shard : shards_) {
        shard->CleanUpAll();
    }
}

cluster::MultiAgentNode&
ShardedFleetRunner::node(std::size_t global_index)
{
    for (auto& shard : shards_) {
        const std::size_t first = shard->first_node_index();
        if (global_index >= first &&
            global_index < first + shard->num_nodes()) {
            return shard->node(global_index - first);
        }
    }
    throw std::out_of_range("fleet node index " +
                            std::to_string(global_index));
}

void
ShardedFleetRunner::DrainNode(std::size_t global_index)
{
    node(global_index).Stop();
}

cluster::FleetStats
ShardedFleetRunner::Stats() const
{
    cluster::FleetStats fleet;
    for (const auto& shard : shards_) {
        fleet.Accumulate(shard->Stats());
    }
    return fleet;
}

sim::EventQueueStats
ShardedFleetRunner::QueueStats() const
{
    sim::EventQueueStats total;
    for (const auto& shard : shards_) {
        const sim::EventQueueStats stats = shard->queue().stats();
        total.scheduled += stats.scheduled;
        total.executed += stats.executed;
        total.cancelled += stats.cancelled;
        total.dropped += stats.dropped;
        total.pending += stats.pending;
        total.peak_pending += stats.peak_pending;
        total.arena_capacity += stats.arena_capacity;
        total.arena_blocks += stats.arena_blocks;
    }
    return total;
}

std::uint64_t
ShardedFleetRunner::total_executed() const
{
    std::uint64_t executed = 0;
    for (const auto& shard : shards_) {
        executed += shard->queue().executed();
    }
    return executed;
}

std::uint64_t
ShardedFleetRunner::fleet_trace_hash() const
{
    // Wrapping sum of a splitmix64 step over each shard hash: the sum
    // is commutative/associative (order-independent across shards) and
    // the mix keeps structured per-shard hashes from cancelling.
    // DeriveStreamSeed is exactly that step — one copy of the
    // splitmix64 constants in the codebase.
    std::uint64_t hash = 0;
    for (const auto& shard : shards_) {
        hash += sim::DeriveStreamSeed(shard->queue().trace_hash(), 0);
    }
    return hash;
}

void
ShardedFleetRunner::CollectFleetMetrics(telemetry::MetricRegistry& out)
{
    for (auto& shard : shards_) {
        shard->CollectNodeMetrics(out);
    }
    cluster::WriteFleetScope(out, Stats(), config_.num_nodes,
                             QueueStats());
    telemetry::MetricScope scope(out, "fleet");
    scope.SetGauge("num_shards", static_cast<double>(shards_.size()));
    scope.SetGauge("num_threads", static_cast<double>(workers_.size()));

    // Fleet-wide epoch-duration distribution (virtual ns): the merge is
    // bucket-wise addition, so the result is exact and independent of
    // shard/thread layout.
    telemetry::LatencyHistogram epoch_hist;
    for (auto& shard : shards_) {
        for (std::size_t n = 0; n < shard->num_nodes(); ++n) {
            shard->node(n).MergeEpochLatencyInto(epoch_hist);
        }
    }
    if (!epoch_hist.empty()) {
        scope.SetHistogram("epoch_ns", epoch_hist);
    }
}

}  // namespace sol::fleet
