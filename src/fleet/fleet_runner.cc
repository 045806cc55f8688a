#include "fleet/fleet_runner.h"

#include <algorithm>
#include <stdexcept>
#include <string>
#include <utility>

#include "cluster/cluster_driver.h"
#include "sim/rng.h"

namespace sol::fleet {

ShardedFleetRunner::ShardedFleetRunner(const FleetConfig& config)
    : config_(config)
{
    if (config_.window <= sim::Duration::zero()) {
        throw std::invalid_argument("FleetConfig::window must be positive");
    }
    const std::size_t num_shards =
        config_.num_shards != 0
            ? config_.num_shards
            : std::max<std::size_t>(config_.num_nodes, 1);
    // Threads, the calling one included. More threads than shards
    // would only check in empty-handed.
    std::size_t num_threads = config_.num_threads;
    if (num_threads == 0) {
        const std::size_t hw = std::thread::hardware_concurrency();
        num_threads = hw == 0 ? 1 : hw;
    }
    num_threads = std::clamp<std::size_t>(num_threads, 1, num_shards);

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
        shard.node = config_.node;
        next_node += shard.num_nodes;
        shards_.push_back(std::make_unique<cluster::NodeShard>(shard));
    }
    if (config_.metrics_every_n_windows != 0) {
        shard_gauges_.resize(num_shards);
    }
    if (config_.health != nullptr) {
        health_partials_.resize(num_shards);
    }

    const auto num_helpers = static_cast<std::uint32_t>(num_threads - 1);
    helpers_.reserve(num_helpers);
    try {
        while (helpers_.size() < num_helpers) {
            helpers_.emplace_back(
                [this, num_helpers] { HelperMain(num_helpers); });
        }
    } catch (...) {
        // Thread spawn failed partway: the helpers that did start are
        // parked on generation_ and have touched nothing, so wake them
        // to exit and join them. Destroying a joinable std::thread
        // would std::terminate.
        JoinHelpers();
        throw;
    }
}

ShardedFleetRunner::~ShardedFleetRunner()
{
    JoinHelpers();
}

void
ShardedFleetRunner::JoinHelpers()
{
    // Every helper is parked between windows, so none reads shutdown_
    // until it acquires this increment.
    shutdown_ = true;
    generation_.fetch_add(1, std::memory_order_release);
    generation_.notify_all();
    for (std::thread& helper : helpers_) {
        helper.join();
    }
}

void
ShardedFleetRunner::HelperMain(std::uint32_t num_helpers)
{
    std::uint32_t seen = 0;
    while (true) {
        // Parks until the calling thread opens a window; the acquire
        // pairs with its release increment, so the window's parameters
        // and every shard's state as the last window left it are
        // visible here.
        generation_.wait(seen, std::memory_order_acquire);
        seen = generation_.load(std::memory_order_acquire);
        if (shutdown_) {
            return;
        }
        StepClaimedShards();
        // The release hands every shard this helper stepped back to
        // the calling thread. Only the last helper in needs to wake it.
        if (checked_in_.fetch_add(1, std::memory_order_release) + 1 ==
            num_helpers) {
            checked_in_.notify_one();
        }
    }
}

void
ShardedFleetRunner::StepWindow()
{
    next_shard_.store(0, std::memory_order_relaxed);
    checked_in_.store(0, std::memory_order_relaxed);
    generation_.fetch_add(1, std::memory_order_release);
    generation_.notify_all();

    StepClaimedShards();

    // The window ends only once every helper has checked in, including
    // one that woke after the shards ran out: a late helper can never
    // claim from the next window's counter.
    const auto helpers = static_cast<std::uint32_t>(helpers_.size());
    for (std::uint32_t in = checked_in_.load(std::memory_order_acquire);
         in != helpers; in = checked_in_.load(std::memory_order_acquire)) {
        checked_in_.wait(in, std::memory_order_acquire);
    }

    std::exception_ptr failure;
    {
        core::MutexLock lock(failure_mutex_);
        failure = std::exchange(failure_, nullptr);
    }
    if (failure) {
        std::rethrow_exception(failure);
    }
}

void
ShardedFleetRunner::StepClaimedShards()
{
    // The claim order needs no ordering of its own: a shard changes
    // threads only across a check-in and a window opening, which carry
    // the release/acquire edges.
    try {
        const auto claim = [this] {
            return next_shard_.fetch_add(1, std::memory_order_relaxed);
        };
        for (std::size_t s = claim(); s < shards_.size(); s = claim()) {
            // The gauge copy and the health roll-up read the shard on
            // the thread that just stepped it, while its state is
            // still in this core's cache.
            cluster::NodeShard& shard = *shards_[s];
            shard.RunUntil(horizon_);
            if (merge_this_window_) {
                shard_gauges_[s] = {shard.queue().stats(),
                                    shard.queue().Now()};
            }
            if (sample_this_window_) {
                health_partials_[s].Reset();
                shard.AddTotalsTo(health_partials_[s]);
            }
        }
    } catch (...) {
        // An exception escaping a thread function would terminate the
        // process. First failure wins; this thread stops claiming and
        // the others step the remaining shards.
        core::MutexLock lock(failure_mutex_);
        if (!failure_) {
            failure_ = std::current_exception();
        }
    }
}

telemetry::MetricRegistry
ShardedFleetRunner::WindowMetricsSnapshot() const
{
    telemetry::MetricRegistry out;
    const std::size_t every = config_.metrics_every_n_windows;
    if (every == 0 || window_index_ < every) {
        return out;
    }
    for (std::size_t s = 0; s < shards_.size(); ++s) {
        telemetry::MetricScope scope(out, "shard" + std::to_string(s));
        cluster::WriteQueueGauges(scope.Sub("queue"),
                                  shard_gauges_[s].queue);
        scope.SetGauge("num_nodes",
                       static_cast<double>(shards_[s]->num_nodes()));
        scope.SetGauge("virtual_seconds",
                       sim::ToSeconds(shard_gauges_[s].now));
    }
    return out;
}

void
ShardedFleetRunner::Run(sim::Duration span)
{
    if (failed_) {
        throw std::logic_error(
            "ShardedFleetRunner::Run after a failed window; destroy the "
            "runner instead");
    }
    const sim::TimePoint end = now_ + span;
    try {
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
            StepWindow();
            if (fleet_trace_ != nullptr) {
                // One span per window, in virtual time: the same bytes
                // for any thread count.
                fleet_trace_->Complete(
                    "window", "fleet", now_, horizon - now_,
                    {{"window", static_cast<std::int64_t>(window_index_)},
                     {"merge", merge_this_window_ ? 1 : 0}});
            }
            now_ = horizon;
            if (sample_this_window_) {
                SampleFleetHealth(horizon);
            }
        }
    } catch (...) {
        // A shard failure leaves the shards at mixed horizons, and a
        // failed sample leaves the window's fleet.* samples half
        // appended; continuing would silently void the determinism
        // guarantee or re-append them.
        failed_ = true;
        throw;
    }
}

void
ShardedFleetRunner::SampleFleetHealth(sim::TimePoint at)
{
    // Every shard was rolled up at this horizon right after it was
    // stepped (StepClaimedShards), and the helpers are parked now, so
    // folding
    // the partials is race-free. Everything appended is an integer
    // derived from deterministic per-node state at a window's virtual
    // horizon, and the fold is exact integer sums and bucket-wise
    // histogram adds in shard order — identical across repeat runs and
    // thread counts by the same argument as fleet_trace_hash.
    telemetry::TimeSeriesStore& health = *config_.health;

    cluster::NodeTotals fleet;
    for (const cluster::NodeTotals& partial : health_partials_) {
        fleet.Accumulate(partial);
    }
    cluster::AppendHealthSample(health, "fleet.", "fleet.node.epoch_latency",
                                at, fleet);
    const sim::EventQueueStats queue = QueueStats();
    const auto append = [&health, at](const char* name,
                                      std::uint64_t value) {
        health.Append(name, at, static_cast<std::int64_t>(value));
    };
    append("fleet.queue.executed", queue.executed);
    append("fleet.queue.dropped", queue.dropped);
    append("fleet.queue.pending", queue.pending);

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

cluster::NodeTotals
ShardedFleetRunner::Totals() const
{
    cluster::NodeTotals totals;
    for (const auto& shard : shards_) {
        shard->AddTotalsTo(totals);
    }
    return totals;
}

cluster::FleetStats
ShardedFleetRunner::Stats() const
{
    return cluster::FleetStats::Of(Totals());
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
    const cluster::NodeTotals totals = Totals();
    cluster::WriteFleetScope(out, cluster::FleetStats::Of(totals),
                             config_.num_nodes, QueueStats());
    telemetry::MetricScope scope(out, "fleet");
    scope.SetGauge("num_shards", static_cast<double>(shards_.size()));
    scope.SetGauge("num_threads", static_cast<double>(num_threads()));

    // Fleet-wide epoch-duration distribution (virtual ns): the merge is
    // bucket-wise addition, so the result is exact and independent of
    // shard/thread layout.
    if (!totals.epochs.empty()) {
        scope.SetHistogram("epoch_ns", totals.epochs);
    }
}

}  // namespace sol::fleet
