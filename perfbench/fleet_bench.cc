/**
 * @file
 * Fleet-simulation benchmark driver; perfbench/run.py launches it.
 *
 *   fleet_bench setup  <workload> <seed>          set-up time only
 *   fleet_bench timed  <workload> <seed>          one timed repetition
 *   fleet_bench replay <workload> <seed>          serial traced replay
 *
 * Every mode prints exactly one JSON object on stdout.
 *
 * `timed` builds the workload's fleet::ShardedFleetRunner (2 workers,
 * one shard per node), runs one untimed warm-up window, then times each
 * Run(window) call of the fixed virtual horizon. It reports host wall
 * and process CPU time of every timed window, set-up time, the host
 * clock measured around them (see MeasureClockGhz), peak RSS, and the
 * run's deterministic fingerprints (fleet trace hash, event and epoch
 * totals, queue drops, and on the health workload the timeline hash and
 * alert transition log). One process is one repetition, so peak RSS and
 * set-up time are never inherited from an earlier rep.
 *
 * `replay` rebuilds the same fleet serially from public parts — one
 * cluster::NodeShard per node, NodeShard::RunUntil per shard per window,
 * and on the health workload the window-boundary merge, roll-up, sample
 * and alert calls the runner makes — and must reproduce the timed run's
 * fingerprints. It times every one of those calls with a span, then
 * drives isolated single-layer probes sized from the workload's own
 * counts, and prints the per-layer ledger.
 */
#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <deque>
#include <iostream>
#include <memory>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "agents/smartharvest/smartharvest.h"
#include "agents/smartmemory/smartmemory.h"
#include "agents/smartmonitor/smartmonitor.h"
#include "agents/smartoverclock/smartoverclock.h"
#include "cluster/cluster_driver.h"
#include "cluster/interference_arbiter.h"
#include "cluster/node_shard.h"
#include "cluster/synthetic_agent.h"
#include "fleet/fleet_runner.h"
#include "sim/event_queue.h"
#include "sim/rng.h"
#include "telemetry/alerting.h"
#include "telemetry/latency_histogram.h"
#include "telemetry/metric_registry.h"
#include "telemetry/timeseries.h"
#include "workloads/scenarios.h"
#include "workloads/trace_driver.h"

namespace {

using Clock = std::chrono::steady_clock;
using sol::sim::Duration;
using sol::sim::TimePoint;

// Two workers: at most nproc on the 4-vCPU host with headroom left for
// the rest of the machine. Four workers swung 8.5-12.4 M events/s in
// one hour and 4.9-8.5 M in another; two held within +-5%.
constexpr std::size_t kWorkers = 2;
// The first window schedules every node's staggered start and touches
// the event arenas for the first time; it is never timed.
constexpr std::size_t kWarmupWindows = 1;
// Guard rail per shard (as in bench/fleet_scale): a drop is counted and
// fails the run instead of degrading it silently.
constexpr std::size_t kPendingLimit = std::size_t{1} << 20;

/** One fixed-work workload: a fleet shape and a virtual horizon. */
struct Workload {
    sol::fleet::FleetConfig fleet;
    std::size_t timed_windows = 0;
    std::unique_ptr<sol::workloads::TraceDriver> driver;
    /** Health timeline and alert rules; wired into `fleet` only on the
     *  health workload. */
    sol::telemetry::TimeSeriesStore health;
    sol::telemetry::AlertEngine alerts;

    bool has_health() const { return fleet.health != nullptr; }

    std::size_t total_windows() const
    {
        return kWarmupWindows + timed_windows;
    }
};

std::unique_ptr<Workload>
MakeWorkload(const std::string& name, std::uint64_t seed)
{
    auto w = std::make_unique<Workload>();
    sol::fleet::FleetConfig& f = w->fleet;
    f.num_threads = kWorkers;
    f.base_seed = seed;
    f.queue_pending_limit = kPendingLimit;
    if (name == "fleet77_x2") {
        // fleet_scale's agent mix: the paper's 77 agents per node. 32
        // nodes keep a repetition near 3 s, so a run holds a dozen.
        f.num_nodes = 32;
        f.window = sol::sim::Millis(100);
        f.metrics_every_n_windows = 0;
        f.node.synthetic_agents = 73;
        f.node.synthetic.period_jitter = 0.15;
        f.node.synthetic.burst_fraction = 0.125;
        w->timed_windows = 100;
    } else if (name == "storm_health_x2") {
        // cascading_safeguards from its public recipe, with health
        // sampling and the default alert pack at every 10 ms window.
        const sol::workloads::Scenario* scenario =
            sol::workloads::FindScenario("cascading_safeguards");
        if (scenario == nullptr) {
            throw std::runtime_error("cascading_safeguards missing");
        }
        f.num_nodes = 32;
        f.window = sol::sim::Millis(10);
        f.node.synthetic_agents = 24;
        w->timed_windows = 300;
        w->alerts.AddRules(sol::telemetry::DefaultFleetAlertRules());
        f.health = &w->health;
        f.alerts = &w->alerts;
        sol::workloads::ScenarioShape shape;
        shape.num_nodes = f.num_nodes;
        shape.synthetic_agents = f.node.synthetic_agents;
        shape.horizon = f.window * static_cast<std::int64_t>(
                                       w->total_windows());
        const std::size_t tenants =
            shape.num_nodes * shape.synthetic_agents;
        sol::workloads::TraceDriverConfig driver =
            scenario->build_driver(shape, tenants);
        driver.num_tenants = tenants;
        w->driver =
            std::make_unique<sol::workloads::TraceDriver>(driver);
        f.node.trace_driver = w->driver.get();
        scenario->customize_node(f.node);
    } else {
        throw std::invalid_argument("unknown workload " + name);
    }
    f.num_shards = f.num_nodes;  // One shard per node.
    return w;
}

double
Seconds(Clock::duration d)
{
    return std::chrono::duration<double>(d).count();
}

std::int64_t
Nanos(Clock::duration d)
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(d).count();
}

/** User+sys CPU time of every thread of the process, to the nanosecond
 *  (getrusage's total, without its microsecond rounding). */
double
CpuSeconds()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

/**
 * The host core's clock in GHz, from the fastest of three timings of a
 * dependent 64-bit multiply-add chain: one step is a 3-cycle multiply
 * feeding a 1-cycle add on every x86-64 core since Sandy Bridge and
 * Zen, so 4 cycles. The host exposes no PMU, and its clock drifts with
 * its other tenants' load (2.5-3.0 GHz within minutes), so run.py
 * rescales every host-time figure to a fixed reference clock with this.
 * Takes about 1 ms.
 */
double
MeasureClockGhz()
{
    constexpr std::uint64_t kSteps = 250'000;
    std::int64_t best_ns = INT64_MAX;
    for (std::uint64_t attempt = 1; attempt <= 3; ++attempt) {
        std::uint64_t x = attempt;
        const auto start = Clock::now();
        for (std::uint64_t i = 0; i < kSteps; ++i) {
            x = x * 6364136223846793005ULL + 1442695040888963407ULL;
        }
        const std::int64_t ns = Nanos(Clock::now() - start);
        // Keeps the chain: its result is observable.
        if (x == 0) {
            std::cerr << "clock chain reached 0\n";
        }
        best_ns = std::min(best_ns, ns);
    }
    return 4.0 * static_cast<double>(kSteps) /
           static_cast<double>(std::max<std::int64_t>(best_ns, 1));
}

/** Median of a non-empty sample. */
double
Median(std::vector<double> v)
{
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : (v[n / 2 - 1] + v[n / 2]) / 2.0;
}

double
PeakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux.
}

std::string
Hex(std::uint64_t value)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "0x%016llx",
                  static_cast<unsigned long long>(value));
    return buf;
}

std::string
Quote(const std::string& s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out += '\\';
        }
        out += c;
    }
    return out + "\"";
}

/** Flat JSON object writer (numbers, strings, raw JSON values). */
class JsonObject
{
  public:
    JsonObject& Num(const std::string& key, double value)
    {
        std::ostringstream os;
        os.precision(17);
        os << value;
        return Raw(key, os.str());
    }
    JsonObject& Int(const std::string& key, std::uint64_t value)
    {
        return Raw(key, std::to_string(value));
    }
    JsonObject& Str(const std::string& key, const std::string& value)
    {
        return Raw(key, Quote(value));
    }
    JsonObject& Raw(const std::string& key, const std::string& json)
    {
        body_ += (body_.empty() ? "" : ",") + Quote(key) + ":" + json;
        return *this;
    }
    std::string str() const { return "{" + body_ + "}"; }

  private:
    std::string body_;
};

std::string
AlertLog(const std::vector<sol::telemetry::AlertEvent>& events)
{
    std::string out = "[";
    for (std::size_t i = 0; i < events.size(); ++i) {
        const auto& e = events[i];
        out += (i == 0 ? "[" : ",[") + std::to_string(e.at.count()) + "," +
               Quote(e.rule) + "," + (e.firing ? "true" : "false") + "," +
               std::to_string(e.value) + "]";
    }
    return out + "]";
}

// ---------------------------------------------------------------------
// Fleet-wide roll-ups over a set of nodes.

struct Totals {
    sol::core::RuntimeStats agents;  ///< Every agent, real and synthetic.
    sol::core::RuntimeStats real;    ///< The four paper agents only.
    std::uint64_t arbiter_requests = 0;
    std::uint64_t conflicts_resolved = 0;
    std::uint64_t expands = 0;  ///< Synthetic expands, admitted + denied.
};

void
AddNode(Totals& t, sol::cluster::MultiAgentNode& node)
{
    t.agents.Accumulate(node.AggregateStats());
    t.real.Accumulate(node.OverclockStats());
    t.real.Accumulate(node.HarvestStats());
    t.real.Accumulate(node.MemoryStats());
    t.real.Accumulate(node.MonitorStats());
    t.arbiter_requests += node.arbiter().requests();
    t.conflicts_resolved += node.arbiter().conflicts_resolved();
    for (std::size_t j = 0; j < node.num_synthetic_agents(); ++j) {
        const auto& actuator = node.synthetic_agent(j).actuator();
        t.expands += actuator.expands_admitted() + actuator.expands_denied();
    }
}

// ---------------------------------------------------------------------
// Timed repetition.

/** Set-up time and the host clock measured either side of it. */
struct Setup {
    std::unique_ptr<sol::fleet::ShardedFleetRunner> runner;
    double seconds = 0.0;
    double clock_ghz = 0.0;
};

Setup
BuildRunner(const Workload& w)
{
    Setup s;
    const double before = MeasureClockGhz();
    const auto start = Clock::now();
    s.runner = std::make_unique<sol::fleet::ShardedFleetRunner>(w.fleet);
    s.seconds = Seconds(Clock::now() - start);
    s.clock_ghz = (before + MeasureClockGhz()) / 2.0;
    return s;
}

/** Builds the workload's runner, timing only its construction. */
int
RunSetup(const std::string& name, std::uint64_t seed)
{
    std::unique_ptr<Workload> w = MakeWorkload(name, seed);
    const Setup setup = BuildRunner(*w);
    JsonObject out;
    out.Str("mode", "setup")
        .Str("workload", name)
        .Int("seed", seed)
        .Num("setup_s", setup.seconds)
        .Num("setup_clock_ghz", setup.clock_ghz);
    std::cout << out.str() << "\n";
    return 0;
}

std::string
JsonArray(const std::vector<double>& values)
{
    std::string out = "[";
    for (std::size_t i = 0; i < values.size(); ++i) {
        std::ostringstream os;
        os.precision(9);
        os << values[i];
        out += (i == 0 ? "" : ",") + os.str();
    }
    return out + "]";
}

int
RunTimed(const std::string& name, std::uint64_t seed)
{
    std::unique_ptr<Workload> w = MakeWorkload(name, seed);
    const Setup setup = BuildRunner(*w);
    sol::fleet::ShardedFleetRunner& runner = *setup.runner;

    for (std::size_t i = 0; i < kWarmupWindows; ++i) {
        runner.Run(w->fleet.window);
    }
    const std::uint64_t events_before = runner.total_executed();
    const std::uint64_t epochs_before = runner.Stats().total_epochs;

    // The clock is sampled between windows, at least every 100 ms of
    // window time, while the workers are parked; neither the samples
    // nor the gaps they take are inside any timed window.
    constexpr double kClockEveryS = 0.1;
    std::vector<double> clock_ghz{MeasureClockGhz()};
    std::vector<double> window_ms;
    window_ms.reserve(w->timed_windows);
    double timed_s = 0.0, cpu_s = 0.0, since_clock_s = 0.0;
    for (std::size_t i = 0; i < w->timed_windows; ++i) {
        const double cpu_start = CpuSeconds();
        const auto start = Clock::now();
        runner.Run(w->fleet.window);
        const double wall = Seconds(Clock::now() - start);
        cpu_s += CpuSeconds() - cpu_start;
        window_ms.push_back(wall * 1e3);
        timed_s += wall;
        since_clock_s += wall;
        if (since_clock_s >= kClockEveryS || i + 1 == w->timed_windows) {
            clock_ghz.push_back(MeasureClockGhz());
            since_clock_s = 0.0;
        }
    }

    const sol::cluster::FleetStats stats = runner.Stats();
    const sol::sim::EventQueueStats queue = runner.QueueStats();

    JsonObject out;
    out.Str("mode", "timed")
        .Str("workload", name)
        .Int("seed", seed)
        .Int("threads", runner.num_threads())
        .Num("setup_s", setup.seconds)
        .Num("setup_clock_ghz", setup.clock_ghz)
        .Num("timed_s", timed_s)
        .Num("cpu_s", cpu_s)
        .Num("clock_ghz", Median(clock_ghz))
        .Int("clock_samples", clock_ghz.size())
        .Int("timed_events", runner.total_executed() - events_before)
        .Int("timed_epochs", stats.total_epochs - epochs_before)
        .Raw("window_ms", JsonArray(window_ms))
        .Str("fleet_hash", Hex(runner.fleet_trace_hash()))
        .Int("total_events", runner.total_executed())
        .Int("total_epochs", stats.total_epochs)
        .Int("dropped", queue.dropped);
    if (w->has_health()) {
        out.Str("timeline_hash", Hex(w->health.timeline_hash()))
            .Raw("alerts", AlertLog(w->alerts.events()));
    }
    runner.Stop();
    out.Num("peak_rss_mb", PeakRssMb());
    std::cout << out.str() << "\n";
    return 0;
}

// ---------------------------------------------------------------------
// Single-layer probes (public APIs only, sized from workload counts).

/**
 * ns per executed event of a bare EventQueue shaped like one node's
 * shard: `depth` periodic streams (every fired event re-arms itself one
 * period later), `fast` of them at the 50 us substrate-tick and harvest
 * cadence and the rest at agent cadences of 10 ms to 1.28 s, with a
 * `cancel_ratio` share of scheduled events cancelled before they fire
 * (the runtime's timeout pattern).
 */
double
ProbeEventQueue(std::size_t depth, std::size_t fast, double cancel_ratio,
                std::uint64_t seed)
{
    struct Streams {
        sol::sim::EventQueue queue;
        std::vector<Duration> period;
    };
    struct Fire {
        Streams* streams;
        std::size_t index;
        void operator()() const
        {
            streams->queue.ScheduleAfter(streams->period[index],
                                         Fire{streams, index});
        }
    };
    Streams streams;
    sol::sim::Rng rng(seed);
    for (std::size_t i = 0; i < std::max(depth, fast + 1); ++i) {
        const Duration period =
            i < fast ? sol::sim::Micros(50)
                  : sol::sim::Millis(10) * (1 << rng.NextBelow(8));
        streams.period.push_back(period);
        streams.queue.ScheduleAfter(
            Duration(static_cast<std::int64_t>(rng.NextBelow(
                static_cast<std::uint64_t>(period.count())))),
            Fire{&streams, i});
    }
    // cancelled / scheduled = r needs p = r / (1 - r) extra cancellable
    // events per fired one; each is cancelled 64 fires later, long
    // before its deadline.
    const double r = std::clamp(cancel_ratio, 0.0, 0.9);
    const double p = r / (1.0 - r);
    std::deque<sol::sim::EventHandle> timeouts;
    constexpr std::uint64_t kOps = 2'000'000;
    const auto start = Clock::now();
    for (std::uint64_t i = 0; i < kOps; ++i) {
        if (p > 0 && rng.NextDouble() < p) {
            timeouts.push_back(streams.queue.ScheduleAfter(
                sol::sim::Seconds(10), [] {}));
            if (timeouts.size() > 64) {
                timeouts.front().Cancel();
                timeouts.pop_front();
            }
        }
        streams.queue.Step();
    }
    return static_cast<double>(Nanos(Clock::now() - start)) /
           static_cast<double>(kOps);
}

double
CancelRatio(const sol::sim::EventQueueStats& stats)
{
    return stats.scheduled == 0 ? 0.0
                                : static_cast<double>(stats.cancelled) /
                                      static_cast<double>(stats.scheduled);
}

/** Estimated ns a probe's own queue spent on its events: a bare queue
 *  of the same peak depth, fast streams and cancel ratio, times the
 *  events it executed. */
double
QueueCostNs(const sol::sim::EventQueue& queue, std::size_t fast,
            std::uint64_t seed)
{
    const sol::sim::EventQueueStats stats = queue.stats();
    return ProbeEventQueue(stats.peak_pending, fast, CancelRatio(stats),
                           seed) *
           static_cast<double>(stats.executed);
}

/** ns per 50 us substrate tick of one node's Node::Advance. */
double
ProbeNodeAdvance(const sol::cluster::MultiAgentNodeConfig& templ)
{
    sol::sim::EventQueue queue;
    sol::cluster::MultiAgentNodeConfig config = templ;
    config.synthetic_agents = 0;
    sol::cluster::MultiAgentNode node(queue, config);
    constexpr std::uint64_t kTicks = 400'000;
    TimePoint now{0};
    const auto start = Clock::now();
    for (std::uint64_t i = 0; i < kTicks; ++i) {
        now += config.node_tick;
        node.node().Advance(now, config.node_tick);
    }
    return static_cast<double>(Nanos(Clock::now() - start)) /
           static_cast<double>(kTicks);
}

/**
 * Host us per real-agent epoch of one node running only the four paper
 * agents on a private queue, net of its queue's events and substrate
 * ticks (at `advance_ns`): the agents' ml models, actuators and engine
 * work.
 */
double
ProbeRealAgentEpoch(const sol::cluster::MultiAgentNodeConfig& templ,
                    std::uint64_t base_seed, double advance_ns)
{
    sol::sim::EventQueue queue;
    sol::cluster::MultiAgentNodeConfig config = templ;
    config.synthetic_agents = 0;
    config.seed = sol::sim::DeriveStreamSeed(base_seed, 0);
    sol::cluster::MultiAgentNode node(queue, config);
    const Duration span = sol::sim::Seconds(20);
    const auto start = Clock::now();
    node.Start();
    queue.RunUntil(TimePoint(span));
    const double ns = static_cast<double>(Nanos(Clock::now() - start));
    node.Stop();
    const double ticks = static_cast<double>(span.count()) /
                         static_cast<double>(config.node_tick.count());
    const double self =
        ns - QueueCostNs(queue, 2, base_seed) - ticks * advance_ns;
    const double epochs = std::max<double>(
        1.0, static_cast<double>(node.AggregateStats().epochs));
    return std::max(0.0, self) / epochs / 1e3;
}

struct EpochProbe {
    double epoch_us = 0.0;  ///< Host us per epoch, queue included.
    double self_us = 0.0;   ///< The same, net of the queue's events.
};

/** One SyntheticAgent on a private queue, configured as node 0's first
 *  synthetic would be. */
EpochProbe
ProbeSyntheticEpoch(const sol::cluster::MultiAgentNodeConfig& templ,
                    std::uint64_t base_seed)
{
    sol::cluster::SyntheticAgentConfig config = templ.synthetic;
    config.name = "synthetic0";
    config.seed = sol::sim::DeriveStreamSeed(
        sol::sim::DeriveStreamSeed(base_seed, 0), 8);
    config.domain = sol::core::ActuationDomain::kTelemetryBudget;
    config.trace_driver = templ.trace_driver;
    config.tenant = 0;
    if (templ.customize_synthetic) {
        templ.customize_synthetic(0, config);
    }
    sol::sim::EventQueue queue;
    sol::cluster::SyntheticAgent agent(queue, config, nullptr,
                                       templ.runtime);
    agent.runtime().Start();
    const auto start = Clock::now();
    queue.RunUntil(TimePoint(sol::sim::Seconds(2000)));
    const double ns = static_cast<double>(Nanos(Clock::now() - start));
    agent.runtime().Stop();
    const double epochs =
        std::max<double>(1.0, static_cast<double>(
                                  agent.runtime().stats().epochs));
    const double self = ns - QueueCostNs(queue, 0, base_seed);
    return {ns / epochs / 1e3, std::max(0.0, self) / epochs / 1e3};
}

/** ns per InterferenceArbiter::Admit over one node's agent set, at the
 *  workload's couplings and expand share. */
double
ProbeAdmit(const sol::cluster::MultiAgentNodeConfig& templ,
           double expand_share, std::uint64_t seed)
{
    using sol::core::ActuationDomain;
    std::vector<std::pair<std::string, ActuationDomain>> agents;
    for (std::size_t i = 0; i < templ.synthetic_agents; ++i) {
        sol::cluster::SyntheticAgentConfig config = templ.synthetic;
        config.domain = i % 2 == 0 ? ActuationDomain::kTelemetryBudget
                                   : ActuationDomain::kMemoryPlacement;
        if (templ.customize_synthetic) {
            templ.customize_synthetic(i, config);
        }
        agents.emplace_back("synthetic" + std::to_string(i), config.domain);
    }
    agents.emplace_back(sol::agents::kSmartOverclockName,
                        ActuationDomain::kCpuFrequency);
    agents.emplace_back(sol::agents::kSmartHarvestName,
                        ActuationDomain::kCpuCores);
    agents.emplace_back(sol::agents::kSmartMemoryName,
                        ActuationDomain::kMemoryPlacement);
    agents.emplace_back(sol::agents::kSmartMonitorName,
                        ActuationDomain::kTelemetryBudget);

    sol::telemetry::MetricRegistry registry;
    sol::cluster::InterferenceArbiter arbiter(
        templ.arbiter, sol::telemetry::MetricScope(registry, "arbiter"));
    sol::sim::Rng rng(seed);
    constexpr std::uint64_t kRequests = 500'000;
    std::vector<sol::core::ActuationRequest> requests;
    requests.reserve(4096);
    for (std::size_t i = 0; i < 4096; ++i) {
        const auto& [agent, domain] = agents[rng.NextBelow(agents.size())];
        requests.push_back(
            {agent, domain,
             rng.NextDouble() < expand_share
                 ? sol::core::ActuationIntent::kExpand
                 : sol::core::ActuationIntent::kRestore,
             1.0});
    }
    std::uint64_t admitted = 0;
    const auto start = Clock::now();
    for (std::uint64_t i = 0; i < kRequests; ++i) {
        admitted += arbiter.Admit(requests[i % requests.size()]).admitted;
    }
    const double ns = static_cast<double>(Nanos(Clock::now() - start));
    if (admitted == 0) {
        std::cerr << "admit probe admitted nothing\n";
    }
    return ns / static_cast<double>(kRequests);
}

/** ns per TraceDriver query over random (tenant, time) points. */
double
ProbeQueries(const sol::workloads::TraceDriver& driver, Duration horizon,
             std::uint64_t seed)
{
    sol::sim::Rng rng(seed);
    const std::size_t tenants = driver.config().num_tenants;
    constexpr std::uint64_t kQueries = 1'000'000;
    double sink = 0.0;
    const auto start = Clock::now();
    for (std::uint64_t i = 0; i < kQueries; ++i) {
        const std::size_t tenant = rng.NextBelow(tenants);
        const TimePoint t(static_cast<std::int64_t>(
            rng.NextBelow(static_cast<std::uint64_t>(horizon.count()))));
        switch (i % 4) {
        case 0: sink += driver.InvalidRateAt(tenant, t, 0.02); break;
        case 1: sink += driver.ExpandFractionAt(tenant, t, 0.25); break;
        case 2: sink += driver.EpochTargetAt(tenant, t, 5); break;
        default: sink += driver.ActuatorFailingAt(tenant, t) ? 1 : 0;
        }
    }
    const double ns = static_cast<double>(Nanos(Clock::now() - start));
    if (sink < 0) {
        std::cerr << "unreachable\n";
    }
    return ns / static_cast<double>(kQueries);
}

// ---------------------------------------------------------------------
// Serial replay.

/** Times calls as spans and counts them, so the spans' own cost can
 *  be reported. */
class Spans
{
  public:
    template <typename Fn>
    std::int64_t operator()(Fn&& fn)
    {
        ++count_;
        const auto start = Clock::now();
        fn();
        return Nanos(Clock::now() - start);
    }

    /** Host ns all spans so far added: their count times the measured
     *  cost of one span's clock reads. */
    double CostNs() const
    {
        constexpr int kReads = 1'000'000;
        std::int64_t sink = 0;
        const auto start = Clock::now();
        for (int i = 0; i < kReads; ++i) {
            const auto a = Clock::now();
            sink += Nanos(Clock::now() - a);
        }
        const double per_span =
            static_cast<double>(Nanos(Clock::now() - start)) / kReads;
        if (sink < 0) {
            std::cerr << "clock went backwards\n";
        }
        return per_span * static_cast<double>(count_);
    }

  private:
    std::uint64_t count_ = 0;
};

/** The fleet.* health sample ShardedFleetRunner appends at a window
 *  barrier, rebuilt from public reads; split into the roll-up walk and
 *  the appends so each is its own span. */
struct HealthRollup {
    sol::core::RuntimeStats stats;
    sol::telemetry::LatencyHistogram epochs;
    sol::sim::EventQueueStats queue;
    std::uint64_t requests = 0;
    std::uint64_t denied = 0;
    std::uint64_t agents = 0;

    void Walk(std::vector<std::unique_ptr<sol::cluster::NodeShard>>& shards)
    {
        for (auto& shard : shards) {
            for (std::size_t n = 0; n < shard->num_nodes(); ++n) {
                sol::cluster::MultiAgentNode& node = shard->node(n);
                stats.Accumulate(node.AggregateStats());
                epochs.Merge(node.EpochLatencyHistogram());
                requests += node.arbiter().requests();
                denied += node.arbiter().conflicts_resolved();
                agents += node.num_agents();
            }
            const sol::sim::EventQueueStats q = shard->queue().stats();
            queue.executed += q.executed;
            queue.dropped += q.dropped;
            queue.pending += q.pending;
        }
    }

    void Append(sol::telemetry::TimeSeriesStore& health, TimePoint at) const
    {
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
        append("fleet.arbiter.requests", requests);
        append("fleet.arbiter.denied", denied);
        append("fleet.agent.halted_ns",
               static_cast<std::uint64_t>(stats.halted_time.count()));
        append("fleet.agent.active_ns",
               agents * static_cast<std::uint64_t>(at.count()));
        const sol::telemetry::LatencySnapshot s = epochs.Snapshot();
        append("fleet.node.epoch_latency.count", s.count);
        append("fleet.node.epoch_latency.p50_ns", s.p50_ns);
        append("fleet.node.epoch_latency.p90_ns", s.p90_ns);
        append("fleet.node.epoch_latency.p99_ns", s.p99_ns);
        append("fleet.node.epoch_latency.p999_ns", s.p999_ns);
    }
};

struct Snapshot {
    std::uint64_t executed = 0;
    Totals totals;
};

Snapshot
TakeSnapshot(std::vector<std::unique_ptr<sol::cluster::NodeShard>>& shards)
{
    Snapshot s;
    for (auto& shard : shards) {
        s.executed += shard->queue().executed();
        for (std::size_t n = 0; n < shard->num_nodes(); ++n) {
            AddNode(s.totals, shard->node(n));
        }
    }
    return s;
}

double
Ms(std::int64_t ns)
{
    return static_cast<double>(ns) / 1e6;
}

double
Ratio(double num, double den)
{
    return den > 0 ? num / den : 0.0;
}

int
RunReplay(const std::string& name, std::uint64_t seed)
{
    std::unique_ptr<Workload> w = MakeWorkload(name, seed);
    const sol::fleet::FleetConfig& f = w->fleet;
    const double clock_before = MeasureClockGhz();

    // The NodeShardConfig ShardedFleetRunner builds for shard s (one
    // node per shard, tracing off).
    Spans span;
    std::vector<std::unique_ptr<sol::cluster::NodeShard>> shards;
    const std::int64_t build_ns = span([&] {
        for (std::size_t s = 0; s < f.num_nodes; ++s) {
            sol::cluster::NodeShardConfig config;
            config.first_node_index = s;
            config.num_nodes = 1;
            config.base_seed = f.base_seed;
            config.start_stagger = f.start_stagger;
            config.queue_pending_limit = f.queue_pending_limit;
            config.node = f.node;
            shards.push_back(
                std::make_unique<sol::cluster::NodeShard>(config));
        }
    });

    sol::telemetry::SharedMetricRegistry window_metrics;
    sol::telemetry::TimeSeriesStore& health = w->health;
    sol::telemetry::AlertEngine& alerts = w->alerts;
    const bool merge = f.metrics_every_n_windows != 0;

    std::int64_t step_ns = 0, merge_ns = 0, rollup_ns = 0, append_ns = 0,
                 alert_ns = 0, critical_ns = 0, imbalance_ns = 0;
    std::vector<std::int64_t> shard_steps;
    shard_steps.reserve(w->timed_windows * shards.size());
    Snapshot warm;

    const auto replay_start = Clock::now();
    TimePoint now{0};
    for (std::size_t window = 1; window <= w->total_windows(); ++window) {
        const bool timed = window > kWarmupWindows;
        if (window == kWarmupWindows + 1) {
            warm = TakeSnapshot(shards);
        }
        const TimePoint horizon = now + f.window;
        std::int64_t worker_ns[kWorkers] = {};
        std::int64_t win_step = 0, win_merge = 0;
        for (std::size_t s = 0; s < shards.size(); ++s) {
            sol::cluster::NodeShard& shard = *shards[s];
            const std::int64_t step =
                span([&] { shard.RunUntil(horizon); });
            std::int64_t merged = 0;
            if (merge && window % f.metrics_every_n_windows == 0) {
                merged = span([&] {
                    sol::telemetry::MetricRegistry local;
                    sol::cluster::WriteQueueGauges(
                        sol::telemetry::MetricScope(local, "queue"),
                        shard.queue().stats());
                    local.SetGauge("num_nodes",
                                   static_cast<double>(shard.num_nodes()));
                    local.SetGauge("virtual_seconds",
                                   sol::sim::ToSeconds(shard.queue().Now()));
                    window_metrics.MergeFrom(local,
                                             "shard" + std::to_string(s));
                });
            }
            worker_ns[s % kWorkers] += step + merged;
            win_step += step;
            win_merge += merged;
            if (timed) {
                shard_steps.push_back(step);
            }
        }
        std::int64_t win_rollup = 0, win_append = 0, win_alert = 0;
        if (w->has_health() && f.health_every_n_windows != 0 &&
            window % f.health_every_n_windows == 0) {
            HealthRollup rollup;
            win_rollup = span([&] { rollup.Walk(shards); });
            win_append = span([&] { rollup.Append(health, horizon); });
            win_alert = span([&] {
                alerts.Evaluate(health, horizon, nullptr);
            });
        }
        if (timed) {
            step_ns += win_step;
            merge_ns += win_merge;
            rollup_ns += win_rollup;
            append_ns += win_append;
            alert_ns += win_alert;
            const auto [lo, hi] =
                std::minmax_element(worker_ns, worker_ns + kWorkers);
            critical_ns += *hi;
            imbalance_ns += *hi - *lo;
        }
        now = horizon;
    }
    const double replay_s = Seconds(Clock::now() - replay_start);
    // A replay without spans would differ by the spans' own cost; two
    // replay processes differ by +-20% from host noise alone, so that
    // cost is measured directly instead of as a difference of runs.
    const double span_cost_s = span.CostNs() / 1e9;

    std::uint64_t fleet_hash = 0;
    sol::sim::EventQueueStats queue;
    std::size_t max_shard_peak = 0;
    for (auto& shard : shards) {
        fleet_hash +=
            sol::sim::DeriveStreamSeed(shard->queue().trace_hash(), 0);
        const sol::sim::EventQueueStats q = shard->queue().stats();
        queue.scheduled += q.scheduled;
        queue.executed += q.executed;
        queue.cancelled += q.cancelled;
        queue.dropped += q.dropped;
        queue.peak_pending += q.peak_pending;
        queue.arena_capacity += q.arena_capacity;
        max_shard_peak = std::max(max_shard_peak, q.peak_pending);
    }

    JsonObject out;
    out.Str("mode", "replay")
        .Str("workload", name)
        .Int("seed", seed)
        .Num("replay_s", replay_s)
        .Str("fleet_hash", Hex(fleet_hash))
        .Int("total_events", queue.executed);
    if (w->has_health()) {
        out.Str("timeline_hash", Hex(health.timeline_hash()))
            .Raw("alerts", AlertLog(alerts.events()));
    }
    std::int64_t report_ns = 0;
    if (w->has_health()) {
        report_ns = span([&] {
            const std::string report =
                sol::telemetry::HealthReportWriter::ToString(
                    "perfbench_" + name, health, alerts);
            if (report.empty()) {
                std::cerr << "empty health report\n";
            }
        });
    }

    const Snapshot end = TakeSnapshot(shards);
    const sol::core::RuntimeStats& all = end.totals.agents;
    const sol::core::RuntimeStats& real = end.totals.real;

    // Probes, sized from this run's own counts.
    const double cancel_ratio = CancelRatio(queue);
    // Two 50 us streams per node with real agents: the substrate tick
    // and the harvest agent's collect loop.
    const double event_ns = ProbeEventQueue(
        max_shard_peak, f.node.run_harvest ? 2 : 1, cancel_ratio, seed);
    const double advance_ns = ProbeNodeAdvance(f.node);
    const double real_epoch_us =
        ProbeRealAgentEpoch(f.node, f.base_seed, advance_ns);
    const EpochProbe epoch = ProbeSyntheticEpoch(f.node, f.base_seed);
    const double expand_share =
        end.totals.arbiter_requests == 0
            ? 0.5
            : Ratio(static_cast<double>(end.totals.expands),
                    static_cast<double>(end.totals.arbiter_requests));
    const double admit_ns = ProbeAdmit(f.node, expand_share, seed);
    const Duration horizon =
        f.window * static_cast<std::int64_t>(w->total_windows());
    const double query_ns =
        w->driver ? ProbeQueries(*w->driver, horizon, seed) : 0.0;

    // Ledger over the timed windows: measured spans, with the shard
    // steps split by probe cost x the work counted in those windows.
    const double d_events =
        static_cast<double>(end.executed - warm.executed);
    const double d_real_epochs =
        static_cast<double>(real.epochs - warm.totals.real.epochs);
    const double d_synth_epochs =
        static_cast<double>(all.epochs - warm.totals.agents.epochs) -
        d_real_epochs;
    const double d_requests = static_cast<double>(
        end.totals.arbiter_requests - warm.totals.arbiter_requests);
    const sol::core::RuntimeStats& wa = warm.totals.agents;
    const sol::core::RuntimeStats& wr = warm.totals.real;
    // A synthetic agent consults the TraceDriver once per collect, epoch
    // exit and action; real agents never do.
    const double d_queries =
        w->driver
            ? static_cast<double>(
                  (all.samples_collected - wa.samples_collected) -
                  (real.samples_collected - wr.samples_collected) +
                  (all.actions_taken - wa.actions_taken) -
                  (real.actions_taken - wr.actions_taken)) +
                  d_synth_epochs
            : 0.0;
    const double node_ticks =
        static_cast<double>(f.num_nodes) *
        static_cast<double>((f.window * static_cast<std::int64_t>(
                                            w->timed_windows))
                                .count()) /
        static_cast<double>(f.node.node_tick.count());

    const double step_ms = Ms(step_ns);
    const double telemetry_ms =
        Ms(merge_ns) + Ms(append_ns) + Ms(alert_ns);
    const double ledger_sim = event_ns * d_events / 1e6;
    const double ledger_node = advance_ns * node_ticks / 1e6;
    const double ledger_core = epoch.self_us * d_synth_epochs / 1e3;
    const double ledger_agents = real_epoch_us * d_real_epochs / 1e3;
    const double ledger_cluster = admit_ns * d_requests / 1e6 +
                                  Ms(rollup_ns);
    const double ledger_workloads = query_ns * d_queries / 1e6;
    const double ledger_total = step_ms + telemetry_ms + Ms(rollup_ns);
    const double residual = ledger_total - ledger_sim - ledger_node -
                            ledger_core - ledger_agents - ledger_cluster -
                            ledger_workloads - telemetry_ms;

    std::sort(shard_steps.begin(), shard_steps.end());
    const double step_p90_us =
        shard_steps.empty()
            ? 0.0
            : static_cast<double>(
                  shard_steps[(shard_steps.size() * 9) / 10]) /
                  1e3;

    JsonObject layers;
    layers.Num("host.clock_ghz", (clock_before + MeasureClockGhz()) / 2.0)
        .Num("sim.event_ns", event_ns)
        .Num("sim.cancel_ratio", cancel_ratio)
        .Int("sim.executed", queue.executed)
        .Int("sim.scheduled", queue.scheduled)
        .Int("sim.cancelled", queue.cancelled)
        .Int("sim.dropped", queue.dropped)
        .Int("sim.peak_pending", queue.peak_pending)
        .Int("sim.arena_slots", queue.arena_capacity)
        .Num("node.advance_ns", advance_ns)
        .Num("agents.real_epoch_us", real_epoch_us)
        .Int("agents.real_epochs", real.epochs)
        .Int("agents.real_actions", real.actions_taken)
        .Num("core.epoch_us", epoch.epoch_us)
        .Int("core.epochs", all.epochs)
        .Int("core.samples", all.samples_collected)
        .Int("core.invalid_samples", all.invalid_samples)
        .Int("core.short_circuit_epochs", all.short_circuit_epochs)
        .Int("core.actions", all.actions_taken)
        .Num("core.model_action_ratio",
             Ratio(static_cast<double>(all.actions_with_prediction),
                   static_cast<double>(all.actions_taken)))
        .Int("core.safeguard_triggers", all.safeguard_triggers)
        .Int("core.mitigations", all.mitigations)
        .Int("core.intercepted_predictions", all.intercepted_predictions)
        .Num("cluster.admit_ns", admit_ns)
        .Int("cluster.arbiter_requests", end.totals.arbiter_requests)
        .Int("cluster.conflicts_resolved", end.totals.conflicts_resolved)
        .Num("cluster.admit_ratio",
             end.totals.arbiter_requests == 0
                 ? 1.0
                 : 1.0 - Ratio(static_cast<double>(
                                   end.totals.conflicts_resolved),
                               static_cast<double>(
                                   end.totals.arbiter_requests)))
        .Num("cluster.build_ms", Ms(build_ns))
        .Num("cluster.step_ms", step_ms)
        .Num("cluster.step_p90_us", step_p90_us)
        .Num("cluster.rollup_ms", Ms(rollup_ns))
        .Int("fleet.windows", w->timed_windows)
        .Num("fleet.critical_path_ms", Ms(critical_ns))
        .Num("fleet.imbalance_ms", Ms(imbalance_ns))
        .Num("telemetry.append_ms", Ms(append_ns))
        .Num("telemetry.alert_eval_ms", Ms(alert_ns))
        .Num("telemetry.merge_ms", Ms(merge_ns))
        .Num("telemetry.report_ms", Ms(report_ns))
        .Int("telemetry.samples", health.total_appended())
        .Int("telemetry.series", health.num_series())
        .Int("telemetry.alert_transitions", alerts.events().size())
        .Num("workloads.query_ns", query_ns)
        .Num("trace.overhead_pct",
             100.0 * Ratio(span_cost_s, replay_s - span_cost_s))
        .Num("ledger.total_ms", ledger_total)
        .Num("ledger.sim_ms", ledger_sim)
        .Num("ledger.node_ms", ledger_node)
        .Num("ledger.core_ms", ledger_core)
        .Num("ledger.agents_ms", ledger_agents)
        .Num("ledger.cluster_ms", ledger_cluster)
        .Num("ledger.workloads_ms", ledger_workloads)
        .Num("ledger.telemetry_ms", telemetry_ms)
        .Num("ledger.residual_ms", residual)
        .Num("ledger.residual_pct", 100.0 * Ratio(residual, ledger_total));
    out.Raw("layers", layers.str());
    std::cout << out.str() << "\n";
    return 0;
}

}  // namespace

int
main(int argc, char** argv)
{
    const std::string usage =
        "usage: fleet_bench setup <workload> <seed>\n"
        "       fleet_bench timed <workload> <seed>\n"
        "       fleet_bench replay <workload> <seed>\n";
    try {
        const std::vector<std::string> args(argv + 1, argv + argc);
        if (args.size() == 3 && args[0] == "setup") {
            return RunSetup(args[1], std::stoull(args[2]));
        }
        if (args.size() == 3 && args[0] == "timed") {
            return RunTimed(args[1], std::stoull(args[2]));
        }
        if (args.size() == 3 && args[0] == "replay") {
            return RunReplay(args[1], std::stoull(args[2]));
        }
        std::cerr << usage;
        return 2;
    } catch (const std::exception& e) {
        std::cerr << "fleet_bench: " << e.what() << "\n";
        return 1;
    }
}
