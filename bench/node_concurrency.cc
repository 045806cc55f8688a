/**
 * @file
 * Single-node concurrency bench: the simulated MultiAgentNode (one
 * event queue interleaving 77 agents) against the ThreadedMultiAgentNode
 * (77 agents on their own runtime threads, hammering one hardened
 * InterferenceArbiter on the wall clock).
 *
 * The two backends answer different questions, so both are reported:
 * the simulated node gives deterministic virtual throughput (events/s
 * of the shared queue, conflicts/s of virtual time), the threaded node
 * gives real contention numbers — agent ops/s across truly concurrent
 * threads, conflicts/s of wall time, and the arbiter's lock-acquisition
 * wait (track_contention) per expand request, which the lock-table
 * design keeps in the nanoseconds.
 *
 * Observability legs (this is also the tracer's own benchmark):
 *   - Latency percentiles: epoch duration on both backends (always-on
 *     engine histogram), plus the arbiter's admit and lock-wait
 *     distributions on the threaded node.
 *   - Tracer overhead: the simulated leg runs untraced and traced
 *     over the same fixed virtual horizon, so the wall-clock slowdown
 *     isolates the recorder cost (the shared probe in bench/harness.h);
 *     the traced run must not perturb the simulation (identical events
 *     and epochs).
 *   - Flight recording: the threaded leg runs with a TraceSession —
 *     one SPSC track per agent thread plus driver/control tracks —
 *     and the run writes TRACE_node_concurrency.json (Perfetto-
 *     loadable). Two traced sim runs must serialize byte-identically.
 *
 * Verdicts (non-zero exit on failure, also in --smoke):
 *   1. Both backends make real progress: epochs, actions, and arbiter
 *      traffic are all non-zero.
 *   2. Arbiter accounting is coherent on both: published per-agent
 *      request counters sum to the global request count, and observed
 *      conflicts bound resolved conflicts.
 *   3. The threaded node tears down clean: after Stop + CleanUpAll no
 *      synthetic agent still holds a domain.
 *   4. Tracing does not perturb the simulation, sim-mode traces are
 *      byte-deterministic, and (in --smoke) tracer overhead <= 5%.
 *
 * Results land in BENCH_node_concurrency.json; the trace in
 * TRACE_node_concurrency.json.
 */
#include <chrono>
#include <cstdint>
#include <iostream>
#include <string>
#include <thread>
#include <vector>

#include "cluster/multi_agent_node.h"
#include "cluster/threaded_multi_agent_node.h"
#include "harness.h"
#include "sim/event_queue.h"
#include "telemetry/metric_registry.h"
#include "telemetry/trace.h"

using sol::cluster::MultiAgentNode;
using sol::cluster::MultiAgentNodeConfig;
using sol::cluster::ThreadedMultiAgentNode;
using sol::telemetry::BenchJson;
using sol::telemetry::LatencyHistogram;
using sol::telemetry::LatencySnapshot;
using sol::telemetry::TableWriter;
using sol::telemetry::trace::ChromeTraceWriter;
using sol::telemetry::trace::TraceSession;

namespace {

struct BenchConfig {
    std::size_t synthetic_agents = 73;  ///< 73 + 4 real = 77 (paper).
    std::uint64_t seed = 1;
    sol::sim::Duration sim_horizon = sol::sim::Seconds(10);
    std::chrono::milliseconds threaded_wall{2000};
    bool smoke = false;
    /** Sim-node trace ring (small on purpose: a long horizon fills it
     *  and exercises the cheap drop path the overhead gate measures). */
    std::size_t trace_capacity = 1024;
};

/** One leg's numbers, normalized for the comparison table. */
struct LegResult {
    std::string backend;
    double wall_seconds = 0.0;
    std::uint64_t events = 0;       ///< Queue events (sim) / agent ops.
    std::uint64_t epochs = 0;
    std::uint64_t actions = 0;
    std::uint64_t requests = 0;
    std::uint64_t conflicts = 0;
    std::uint64_t lock_wait_ns = 0;  ///< Threaded only.
    LatencyHistogram epoch_hist;
    LatencyHistogram admit_hist;      ///< Threaded only.
    LatencyHistogram lock_wait_hist;  ///< Threaded only.
};

/** Agent-side work items, comparable across backends. */
std::uint64_t
AgentOps(const sol::core::RuntimeStats& stats)
{
    return stats.samples_collected + stats.model_assessments +
           stats.actions_taken + stats.actuator_assessments;
}

MultiAgentNodeConfig
MakeConfig(const BenchConfig& bench, bool threaded)
{
    MultiAgentNodeConfig config;
    config.seed = bench.seed;
    config.synthetic_agents = bench.synthetic_agents;
    config.arbiter.track_contention = threaded;
    if (threaded) {
        // Wall-clock cadence: fast enough that a ~2 s run measures
        // steady-state contention, not startup.
        config.synthetic.data_collect_interval = sol::sim::Micros(200);
        config.synthetic.max_epoch_time = sol::sim::Millis(5);
        config.synthetic.max_actuation_delay = sol::sim::Millis(10);
        config.synthetic.assess_actuator_interval = sol::sim::Millis(2);
        config.synthetic.prediction_ttl = sol::sim::Millis(10);
        // More arbiter pressure per action than the sim default, so
        // lock-wait numbers come from real contention.
        config.synthetic.expand_fraction = 0.5;
    }
    return config;
}

/** Sums per-agent request counters published by WriteMetrics. */
std::uint64_t
PublishedRequestSum(const sol::telemetry::MetricRegistry& metrics)
{
    std::uint64_t sum = 0;
    for (const auto& [key, value] : metrics.counters()) {
        const std::string suffix = ".requests";
        if (key.rfind("arbiter.", 0) == 0 &&
            key.size() > suffix.size() &&
            key.compare(key.size() - suffix.size(), suffix.size(),
                        suffix) == 0) {
            sum += value;
        }
    }
    return sum;
}

bool
CheckAccounting(const std::string& backend, std::uint64_t requests,
                std::uint64_t published, std::uint64_t observed,
                std::uint64_t resolved)
{
    bool ok = true;
    if (published != requests) {
        std::cerr << "FAIL: " << backend << " published request sum "
                  << published << " != global " << requests << "\n";
        ok = false;
    }
    if (resolved > observed) {
        std::cerr << "FAIL: " << backend << " resolved " << resolved
                  << " conflicts but only observed " << observed << "\n";
        ok = false;
    }
    return ok;
}

/**
 * One simulated-node run over the fixed virtual horizon. With a
 * session, the node records into a fresh "node0" track timestamped by
 * the queue's virtual clock.
 */
LegResult
RunSimOnce(const BenchConfig& bench, TraceSession* session, bool& ok,
           bool check)
{
    sol::sim::EventQueue queue;
    MultiAgentNodeConfig config = MakeConfig(bench, false);
    if (session != nullptr) {
        config.trace = session->NewRecorder("node0", &queue,
                                            bench.trace_capacity);
    }
    MultiAgentNode node(queue, config);
    node.Start();

    const auto start = std::chrono::steady_clock::now();
    queue.RunFor(bench.sim_horizon);
    const auto end = std::chrono::steady_clock::now();
    node.Stop();
    node.CollectMetrics();

    LegResult result;
    result.backend = "simulated";
    result.wall_seconds =
        std::chrono::duration<double>(end - start).count();
    result.events = queue.stats().executed;
    const sol::core::RuntimeStats total = node.AggregateStats();
    result.epochs = total.epochs;
    result.actions = total.actions_taken;
    result.requests = node.arbiter().requests();
    result.conflicts = node.arbiter().conflicts_resolved();
    result.epoch_hist = node.EpochLatencyHistogram();

    if (check) {
        ok = CheckAccounting("simulated", result.requests,
                             PublishedRequestSum(node.metrics()),
                             node.arbiter().conflicts_observed(),
                             node.arbiter().conflicts_resolved()) &&
             ok;
        if (result.epochs == 0 || result.actions == 0 ||
            result.requests == 0) {
            std::cerr << "FAIL: simulated node made no progress\n";
            ok = false;
        }
    }
    return result;
}

LegResult
RunThreadedNode(const BenchConfig& bench, TraceSession* session, bool& ok)
{
    MultiAgentNodeConfig config = MakeConfig(bench, true);
    config.trace_session = session;
    ThreadedMultiAgentNode<> node(config);
    node.Start();
    const auto start = std::chrono::steady_clock::now();
    std::this_thread::sleep_for(bench.threaded_wall);
    node.Stop();
    const auto end = std::chrono::steady_clock::now();
    node.CollectMetrics();

    LegResult result;
    result.backend = "threaded";
    result.wall_seconds =
        std::chrono::duration<double>(end - start).count();
    const sol::core::RuntimeStats total = node.AggregateStats();
    result.events = AgentOps(total);
    result.epochs = total.epochs;
    result.actions = total.actions_taken;
    result.requests = node.arbiter().requests();
    result.conflicts = node.arbiter().conflicts_resolved();
    result.lock_wait_ns = node.arbiter().lock_wait_ns();
    result.epoch_hist = node.EpochLatencyHistogram();
    result.admit_hist = node.arbiter().admit_histogram();
    result.lock_wait_hist = node.arbiter().lock_wait_histogram();

    ok = CheckAccounting("threaded", result.requests,
                         PublishedRequestSum(node.metrics()),
                         node.arbiter().conflicts_observed(),
                         node.arbiter().conflicts_resolved()) &&
         ok;
    if (result.epochs == 0 || result.actions == 0 ||
        result.requests == 0) {
        std::cerr << "FAIL: threaded node made no progress\n";
        ok = false;
    }

    node.CleanUpAll();
    for (std::size_t i = 0; i < node.num_synthetic_agents(); ++i) {
        if (node.synthetic_agent(i).actuator().holding()) {
            std::cerr << "FAIL: synthetic" << i
                      << " still holds its domain after CleanUpAll\n";
            ok = false;
        }
    }
    return result;
}

void
AddPercentileRow(TableWriter& table, const std::string& metric,
                 const LatencyHistogram& hist)
{
    const LatencySnapshot snap = hist.Snapshot();
    table.AddRow({metric, std::to_string(snap.count),
                  std::to_string(snap.p50_ns),
                  std::to_string(snap.p90_ns),
                  std::to_string(snap.p99_ns),
                  std::to_string(snap.p999_ns),
                  std::to_string(snap.max_ns)});
}

}  // namespace

int
main(int argc, char** argv)
{
    BenchConfig bench;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--smoke") {
            // CI-sized: smaller fleet, shorter runs, same verdicts.
            bench.smoke = true;
            bench.synthetic_agents = 16;
            bench.sim_horizon = sol::sim::Seconds(1);
            bench.threaded_wall = std::chrono::milliseconds(400);
        } else {
            std::cerr << "usage: node_concurrency [--smoke]\n";
            return 2;
        }
    }

    const std::size_t agents = bench.synthetic_agents + 4;
    std::cout << "=== node_concurrency: simulated vs threaded "
              << "multi-agent node ===\n";
    std::cout << "(" << agents << " agents per node, "
              << std::thread::hardware_concurrency()
              << " hardware threads, sim horizon "
              << sol::sim::ToSeconds(bench.sim_horizon)
              << " s, threaded wall " << bench.threaded_wall.count()
              << " ms)\n\n";

    bool ok = true;

    // --- Simulated leg: untraced x2 / traced x2 over the same fixed
    // virtual horizon. Wall time varies with machine noise; events do
    // not, so the best wall time per side is the tracer-overhead probe.
    LegResult sim_untraced = RunSimOnce(bench, nullptr, ok, true);
    const double untraced_again =
        RunSimOnce(bench, nullptr, ok, false).wall_seconds;
    TraceSession sim_session_a;
    TraceSession sim_session_b;
    const LegResult sim_traced =
        RunSimOnce(bench, &sim_session_a, ok, false);
    const double traced_again =
        RunSimOnce(bench, &sim_session_b, ok, false).wall_seconds;

    if (sim_traced.events != sim_untraced.events ||
        sim_traced.epochs != sim_untraced.epochs) {
        std::cerr << "FAIL: tracing perturbed the simulation (events "
                  << sim_traced.events << " vs " << sim_untraced.events
                  << ", epochs " << sim_traced.epochs << " vs "
                  << sim_untraced.epochs << ")\n";
        ok = false;
    }

    // Byte-determinism: two identically configured sim runs must
    // serialize the exact same trace (virtual timestamps only).
    const std::string trace_a = ChromeTraceWriter::ToString(sim_session_a);
    const std::string trace_b = ChromeTraceWriter::ToString(sim_session_b);
    const bool trace_deterministic = trace_a == trace_b;
    if (!trace_deterministic) {
        std::cerr << "FAIL: sim-mode trace bytes differ across runs ("
                  << trace_a.size() << " vs " << trace_b.size()
                  << " bytes)\n";
        ok = false;
    }

    const sol::bench::Overhead overhead = sol::bench::MeasureOverhead(
        bench.smoke, {sim_untraced.wall_seconds, untraced_again},
        {sim_traced.wall_seconds, traced_again},
        [&] { return RunSimOnce(bench, nullptr, ok, false).wall_seconds; },
        [&] {
            TraceSession scratch;
            return RunSimOnce(bench, &scratch, ok, false).wall_seconds;
        });
    ok = overhead.Check("tracer") && ok;
    // The backend table reports the untraced leg's best wall time.
    sim_untraced.wall_seconds = overhead.base_seconds;

    // --- Threaded leg, flight recorder on: one track per agent thread
    // plus driver/control. This session becomes the trace artifact.
    TraceSession session;
    LegResult threaded = RunThreadedNode(bench, &session, ok);

    std::vector<LegResult> legs;
    legs.push_back(sim_untraced);
    legs.push_back(threaded);

    BenchJson json("node_concurrency");
    TableWriter config_table(
        {"agents", "synthetics", "seed", "sim horizon s",
         "threaded wall ms", "hw threads"});
    config_table.AddRow(
        {std::to_string(agents), std::to_string(bench.synthetic_agents),
         std::to_string(bench.seed),
         TableWriter::Num(sol::sim::ToSeconds(bench.sim_horizon), 1),
         std::to_string(bench.threaded_wall.count()),
         std::to_string(std::thread::hardware_concurrency())});
    config_table.Print(std::cout);
    json.AddTable("config", config_table);

    std::cout << "\n";
    TableWriter table({"backend", "wall s", "events", "events/sec",
                       "epochs", "actions", "arbiter reqs",
                       "conflicts", "conflicts/sec", "lock wait us",
                       "wait ns/req"});
    for (const LegResult& leg : legs) {
        const double per_sec =
            static_cast<double>(leg.events) / leg.wall_seconds;
        const double conflicts_per_sec =
            static_cast<double>(leg.conflicts) / leg.wall_seconds;
        const double wait_per_req =
            leg.requests == 0
                ? 0.0
                : static_cast<double>(leg.lock_wait_ns) /
                      static_cast<double>(leg.requests);
        table.AddRow(
            {leg.backend, TableWriter::Num(leg.wall_seconds, 2),
             std::to_string(leg.events), TableWriter::Num(per_sec, 0),
             std::to_string(leg.epochs), std::to_string(leg.actions),
             std::to_string(leg.requests),
             std::to_string(leg.conflicts),
             TableWriter::Num(conflicts_per_sec, 1),
             TableWriter::Num(
                 static_cast<double>(leg.lock_wait_ns) / 1000.0, 1),
             TableWriter::Num(wait_per_req, 1)});
    }
    table.Print(std::cout);
    json.AddTable("node_concurrency", table);

    // Latency distributions. Sim epochs are virtual ns (deterministic);
    // threaded rows are wall ns under true contention.
    std::cout << "\n";
    TableWriter percentiles({"metric", "count", "p50 ns", "p90 ns",
                             "p99 ns", "p999 ns", "max ns"});
    AddPercentileRow(percentiles, "sim epoch (virtual)",
                     sim_untraced.epoch_hist);
    AddPercentileRow(percentiles, "threaded epoch", threaded.epoch_hist);
    AddPercentileRow(percentiles, "threaded arbitration",
                     threaded.admit_hist);
    AddPercentileRow(percentiles, "threaded lock wait",
                     threaded.lock_wait_hist);
    percentiles.Print(std::cout);
    json.AddTable("latency_percentiles", percentiles);

    // Tracer cost: same virtual work, recorder on vs off.
    std::cout << "\n";
    TableWriter tracer({"leg", "events", "best wall s", "events/sec",
                        "recorded", "dropped"});
    const auto eps = [](std::uint64_t events, double seconds) {
        return TableWriter::Num(static_cast<double>(events) / seconds, 0);
    };
    tracer.AddRow({"untraced", std::to_string(sim_untraced.events),
                   TableWriter::Num(overhead.base_seconds, 3),
                   eps(sim_untraced.events, overhead.base_seconds), "0",
                   "0"});
    tracer.AddRow(
        {"traced", std::to_string(sim_traced.events),
         TableWriter::Num(overhead.probe_seconds, 3),
         eps(sim_traced.events, overhead.probe_seconds),
         std::to_string(sim_session_a.total_recorded()),
         std::to_string(sim_session_a.total_dropped())});
    tracer.AddRow({"overhead", "-", "-", overhead.Percent(), "-", "-"});
    tracer.Print(std::cout);
    json.AddTable("tracer_overhead", tracer);

    const bool wrote_trace =
        ChromeTraceWriter::WriteFile(session, "node_concurrency");

    TableWriter verdict({"check", "result"});
    verdict.AddRow({"progress+accounting+teardown",
                    ok ? "PASS" : "FAIL"});
    verdict.AddRow({"trace determinism",
                    trace_deterministic ? "PASS" : "FAIL"});
    verdict.AddRow({"tracer overhead", overhead.Label()});
    std::cout << "\n";
    verdict.Print(std::cout);
    json.AddTable("verdict", verdict);
    json.WriteFile();
    if (wrote_trace) {
        std::cout << "\ntrace: TRACE_node_concurrency.json ("
                  << session.total_recorded() << " events recorded, "
                  << session.total_dropped() << " dropped)\n";
    }

    if (!ok) {
        std::cerr << "\nnode_concurrency: FAILED\n";
        return 1;
    }
    std::cout << "\nnode_concurrency: all checks passed\n";
    return 0;
}
