/**
 * @file
 * Trace-driven scenario suite with behavior and health verdicts.
 *
 * Runs every scenario in workloads::ScenarioLibrary() — the realistic
 * demand shapes and the adversarial storms — and gates on *behavior*,
 * not speed:
 *
 *  1. Determinism: each scenario must produce an identical fleet trace
 *     hash, driver hash, event total, and behavior counter vector at
 *     1, 2, and 8 worker threads. Any divergence fails the bench.
 *  2. Regression: each scenario writes BENCH_scenario_<name>.json
 *     whose "behavior" table holds the full verdict-counter vector
 *     (safeguard triggers, arbiter conflicts and denials, prediction
 *     drops, short-circuit epochs, epoch-latency percentiles in
 *     virtual ns). CI diffs those tables against the committed golden
 *     baselines in bench/baselines/ via tools/check_bench_verdicts.py,
 *     so a change in what the runtime *does* under a storm — not just
 *     how fast it does it — fails the build.
 *  3. Health: every run samples the fleet health timeline at each
 *     window boundary and evaluates the default SLO/alert pack. The
 *     timeline hash, sample count, and full alert transition log must
 *     be identical across thread counts and a repeat run; each
 *     scenario must fire its expected_alerts signature (steady_state
 *     must stay silent); HEALTH_scenario_<name>.json is diffed against
 *     committed goldens by tools/check_health_alerts.py. Sampling is
 *     observe-only, gated by an overhead probe (health on vs off on
 *     steady_state, budget 5%) and by the unchanged trace hashes.
 *
 * --smoke runs the CI shape (the mode the baselines are recorded in);
 * the default full shape is for local investigation. Wall-clock
 * numbers are report-only everywhere except the smoke overhead probe:
 * virtual-time behavior is the product under test.
 */
#include <algorithm>
#include <chrono>
#include <cstdint>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "telemetry/alerting.h"
#include "telemetry/metric_registry.h"
#include "workloads/scenarios.h"

using sol::telemetry::BenchJson;
using sol::telemetry::TableWriter;
using sol::workloads::RunScenario;
using sol::workloads::SameBehavior;
using sol::workloads::SameHealth;
using sol::workloads::Scenario;
using sol::workloads::ScenarioLibrary;
using sol::workloads::ScenarioOptions;
using sol::workloads::ScenarioResult;

namespace {

constexpr std::size_t kThreadCounts[] = {1, 2, 8};

// Sanitizers multiply the cost of the sampler's bookkeeping far beyond
// production reality, so the overhead budget is report-only in
// sanitized builds (every determinism and alert verdict still gates).
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
constexpr bool kSanitizedBuild = true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
constexpr bool kSanitizedBuild = true;
#else
constexpr bool kSanitizedBuild = false;
#endif
#else
constexpr bool kSanitizedBuild = false;
#endif

std::string
Hex(std::uint64_t value)
{
    std::ostringstream os;
    os << "0x" << std::hex << value;
    return os.str();
}

std::string
Join(const std::vector<std::string>& parts)
{
    std::string joined;
    for (const std::string& part : parts) {
        if (!joined.empty()) {
            joined += ",";
        }
        joined += part;
    }
    return joined.empty() ? "-" : joined;
}

void
ListScenarios()
{
    TableWriter table({"scenario", "kind", "summary"});
    for (const Scenario& s : ScenarioLibrary()) {
        table.AddRow(
            {s.name, s.adversarial ? "adversarial" : "realistic",
             s.summary});
    }
    table.Print(std::cout);
}

std::string
ValidScenarioNames()
{
    std::string names;
    for (const Scenario& s : ScenarioLibrary()) {
        if (!names.empty()) {
            names += ", ";
        }
        names += s.name;
    }
    return names;
}

/** True when every rule in `expected` fired at least once. Appends a
 *  FAIL line per missing rule. */
bool
CheckAlertSignature(const Scenario& scenario, const ScenarioResult& run)
{
    bool ok = true;
    const std::vector<std::string> fired = run.FiredRules();
    for (const std::string& rule : scenario.expected_alerts) {
        if (std::find(fired.begin(), fired.end(), rule) == fired.end()) {
            ok = false;
            std::cerr << "FAIL: " << scenario.name
                      << " did not fire expected alert '" << rule
                      << "' (fired: " << Join(fired) << ")\n";
        }
    }
    if (scenario.expect_silent && !run.alerts.empty()) {
        ok = false;
        std::cerr << "FAIL: " << scenario.name << " must stay silent "
                  << "but produced " << run.alerts.size()
                  << " alert transitions (fired: " << Join(fired)
                  << ")\n";
    }
    return ok;
}

}  // namespace

int
main(int argc, char** argv)
{
    bool smoke = false;
    std::string only;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--smoke") {
            smoke = true;
        } else if (arg == "--list") {
            ListScenarios();
            return 0;
        } else if (arg == "--scenario" && i + 1 < argc) {
            only = argv[++i];
        } else {
            std::cerr << "usage: scenario_suite [--smoke] [--list] "
                      << "[--scenario <name>]\n";
            return 2;
        }
    }
    if (!only.empty() && sol::workloads::FindScenario(only) == nullptr) {
        std::cerr << "unknown scenario: " << only << "\n"
                  << "valid scenarios: " << ValidScenarioNames() << "\n";
        return 2;
    }

    std::cout << "=== scenario_suite: trace-driven & adversarial "
              << "workloads, behavior-gated ===\n";
    std::cout << "(mode: " << (smoke ? "smoke" : "full")
              << "; every scenario must be behavior- and "
              << "health-identical at 1/2/8 worker threads)\n\n";

    TableWriter summary({"scenario", "kind", "agents", "events",
                         "epochs", "safeguards", "denials",
                         "trace hash", "timeline hash", "alerts fired",
                         "1/2/8 threads"});
    bool all_deterministic = true;
    bool all_alerts_ok = true;
    std::size_t ran = 0;
    double steady_health_wall = 0.0;

    for (const Scenario& scenario : ScenarioLibrary()) {
        if (!only.empty() && scenario.name != only) {
            continue;
        }
        ++ran;

        // Three thread counts plus a repeat at the base count: the
        // repeat is the same-configuration byte-determinism probe, the
        // others are the thread-count-invariance probe.
        std::vector<ScenarioResult> runs;
        for (const std::size_t threads : kThreadCounts) {
            ScenarioOptions options;
            options.num_threads = threads;
            options.smoke = smoke;
            runs.push_back(RunScenario(scenario, options));
        }
        {
            ScenarioOptions repeat;
            repeat.num_threads = kThreadCounts[0];
            repeat.smoke = smoke;
            runs.push_back(RunScenario(scenario, repeat));
        }
        const ScenarioResult& base = runs.front();
        if (scenario.name == "steady_state") {
            steady_health_wall = base.wall_seconds;
        }

        bool deterministic = true;
        for (const ScenarioResult& run : runs) {
            if (!SameBehavior(base, run)) {
                deterministic = false;
                std::cerr << "FAIL: " << scenario.name
                          << " diverged at " << run.threads
                          << " threads (hash " << Hex(run.fleet_trace_hash)
                          << " vs " << Hex(base.fleet_trace_hash)
                          << ", events " << run.total_events << " vs "
                          << base.total_events << ")\n";
            }
            if (!SameHealth(base, run)) {
                deterministic = false;
                std::cerr << "FAIL: " << scenario.name
                          << " health timeline diverged at " << run.threads
                          << " threads (timeline "
                          << Hex(run.timeline_hash) << " vs "
                          << Hex(base.timeline_hash) << ", "
                          << run.alerts.size() << " vs "
                          << base.alerts.size() << " alert events)\n";
            }
        }
        all_deterministic = all_deterministic && deterministic;

        const bool alerts_ok = CheckAlertSignature(scenario, base);
        all_alerts_ok = all_alerts_ok && alerts_ok;

        summary.AddRow(
            {scenario.name,
             scenario.adversarial ? "adversarial" : "realistic",
             std::to_string(base.Counter("agents")),
             std::to_string(base.total_events),
             std::to_string(base.Counter("epochs")),
             std::to_string(base.Counter("safeguard_triggers")),
             std::to_string(base.Counter("expands_denied")),
             Hex(base.fleet_trace_hash), Hex(base.timeline_hash),
             Join(base.FiredRules()) + (alerts_ok ? "" : " (WRONG)"),
             deterministic ? "identical" : "DIVERGED"});

        // One JSON per scenario so baselines stay independently
        // updatable and a drift report names the scenario directly.
        BenchJson json("scenario_" + scenario.name);

        TableWriter run_table({"mode", "nodes", "synthetics/node",
                               "horizon ms", "seed", "threads checked",
                               "deterministic", "fleet trace hash",
                               "driver hash", "events", "wall s"});
        run_table.AddRow(
            {smoke ? "smoke" : "full",
             std::to_string(base.shape.num_nodes),
             std::to_string(base.shape.synthetic_agents),
             TableWriter::Num(sol::sim::ToMillis(base.shape.horizon), 0),
             std::to_string(scenario.base_seed), "1/2/8",
             deterministic ? "yes" : "NO",
             Hex(base.fleet_trace_hash), Hex(base.driver_hash),
             std::to_string(base.total_events),
             TableWriter::Num(base.wall_seconds, 3)});
        json.AddTable("run", run_table);

        TableWriter behavior_table({"metric", "value"});
        for (const auto& [metric, value] : base.behavior) {
            behavior_table.AddRow({metric, std::to_string(value)});
        }
        json.AddTable("behavior", behavior_table);
        json.WriteFile();

        // The health timeline, alert log, and SLO budgets land in a
        // separate HEALTH_scenario_<name>.json (separate golden,
        // separate checker), leaving the BENCH verdict byte-stable.
        sol::telemetry::HealthReportWriter::WriteFile(
            "scenario_" + scenario.name, base.health_json);
    }

    summary.Print(std::cout);
    std::cout << "\nBehavior tables land in BENCH_scenario_<name>.json "
              << "and health timelines in HEALTH_scenario_<name>.json; "
              << "tools/check_bench_verdicts.py and "
              << "tools/check_health_alerts.py diff them against "
              << "bench/baselines/ and fail CI on drift.\n";

    // --- Observe-only overhead probe: steady_state with the sampler
    // and alert engine off vs the health-on wall time measured above.
    // Sub-second legs mean one noisy scheduling quantum can fake
    // several percent of "overhead", so keep resampling interleaved
    // off/on rounds (best-of-N per side) until the budget is met or
    // rounds run out. Gates only in smoke mode on unsanitized builds.
    double overhead = 0.0;
    const bool probe = only.empty() || only == "steady_state";
    if (probe && steady_health_wall > 0.0) {
        const Scenario* steady =
            sol::workloads::FindScenario("steady_state");
        ScenarioOptions off;
        off.smoke = smoke;
        off.health = false;
        double off_wall = RunScenario(*steady, off).wall_seconds;
        double on_wall = steady_health_wall;
        overhead = std::max(0.0, on_wall / off_wall - 1.0);
        const bool overhead_gated = smoke && !kSanitizedBuild;
        for (int round = 0; overhead_gated && overhead > 0.05 && round < 3;
             ++round) {
            off_wall = std::min(off_wall,
                                RunScenario(*steady, off).wall_seconds);
            ScenarioOptions on;
            on.smoke = smoke;
            on_wall = std::min(on_wall,
                               RunScenario(*steady, on).wall_seconds);
            overhead = std::max(0.0, on_wall / off_wall - 1.0);
        }
        std::cout << "\nhealth sampling overhead (steady_state, on vs "
                  << "off): " << TableWriter::Num(overhead * 100.0, 2)
                  << "%"
                  << (!smoke            ? " (report only)"
                      : kSanitizedBuild ? " (report only: sanitized)"
                      : overhead <= 0.05 ? " (PASS)"
                                         : " (FAIL)")
                  << "\n";
        if (overhead_gated && overhead > 0.05) {
            std::cerr << "FAIL: health sampling overhead "
                      << TableWriter::Num(overhead * 100.0, 2)
                      << "% exceeds the 5% budget\n";
            return 1;
        }
    }

    if (ran == 0) {
        std::cerr << "FAIL: no scenario ran\n";
        return 2;
    }
    if (!all_deterministic) {
        std::cerr << "FAIL: behavior diverged across thread counts\n";
        return 1;
    }
    if (!all_alerts_ok) {
        std::cerr << "FAIL: alert signatures did not match "
                  << "expectations\n";
        return 1;
    }
    return 0;
}
