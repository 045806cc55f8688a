#include "telemetry/alerting.h"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <ostream>
#include <sstream>
#include <stdexcept>

namespace sol::telemetry {

void
AlertEngine::AddRule(AlertRule rule)
{
    if (rule.name.empty() || rule.series.empty()) {
        throw std::invalid_argument("AlertRule needs a name and a series");
    }
    if (rule.kind == AlertKind::kBurnRate &&
        (rule.total_series.empty() || rule.budget_ppm <= 0 ||
         rule.burn_factor_milli <= 0)) {
        // A burn factor <= 0 puts the bound at or below zero errors.
        throw std::invalid_argument(
            "kBurnRate rules need total_series, a positive budget_ppm "
            "and a positive burn_factor_milli");
    }
    if (rule.kind != AlertKind::kThreshold &&
        rule.lookback <= sim::Duration::zero()) {
        // DeltaOver would read one sample twice: the delta is always 0.
        throw std::invalid_argument(
            "kRateOfChange and kBurnRate rules need a positive lookback");
    }
    if (rule.hold < sim::Duration::zero()) {
        throw std::invalid_argument("AlertRule hold must not be negative");
    }
    RuleState state;
    state.rule = std::move(rule);
    rules_.push_back(std::move(state));
}

void
AlertEngine::AddRules(const std::vector<AlertRule>& rules)
{
    for (const AlertRule& rule : rules) {
        AddRule(rule);
    }
}

bool
AlertEngine::Condition(const RuleState& state, const TimeSeriesStore& store,
                       sim::TimePoint now, std::int64_t* value) const
{
    const AlertRule& rule = state.rule;
    switch (rule.kind) {
      case AlertKind::kThreshold: {
        const TimeSeries* series = store.Find(rule.series);
        if (series == nullptr || series->empty()) {
            return false;
        }
        *value = series->Latest().value;
        return rule.fire_above ? *value >= rule.threshold
                               : *value <= rule.threshold;
      }
      case AlertKind::kRateOfChange: {
        const TimeSeries* series = store.Find(rule.series);
        std::int64_t delta = 0;
        if (series == nullptr ||
            !series->DeltaOver(now, rule.lookback, &delta)) {
            return false;  // Partial window: refuse to extrapolate.
        }
        *value = delta;
        return rule.fire_above ? delta >= rule.threshold
                               : delta <= rule.threshold;
      }
      case AlertKind::kBurnRate: {
        const TimeSeries* errors = store.Find(rule.series);
        const TimeSeries* total = store.Find(rule.total_series);
        std::int64_t de = 0;
        std::int64_t dn = 0;
        if (errors == nullptr || total == nullptr ||
            !errors->DeltaOver(now, rule.lookback, &de) ||
            !total->DeltaOver(now, rule.lookback, &dn)) {
            return false;
        }
        if (dn <= 0) {
            *value = 0;
            return false;  // No activity in the window: nothing burned.
        }
        // Windowed ratio in ppm, reported at transitions. The compare
        // itself cross-multiplies in 128-bit so no precision is lost:
        //   de/dn >= (budget_ppm/1e6) * (burn_factor_milli/1e3)
        // <=> de * 1e9 >= budget_ppm * burn_factor_milli * dn.
        *value = static_cast<std::int64_t>(
            (static_cast<__int128>(de) * 1'000'000) / dn);
        const __int128 lhs = static_cast<__int128>(de) * 1'000'000'000;
        const __int128 rhs = static_cast<__int128>(rule.budget_ppm) *
                             rule.burn_factor_milli * dn;
        return lhs >= rhs;
      }
    }
    return false;
}

void
AlertEngine::Evaluate(const TimeSeriesStore& store, sim::TimePoint now,
                      trace::TraceRecorder* trace)
{
    for (RuleState& state : rules_) {
        std::int64_t value = 0;
        const bool condition = Condition(state, store, now, &value);
        bool transition = false;
        if (condition && !state.firing) {
            // Arm (or keep) the hold timer; fire once it has elapsed.
            if (!state.pending) {
                state.pending = true;
                state.pending_since = now;
            }
            if (now - state.pending_since >= state.rule.hold) {
                state.firing = true;
                state.pending = false;
                transition = true;
            }
        } else if (!condition) {
            state.pending = false;
            if (state.firing) {
                state.firing = false;
                transition = true;
            }
        }
        if (!transition) {
            continue;
        }
        AlertEvent event;
        event.at = now;
        event.rule = state.rule.name;
        event.firing = state.firing;
        event.value = value;
        events_.push_back(event);
        if (trace != nullptr) {
            trace->InstantAt(state.firing ? "alert_firing"
                                          : "alert_resolved",
                             "alert", now, {{"value", event.value}},
                             "rule", state.rule.name);
        }
    }
}

bool
AlertEngine::IsFiring(const std::string& rule) const
{
    for (const RuleState& state : rules_) {
        if (state.rule.name == rule) {
            return state.firing;
        }
    }
    return false;
}

std::size_t
AlertEngine::FiringCount() const
{
    std::size_t n = 0;
    for (const RuleState& state : rules_) {
        n += state.firing ? 1 : 0;
    }
    return n;
}

bool
AlertEngine::EverFired(const std::string& rule) const
{
    for (const AlertEvent& event : events_) {
        if (event.firing && event.rule == rule) {
            return true;
        }
    }
    return false;
}

std::vector<SloStatus>
AlertEngine::SloStatuses(const TimeSeriesStore& store) const
{
    std::vector<SloStatus> statuses;
    for (const RuleState& state : rules_) {
        if (state.rule.kind != AlertKind::kBurnRate) {
            continue;
        }
        SloStatus status;
        status.rule = state.rule.name;
        status.budget_ppm = state.rule.budget_ppm;
        const TimeSeries* errors = store.Find(state.rule.series);
        const TimeSeries* total = store.Find(state.rule.total_series);
        if (errors != nullptr && !errors->empty()) {
            status.errors = errors->Latest().value;
        }
        if (total != nullptr && !total->empty()) {
            status.total = total->Latest().value;
        }
        if (status.total > 0) {
            status.consumed_ppm = static_cast<std::int64_t>(
                (static_cast<__int128>(status.errors) * 1'000'000) /
                status.total);
        }
        status.remaining_ppm = status.budget_ppm - status.consumed_ppm;
        statuses.push_back(std::move(status));
    }
    return statuses;
}

std::vector<AlertRule>
DefaultFleetAlertRules()
{
    // Series names below are what ShardedFleetRunner::SampleFleetHealth
    // appends at each window boundary. Rules are ratio/burn shaped where
    // possible so one pack works across smoke and full fleet shapes;
    // thresholds are documented (with their measured steady-state
    // margins) in docs/OBSERVABILITY.md.
    std::vector<AlertRule> rules;

    // Thresholds are calibrated against the measured smoke-shape
    // timelines (docs/OBSERVABILITY.md tabulates per-scenario peaks):
    // steady_state's standing rates — a learning transient that peaks
    // at ~35% windowed invalid samples before decaying, ~10% windowed
    // arbiter denials, 61ms epoch p99, <= 3 trips and <= 60 failed
    // assessments per 500ms — must sit below every bound, while each
    // adversarial scenario's storm blows through its signature rule.

    // Epoch completion p99 above 100ms of virtual time: steady_state
    // holds ~61ms and the safeguard cascade ~71ms; the invalid-data
    // storm (193ms, epochs dying on the max_epoch_time deadline) and
    // the Zipf cold-tenant stretch (973ms) blow past it.
    AlertRule epoch_p99;
    epoch_p99.name = "epoch_p99_high";
    epoch_p99.kind = AlertKind::kThreshold;
    epoch_p99.series = "fleet.node.epoch_latency.p99_ns";
    epoch_p99.threshold = 100'000'000;
    rules.push_back(epoch_p99);

    // Safeguard trips: >= 5 healthy->failing edges within 500ms of
    // virtual time is a cascade, not background churn (steady_state
    // peaks at 3 per window; the actuator-failure storm hits 16).
    AlertRule trip_rate;
    trip_rate.name = "safeguard_trip_rate";
    trip_rate.kind = AlertKind::kRateOfChange;
    trip_rate.series = "fleet.safeguard.trips";
    trip_rate.threshold = 5;
    trip_rate.lookback = sim::Millis(500);
    rules.push_back(trip_rate);

    // Queue drops: the fleet queue shedding any load in a 500ms
    // window is an overload signal (every library scenario runs with
    // headroom, so this stays silent until something regresses).
    AlertRule queue_drops;
    queue_drops.name = "queue_drop_rate";
    queue_drops.kind = AlertKind::kRateOfChange;
    queue_drops.series = "fleet.queue.dropped";
    queue_drops.threshold = 1;
    queue_drops.lookback = sim::Millis(500);
    rules.push_back(queue_drops);

    // Arbiter denials: more than 15% of expand requests denied over a
    // 1s window means agents are starved for headroom (every scenario
    // but the coupled-domain cascade peaks at ~10%; the cascade's
    // contention churn hits ~21%).
    AlertRule denials;
    denials.name = "arbiter_denial_ratio";
    denials.kind = AlertKind::kBurnRate;
    denials.series = "fleet.arbiter.denied";
    denials.total_series = "fleet.arbiter.requests";
    denials.budget_ppm = 150'000;
    denials.lookback = sim::Seconds(1);
    rules.push_back(denials);

    // Invalid-data SLO: validation rejects a large share of harvested
    // reads while models warm up (the windowed ratio peaks at ~35%
    // early in every scenario and ~43% under Zipf skew before decaying
    // toward zero); a trailing 500ms window burning >= 55% invalid is
    // fleet-scale correlated poisoning, not the learning transient.
    // No library scenario reaches it — this is a regression tripwire,
    // like queue_drop_rate.
    AlertRule invalid_burn;
    invalid_burn.name = "invalid_data_burn";
    invalid_burn.kind = AlertKind::kBurnRate;
    invalid_burn.series = "fleet.data.invalid";
    invalid_burn.total_series = "fleet.data.harvested";
    invalid_burn.budget_ppm = 550'000;
    invalid_burn.lookback = sim::Millis(500);
    rules.push_back(invalid_burn);

    // Halted-time SLO: agents may spend at most 5% of scheduled
    // agent-time halted by safeguards over a trailing 1s window (the
    // windowed fraction is 0 outside cascades — halts resolve within
    // a window — while the safeguard cascade sustains ~20%).
    AlertRule halted_burn;
    halted_burn.name = "halted_time_burn";
    halted_burn.kind = AlertKind::kBurnRate;
    halted_burn.series = "fleet.agent.halted_ns";
    halted_burn.total_series = "fleet.agent.active_ns";
    halted_burn.budget_ppm = 50'000;
    halted_burn.lookback = sim::Seconds(1);
    rules.push_back(halted_burn);

    // Model failures: assessments fail as background churn at up to
    // ~60 per 500ms window while models converge; >= 100 means models
    // are actually degrading (the degradation storm runs 160).
    AlertRule model_failures;
    model_failures.name = "model_failure_rate";
    model_failures.kind = AlertKind::kRateOfChange;
    model_failures.series = "fleet.model.failures";
    model_failures.threshold = 100;
    model_failures.lookback = sim::Millis(500);
    rules.push_back(model_failures);

    return rules;
}

namespace {

/** Minimal JSON string escaping (alert/series names are identifiers,
 *  but the schema should survive arbitrary rule names). */
std::string
JsonEscape(const std::string& text)
{
    std::string out;
    out.reserve(text.size());
    for (const char c : text) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                char buf[8];
                std::snprintf(buf, sizeof(buf), "\\u%04x", c);
                out += buf;
            } else {
                out += c;
            }
        }
    }
    return out;
}

}  // namespace

void
HealthReportWriter::Write(std::ostream& os, const std::string& name,
                          const TimeSeriesStore& store,
                          const AlertEngine& engine)
{
    os << "{\n\"health\": \"" << JsonEscape(name)
       << "\",\n\"schema_version\": 1,\n";
    os << "\"timeline_hash\": \"0x" << std::hex << store.timeline_hash()
       << std::dec << "\",\n";

    // Timeline summary: per-series sample counts plus first/latest
    // values — enough to diff shape regressions without committing the
    // full (ring-bounded anyway) sample streams.
    os << "\"series\": {";
    bool first = true;
    store.VisitSeries([&](const std::string& series_name,
                          const TimeSeries& series) {
        os << (first ? "" : ",") << "\n  \"" << JsonEscape(series_name)
           << "\": {\"samples\": " << series.total_appended()
           << ", \"first\": " << (series.empty() ? 0 : series.at(0).value)
           << ", \"last\": " << (series.empty() ? 0 : series.Latest().value)
           << "}";
        first = false;
    });
    os << "\n},\n";

    // Full alert transition log, virtual-timestamped.
    os << "\"alerts\": [";
    first = true;
    for (const AlertEvent& event : engine.events()) {
        os << (first ? "" : ",") << "\n  {\"at_ns\": " << event.at.count()
           << ", \"rule\": \"" << JsonEscape(event.rule) << "\", \"state\": \""
           << (event.firing ? "firing" : "resolved")
           << "\", \"value\": " << event.value << "}";
        first = false;
    }
    os << "\n],\n";

    // Per-SLO whole-run budget accounting.
    os << "\"slos\": [";
    first = true;
    for (const SloStatus& slo : engine.SloStatuses(store)) {
        os << (first ? "" : ",") << "\n  {\"rule\": \""
           << JsonEscape(slo.rule) << "\", \"errors\": " << slo.errors
           << ", \"total\": " << slo.total
           << ", \"budget_ppm\": " << slo.budget_ppm
           << ", \"consumed_ppm\": " << slo.consumed_ppm
           << ", \"remaining_ppm\": " << slo.remaining_ppm << "}";
        first = false;
    }
    os << "\n]\n}\n";
}

std::string
HealthReportWriter::ToString(const std::string& name,
                             const TimeSeriesStore& store,
                             const AlertEngine& engine)
{
    std::ostringstream ss;
    Write(ss, name, store, engine);
    return ss.str();
}

bool
HealthReportWriter::WriteFile(const std::string& name,
                              const std::string& serialized)
{
    std::string dir;
    if (const char* env = std::getenv("SOL_BENCH_JSON_DIR")) {
        dir = env;
    }
    if (dir == "-") {
        return true;  // Explicitly disabled.
    }
    const std::string path = (dir.empty() ? std::string() : dir + "/") +
                             "HEALTH_" + name + ".json";
    std::ofstream out(path);
    if (!out) {
        std::cerr << "warning: could not write " << path << "\n";
        return false;
    }
    out << serialized;
    std::cout << "wrote " << path << "\n";
    return true;
}

}  // namespace sol::telemetry
