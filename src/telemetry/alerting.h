/**
 * @file
 * Declarative SLO/alert rules over deterministic metric timelines.
 *
 * The paper's safety argument is that safeguards notice misbehavior
 * quickly; a production fleet additionally needs the *watchers* —
 * rules that turn metric timelines into firing/resolved alerts and
 * error-budget accounting. AlertEngine is that layer, built so it
 * composes with the repo's determinism gates instead of fighting them:
 *
 *  - Rules evaluate at each sampling boundary against a
 *    TimeSeriesStore, in declaration order, using integer/fixed-point
 *    arithmetic only (no libm — the PR 8 baseline rule), so the full
 *    firing/resolved event stream is byte-identical across repeat
 *    runs and fleet worker-thread counts.
 *  - Three rule kinds cover the production-alerting canon:
 *      kThreshold    latest value vs an absolute bound (epoch p99),
 *      kRateOfChange delta over a trailing lookback window
 *                    (safeguard-trip rate, queue-drop rate),
 *      kBurnRate     SLO error-budget burn: windowed error/total
 *                    ratio vs a budget expressed in ppm, scaled by a
 *                    burn-rate factor (invalid-data SLO, halted-time
 *                    fraction).
 *  - Transitions are first-class virtual-timestamped AlertEvents,
 *    mirrored onto a flight-recorder track as instants (so an alert
 *    is visible in the Perfetto timeline next to the safeguard spans
 *    that caused it) and rolled up into HEALTH_<name>.json by
 *    HealthReportWriter together with per-SLO budget remaining.
 *
 * DefaultFleetAlertRules() ships the standing fleet pack (epoch p99,
 * safeguard-trip rate, queue-drop rate, arbiter denial rate,
 * invalid-data SLO, halted-time SLO, model-failure rate); the
 * adversarial scenarios must provably fire their signature subset and
 * steady_state must stay silent (bench/scenario_suite gates both).
 */
#pragma once

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "sim/time.h"
#include "telemetry/timeseries.h"
#include "telemetry/trace.h"

namespace sol::telemetry {

/** How a rule turns a timeline into a boolean condition. */
enum class AlertKind : std::uint8_t {
    kThreshold,     ///< Latest value of `series` vs `threshold`.
    kRateOfChange,  ///< Delta of `series` over `lookback` vs `threshold`.
    kBurnRate,      ///< Windowed error/total ratio vs SLO budget.
};

/** One declarative alert rule. All arithmetic is integer/fixed-point. */
struct AlertRule {
    /** Alert name; keep <= 23 chars so trace instants carry it whole. */
    std::string name;
    AlertKind kind = AlertKind::kThreshold;

    /** Watched series (the cumulative *error* series for kBurnRate). */
    std::string series;

    /** Condition direction: fire when the observed quantity is >= (or,
     *  when false, <=) `threshold`. kBurnRate ignores it. */
    bool fire_above = true;

    /** kThreshold: absolute bound. kRateOfChange: bound on the delta
     *  over `lookback`. */
    std::int64_t threshold = 0;

    /** Trailing window for kRateOfChange/kBurnRate; must be positive
     *  there. A rule never fires while the store lacks a sample at the
     *  window start — partial windows refuse to extrapolate. */
    sim::Duration lookback = sim::Millis(500);

    /** Condition must hold continuously this long before the rule
     *  fires (0 = fire on first observation; negative is rejected).
     *  Resolution is immediate on the first false observation. */
    sim::Duration hold = sim::Duration::zero();

    // --- kBurnRate only ---------------------------------------------------
    /** Cumulative total (denominator) series the error is a share of. */
    std::string total_series;

    /** SLO error budget as parts-per-million of total (e.g. 50'000 =
     *  5% of samples may be invalid). */
    std::int64_t budget_ppm = 0;

    /** Fires when the windowed error ratio >= burn_factor_milli/1000 x
     *  budget (1000 = burning exactly at budget; 2000 = 2x); must be
     *  positive. */
    std::int64_t burn_factor_milli = 1000;
};

/** One firing/resolved transition (virtual-timestamped, first-class). */
struct AlertEvent {
    sim::TimePoint at{0};
    std::string rule;
    bool firing = false;  ///< true = firing edge, false = resolved edge.

    /** Observed quantity at the transition: the latest value
     *  (kThreshold), the windowed delta (kRateOfChange), or the
     *  windowed error ratio in ppm (kBurnRate). */
    std::int64_t value = 0;

    friend bool
    operator==(const AlertEvent& a, const AlertEvent& b)
    {
        return a.at == b.at && a.rule == b.rule && a.firing == b.firing &&
               a.value == b.value;
    }
};

/** Whole-run error-budget accounting for one kBurnRate rule. */
struct SloStatus {
    std::string rule;
    std::int64_t errors = 0;        ///< Cumulative error series, latest.
    std::int64_t total = 0;         ///< Cumulative total series, latest.
    std::int64_t budget_ppm = 0;
    std::int64_t consumed_ppm = 0;  ///< errors/total in ppm (0 if total 0).
    std::int64_t remaining_ppm = 0; ///< budget - consumed (negative = blown).
};

/** Evaluates a rule set against a store at successive sample times. */
class AlertEngine
{
  public:
    /** Adds a rule; std::invalid_argument when it could never work: no
     *  name or series, a kBurnRate rule without total_series or with a
     *  non-positive budget_ppm or burn_factor_milli, a non-positive
     *  lookback on a kRateOfChange or kBurnRate rule, or a negative
     *  hold. */
    void AddRule(AlertRule rule);
    void AddRules(const std::vector<AlertRule>& rules);

    /**
     * Evaluates every rule at `now` (call once per sampling boundary,
     * with non-decreasing `now`). Firing/resolved transitions append
     * to events() in rule-declaration order and, when `trace` is
     * non-null, mirror onto it as `alert_firing` / `alert_resolved`
     * instants at virtual time `now` with the rule name as the string
     * arg and the observed value as an integer arg.
     */
    void Evaluate(const TimeSeriesStore& store, sim::TimePoint now,
                  trace::TraceRecorder* trace = nullptr);

    /** True while `rule` is in the firing state. */
    bool IsFiring(const std::string& rule) const;

    /** Rules currently firing. */
    std::size_t FiringCount() const;

    /** True when `rule` fired at least once over the run. */
    bool EverFired(const std::string& rule) const;

    /** The full transition log, in evaluation order. */
    const std::vector<AlertEvent>& events() const { return events_; }

    /** Whole-run budget accounting for every kBurnRate rule, in
     *  declaration order, from the latest samples in `store`. */
    std::vector<SloStatus> SloStatuses(const TimeSeriesStore& store) const;

    std::size_t num_rules() const { return rules_.size(); }
    const AlertRule& rule(std::size_t i) const { return rules_[i].rule; }

  private:
    struct RuleState {
        AlertRule rule;
        bool firing = false;
        bool pending = false;           ///< Condition true, hold running.
        sim::TimePoint pending_since{0};
    };

    /** Evaluates one rule's raw condition; fills the observed value
     *  (defined whenever the return value is meaningful). */
    bool Condition(const RuleState& state, const TimeSeriesStore& store,
                   sim::TimePoint now, std::int64_t* value) const;

    std::vector<RuleState> rules_;
    std::vector<AlertEvent> events_;
};

/**
 * The standing fleet SLO/alert pack (docs/OBSERVABILITY.md documents
 * every rule and threshold). Series names match what
 * fleet::ShardedFleetRunner samples at its window boundaries.
 */
std::vector<AlertRule> DefaultFleetAlertRules();

/**
 * Serializes a health report — timeline summary, alert transition log,
 * and per-SLO budget remaining — as deterministic integer-only JSON,
 * and writes it as HEALTH_<name>.json next to the BENCH/TRACE outputs
 * ($SOL_BENCH_JSON_DIR override, "-" disables; the BenchJson rules).
 * Byte-identical across repeat runs and fleet thread counts, so CI
 * diffs it against committed goldens (tools/check_goldens.py).
 */
class HealthReportWriter
{
  public:
    static void Write(std::ostream& os, const std::string& name,
                      const TimeSeriesStore& store,
                      const AlertEngine& engine);

    static std::string ToString(const std::string& name,
                                const TimeSeriesStore& store,
                                const AlertEngine& engine);

    /** Writes HEALTH_<name>.json; false if the file could not open. */
    static bool WriteFile(const std::string& name,
                          const std::string& serialized);
};

}  // namespace sol::telemetry
