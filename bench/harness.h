/**
 * @file
 * What the gated benches (fleet_scale, node_concurrency,
 * scenario_suite) share: sanitized-build detection, the hex spelling
 * of hashes, and the wall-clock overhead probe.
 */
#pragma once

#include <algorithm>
#include <array>
#include <cstdint>
#include <iostream>
#include <sstream>
#include <string>

#include "telemetry/metric_registry.h"

namespace sol::bench {

// Sanitizers multiply the cost of instrumented bookkeeping (the
// recorder's atomics, the health sampler) far beyond production
// reality, so overhead budgets are report-only in sanitized builds;
// every determinism verdict still gates.
#if defined(__SANITIZE_THREAD__) || defined(__SANITIZE_ADDRESS__)
inline constexpr bool kSanitizedBuild = true;
#elif defined(__has_feature)
#if __has_feature(thread_sanitizer) || __has_feature(address_sanitizer)
inline constexpr bool kSanitizedBuild = true;
#else
inline constexpr bool kSanitizedBuild = false;
#endif
#else
inline constexpr bool kSanitizedBuild = false;
#endif

/** "0x" + unpadded lowercase hex: the hash spelling the scenario
 *  goldens in bench/baselines/ store. */
inline std::string
Hex(std::uint64_t value)
{
    std::ostringstream os;
    os << "0x" << std::hex << value;
    return os.str();
}

/** A probe's best wall seconds per side, and its ≤5% verdict. */
struct Overhead {
    bool smoke = false;
    double base_seconds = 0.0;
    double probe_seconds = 0.0;

    /** Slowdown of the probe leg: probe s ÷ base s − 1, floored at 0. */
    double
    fraction() const
    {
        return std::max(0.0, probe_seconds / base_seconds - 1.0);
    }

    std::string
    Percent() const
    {
        return telemetry::TableWriter::Num(fraction() * 100.0, 2) + "%";
    }

    /** The budget gates only in --smoke on unsanitized builds. */
    bool
    ok() const
    {
        return !smoke || kSanitizedBuild || fraction() <= 0.05;
    }

    /** "4.12% (PASS)", "(FAIL)", "(report only)" or "(report only:
     *  sanitized)". */
    std::string
    Label() const
    {
        return Percent() + (!smoke            ? " (report only)"
                            : kSanitizedBuild ? " (report only: sanitized)"
                            : ok()            ? " (PASS)"
                                              : " (FAIL)");
    }

    /** Prints a FAIL line naming `what` unless ok(); returns ok(). */
    bool
    Check(const std::string& what) const
    {
        if (!ok()) {
            std::cerr << "FAIL: " << what << " overhead " << Percent()
                      << " exceeds the 5% budget\n";
        }
        return ok();
    }
};

/**
 * Measures the wall-clock cost of a probe leg (tracing or health
 * sampling on) over a base leg (off) doing the same fixed work.
 * `base` and `probe` seed best-of-2 per side with legs the bench has
 * already run. A sub-second leg lets one noisy scheduling quantum fake
 * several percent, so while the verdict fails, up to three more
 * interleaved rounds of `run_base()` then `run_probe()` (each
 * returning its leg's wall seconds) keep the best per side.
 */
template <typename RunBase, typename RunProbe>
Overhead
MeasureOverhead(bool smoke, std::array<double, 2> base,
                std::array<double, 2> probe, RunBase run_base,
                RunProbe run_probe)
{
    Overhead overhead{smoke, std::min(base[0], base[1]),
                      std::min(probe[0], probe[1])};
    for (int round = 0; !overhead.ok() && round < 3; ++round) {
        overhead.base_seconds =
            std::min(overhead.base_seconds, run_base());
        overhead.probe_seconds =
            std::min(overhead.probe_seconds, run_probe());
    }
    return overhead;
}

}  // namespace sol::bench
