/**
 * @file
 * Concurrency stress tests for InterferenceArbiter (run under TSan in
 * CI's sanitize-thread job, repeated 20x). The arbiter's lock-table
 * hardening promises three things to a ThreadedMultiAgentNode:
 *
 *   1. No double grants: while one agent's expand hold is live on a
 *      coupled-domain closure, no other agent's expand is admitted
 *      anywhere in that closure.
 *   2. No lost or phantom holds: every admitted expand is releasable,
 *      every restore releases, and accounting (per-agent atomics and
 *      published counters) exactly matches what the callers did.
 *   3. Deterministic resolution: for one admission order, decisions are
 *      a pure function of the request sequence — replaying a scripted
 *      schedule on real threads yields identical decisions and counters.
 */
#include <gtest/gtest.h>

#include <atomic>
#include <cstdint>
#include <map>
#include <random>
#include <string>
#include <thread>
#include <vector>

#include "cluster/interference_arbiter.h"
#include "core/actuation.h"
#include "telemetry/metric_registry.h"

namespace sol::cluster {
namespace {

using core::ActuationDomain;
using core::ActuationIntent;
using core::ActuationRequest;

ActuationRequest
Expand(const std::string& agent, ActuationDomain domain)
{
    return {agent, domain, ActuationIntent::kExpand, 1.0};
}

ActuationRequest
Restore(const std::string& agent, ActuationDomain domain)
{
    return {agent, domain, ActuationIntent::kRestore, 0.0};
}

TEST(ArbiterRaceTest, NoDoubleGrantsUnderContention)
{
    telemetry::MetricRegistry metrics;
    InterferenceArbiterConfig config;
    InterferenceArbiter arbiter(
        config, telemetry::MetricScope(metrics, "arbiter"));

    // All threads fight over the default-coupled frequency/cores pair.
    // `owner` mirrors the closure's hold from the caller side: set
    // right after an admitted expand, cleared right before the restore.
    // If the arbiter ever admits a second expand while a hold is live,
    // the second thread's exchange sees a foreign owner.
    constexpr int kThreads = 8;
    constexpr int kIterations = 400;
    std::atomic<int> owner{-1};
    std::atomic<std::uint64_t> double_grants{0};
    std::atomic<std::uint64_t> total_admitted{0};
    std::atomic<std::uint64_t> total_denied{0};

    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            const std::string agent = "racer" + std::to_string(t);
            const ActuationDomain domain =
                t % 2 == 0 ? ActuationDomain::kCpuFrequency
                           : ActuationDomain::kCpuCores;
            for (int i = 0; i < kIterations; ++i) {
                if (arbiter.Admit(Expand(agent, domain)).admitted) {
                    total_admitted.fetch_add(1,
                                             std::memory_order_relaxed);
                    if (owner.exchange(t, std::memory_order_acq_rel) !=
                        -1) {
                        double_grants.fetch_add(
                            1, std::memory_order_relaxed);
                    }
                    if (owner.exchange(-1, std::memory_order_acq_rel) !=
                        t) {
                        double_grants.fetch_add(
                            1, std::memory_order_relaxed);
                    }
                    arbiter.Admit(Restore(agent, domain));
                } else {
                    total_denied.fetch_add(1, std::memory_order_relaxed);
                }
            }
        });
    }
    for (std::thread& thread : threads) {
        thread.join();
    }

    EXPECT_EQ(double_grants.load(), 0u);
    EXPECT_EQ(total_admitted.load() + total_denied.load(),
              static_cast<std::uint64_t>(kThreads) * kIterations);
    // Every admitted expand was paired with a restore.
    EXPECT_EQ(arbiter.HolderOf(ActuationDomain::kCpuFrequency),
              std::nullopt);
    EXPECT_EQ(arbiter.HolderOf(ActuationDomain::kCpuCores), std::nullopt);
    // Global accounting: expands + paired restores.
    EXPECT_EQ(arbiter.requests(),
              static_cast<std::uint64_t>(kThreads) * kIterations +
                  total_admitted.load());
    EXPECT_EQ(arbiter.conflicts_resolved(), total_denied.load());
    EXPECT_EQ(arbiter.conflicts_observed(), total_denied.load());
}

TEST(ArbiterRaceTest, NoLostHoldsAndExactAccounting)
{
    telemetry::MetricRegistry metrics;
    InterferenceArbiterConfig config;
    config.track_contention = true;
    InterferenceArbiter arbiter(
        config, telemetry::MetricScope(metrics, "arbiter"));

    // Mixed workload across coupled AND uncoupled domains, with each
    // thread keeping its own tally; the arbiter's published metrics
    // must agree with the callers' ground truth exactly. Workers 0, 1,
    // 3 and 4 fight over the default-coupled CPU frequency/cores pair;
    // workers 2 and 5 each own one uncoupled domain alone, so by
    // construction nothing can deny them.
    constexpr int kThreads = 6;
    constexpr int kIterations = 300;
    struct Tally {
        std::uint64_t expands = 0;
        std::uint64_t admitted = 0;
        std::uint64_t denied = 0;
        std::uint64_t restores = 0;
        /** Denials by the holder each decision named. */
        std::map<std::string, std::uint64_t> denied_by;
    };
    std::vector<Tally> tallies(kThreads);
    // Threads start together, so the coupled workers really overlap
    // and deny one another: a thread that ran its whole loop before
    // the next one started would leave the per-pair checks vacuous.
    std::atomic<int> started{0};
    const ActuationDomain domains[kThreads] = {
        ActuationDomain::kCpuFrequency,  ActuationDomain::kCpuCores,
        ActuationDomain::kMemoryPlacement, ActuationDomain::kCpuFrequency,
        ActuationDomain::kCpuCores,      ActuationDomain::kTelemetryBudget,
    };

    std::vector<std::thread> threads;
    threads.reserve(kThreads);
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            const std::string agent = "worker" + std::to_string(t);
            const ActuationDomain domain = domains[t];
            std::mt19937 rng(1000u + static_cast<unsigned>(t));
            Tally& tally = tallies[t];
            started.fetch_add(1, std::memory_order_acq_rel);
            while (started.load(std::memory_order_acquire) < kThreads) {
                std::this_thread::yield();
            }
            for (int i = 0; i < kIterations; ++i) {
                if (rng() % 4 != 0) {
                    ++tally.expands;
                    const core::ActuationDecision decision =
                        arbiter.Admit(Expand(agent, domain));
                    if (decision.admitted) {
                        ++tally.admitted;
                    } else {
                        ++tally.denied;
                        ++tally.denied_by[decision.conflicting_agent];
                    }
                } else {
                    ++tally.restores;
                    ASSERT_TRUE(
                        arbiter.Admit(Restore(agent, domain)).admitted);
                }
            }
            // Leave nothing held.
            ++tally.restores;
            arbiter.Admit(Restore(agent, domain));
        });
    }
    for (std::thread& thread : threads) {
        thread.join();
    }

    for (const ActuationDomain domain : domains) {
        EXPECT_EQ(arbiter.HolderOf(domain), std::nullopt);
    }

    arbiter.WriteMetrics();
    std::uint64_t total_requests = 0;
    std::uint64_t total_denied = 0;
    // Per-pair attribution: every published denial counter is one
    // (denied agent, holder) pair the callers saw, with their count.
    std::map<std::string, std::uint64_t> expected_denials;
    for (int t = 0; t < kThreads; ++t) {
        for (const auto& [holder, count] : tallies[t].denied_by) {
            expected_denials["arbiter.denial.worker" + std::to_string(t) +
                             ".by." + holder] = count;
        }
    }
    std::map<std::string, std::uint64_t> published_denials;
    for (const auto& [name, value] : metrics.counters()) {
        if (name.rfind("arbiter.denial.", 0) == 0) {
            published_denials[name] = value;
        }
    }
    EXPECT_EQ(published_denials, expected_denials);
    for (int t = 0; t < kThreads; ++t) {
        const Tally& tally = tallies[t];
        const std::string prefix =
            "arbiter.worker" + std::to_string(t) + ".";
        EXPECT_EQ(metrics.Counter(prefix + "requests"),
                  tally.expands + tally.restores);
        EXPECT_EQ(metrics.Counter(prefix + "admitted"),
                  tally.admitted + tally.restores);
        EXPECT_EQ(metrics.Counter(prefix + "denied"), tally.denied);
        EXPECT_EQ(metrics.Counter(prefix + "restores"), tally.restores);
        total_requests += tally.expands + tally.restores;
        total_denied += tally.denied;
    }
    EXPECT_EQ(arbiter.requests(), total_requests);
    EXPECT_EQ(arbiter.conflicts_resolved(), total_denied);
    EXPECT_EQ(metrics.Counter("arbiter.conflicts"),
              arbiter.conflicts_observed());
    // The memory-placement and telemetry-budget workers are alone on
    // domains outside the coupled CPU closure, so they are never denied.
    EXPECT_EQ(tallies[2].denied, 0u);
    EXPECT_EQ(tallies[5].denied, 0u);
}

TEST(ArbiterRaceTest, DeterministicResolutionUnderScriptedSchedule)
{
    // A seeded script of requests is replayed twice on real threads,
    // serialized by a turn counter so the admission order is the
    // script order both times. Decisions and published counters must
    // be bit-identical: admission depends only on the request
    // sequence, never on wall time or thread identity.
    constexpr int kThreads = 4;
    constexpr int kScriptLength = 600;
    struct ScriptEntry {
        int thread;
        ActuationDomain domain;
        ActuationIntent intent;
    };
    std::vector<ScriptEntry> script;
    script.reserve(kScriptLength);
    std::mt19937 rng(20220877u);
    for (int i = 0; i < kScriptLength; ++i) {
        script.push_back(
            {static_cast<int>(rng() % kThreads),
             static_cast<ActuationDomain>(rng() % 4),
             rng() % 3 != 0 ? ActuationIntent::kExpand
                            : ActuationIntent::kRestore});
    }

    const auto run = [&script](telemetry::MetricRegistry& metrics) {
        InterferenceArbiterConfig config;
        config.policy = ArbitrationPolicy::kStaticPriority;
        config.priority = {"scripted0", "scripted1"};
        InterferenceArbiter arbiter(
            config, telemetry::MetricScope(metrics, "arbiter"));
        std::vector<std::string> decisions(script.size());
        std::atomic<std::size_t> turn{0};
        std::vector<std::thread> threads;
        threads.reserve(kThreads);
        for (int t = 0; t < kThreads; ++t) {
            threads.emplace_back([&, t] {
                const std::string agent =
                    "scripted" + std::to_string(t);
                while (true) {
                    const std::size_t i =
                        turn.load(std::memory_order_acquire);
                    if (i >= script.size()) {
                        return;
                    }
                    if (script[i].thread != t) {
                        std::this_thread::yield();
                        continue;
                    }
                    const core::ActuationDecision decision =
                        arbiter.Admit({agent, script[i].domain,
                                       script[i].intent, 1.0});
                    decisions[i] = decision.admitted
                                       ? "admitted"
                                       : "denied-by-" +
                                             decision.conflicting_agent;
                    turn.store(i + 1, std::memory_order_release);
                }
            });
        }
        for (std::thread& thread : threads) {
            thread.join();
        }
        arbiter.WriteMetrics();
        return decisions;
    };

    telemetry::MetricRegistry first_metrics;
    telemetry::MetricRegistry second_metrics;
    const std::vector<std::string> first = run(first_metrics);
    const std::vector<std::string> second = run(second_metrics);

    EXPECT_EQ(first, second);
    EXPECT_EQ(first_metrics.counters(), second_metrics.counters());
    // The script is long enough to exercise both outcomes.
    std::uint64_t denials = 0;
    for (const std::string& decision : first) {
        denials += decision != "admitted" ? 1 : 0;
    }
    EXPECT_GT(denials, 0u);
    EXPECT_LT(denials, static_cast<std::uint64_t>(first.size()));
}

}  // namespace
}  // namespace sol::cluster
