// determinism-lint: allow-file(wall-clock) -- contention timing is
// observe-only and gated behind config.track_contention (off in every
// deterministic run); it feeds the lock_wait/admit histograms, never an
// admission decision.
#include "cluster/interference_arbiter.h"

#include <algorithm>
#include <chrono>

#include "telemetry/trace.h"

namespace sol::cluster {

namespace {

std::size_t
DomainIndex(core::ActuationDomain domain)
{
    return static_cast<std::size_t>(domain);
}

std::uint64_t
ElapsedNs(std::chrono::steady_clock::time_point start)
{
    const auto elapsed = std::chrono::steady_clock::now() - start;
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
            .count());
}

}  // namespace

InterferenceArbiter::InterferenceArbiter(InterferenceArbiterConfig config,
                                         telemetry::MetricScope scope)
    : config_(std::move(config)), scope_(std::move(scope))
{
    // Precompute each domain's lock closure: itself plus every domain
    // reachable through the coupling relation. Couplings are pairs, not
    // chains — {A,B} and {B,C} makes B's closure {A,B,C} but leaves A
    // and C uncoupled, matching the original pairwise Coupled() check.
    for (std::size_t d = 0; d < core::kNumActuationDomains; ++d) {
        closure_[d].push_back(d);
        for (const auto& [x, y] : config_.couplings) {
            if (DomainIndex(x) == d) {
                closure_[d].push_back(DomainIndex(y));
            } else if (DomainIndex(y) == d) {
                closure_[d].push_back(DomainIndex(x));
            }
        }
        std::sort(closure_[d].begin(), closure_[d].end());
        closure_[d].erase(
            std::unique(closure_[d].begin(), closure_[d].end()),
            closure_[d].end());
    }
}

std::size_t
InterferenceArbiter::PriorityRank(const std::string& agent) const
{
    for (std::size_t i = 0; i < config_.priority.size(); ++i) {
        if (config_.priority[i] == agent) {
            return i;
        }
    }
    return config_.priority.size();  // Unlisted ranks last.
}

const InterferenceArbiter::Hold*
InterferenceArbiter::BlockingHoldLocked(
    const core::ActuationRequest& request) const
{
    for (const std::size_t d : closure_[DomainIndex(request.domain)]) {
        const auto& hold = domains_[d].hold;
        if (!hold.has_value() || hold->agent == request.agent) {
            continue;
        }
        if (config_.policy == ArbitrationPolicy::kStaticPriority &&
            PriorityRank(request.agent) < PriorityRank(hold->agent)) {
            // The requester outranks this holder; the holder's own next
            // expand will be the one denied.
            continue;
        }
        return &*hold;
    }
    return nullptr;
}

InterferenceArbiter::AgentAccount&
InterferenceArbiter::AccountFor(const std::string& agent)
{
    {
        core::ReaderLock read(accounts_mutex_);
        const auto it = accounts_.find(agent);
        if (it != accounts_.end()) {
            return *it->second;
        }
    }
    core::WriterLock write(accounts_mutex_);
    auto& slot = accounts_[agent];
    if (!slot) {
        slot = std::make_unique<AgentAccount>(accounts_.size() - 1);
        num_accounts_.store(accounts_.size());
    }
    return *slot;
}

core::ActuationDecision
InterferenceArbiter::Admit(const core::ActuationRequest& request)
{
    // Spans land on the calling thread's bound track (null = untraced),
    // so 77 concurrent callers never share a ring.
    telemetry::trace::TraceRecorder* recorder =
        telemetry::trace::CurrentThreadRecorder();
    const bool is_restore =
        request.intent == core::ActuationIntent::kRestore;
    telemetry::trace::TraceSpan span(
        recorder, is_restore ? "restore" : "expand", "arbiter");
    span.AddArg("domain", static_cast<std::int64_t>(
                              DomainIndex(request.domain)));
    span.SetString("agent", request.agent);

    std::chrono::steady_clock::time_point admit_start;
    if (config_.track_contention) {
        admit_start = std::chrono::steady_clock::now();
    }

    requests_.fetch_add(1, std::memory_order_relaxed);
    AgentAccount& account = AccountFor(request.agent);
    account.requests.fetch_add(1, std::memory_order_relaxed);

    if (is_restore) {
        {
            DomainSlot& slot = domains_[DomainIndex(request.domain)];
            core::MutexLock lock(slot.mutex);
            if (slot.hold.has_value() &&
                slot.hold->agent == request.agent) {
                slot.hold.reset();
            }
        }
        account.restores.fetch_add(1, std::memory_order_relaxed);
        account.admitted.fetch_add(1, std::memory_order_relaxed);
        span.AddArg("admitted", 1);
        if (config_.track_contention) {
            admit_hist_.Record(ElapsedNs(admit_start));
        }
        return {true, ""};
    }

    const core::ActuationDecision decision =
        ExpandUnderClosure(request, account);

    span.AddArg("admitted", decision.admitted ? 1 : 0);
    if (!decision.admitted && recorder != nullptr) {
        recorder->Instant("deny", "arbiter",
                          {{"domain", static_cast<std::int64_t>(
                                          DomainIndex(request.domain))}},
                          "holder", decision.conflicting_agent);
    }
    if (config_.track_contention) {
        admit_hist_.Record(ElapsedNs(admit_start));
    }
    return decision;
}

core::ActuationDecision
InterferenceArbiter::ExpandUnderClosure(const core::ActuationRequest& request,
                                        AgentAccount& account)
{
    // Lock the whole coupling closure in ascending index order, so
    // overlapping closures serialize instead of deadlocking. Holding
    // every coupled slot makes "scan for a blocking hold, then grant"
    // one atomic step: no racing expand can slip a hold into a coupled
    // domain between the check and the grant.
    const auto& closure = closure_[DomainIndex(request.domain)];
    std::chrono::steady_clock::time_point wait_start;
    if (config_.track_contention) {
        wait_start = std::chrono::steady_clock::now();
    }
    for (const std::size_t d : closure) {
        domains_[d].mutex.lock();
    }
    if (config_.track_contention) {
        const std::uint64_t waited_ns = ElapsedNs(wait_start);
        lock_wait_ns_.fetch_add(waited_ns, std::memory_order_relaxed);
        lock_wait_hist_.Record(waited_ns);
    }

    core::ActuationDecision decision{true, ""};
    const Hold* blocking = BlockingHoldLocked(request);
    if (blocking != nullptr) {
        conflicts_observed_.fetch_add(1, std::memory_order_relaxed);
        {
            core::MutexLock lock(account.denial_mutex);
            if (blocking->agent_id >= account.denied_by.size()) {
                // The holder's account was created before its hold was
                // taken, so the count read here already includes it.
                account.denied_by.resize(num_accounts_.load());
            }
            ++account.denied_by[blocking->agent_id];
        }
        if (config_.enabled) {
            conflicts_resolved_.fetch_add(1, std::memory_order_relaxed);
            account.denied.fetch_add(1, std::memory_order_relaxed);
            decision = {false, blocking->agent};
        }
        // Disabled (ungoverned baseline): observe but admit.
    }

    if (decision.admitted) {
        auto& hold = domains_[DomainIndex(request.domain)].hold;
        if (!hold.has_value() || hold->agent != request.agent) {
            hold = Hold{request.agent, account.id, request.magnitude, 0};
        }
        hold->magnitude = request.magnitude;
        ++hold->admissions;
        account.admitted.fetch_add(1, std::memory_order_relaxed);
    }

    for (auto it = closure.rbegin(); it != closure.rend(); ++it) {
        domains_[*it].mutex.unlock();
    }
    return decision;
}

std::optional<std::string>
InterferenceArbiter::HolderOf(core::ActuationDomain domain) const
{
    const DomainSlot& slot = domains_[DomainIndex(domain)];
    core::MutexLock lock(slot.mutex);
    if (!slot.hold.has_value()) {
        return std::nullopt;
    }
    return slot.hold->agent;
}

void
InterferenceArbiter::WriteMetrics()
{
    core::ReaderLock read(accounts_mutex_);
    std::vector<const std::string*> names(accounts_.size());
    for (const auto& [agent, account] : accounts_) {
        names[account->id] = &agent;
    }
    std::uint64_t conflicts = 0;
    for (auto& [agent, account] : accounts_) {
        scope_.SetCounter(
            agent + ".requests",
            account->requests.load(std::memory_order_relaxed));
        scope_.SetCounter(
            agent + ".admitted",
            account->admitted.load(std::memory_order_relaxed));
        scope_.SetCounter(
            agent + ".denied",
            account->denied.load(std::memory_order_relaxed));
        scope_.SetCounter(
            agent + ".restores",
            account->restores.load(std::memory_order_relaxed));
        core::MutexLock lock(account->denial_mutex);
        for (std::size_t holder = 0; holder < account->denied_by.size();
             ++holder) {
            const std::uint64_t count = account->denied_by[holder];
            if (count != 0) {
                scope_.SetCounter(
                    "denial." + agent + ".by." + *names[holder], count);
                conflicts += count;
            }
        }
    }
    scope_.SetCounter("conflicts", conflicts);

    if (config_.track_contention) {
        // SetHistogram snapshots are idempotent like the counter
        // flushes above.
        const telemetry::LatencyHistogram lock_wait =
            lock_wait_hist_.Histogram();
        if (!lock_wait.empty()) {
            scope_.SetHistogram("lock_wait_ns", lock_wait);
        }
        const telemetry::LatencyHistogram admit = admit_hist_.Histogram();
        if (!admit.empty()) {
            scope_.SetHistogram("admit_ns", admit);
        }
    }
}

}  // namespace sol::cluster
