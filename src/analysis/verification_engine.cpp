#include "analysis/verification_engine.hpp"

#include <chrono>

#include "util/combinatorics.hpp"
#include "util/expect.hpp"

namespace nptsn {
namespace {

bool subset_of_any(const FailureScenario& scenario,
                   const std::vector<FailureScenario>& set) {
  for (const FailureScenario& member : set) {
    if (scenario.subset_of(member)) return true;
  }
  return false;
}

}  // namespace

VerificationEngine::VerificationEngine(const StatelessNbf& nbf, Options options)
    : nbf_(&nbf), options_(std::move(options)) {
  NPTSN_EXPECT(options_.max_memo_entries >= 1, "memo bound must be positive");
  NPTSN_EXPECT(options_.min_order >= 0 && options_.min_order < 8192,
               "engine min_order out of range");
  NPTSN_EXPECT(!options_.shared_cache || options_.staging,
               "the shared cache needs staged problem identity (Options::staging)");
  if (options_.staging) switch_universe_ = &options_.staging->switch_ids;
  if (options_.shared_cache) {
    NPTSN_EXPECT(options_.cache_salt < (std::uint64_t{1} << 48),
                 "cache_salt must fit in 48 bits (its top 16 would be shifted out)");
    binding_.problem = options_.staging->problem_fp;
    // Every option that can change a verdict or an outcome without changing
    // the problem bytes lands in the salt; shifted so the caller's NBF
    // identity never collides with the option bits. min_order gets 13 bits
    // (range-checked above) so distinct floors never share outcomes.
    binding_.salt = (options_.cache_salt << 16) |
                    (options_.flow_level_redundancy ? 1u : 0u) |
                    (options_.use_superset_pruning ? 2u : 0u) |
                    (options_.include_links ? 4u : 0u) |
                    (static_cast<std::uint64_t>(options_.min_order) << 3);
  }
}

void VerificationEngine::clear() {
  memo_.clear();
  outcomes_.clear();
}

AnalysisOutcome VerificationEngine::analyze(const Topology& topology) {
  const auto start = std::chrono::steady_clock::now();
  const PlanningProblem& problem = topology.problem();
  const double goal = problem.reliability_goal;
  AnalysisOutcome outcome;

  const GraphFp fp = topology.graph_fingerprint();
  if (memo_.size() > options_.max_memo_entries) memo_.clear();
  if (outcomes_.size() > options_.max_memo_entries) outcomes_.clear();

  // Outcome cache: (link set, switch plan) determines the whole analysis.
  // The switch-id universe is a per-problem constant — staged by the caller
  // or self-staged once — and the plan scratch buffer is reused, so the
  // probe allocates nothing.
  if (!switch_universe_) {
    plan_switches_ = problem.switch_ids();
    switch_universe_ = &plan_switches_;
  }
  plan_.clear();
  plan_.reserve(switch_universe_->size());
  for (const NodeId v : *switch_universe_) {
    plan_.push_back(topology.has_switch(v)
                        ? static_cast<signed char>(topology.switch_asil(v))
                        : static_cast<signed char>(-1));
  }
  // Normalizes a cached outcome's work counters for this run: nothing
  // executed, everything served from a cache.
  const auto serve_cached = [&](AnalysisOutcome cached, bool from_shared) {
    cached.nbf_executed = 0;
    cached.memo_hits = from_shared ? 0 : cached.nbf_calls;
    cached.residual_reuses = 0;
    cached.shared_hits = from_shared ? cached.nbf_calls : 0;
    cached.wall_seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
    return cached;
  };
  if (const auto it = outcomes_.find(OutcomeRef{fp, &plan_}); it != outcomes_.end()) {
    return serve_cached(it->second, /*from_shared=*/false);
  }
  if (options_.shared_cache) {
    AnalysisOutcome shared;
    if (options_.shared_cache->lookup_outcome(binding_, fp, plan_, &shared)) {
      // Adopt into the local cache so later probes stay lock-free.
      outcomes_.emplace(OutcomeKey{fp, plan_}, shared);
      return serve_cached(std::move(shared), /*from_shared=*/true);
    }
  }

  // Frontier and enumeration depth, exactly as the sequential analyzer.
  const Frontier frontier = build_frontier(
      topology,
      {options_.flow_level_redundancy, options_.include_links, options_.min_order});
  outcome.max_order = frontier.max_order;
  const int n = static_cast<int>(frontier.components.size());

  // Survivors in enumeration order: exactly the sequential analyzer's
  // `checked` list, so pruning against it reproduces the reference counters
  // verbatim. Each survivor is visible to the very next scenario.
  std::vector<FailureScenario> checked;

  // Staged NBF session (bit-identical to recover() by contract), staged
  // lazily so a cache-served analysis never pays for it.
  std::unique_ptr<NbfSession> session;
  bool session_staged = false;

  // One logical NBF call: served from the memo, the shared cache, or a
  // fresh evaluation, which is then memoized and published.
  const auto resolve = [&](const FailureScenario& scenario) -> Verdict {
    const GraphFp rfp = topology.residual_fingerprint(scenario);
    if (const auto it =
            memo_.find(MemoRef{rfp, &scenario.failed_switches, &scenario.failed_links});
        it != memo_.end()) {
      // Exact: identical residual + failed set. Split between same-graph
      // hits and verdicts carried over from a different (smaller) topology.
      if (it->second.origin == fp) {
        ++outcome.memo_hits;
      } else {
        ++outcome.residual_reuses;
      }
      return it->second;
    }
    Verdict verdict;
    if (options_.shared_cache &&
        options_.shared_cache->lookup_verdict(binding_, rfp, scenario.failed_switches,
                                              scenario.failed_links, &verdict)) {
      // Exact replay from another session on the byte-identical problem;
      // adopt into the local memo for lock-free re-probes.
      memo_.emplace(MemoKey{rfp, scenario.failed_switches, scenario.failed_links}, verdict);
      ++outcome.shared_hits;
      return verdict;
    }
    if (!session_staged) {
      session_staged = true;
      session = nbf_->stage(topology);
    }
    NbfResult result = session ? session->recover(scenario) : nbf_->recover(topology, scenario);
    ++outcome.nbf_executed;
    verdict.ok = result.ok();
    verdict.errors = std::move(result.errors);
    verdict.origin = fp;
    memo_.emplace(MemoKey{rfp, scenario.failed_switches, scenario.failed_links}, verdict);
    if (options_.shared_cache) {
      options_.shared_cache->publish_verdict(binding_, rfp, scenario.failed_switches,
                                             scenario.failed_links, verdict);
    }
    return verdict;
  };

  bool done = false;
  for (int order = frontier.max_order; order >= 0 && !done; --order) {
    const bool completed = for_each_combination(n, order, [&](const std::vector<int>& idx) {
      if (options_.deadline) options_.deadline->poll();
      double prob = 1.0;
      FailureScenario scenario = scenario_of(frontier, idx, &prob);
      if (order > options_.min_order && prob < goal) {
        ++outcome.scenarios_skipped;  // safe fault above the frontier floor
        return true;
      }
      if (options_.use_superset_pruning && subset_of_any(scenario, checked)) {
        ++outcome.scenarios_pruned;
        return true;
      }

      ++outcome.nbf_calls;
      Verdict direct = resolve(scenario);
      bool ok = direct.ok;
      if (!ok && !scenario.failed_links.empty()) {
        const FailureScenario projected = project_to_switches(topology, scenario);
        if (projection_covers(scenario, projected)) {
          ++outcome.nbf_calls;  // the Eq. 6 deployability fallback
          ok = resolve(projected).ok;
        }
      }
      if (!ok) {
        outcome.reliable = false;
        outcome.counterexample = std::move(scenario);
        outcome.errors = std::move(direct.errors);
        return false;
      }
      checked.push_back(std::move(scenario));
      return true;
    });
    if (!completed) done = true;
  }
  if (!done) outcome.reliable = true;

  outcomes_.emplace(OutcomeKey{fp, plan_}, outcome);
  if (options_.shared_cache) {
    options_.shared_cache->publish_outcome(binding_, fp, plan_, outcome);
  }
  outcome.wall_seconds =
      std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  return outcome;
}

}  // namespace nptsn
