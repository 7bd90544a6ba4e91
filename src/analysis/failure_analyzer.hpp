// The failure analyzer (Section V, Algorithm 3).
//
// Verifies the reliability guarantee of a planned TSSDN: every failure
// scenario with occurrence probability >= R (a non-safe fault) must be
// recoverable under the given stateless NBF. Because link ASIL equals the
// minimum adjacent-node ASIL, any mixed link/switch failure is dominated by
// its switch projection (Eq. 6), so only switch-failure scenarios are
// injected. Scenarios are checked from the highest possible order down and
// survived scenarios prune all of their subsets.
#pragma once

#include <cstdint>

#include "tsn/recovery.hpp"
#include "util/deadline.hpp"

namespace nptsn {

struct AnalysisOutcome {
  // True when the reliability guarantee holds (no counterexample found).
  bool reliable = false;
  // A non-recoverable non-safe fault and its error message; used by the
  // SOAG to generate the next action space. Empty scenario + empty errors
  // when reliable.
  FailureScenario counterexample;
  ErrorSet errors;

  // Instrumentation (the paper motivates the design with verification cost).
  // nbf_calls counts the NBF evaluations Algorithm 3 performs; the
  // verification engine reports the same *logical* count even when it
  // services part of it from its caches, so the field is bit-identical
  // across the sequential analyzer and every engine configuration.
  std::int64_t nbf_calls = 0;
  std::int64_t scenarios_pruned = 0;   // skipped: subset of a survived scenario
  std::int64_t scenarios_skipped = 0;  // skipped: probability below R
  int max_order = 0;                   // maxord of Algorithm 3

  // How the logical NBF work was actually serviced. The sequential analyzer
  // executes every call itself (nbf_executed == nbf_calls, reuse fields 0);
  // the verification engine splits the work between fresh evaluations, memo
  // hits, residual replays, and shared-cache hits.
  std::int64_t nbf_executed = 0;       // NBF evaluations actually run
  std::int64_t memo_hits = 0;          // memo verdicts computed on this same graph
  std::int64_t residual_reuses = 0;    // memo verdicts carried over from an earlier
                                       // topology with an identical residual (exact)
  std::int64_t shared_hits = 0;        // verdicts/outcomes served from the cross-
                                       // session shared cache (engine_cache)
  double wall_seconds = 0.0;           // wall time of this analysis
};

// One failure candidate of the enumeration frontier: a node (planned switch,
// or end station under flow-level redundancy) or a planned link, with its
// Eq. 2 failure probability under the current ASIL allocation.
struct FrontierComponent {
  bool is_link = false;
  NodeId node = 0;
  EdgeKey link{0, 0};
  double prob = 0.0;
};

// The enumeration frontier of one analysis: the candidate components in
// canonical order — nodes ascending, then links (a, b)-lexicographic, so
// lexicographic index combinations yield already-normalized scenarios — plus
// the effective enumeration depth. Built identically by the analyzer, the
// verification engine, and the certificate builder (the auditor keeps its
// own independent derivation).
struct Frontier {
  std::vector<FrontierComponent> components;
  // Effective enumeration depth: max(Alg. 3 maxord over the component
  // probabilities, min(min_order, |components|)).
  int max_order = 0;
  // Probability-skip floor: scenarios of order <= min_order are verified
  // even when their Eq. 2 probability is below R.
  int min_order = 0;
};

struct FrontierOptions {
  bool flow_level_redundancy = false;
  // Enumerate planned links as first-class failure candidates (mixed
  // link/switch scenarios) instead of relying on the Eq. 6 reduction alone.
  bool include_links = false;
  // Frontier floor: every scenario of order <= min_order is verified
  // regardless of probability, and the enumeration depth is at least
  // min(min_order, |components|). 0 reproduces Algorithm 3 exactly.
  int min_order = 0;
};

Frontier build_frontier(const Topology& topology, const FrontierOptions& options);

// Materializes the scenario for one index combination over the frontier's
// components; *prob (optional) receives the Eq. 2 probability product. The
// result is normalized by construction (canonical component order).
FailureScenario scenario_of(const Frontier& frontier, const std::vector<int>& idx,
                            double* prob = nullptr);

// Eq. 6 switch projection of a mixed scenario: each failed link is replaced
// by its lowest-ASIL endpoint (prefer the switch on ties; end stations are
// dropped — their failures are safe faults outside Gf). A mixed scenario
// survives when the NBF recovers it directly OR recovers this projection:
// the projection's flow state only uses components alive under the original
// scenario, so the controller deploys it verbatim.
FailureScenario project_to_switches(const Topology& topology,
                                    const FailureScenario& scenario);

// True when every failed link of `scenario` has at least one endpoint among
// `projected.failed_switches` (both lists normalized). Only then does Eq. 6
// apply: an uncovered link — both endpoints end stations — survives in the
// projected residual, so the projection's flow state could route over a
// failed component and must not be accepted as a recovery.
bool projection_covers(const FailureScenario& scenario, const FailureScenario& projected);

class FailureAnalyzer {
 public:
  struct Options {
    // When true, failures of every topology node (end stations included) are
    // enumerated — the flow-level-redundancy variant at the end of Section V.
    bool flow_level_redundancy = false;
    // Ablation switch for Alg. 3 line 11's subset pruning; disabling it must
    // never change the verdict, only the NBF call count.
    bool use_superset_pruning = true;
    // Frontier floor (FrontierOptions::min_order): all scenarios of order <=
    // min_order are verified even below the probability threshold. 0 is
    // exactly Algorithm 3.
    int min_order = 0;
    // Mixed link/switch frontiers (FrontierOptions::include_links): planned
    // links fail as first-class candidates; a mixed scenario survives via
    // direct recovery or its Eq. 6 switch projection.
    bool include_links = false;
    // Cooperative execution deadline (must outlive the analyzer). Polled once
    // per enumerated scenario; expiry aborts the analysis with a typed
    // DeadlineExceeded instead of running an unbounded frontier to the end.
    const Deadline* deadline = nullptr;
  };

  // The NBF must outlive the analyzer.
  explicit FailureAnalyzer(const StatelessNbf& nbf) : FailureAnalyzer(nbf, Options{}) {}
  FailureAnalyzer(const StatelessNbf& nbf, Options options);

  // Runs Algorithm 3 against the topology (its problem supplies R).
  AnalysisOutcome analyze(const Topology& topology) const;

 private:
  const StatelessNbf* nbf_;
  Options options_;
};

}  // namespace nptsn
