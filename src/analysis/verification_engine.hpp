// The incremental reliability-verification engine.
//
// A drop-in replacement for per-step FailureAnalyzer::analyze calls in the
// planning hot loop. It runs the same Algorithm 3 enumeration, in the same
// order and on one thread, but services its NBF calls through two exact
// caches, neither of which may change the result:
//
//  1. Residual verdict memo (exact). The stateless NBF is a deterministic
//     pure function of the residual graph (Gt minus the failed components)
//     and the fixed problem — it never reads the ASIL allocation, and all
//     of its traversals are over ordered adjacency, independent of link
//     insertion order. A verdict is therefore memoized by
//     (residual fingerprint, failed set) and replayed verbatim whenever a
//     later analysis — on the same or ANY grown topology — presents the
//     identical residual. ASIL-upgrade actions leave the graph untouched,
//     so re-analyses after them are served entirely from the memo; after a
//     path addition, every scenario whose failed set covers the new links'
//     endpoints still has the same residual and is replayed too.
//
//     Deliberately NOT done: carrying "proven survivable" scenarios across
//     graph growth as assumed-ok pruning seeds. Abstract survivability is
//     monotone under link addition (a deployed flow state stays deployable
//     on a super-residual), but the deployed NBF is a greedy heuristic —
//     shortest path first, k-shortest fallback, greedy slot packing — and
//     its concrete verdict is NOT monotone: a new link can redirect routing
//     or slot packing and make recover() fail where it previously
//     succeeded. Serving such a seed as a verdict would diverge from the
//     sequential analyzer (and make warm/cold engines disagree, breaking
//     kill-and-resume determinism). tests/analysis/verification_engine_test
//     .cpp pins this with a deliberately non-monotone NBF.
//
//  2. Outcome cache (exact). The whole AnalysisOutcome is a deterministic
//     function of (link set, switch plan) for a fixed problem and options —
//     the enumeration order, the probability frontier, and every NBF verdict
//     are determined by them. Re-analyses of a previously seen (fingerprint,
//     switch selection + ASIL vector) pair are served in one lookup; a
//     converged policy that re-produces the same designs epoch after epoch
//     hits this cache on most steps.
//
// NBF calls that miss both caches run on the NBF's staged session
// (StatelessNbf::stage) when it offers one, which is bit-identical to plain
// recover() by contract.
//
// Every verdict the engine reports is either a fresh NBF execution or an
// exact replay of one on an identical input, so warm and cold engines are
// interchangeable: only the work-split counters (nbf_executed / memo_hits /
// residual_reuses / shared_hits) differ. The caches are derived state and
// must never be serialized into checkpoints.
//
// One engine instance serves ONE (problem, NBF) pair; both must outlive it.
#pragma once

#include <algorithm>
#include <cstdint>
#include <map>
#include <memory>
#include <utility>
#include <vector>

#include "analysis/engine_cache.hpp"
#include "analysis/failure_analyzer.hpp"

namespace nptsn {

class VerificationEngine {
 public:
  struct Options {
    // Mirror of FailureAnalyzer::Options — the engine must be differential-
    // equivalent to the sequential analyzer under the same settings.
    bool flow_level_redundancy = false;
    bool use_superset_pruning = true;
    // Frontier floor and mixed link/switch enumeration, with
    // FailureAnalyzer::Options semantics: scenarios of order <= min_order
    // are verified even below the probability threshold, and include_links
    // makes planned links first-class failure candidates (a mixed scenario
    // survives via direct recovery or its Eq. 6 switch projection).
    int min_order = 0;
    bool include_links = false;
    // Cooperative execution deadline (must outlive the engine). Polled once
    // per enumerated scenario, so expiry surfaces as one DeadlineExceeded
    // with at most one NBF evaluation in flight.
    const Deadline* deadline = nullptr;
    // Verdict memo and outcome cache are each cleared wholesale when they
    // outgrow this bound (derived state — dropping them costs recomputation,
    // never correctness).
    std::size_t max_memo_entries = std::size_t{1} << 18;
    // Per-problem constants staged once by the caller and shared read-only
    // by every worker engine of a session (engine_cache.hpp). Optional: a
    // bare engine stages for itself on the first analysis.
    std::shared_ptr<const EngineStaging> staging;
    // Cross-session shared cache (engine_cache.hpp). Requires `staging` (the
    // staged problem fingerprint is the cache identity). Hits are exact
    // replays, so results stay bit-identical with the cache on or off; only
    // nbf_executed / shared_hits move.
    std::shared_ptr<EngineSharedCache> shared_cache;
    // Folded into the shared-cache binding salt: identifies the NBF's
    // construction (e.g. path candidates, forwarding discipline) so engines
    // whose NBFs could disagree never share verdicts. Callers that share a
    // cache across differently-configured NBFs MUST disambiguate here. The
    // salt's low 16 bits carry the option bits above, so with a shared cache
    // this must be below 2^48; the constructor rejects larger values.
    std::uint64_t cache_salt = 0;
  };

  explicit VerificationEngine(const StatelessNbf& nbf)
      : VerificationEngine(nbf, Options{}) {}
  VerificationEngine(const StatelessNbf& nbf, Options options);

  // Algorithm 3 against the topology. Non-const: absorbs this analysis's
  // verdicts into the memo and outcome cache.
  AnalysisOutcome analyze(const Topology& topology);

  // Drops all derived state (memo + outcome cache).
  void clear();

  // Introspection for tests and instrumentation.
  std::size_t memo_entries() const { return memo_.size(); }
  std::size_t outcome_entries() const { return outcomes_.size(); }
  const Options& options() const { return options_; }

 private:
  // Hoisted to namespace scope (engine_cache.hpp) so the shared cache and
  // the per-engine memo store the identical record.
  using Verdict = NbfVerdict;

  // Memo key: the residual graph's edge fingerprint plus the failed set
  // (which also fixes the residual's active-node set — the node universe is
  // constant for the engine's one problem). Together they are exact cache
  // identity for the NBF's input. Failed links participate so mixed
  // frontiers memoize correctly: a residual reached by failing link (a, b)
  // and one reached by failing a degree-pruned switch could share an edge
  // set but are distinct NBF inputs only through the failed sets.
  struct MemoKey {
    GraphFp rfp;
    std::vector<NodeId> switches;
    std::vector<EdgeKey> links;
  };
  // Borrowed-key view for allocation-free lookups (the analyze hot path
  // probes the memo once per evaluated scenario).
  struct MemoRef {
    GraphFp rfp;
    const std::vector<NodeId>* switches = nullptr;
    const std::vector<EdgeKey>* links = nullptr;
  };
  struct MemoLess {
    using is_transparent = void;
    static bool less(const GraphFp& afp, const std::vector<NodeId>& asw,
                     const std::vector<EdgeKey>& al, const GraphFp& bfp,
                     const std::vector<NodeId>& bsw, const std::vector<EdgeKey>& bl) {
      if (afp != bfp) return afp < bfp;
      if (asw != bsw) {
        return std::lexicographical_compare(asw.begin(), asw.end(), bsw.begin(), bsw.end());
      }
      return std::lexicographical_compare(al.begin(), al.end(), bl.begin(), bl.end());
    }
    bool operator()(const MemoKey& a, const MemoKey& b) const {
      return less(a.rfp, a.switches, a.links, b.rfp, b.switches, b.links);
    }
    bool operator()(const MemoKey& a, const MemoRef& b) const {
      return less(a.rfp, a.switches, a.links, b.rfp, *b.switches, *b.links);
    }
    bool operator()(const MemoRef& a, const MemoKey& b) const {
      return less(a.rfp, *a.switches, *a.links, b.rfp, b.switches, b.links);
    }
  };

  // Outcome-cache key: the link-set fingerprint plus the full switch plan
  // (absent = -1, else the ASIL level), which together determine the
  // candidate set, the probability frontier, and every verdict.
  struct OutcomeKey {
    GraphFp fp;
    std::vector<signed char> plan;
  };
  struct OutcomeRef {
    GraphFp fp;
    const std::vector<signed char>* plan = nullptr;
  };
  struct OutcomeLess {
    using is_transparent = void;
    static bool less(const GraphFp& afp, const std::vector<signed char>& ap,
                     const GraphFp& bfp, const std::vector<signed char>& bp) {
      if (afp != bfp) return afp < bfp;
      return std::lexicographical_compare(ap.begin(), ap.end(), bp.begin(), bp.end());
    }
    bool operator()(const OutcomeKey& a, const OutcomeKey& b) const {
      return less(a.fp, a.plan, b.fp, b.plan);
    }
    bool operator()(const OutcomeKey& a, const OutcomeRef& b) const {
      return less(a.fp, a.plan, b.fp, *b.plan);
    }
    bool operator()(const OutcomeRef& a, const OutcomeKey& b) const {
      return less(a.fp, *a.plan, b.fp, b.plan);
    }
  };

  const StatelessNbf* nbf_;
  Options options_;

  // The session identity shared-cache operations run under (problem
  // fingerprint + option/NBF salt); valid iff options_.shared_cache.
  EngineSharedCache::Binding binding_;

  // Per-problem switch-id universe: borrowed from the staged constants when
  // the caller provided them, self-staged into plan_switches_ on the first
  // analysis otherwise. The plan scratch buffer is reused so the hot
  // outcome-cache probe allocates nothing (the engine serves one problem).
  const std::vector<NodeId>* switch_universe_ = nullptr;
  std::vector<NodeId> plan_switches_;
  std::vector<signed char> plan_;

  // (residual fingerprint, failed set) -> NBF verdict. std::map for
  // deterministic iteration and stable value addresses across inserts.
  std::map<MemoKey, Verdict, MemoLess> memo_;
  // (graph fingerprint, switch plan) -> complete analysis outcome.
  std::map<OutcomeKey, AnalysisOutcome, OutcomeLess> outcomes_;
};

}  // namespace nptsn
