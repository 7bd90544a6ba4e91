// The stateless Network Behavior Function (NBF) abstraction and the default
// heuristic run-time recovery mechanism.
//
// Paper, Section II-B: the stateless NBF is
//     Φ : Gt, Gf, B, FS  ->  FI', ER
// i.e. the flow state after recovery depends only on the topology and the
// failure scenario, never on the pre-failure flow state. ER is the set of
// (source, destination) end-station pairs whose bandwidth/timing guarantee
// could not be re-established; ER = ∅ means the recovery succeeded. For an
// empty failure the result is the initial flow state FI0.
#pragma once

#include <memory>
#include <utility>
#include <vector>

#include "net/topology.hpp"
#include "tsn/scheduler.hpp"

namespace nptsn {

// Sorted, deduplicated list of unrecovered (source, destination) pairs.
using ErrorSet = std::vector<std::pair<NodeId, NodeId>>;

struct NbfResult {
  FlowState state;  // FI'
  ErrorSet errors;  // ER

  bool ok() const { return errors.empty(); }
};

// A staged NBF session: per-topology precomputation (a CSR view of Gt,
// flow timings, slot-table layout) done once so that repeated recover()
// calls skip the per-call Graph copy and std::map walks of the generic
// path. Sessions are BIT-identical to the staging NBF's
// recover(topology, scenario) — same flow states, same errors, same throws
// on malformed scenarios — and safe to call concurrently from multiple
// threads (each call draws a private scratch from an internal pool). The
// staged topology must outlive the session and must not be mutated while
// the session is alive.
class NbfSession {
 public:
  virtual ~NbfSession() = default;

  virtual NbfResult recover(const FailureScenario& scenario) const = 0;
};

// Interface for recovery mechanisms. Implementations must be deterministic
// pure functions of (topology, scenario) — the failure analyzer and the RL
// environment both rely on that.
class StatelessNbf {
 public:
  virtual ~StatelessNbf() = default;

  // Re-establishes all flows of topology.problem() on Gt minus the failed
  // components.
  virtual NbfResult recover(const Topology& topology,
                            const FailureScenario& scenario) const = 0;

  // Optional staged fast path. Returns nullptr when the NBF has no staged
  // implementation (the default) or the instance falls outside its
  // envelope; callers then fall back to plain recover(). Implementations
  // must keep the session bit-identical to recover() — the verification
  // engine mixes both paths freely and memoizes across them.
  virtual std::unique_ptr<NbfSession> stage(const Topology& topology) const {
    (void)topology;
    return nullptr;
  }

  // FI0 / ER0: the initial flow state (empty failure scenario).
  NbfResult initial_state(const Topology& topology) const {
    return recover(topology, FailureScenario::none());
  }
};

// The default NBF, modeled after the heuristic run-time recovery of TT
// traffic in ref [9] of the paper (Kong et al., IEEE Access 2021), made
// stateless: every flow is re-routed on the residual network over its
// shortest feasible path and greedily slot-scheduled; when the shortest
// path cannot be scheduled, the next-shortest candidates (Yen) are tried.
class HeuristicRecovery final : public StatelessNbf {
 public:
  // path_candidates: how many alternative paths to try per flow before
  // declaring it unrecoverable (>= 1). discipline defaults to the no-wait
  // TT forwarding of the reference recovery mechanism.
  explicit HeuristicRecovery(int path_candidates = 3,
                             TtDiscipline discipline = TtDiscipline::kNoWait);

  NbfResult recover(const Topology& topology,
                    const FailureScenario& scenario) const override;

  // Packed staged session (src/tsn/packed.cpp). Non-null when the instance
  // fits the packed envelope (slots_per_base <= 64) and the global
  // tsn_kernel() is kFast; otherwise nullptr and callers use the scalar
  // reference path.
  std::unique_ptr<NbfSession> stage(const Topology& topology) const override;

 private:
  int path_candidates_;
  TtDiscipline discipline_;
};

}  // namespace nptsn
