// The RL environment interface and the observation format.
//
// An observation is the GCN input of Fig. 3, born in the sparse form the
// encoder kernels read: the graph's normalized adjacency A_hat (Eq. 4) as
// n x n CSR rows, the node features carrying the four encoded blocks
// (switch / link / flow / dynamic-action features) as n x F CSR rows, and a flat
// parameter vector (flow periods, frame sizes, base period) concatenated
// with the graph embedding before the actor/critic heads. The CSR objects
// are immutable and shared: copying an observation, storing it in the
// trajectory buffer and staging it for the network copy no matrix.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "nn/matrix.hpp"
#include "util/checkpoint.hpp"

namespace nptsn {

struct Observation {
  std::shared_ptr<const CsrRows> a_hat;     // n x n, self loops included, symmetric
  std::shared_ptr<const CsrRows> features;  // n rows, F columns
  Matrix params;                            // 1 x P non-graph parameters
};

// A sequential decision environment with a fixed-size, masked, discrete
// action space. Implementations: the NPTSN planning environment (dynamic
// SOAG actions) and the NeuroPlan baseline environment (static link actions).
class Environment {
 public:
  virtual ~Environment() = default;

  virtual int num_actions() const = 0;

  // Observation of the current state; valid until the next step/reset.
  virtual Observation observe() const = 0;

  // Mask over actions (1 = selectable). When every entry is 0 the episode
  // is stuck; the trainer treats that as an episode end with the
  // environment-provided penalty already applied by step().
  virtual const std::vector<std::uint8_t>& action_mask() const = 0;

  struct StepResult {
    double reward = 0.0;
    bool episode_end = false;
  };

  // Applies the (unmasked-index) action; requires action_mask()[a] == 1.
  virtual StepResult step(int action) = 0;

  // Starts a fresh episode.
  virtual void reset() = 0;

  // --- instrumentation --------------------------------------------------------
  // Cumulative counters of the environment's verification work (the dominant
  // environment cost in this codebase: per-step reliability analysis). The
  // trainer differences these across an epoch into EpochStats. verify_calls
  // counts logical Algorithm-3 NBF calls and is deterministic for a given
  // trajectory; the remaining fields describe how the verification engine
  // serviced them (cache-warmth dependent, never part of checkpoints).
  struct Stats {
    std::int64_t verify_calls = 0;
    std::int64_t verify_executed = 0;
    std::int64_t verify_memo_hits = 0;
    std::int64_t verify_residual_reuses = 0;
    std::int64_t verify_shared_hits = 0;
    double verify_seconds = 0.0;
    // Certified planning (audit_mode = every_solution): independent audits
    // run on analyzer-approved solutions, and how many were rejected.
    std::int64_t audits_run = 0;
    std::int64_t audits_rejected = 0;
  };
  virtual Stats stats() const { return {}; }

  // --- checkpoint/resume -----------------------------------------------------
  // Environments that can serialize their mid-episode state opt in by
  // overriding all three members. The trainer snapshots supporting
  // environments when writing a checkpoint, which makes an
  // interrupted-then-resumed run reproduce the uninterrupted run exactly.
  // Non-supporting environments are reset() on restore instead, so resume
  // still works but epoch statistics may diverge from the original run.
  virtual bool snapshot_supported() const { return false; }
  // Serializes the current state; only called when snapshot_supported().
  virtual void save_snapshot(ByteWriter& out) const { (void)out; }
  // Restores state written by save_snapshot; only called when
  // snapshot_supported(). Must throw (e.g. CheckpointError) on malformed input.
  virtual void load_snapshot(ByteReader& in) { (void)in; }
};

}  // namespace nptsn
