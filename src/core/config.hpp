// NPTSN hyper-parameters. Defaults are the paper's Table II (which in turn
// follows the SpinningUp PPO defaults).
#pragma once

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "nn/matrix.hpp"
#include "tsn/sim_kernels.hpp"
#include "util/deadline.hpp"

namespace nptsn {

// Cross-session shared stores (planning-as-a-service, DESIGN.md §13). Held
// as shared_ptr to forward-declared types so this header stays light; the
// planner wires them through when set.
class EngineSharedCache;    // analysis/engine_cache.hpp
class AdjacencyStageCache;  // nn/stage_cache.hpp
class PolicyStore;          // rl/warm_start.hpp

// Independent-audit policy for analyzer-approved solutions (certified
// planning, src/analysis/auditor). kFinal re-derives a reliability
// certificate for the returned best plan and audits it once at the end of
// plan(); kEverySolution additionally audits every solution before it may
// enter the best-solution recorder. Audits reject unsound solutions
// gracefully (diagnostics, never a crash) and are verdict-preserving on
// honest runs: they consume no environment randomness and change no rewards.
enum class AuditMode { kOff, kFinal, kEverySolution };

struct NptsnConfig {
  // --- network architecture -------------------------------------------------
  int gcn_layers = 2;
  std::vector<int> mlp_hidden = {256, 256};
  // Graph embedding features; 0 means the paper's default of 2 * |Vc|.
  int embedding_dim = 0;
  // Encoder ablation: true swaps the GCN for a GAT (Section IV-C discusses
  // and rejects GAT; bench/ablation_encoder compares them).
  bool use_gat_encoder = false;

  // --- action generation ----------------------------------------------------
  int path_actions = 16;  // K

  // --- training -------------------------------------------------------------
  int epochs = 256;           // maxepoch
  int steps_per_epoch = 2048; // maxstep
  // "Reward scaling factor 10^3": rewards are divided by this to land in
  // [-1, 0).
  double reward_scale = 1e3;
  double clip_ratio = 0.2;      // PPO clip epsilon
  double actor_lr = 3e-4;
  double critic_lr = 1e-3;
  double gae_lambda = 0.97;
  double discount_factor = 0.99;
  int train_actor_iters = 80;   // SpinningUp defaults
  int train_critic_iters = 80;
  double target_kl = 0.01;

  // --- execution ------------------------------------------------------------
  // Parallel rollout workers (the paper uses 8 MPI ranks).
  int num_workers = 1;
  std::uint64_t seed = 1;

  // --- NN compute kernels -----------------------------------------------------
  // GEMM kernel family for every network forward/backward pass (DESIGN.md
  // §11). kFast is the register-blocked, cache-tiled family with fused
  // bias/activation epilogues; kReference keeps the original naive loops as
  // the differential-testing ground truth. Both are deterministic; fast
  // results can differ from reference by FMA contraction only (~1e-15
  // relative per op), so training trajectories may diverge between the two
  // families but never between two runs of the same family. plan() installs
  // this process-globally (set_nn_kernel), so concurrent planners in one
  // process should agree on it.
  NnKernel nn_kernel = NnKernel::kFast;
  // Threads for the parallel fast-GEMM path on large shapes (1 = serial).
  // Results are bit-identical at every setting; the parallel path only pays
  // off when steps_per_epoch x network width is large, and it shares cores
  // with num_workers. In the batched GCN encoder only the forward uses the
  // pool (it splits the graphs of a batch); its backward streams the batch
  // serially. The MLP heads' GEMMs and their gradients use it throughout.
  int nn_threads = 1;

  // --- reliability verification ----------------------------------------------
  // Per-step failure analysis through the incremental verification engine
  // instead of a cold sequential FailureAnalyzer run. Verdict, first
  // counterexample, error set, and the logical instrumentation counters are
  // identical by construction (differential-tested), so this knob never
  // changes training trajectories — only how fast analyses complete.
  bool use_verification_engine = true;
  // Verification is serial: Algorithm 3 lets each survivor prune the
  // scenarios after it, so one analysis has no useful parallelism
  // (DESIGN.md §8). Fixed at 1, kept so run stamps can report it.
  static constexpr int verification_threads = 1;

  // --- TSN compute kernels ----------------------------------------------------
  // Whether the stateless NBF runs as a bitset-packed staged session
  // (kFast) or through the scalar HeuristicRecovery::recover (kReference;
  // DESIGN.md §16). The two are bit-identical by contract — every slot
  // decision is integer arithmetic, so unlike nn_kernel there is no FP
  // divergence and no salt: verdicts, counterexamples, certificates, and
  // training trajectories are byte-identical either way (differential-tested).
  // plan() installs this process-globally (set_tsn_kernel), like nn_kernel.
  TsnKernel tsn_kernel = TsnKernel::kFast;

  // --- failure frontier --------------------------------------------------------
  // Frontier floor: every failure scenario of order <= min_frontier_order is
  // verified (and certified) even when its Eq. 2 probability falls below the
  // reliability goal — "all double faults" hardening is min_frontier_order =
  // 2. Deepens maxord when the probability frontier alone is shallower. 0 is
  // exactly Algorithm 3.
  int min_frontier_order = 0;
  // Mixed link/switch frontiers: planned links fail as first-class
  // candidates next to switches. A mixed scenario survives via direct NBF
  // recovery or its Eq. 6 switch projection (when the projection covers
  // every failed link); certificates carry mixed proofs and the auditor
  // re-enumerates the same mixed frontier independently.
  bool frontier_include_links = false;

  // --- cross-session shared caches (planning-as-a-service) --------------------
  // All three stores are OPTIONAL (null = the session runs self-contained,
  // exactly as before) and shared: a long-lived process — the planner
  // service above all — installs one instance of each into every session's
  // config so warm state crosses session boundaries.
  //
  // Exact reuse, preserved determinism: verdict/outcome sharing and staged-
  // adjacency reuse serve bit-identical replays of pure functions, so a
  // session's plan, certificate, and training trajectory are IDENTICAL with
  // these caches on or off (differential-tested).
  std::shared_ptr<EngineSharedCache> engine_shared_cache;
  std::shared_ptr<AdjacencyStageCache> stage_cache;
  // Disambiguates NBF construction identity inside the shared cache: two
  // sessions may share verdicts only when their (problem bytes, this salt)
  // agree. Callers that pass a non-default-constructed NBF into plan() MUST
  // set a distinct salt per construction. Must be below 2^48 when
  // engine_shared_cache is set (the engine keeps its option bits in the low
  // 16 bits of the binding salt and rejects larger values).
  std::uint64_t cache_salt = 0;
  // Warm-started policy weights are NOT result-preserving (a different
  // initialization means a different training trajectory — usually better,
  // never unsound), hence the separate explicit opt-in below.
  std::shared_ptr<PolicyStore> policy_store;
  bool warm_start = false;
  // Also checkpoint when training stops early on a budget/deadline (needs
  // checkpoint_path). The service's graceful shutdown cancels session
  // deadlines and relies on this to persist in-flight sessions for resume.
  bool checkpoint_on_stop = false;

  // --- certified planning -----------------------------------------------------
  AuditMode audit_mode = AuditMode::kOff;
  // When non-empty and the final plan audits clean (audit_mode != kOff), its
  // reliability certificate is written here through the checkpoint format
  // (re-checkable offline with tools/nptsn_audit).
  std::string certificate_path;

  // --- crash resilience -------------------------------------------------------
  // When non-empty, plan() checkpoints the full training state (network,
  // optimizers, per-worker RNG/environment state, best verified solution)
  // to this file every checkpoint_interval epochs, written atomically and
  // checksummed, and resumes from it when the file already exists. An
  // interrupted-then-resumed run reproduces the uninterrupted run exactly.
  std::string checkpoint_path;
  int checkpoint_interval = 1;
  // Mid-epoch crash recovery: retry a faulted epoch from the last completed
  // epoch boundary up to this many times before propagating the error.
  int max_epoch_retries = 0;

  // --- training health supervisor ---------------------------------------------
  // Self-healing training (DESIGN.md §10): numeric sentinels over the rollout
  // and the PPO update, divergence rollback to the last-good in-memory
  // snapshot with a deterministically perturbed RNG stream, and per-worker
  // fault quarantine (a throwing environment is reset and the epoch completes
  // from the surviving workers). Honest runs are bit-identical with the
  // supervisor on or off; every incident lands in PlanningResult::anomalies.
  bool health_checks = false;
  // Divergence rollbacks before the run stops gracefully with
  // stopped_reason "diverged: ...". 0 = stop on the first tripped sentinel.
  int max_rollbacks = 2;
  // Divergence heuristics; 0 disables the respective sentinel.
  double max_grad_norm = 0.0;    // gradient L2 norm ceiling
  double max_approx_kl = 0.0;    // |approximate KL| ceiling per update
  double min_mean_entropy = 0.0; // mean policy entropy floor per epoch
  double max_critic_loss = 0.0;  // critic loss ceiling

  // --- run budget -------------------------------------------------------------
  // Graceful degradation: stop cleanly at an epoch boundary once the budget
  // is exhausted and return the best reliability-verified topology found so
  // far (never a partially verified one); PlanningResult::stopped_reason
  // reports which budget fired. 0 disables the respective limit.
  double max_wall_seconds = 0.0;
  std::int64_t max_total_steps = 0;

  // --- hardened execution envelope --------------------------------------------
  // Cooperative deadline token (util/deadline) threaded through every
  // potentially long-running loop in plan(): rollout steps, the failure
  // analyzer / verification engine, certificate construction, and the final
  // audit. Unlike the budgets above — which only fire at epoch boundaries —
  // the token is polled from INSIDE each analysis, so even a single
  // adversarial instance whose first verification would run for hours
  // terminates promptly with PlanningResult::stopped_reason set. Training
  // stops restore the last epoch-boundary snapshot and return the best
  // verified solution found so far; an expired final audit rejects the plan
  // gracefully. Shared ownership so config copies keep the token alive; null
  // means unlimited.
  std::shared_ptr<Deadline> deadline;
};

}  // namespace nptsn
