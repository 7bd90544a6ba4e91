#include "core/planner.hpp"

#include "analysis/auditor.hpp"
#include "analysis/engine_cache.hpp"
#include "rl/warm_start.hpp"
#include "util/expect.hpp"

namespace nptsn {

PlanningResult plan(const PlanningProblem& problem, const StatelessNbf& nbf,
                    const NptsnConfig& config, const Trainer::EpochCallback& on_epoch) {
  problem.validate();

  SolutionRecorder recorder;
  const ObservationEncoder encoder(problem, config.path_actions);
  const Soag soag(problem, config.path_actions);

  ActorCritic::Config net_config;
  net_config.num_nodes = problem.num_nodes();
  net_config.feature_dim = encoder.feature_dim();
  net_config.param_dim = encoder.param_dim();
  net_config.num_actions = soag.num_actions();
  net_config.gcn_layers = config.gcn_layers;
  net_config.embedding_dim = config.embedding_dim;
  net_config.encoder = config.use_gat_encoder ? GraphEncoder::kGat : GraphEncoder::kGcn;
  net_config.actor_hidden = config.mlp_hidden;
  net_config.critic_hidden = config.mlp_hidden;

  Rng rng(config.seed);
  ActorCritic net(net_config, rng);
  if (config.stage_cache) net.set_stage_cache(config.stage_cache);
  // Warm start (opt-in): replace the fresh initialization with the best
  // same-architecture weights any earlier session published. Consumes no
  // randomness, so a store miss leaves the run identical to a cold one. A
  // checkpoint resume below still takes precedence (the trainer restores
  // the checkpointed weights over these).
  if (config.warm_start && config.policy_store) config.policy_store->warm_start(net);

  TrainerConfig trainer_config = prepare_training(config, rng.next_u64());
  trainer_config.checkpoint_path = config.checkpoint_path;
  trainer_config.checkpoint_interval = config.checkpoint_interval;
  trainer_config.checkpoint_on_stop = config.checkpoint_on_stop;

  // Engine per-problem constants, staged ONCE for the whole session: every
  // worker env's engine borrows them instead of re-deriving per environment.
  const std::shared_ptr<const EngineStaging> staging =
      config.use_verification_engine ? make_engine_staging(problem) : nullptr;

  Rng env_seeder(rng.next_u64());
  Trainer trainer(
      net,
      [&] {
        return std::make_unique<PlanningEnv>(problem, nbf, config, recorder,
                                             env_seeder.split(), staging);
      },
      trainer_config);

  // Persist the best-verified-solution-so-far alongside the training state,
  // so a resumed run never loses (or re-reports worse than) what an earlier
  // process already verified.
  trainer.set_extra_checkpoint_section(
      [&recorder](ByteWriter& out) {
        out.i64(recorder.solutions_found());
        const auto best = recorder.best();
        out.u8(best ? 1 : 0);
        if (best) save_topology(*best, out);
      },
      [&recorder, &problem](ByteReader& in) {
        const std::int64_t found = in.i64();
        std::optional<Topology> best;
        if (in.u8() != 0) best = load_topology(problem, in);
        recorder.restore(std::move(best), found);
      });

  PlanningResult result;
  result.history = trainer.train(on_epoch);
  result.feasible = recorder.has_solution();
  result.best = recorder.best();
  result.best_cost = recorder.best_cost();
  result.solutions_found = recorder.solutions_found();
  result.stopped_reason = trainer.stopped_reason();
  result.epochs_completed = trainer.next_epoch();
  result.anomalies = trainer.ledger().entries();
  result.anomalies_total = trainer.ledger().total();
  result.rollbacks = trainer.total_rollbacks();
  result.quarantined_worker_epochs = trainer.total_quarantined();

  // Offer the trained weights to the warm-start store (kept only when they
  // beat the best same-architecture entry). Publishing is unconditional on
  // the warm_start flag: a cold session's result may still seed later
  // opted-in sessions, and publishing changes nothing about this run.
  if (config.policy_store && result.feasible) {
    config.policy_store->publish(net, result.best_cost);
  }

  // Certified planning: the plan is only returned feasible once its
  // reliability certificate — evidence rebuilt from the topology, not the
  // training run — audits clean through the independent checker. A failed
  // audit rejects the plan gracefully: feasible flips to false and the
  // audit report lands in the diagnostics, but plan() still returns.
  for (const EpochStats& epoch : result.history) {
    result.audits_run += epoch.audits_run;
    result.audits_rejected += epoch.audits_rejected;
  }
  result.audit_failures = recorder.rejection_summaries();
  if (config.audit_mode != AuditMode::kOff && result.best) {
    ++result.audits_run;
    CertificateOptions cert_options;
    cert_options.min_order = config.min_frontier_order;
    cert_options.include_links = config.frontier_include_links;
    cert_options.deadline = config.deadline.get();
    AuditOptions audit_options;
    audit_options.deadline = config.deadline.get();
    CertificateBuildResult built;
    bool clean = false;
    std::string why;
    try {
      built = build_certificate(*result.best, nbf, cert_options);
      clean = built.ok;
      if (!built.ok) {
        why = "final audit: certificate build failed (NBF could not prove a "
              "non-safe scenario)";
      } else {
        AuditReport report = audit_certificate(problem, built.certificate, audit_options);
        clean = report.ok;
        if (!report.ok) why = "final audit: " + report.summary();
      }
    } catch (const DeadlineExceeded& e) {
      // A truncated audit is not a verdict: reject the plan gracefully (the
      // guarantee stays unconfirmed) and report the budget that fired. This
      // is the envelope's termination contract — an adversarial instance
      // whose final audit would enumerate forever still returns promptly.
      clean = false;
      why = "final audit aborted: " + e.reason();
      if (result.stopped_reason.empty()) result.stopped_reason = e.reason();
    }
    if (clean) {
      result.certificate = std::move(built.certificate);
      if (!config.certificate_path.empty()) {
        save_certificate_file(config.certificate_path, *result.certificate);
      }
    } else {
      ++result.audits_rejected;
      result.audit_failures.push_back(std::move(why));
      result.feasible = false;
      result.best.reset();
      result.best_cost = 0.0;
    }
  }
  return result;
}

TrainerConfig prepare_training(const NptsnConfig& config, std::uint64_t seed) {
  set_nn_kernel(config.nn_kernel);
  set_nn_kernel_threads(config.nn_threads);
  set_tsn_kernel(config.tsn_kernel);

  TrainerConfig trainer_config;
  trainer_config.epochs = config.epochs;
  trainer_config.steps_per_epoch = config.steps_per_epoch;
  trainer_config.gamma = config.discount_factor;
  trainer_config.gae_lambda = config.gae_lambda;
  trainer_config.actor_lr = config.actor_lr;
  trainer_config.critic_lr = config.critic_lr;
  trainer_config.ppo.clip_ratio = config.clip_ratio;
  trainer_config.ppo.train_actor_iters = config.train_actor_iters;
  trainer_config.ppo.train_critic_iters = config.train_critic_iters;
  trainer_config.ppo.target_kl = config.target_kl;
  trainer_config.num_workers = config.num_workers;
  trainer_config.seed = seed;
  trainer_config.max_epoch_retries = config.max_epoch_retries;
  trainer_config.health.enabled = config.health_checks;
  trainer_config.health.max_rollbacks = config.max_rollbacks;
  trainer_config.health.max_grad_norm = config.max_grad_norm;
  trainer_config.health.max_approx_kl = config.max_approx_kl;
  trainer_config.health.min_mean_entropy = config.min_mean_entropy;
  trainer_config.health.max_critic_loss = config.max_critic_loss;
  trainer_config.max_wall_seconds = config.max_wall_seconds;
  trainer_config.max_total_steps = config.max_total_steps;
  trainer_config.deadline = config.deadline.get();
  return trainer_config;
}

std::array<int, kNumAsilLevels> switch_asil_histogram(const Topology& topology) {
  std::array<int, kNumAsilLevels> histogram{};
  for (const NodeId v : topology.selected_switches()) {
    ++histogram[static_cast<std::size_t>(topology.switch_asil(v))];
  }
  return histogram;
}

}  // namespace nptsn
