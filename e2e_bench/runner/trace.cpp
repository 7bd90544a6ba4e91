#include "runner/trace.hpp"

#include <stdexcept>
#include <utility>

#include "analysis/auditor.hpp"
#include "analysis/engine_cache.hpp"
#include "rl/warm_start.hpp"

namespace e2e {

using namespace nptsn;

double seconds_between(Clock::time_point a, Clock::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

namespace {

std::int64_t nanos_since(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() - start).count();
}

class TracedSession final : public NbfSession {
 public:
  TracedSession(std::unique_ptr<NbfSession> inner, NbfCounters& counters)
      : inner_(std::move(inner)), counters_(&counters) {}

  NbfResult recover(const FailureScenario& scenario) const override {
    const auto start = Clock::now();
    NbfResult result = inner_->recover(scenario);
    counters_->recover_ns.fetch_add(nanos_since(start), std::memory_order_relaxed);
    counters_->recovers.fetch_add(1, std::memory_order_relaxed);
    return result;
  }

 private:
  std::unique_ptr<NbfSession> inner_;
  NbfCounters* counters_;
};

// Session-wide span state. The trainer runs one worker here, so every
// environment call and the epoch callback happen on one thread.
struct SessionSpans {
  LayerTotals* totals = nullptr;
  Clock::time_point epoch_start;
  Clock::time_point last_env_call;
};

class TracedEnv final : public Environment {
 public:
  TracedEnv(std::unique_ptr<PlanningEnv> inner, SessionSpans& spans)
      : inner_(std::move(inner)), spans_(&spans) {}

  int num_actions() const override { return inner_->num_actions(); }

  Observation observe() const override {
    const auto start = Clock::now();
    Observation obs = inner_->observe();
    const auto end = Clock::now();
    spans_->totals->observe_s += seconds_between(start, end);
    ++spans_->totals->observes;
    spans_->last_env_call = end;
    return obs;
  }

  const std::vector<std::uint8_t>& action_mask() const override { return inner_->action_mask(); }

  StepResult step(int action) override {
    const double verify_before = inner_->stats().verify_seconds;
    const auto start = Clock::now();
    const StepResult result = inner_->step(action);
    const auto end = Clock::now();
    spans_->totals->env_step_s += seconds_between(start, end);
    spans_->totals->step_verify_s += inner_->stats().verify_seconds - verify_before;
    ++spans_->totals->env_steps;
    spans_->last_env_call = end;
    return result;
  }

  void reset() override {
    const auto start = Clock::now();
    inner_->reset();
    const auto end = Clock::now();
    spans_->totals->reset_s += seconds_between(start, end);
    ++spans_->totals->episodes;
    spans_->last_env_call = end;
  }

  Stats stats() const override { return inner_->stats(); }
  bool snapshot_supported() const override { return inner_->snapshot_supported(); }
  void save_snapshot(ByteWriter& out) const override { inner_->save_snapshot(out); }
  void load_snapshot(ByteReader& in) override { inner_->load_snapshot(in); }

 private:
  std::unique_ptr<PlanningEnv> inner_;
  SessionSpans* spans_;
};

}  // namespace

double LayerTotals::unattributed_s() const {
  return wall_s - session_setup_s - rollout_s - update_s - certificate_s - audit_s;
}

void LayerTotals::add(const LayerTotals& o) {
  wall_s += o.wall_s;
  session_setup_s += o.session_setup_s;
  rollout_s += o.rollout_s;
  update_s += o.update_s;
  env_step_s += o.env_step_s;
  step_verify_s += o.step_verify_s;
  observe_s += o.observe_s;
  reset_s += o.reset_s;
  env_steps += o.env_steps;
  observes += o.observes;
  episodes += o.episodes;
  verify_s += o.verify_s;
  nbf_calls += o.nbf_calls;
  nbf_executed += o.nbf_executed;
  memo_hits += o.memo_hits;
  residual_reuses += o.residual_reuses;
  shared_hits += o.shared_hits;
  nbf_recover_s += o.nbf_recover_s;
  nbf_recovers += o.nbf_recovers;
  nbf_stage_s += o.nbf_stage_s;
  nbf_stages += o.nbf_stages;
  certificate_s += o.certificate_s;
  audit_s += o.audit_s;
}

NbfResult TracedNbf::recover(const Topology& topology, const FailureScenario& scenario) const {
  const auto start = Clock::now();
  NbfResult result = inner_->recover(topology, scenario);
  counters_->recover_ns.fetch_add(nanos_since(start), std::memory_order_relaxed);
  counters_->recovers.fetch_add(1, std::memory_order_relaxed);
  return result;
}

std::unique_ptr<NbfSession> TracedNbf::stage(const Topology& topology) const {
  const auto start = Clock::now();
  std::unique_ptr<NbfSession> session = inner_->stage(topology);
  counters_->stage_ns.fetch_add(nanos_since(start), std::memory_order_relaxed);
  counters_->stages.fetch_add(1, std::memory_order_relaxed);
  if (!session) return nullptr;
  return std::make_unique<TracedSession>(std::move(session), *counters_);
}

// Mirrors src/core/planner.cpp step for step; any divergence shows up as a
// digest mismatch against plan() in the benchmark's correctness checks.
TracedResult traced_plan(const PlanningProblem& problem, const StatelessNbf& nbf,
                         const NptsnConfig& config) {
  if (config.num_workers != 1) {
    throw std::invalid_argument("traced_plan: the epoch split needs num_workers == 1");
  }
  if (!config.checkpoint_path.empty()) {
    throw std::invalid_argument("traced_plan: checkpointed sessions are not traced");
  }
  const auto start = Clock::now();
  TracedResult traced;
  LayerTotals& layers = traced.layers;
  NbfCounters nbf_counters;
  const TracedNbf traced_nbf(nbf, nbf_counters);
  SessionSpans spans;
  spans.totals = &layers;

  problem.validate();
  set_nn_kernel(config.nn_kernel);
  set_nn_kernel_threads(config.nn_threads);
  set_tsn_kernel(config.tsn_kernel);

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
  if (config.warm_start && config.policy_store) config.policy_store->warm_start(net);

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
  trainer_config.seed = rng.next_u64();
  trainer_config.checkpoint_interval = config.checkpoint_interval;
  trainer_config.checkpoint_on_stop = config.checkpoint_on_stop;
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

  const std::shared_ptr<const EngineStaging> staging =
      config.use_verification_engine ? make_engine_staging(problem) : nullptr;

  Rng env_seeder(rng.next_u64());
  std::vector<const TracedEnv*> envs;
  Trainer trainer(
      net,
      [&] {
        auto env = std::make_unique<TracedEnv>(
            std::make_unique<PlanningEnv>(problem, traced_nbf, config, recorder,
                                          env_seeder.split(), staging),
            spans);
        envs.push_back(env.get());
        return env;
      },
      trainer_config);

  PlanningResult& result = traced.result;
  spans.epoch_start = Clock::now();
  spans.last_env_call = spans.epoch_start;
  layers.session_setup_s = seconds_between(start, spans.epoch_start);
  result.history = trainer.train([&spans, &layers](const EpochStats&) {
    const auto now = Clock::now();
    layers.rollout_s += seconds_between(spans.epoch_start, spans.last_env_call);
    layers.update_s += seconds_between(spans.last_env_call, now);
    spans.epoch_start = now;
  });
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

  if (config.policy_store && result.feasible) {
    config.policy_store->publish(net, result.best_cost);
  }

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
      const auto cert_start = Clock::now();
      built = build_certificate(*result.best, traced_nbf, cert_options);
      layers.certificate_s = seconds_between(cert_start, Clock::now());
      clean = built.ok;
      if (!built.ok) {
        why = "final audit: certificate build failed (NBF could not prove a "
              "non-safe scenario)";
      } else {
        const auto audit_start = Clock::now();
        AuditReport report = audit_certificate(problem, built.certificate, audit_options);
        layers.audit_s = seconds_between(audit_start, Clock::now());
        clean = report.ok;
        if (!report.ok) why = "final audit: " + report.summary();
      }
    } catch (const DeadlineExceeded& e) {
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

  for (const TracedEnv* env : envs) {
    const Environment::Stats stats = env->stats();
    layers.verify_s += stats.verify_seconds;
    layers.nbf_calls += stats.verify_calls;
    layers.nbf_executed += stats.verify_executed;
    layers.memo_hits += stats.verify_memo_hits;
    layers.residual_reuses += stats.verify_residual_reuses;
    layers.shared_hits += stats.verify_shared_hits;
  }
  layers.nbf_recover_s = static_cast<double>(nbf_counters.recover_ns.load()) * 1e-9;
  layers.nbf_recovers = nbf_counters.recovers.load();
  layers.nbf_stage_s = static_cast<double>(nbf_counters.stage_ns.load()) * 1e-9;
  layers.nbf_stages = nbf_counters.stages.load();
  layers.wall_s = seconds_between(start, Clock::now());
  return traced;
}

}  // namespace e2e
