#include "rl/trainer.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <optional>

#include "nn/matrix.hpp"
#include "rl/distribution.hpp"
#include "rl/snapshot.hpp"
#include "util/expect.hpp"

namespace nptsn {
namespace {

// First NaN/Inf entry of a matrix, for the anomaly trigger value (only
// called once a sentinel already tripped — never on the hot path).
double first_non_finite(const Matrix& m) {
  for (int r = 0; r < m.rows(); ++r) {
    for (int c = 0; c < m.cols(); ++c) {
      if (!std::isfinite(m.at(r, c))) return m.at(r, c);
    }
  }
  return 0.0;
}

}  // namespace

struct Trainer::Worker {
  std::unique_ptr<Environment> env;
  Rng rng;
  TrajectoryBuffer buffer;
  double episode_reward = 0.0;
  // Episode returns finished during the current epoch.
  std::vector<double> finished_returns;

  // --- health supervisor scratch (never checkpointed) -----------------------
  // Fault recorded this epoch; the worker was quarantined (its partial
  // rollout discarded, its environment reset) and contributed no steps.
  std::optional<Anomaly> fault;
  // The environment reset itself threw: the worker sits out entire epochs
  // until a revival reset succeeds at an epoch start (or a rollback restores
  // its last-good snapshot).
  bool dead = false;
  // Per-epoch policy-entropy accumulator for the entropy-collapse sentinel.
  double entropy_sum = 0.0;
  int entropy_steps = 0;

  Worker(std::unique_ptr<Environment> e, Rng r, double gamma, double lambda)
      : env(std::move(e)), rng(r), buffer(gamma, lambda) {}
};

Trainer::Trainer(ActorCritic& net, const EnvFactory& factory, const TrainerConfig& config)
    : net_(&net),
      config_(config),
      actor_opt_(net.actor_parameters(), {.learning_rate = config.actor_lr}),
      critic_opt_(net.critic_parameters(), {.learning_rate = config.critic_lr}) {
  NPTSN_EXPECT(config.epochs >= 1, "need at least one epoch");
  NPTSN_EXPECT(config.num_workers >= 1, "need at least one worker");
  NPTSN_EXPECT(config.steps_per_epoch >= config.num_workers,
               "need at least one step per worker");
  NPTSN_EXPECT(config.checkpoint_path.empty() || config.checkpoint_interval >= 1,
               "checkpoint interval must be at least one epoch");
  NPTSN_EXPECT(config.max_epoch_retries >= 0, "retry count must be non-negative");
  NPTSN_EXPECT(config.max_wall_seconds >= 0.0, "wall-clock budget must be non-negative");
  NPTSN_EXPECT(config.max_total_steps >= 0, "step budget must be non-negative");
  NPTSN_EXPECT(config.health.max_rollbacks >= 0, "rollback count must be non-negative");
  // A poisoned PPO iteration must abort instead of running NaN gradients
  // through the remaining iterations — otherwise the rollback snapshot is
  // the only finite state left and every retry starts from scratch.
  if (config_.health.enabled) config_.ppo.check_numerics = true;

  Rng seeder(config.seed);
  for (int w = 0; w < config.num_workers; ++w) {
    auto env = factory();
    NPTSN_EXPECT(env != nullptr, "environment factory returned null");
    NPTSN_EXPECT(env->num_actions() == net.config().num_actions,
                 "environment action count does not match the network");
    workers_.push_back(std::make_unique<Worker>(std::move(env), seeder.split(),
                                                config.gamma, config.gae_lambda));
  }
  if (config.num_workers > 1) pool_ = std::make_unique<ThreadPool>(config.num_workers);
}

Trainer::~Trainer() = default;

EpochStats Trainer::run_epoch(int epoch) {
  const int steps_per_worker = config_.steps_per_epoch / config_.num_workers;
  const bool supervise = config_.health.enabled;

  // Baseline for the per-epoch verification-work delta (cumulative counters).
  std::vector<Environment::Stats> stats_before;
  stats_before.reserve(workers_.size());
  for (const auto& worker : workers_) stats_before.push_back(worker->env->stats());

  // The rollout body. Forward passes only read shared network parameters, so
  // concurrent workers are safe; each worker owns its env/rng/buffer. The
  // sampling path below (masked_probabilities + sample_weighted + log) is the
  // same with the supervisor on or off; the supervisor only additionally
  // reads the probs for entropy and scans for NaN, so enabling it is
  // bit-identical to a supervisor-off rollout.
  auto collect_body = [&](Worker& worker, int w) {
    for (int step = 0; step < steps_per_worker; ++step) {
      // One tick per environment step. The pool aggregates exceptions
      // deterministically (lowest worker index wins), so a mid-rollout
      // expiry surfaces identically under any worker count.
      if (config_.deadline) config_.deadline->poll();
      StepRecord record;
      record.obs = worker.env->observe();
      record.mask = worker.env->action_mask();

      const auto out = net_->forward(record.obs);
      const Matrix& logits = out.logits.value();
      if (supervise && !logits.all_finite()) {
        throw NumericAnomalyError(Anomaly{AnomalyCode::kNonFiniteLogits, epoch, w,
                                          first_non_finite(logits),
                                          "policy logits at rollout step " +
                                              std::to_string(step)});
      }
      const auto probs = masked_probabilities(logits, record.mask);
      record.action = worker.rng.sample_weighted(probs);
      record.log_prob = std::log(probs[static_cast<std::size_t>(record.action)]);
      record.value = out.value.item();
      if (supervise) {
        if (!std::isfinite(record.value)) {
          throw NumericAnomalyError(Anomaly{AnomalyCode::kNonFiniteValue, epoch, w,
                                            record.value,
                                            "critic value at rollout step " +
                                                std::to_string(step)});
        }
        worker.entropy_sum += entropy_of(probs);
        ++worker.entropy_steps;
      }

      const auto result = worker.env->step(record.action);
      record.reward = result.reward;
      worker.episode_reward += result.reward;
      worker.buffer.store(std::move(record));

      if (result.episode_end) {
        worker.buffer.finish_path(0.0);
        worker.finished_returns.push_back(worker.episode_reward);
        worker.episode_reward = 0.0;
        worker.env->reset();
      }
    }
    if (worker.buffer.has_open_path()) {
      // Bootstrap the value of the state the epoch cut the path at.
      const auto out = net_->forward(worker.env->observe());
      const double last_value = out.value.item();
      if (supervise && !std::isfinite(last_value)) {
        throw NumericAnomalyError(Anomaly{AnomalyCode::kNonFiniteValue, epoch, w,
                                          last_value, "bootstrap value at epoch cut"});
      }
      worker.buffer.finish_path(last_value);
    }
  };

  // Quarantine: the faulting worker's partial rollout must not leak into the
  // merged batch, and its environment may be mid-corrupt — discard and reset.
  // Only touches the worker's own state, so it is safe under parallel_for;
  // the ledger is updated after the barrier, in worker-index order.
  auto quarantine = [&](Worker& worker, int w, AnomalyCode code, const std::string& what) {
    worker.fault = Anomaly{code, epoch, w, 0.0, what};
    worker.buffer.clear();
    worker.finished_returns.clear();
    worker.episode_reward = 0.0;
    try {
      worker.env->reset();
    } catch (...) {
      worker.dead = true;  // revival is attempted at the next epoch start
    }
  };

  auto collect = [&](int w) {
    Worker& worker = *workers_[static_cast<std::size_t>(w)];
    worker.fault.reset();
    worker.finished_returns.clear();
    worker.entropy_sum = 0.0;
    worker.entropy_steps = 0;
    if (!supervise) {
      collect_body(worker, w);
      return;
    }
    if (worker.dead) {
      try {
        worker.env->reset();
        worker.episode_reward = 0.0;
        worker.dead = false;
      } catch (const std::exception& e) {
        worker.fault = Anomaly{AnomalyCode::kWorkerException, epoch, w, 0.0,
                               std::string("worker environment still dead: ") + e.what()};
        return;  // sits this epoch out
      }
    }
    try {
      collect_body(worker, w);
    } catch (const NumericAnomalyError&) {
      // A poisoned network is a whole-run problem, not a single-worker one:
      // escalate to the trainer's rollback path instead of quarantining.
      throw;
    } catch (const DeadlineExceeded&) {
      // An expired run deadline is a whole-run stop, never a worker fault:
      // quarantining would reset the environment and keep training.
      throw;
    } catch (const MaskedDistributionError& e) {
      quarantine(worker, w, AnomalyCode::kAllActionsMasked, e.what());
    } catch (const std::exception& e) {
      quarantine(worker, w, AnomalyCode::kWorkerException, e.what());
    }
  };

  if (pool_) {
    pool_->parallel_for(static_cast<int>(workers_.size()), collect);
  } else {
    collect(0);
  }

  // Merge worker buffers deterministically (by worker index). Quarantined
  // workers contribute an empty buffer; their incidents land in the ledger
  // here, single-threaded and in index order.
  TrajectoryBuffer merged(config_.gamma, config_.gae_lambda);
  EpochStats stats;
  stats.epoch = epoch;
  double return_sum = 0.0;
  double entropy_sum = 0.0;
  int entropy_steps = 0;
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    Worker& worker = *workers_[w];
    if (worker.fault) {
      ledger_.add(*worker.fault);
      ++stats.quarantined_workers;
      ++total_quarantined_;
    }
    merged.absorb(std::move(worker.buffer));
    for (const double r : worker.finished_returns) {
      return_sum += r;
      ++stats.episodes_finished;
    }
    entropy_sum += worker.entropy_sum;
    entropy_steps += worker.entropy_steps;
  }
  if (stats.episodes_finished > 0) {
    stats.mean_episode_reward = return_sum / stats.episodes_finished;
  }
  if (entropy_steps > 0) stats.mean_entropy = entropy_sum / entropy_steps;
  for (std::size_t w = 0; w < workers_.size(); ++w) {
    const auto now = workers_[w]->env->stats();
    const auto& before = stats_before[w];
    stats.verify_nbf_calls += now.verify_calls - before.verify_calls;
    stats.verify_nbf_executed += now.verify_executed - before.verify_executed;
    stats.verify_memo_hits += now.verify_memo_hits - before.verify_memo_hits;
    stats.verify_residual_reuses += now.verify_residual_reuses - before.verify_residual_reuses;
    stats.verify_shared_hits += now.verify_shared_hits - before.verify_shared_hits;
    stats.verify_seconds += now.verify_seconds - before.verify_seconds;
    stats.audits_run += now.audits_run - before.audits_run;
    stats.audits_rejected += now.audits_rejected - before.audits_rejected;
  }

  const Batch batch = merged.take();
  stats.steps = static_cast<int>(batch.steps.size());
  if (supervise && batch.steps.empty()) {
    // Every worker quarantined: nothing to update from. Escalate — a rollback
    // restores the last-good environments, and if even that cannot produce
    // data the run stops gracefully as diverged.
    throw NumericAnomalyError(Anomaly{AnomalyCode::kEmptyEpoch, epoch, -1, 0.0,
                                      "every worker quarantined; no rollout data"});
  }
  const PpoStats ppo = ppo_update(*net_, actor_opt_, critic_opt_, batch, config_.ppo);
  stats.actor_loss = ppo.actor_loss;
  stats.critic_loss = ppo.critic_loss;
  stats.approx_kl = ppo.approx_kl;

  if (supervise) {
    run_health_fault_hook(epoch, *net_, actor_opt_, critic_opt_);
    EpochHealthInput input;
    input.actor_loss = ppo.actor_loss;
    input.critic_loss = ppo.critic_loss;
    input.approx_kl = ppo.approx_kl;
    input.mean_entropy = stats.mean_entropy;
    input.entropy_steps = entropy_steps;
    if (auto tripped = check_epoch_health(*net_, actor_opt_, critic_opt_, input, config_.health)) {
      tripped->epoch = epoch;
      throw NumericAnomalyError(*tripped);
    }
  }
  return stats;
}

std::vector<EpochStats> Trainer::train(const EpochCallback& on_epoch) {
  // Every PPO update of the session reuses the stacked-batch buffers the
  // previous iterations freed, instead of faulting fresh pages back in; the
  // blocks go back to the heap when training returns (DESIGN.md §11).
  const BufferRecycleScope recycle_buffers;
  stopped_reason_.clear();
  if (!config_.checkpoint_path.empty()) try_resume_from_file();

  // Rollback image for mid-epoch crash recovery and divergence rollback:
  // always anchored at the last completed epoch boundary. Core bytes only —
  // the ledger keeps accumulating across restores.
  const bool supervise = config_.health.enabled;
  const bool recoverable =
      supervise || config_.max_epoch_retries > 0 || config_.deadline != nullptr;
  std::vector<std::uint8_t> rollback;
  if (recoverable) rollback = save_core_bytes();
  // Every restore re-runs the environments' deterministic analyses, which
  // poll the run deadline; after an expiry the token must be suspended for
  // the duration or the restore itself would be killed by the budget that
  // triggered it.
  auto restore_snapshot = [&] {
    Deadline::Pause pause(config_.deadline);
    restore_rollback(rollback);
  };

  const auto start = std::chrono::steady_clock::now();
  auto elapsed_seconds = [&start] {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start).count();
  };

  std::vector<EpochStats> history;
  // A resumed checkpoint may already hold more epochs than configured.
  history.reserve(static_cast<std::size_t>(std::max(config_.epochs - next_epoch_, 0)));
  int retries_left = config_.max_epoch_retries;
  int rollbacks_left = config_.health.max_rollbacks;
  int epoch_rollbacks = 0;  // consumed by the epoch currently being attempted
  while (next_epoch_ < config_.epochs) {
    // Budget checks happen at epoch boundaries only, so a stop is always
    // clean: no partially collected epoch, consistent training state.
    if (config_.max_wall_seconds > 0.0 && elapsed_seconds() >= config_.max_wall_seconds) {
      stopped_reason_ = "wall-clock budget of " + std::to_string(config_.max_wall_seconds) +
                        " s reached after " + std::to_string(next_epoch_) + " epochs";
      break;
    }
    if (config_.max_total_steps > 0 && total_steps_ >= config_.max_total_steps) {
      stopped_reason_ = "step budget of " + std::to_string(config_.max_total_steps) +
                        " steps reached after " + std::to_string(next_epoch_) + " epochs";
      break;
    }
    if (config_.deadline && config_.deadline->expired()) {
      stopped_reason_ = config_.deadline->reason() + " after " +
                        std::to_string(next_epoch_) + " epochs";
      break;
    }

    EpochStats stats;
    try {
      stats = run_epoch(next_epoch_);
    } catch (const DeadlineExceeded& e) {
      // Mid-epoch expiry: the partial epoch is discarded and the training
      // state returns to the last completed epoch boundary, so callers read
      // a consistent snapshot — exactly the clean-stop contract the
      // epoch-boundary budgets give, extended to arbitrarily long epochs.
      // (The environment may throw its own token's expiry even when the
      // trainer was configured without one — hence the emptiness guard.)
      if (!rollback.empty()) restore_snapshot();
      stopped_reason_ = e.reason() + " after " + std::to_string(next_epoch_) + " epochs";
      break;
    } catch (const NumericAnomalyError& e) {
      if (!supervise) throw;
      Anomaly anomaly = e.anomaly();
      if (anomaly.epoch < 0) anomaly.epoch = next_epoch_;
      ledger_.add(anomaly);
      if (rollbacks_left > 0) {
        --rollbacks_left;
        ++total_rollbacks_;
        ++epoch_rollbacks;
        restore_snapshot();
        // Same state, different stream: without the perturbation a
        // deterministic fault would recur identically on every retry.
        perturb_worker_streams();
        continue;
      }
      // Out of rollbacks: leave the trainer at the last-good state (no
      // perturbation — callers read exactly the snapshot that was healthy)
      // and stop gracefully instead of crashing the run.
      restore_snapshot();
      stopped_reason_ = std::string("diverged: ") + to_string(anomaly.code) +
                        " at epoch " + std::to_string(anomaly.epoch) + " after " +
                        std::to_string(total_rollbacks_) + " rollbacks";
      break;
    } catch (...) {
      if (config_.max_epoch_retries > 0 && retries_left > 0) {
        --retries_left;
        restore_snapshot();  // back to the last epoch boundary
        continue;
      }
      throw;
    }

    stats.rollbacks = epoch_rollbacks;
    epoch_rollbacks = 0;
    total_steps_ += stats.steps;
    ++next_epoch_;
    history.push_back(stats);
    if (on_epoch) on_epoch(history.back());

    if (!config_.checkpoint_path.empty() &&
        (next_epoch_ == config_.epochs || next_epoch_ % config_.checkpoint_interval == 0)) {
      write_checkpoint();
    }
    if (recoverable) rollback = save_core_bytes();
  }
  if (!stopped_reason_.empty() && config_.checkpoint_on_stop &&
      !config_.checkpoint_path.empty()) {
    // Persist the (consistent, last-good) stop state so a later process can
    // resume the session from here. The run deadline may already have fired
    // — suspend it for the write, like any post-expiry bookkeeping.
    Deadline::Pause pause(config_.deadline);
    write_checkpoint();
  }
  return history;
}

void Trainer::set_extra_checkpoint_section(SectionSave save, SectionLoad load) {
  extra_save_ = std::move(save);
  extra_load_ = std::move(load);
}

void Trainer::save_core(ByteWriter& out) const {
  out.i64(next_epoch_);
  out.i64(total_steps_);
  // Resuming with a different rollout shape would silently change the
  // statistics; refuse at load time instead.
  out.i64(config_.steps_per_epoch);

  write_parameters(out, *net_);
  write_adam_state(out, actor_opt_.export_state());
  write_adam_state(out, critic_opt_.export_state());

  out.u32(static_cast<std::uint32_t>(workers_.size()));
  for (const auto& worker : workers_) {
    write_rng(out, worker->rng);
    out.f64(worker->episode_reward);
    const bool snap = worker->env->snapshot_supported();
    out.u8(snap ? 1 : 0);
    ByteWriter env_out;
    if (snap) worker->env->save_snapshot(env_out);
    out.blob(env_out.data());
  }

  out.u8(extra_save_ ? 1 : 0);
  if (extra_save_) {
    ByteWriter extra;
    extra_save_(extra);
    out.blob(extra.data());
  }
}

void Trainer::load_core(ByteReader& in) {
  const std::int64_t next_epoch = in.i64();
  const std::int64_t total_steps = in.i64();
  const std::int64_t steps_per_epoch = in.i64();
  if (next_epoch < 0 || total_steps < 0) {
    throw CheckpointError("negative epoch/step counter in checkpoint");
  }
  if (steps_per_epoch != config_.steps_per_epoch) {
    throw CheckpointError("checkpoint was written with steps_per_epoch=" +
                          std::to_string(steps_per_epoch) + ", configured " +
                          std::to_string(config_.steps_per_epoch));
  }

  read_parameters(in, *net_);
  // Read (and shape-check) both states fully before mutating either
  // optimizer, so a truncated payload cannot leave them half-restored.
  Adam::State actor_state = read_adam_state(in, actor_opt_);
  Adam::State critic_state = read_adam_state(in, critic_opt_);

  const std::uint32_t worker_count = in.u32();
  if (worker_count != workers_.size()) {
    throw CheckpointError("checkpoint has " + std::to_string(worker_count) +
                          " workers, trainer has " + std::to_string(workers_.size()));
  }
  for (auto& worker : workers_) {
    worker->rng = read_rng(in);
    worker->episode_reward = in.f64();
    const bool had_snapshot = in.u8() != 0;
    const auto env_bytes = in.blob();
    if (had_snapshot && worker->env->snapshot_supported()) {
      ByteReader env_in(env_bytes);
      worker->env->load_snapshot(env_in);
      env_in.expect_exhausted("environment snapshot");
    } else {
      // No serialized environment state: restart the episode. Resume still
      // works, but determinism relative to the original run is not
      // guaranteed for such environments.
      worker->env->reset();
      worker->episode_reward = 0.0;
    }
    // Any partially collected rollout (mid-epoch crash) is discarded, and a
    // dead worker is live again: its environment just loaded a good snapshot.
    worker->buffer = TrajectoryBuffer(config_.gamma, config_.gae_lambda);
    worker->finished_returns.clear();
    worker->fault.reset();
    worker->dead = false;
  }

  const bool has_extra = in.u8() != 0;
  if (has_extra) {
    const auto extra_bytes = in.blob();
    if (extra_load_) {
      ByteReader extra_in(extra_bytes);
      extra_load_(extra_in);
      extra_in.expect_exhausted("extra checkpoint section");
    }
  }

  actor_opt_.import_state(actor_state);
  critic_opt_.import_state(critic_state);
  // An aborted update can leave NaN in the accumulated gradients; a restore
  // must not let yesterday's poison re-trip tomorrow's gradient sentinel.
  actor_opt_.zero_grad();
  critic_opt_.zero_grad();
  next_epoch_ = static_cast<int>(next_epoch);
  total_steps_ = total_steps;
}

std::vector<std::uint8_t> Trainer::save_core_bytes() const {
  ByteWriter out;
  save_core(out);
  return out.data();
}

void Trainer::restore_rollback(const std::vector<std::uint8_t>& core) {
  ByteReader in(core);
  load_core(in);
  in.expect_exhausted("rollback snapshot");
}

void Trainer::perturb_worker_streams() {
  for (auto& worker : workers_) {
    for (std::int64_t i = 0; i < total_rollbacks_; ++i) worker->rng.next_u64();
  }
}

std::vector<std::uint8_t> Trainer::save_state() const {
  ByteWriter out;
  ByteWriter core;
  save_core(core);
  out.blob(core.data());

  ByteWriter health;
  health.i64(total_rollbacks_);
  health.i64(total_quarantined_);
  ledger_.save(health);
  out.blob(health.data());
  return out.data();
}

void Trainer::load_state(const std::vector<std::uint8_t>& payload) {
  ByteReader in(payload);
  const auto core_bytes = in.blob();
  const auto health_bytes = in.blob();
  in.expect_exhausted("trainer checkpoint");

  // Parse the health section into temporaries first so a malformed ledger
  // cannot leave the trainer with half-restored core state.
  ByteReader health_in(health_bytes);
  const std::int64_t total_rollbacks = health_in.i64();
  const std::int64_t total_quarantined = health_in.i64();
  if (total_rollbacks < 0 || total_quarantined < 0) {
    throw CheckpointError("negative supervisor counter in checkpoint");
  }
  AnomalyLedger ledger = AnomalyLedger::load(health_in);
  health_in.expect_exhausted("health section");

  ByteReader core_in(core_bytes);
  load_core(core_in);
  core_in.expect_exhausted("trainer core state");

  total_rollbacks_ = total_rollbacks;
  total_quarantined_ = total_quarantined;
  ledger_ = std::move(ledger);
}

void Trainer::write_checkpoint() const {
  save_checkpoint_file(config_.checkpoint_path, kTrainerCheckpointVersion, save_state());
}

bool Trainer::try_resume_from_file() {
  std::string error;
  const auto loaded =
      load_checkpoint_with_fallback(config_.checkpoint_path, kTrainerCheckpointVersion, &error);
  if (!loaded) return false;  // no usable checkpoint: fresh start
  load_state(loaded->payload);
  return true;
}

}  // namespace nptsn
