#include "service/service.hpp"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <filesystem>

#include "analysis/auditor.hpp"
#include "analysis/certificate.hpp"
#include "core/planner.hpp"
#include "net/problem.hpp"
#include "net/topology.hpp"
#include "service/crash_point.hpp"
#include "tsn/recovery.hpp"
#include "util/expect.hpp"

namespace nptsn {
namespace {

// A retry's backoff is scaled by a seeded factor in [1, 1 + kRetryJitter).
constexpr double kRetryJitter = 0.25;

double seconds_between(std::chrono::steady_clock::time_point from,
                       std::chrono::steady_clock::time_point to) {
  return std::chrono::duration<double>(to - from).count();
}

void remove_quietly(const std::string& path) {
  std::error_code ec;
  std::filesystem::remove(path, ec);  // best effort; a leftover file is benign
}

}  // namespace

const char* to_string(ResponseStatus status) {
  switch (status) {
    case ResponseStatus::kPlanned: return "planned";
    case ResponseStatus::kInfeasible: return "infeasible";
    case ResponseStatus::kRejected: return "rejected";
    case ResponseStatus::kFaulted: return "faulted";
    case ResponseStatus::kCancelled: return "cancelled";
    case ResponseStatus::kOverloaded: return "overloaded";
    case ResponseStatus::kDegraded: return "degraded";
  }
  return "unknown";
}

PlannerService::PlannerService(ServiceConfig config) : config_(std::move(config)) {
  NPTSN_EXPECT(config_.shards >= 1, "service needs at least one shard");
  NPTSN_EXPECT(config_.workers_per_shard >= 1, "service needs at least one worker per shard");
  NPTSN_EXPECT(config_.queue_capacity >= 1, "service queue capacity must be positive");
  NPTSN_EXPECT(config_.session_wall_seconds >= 0.0 && config_.session_max_ticks >= 0,
               "session budgets must be non-negative");
  NPTSN_EXPECT(config_.default_max_attempts >= 1,
               "service needs at least one attempt per request");
  NPTSN_EXPECT(config_.retry_base_seconds >= 0.0 && config_.retry_max_seconds >= 0.0,
               "retry backoff parameters must be non-negative");
  NPTSN_EXPECT(config_.watchdog_grace == 0.0 || config_.watchdog_grace >= 1.0,
               "watchdog grace is a multiplier of the session budget: 0 (off) or >= 1");
  NPTSN_EXPECT(config_.watchdog_poll_seconds > 0.0 && config_.durability_probe_seconds > 0.0,
               "background poll cadences must be positive");

  if (config_.shared_caches) {
    engine_cache_ = std::make_shared<EngineSharedCache>(config_.engine_cache);
    stage_cache_ = std::make_shared<AdjacencyStageCache>(config_.stage_cache_bytes);
  }
  if (config_.warm_start) {
    policy_store_ = std::make_shared<PolicyStore>();
  }
  if (!config_.state_dir.empty()) {
    std::filesystem::create_directories(config_.state_dir);
  }
  if (!config_.journal_dir.empty()) {
    RequestJournal::Config journal_config;
    journal_config.dir = config_.journal_dir;
    journal_ = std::make_unique<RequestJournal>(std::move(journal_config));
  }
  retry_rng_ = Rng(config_.retry_seed);

  shards_.reserve(static_cast<std::size_t>(config_.shards));
  for (int s = 0; s < config_.shards; ++s) {
    shards_.push_back(std::make_unique<Shard>(config_.queue_capacity));
  }
  for (int s = 0; s < config_.shards; ++s) {
    for (int w = 0; w < config_.workers_per_shard; ++w) {
      shards_[static_cast<std::size_t>(s)]->workers.emplace_back(
          [this, s] { worker_loop(s); });
    }
  }
  retry_thread_ = std::thread([this] { retry_loop(); });
  if (journal_) {
    probe_thread_ = std::thread([this] { probe_loop(); });
  }
  if (config_.watchdog_grace > 0.0 && config_.session_wall_seconds > 0.0) {
    watchdog_thread_ = std::thread([this] { watchdog_loop(); });
  }

  // Recovery runs after the workers are up, so resubmitting more live
  // requests than one queue holds just exerts normal backpressure instead of
  // deadlocking a pre-worker blocking push.
  if (journal_) {
    for (RequestJournal::Recovered& item : journal_->take_recovered()) {
      if (item.replay) {
        replay_recovered(std::move(item));
      } else {
        resubmit_recovered(std::move(item));
      }
    }
  }
}

PlannerService::~PlannerService() { shutdown(Shutdown::kCancel); }

std::future<PlanningResponse> PlannerService::submit(PlanningRequest request) {
  return submit_impl(std::move(request), Admission::kBlock, 0.0);
}

std::future<PlanningResponse> PlannerService::try_submit(PlanningRequest request) {
  return submit_impl(std::move(request), Admission::kTry, 0.0);
}

std::future<PlanningResponse> PlannerService::submit_within(PlanningRequest request,
                                                            double timeout_seconds) {
  NPTSN_EXPECT(timeout_seconds >= 0.0, "admission timeout must be non-negative");
  return submit_impl(std::move(request), Admission::kTimed, timeout_seconds);
}

std::future<PlanningResponse> PlannerService::submit_impl(PlanningRequest request,
                                                          Admission mode,
                                                          double timeout_seconds) {
  if (request.id.empty()) throw ValidationError("planning request needs an id");
  if (request.problem_bytes.empty()) {
    throw ValidationError("planning request needs serialized problem bytes");
  }
  if (!accepting_.load(std::memory_order_acquire)) {
    throw std::runtime_error("planner service is shut down");
  }

  Ticket ticket;
  ticket.request = std::move(request);
  ticket.enqueued = std::chrono::steady_clock::now();
  std::future<PlanningResponse> future = ticket.promise.get_future();

  // Route by problem fingerprint: resubmissions of the same problem land on
  // the same shard (and so behind each other), which is exactly where the
  // cross-session caches pay off; distinct problems spread across shards.
  const ProblemFp fp = problem_fingerprint128(ticket.request.problem_bytes);
  const int shard_index = shard_for(fp);
  const int priority = ticket.request.priority;

  // Durability before acknowledgement: the accepted record is on disk before
  // any caller-visible handle exists, in every admission mode. A request shed
  // below gets a compensating terminal record, so it is not resurrected.
  if (journal_ &&
      journal_->append_accepted(ticket.request, fp) == AppendOutcome::kDegraded) {
    // The journal cannot reach stable storage: shed instead of acknowledging
    // a durability we cannot provide. The caller resubmits once the service
    // reports durable again (the probe re-arms automatically).
    PlanningResponse shed;
    shed.id = ticket.request.id;
    shed.label = ticket.request.label;
    shed.status = ResponseStatus::kDegraded;
    shed.error = "degraded: journal cannot reach stable storage (" +
                 journal_->degraded_reason() + ")";
    shed.shard = shard_index;
    shed.attempt = 0;
    shed.durable = false;
    count(ResponseStatus::kDegraded);
    ticket.promise.set_value(std::move(shed));
    return future;
  }
  crash_point("service.accept.after_journal");
  {
    std::lock_guard lock(state_mutex_);
    ++counters_.submitted;
  }

  auto& queue = shards_[static_cast<std::size_t>(shard_index)]->queue;
  if (mode == Admission::kBlock) {
    if (!queue.push(std::move(ticket), priority)) {
      // Closed while we were blocked on a full queue. With a journal the
      // accepted record stays live and recovers on the next process.
      throw std::runtime_error("planner service is shut down");
    }
    return future;
  }

  const PushResult pushed =
      mode == Admission::kTry
          ? queue.try_push(ticket, priority)
          : queue.push_for(ticket, priority, std::chrono::duration<double>(timeout_seconds));
  if (pushed == PushResult::kClosed) {
    throw std::runtime_error("planner service is shut down");
  }
  if (pushed == PushResult::kFull) {
    PlanningResponse shed;
    shed.id = ticket.request.id;
    shed.label = ticket.request.label;
    shed.status = ResponseStatus::kOverloaded;
    shed.error = "overloaded: shard " + std::to_string(shard_index) +
                 " queue full (capacity " + std::to_string(queue.capacity()) + ")";
    shed.shard = shard_index;
    shed.attempt = 0;
    // The terminal record both compensates the accepted record (no
    // resurrection on restart) and is marked delivered on replay.
    if (journal_) journal_->append_terminal(shed, 0);
    count(ResponseStatus::kOverloaded);
    ticket.promise.set_value(std::move(shed));
  }
  return future;
}

int PlannerService::shard_for(const ProblemFp& fp) const {
  const int preferred = static_cast<int>(fp.a % static_cast<std::uint64_t>(shards_.size()));
  if (!shards_[static_cast<std::size_t>(preferred)]->quarantined.load(
          std::memory_order_acquire)) {
    return preferred;
  }
  // Deterministic re-route among the healthy shards; with every shard
  // quarantined, fall back to the full ring (the queue still accepts — the
  // work just waits for an un-wedge or a shutdown).
  std::vector<int> healthy;
  for (int s = 0; s < static_cast<int>(shards_.size()); ++s) {
    if (!shards_[static_cast<std::size_t>(s)]->quarantined.load(
            std::memory_order_acquire)) {
      healthy.push_back(s);
    }
  }
  if (healthy.empty()) return preferred;
  return healthy[fp.a % healthy.size()];
}

int PlannerService::max_attempts_for(const PlanningRequest& request) const {
  return request.max_attempts > 0 ? request.max_attempts : config_.default_max_attempts;
}

bool PlannerService::retryable(const PlanningResponse& response) const {
  if (response.status == ResponseStatus::kFaulted) return true;
  // A deadline-stopped session left a resumable checkpoint (when state_dir is
  // configured); a retry continues it under a fresh budget.
  return response.status == ResponseStatus::kInfeasible &&
         response.stopped_reason.rfind("deadline:", 0) == 0;
}

void PlannerService::worker_loop(int shard_index) {
  Shard& shard = *shards_[static_cast<std::size_t>(shard_index)];
  while (auto ticket = shard.queue.pop()) {
    if (cancelling_.load(std::memory_order_acquire)) {
      resolve_cancelled(std::move(*ticket), /*record_unprocessed=*/true);
      continue;
    }
    const auto picked = std::chrono::steady_clock::now();

    // Every session gets its own cooperative token — even with no budgets
    // configured — so a cancelling shutdown can always reach it.
    auto deadline =
        Deadline::after(config_.session_wall_seconds, config_.session_max_ticks);
    {
      std::lock_guard lock(state_mutex_);
      Inflight entry;
      entry.id = ticket->request.id;
      entry.deadline = deadline;
      entry.started = picked;
      entry.shard_index = shard_index;
      inflight_.push_back(std::move(entry));
    }
    // Closes the pop-to-register race with shutdown(kCancel): either the
    // canceller saw our registration, or we see its flag here.
    if (cancelling_.load(std::memory_order_acquire)) {
      deadline->cancel("cancelled: service shutting down");
    }

    if (journal_) journal_->append_started(ticket->request.id, ticket->attempt);
    crash_point("service.start.after_journal");

    PlanningResponse response = run_session(ticket->request, shard_index, deadline);
    response.queue_seconds = seconds_between(ticket->enqueued, picked);
    response.attempt = ticket->attempt;

    {
      std::lock_guard lock(state_mutex_);
      const auto it = std::find_if(inflight_.begin(), inflight_.end(),
                                   [&](const Inflight& entry) {
                                     return entry.deadline.get() == deadline.get();
                                   });
      if (it != inflight_.end()) {
        if (it->wedged) {
          // The wedged session finally returned: lift the quarantine once no
          // wedged sessions remain on this shard.
          Shard& self = *shards_[static_cast<std::size_t>(shard_index)];
          if (--self.wedged_sessions == 0) {
            self.quarantined.store(false, std::memory_order_release);
          }
          ++counters_.unwedged;
        }
        inflight_.erase(it);
      }
    }

    if (response.status != ResponseStatus::kCancelled && retryable(response) &&
        ticket->attempt < max_attempts_for(ticket->request) &&
        !cancelling_.load(std::memory_order_acquire)) {
      schedule_retry(std::move(*ticket), shard_index, std::move(response));
      continue;
    }
    finish_ticket(std::move(*ticket), std::move(response));
  }
}

void PlannerService::finish_ticket(Ticket ticket, PlanningResponse response) {
  const std::string id = response.id;
  // A cancelled session is deliberately NOT journaled as terminal: it stays
  // live in the journal and a restart over the same journal_dir recovers it.
  const bool journal_terminal =
      journal_ != nullptr && response.status != ResponseStatus::kCancelled;
  crash_point("service.terminal.before_journal");
  if (journal_terminal &&
      journal_->append_terminal(response, response.attempt) ==
          AppendOutcome::kDegraded) {
    // The answer still goes out — an in-flight session is never held hostage
    // to a sick disk — but flagged non-durable: a crash before the journal
    // re-arms may re-execute this request after restart.
    response.durable = false;
    std::lock_guard lock(state_mutex_);
    ++counters_.non_durable;
  }
  crash_point("service.answer.before_set");
  count(response.status);
  ticket.promise.set_value(std::move(response));
  if (journal_terminal) journal_->acknowledge_delivered(id);
}

void PlannerService::schedule_retry(Ticket ticket, int shard_index,
                                    PlanningResponse failed) {
  const int failed_attempt = ticket.attempt;
  const std::string error = failed.error.empty() ? failed.stopped_reason : failed.error;
  const auto later = [](const PendingRetry& a, const PendingRetry& b) {
    return a.due > b.due;
  };

  std::unique_lock lock(retry_mutex_);
  if (!retry_stop_) {
    double backoff =
        std::min(config_.retry_max_seconds,
                 config_.retry_base_seconds * std::ldexp(1.0, failed_attempt - 1));
    backoff *= 1.0 + kRetryJitter * retry_rng_.uniform();
    if (journal_) journal_->append_retry(ticket.request.id, failed_attempt, error, backoff);

    PendingRetry pending;
    pending.due = std::chrono::steady_clock::now() +
                  std::chrono::duration_cast<std::chrono::steady_clock::duration>(
                      std::chrono::duration<double>(backoff));
    pending.ticket = std::move(ticket);
    pending.ticket.attempt = failed_attempt + 1;
    pending.shard_index = shard_index;
    retry_heap_.push_back(std::move(pending));
    std::push_heap(retry_heap_.begin(), retry_heap_.end(), later);
    lock.unlock();
    retry_cv_.notify_one();
    std::lock_guard slock(state_mutex_);
    ++counters_.retried;
    return;
  }
  lock.unlock();

  // The scheduler is already stopped (shutdown in progress).
  if (cancelling_.load(std::memory_order_acquire)) {
    resolve_cancelled(std::move(ticket), /*record_unprocessed=*/true);
    return;
  }
  // Drain-mode shutdown: no backoff to wait out — requeue immediately; if
  // the queue is already closed (or full at the tail of the drain), finalize
  // with the failed attempt's response rather than dropping the promise.
  if (journal_) journal_->append_retry(ticket.request.id, failed_attempt, error, 0.0);
  ticket.attempt = failed_attempt + 1;
  const int priority = ticket.request.priority;
  if (shards_[static_cast<std::size_t>(shard_index)]->queue.try_push(ticket, priority) ==
      PushResult::kPushed) {
    std::lock_guard slock(state_mutex_);
    ++counters_.retried;
    return;
  }
  finish_ticket(std::move(ticket), std::move(failed));
}

void PlannerService::retry_loop() {
  const auto later = [](const PendingRetry& a, const PendingRetry& b) {
    return a.due > b.due;
  };
  std::unique_lock lock(retry_mutex_);
  while (!retry_stop_) {
    if (retry_heap_.empty()) {
      retry_cv_.wait(lock);
      continue;
    }
    const auto due = retry_heap_.front().due;
    if (std::chrono::steady_clock::now() < due) {
      retry_cv_.wait_until(lock, due);
      continue;  // re-evaluate: an earlier item or stop may have arrived
    }
    std::pop_heap(retry_heap_.begin(), retry_heap_.end(), later);
    PendingRetry item = std::move(retry_heap_.back());
    retry_heap_.pop_back();
    lock.unlock();

    auto& queue = shards_[static_cast<std::size_t>(item.shard_index)]->queue;
    const int priority = item.ticket.request.priority;
    while (true) {
      const PushResult pushed =
          queue.push_for(item.ticket, priority, std::chrono::milliseconds{50});
      if (pushed == PushResult::kPushed) break;
      if (pushed == PushResult::kClosed) {
        resolve_cancelled(std::move(item.ticket), /*record_unprocessed=*/true);
        break;
      }
      // kFull: the workers are still draining the queue; keep waiting.
    }
    lock.lock();
  }
}

void PlannerService::replay_recovered(RequestJournal::Recovered item) {
  PlanningResponse response = std::move(*item.replay);
  response.replayed = true;

  // A replayed plan goes back through the independent auditor before anyone
  // sees it, so a recovered answer is never weaker than a freshly planned
  // one. (Digest integrity was already checked by the journal scan.)
  if (response.status == ResponseStatus::kPlanned &&
      !response.certificate_bytes.empty() && !item.request.problem_bytes.empty()) {
    std::string rejection;
    try {
      PlanningProblem problem = problem_from_bytes(item.request.problem_bytes);
      problem.validate();
      ByteReader in(response.certificate_bytes);
      const ReliabilityCertificate certificate = load_certificate(in);
      const AuditReport report = audit_certificate(problem, certificate);
      if (!report.ok) rejection = "replay re-audit failed: " + report.summary();
    } catch (const std::exception& e) {
      rejection = std::string("replay re-audit faulted: ") + e.what();
    }
    if (!rejection.empty()) {
      response.status = ResponseStatus::kRejected;
      response.error = rejection;
      if (journal_->append_terminal(response, response.attempt) ==
          AppendOutcome::kDegraded) {
        response.durable = false;
      }
    }
  }

  std::promise<PlanningResponse> promise;
  RecoveredSession session;
  session.request = std::move(item.request);
  session.response = promise.get_future();
  session.replayed = true;

  const std::string id = response.id;
  count(response.status);
  promise.set_value(std::move(response));
  journal_->acknowledge_delivered(id);
  std::lock_guard lock(state_mutex_);
  ++counters_.replayed;
  recovered_.push_back(std::move(session));
}

void PlannerService::resubmit_recovered(RequestJournal::Recovered item) {
  Ticket ticket;
  ticket.request = item.request;
  ticket.enqueued = std::chrono::steady_clock::now();
  // A crash mid-attempt does not consume an attempt — only journaled kRetry
  // records do — so the re-run picks up at attempts_used + 1.
  ticket.attempt = item.attempts_used + 1;

  RecoveredSession session;
  session.request = std::move(item.request);
  session.response = ticket.promise.get_future();
  session.replayed = false;

  const ProblemFp fp = problem_fingerprint128(ticket.request.problem_bytes);
  const int shard_index = shard_for(fp);
  const int priority = ticket.request.priority;
  {
    std::lock_guard lock(state_mutex_);
    ++counters_.submitted;
    ++counters_.recovered;
    recovered_.push_back(std::move(session));
  }
  // The accepted record is already durable; workers are running, so a full
  // queue is ordinary backpressure here, not a deadlock.
  shards_[static_cast<std::size_t>(shard_index)]->queue.push(std::move(ticket), priority);
}

std::vector<PlannerService::RecoveredSession> PlannerService::take_recovered() {
  std::vector<RecoveredSession> out;
  std::lock_guard lock(state_mutex_);
  out.swap(recovered_);
  return out;
}

std::vector<std::string> PlannerService::recovery_warnings() const {
  return journal_ ? journal_->recovery_warnings() : std::vector<std::string>{};
}

PlanningResponse PlannerService::run_session(const PlanningRequest& request,
                                             int shard_index,
                                             const std::shared_ptr<Deadline>& deadline) {
  PlanningResponse response;
  response.id = request.id;
  response.label = request.label;
  response.shard = shard_index;

  std::string checkpoint_path;
  const auto start = std::chrono::steady_clock::now();
  try {
    PlanningProblem problem = problem_from_bytes(request.problem_bytes);
    problem.validate();

    NptsnConfig session = config_.session;
    if (request.epochs > 0) session.epochs = request.epochs;
    if (request.steps_per_epoch > 0) session.steps_per_epoch = request.steps_per_epoch;
    if (request.seed != 0) session.seed = request.seed;
    session.deadline = deadline;
    session.engine_shared_cache = engine_cache_;
    session.stage_cache = stage_cache_;
    session.policy_store = policy_store_;
    session.warm_start = config_.warm_start && policy_store_ != nullptr;
    // All service sessions run the same default-constructed NBF below, so
    // the default salt is sound; certificates travel in-band, not as files.
    session.cache_salt = 0;
    session.certificate_path.clear();
    if (!config_.state_dir.empty()) {
      checkpoint_path = config_.state_dir + "/" + request.id + ".ckpt";
      session.checkpoint_path = checkpoint_path;
      session.checkpoint_on_stop = true;
    }

    const HeuristicRecovery nbf;
    const PlanningResult result = plan(problem, nbf, session);
    response.plan_seconds = seconds_between(start, std::chrono::steady_clock::now());

    response.feasible = result.feasible;
    response.best_cost = result.feasible ? result.best_cost : 0.0;
    response.stopped_reason = result.stopped_reason;
    response.epochs_completed = result.epochs_completed;
    for (const EpochStats& epoch : result.history) {
      response.verify_shared_hits += epoch.verify_shared_hits;
    }
    if (result.best) {
      ByteWriter out;
      save_topology(*result.best, out);
      response.topology_bytes = out.data();
    }
    if (result.certificate) {
      ByteWriter out;
      save_certificate(*result.certificate, out);
      response.certificate_bytes = out.data();
    }

    if (deadline->cancelled()) {
      // The session unwound through its clean-stop path mid-run; its
      // checkpoint (when configured) stays on disk for resume.
      response.status = ResponseStatus::kCancelled;
      return response;
    }
    if (result.feasible) {
      response.status = ResponseStatus::kPlanned;
    } else if (result.audits_rejected > 0) {
      response.status = ResponseStatus::kRejected;
      if (!result.audit_failures.empty()) response.error = result.audit_failures.back();
    } else {
      response.status = ResponseStatus::kInfeasible;
    }
    // A session that ran to its natural end has nothing to resume: drop its
    // checkpoint generations so a future same-id submission starts fresh.
    // (Not on budget/deadline stops — those are resumable by design.)
    if (!checkpoint_path.empty() && response.stopped_reason.empty()) {
      remove_quietly(checkpoint_path);
      remove_quietly(checkpoint_path + ".1");
    }
    return response;
  } catch (const DeadlineExceeded& e) {
    response.plan_seconds = seconds_between(start, std::chrono::steady_clock::now());
    // Escaped the trainer's recovery boundary (e.g. fired during the very
    // first environment construction): still a clean per-session outcome.
    response.status =
        deadline->cancelled() ? ResponseStatus::kCancelled : ResponseStatus::kFaulted;
    response.error = e.reason();
    return response;
  } catch (const std::exception& e) {
    response.plan_seconds = seconds_between(start, std::chrono::steady_clock::now());
    response.status = ResponseStatus::kFaulted;
    response.error = e.what();
    return response;
  } catch (...) {
    response.plan_seconds = seconds_between(start, std::chrono::steady_clock::now());
    response.status = ResponseStatus::kFaulted;
    response.error = "unknown fault";
    return response;
  }
}

void PlannerService::resolve_cancelled(Ticket ticket, bool record_unprocessed) {
  PlanningResponse response;
  response.id = ticket.request.id;
  response.label = ticket.request.label;
  response.status = ResponseStatus::kCancelled;
  response.error = "cancelled: service shut down before the session started";
  if (record_unprocessed) {
    std::lock_guard lock(state_mutex_);
    unprocessed_.push_back(std::move(ticket.request));
  }
  count(ResponseStatus::kCancelled);
  ticket.promise.set_value(std::move(response));
}

void PlannerService::count(ResponseStatus status) {
  std::lock_guard lock(state_mutex_);
  switch (status) {
    case ResponseStatus::kPlanned: ++counters_.planned; break;
    case ResponseStatus::kInfeasible: ++counters_.infeasible; break;
    case ResponseStatus::kRejected: ++counters_.rejected; break;
    case ResponseStatus::kFaulted: ++counters_.faulted; break;
    case ResponseStatus::kCancelled: ++counters_.cancelled; break;
    case ResponseStatus::kOverloaded: ++counters_.overloaded; break;
    case ResponseStatus::kDegraded: ++counters_.degraded; break;
  }
}

void PlannerService::probe_loop() {
  std::unique_lock lock(background_mutex_);
  while (!background_stop_) {
    background_cv_.wait_for(
        lock, std::chrono::duration<double>(config_.durability_probe_seconds));
    if (background_stop_) break;
    lock.unlock();
    if (!journal_->durable() && journal_->try_rearm()) {
      std::lock_guard slock(state_mutex_);
      ++counters_.rearmed;
    }
    lock.lock();
  }
}

void PlannerService::watchdog_loop() {
  // The budget a session may overrun before the watchdog intervenes, and the
  // further budget a cancelled session gets to unwind before it is declared
  // wedged. grace >= 1, so a healthy session's own DeadlineExceeded always
  // fires first; the watchdog only ever sees sessions that stopped polling.
  const double window = config_.session_wall_seconds * config_.watchdog_grace;
  std::unique_lock lock(background_mutex_);
  while (!background_stop_) {
    background_cv_.wait_for(
        lock, std::chrono::duration<double>(config_.watchdog_poll_seconds));
    if (background_stop_) break;
    lock.unlock();

    const auto now = std::chrono::steady_clock::now();
    std::vector<int> to_reroute;
    {
      std::lock_guard slock(state_mutex_);
      for (Inflight& entry : inflight_) {
        if (!entry.watchdog_cancelled) {
          if (seconds_between(entry.started, now) > window) {
            entry.deadline->cancel(
                "cancelled: watchdog — session overran its deadline by the "
                "grace window");
            entry.watchdog_cancelled = true;
            entry.cancelled_at = now;
            ++counters_.watchdog_cancels;
          }
        } else if (!entry.wedged &&
                   seconds_between(entry.cancelled_at, now) > window) {
          // Cancelled and STILL running: this session is not polling its
          // deadline at all. Quarantine the shard so new work routes around
          // the stuck worker.
          entry.wedged = true;
          Shard& shard = *shards_[static_cast<std::size_t>(entry.shard_index)];
          ++shard.wedged_sessions;
          ++counters_.wedged;
          if (!shard.quarantined.exchange(true, std::memory_order_acq_rel)) {
            to_reroute.push_back(entry.shard_index);
          }
        }
      }
    }
    for (const int shard_index : to_reroute) reroute_shard(shard_index);
    lock.lock();
  }
}

void PlannerService::reroute_shard(int shard_index) {
  // Move the quarantined shard's backlog to healthy shards. drain_remaining
  // works on an open queue; anything that cannot be placed (every shard
  // quarantined, or the healthy queues full) goes back where it was — parked,
  // not lost: it runs on un-wedge or resolves as cancelled on shutdown.
  Shard& shard = *shards_[static_cast<std::size_t>(shard_index)];
  std::int64_t moved = 0;
  for (Ticket& ticket : shard.queue.drain_remaining()) {
    const int priority = ticket.request.priority;
    const ProblemFp fp = problem_fingerprint128(ticket.request.problem_bytes);
    const int target = shard_for(fp);
    if (target != shard_index &&
        shards_[static_cast<std::size_t>(target)]->queue.try_push(ticket, priority) ==
            PushResult::kPushed) {
      ++moved;
      continue;
    }
    if (shard.queue.try_push(ticket, priority) != PushResult::kPushed) {
      // Queue closed (shutdown raced us): resolve rather than drop the promise.
      resolve_cancelled(std::move(ticket), /*record_unprocessed=*/true);
    }
  }
  if (moved > 0) {
    std::lock_guard lock(state_mutex_);
    counters_.rerouted += moved;
  }
}

void PlannerService::shutdown(Shutdown mode) {
  std::lock_guard shutdown_lock(shutdown_mutex_);
  accepting_.store(false, std::memory_order_release);
  if (mode == Shutdown::kCancel) {
    cancelling_.store(true, std::memory_order_release);
    std::lock_guard lock(state_mutex_);
    for (Inflight& entry : inflight_) {
      entry.deadline->cancel("cancelled: service shutting down");
    }
  }

  // Stop the background probe and watchdog first: neither should observe (or
  // reroute around) the half-torn-down state below.
  {
    std::lock_guard lock(background_mutex_);
    background_stop_ = true;
  }
  background_cv_.notify_all();
  if (probe_thread_.joinable()) probe_thread_.join();
  if (watchdog_thread_.joinable()) watchdog_thread_.join();

  // Stop the retry scheduler and take over its backlog: drain mode runs the
  // pending retries immediately (their remaining backoff is forfeited);
  // cancel mode resolves them as cancelled (with a journal they stay live on
  // disk and recover on the next process).
  std::vector<PendingRetry> pending;
  {
    std::lock_guard lock(retry_mutex_);
    retry_stop_ = true;
    pending.swap(retry_heap_);
  }
  retry_cv_.notify_all();
  if (retry_thread_.joinable()) retry_thread_.join();
  for (PendingRetry& item : pending) {
    if (mode == Shutdown::kCancel) {
      resolve_cancelled(std::move(item.ticket), /*record_unprocessed=*/true);
      continue;
    }
    auto& queue = shards_[static_cast<std::size_t>(item.shard_index)]->queue;
    const int priority = item.ticket.request.priority;
    while (true) {
      const PushResult pushed =
          queue.push_for(item.ticket, priority, std::chrono::milliseconds{50});
      if (pushed == PushResult::kPushed) break;
      if (pushed == PushResult::kClosed) {
        resolve_cancelled(std::move(item.ticket), /*record_unprocessed=*/true);
        break;
      }
    }
  }

  for (auto& shard : shards_) shard->queue.close();
  if (!joined_.exchange(true)) {
    for (auto& shard : shards_) {
      for (std::thread& worker : shard->workers) worker.join();
    }
  }
  // Anything the workers never popped (only possible in cancel mode, or for
  // producers that raced close): resolve as cancelled and keep the request.
  for (auto& shard : shards_) {
    for (Ticket& ticket : shard->queue.drain_remaining()) {
      resolve_cancelled(std::move(ticket), /*record_unprocessed=*/true);
    }
  }
}

std::vector<PlanningRequest> PlannerService::unprocessed() {
  std::lock_guard lock(state_mutex_);
  return unprocessed_;
}

PlannerService::Counters PlannerService::counters() const {
  std::lock_guard lock(state_mutex_);
  return counters_;
}

PlannerService::ServiceStats PlannerService::stats() const {
  ServiceStats stats;
  {
    std::lock_guard lock(state_mutex_);
    stats.counters = counters_;
    stats.inflight = inflight_.size();
    for (const auto& shard : shards_) {
      ShardSnapshot snapshot;
      snapshot.queue_depth = shard->queue.size();
      snapshot.wedged_sessions = shard->wedged_sessions;
      snapshot.quarantined = shard->quarantined.load(std::memory_order_acquire);
      stats.shards.push_back(snapshot);
    }
  }
  {
    std::lock_guard lock(retry_mutex_);
    stats.retry_backlog = retry_heap_.size();
  }
  if (journal_) {
    stats.journal_configured = true;
    stats.durable = journal_->durable();
    stats.degraded_reason = journal_->degraded_reason();
    stats.journal = journal_->stats();
    stats.journal_segments = journal_->segment_sizes();
  }
  return stats;
}

}  // namespace nptsn
