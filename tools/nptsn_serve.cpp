// nptsn_serve: the planning-as-a-service daemon front end (DESIGN.md §13).
//
// Boots a PlannerService (sharded worker pools + cross-session caches),
// submits the planning problems named on the command line, and streams each
// session's outcome as it resolves. Problems come from the evaluation
// scenarios (ads/orion), the seeded procedural generator (gen:...), raw
// canonical problem-bytes files (problem:PATH), or pending-request files a
// previous interrupted serve run persisted (pending:PATH).
//
// Graceful shutdown: SIGTERM/SIGINT switches the service into cancelling
// shutdown — every in-flight session's deadline token fires, the session
// unwinds through the trainer's clean-stop path and (with --state-dir)
// persists a resumable checkpoint under checksummed checkpoint framing, and
// every admitted-but-unstarted request is written to
// <state-dir>/pending-<id>.req (same framing). Re-running with
// pending:<file> (or pending-dir:<dir>, which skips corrupt files with a
// warning) resumes exactly where the interrupted process stopped.
//
// Crash durability: with --journal DIR every request is written ahead to a
// fsynced journal before its handle exists, and a re-run over the same
// journal recovers — unfinished sessions re-execute, finished ones replay
// their persisted (re-audited) answer. Recovered sessions are reported like
// fresh ones and CLI specs whose id a recovered session already covers are
// deduplicated, so "restart with the same command line" is always safe.
//
// Exit codes (distinct so scripts and CI can branch without parsing output):
//   0 = every submitted or recovered session planned successfully (audit
//       clean when auditing is configured; replayed answers are re-audited)
//   1 = the service ran to completion but some session was infeasible,
//       audit-rejected, faulted, or shed as overloaded
//   2 = usage error (bad flags, malformed spec)
//   3 = I/O error (unreadable problem/pending file, unwritable state dir,
//       unusable journal directory)
//   5 = interrupted (SIGTERM/SIGINT): in-flight checkpoints and the pending
//       backlog were persisted (and stay live in the journal); nothing was
//       lost, but the run did not finish
#include <algorithm>
#include <atomic>
#include <cfloat>
#include <chrono>
#include <climits>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <set>
#include <string>
#include <vector>

#include "analysis/certificate.hpp"
#include "numeric_flag.hpp"
#include "scenarios/problem_spec.hpp"
#include "service/crash_point.hpp"
#include "service/service.hpp"
#include "util/io.hpp"

namespace {

using namespace nptsn;

// Payload version for pending-request files (id, label, priority, overrides,
// problem blob under the standard checksummed checkpoint framing).
// v2 added max_attempts.
constexpr std::uint32_t kPendingRequestVersion = 2;

std::atomic<int> g_signal{0};
std::atomic<bool> g_dump_stats{false};

void on_signal(int sig) { g_signal.store(sig, std::memory_order_relaxed); }

void on_sigusr1(int) { g_dump_stats.store(true, std::memory_order_relaxed); }

// SIGUSR1 handler's deferred work: a point-in-time operational snapshot on
// stderr — queue depths, shard quarantine state, degraded-mode durability,
// watchdog counters, journal segments. Safe to call any time the service is
// alive; costs a few mutex acquisitions.
void dump_stats(const PlannerService& service) {
  const PlannerService::ServiceStats stats = service.stats();
  const PlannerService::Counters& c = stats.counters;
  std::fprintf(stderr, "=== nptsn_serve stats ===\n");
  for (std::size_t i = 0; i < stats.shards.size(); ++i) {
    const PlannerService::ShardSnapshot& shard = stats.shards[i];
    std::string notes;
    if (shard.quarantined) notes += " QUARANTINED";
    if (shard.wedged_sessions > 0) {
      notes += " wedged=" + std::to_string(shard.wedged_sessions);
    }
    std::fprintf(stderr, "shard %zu: queue_depth=%zu%s\n", i, shard.queue_depth,
                 notes.c_str());
  }
  std::fprintf(stderr, "inflight=%zu retry_backlog=%zu\n", stats.inflight,
               stats.retry_backlog);
  std::fprintf(stderr,
               "counters: submitted=%lld planned=%lld infeasible=%lld "
               "rejected=%lld faulted=%lld cancelled=%lld overloaded=%lld "
               "retried=%lld recovered=%lld replayed=%lld\n",
               static_cast<long long>(c.submitted), static_cast<long long>(c.planned),
               static_cast<long long>(c.infeasible), static_cast<long long>(c.rejected),
               static_cast<long long>(c.faulted), static_cast<long long>(c.cancelled),
               static_cast<long long>(c.overloaded), static_cast<long long>(c.retried),
               static_cast<long long>(c.recovered), static_cast<long long>(c.replayed));
  std::fprintf(stderr,
               "faults: degraded_sheds=%lld non_durable=%lld rearmed=%lld "
               "watchdog_cancels=%lld wedged=%lld unwedged=%lld rerouted=%lld\n",
               static_cast<long long>(c.degraded), static_cast<long long>(c.non_durable),
               static_cast<long long>(c.rearmed),
               static_cast<long long>(c.watchdog_cancels),
               static_cast<long long>(c.wedged), static_cast<long long>(c.unwedged),
               static_cast<long long>(c.rerouted));
  if (stats.journal_configured) {
    const RequestJournal::Stats& j = stats.journal;
    std::fprintf(stderr,
                 "journal: %s%s%s appends=%lld rotations=%lld compactions=%lld "
                 "live=%lld undelivered=%lld io_retries=%lld abandoned=%lld "
                 "close_errors=%lld degraded_entered=%lld rearms=%lld "
                 "reconciled=%lld\n",
                 stats.durable ? "DURABLE" : "DEGRADED",
                 stats.durable ? "" : ": ",
                 stats.durable ? "" : stats.degraded_reason.c_str(),
                 static_cast<long long>(j.appends), static_cast<long long>(j.rotations),
                 static_cast<long long>(j.compactions), static_cast<long long>(j.live),
                 static_cast<long long>(j.undelivered),
                 static_cast<long long>(j.io_retries),
                 static_cast<long long>(j.segments_abandoned),
                 static_cast<long long>(j.close_errors),
                 static_cast<long long>(j.degraded_entered),
                 static_cast<long long>(j.rearms), static_cast<long long>(j.reconciled));
    for (const auto& [path, size] : stats.journal_segments) {
      std::fprintf(stderr, "journal segment: %s (%llu bytes)\n", path.c_str(),
                   static_cast<unsigned long long>(size));
    }
  } else {
    std::fprintf(stderr, "journal: not configured\n");
  }
  std::fprintf(stderr, "=== end stats ===\n");
  std::fflush(stderr);
}

void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [options] SPEC [SPEC...]\n"
      "\n"
      "Runs the planner service over the given problems and reports each\n"
      "session's outcome. SPEC is one of:\n"
      "  ads                the ADS scenario with its application flows\n"
      "  orion[:FLOWS[:SEED]]   ORION with FLOWS random flows (default 4,\n"
      "                     seed 1)\n"
      "  gen:SEED[:FLOWS[:ZONES[:SPZ[:BACKBONE[:ESDEG]]]]]\n"
      "                     a generated zonal instance\n"
      "  problem:PATH       canonical problem bytes (net/problem.hpp)\n"
      "  pending:PATH       a pending-request file from an interrupted run\n"
      "  pending-dir:DIR    every pending-*.req under DIR (corrupt files are\n"
      "                     skipped with a warning)\n"
      "Append @P to any spec to set its queue priority (e.g. ads@10).\n"
      "\n"
      "service options:\n"
      "  --shards N           worker-pool shards (default 1)\n"
      "  --workers N          workers per shard (default 1)\n"
      "  --queue-capacity N   per-shard admission bound (default 64)\n"
      "  --no-shared-cache    disable the cross-session caches\n"
      "  --warm-start         warm-start policy weights across sessions\n"
      "                       (opt-in: changes training trajectories)\n"
      "  --state-dir DIR      checkpoint/resume directory; on SIGTERM the\n"
      "                       backlog is persisted here as pending-*.req\n"
      "  --journal DIR        write-ahead request journal; a re-run over the\n"
      "                       same DIR recovers unfinished requests and\n"
      "                       replays finished ones (ids deduplicated)\n"
      "  --max-attempts N     retry faulted/deadline-expired sessions up to\n"
      "                       N attempts with exponential backoff (default 1)\n"
      "  --admission-timeout SEC  shed a request as overloaded after waiting\n"
      "                       SEC for a queue slot (default 0 = wait forever)\n"
      "session options (template for every request):\n"
      "  --epochs N           training epochs (default 12)\n"
      "  --steps N            steps per epoch (default 256)\n"
      "  --seed S             base RNG seed (default 1)\n"
      "  --workers-per-session N  rollout workers inside a session\n"
      "  --audit              audit the final plan (certificate in-band)\n"
      "  --certificates DIR   additionally write every planned session's\n"
      "                       certificate to DIR/<id>.cert (re-checkable\n"
      "                       offline with nptsn_audit)\n"
      "  --min-order K        frontier floor: verify (and certify) every\n"
      "                       failure scenario up to order K even below the\n"
      "                       reliability goal (default 0 = Algorithm 3)\n"
      "  --include-links      mixed frontiers: planned links fail as\n"
      "                       first-class candidates next to switches\n"
      "  --session-wall SEC   per-session wall budget (0 = unlimited)\n"
      "  --watchdog-grace G   cancel sessions overrunning the wall budget by\n"
      "                       Gx and quarantine shards that still hang (G >= 1;\n"
      "                       default 0 = off; needs --session-wall)\n"
      "  --repeat N           submit every spec N times (ids get -rK)\n"
      "\n"
      "signals: SIGTERM/SIGINT cancel and persist; SIGUSR1 dumps live service\n"
      "stats (queue depths, shard health, journal durability) to stderr.\n",
      argv0);
}

struct Spec {
  std::string text;
  int priority = 0;
};

// "name@P" -> {name, P}; no @ -> priority 0. P is a decimal int whose
// negation fits too (the queue orders by -P).
Spec parse_spec(const std::string& raw) {
  Spec spec;
  const std::size_t at = raw.rfind('@');
  if (at == std::string::npos) {
    spec.text = raw;
  } else {
    spec.text = raw.substr(0, at);
    spec.priority = numeric_flag("spec priority @P", raw.c_str() + at + 1, -INT_MAX, INT_MAX);
  }
  return spec;
}

std::vector<std::uint8_t> read_file_bytes(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot open " + path);
  std::vector<char> data((std::istreambuf_iterator<char>(in)),
                         std::istreambuf_iterator<char>());
  if (!in.good() && !in.eof()) throw std::runtime_error("cannot read " + path);
  return {data.begin(), data.end()};
}

std::vector<std::uint8_t> save_pending(const PlanningRequest& request) {
  ByteWriter out;
  out.str(request.id);
  out.str(request.label);
  out.i64(request.priority);
  out.i64(request.epochs);
  out.i64(request.steps_per_epoch);
  out.u64(request.seed);
  out.i64(request.max_attempts);
  out.blob(request.problem_bytes);
  return out.data();
}

PlanningRequest load_pending(const std::vector<std::uint8_t>& payload) {
  ByteReader in(payload);
  PlanningRequest request;
  request.id = in.str();
  request.label = in.str();
  request.priority = static_cast<int>(in.i64());
  request.epochs = static_cast<int>(in.i64());
  request.steps_per_epoch = static_cast<int>(in.i64());
  request.seed = in.u64();
  request.max_attempts = static_cast<int>(in.i64());
  request.problem_bytes = in.blob();
  in.expect_exhausted("pending planning request");
  return request;
}

// Recovers every pending-*.req under `dir`. A corrupt or truncated file —
// e.g. one damaged by the crash that interrupted the previous run — is
// SKIPPED with a warning, never a refusal: losing one request's priority
// metadata must not strand the rest of the backlog.
std::vector<PlanningRequest> load_pending_dir(const std::string& dir) {
  std::error_code ec;
  if (!std::filesystem::is_directory(dir, ec)) {
    throw std::runtime_error("pending-dir is not a directory: " + dir);
  }
  std::vector<std::string> paths;
  for (const auto& entry : std::filesystem::directory_iterator(dir, ec)) {
    const std::string name = entry.path().filename().string();
    if (name.rfind("pending-", 0) == 0 && name.size() > 4 &&
        name.compare(name.size() - 4, 4, ".req") == 0) {
      paths.push_back(entry.path().string());
    }
  }
  std::sort(paths.begin(), paths.end());
  std::vector<PlanningRequest> requests;
  for (const std::string& path : paths) {
    try {
      requests.push_back(load_pending(load_checkpoint_file(path, kPendingRequestVersion)));
    } catch (const CheckpointError& e) {
      std::fprintf(stderr, "warning: skipping corrupt pending file %s: %s\n",
                   path.c_str(), e.what());
    }
  }
  return requests;
}

// Builds the requests for one spec (most specs yield one; pending-dir yields
// the whole recovered backlog). Throws ValidationError on a malformed spec
// (exit 2 at the call site) and std::runtime_error on I/O (exit 3).
std::vector<PlanningRequest> build_requests(const Spec& spec) {
  PlanningRequest request;
  request.priority = spec.priority;
  const std::string& text = spec.text;

  const std::string family = text.substr(0, text.find(':'));
  // The rest of a file spec is its path (it may itself contain colons).
  const std::string path = family.size() < text.size() ? text.substr(family.size() + 1) : "";
  if (family == "problem") {
    if (path.empty()) throw ValidationError("problem spec needs a path: problem:PATH");
    request.id = path.substr(path.find_last_of('/') + 1);
    request.label = "problem file " + path;
    request.problem_bytes = read_file_bytes(path);
  } else if (family == "pending-dir") {
    if (path.empty()) throw ValidationError("pending-dir spec needs a path: pending-dir:DIR");
    return load_pending_dir(path);
  } else if (family == "pending") {
    if (path.empty()) throw ValidationError("pending spec needs a path: pending:PATH");
    request = load_pending(load_checkpoint_file(path, kPendingRequestVersion));
    if (spec.priority != 0) request.priority = spec.priority;
  } else {
    // ads, orion[:...] and gen:...: the grammar nptsn_audit shares.
    ProblemSpec problem = parse_problem_spec(text);
    request.id = std::move(problem.id);
    request.label = std::move(problem.label);
    request.problem_bytes = problem_bytes(problem.problem);
  }
  return {std::move(request)};
}

}  // namespace

int main(int argc, char** argv) {
  ServiceConfig config;
  config.session.epochs = 12;
  config.session.steps_per_epoch = 256;
  config.session.num_workers = 1;
  int repeat = 1;
  double admission_timeout = 0.0;
  std::string certificates_dir;
  std::vector<Spec> specs;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "error: %s needs a value\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    // A numeric flag's value in [min, max]; anything else exits 2.
    auto number = [&](auto min, auto max) { return numeric_flag(arg.c_str(), value(), min, max); };
    if (arg == "--shards") {
      config.shards = number(1, INT_MAX);
    } else if (arg == "--workers") {
      config.workers_per_shard = number(1, INT_MAX);
    } else if (arg == "--queue-capacity") {
      config.queue_capacity = number(std::size_t{1}, SIZE_MAX);
    } else if (arg == "--no-shared-cache") {
      config.shared_caches = false;
    } else if (arg == "--warm-start") {
      config.warm_start = true;
    } else if (arg == "--state-dir") {
      config.state_dir = value();
    } else if (arg == "--journal") {
      config.journal_dir = value();
    } else if (arg == "--max-attempts") {
      config.default_max_attempts = number(1, INT_MAX);
    } else if (arg == "--admission-timeout") {
      admission_timeout = number(0.0, DBL_MAX);
    } else if (arg == "--epochs") {
      config.session.epochs = number(1, INT_MAX);
    } else if (arg == "--steps") {
      config.session.steps_per_epoch = number(1, INT_MAX);
    } else if (arg == "--seed") {
      config.session.seed = number(std::uint64_t{0}, UINT64_MAX);
    } else if (arg == "--workers-per-session") {
      config.session.num_workers = number(1, INT_MAX);
    } else if (arg == "--audit") {
      config.session.audit_mode = AuditMode::kFinal;
    } else if (arg == "--certificates") {
      certificates_dir = value();
    } else if (arg == "--min-order") {
      config.session.min_frontier_order = number(0, 4096);
    } else if (arg == "--include-links") {
      config.session.frontier_include_links = true;
    } else if (arg == "--session-wall") {
      config.session_wall_seconds = number(0.0, DBL_MAX);
    } else if (arg == "--watchdog-grace") {
      config.watchdog_grace = number(0.0, DBL_MAX);
    } else if (arg == "--repeat") {
      repeat = number(1, INT_MAX);
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else if (!arg.empty() && arg[0] == '-') {
      std::fprintf(stderr, "error: unknown argument %s\n", arg.c_str());
      usage(argv[0]);
      return 2;
    } else {
      specs.push_back(parse_spec(arg));
    }
  }
  if (specs.empty()) {
    usage(argv[0]);
    return 2;
  }
  if (config.watchdog_grace != 0.0 &&
      (config.watchdog_grace < 1.0 || config.session_wall_seconds <= 0.0)) {
    std::fprintf(stderr,
                 "error: --watchdog-grace must be >= 1 and needs --session-wall\n");
    return 2;
  }

  // Build every request before booting the service, so a malformed spec is a
  // clean usage/I-O error instead of a half-run.
  std::vector<PlanningRequest> requests;
  try {
    for (const Spec& spec : specs) {
      for (PlanningRequest& request : build_requests(spec)) {
        for (int r = 0; r < repeat; ++r) {
          PlanningRequest copy = request;
          if (repeat > 1) copy.id += "-r" + std::to_string(r);
          requests.push_back(std::move(copy));
        }
      }
    }
  } catch (const ValidationError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  } catch (const CheckpointError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 3;
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 3;
  }

  std::signal(SIGTERM, on_signal);
  std::signal(SIGINT, on_signal);
  std::signal(SIGUSR1, on_sigusr1);

  // Chaos harness hook: lets an out-of-process test plant a SIGKILL at a
  // named journal/service point inside this real daemon. Inert otherwise.
  if (arm_crash_point_from_env()) {
    std::fprintf(stderr, "crash point armed from NPTSN_CRASH_POINT\n");
  }
  // Fault-soak hook: deterministic I/O faults (ENOSPC, EIO, EINTR storms,
  // short writes) against named journal/checkpoint sites. Inert otherwise.
  if (const int armed = io::arm_io_faults_from_env(); armed > 0) {
    std::fprintf(stderr, "%d I/O fault(s) armed from NPTSN_IO_FAULT\n", armed);
  }

  std::printf("nptsn_serve: %d shard(s) x %d worker(s), caches %s, %zu request(s)\n",
              config.shards, config.workers_per_shard,
              config.shared_caches ? "shared" : "off", requests.size());
  std::fflush(stdout);

  std::unique_ptr<PlannerService> service;
  try {
    service = std::make_unique<PlannerService>(config);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: cannot start service: %s\n", e.what());
    return 3;
  }

  // Journal recovery: report what came back, wait on it alongside the fresh
  // submissions, and drop CLI specs a recovered session already covers —
  // "rerun the same command after a crash" must not double-run anything.
  for (const std::string& warning : service->recovery_warnings()) {
    std::fprintf(stderr, "journal warning: %s\n", warning.c_str());
  }
  std::vector<std::future<PlanningResponse>> futures;
  std::set<std::string> recovered_ids;
  for (PlannerService::RecoveredSession& session : service->take_recovered()) {
    std::printf("recovered from journal: %s%s\n", session.request.id.c_str(),
                session.replayed ? " (finished: replaying persisted answer)" : "");
    recovered_ids.insert(session.request.id);
    futures.push_back(std::move(session.response));
  }
  std::fflush(stdout);

  try {
    for (PlanningRequest& request : requests) {
      if (recovered_ids.count(request.id) != 0) {
        std::printf("skipping %s: already recovered from the journal\n",
                    request.id.c_str());
        continue;
      }
      futures.push_back(admission_timeout > 0.0
                            ? service->submit_within(std::move(request), admission_timeout)
                            : service->submit(std::move(request)));
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: submit failed: %s\n", e.what());
    service->shutdown(PlannerService::Shutdown::kCancel);
    return 3;
  }

  // Wait for every response, polling for the shutdown signal. A signal
  // cancels the service; already-resolved futures keep their results and the
  // rest resolve as kCancelled.
  bool interrupted = false;
  int failures = 0;
  for (std::size_t i = 0; i < futures.size(); ++i) {
    while (!interrupted &&
           futures[i].wait_for(std::chrono::milliseconds(100)) !=
               std::future_status::ready) {
      if (g_dump_stats.exchange(false, std::memory_order_relaxed)) {
        dump_stats(*service);
      }
      if (g_signal.load(std::memory_order_relaxed) != 0) {
        std::printf("signal received: cancelling in-flight sessions...\n");
        std::fflush(stdout);
        service->shutdown(PlannerService::Shutdown::kCancel);
        interrupted = true;
      }
    }
    const PlanningResponse response = futures[i].get();
    const char* status = to_string(response.status);
    if (response.status == ResponseStatus::kPlanned) {
      std::printf(
          "[%s] %s: cost %.1f, %d epoch(s), shard %d, queue %.2fs, plan %.2fs, "
          "%lld shared hit(s)%s%s%s%s\n",
          status, response.id.c_str(), response.best_cost, response.epochs_completed,
          response.shard, response.queue_seconds, response.plan_seconds,
          static_cast<long long>(response.verify_shared_hits),
          response.certificate_bytes.empty() ? "" : ", certified",
          response.stopped_reason.empty() ? "" : ", stopped early",
          response.attempt > 1 ? ", retried" : "",
          response.replayed ? ", replayed" : "");
      if (!certificates_dir.empty() && !response.certificate_bytes.empty()) {
        const std::string path = certificates_dir + "/" + response.id + ".cert";
        try {
          ByteReader in(response.certificate_bytes);
          save_certificate_file(path, load_certificate(in));
          std::printf("certificate written: %s\n", path.c_str());
        } catch (const std::exception& e) {
          std::fprintf(stderr, "error: cannot write %s: %s\n", path.c_str(), e.what());
          ++failures;
        }
      }
    } else {
      std::printf("[%s] %s: %s\n", status, response.id.c_str(),
                  !response.error.empty() ? response.error.c_str()
                  : !response.stopped_reason.empty() ? response.stopped_reason.c_str()
                                                     : "no verified solution");
      if (response.status != ResponseStatus::kCancelled) ++failures;
    }
    std::fflush(stdout);
  }

  // Honor a stats request that landed after the last future resolved.
  if (g_dump_stats.exchange(false, std::memory_order_relaxed)) {
    dump_stats(*service);
  }

  if (!interrupted) service->shutdown(PlannerService::Shutdown::kDrain);

  // Persist the admitted-but-unstarted backlog so a later process can resume
  // it with pending:<file> (in-flight sessions already checkpointed through
  // the trainer's checkpoint_on_stop path; a journal retains them too).
  const std::vector<PlanningRequest> backlog = service->unprocessed();
  if (!backlog.empty() && !config.state_dir.empty()) {
    for (const PlanningRequest& request : backlog) {
      const std::string path = config.state_dir + "/pending-" + request.id + ".req";
      try {
        save_checkpoint_file(path, kPendingRequestVersion, save_pending(request));
        std::printf("persisted %s\n", path.c_str());
      } catch (const CheckpointError& e) {
        std::fprintf(stderr, "error: cannot persist %s: %s\n", path.c_str(), e.what());
        return 3;
      }
    }
  }

  const PlannerService::Counters counters = service->counters();
  std::printf(
      "done: %lld submitted, %lld planned, %lld infeasible, %lld rejected, "
      "%lld faulted, %lld cancelled, %lld overloaded, %lld retried, "
      "%lld recovered, %lld replayed, %lld degraded, %lld non-durable\n",
      static_cast<long long>(counters.submitted), static_cast<long long>(counters.planned),
      static_cast<long long>(counters.infeasible),
      static_cast<long long>(counters.rejected), static_cast<long long>(counters.faulted),
      static_cast<long long>(counters.cancelled),
      static_cast<long long>(counters.overloaded),
      static_cast<long long>(counters.retried),
      static_cast<long long>(counters.recovered),
      static_cast<long long>(counters.replayed),
      static_cast<long long>(counters.degraded),
      static_cast<long long>(counters.non_durable));

  if (interrupted) return 5;
  return failures == 0 ? 0 : 1;
}
