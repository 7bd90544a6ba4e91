// Benchmark runner: runs one workload in this (fresh) process and prints
// JSON lines on stdout, one per event, flushed as they happen so a crash
// still leaves every finished session on record.
//
//   nptsn_e2e run    --workload W --seed N --seconds S --tmp DIR
//   nptsn_e2e setup  --workload W --seed N --tmp DIR
//   nptsn_e2e trace  --workload W --seed N
//   nptsn_e2e replay --workload W --seed N
//
// `run` and `setup` start with one timed set-up, cold because the process is
// fresh. `run` is the untraced measurement: the set-up, then sessions for
// about S seconds, and a re-audit of every returned certificate from its
// bytes, outside the timed window. `setup` only sets up. `trace` replays the
// workload's deterministic session set through the traced composition
// (runner/trace.hpp); `replay` runs the same set through plain plan(), the
// untraced side of the tracing overhead. Metrics and the cross-run
// correctness checks are computed by e2e_bench/run.py.
//
// Every mode pins the process to workload_cpus() CPUs and runs a HostProbe
// on them (runner/host_probe.hpp); `setup` and `summary` lines carry the
// probe's median burst time over the set-up and over the timed window.
#include <sys/resource.h>

#include <cinttypes>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <filesystem>
#include <future>
#include <set>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "analysis/auditor.hpp"
#include "runner/host_probe.hpp"
#include "runner/trace.hpp"
#include "runner/workloads.hpp"
#include "tsn/recovery.hpp"

#ifndef E2E_BUILD_TYPE
#define E2E_BUILD_TYPE "unknown"
#endif
#ifndef E2E_KERNEL_SIMD
#define E2E_KERNEL_SIMD -1
#endif

namespace e2e {
namespace {

using namespace nptsn;

// --- output ---------------------------------------------------------------------

std::string quote(const std::string& s) {
  std::string out = "\"";
  for (const char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      char buf[8];
      std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
      out += buf;
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string number(double value) {
  char buf[40];
  std::snprintf(buf, sizeof buf, "%.17g", value);
  return buf;
}

// One flat JSON object, built field by field and printed as one line.
class Line {
 public:
  explicit Line(const char* event) { str("event", event); }
  Line& str(const char* key, const std::string& value) { return raw(key, quote(value)); }
  Line& num(const char* key, double value) { return raw(key, number(value)); }
  Line& count(const char* key, std::int64_t value) { return raw(key, std::to_string(value)); }
  Line& raw(const char* key, const std::string& json) {
    body_ += (body_.empty() ? "" : ",") + quote(key) + ":" + json;
    return *this;
  }
  void emit() const {
    std::printf("{%s}\n", body_.c_str());
    std::fflush(stdout);
  }

 private:
  std::string body_;
};

double peak_rss_mb() {
  rusage usage{};
  getrusage(RUSAGE_SELF, &usage);
  return static_cast<double>(usage.ru_maxrss) / 1024.0;  // KiB on Linux
}

// --- answers ----------------------------------------------------------------------

// A session's answer in the service's response encoding.
struct Answer {
  bool feasible = false;
  double cost = 0.0;
  std::vector<std::uint8_t> topology_bytes;
  std::vector<std::uint8_t> certificate_bytes;
};

Answer answer_of(const PlanningResult& result) {
  Answer answer;
  answer.feasible = result.feasible;
  answer.cost = result.feasible ? result.best_cost : 0.0;
  if (result.best) {
    ByteWriter out;
    save_topology(*result.best, out);
    answer.topology_bytes = out.data();
  }
  if (result.certificate) {
    ByteWriter out;
    save_certificate(*result.certificate, out);
    answer.certificate_bytes = out.data();
  }
  return answer;
}

Answer answer_of(const PlanningResponse& response) {
  return Answer{response.feasible, response.best_cost, response.topology_bytes,
                response.certificate_bytes};
}

// FNV-1a 64 over (feasible, topology bytes, certificate bytes, cost bits).
std::string digest(const Answer& answer) {
  std::uint64_t h = 0xcbf29ce484222325ull;
  auto mix = [&h](const void* data, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < size; ++i) {
      h ^= p[i];
      h *= 0x100000001b3ull;
    }
  };
  const unsigned char feasible = answer.feasible ? 1 : 0;
  mix(&feasible, 1);
  for (const auto* bytes : {&answer.topology_bytes, &answer.certificate_bytes}) {
    const std::uint64_t size = bytes->size();
    mix(&size, sizeof size);
    mix(bytes->data(), bytes->size());
  }
  std::uint64_t cost_bits = 0;
  std::memcpy(&cost_bits, &answer.cost, sizeof cost_bits);
  mix(&cost_bits, sizeof cost_bits);
  char buf[20];
  std::snprintf(buf, sizeof buf, "%016" PRIx64, h);
  return buf;
}

// Re-audits certified answers from their bytes against the instance's
// problem and checks each certifies the returned cost. Identical bytes get
// one audit (the audit is a pure function of problem and certificate bytes);
// each verdict is emitted as a line.
class Reauditor {
 public:
  void check(const PlanningProblem& problem, const Answer& answer, const std::string& key) {
    if (!audited_.insert(key).second) return;
    std::string why;
    bool clean = false;
    try {
      ByteReader in(answer.certificate_bytes);
      const ReliabilityCertificate certificate = load_certificate(in);
      if (certificate.claimed_cost != answer.cost) {
        why = "certificate claims cost " + number(certificate.claimed_cost) + ", answer says " +
              number(answer.cost);
      } else {
        const AuditReport report = audit_certificate(problem, certificate);
        clean = report.ok;
        if (!clean) why = report.summary();
      }
    } catch (const std::exception& e) {
      why = std::string("certificate unreadable: ") + e.what();
    }
    Line("reaudit").str("digest", key).raw("clean", clean ? "true" : "false").str("why", why).emit();
  }

 private:
  std::set<std::string> audited_;
};

// --- stamp ------------------------------------------------------------------------

const char* kernel_name(NnKernel kernel) { return kernel == NnKernel::kFast ? "fast" : "reference"; }
const char* kernel_name(TsnKernel kernel) {
  return kernel == TsnKernel::kFast ? "fast" : "reference";
}

void emit_stamp(const Workload& workload, std::uint64_t seed) {
  const NptsnConfig& config =
      workload.service ? workload.service_config.session : workload.instances.front().config;
  const ServiceConfig& service = workload.service_config;
  Line("stamp")
      .str("workload", workload.name)
      .str("seed", std::to_string(seed))
      .count("nproc", static_cast<std::int64_t>(std::thread::hardware_concurrency()))
      .count("num_workers", config.num_workers)
      .count("nn_threads", config.nn_threads)
      .count("verification_threads", config.verification_threads)
      .count("service_shards", workload.service ? service.shards : 0)
      .count("service_workers", workload.service ? service.shards * service.workers_per_shard : 0)
      .count("client_window", workload.client_window)
      .str("nn_kernel", kernel_name(config.nn_kernel))
      .str("tsn_kernel", kernel_name(config.tsn_kernel))
      .str("build_type", E2E_BUILD_TYPE)
      .count("nptsn_kernel_simd", E2E_KERNEL_SIMD)
      .str("compiler", __VERSION__)
      .count("epochs", config.epochs)
      .count("steps_per_epoch", config.steps_per_epoch)
      .count("instances", static_cast<std::int64_t>(workload.instances.size()))
      .emit();
}

// --- set-up -------------------------------------------------------------------------

struct ServiceRun {
  std::unique_ptr<PlannerService> service;
  EngineSharedCache::Stats engine_before;
  AdjacencyStageCache::Stats stage_before;
  std::int64_t journal_before = 0;
};

PlanningRequest warmup_request(const Workload& workload) {
  PlanningRequest warmup;
  warmup.id = "warmup";
  warmup.problem_bytes = workload.warmup.problem_bytes;
  warmup.seed = workload.warmup.config.seed;
  warmup.epochs = workload.warmup_epochs;
  warmup.steps_per_epoch = workload.warmup_steps;
  return warmup;
}

ServiceRun start_service(const Workload& workload, const std::string& journal_dir) {
  ServiceConfig config = workload.service_config;
  config.journal_dir = journal_dir;
  ServiceRun run;
  run.service = std::make_unique<PlannerService>(config);
  const PlanningResponse response = run.service->submit(warmup_request(workload)).get();
  if (response.status == ResponseStatus::kFaulted) {
    throw std::runtime_error("warm-up session faulted: " + response.error);
  }
  run.engine_before = run.service->engine_cache()->stats();
  run.stage_before = run.service->stage_cache()->stats();
  run.journal_before = run.service->stats().journal.appends;
  return run;
}

void warm_up_plan(const Workload& workload, const StatelessNbf& nbf) {
  NptsnConfig config = workload.warmup.config;
  config.epochs = workload.warmup_epochs;
  config.steps_per_epoch = workload.warmup_steps;
  (void)plan(workload.warmup.problem, nbf, config);
}

struct Setup {
  Workload workload;
  ServiceRun service;  // service workloads only
};

// The process's one set-up, timed: input generation, for the service its
// construction (journal open and recovery scan in a fresh directory, stores),
// and a warm-up session on a fixed input. The process is fresh, so this also
// pays every lazy first use (code pages, allocator arenas, kernel selection),
// which setup_s is meant to charge.
Setup set_up(const std::string& name, std::uint64_t seed, const StatelessNbf& nbf,
             const std::string& tmp, HostProbe& probe) {
  const std::string journal_dir = tmp + "/journal";
  std::filesystem::remove_all(journal_dir);
  Setup setup;
  const auto start = Clock::now();
  setup.workload = make_workload(name, seed);
  if (setup.workload.service) {
    setup.service = start_service(setup.workload, journal_dir);
  } else {
    warm_up_plan(setup.workload, nbf);
  }
  const auto end = Clock::now();
  emit_stamp(setup.workload, seed);
  Line("setup")
      .num("seconds", seconds_between(start, end))
      .num("probe_s", probe.median_s(start, end))
      .emit();
  return setup;
}

// --- plan workloads -----------------------------------------------------------------

int run_plan(const Workload& workload, const StatelessNbf& nbf, double seconds, HostProbe& probe) {
  // Whole cycles only, so every run of a seed covers the same inputs: the
  // next cycle starts only while the previous one suggests it ends inside
  // the window. Sessions run back to back; the window is their summed
  // latency, so the re-audit between sessions stays outside it.
  Reauditor reauditor;
  const auto start = Clock::now();
  int index = 0;
  double window = 0.0;
  double last_cycle = 0.0;
  while (index == 0 || window + last_cycle <= seconds) {
    last_cycle = 0.0;
    for (const Instance& instance : workload.instances) {
      Line("begin").count("index", index).emit();
      const auto t0 = Clock::now();
      const PlanningResult result = plan(instance.problem, nbf, instance.config);
      const double latency = seconds_between(t0, Clock::now());
      last_cycle += latency;
      const Answer answer = answer_of(result);
      const std::string key = digest(answer);
      std::int64_t steps = 0;
      for (const EpochStats& epoch : result.history) steps += epoch.steps;
      Line("session")
          .count("index", index)
          .str("instance", instance.name)
          .num("latency_s", latency)
          .str("status", result.certificate ? "planned" : "infeasible")
          .num("cost", answer.cost)
          .str("digest", key)
          .count("env_steps", steps)
          .num("peak_rss_mb", peak_rss_mb())
          .emit();
      if (result.certificate) reauditor.check(instance.problem, answer, key);
      ++index;
    }
    window += last_cycle;
  }
  Line("summary")
      .num("window_s", window)
      .num("probe_s", probe.median_s(start, Clock::now()))
      .num("peak_rss_mb", peak_rss_mb())
      .emit();
  return 0;
}

// --- service_stream -----------------------------------------------------------------

bool failed_status(ResponseStatus status) {
  return status == ResponseStatus::kFaulted || status == ResponseStatus::kCancelled ||
         status == ResponseStatus::kOverloaded || status == ResponseStatus::kDegraded;
}

int run_service(const Workload& workload, const ServiceRun& run, double seconds,
                HostProbe& probe) {
  // One client thread, closed loop: keep client_window requests outstanding,
  // submit the next one as soon as any resolves. The first cycle over the
  // instances is always submitted, so every run of a seed covers them all.
  struct Outstanding {
    int index = 0;
    Clock::time_point submitted;
    double submit_s = 0.0;
    std::future<PlanningResponse> future;
  };
  std::deque<Outstanding> outstanding;
  std::vector<std::pair<std::size_t, Answer>> certified;  // (instance, answer), first seen
  std::set<std::string> seen;
  const int instances = static_cast<int>(workload.instances.size());
  int next = 0;
  const auto start = Clock::now();
  auto window_end = start;
  for (;;) {
    while (static_cast<int>(outstanding.size()) < workload.client_window &&
           (next < instances || seconds_between(start, Clock::now()) < seconds)) {
      Line("begin").count("index", next).emit();
      Outstanding item;
      item.index = next;
      item.submitted = Clock::now();
      item.future = run.service->submit(stream_request(workload, next));
      item.submit_s = seconds_between(item.submitted, Clock::now());
      outstanding.push_back(std::move(item));
      ++next;
    }
    if (outstanding.empty()) break;
    bool any = false;
    for (auto it = outstanding.begin(); it != outstanding.end();) {
      if (it->future.wait_for(std::chrono::seconds(0)) != std::future_status::ready) {
        ++it;
        continue;
      }
      const PlanningResponse response = it->future.get();
      window_end = Clock::now();
      const Instance& instance =
          workload.instances[static_cast<std::size_t>(it->index % instances)];
      const Answer answer = answer_of(response);
      const std::string key = digest(answer);
      if (!response.certificate_bytes.empty() && seen.insert(key).second) {
        certified.emplace_back(static_cast<std::size_t>(it->index % instances), answer);
      }
      const char* status = response.status == ResponseStatus::kPlanned ? "planned"
                           : failed_status(response.status)           ? "failed"
                                                                        : "infeasible";
      Line("session")
          .count("index", it->index)
          .str("instance", instance.name)
          .num("latency_s", seconds_between(it->submitted, window_end))
          .str("status", status)
          .str("service_status", to_string(response.status))
          .str("error", response.error)
          .num("cost", answer.cost)
          .str("digest", key)
          .num("submit_s", it->submit_s)
          .num("queue_s", response.queue_seconds)
          .num("plan_s", response.plan_seconds)
          .num("peak_rss_mb", peak_rss_mb())
          .emit();
      it = outstanding.erase(it);
      any = true;
    }
    if (!any) outstanding.front().future.wait_for(std::chrono::milliseconds(1));
  }
  const double window = seconds_between(start, window_end);

  const PlannerService::ServiceStats stats = run.service->stats();
  const EngineSharedCache::Stats engine = run.service->engine_cache()->stats();
  const AdjacencyStageCache::Stats stage = run.service->stage_cache()->stats();
  run.service->shutdown(PlannerService::Shutdown::kDrain);
  Reauditor reauditor;
  for (const auto& [instance, answer] : certified) {
    reauditor.check(workload.instances[instance].problem, answer, digest(answer));
  }
  Line("summary")
      .num("window_s", window)
      .num("probe_s", probe.median_s(start, window_end))
      .num("peak_rss_mb", peak_rss_mb())
      .count("verdict_hits", static_cast<std::int64_t>(engine.verdict_hits - run.engine_before.verdict_hits))
      .count("verdict_misses",
             static_cast<std::int64_t>(engine.verdict_misses - run.engine_before.verdict_misses))
      .count("outcome_hits", static_cast<std::int64_t>(engine.outcome_hits - run.engine_before.outcome_hits))
      .count("outcome_misses",
             static_cast<std::int64_t>(engine.outcome_misses - run.engine_before.outcome_misses))
      .count("shared_cache_bytes", static_cast<std::int64_t>(engine.bytes))
      .count("stage_hits", static_cast<std::int64_t>(stage.hits - run.stage_before.hits))
      .count("stage_misses", static_cast<std::int64_t>(stage.misses - run.stage_before.misses))
      .count("journal_appends", stats.journal.appends - run.journal_before)
      .count("retried", stats.counters.retried)
      .count("faulted", stats.counters.faulted)
      .emit();
  return 0;
}

// --- traced replay ------------------------------------------------------------------

void emit_layers(const LayerTotals& t, int sessions) {
  Line("trace_summary")
      .count("sessions", sessions)
      .num("wall_s", t.wall_s)
      .num("session_setup_s", t.session_setup_s)
      .num("rollout_s", t.rollout_s)
      .num("update_s", t.update_s)
      .num("env_step_s", t.env_step_s)
      .num("step_verify_s", t.step_verify_s)
      .num("observe_s", t.observe_s)
      .num("reset_s", t.reset_s)
      .count("env_steps", t.env_steps)
      .count("observes", t.observes)
      .count("episodes", t.episodes)
      .num("verify_s", t.verify_s)
      .count("nbf_calls", t.nbf_calls)
      .count("nbf_executed", t.nbf_executed)
      .count("memo_hits", t.memo_hits)
      .count("residual_reuses", t.residual_reuses)
      .count("shared_hits", t.shared_hits)
      .num("nbf_recover_s", t.nbf_recover_s)
      .count("nbf_recovers", t.nbf_recovers)
      .num("nbf_stage_s", t.nbf_stage_s)
      .count("nbf_stages", t.nbf_stages)
      .num("certificate_s", t.certificate_s)
      .num("audit_s", t.audit_s)
      .num("unattributed_s", t.unattributed_s())
      .num("peak_rss_mb", peak_rss_mb())
      .emit();
}

void emit_replayed(const char* event, int index, const Instance& instance,
                   const TracedResult& session) {
  Line(event)
      .count("index", index)
      .str("instance", instance.name)
      .num("wall_s", session.layers.wall_s)
      .str("digest", digest(answer_of(session.result)))
      .count("env_steps", session.layers.env_steps)
      .emit();
}

// Replays the workload's deterministic session set one session after another:
// one cycle of a plan workload, or the first trace_replay_sessions requests of
// the stream with the replay's own shared stores, configured like the
// service's. `traced` runs each session through the traced composition and
// ends with the layer totals; otherwise it runs plain plan(), timed around
// the call: the untraced side of the tracing overhead.
int run_replay(const std::string& name, std::uint64_t seed, bool traced) {
  const Workload workload = make_workload(name, seed);
  const HeuristicRecovery nbf;
  emit_stamp(workload, seed);
  const char* event = traced ? "traced" : "replayed";
  auto session = [&](const PlanningProblem& problem, const NptsnConfig& config) {
    if (traced) return traced_plan(problem, nbf, config);
    TracedResult untraced;
    const auto t0 = Clock::now();
    untraced.result = plan(problem, nbf, config);
    untraced.layers.wall_s = seconds_between(t0, Clock::now());
    for (const EpochStats& epoch : untraced.result.history) untraced.layers.env_steps += epoch.steps;
    return untraced;
  };
  LayerTotals totals;
  int sessions = 0;
  if (!workload.service) {
    warm_up_plan(workload, nbf);
    for (const Instance& instance : workload.instances) {
      const TracedResult result = session(instance.problem, instance.config);
      emit_replayed(event, sessions++, instance, result);
      totals.add(result.layers);
    }
  } else {
    const ServiceConfig& service = workload.service_config;
    const auto engine_cache = std::make_shared<EngineSharedCache>(service.engine_cache);
    const auto stage_cache = std::make_shared<AdjacencyStageCache>(service.stage_cache_bytes);
    auto session_config = [&](const PlanningRequest& request) {
      NptsnConfig config = service_session_config(service, request);
      config.deadline = Deadline::after(service.session_wall_seconds, service.session_max_ticks);
      config.engine_shared_cache = engine_cache;
      config.stage_cache = stage_cache;
      return config;
    };
    (void)session(workload.warmup.problem, session_config(warmup_request(workload)));
    for (int i = 0; i < workload.trace_replay_sessions; ++i) {
      const PlanningRequest request = stream_request(workload, i);
      const PlanningProblem problem = problem_from_bytes(request.problem_bytes);
      const TracedResult result = session(problem, session_config(request));
      emit_replayed(event,
                    i, workload.instances[static_cast<std::size_t>(i) % workload.instances.size()],
                    result);
      totals.add(result.layers);
      ++sessions;
    }
  }
  if (traced) emit_layers(totals, sessions);
  return 0;
}

// --- CLI --------------------------------------------------------------------------

int usage() {
  std::fprintf(stderr,
               "usage: nptsn_e2e run    --workload W --seed N --seconds S --tmp DIR\n"
               "       nptsn_e2e setup  --workload W --seed N --tmp DIR\n"
               "       nptsn_e2e trace  --workload W --seed N\n"
               "       nptsn_e2e replay --workload W --seed N\n");
  return 2;
}

int main_impl(int argc, char** argv) {
  if (argc < 2) return usage();
  const std::string mode = argv[1];
  std::string workload;
  std::string tmp;
  std::uint64_t seed = 0;
  double seconds = 0.0;
  for (int i = 2; i + 1 < argc; i += 2) {
    const std::string flag = argv[i];
    const char* value = argv[i + 1];
    if (flag == "--workload") {
      workload = value;
    } else if (flag == "--seed") {
      seed = std::strtoull(value, nullptr, 10);
    } else if (flag == "--seconds") {
      seconds = std::atof(value);
    } else if (flag == "--tmp") {
      tmp = value;
    } else {
      return usage();
    }
  }
  if (workload.empty()) return usage();
  const bool replay = mode == "trace" || mode == "replay";
  if (!replay && (mode != "run" && mode != "setup")) return usage();
  if (!replay && (tmp.empty() || (mode == "run" && seconds <= 0.0))) return usage();
  // Before any other thread starts, so every thread inherits the pinning.
  HostProbe probe(pin_process(workload_cpus(workload)));
  if (replay) return run_replay(workload, seed, mode == "trace");
  const HeuristicRecovery nbf;
  const Setup setup = set_up(workload, seed, nbf, tmp, probe);
  if (mode == "setup") return 0;
  return setup.workload.service ? run_service(setup.workload, setup.service, seconds, probe)
                                : run_plan(setup.workload, nbf, seconds, probe);
}

}  // namespace
}  // namespace e2e

int main(int argc, char** argv) {
  try {
    return e2e::main_impl(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "nptsn_e2e: %s\n", e.what());
    return 1;
  }
}
