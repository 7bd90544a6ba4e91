// The benchmark's three workloads, built from the workload seed alone. The
// program only ever sees the generated inputs.
//
//   orion_plan      ORION (31 ES, 15 switches, 200 candidate links), 10 random
//                   flows per session from a fixed panel, fast-mode training
//                   shape, one thread, audit_mode = final. PPO-update bound
//                   (GCN block products); verification and service layers
//                   idle.
//   ads_plan        ADS (16 nodes, 12 fixed flows), the examples/ads_planning
//                   shape (256-wide heads, 15+15 PPO iterations), one thread.
//                   PPO-update bound on the dense 256x256 GEMMs.
//   service_stream  A PlannerService (1 shard x 2 workers, shared caches, WAL
//                   journal) fed by one closed-loop client with 4 requests
//                   outstanding; a fixed panel of generated zonal problems,
//                   each with four training seeds, submitted round-robin, so
//                   every problem recurs as a fleet re-plan. Short sessions, so
//                   per-session fixed costs and caches carry their largest
//                   share; the only workload through src/service.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "core/config.hpp"
#include "net/problem.hpp"
#include "service/service.hpp"

namespace e2e {

struct Instance {
  std::string name;
  nptsn::PlanningProblem problem;
  std::vector<std::uint8_t> problem_bytes;
  // Plan workloads: the full session config. Service workloads: the request
  // seed is config.seed, everything else comes from the service template.
  nptsn::NptsnConfig config;
};

struct Workload {
  std::string name;
  bool service = false;
  // Plan workloads run this cycle of sessions (whole cycles only); the
  // service stream submits instances round-robin.
  std::vector<Instance> instances;
  // Session on a fixed input outside the timed set, run during set-up so lazy
  // initialisation (code pages, allocator arenas, kernel selection) is paid
  // before timing starts.
  Instance warmup;
  int warmup_epochs = 1;
  int warmup_steps = 32;

  // --- service_stream ---------------------------------------------------------
  nptsn::ServiceConfig service_config;  // journal_dir filled in by the runner
  int client_window = 0;
  // Stream sessions the traced replay runs, in submission order: enough for
  // every instance to be seen once and then hit the replay's shared stores.
  int trace_replay_sessions = 0;
};

// Throws std::invalid_argument for an unknown name.
Workload make_workload(const std::string& name, std::uint64_t seed);

// CPUs the workload's runner process is pinned to: one per thread that
// works at once (the service's workers; one for the plan workloads, whose
// sessions run on the calling thread).
int workload_cpus(const std::string& name);

// splitmix64 of (seed, index), never 0 (0 means "inherit" for request seeds).
std::uint64_t derive_seed(std::uint64_t seed, std::uint64_t index);

// The stream's i-th request (round-robin over the instances).
nptsn::PlanningRequest stream_request(const Workload& workload, int index);

// The NptsnConfig PlannerService::run_session builds for `request`, minus the
// deadline token and the shared stores, which the caller installs.
nptsn::NptsnConfig service_session_config(const nptsn::ServiceConfig& service,
                                          const nptsn::PlanningRequest& request);

}  // namespace e2e
