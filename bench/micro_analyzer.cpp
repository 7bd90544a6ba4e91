// Micro-benchmark: sequential FailureAnalyzer vs VerificationEngine on the
// environment's real workload — a stream of SOAG-driven training episodes,
// each a monotone growth trajectory from the empty topology, re-verified
// from scratch at every step (exactly what PlanningEnv does; the engine
// persists across episode resets there, so it does here too).
//
// Two configurations over the identical recorded topology stream:
//   sequential            the reference FailureAnalyzer
//   incremental-serial    the verification engine
//
// Each pass starts COLD (fresh engine per repetition), and the configurations
// take turns repetition by repetition, so host noise hits all of them alike.
// The measured speedup comes from outcome-cache hits on recurring designs
// (exploit-phase episode replays, recurring early-episode graphs) plus
// residual-memo replays after ASIL upgrades and failed-set-covered link
// additions — the same exact reuse the training loop sees. Output is a
// single JSON document on stdout.
//
// Each scenario also carries a soag_yen entry: Alg. 1 lines 2-5 for every
// recorded state with a counterexample and every pair of its error set, run
// as SOAG ran them before its CSR view of Gc (a residual Gc copy and the
// graph-copying k_shortest_paths_reference) and as Soag::candidate_paths()
// runs them now (bans over the view). Both path lists are folded into
// digests; a mismatch is a nonzero exit, and speedup_vs_reference is gated.
//
// --maxord N switches to the higher-order frontier sweep (DESIGN.md §16):
// the same recorded streams re-verified with a frontier floor of order N.
// The sequential baseline runs the frozen scalar reference kernels; the
// packed-serial config runs the packed SWAR data plane. Every configuration's
// rep-0 outcomes are folded into a digest and compared in-bench — any
// divergence from the scalar ground truth is a nonzero exit, so the bench
// doubles as a cross-kernel differential on the full training workload.
//
//   micro_analyzer [--fast|--paper] [--maxord N]
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <functional>
#include <optional>
#include <string>
#include <vector>

#include "analysis/failure_analyzer.hpp"
#include "analysis/verification_engine.hpp"
#include "bench/common.hpp"
#include "core/soag.hpp"
#include "graph/yen.hpp"
#include "scenarios/ads.hpp"
#include "scenarios/orion.hpp"
#include "scenarios/scenario.hpp"
#include "tsn/sim_kernels.hpp"
#include "util/parse_number.hpp"
#include "util/rng.hpp"

namespace nptsn::bench {
namespace {

bool apply_action(Topology& t, const Action& action) {
  if (action.kind == Action::Kind::kSwitchUpgrade) {
    if (!t.has_switch(action.switch_id)) {
      t.add_switch(action.switch_id);
    } else if (t.switch_asil(action.switch_id) != Asil::D) {
      t.upgrade_switch(action.switch_id);
    } else {
      return false;
    }
    return true;
  }
  if (!t.path_respects_degrees(action.path)) return false;
  for (const NodeId v : action.path) {
    if (t.problem().is_switch(v) && !t.has_switch(v)) return false;
  }
  for (std::size_t h = 0; h + 1 < action.path.size(); ++h) {
    if (!t.has_link(action.path[h], action.path[h + 1])) {
      t.add_path(action.path);
      return true;
    }
  }
  return false;  // every link already present
}

// SOAG-driven episode. `policy` is the probability of replaying the
// corresponding step of `guide` (the best action sequence found so far)
// instead of acting randomly — the exploit phase of a converging policy.
// Appends every intermediate state and returns the episode's action trace.
std::vector<Action> record_episode(const PlanningProblem& problem, const Soag& soag,
                                   int max_steps, double policy,
                                   const std::vector<Action>& guide, Rng& rng,
                                   std::vector<Topology>& states, bool* reliable) {
  const HeuristicRecovery nbf;
  const FailureAnalyzer analyzer(nbf);
  std::vector<Action> trace;
  *reliable = false;

  Topology t(problem);
  for (int step = 0; step < max_steps; ++step) {
    states.push_back(t);
    const auto analysis = analyzer.analyze(t);
    if (analysis.reliable) {
      *reliable = true;
      break;
    }

    // Exploit: replay the guide when it still applies at this step.
    if (static_cast<std::size_t>(step) < guide.size() && rng.uniform() < policy) {
      Topology next = t;
      if (apply_action(next, guide[static_cast<std::size_t>(step)])) {
        trace.push_back(guide[static_cast<std::size_t>(step)]);
        t = std::move(next);
        continue;
      }
    }
    // Explore: a random valid SOAG action.
    const auto actions = soag.generate(t, analysis.counterexample, analysis.errors, rng);
    std::vector<int> valid;
    for (int a = 0; a < actions.size(); ++a) {
      if (actions.mask[static_cast<std::size_t>(a)]) valid.push_back(a);
    }
    if (valid.empty()) break;
    const Action& chosen = actions.actions[static_cast<std::size_t>(rng.pick(valid))];
    Topology next = t;
    if (!apply_action(next, chosen)) break;
    trace.push_back(chosen);
    t = std::move(next);
  }
  return trace;
}

// A training run's worth of episodes, exactly as the environment produces
// them: every episode restarts from the empty topology. The first third
// explores randomly; the rest mostly replays the best episode found, the
// low-entropy regime a converged PPO policy spends most of its wall time in.
std::vector<Topology> record_stream(const PlanningProblem& problem, int k,
                                    int episodes, int max_steps, std::uint64_t seed) {
  const Soag soag(problem, k);
  Rng rng(seed);
  std::vector<Topology> states;
  std::vector<Action> best;
  const int explore_episodes = episodes / 4 + 1;
  for (int e = 0; e < episodes; ++e) {
    const bool exploring = e < explore_episodes || best.empty();
    const double policy = exploring ? 0.0 : 0.99;
    bool reliable = false;
    auto trace =
        record_episode(problem, soag, max_steps, policy, best, rng, states, &reliable);
    if (reliable && (best.empty() || trace.size() < best.size())) best = std::move(trace);
  }
  return states;
}

// Restores the process-global TSN kernel selection on scope exit, so one
// configuration's choice cannot leak into the next pass.
class KernelScope {
 public:
  explicit KernelScope(TsnKernel kernel) : saved_(tsn_kernel()) { set_tsn_kernel(kernel); }
  ~KernelScope() { set_tsn_kernel(saved_); }

 private:
  TsnKernel saved_;
};

std::uint64_t fold64(std::uint64_t h, std::uint64_t v) {
  for (int b = 0; b < 8; ++b) {  // FNV-1a over the value's bytes
    h ^= (v >> (8 * b)) & 0xff;
    h *= 1099511628211ull;
  }
  return h;
}

// Folds every bit-identical-by-contract field of an outcome — verdict,
// counterexample, ErrorSet, logical counters — into a running digest.
// Physical counters (nbf_executed, cache hits, wall time) are config-specific
// and deliberately excluded.
std::uint64_t fold_outcome(std::uint64_t h, const AnalysisOutcome& outcome) {
  h = fold64(h, outcome.reliable ? 1 : 0);
  for (const NodeId v : outcome.counterexample.failed_switches) {
    h = fold64(h, static_cast<std::uint64_t>(v));
  }
  for (const EdgeKey& e : outcome.counterexample.failed_links) {
    h = fold64(h, static_cast<std::uint64_t>(e.a));
    h = fold64(h, static_cast<std::uint64_t>(e.b));
  }
  for (const auto& [source, destination] : outcome.errors) {
    h = fold64(h, static_cast<std::uint64_t>(source));
    h = fold64(h, static_cast<std::uint64_t>(destination));
  }
  h = fold64(h, static_cast<std::uint64_t>(outcome.nbf_calls));
  h = fold64(h, static_cast<std::uint64_t>(outcome.scenarios_pruned));
  h = fold64(h, static_cast<std::uint64_t>(outcome.scenarios_skipped));
  h = fold64(h, static_cast<std::uint64_t>(outcome.max_order));
  return h;
}

struct PassResult {
  double seconds = 0.0;  // best-of-reps wall time for one full pass
  std::int64_t nbf_calls = 0;     // logical (sequential-equivalent) calls
  std::int64_t nbf_executed = 0;  // NBF invocations actually run
  std::uint64_t digest = 1469598103934665603ull;  // rep-0 outcome digest
};

struct ConfigResult {
  std::string name;
  PassResult pass;
};

using Analyze = std::function<AnalysisOutcome(const Topology&)>;

// One configuration: its name, the TSN kernel family it runs under, and a
// factory for a cold analyze function (one per repetition).
struct Config {
  std::string name;
  TsnKernel kernel;
  std::function<Analyze()> make_analyze;
};

// Best-of-reps passes over the stream. The configurations alternate
// repetition by repetition, so a noisy stretch of the host slows all of them
// instead of skewing one speedup.
std::vector<ConfigResult> run_configs(const std::vector<Topology>& states, int reps,
                                      const std::vector<Config>& configs) {
  std::vector<ConfigResult> results;
  for (const Config& config : configs) results.push_back({config.name, {}});
  for (int rep = 0; rep < reps; ++rep) {
    for (std::size_t c = 0; c < configs.size(); ++c) {
      const KernelScope scope(configs[c].kernel);
      const Analyze analyze = configs[c].make_analyze();  // cold start per repetition
      PassResult& result = results[c].pass;
      const Stopwatch watch;
      for (const Topology& t : states) {
        const AnalysisOutcome outcome = analyze(t);
        if (rep == 0) {
          result.nbf_calls += outcome.nbf_calls;
          result.nbf_executed += outcome.nbf_executed;
          result.digest = fold_outcome(result.digest, outcome);
        }
      }
      const double seconds = watch.seconds();
      if (rep == 0 || seconds < result.seconds) result.seconds = seconds;
    }
  }
  return results;
}

std::vector<ConfigResult> bench_scenario(const std::vector<Topology>& states, int reps) {
  const HeuristicRecovery nbf;
  const TsnKernel kernel = tsn_kernel();
  return run_configs(
      states, reps,
      {{"sequential", kernel,
        [&nbf] {
          return Analyze([analyzer = FailureAnalyzer(nbf)](const Topology& t) {
            return analyzer.analyze(t);
          });
        }},
       {"incremental-serial", kernel, [&nbf] {
          return Analyze([engine = std::make_shared<VerificationEngine>(nbf)](
                             const Topology& t) { return engine->analyze(t); });
        }}});
}

// The --maxord sweep: the same stream re-verified with a frontier floor of
// order `maxord`. The sequential baseline is the scalar reference pinned to
// the frozen kernels; engine-scalar-serial isolates the enumeration/cache
// gain (the reference kernels offer no staged session), and packed-serial
// adds the SWAR data plane.
std::vector<ConfigResult> bench_frontier(const std::vector<Topology>& states, int reps,
                                         int maxord) {
  const HeuristicRecovery nbf;
  FailureAnalyzer::Options analyzer_options;
  analyzer_options.min_order = maxord;
  const auto engine = [&nbf, maxord] {
    VerificationEngine::Options options;
    options.min_order = maxord;
    return Analyze([engine = std::make_shared<VerificationEngine>(nbf, options)](
                       const Topology& t) { return engine->analyze(t); });
  };
  return run_configs(states, reps,
                     {{"sequential", TsnKernel::kReference,
                       [&nbf, analyzer_options] {
                         return Analyze([analyzer = FailureAnalyzer(nbf, analyzer_options)](
                                            const Topology& t) { return analyzer.analyze(t); });
                       }},
                      {"engine-scalar-serial", TsnKernel::kReference, engine},
                      {"packed-serial", TsnKernel::kFast, engine}});
}

// One SOAG path query: a recorded state, its counterexample, and one pair of
// its error set.
struct SoagQuery {
  const Topology* topology;
  FailureScenario failure;
  NodeId source;
  NodeId destination;
};

std::vector<SoagQuery> soag_queries(const std::vector<Topology>& states) {
  const HeuristicRecovery nbf;
  const FailureAnalyzer analyzer(nbf);
  std::vector<SoagQuery> queries;
  for (const Topology& t : states) {
    const AnalysisOutcome outcome = analyzer.analyze(t);
    if (outcome.reliable) continue;
    for (const auto& [s, d] : outcome.errors) {
      queries.push_back({&t, outcome.counterexample, s, d});
    }
  }
  return queries;
}

// Alg. 1 lines 2-5 as SOAG ran them before its CSR view: Gc copied and cut
// down to the residual, then the graph-copying reference Yen.
std::vector<Path> reference_soag_paths(const PlanningProblem& problem, int k,
                                       const SoagQuery& q) {
  Graph g = problem.connections;
  for (const NodeId v : q.failure.failed_switches) g.remove_node(v);
  for (const NodeId v : problem.switch_ids()) {
    if (!q.topology->has_switch(v)) g.remove_node(v);
  }
  for (const auto& link : q.failure.failed_links) g.remove_edge(link.a, link.b);
  TransitFilter can_transit(static_cast<std::size_t>(problem.num_nodes()), 1);
  for (NodeId v = 0; v < problem.num_end_stations; ++v) {
    can_transit[static_cast<std::size_t>(v)] = 0;
  }
  return k_shortest_paths_reference(g, q.source, q.destination, k, &can_transit);
}

struct YenPass {
  double seconds = 0.0;                           // best-of-reps wall time
  std::uint64_t digest = 1469598103934665603ull;  // rep-0 path digest
};

// One timed repetition of a pass over every query; rep 0 also folds the
// returned paths into the pass's digest.
template <typename Paths>
void time_yen_pass(const std::vector<SoagQuery>& queries, int rep, const Paths& paths,
                   YenPass& pass) {
  const Stopwatch watch;
  for (const SoagQuery& q : queries) {
    const std::vector<Path> found = paths(q);
    if (rep != 0) continue;
    pass.digest = fold64(pass.digest, found.size());
    for (const Path& path : found) {
      pass.digest = fold64(pass.digest, path.size());
      for (const NodeId v : path) pass.digest = fold64(pass.digest, static_cast<std::uint64_t>(v));
    }
  }
  const double seconds = watch.seconds();
  if (rep == 0 || seconds < pass.seconds) pass.seconds = seconds;
}

struct SoagYenResult {
  std::size_t queries = 0;
  YenPass reference;
  YenPass csr;
};

// The two passes alternate repetition by repetition, so a noisy stretch of
// the host hits both.
SoagYenResult bench_soag_yen(const PlanningProblem& problem, int k,
                             const std::vector<Topology>& states, int reps) {
  const std::vector<SoagQuery> queries = soag_queries(states);
  const Soag soag(problem, k);
  SoagYenResult result;
  result.queries = queries.size();
  for (int rep = 0; rep < reps; ++rep) {
    time_yen_pass(
        queries, rep,
        [&](const SoagQuery& q) { return reference_soag_paths(problem, k, q); },
        result.reference);
    time_yen_pass(
        queries, rep,
        [&](const SoagQuery& q) {
          return soag.candidate_paths(*q.topology, q.failure, q.source, q.destination);
        },
        result.csr);
  }
  return result;
}

bool check_soag_yen(const char* scenario, const SoagYenResult& result) {
  if (result.csr.digest == result.reference.digest) return true;
  std::fprintf(stderr,
               "DIGEST MISMATCH: %s/soag_yen csr = %016llx, reference = %016llx — "
               "the CSR Yen diverged from the graph-copying reference\n",
               scenario, static_cast<unsigned long long>(result.csr.digest),
               static_cast<unsigned long long>(result.reference.digest));
  return false;
}

// Every configuration replays the identical stream, so the rep-0 outcome
// digests must agree bit-for-bit. A mismatch is a kernel/enumeration bug,
// not a perf regression — report it loudly and fail the run.
bool check_digests(const char* scenario, const std::vector<ConfigResult>& results) {
  bool ok = true;
  for (const ConfigResult& r : results) {
    if (r.pass.digest != results.front().pass.digest) {
      std::fprintf(stderr,
                   "DIGEST MISMATCH: %s/%s = %016llx, %s = %016llx — outcomes "
                   "diverged from the sequential reference\n",
                   scenario, r.name.c_str(),
                   static_cast<unsigned long long>(r.pass.digest),
                   results.front().name.c_str(),
                   static_cast<unsigned long long>(results.front().pass.digest));
      ok = false;
    }
  }
  return ok;
}

void print_scenario_json(const char* name, std::size_t num_states,
                         const std::vector<ConfigResult>& results,
                         const SoagYenResult* soag_yen, bool last) {
  const double base = results.front().pass.seconds;
  std::printf("    {\n      \"name\": \"%s\",\n      \"states\": %zu,\n"
              "      \"configs\": [\n",
              name, num_states);
  for (std::size_t i = 0; i < results.size(); ++i) {
    const auto& r = results[i];
    const double speedup = r.pass.seconds > 0.0 ? base / r.pass.seconds : 0.0;
    std::printf("        {\"name\": \"%s\", \"seconds\": %.6f, "
                "\"nbf_calls\": %lld, \"nbf_executed\": %lld, "
                "\"digest\": \"%016llx\", "
                "\"speedup_vs_sequential\": %.3f}%s\n",
                r.name.c_str(), r.pass.seconds,
                static_cast<long long>(r.pass.nbf_calls),
                static_cast<long long>(r.pass.nbf_executed),
                static_cast<unsigned long long>(r.pass.digest), speedup,
                i + 1 < results.size() ? "," : "");
  }
  std::printf("      ]%s\n", soag_yen != nullptr ? "," : "");
  if (soag_yen != nullptr) {
    const double speedup = soag_yen->csr.seconds > 0.0
                               ? soag_yen->reference.seconds / soag_yen->csr.seconds
                               : 0.0;
    std::printf("      \"soag_yen\": {\"queries\": %zu, \"reference_seconds\": %.6f, "
                "\"csr_seconds\": %.6f, \"reference_digest\": \"%016llx\", "
                "\"csr_digest\": \"%016llx\", \"speedup_vs_reference\": %.3f}\n",
                soag_yen->queries, soag_yen->reference.seconds, soag_yen->csr.seconds,
                static_cast<unsigned long long>(soag_yen->reference.digest),
                static_cast<unsigned long long>(soag_yen->csr.digest), speedup);
  }
  std::printf("    }%s\n", last ? "" : ",");
}

int run(int argc, char** argv) {
  // --maxord is read before Mode::parse, so a malformed value is a usage
  // error (exit 2) even next to --help.
  int maxord = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--maxord") != 0) continue;
    const std::optional<int> value =
        i + 1 < argc ? parse_decimal<int>(argv[i + 1], 0, 8) : std::nullopt;
    if (!value) {
      std::fprintf(stderr, "error: --maxord needs a whole number in [0, 8]\n");
      return 2;
    }
    maxord = *value;
    ++i;
  }
  const Mode mode = Mode::parse(argc, argv);

  // Best-of-reps over a ~100-episode stream: single fast-mode passes are a
  // few ms, too short to time reliably on a loaded machine.
  const int reps = mode.paper ? 7 : 9;
  // The SOAG Yen passes run thousands of queries per scenario, long enough
  // to time with fewer repetitions.
  const int yen_reps = 5;
  const int k = 8;

  const int episodes = mode.paper ? 128 : 96;

  // ADS: the paper's zonal automated-driving scenario with its fixed flows.
  const auto ads = make_ads();
  const auto ads_problem = with_flows(ads, ads_flows());
  const auto ads_states =
      record_stream(ads_problem, k, episodes, mode.paper ? 64 : 32, /*seed=*/1);

  // ORION: larger topology, randomized workload.
  const auto orion = make_orion();
  Rng flow_rng(7);
  const auto orion_problem =
      with_flows(orion, random_flows(orion.problem, mode.paper ? 8 : 4, flow_rng));
  const auto orion_states =
      record_stream(orion_problem, k, episodes, mode.paper ? 48 : 24, /*seed=*/2);

  const auto ads_results = maxord > 0 ? bench_frontier(ads_states, reps, maxord)
                                      : bench_scenario(ads_states, reps);
  const auto orion_results = maxord > 0 ? bench_frontier(orion_states, reps, maxord)
                                        : bench_scenario(orion_states, reps);
  std::optional<SoagYenResult> ads_yen;
  std::optional<SoagYenResult> orion_yen;
  if (maxord == 0) {
    ads_yen = bench_soag_yen(ads_problem, k, ads_states, yen_reps);
    orion_yen = bench_soag_yen(orion_problem, k, orion_states, yen_reps);
  }

  std::printf("{\n  \"bench\": \"%s\",\n  \"mode\": \"%s\",\n",
              maxord > 0 ? "micro_analyzer_maxord" : "micro_analyzer",
              mode.paper ? "paper" : "fast");
  if (maxord > 0) std::printf("  \"maxord\": %d,\n", maxord);
  std::printf("  \"reps\": %d,\n  \"scenarios\": [\n", reps);
  print_scenario_json("ADS", ads_states.size(), ads_results,
                      ads_yen ? &*ads_yen : nullptr, /*last=*/false);
  print_scenario_json("ORION", orion_states.size(), orion_results,
                      orion_yen ? &*orion_yen : nullptr, /*last=*/true);
  std::printf("  ]\n}\n");

  bool digests_ok =
      check_digests("ADS", ads_results) & check_digests("ORION", orion_results);
  if (ads_yen) digests_ok &= check_soag_yen("ADS", *ads_yen);
  if (orion_yen) digests_ok &= check_soag_yen("ORION", *orion_yen);
  return digests_ok ? 0 : 1;
}

}  // namespace
}  // namespace nptsn::bench

int main(int argc, char** argv) { return nptsn::bench::run(argc, argv); }
