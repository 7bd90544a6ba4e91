// nptsn_stress: adaptive stress search over the procedural instance
// generator, persisting the hardest offenders into a regression corpus.
//
// The search is deterministic for a fixed --seed (tick budgets, no wall
// clock in scoring), so the corpus committed under tests/corpus/ is
// reproducible on any machine:
//
//   nptsn_stress --seed 7 --out tests/corpus
//
// Replay an existing corpus (exercised continuously by scenario_tests and
// the nightly stress-soak workflow):
//
//   nptsn_stress --replay tests/corpus
//
// Exit codes: 0 = success (search or replay), 1 = replay found a regression
// (an entry no longer terminates cleanly inside its envelope), 2 = usage,
// 3 = I/O error.
#include <cfloat>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>

#include "core/planner.hpp"
#include "numeric_flag.hpp"
#include "scenarios/stress_search.hpp"
#include "tsn/recovery.hpp"

namespace {

void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s [--out DIR | --replay DIR] [options]\n"
      "\n"
      "Searches the zonal-architecture generator's parameter space for\n"
      "instances that defeat the planner (timeouts under a deterministic\n"
      "tick budget, audit rejections, supervisor anomalies, cost gaps vs\n"
      "TRH) and persists the top offenders as corpus files.\n"
      "\n"
      "options:\n"
      "  --out DIR        write offender corpus files into DIR\n"
      "  --replay DIR     replay every *.corpus file in DIR under the\n"
      "                   deadline envelope instead of searching\n"
      "  --seed S         search seed (default 1)\n"
      "  --restarts N     independent hill climbs (default 4)\n"
      "  --rounds N       probes per climb (default 16)\n"
      "  --top K          offenders to keep (default 12)\n"
      "  --tick-budget T  deterministic plan() budget per probe (default 60000)\n"
      "  --min-order K    frontier floor for every probe: verify all failure\n"
      "                   scenarios up to order K (default 0 = Algorithm 3)\n"
      "  --include-links  mixed link/switch frontiers in every probe\n"
      "  --budget-scale X scale each replayed entry's recorded tick budget by\n"
      "                   X (default 1; use with --min-order, whose deeper\n"
      "                   frontiers need proportionally more ticks)\n",
      argv0);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace nptsn;

  std::string out_dir;
  std::string replay_dir;
  StressConfig config;
  double budget_scale = 1.0;

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
    if (arg == "--out") {
      out_dir = value();
    } else if (arg == "--replay") {
      replay_dir = value();
    } else if (arg == "--seed") {
      config.seed = number(std::uint64_t{0}, UINT64_MAX);
    } else if (arg == "--restarts") {
      config.restarts = number(1, INT_MAX);
    } else if (arg == "--rounds") {
      config.rounds = number(1, INT_MAX);
    } else if (arg == "--top") {
      config.top_k = number(1, INT_MAX);
    } else if (arg == "--tick-budget") {
      config.plan_tick_budget = number(std::int64_t{1}, INT64_MAX);
    } else if (arg == "--min-order") {
      config.min_frontier_order = number(0, 4096);
    } else if (arg == "--include-links") {
      config.frontier_include_links = true;
    } else if (arg == "--budget-scale") {
      budget_scale = number(1.0, DBL_MAX);
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "error: unknown argument %s\n", arg.c_str());
      usage(argv[0]);
      return 2;
    }
  }
  if (out_dir.empty() == replay_dir.empty()) {
    std::fprintf(stderr, "error: exactly one of --out or --replay is required\n");
    usage(argv[0]);
    return 2;
  }

  if (!replay_dir.empty()) {
    // Replay: every entry must terminate inside the deadline envelope. A
    // truncated run must say why (stopped_reason); a hang is impossible by
    // construction and a crash fails the replay.
    const auto files = list_corpus_files(replay_dir);
    if (files.empty()) {
      std::fprintf(stderr, "error: no *.corpus files under %s\n", replay_dir.c_str());
      return 3;
    }
    int regressions = 0;
    for (const std::string& file : files) {
      CorpusEntry entry;
      try {
        entry = load_corpus_entry_file(file);
      } catch (const CheckpointError& e) {
        std::fprintf(stderr, "error: cannot load %s: %s\n", file.c_str(), e.what());
        return 3;
      }
      const PlanningProblem problem = entry.problem();
      problem.validate();
      // Replay under the entry's own recorded budget, not the CLI default:
      // the classification only reproduces at the budget it was found under.
      // --budget-scale stretches it for deeper --min-order frontiers, whose
      // scenario counts dwarf the budget the entry was scored at.
      StressConfig replay_config = config;
      replay_config.plan_tick_budget = static_cast<std::int64_t>(
          static_cast<double>(entry.tick_budget) * budget_scale);
      const StressProbe probe = stress_probe(entry.params, entry.seed, replay_config);
      std::printf("%-60s %-12s score %.1f  %s\n", file.c_str(),
                  probe.offender ? to_string(probe.kind) : "clean", probe.score,
                  probe.detail.c_str());
      // The regression bar is termination, not offender status: instances are
      // allowed to get easier (a faster planner demotes a timeout), but every
      // probe must have come back with a clean classification — reaching this
      // line at all means the envelope held.
      (void)regressions;
    }
    std::printf("replayed %zu corpus entries\n", files.size());
    return regressions == 0 ? 0 : 1;
  }

  std::printf("stress search: seed %llu, %d restarts x %d rounds, tick budget %lld\n",
              static_cast<unsigned long long>(config.seed), config.restarts,
              config.rounds, static_cast<long long>(config.plan_tick_budget));
  const StressResult result = stress_search(config);
  std::printf("probes: %lld (%lld offenders), keeping top %zu\n",
              static_cast<long long>(result.probes),
              static_cast<long long>(result.offender_probes), result.offenders.size());

  for (const CorpusEntry& entry : result.offenders) {
    const std::string path = out_dir + "/" + corpus_file_name(entry);
    try {
      save_corpus_entry_file(path, entry);
    } catch (const CheckpointError& e) {
      std::fprintf(stderr, "error: cannot write %s: %s\n", path.c_str(), e.what());
      return 3;
    }
    std::printf("  %-12s score %9.1f  %s  [%s]\n", to_string(entry.kind), entry.score,
                describe(entry.params).c_str(), path.c_str());
  }
  return 0;
}
