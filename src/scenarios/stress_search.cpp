#include "scenarios/stress_search.hpp"

#include <algorithm>
#include <map>
#include <string>

#include "analysis/certificate.hpp"
#include "baselines/trh.hpp"
#include "core/planner.hpp"
#include "tsn/recovery.hpp"
#include "util/expect.hpp"

namespace nptsn {
namespace {

// Search-space bounds. Deliberately tight: the searcher's job is to find
// HARD instances inside a realistic zonal envelope, not to inflate node
// counts until anything times out (the tick budget caps work regardless).
constexpr int kMaxZones = 6;
constexpr int kMaxStationsPerZone = 5;
constexpr int kMaxSwitchesPerZone = 3;
constexpr int kMaxBackbone = 3;
constexpr int kMaxFlows = 24;

GeneratorParams clamp_params(GeneratorParams p) {
  p.zones = std::clamp(p.zones, 1, kMaxZones);
  p.stations_per_zone = std::clamp(p.stations_per_zone, 1, kMaxStationsPerZone);
  if (p.zones * p.stations_per_zone < 2) p.stations_per_zone = 2;
  p.switches_per_zone = std::clamp(p.switches_per_zone, 1, kMaxSwitchesPerZone);
  p.backbone_switches = std::clamp(p.backbone_switches, 0, kMaxBackbone);
  p.cross_link_prob = std::clamp(p.cross_link_prob, 0.0, 1.0);
  p.length_scale = std::clamp(p.length_scale, 0.25, 4.0);
  p.flow_count = std::clamp(p.flow_count, 1, kMaxFlows);
  p.slots_per_base = std::clamp(p.slots_per_base, 8, 40);
  p.max_period_divisor_log2 = std::clamp(p.max_period_divisor_log2, 0, 3);
  p.max_es_degree = std::clamp(p.max_es_degree, 1, 3);
  p.library_variant = std::clamp(p.library_variant, 0, kNumLibraryVariants - 1);
  return p;
}

GeneratorParams random_params(Rng& rng) {
  GeneratorParams p;
  p.zones = rng.uniform_int(2, kMaxZones);
  p.stations_per_zone = rng.uniform_int(1, kMaxStationsPerZone);
  p.switches_per_zone = rng.uniform_int(1, kMaxSwitchesPerZone);
  p.backbone_switches = rng.uniform_int(0, kMaxBackbone);
  p.cross_link_prob = rng.uniform(0.0, 0.8);
  p.length_scale = rng.uniform(0.5, 2.0);
  p.flow_count = rng.uniform_int(2, kMaxFlows);
  p.slots_per_base = rng.uniform_int(8, 40);
  p.max_period_divisor_log2 = rng.uniform_int(0, 3);
  p.library_variant = rng.uniform_int(0, kNumLibraryVariants - 1);
  static constexpr double kGoals[] = {1e-5, 1e-6, 1e-7};
  p.reliability_goal = kGoals[rng.uniform_int(0, 2)];
  p.max_es_degree = rng.uniform_int(1, 3);
  return clamp_params(p);
}

// One local move: perturb a single dimension, stay inside the valid space.
GeneratorParams mutate(GeneratorParams p, Rng& rng) {
  switch (rng.uniform_int(0, 11)) {
    case 0: p.zones += rng.uniform_int(0, 1) ? 1 : -1; break;
    case 1: p.stations_per_zone += rng.uniform_int(0, 1) ? 1 : -1; break;
    case 2: p.switches_per_zone += rng.uniform_int(0, 1) ? 1 : -1; break;
    case 3: p.backbone_switches += rng.uniform_int(0, 1) ? 1 : -1; break;
    case 4: p.cross_link_prob += rng.uniform(-0.2, 0.2); break;
    case 5: p.length_scale *= rng.uniform_int(0, 1) ? 1.5 : (1.0 / 1.5); break;
    case 6: p.flow_count += rng.uniform_int(1, 4) * (rng.uniform_int(0, 1) ? 1 : -1); break;
    case 7: p.slots_per_base += rng.uniform_int(2, 8) * (rng.uniform_int(0, 1) ? 1 : -1); break;
    case 8: p.max_period_divisor_log2 += rng.uniform_int(0, 1) ? 1 : -1; break;
    case 9: p.library_variant = rng.uniform_int(0, kNumLibraryVariants - 1); break;
    case 10: {
      static constexpr double kGoals[] = {1e-5, 1e-6, 1e-7};
      p.reliability_goal = kGoals[rng.uniform_int(0, 2)];
      break;
    }
    case 11: p.max_es_degree += rng.uniform_int(0, 1) ? 1 : -1; break;
    default: break;
  }
  return clamp_params(p);
}

}  // namespace

StressProbe stress_probe(const GeneratorParams& params, std::uint64_t instance_seed,
                         const StressConfig& config) {
  StressProbe probe;
  probe.params = params;
  probe.instance_seed = instance_seed;

  const PlanningProblem problem = generate(params, instance_seed);
  const HeuristicRecovery nbf;
  const TrhResult trh = run_trh(problem);

  NptsnConfig plan_config;
  // Short, deterministic, single-threaded probe: a tiny network and rollout
  // keep honest instances fast, the tick-only deadline keeps hostile ones
  // bounded, and nothing in the probe reads a wall clock — scores are a pure
  // function of (params, seed, config) on every machine.
  plan_config.epochs = config.plan_epochs;
  plan_config.steps_per_epoch = config.steps_per_epoch;
  plan_config.mlp_hidden = {32, 32};
  plan_config.path_actions = 4;
  plan_config.num_workers = 1;
  plan_config.nn_threads = 1;
  plan_config.seed = instance_seed;
  plan_config.audit_mode = AuditMode::kFinal;
  plan_config.health_checks = true;
  plan_config.min_frontier_order = config.min_frontier_order;
  plan_config.frontier_include_links = config.frontier_include_links;
  plan_config.deadline = Deadline::after(/*wall_seconds=*/0.0, config.plan_tick_budget);

  const PlanningResult result = plan(problem, nbf, plan_config);

  // Classification ladder, hardest first. A timeout trumps everything (the
  // instance defeats the envelope's budget outright); an audit rejection
  // means the planner produced an unsound verdict; supervisor anomalies mean
  // the run needed self-healing; a cost gap means NPTSN lost on its own
  // objective against a cheap heuristic.
  const bool timed_out = result.stopped_reason.rfind("deadline:", 0) == 0;
  if (timed_out) {
    probe.offender = true;
    probe.kind = OffenderKind::kTimeout;
    probe.score = 1e9 + static_cast<double>(plan_config.deadline->ticks());
    probe.detail = result.stopped_reason;
    return probe;
  }
  if (result.audits_rejected > 0) {
    probe.offender = true;
    probe.kind = OffenderKind::kAuditReject;
    probe.score = 1e6 + static_cast<double>(result.audits_rejected);
    probe.detail = result.audit_failures.empty() ? "audit rejected"
                                                 : result.audit_failures.front();
    return probe;
  }
  if (result.anomalies_total > 0) {
    probe.offender = true;
    probe.kind = OffenderKind::kAnomaly;
    probe.score = 1e4 + static_cast<double>(result.anomalies_total);
    probe.detail = std::to_string(result.anomalies_total) + " supervisor anomalies";
    return probe;
  }
  if (trh.valid) {
    if (!result.feasible) {
      probe.offender = true;
      probe.kind = OffenderKind::kCostGap;
      probe.score = 1e3;
      probe.detail = "no NPTSN solution although TRH planned the instance (TRH cost " +
                     std::to_string(trh.cost) + ")";
      return probe;
    }
    const double gap = (result.best_cost - trh.cost) / trh.cost;
    if (gap > config.cost_gap_threshold) {
      probe.offender = true;
      probe.kind = OffenderKind::kCostGap;
      probe.score = 100.0 * gap;
      probe.detail = "Eq. 1 cost " + std::to_string(result.best_cost) + " vs TRH " +
                     std::to_string(trh.cost);
      return probe;
    }
  }
  // Honest instance: score by how much verification work it forced, so the
  // hill climb still has a gradient toward expensive regions.
  probe.score = static_cast<double>(plan_config.deadline->ticks()) /
                static_cast<double>(config.plan_tick_budget);
  return probe;
}

StressResult stress_search(const StressConfig& config) {
  NPTSN_EXPECT(config.restarts >= 1, "need at least one restart");
  NPTSN_EXPECT(config.rounds >= 1, "need at least one round");
  NPTSN_EXPECT(config.top_k >= 1, "need a positive offender capacity");
  NPTSN_EXPECT(config.plan_tick_budget >= 1, "need a positive tick budget");

  StressResult result;
  Rng rng(config.seed);
  // Offenders deduplicated by problem fingerprint; the map keeps insertion
  // independent of probe order for the final ranking.
  std::map<std::uint64_t, CorpusEntry> offenders;

  auto consider = [&](const StressProbe& probe) {
    ++result.probes;
    if (!probe.offender) return;
    ++result.offender_probes;
    const PlanningProblem problem = generate(probe.params, probe.instance_seed);
    const std::uint64_t fp = problem_fingerprint(problem);
    auto it = offenders.find(fp);
    if (it != offenders.end() && it->second.score >= probe.score) return;
    CorpusEntry entry;
    entry.generator_version = kGeneratorVersion;
    entry.params = probe.params;
    entry.seed = probe.instance_seed;
    entry.tick_budget = config.plan_tick_budget;
    entry.kind = probe.kind;
    entry.score = probe.score;
    entry.detail = probe.detail;
    entry.problem_bytes = problem_bytes(problem);
    offenders[fp] = std::move(entry);
  };

  for (int restart = 0; restart < config.restarts; ++restart) {
    GeneratorParams current = random_params(rng);
    std::uint64_t current_seed = rng.next_u64();
    StressProbe current_probe = stress_probe(current, current_seed, config);
    consider(current_probe);
    for (int round = 0; round < config.rounds; ++round) {
      const GeneratorParams candidate = mutate(current, rng);
      const std::uint64_t candidate_seed = rng.next_u64();
      const StressProbe probe = stress_probe(candidate, candidate_seed, config);
      consider(probe);
      if (probe.score >= current_probe.score) {
        current = candidate;
        current_seed = candidate_seed;
        current_probe = probe;
      }
    }
  }

  result.offenders.reserve(offenders.size());
  for (auto& [fp, entry] : offenders) result.offenders.push_back(std::move(entry));
  std::sort(result.offenders.begin(), result.offenders.end(),
            [](const CorpusEntry& a, const CorpusEntry& b) {
              if (a.score != b.score) return a.score > b.score;
              return a.problem_bytes < b.problem_bytes;  // deterministic tiebreak
            });
  if (result.offenders.size() > static_cast<std::size_t>(config.top_k)) {
    result.offenders.resize(static_cast<std::size_t>(config.top_k));
  }
  return result;
}

}  // namespace nptsn
