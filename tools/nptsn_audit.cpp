// nptsn_audit: offline re-audit of a shipped reliability certificate.
//
// Loads a certificate file (versioned/checksummed checkpoint framing),
// reconstructs the planning problem it claims to solve, and runs the
// independent auditor — no NBF, no analyzer, no trained model involved. A
// certificate shipped next to a plan is thereby checkable by a third party
// long after the planning run is gone.
//
// Exit codes (distinct so CI and scripts can branch without parsing output):
//   0 = audit clean
//   1 = audit failed (taxonomy printed)
//   2 = usage error (bad flags, unknown scenario)
//   3 = I/O error (unreadable, truncated, or corrupt certificate file)
//   4 = deadline exceeded (--deadline-ms budget fired before a verdict)
#include <cfloat>
#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <string>

#include "analysis/auditor.hpp"
#include "numeric_flag.hpp"
#include "scenarios/problem_spec.hpp"

namespace {

void usage(const char* argv0) {
  std::fprintf(
      stderr,
      "usage: %s --certificate FILE --scenario SPEC [options]\n"
      "\n"
      "Re-audits a reliability certificate against a design scenario's\n"
      "planning problem, independently of the planner that emitted it.\n"
      "\n"
      "options:\n"
      "  --certificate FILE   certificate file written by plan() /\n"
      "                       save_certificate_file (required)\n"
      "  --scenario SPEC      the problem spec the plan was made for, in\n"
      "                       nptsn_serve's grammar (required): ads (12 ES,\n"
      "                       4 switches, the 12 application flows),\n"
      "                       orion[:FLOWS[:SEED]] (31 ES, 15 switches,\n"
      "                       random flows), or gen:SEED[:FLOWS[:ZONES\n"
      "                       [:SPZ[:BACKBONE[:ESDEG]]]]] (a generated zonal\n"
      "                       instance)\n"
      "  --flows N            use N seeded random flows instead of the\n"
      "                       scenario default (default: ads = application\n"
      "                       flows, orion = 4 random flows); an orion\n"
      "                       spec's own FLOWS wins\n"
      "  --flow-seed S        RNG seed for random flows (default 1); an\n"
      "                       orion spec's own SEED wins\n"
      "  --budget SEC         wall-clock budget for the exhaustive mixed\n"
      "                       link/switch completeness sweep (default 2.0)\n"
      "  --deadline-ms MS     hard wall-clock deadline over the WHOLE audit;\n"
      "                       unlike --budget (which degrades to switch-only\n"
      "                       coverage) an expired deadline aborts with exit\n"
      "                       code 4 — a truncated audit is not a verdict\n"
      "                       (default: unlimited)\n"
      "\n"
      "The problem built here must be the one the certificate was issued\n"
      "for; any difference is reported as problem_mismatch, never as a\n"
      "silent pass.\n",
      argv0);
}

}  // namespace

int main(int argc, char** argv) {
  using namespace nptsn;

  std::string certificate_path;
  std::string scenario_name;
  int flows = -1;
  std::uint64_t flow_seed = 1;
  double deadline_ms = 0.0;
  AuditOptions options;

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
    if (arg == "--certificate") {
      certificate_path = value();
    } else if (arg == "--scenario") {
      scenario_name = value();
    } else if (arg == "--flows") {
      flows = number(0, INT_MAX);
    } else if (arg == "--flow-seed") {
      flow_seed = number(std::uint64_t{0}, UINT64_MAX);
    } else if (arg == "--budget") {
      options.exhaustive_budget_seconds = number(0.0, DBL_MAX);
    } else if (arg == "--deadline-ms") {
      deadline_ms = number(0.0, DBL_MAX);
    } else if (arg == "--help" || arg == "-h") {
      usage(argv[0]);
      return 0;
    } else {
      std::fprintf(stderr, "error: unknown argument %s\n", arg.c_str());
      usage(argv[0]);
      return 2;
    }
  }
  if (certificate_path.empty() || scenario_name.empty()) {
    usage(argv[0]);
    return 2;
  }

  // The spec alone rebuilds the problem: every form is deterministic.
  PlanningProblem problem;
  try {
    problem = parse_problem_spec(scenario_name, {flows, flow_seed}).problem;
  } catch (const ValidationError& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }

  ReliabilityCertificate certificate;
  try {
    certificate = load_certificate_file(certificate_path);
  } catch (const CheckpointError& e) {
    std::fprintf(stderr, "error: cannot load %s: %s\n", certificate_path.c_str(),
                 e.what());
    return 3;
  }

  std::shared_ptr<Deadline> deadline;
  if (deadline_ms > 0.0) {
    deadline = Deadline::after(deadline_ms / 1000.0);
    options.deadline = deadline.get();
  }

  std::printf("certificate %s\n", certificate_path.c_str());
  std::printf("  plan: %zu switches, %zu links, cost %.1f\n",
              certificate.switch_ids.size(), certificate.links.size(),
              certificate.claimed_cost);
  std::printf("  frontier: %zu non-safe scenario proofs, maxord %d, minord %d%s, R %g\n",
              certificate.proofs.size(), certificate.max_order, certificate.min_order,
              certificate.include_links ? ", mixed link/switch" : "",
              certificate.reliability_goal);

  AuditReport report;
  try {
    report = audit_certificate(problem, certificate, options);
  } catch (const DeadlineExceeded& e) {
    std::fprintf(stderr, "AUDIT ABORTED: %s\n", e.reason().c_str());
    return 4;
  }

  for (const std::string& note : report.notes) std::printf("  note: %s\n", note.c_str());
  std::printf("  replayed %lld flow states, re-enumerated %lld scenarios (%.3f s)\n",
              static_cast<long long>(report.scenarios_replayed),
              static_cast<long long>(report.scenarios_enumerated), report.wall_seconds);

  if (report.ok) {
    std::printf("AUDIT CLEAN: the certificate independently re-validates\n");
    return 0;
  }
  std::printf("AUDIT FAILED: %zu finding(s)%s\n", report.failures.size(),
              report.truncated ? " (truncated)" : "");
  for (const AuditFailure& failure : report.failures) {
    std::printf("  [%s] %s\n", to_string(failure.code), failure.detail.c_str());
  }
  return 1;
}
