// CI performance-regression gate.
//
// Usage:
//   bench_compare [--threshold 1.3] BASELINE.json FRESH.json [BASELINE FRESH]...
//
// Each pair is a committed baseline document (bench/results/*.json) and the
// matching document from a fresh benchmark run. Exit code 0 when every tracked
// metric (speedup*, latency_*, overhead_percent — see
// src/util/bench_compare.hpp) stayed within the slowdown threshold in every
// pair; 1 on any regression, missing metric, unreadable file, or malformed
// JSON; 2 on a usage error (a threshold that is not a decimal number >= 1
// included).

#include <cfloat>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "numeric_flag.hpp"
#include "util/bench_compare.hpp"

namespace {

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw std::runtime_error("cannot read " + path);
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

}  // namespace

int main(int argc, char** argv) {
  double threshold = 1.3;
  std::vector<std::string> paths;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--threshold") {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "--threshold needs a value\n");
        return 2;
      }
      threshold = nptsn::numeric_flag("--threshold", argv[++i], 1.0, DBL_MAX);
    } else if (arg == "--help" || arg == "-h") {
      std::printf("usage: bench_compare [--threshold R] BASELINE.json FRESH.json ...\n");
      return 0;
    } else {
      paths.push_back(arg);
    }
  }
  if (paths.empty() || paths.size() % 2 != 0) {
    std::fprintf(stderr, "expected BASELINE FRESH file pairs (got %zu paths)\n",
                 paths.size());
    return 2;
  }

  bool ok = true;
  int compared_total = 0;
  for (std::size_t i = 0; i < paths.size(); i += 2) {
    const std::string& base_path = paths[i];
    const std::string& fresh_path = paths[i + 1];
    try {
      const nptsn::JsonValue baseline = nptsn::parse_json(read_file(base_path));
      const nptsn::JsonValue fresh = nptsn::parse_json(read_file(fresh_path));
      const nptsn::BenchComparison cmp =
          nptsn::compare_bench_results(baseline, fresh, threshold);
      compared_total += cmp.compared;
      for (const auto& r : cmp.regressions) {
        std::fprintf(stderr,
                     "REGRESSION %s: %s was %.3f, now %.3f (%.0f%% slower, "
                     "threshold %.0f%%)\n",
                     fresh_path.c_str(), r.metric.c_str(), r.baseline, r.fresh,
                     (r.slowdown - 1.0) * 100.0, (threshold - 1.0) * 100.0);
        ok = false;
      }
      for (const auto& m : cmp.missing) {
        std::fprintf(stderr, "MISSING %s: tracked metric %s absent from fresh run\n",
                     fresh_path.c_str(), m.c_str());
        ok = false;
      }
      std::printf("%s: %d tracked metrics, %zu regressions, %zu missing\n",
                  fresh_path.c_str(), cmp.compared, cmp.regressions.size(),
                  cmp.missing.size());
    } catch (const std::exception& e) {
      std::fprintf(stderr, "ERROR comparing %s vs %s: %s\n", base_path.c_str(),
                   fresh_path.c_str(), e.what());
      ok = false;
    }
  }
  std::printf("bench_compare: %d metrics checked, %s\n", compared_total,
              ok ? "OK" : "FAILED");
  return ok ? 0 : 1;
}
