// Property test: Yen's algorithm (both implementations) against brute-force
// enumeration of ALL simple paths on random small graphs — the returned list
// must be exactly the k cheapest simple paths (as a length multiset).
#include <gtest/gtest.h>

#include <algorithm>

#include "graph/yen.hpp"
#include "testing/yen_impls.hpp"
#include "util/rng.hpp"

namespace nptsn {
namespace {

void all_simple_paths(const Graph& g, NodeId current, NodeId target,
                      std::vector<char>& visited, Path& prefix,
                      std::vector<Path>& out) {
  if (current == target) {
    out.push_back(prefix);
    return;
  }
  for (const auto& [next, len] : g.neighbors(current)) {
    (void)len;
    if (visited[static_cast<std::size_t>(next)]) continue;
    visited[static_cast<std::size_t>(next)] = 1;
    prefix.push_back(next);
    all_simple_paths(g, next, target, visited, prefix, out);
    prefix.pop_back();
    visited[static_cast<std::size_t>(next)] = 0;
  }
}

std::vector<Path> brute_force_paths(const Graph& g, NodeId s, NodeId t) {
  std::vector<Path> out;
  if (!g.is_active(s) || !g.is_active(t)) return out;
  std::vector<char> visited(static_cast<std::size_t>(g.num_nodes()), 0);
  visited[static_cast<std::size_t>(s)] = 1;
  Path prefix = {s};
  all_simple_paths(g, s, t, visited, prefix, out);
  return out;
}

class YenVersusBruteForce : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(YenVersusBruteForce, ReturnsTheKCheapestSimplePaths) {
  Rng rng(GetParam());
  const int n = rng.uniform_int(4, 7);
  Graph g(n);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) {
      if (rng.uniform() < 0.55) g.add_edge(u, v, rng.uniform(0.5, 3.0));
    }
  }
  const NodeId s = 0;
  const NodeId t = n - 1;
  const int k = rng.uniform_int(1, 12);

  auto reference = brute_force_paths(g, s, t);
  std::ranges::sort(reference, [&](const Path& a, const Path& b) {
    return path_length(g, a) < path_length(g, b);
  });
  for (const auto& impl : testing::kYenImpls) {
    SCOPED_TRACE(impl.name);
    const auto yen = impl.run(g, s, t, k, nullptr);

    // Count: min(k, total simple paths).
    ASSERT_EQ(yen.size(),
              std::min<std::size_t>(static_cast<std::size_t>(k), reference.size()))
        << "seed " << GetParam();
    // Lengths must match the brute-force top-k exactly (paths themselves may
    // tie-break differently at equal length).
    for (std::size_t i = 0; i < yen.size(); ++i) {
      EXPECT_NEAR(path_length(g, yen[i]), path_length(g, reference[i]), 1e-9)
          << "seed " << GetParam() << " rank " << i;
    }
    // All returned paths are distinct and simple.
    for (std::size_t i = 0; i < yen.size(); ++i) {
      for (std::size_t j = i + 1; j < yen.size(); ++j) EXPECT_NE(yen[i], yen[j]);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(RandomGraphs, YenVersusBruteForce,
                         ::testing::Range<std::uint64_t>(1, 31));

}  // namespace
}  // namespace nptsn
