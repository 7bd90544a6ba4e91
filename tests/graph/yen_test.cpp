#include "graph/yen.hpp"

#include <gtest/gtest.h>

#include <set>

#include "testing/yen_impls.hpp"
#include "util/rng.hpp"

namespace nptsn {
namespace {

using testing::kYenImpls;

Graph diamond() {
  Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 2, 1.0);
  g.add_edge(0, 3, 1.0);
  g.add_edge(3, 2, 3.0);
  return g;
}

// Every case runs against both implementations; SCOPED_TRACE names the one
// that failed.
TEST(Yen, FirstPathIsTheShortest) {
  const Graph g = diamond();
  for (const auto& yen : kYenImpls) {
    SCOPED_TRACE(yen.name);
    const auto paths = yen.run(g, 0, 2, 3, nullptr);
    ASSERT_GE(paths.size(), 1u);
    EXPECT_EQ(paths[0], *shortest_path(g, 0, 2));
  }
}

TEST(Yen, ReturnsPathsInNondecreasingLengthOrder) {
  const Graph g = diamond();
  for (const auto& yen : kYenImpls) {
    SCOPED_TRACE(yen.name);
    const auto paths = yen.run(g, 0, 2, 5, nullptr);
    for (std::size_t i = 1; i < paths.size(); ++i) {
      EXPECT_LE(path_length(g, paths[i - 1]), path_length(g, paths[i]));
    }
  }
}

TEST(Yen, DiamondHasExactlyTwoSimplePaths) {
  const Graph g = diamond();
  for (const auto& yen : kYenImpls) {
    SCOPED_TRACE(yen.name);
    const auto paths = yen.run(g, 0, 2, 10, nullptr);
    ASSERT_EQ(paths.size(), 2u);
    EXPECT_EQ(paths[0], (Path{0, 1, 2}));
    EXPECT_EQ(paths[1], (Path{0, 3, 2}));
  }
}

TEST(Yen, ClassicTextbookExample) {
  // Yen's original example shape: grid-ish graph with known top-3.
  Graph g(6);
  g.add_edge(0, 1, 3.0);
  g.add_edge(0, 2, 2.0);
  g.add_edge(1, 2, 1.0);
  g.add_edge(1, 3, 4.0);
  g.add_edge(2, 3, 2.0);
  g.add_edge(2, 4, 3.0);
  g.add_edge(3, 4, 2.0);
  g.add_edge(3, 5, 1.0);
  g.add_edge(4, 5, 2.0);
  for (const auto& yen : kYenImpls) {
    SCOPED_TRACE(yen.name);
    const auto paths = yen.run(g, 0, 5, 3, nullptr);
    ASSERT_EQ(paths.size(), 3u);
    EXPECT_EQ(paths[0], (Path{0, 2, 3, 5}));  // length 5
    EXPECT_DOUBLE_EQ(path_length(g, paths[0]), 5.0);
    EXPECT_DOUBLE_EQ(path_length(g, paths[1]), 7.0);
    EXPECT_DOUBLE_EQ(path_length(g, paths[2]), 7.0);
  }
}

TEST(Yen, PathsAreLooplessAndUnique) {
  Graph g(6);
  for (NodeId u = 0; u < 6; ++u) {
    for (NodeId v = u + 1; v < 6; ++v) g.add_edge(u, v, 1.0 + u + v);
  }
  for (const auto& yen : kYenImpls) {
    SCOPED_TRACE(yen.name);
    const auto paths = yen.run(g, 0, 5, 20, nullptr);
    std::set<Path> unique(paths.begin(), paths.end());
    EXPECT_EQ(unique.size(), paths.size());
    for (const auto& p : paths) {
      std::set<NodeId> nodes(p.begin(), p.end());
      EXPECT_EQ(nodes.size(), p.size()) << "path has a loop";
      EXPECT_EQ(p.front(), 0);
      EXPECT_EQ(p.back(), 5);
    }
  }
}

TEST(Yen, KZeroReturnsEmpty) {
  const Graph g = diamond();
  for (const auto& yen : kYenImpls) {
    SCOPED_TRACE(yen.name);
    EXPECT_TRUE(yen.run(g, 0, 2, 0, nullptr).empty());
  }
}

TEST(Yen, KZeroStillValidatesItsArguments) {
  const Graph g = diamond();
  const TransitFilter wrong_size = {1, 1};
  for (const auto& yen : kYenImpls) {
    SCOPED_TRACE(yen.name);
    EXPECT_THROW(yen.run(g, -1, 3, 0, nullptr), std::invalid_argument);
    EXPECT_THROW(yen.run(g, 0, 99, 0, nullptr), std::invalid_argument);
    EXPECT_THROW(yen.run(g, 0, 2, 0, &wrong_size), std::invalid_argument);
    // The same calls at k = 1 throw too.
    EXPECT_THROW(yen.run(g, -1, 3, 1, nullptr), std::invalid_argument);
    EXPECT_THROW(yen.run(g, 0, 99, 1, nullptr), std::invalid_argument);
    EXPECT_THROW(yen.run(g, 0, 2, 1, &wrong_size), std::invalid_argument);
    EXPECT_THROW(yen.run(g, 0, 2, -1, nullptr), std::invalid_argument);
  }
}

TEST(Yen, EqualLengthPathsComeInDiscoveryOrder) {
  // [0 2 3 5] and [0 2 3 4 5] both have length 4. The second is the smaller
  // node sequence, but the first is Dijkstra's path, so it comes first: ties
  // are not broken lexicographically across ranks.
  Graph g(6);
  g.add_edge(0, 2, 1.0);
  g.add_edge(2, 3, 1.0);
  g.add_edge(3, 5, 2.0);
  g.add_edge(3, 4, 1.0);
  g.add_edge(4, 5, 1.0);
  for (const auto& yen : kYenImpls) {
    SCOPED_TRACE(yen.name);
    const auto paths = yen.run(g, 0, 5, 4, nullptr);
    ASSERT_EQ(paths.size(), 2u);
    EXPECT_EQ(paths[0], (Path{0, 2, 3, 5}));
    EXPECT_EQ(paths[1], (Path{0, 2, 3, 4, 5}));
    EXPECT_DOUBLE_EQ(path_length(g, paths[0]), path_length(g, paths[1]));
    EXPECT_LT(paths[1], paths[0]);
  }
}

TEST(Yen, UnreachableReturnsEmpty) {
  Graph g(4);
  g.add_edge(0, 1);
  for (const auto& yen : kYenImpls) {
    SCOPED_TRACE(yen.name);
    EXPECT_TRUE(yen.run(g, 0, 3, 4, nullptr).empty());
  }
}

TEST(Yen, RespectsTransitFilter) {
  const Graph g = diamond();
  TransitFilter filter = {1, 0, 1, 1};  // node 1 cannot relay
  for (const auto& yen : kYenImpls) {
    SCOPED_TRACE(yen.name);
    const auto paths = yen.run(g, 0, 2, 5, &filter);
    ASSERT_EQ(paths.size(), 1u);
    EXPECT_EQ(paths[0], (Path{0, 3, 2}));
  }
}

TEST(Yen, CompleteGraphPathCountMatchesTheory) {
  // K5: number of simple 0->4 paths = sum over k of P(3, k) = 1+3+6+6 = 16.
  Graph g(5);
  for (NodeId u = 0; u < 5; ++u) {
    for (NodeId v = u + 1; v < 5; ++v) g.add_edge(u, v, 1.0);
  }
  for (const auto& yen : kYenImpls) {
    SCOPED_TRACE(yen.name);
    EXPECT_EQ(yen.run(g, 0, 4, 100, nullptr).size(), 16u);
  }
}

TEST(Yen, RandomGraphsOrderedAndDeterministic) {
  for (const auto& yen : kYenImpls) {
    SCOPED_TRACE(yen.name);
    Rng rng(99);
    for (int trial = 0; trial < 10; ++trial) {
      Graph g(8);
      for (NodeId u = 0; u < 8; ++u) {
        for (NodeId v = u + 1; v < 8; ++v) {
          if (rng.uniform() < 0.5) g.add_edge(u, v, rng.uniform(0.5, 4.0));
        }
      }
      const auto a = yen.run(g, 0, 7, 8, nullptr);
      const auto b = yen.run(g, 0, 7, 8, nullptr);
      EXPECT_EQ(a, b);  // deterministic
      for (std::size_t i = 1; i < a.size(); ++i) {
        EXPECT_LE(path_length(g, a[i - 1]), path_length(g, a[i]) + 1e-12);
      }
    }
  }
}

}  // namespace
}  // namespace nptsn
