// Differential test: the CSR Dijkstra and Yen (graph/csr.hpp) against
// shortest_path() and k_shortest_paths_reference() on a residual Graph copy.
// A CsrSearch's base bans must behave exactly like removing the banned nodes
// and edges from a copy, path for path and in the same order, on generated
// zonal instances and on random graphs with integer length ties, inactive
// nodes, transit filters and k from 0 to 20. One CsrSearch serves every query
// on a graph, so stale bans would show up as mismatches too.
#include "graph/csr.hpp"

#include <gtest/gtest.h>

#include <string>

#include "graph/yen.hpp"
#include "scenarios/generator.hpp"
#include "util/rng.hpp"

namespace nptsn {
namespace {

struct Bans {
  std::vector<NodeId> nodes;
  std::vector<EdgeKey> edges;
};

Graph residual_of(const Graph& g, const Bans& bans) {
  Graph residual = g;
  for (const NodeId v : bans.nodes) residual.remove_node(v);
  for (const EdgeKey& e : bans.edges) residual.remove_edge(e.a, e.b);
  return residual;
}

void apply(CsrSearch& search, const Bans& bans) {
  search.clear_bans();
  for (const NodeId v : bans.nodes) search.ban_node(v);
  for (const EdgeKey& e : bans.edges) search.ban_edge(e.a, e.b);
}

// Random bans: some nodes, some existing edges, and the odd absent edge or
// repeated ban (both no-ops on either side).
Bans random_bans(const Graph& g, Rng& rng, double node_p, double edge_p) {
  Bans bans;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    if (rng.uniform() < node_p) bans.nodes.push_back(v);
  }
  for (const Edge& e : g.edges()) {
    if (rng.uniform() < edge_p) bans.edges.emplace_back(e.u, e.v);
  }
  if (g.num_nodes() >= 2 && rng.uniform() < 0.2) {
    bans.edges.emplace_back(0, g.num_nodes() - 1);
    if (!bans.nodes.empty()) bans.nodes.push_back(bans.nodes.front());
  }
  return bans;
}

// One query on both sides: CSR search under bans vs. the copying oracles on
// the residual copy. Also checks the Graph-level k_shortest_paths() wrapper.
void expect_same(CsrSearch& search, const Graph& residual, NodeId s, NodeId t, int k,
                 const TransitFilter* filter, const std::string& what) {
  SCOPED_TRACE(what + " s=" + std::to_string(s) + " t=" + std::to_string(t) +
               " k=" + std::to_string(k));
  EXPECT_EQ(search.shortest_path(s, t, filter), shortest_path(residual, s, t, filter));
  const auto reference = k_shortest_paths_reference(residual, s, t, k, filter);
  EXPECT_EQ(search.k_shortest_paths(s, t, k, filter), reference);
  EXPECT_EQ(k_shortest_paths(residual, s, t, k, filter), reference);
}

Graph random_graph(Rng& rng) {
  const int n = rng.uniform_int(2, 12);
  const double density = rng.uniform(0.2, 0.9);
  const bool integer_lengths = rng.uniform() < 0.8;  // length ties
  Graph g(n);
  for (NodeId u = 0; u < n; ++u) {
    for (NodeId v = u + 1; v < n; ++v) {
      if (rng.uniform() >= density) continue;
      g.add_edge(u, v, integer_lengths ? rng.uniform_int(1, 3) : rng.uniform(0.5, 3.0));
    }
  }
  for (NodeId v = 0; v < n; ++v) {
    if (rng.uniform() < 0.08) g.remove_node(v);  // inactive nodes
  }
  return g;
}

TEST(YenDifferential, RandomGraphsWithTiesBansAndFilters) {
  Rng rng(2026);
  int nonempty = 0;
  for (int trial = 0; trial < 1500; ++trial) {
    const Graph g = random_graph(rng);
    const int n = g.num_nodes();
    TransitFilter filter(static_cast<std::size_t>(n), 1);
    for (auto& relay : filter) relay = rng.uniform() < 0.25 ? 0 : 1;
    const TransitFilter* use_filter = rng.uniform() < 0.5 ? &filter : nullptr;

    const CsrGraph view(g);
    CsrSearch search(view);
    for (int round = 0; round < 3; ++round) {
      const Bans bans = round == 0 ? Bans{} : random_bans(g, rng, 0.1, 0.15);
      const Graph residual = residual_of(g, bans);
      apply(search, bans);
      const NodeId s = rng.uniform_int(0, n - 1);
      const NodeId t = rng.uniform_int(0, n - 1);  // s == t included
      const int k = rng.uniform_int(0, 20);
      expect_same(search, residual, s, t, k, use_filter,
                  "trial " + std::to_string(trial) + " round " + std::to_string(round));
      if (!k_shortest_paths_reference(residual, s, t, k, use_filter).empty()) ++nonempty;
    }
  }
  EXPECT_GT(nonempty, 1500);  // the sweep is not vacuous
}

TEST(YenDifferential, CsrDijkstraMatchesShortestPath) {
  Rng rng(77);
  for (int trial = 0; trial < 1000; ++trial) {
    const Graph g = random_graph(rng);
    const int n = g.num_nodes();
    TransitFilter filter(static_cast<std::size_t>(n), 1);
    for (auto& relay : filter) relay = rng.uniform() < 0.3 ? 0 : 1;
    const CsrGraph view(g);
    CsrSearch search(view);
    const Bans bans = random_bans(g, rng, 0.1, 0.2);
    const Graph residual = residual_of(g, bans);
    apply(search, bans);
    for (NodeId s = 0; s < n; ++s) {
      for (NodeId t = 0; t < n; ++t) {
        ASSERT_EQ(search.shortest_path(s, t, &filter), shortest_path(residual, s, t, &filter))
            << "trial " << trial << " s=" << s << " t=" << t;
        ASSERT_EQ(search.shortest_path(s, t), shortest_path(residual, s, t))
            << "trial " << trial << " s=" << s << " t=" << t;
      }
    }
  }
}

TEST(YenDifferential, GeneratedZonalInstancesUnderSoagBans) {
  // SOAG's query shape: Gc of a generated instance, end stations barred from
  // relaying, failed and unplanned switches and failed links banned.
  Rng rng(11);
  for (std::uint64_t seed = 1; seed <= 12; ++seed) {
    GeneratorParams params;
    params.zones = rng.uniform_int(2, 5);
    params.stations_per_zone = rng.uniform_int(2, 4);
    params.switches_per_zone = rng.uniform_int(1, 2);
    params.backbone_switches = rng.uniform_int(0, 3);
    params.cross_link_prob = rng.uniform(0.2, 0.8);
    const PlanningProblem problem = generate(params, seed);
    const Graph& gc = problem.connections;
    TransitFilter can_transit(static_cast<std::size_t>(problem.num_nodes()), 1);
    for (NodeId v = 0; v < problem.num_end_stations; ++v) {
      can_transit[static_cast<std::size_t>(v)] = 0;
    }

    const CsrGraph view(gc);
    CsrSearch search(view);
    for (int round = 0; round < 12; ++round) {
      Bans bans;
      for (const NodeId v : problem.switch_ids()) {
        if (rng.uniform() < 0.3) bans.nodes.push_back(v);
      }
      for (const Edge& e : gc.edges()) {
        if (rng.uniform() < 0.05) bans.edges.emplace_back(e.u, e.v);
      }
      const Graph residual = residual_of(gc, bans);
      apply(search, bans);
      const NodeId s = rng.uniform_int(0, problem.num_end_stations - 1);
      NodeId t = rng.uniform_int(0, problem.num_end_stations - 2);
      if (t >= s) ++t;
      for (const int k : {rng.uniform_int(0, 20), 8, 16}) {
        expect_same(search, residual, s, t, k, &can_transit,
                    "seed " + std::to_string(seed) + " round " + std::to_string(round));
      }
    }
  }
}

TEST(YenDifferential, ClearBansRestoresTheWholeView) {
  Graph g(4);
  g.add_edge(0, 1, 1.0);
  g.add_edge(1, 3, 1.0);
  g.add_edge(0, 2, 1.0);
  g.add_edge(2, 3, 2.0);
  const CsrGraph view(g);
  CsrSearch search(view);
  search.ban_node(1);
  EXPECT_EQ(search.shortest_path(0, 3), (Path{0, 2, 3}));
  search.ban_edge(2, 3);
  EXPECT_FALSE(search.shortest_path(0, 3).has_value());
  EXPECT_TRUE(search.k_shortest_paths(0, 3, 5).empty());
  search.ban_node(3);
  EXPECT_FALSE(search.shortest_path(3, 3).has_value());  // a banned endpoint has no path
  search.clear_bans();
  EXPECT_EQ(search.k_shortest_paths(0, 3, 5), (std::vector<Path>{{0, 1, 3}, {0, 2, 3}}));
  EXPECT_THROW(search.ban_node(4), std::invalid_argument);
  EXPECT_THROW(search.ban_edge(-1, 0), std::invalid_argument);
}

}  // namespace
}  // namespace nptsn
