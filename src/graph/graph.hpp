// Undirected weighted graph over a fixed vertex set.
//
// This is the mutable substrate for the connection graph Gc, the planned
// topology Gt (Topology grows it link by link), failure scenarios Gf (as
// node/edge removals), and the residual networks the scalar recovery NBF
// routes on. Vertices are dense ids [0, n); a removed vertex stays allocated
// but inactive so that ids remain stable across subgraph operations — the RL
// observation encoding depends on ids being positionally stable.
//
// Neighbor sets are ordered (std::map) so every traversal is deterministic;
// reproducible tie-breaking in Dijkstra/Yen is required for seeded runs.
// Hot repeated queries (SOAG's Yen, the packed NBF session) do not copy a
// Graph per query: they snapshot it once into a read-only CsrGraph
// (graph/csr.hpp) with the same neighbor order and express removals as bans.
#pragma once

#include <map>
#include <vector>

#include "util/expect.hpp"

namespace nptsn {

using NodeId = int;

struct Edge {
  NodeId u = 0;
  NodeId v = 0;
  double length = 1.0;
};

// Normalized (u < v) undirected edge identity, usable as a map key.
struct EdgeKey {
  NodeId a;
  NodeId b;

  EdgeKey(NodeId u, NodeId v) : a(u < v ? u : v), b(u < v ? v : u) {}
  friend auto operator<=>(const EdgeKey&, const EdgeKey&) = default;
};

class Graph {
 public:
  explicit Graph(int num_nodes);

  int num_nodes() const { return static_cast<int>(adjacency_.size()); }
  int num_edges() const { return num_edges_; }

  bool is_active(NodeId v) const;
  // Deactivates v and removes all incident edges.
  void remove_node(NodeId v);

  void add_edge(NodeId u, NodeId v, double length = 1.0);
  void remove_edge(NodeId u, NodeId v);
  bool has_edge(NodeId u, NodeId v) const;
  // Length of an existing edge; throws if absent.
  double length(NodeId u, NodeId v) const;

  int degree(NodeId v) const;
  // Ordered (neighbor -> length) view; empty for inactive nodes.
  const std::map<NodeId, double>& neighbors(NodeId v) const;

  // All edges with u < v, in (u, v) lexicographic order.
  std::vector<Edge> edges() const;

  void check_node(NodeId v) const;

 private:
  std::vector<std::map<NodeId, double>> adjacency_;
  std::vector<bool> active_;
  int num_edges_ = 0;
};

}  // namespace nptsn
