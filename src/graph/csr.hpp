// Read-only compressed-sparse-row view of a Graph, and the ban-masked path
// search that runs Dijkstra and Yen over it without copying any graph.
//
// Graph stays the mutable substrate (Topology grows Gt link by link); a
// CsrGraph is a snapshot of one Graph taken once — SOAG snapshots Gc in its
// constructor, a packed NBF session snapshots Gt when it stages. Queries
// then express "Gc minus failed and unplanned switches minus failed links"
// or "Gt minus a failure scenario" as node and edge bans on a CsrSearch
// instead of as a residual Graph copy.
//
// Neighbor rows are ascending by node id, exactly the std::map order of
// Graph::neighbors(), so CsrSearch::shortest_path() and k_shortest_paths()
// return the same paths, in the same order, bit for bit, as shortest_path()
// and k_shortest_paths_reference() on the equivalent residual Graph
// (tests/graph/yen_differential_test.cpp pins this).
#pragma once

#include <cstdint>
#include <optional>
#include <vector>

#include "graph/paths.hpp"

namespace nptsn {

class CsrGraph {
 public:
  explicit CsrGraph(const Graph& g);

  int num_nodes() const { return static_cast<int>(active_.size()); }
  // Directed edge entries: two per undirected edge.
  int num_edge_ids() const { return static_cast<int>(nbr_.size()); }

  bool is_active(NodeId v) const { return active_[static_cast<std::size_t>(v)] != 0; }
  void check_node(NodeId v) const;

  // Directed edges out of v are the ids [row_begin(v), row_end(v)), ascending
  // by target.
  int row_begin(NodeId v) const { return row_ptr_[static_cast<std::size_t>(v)]; }
  int row_end(NodeId v) const { return row_ptr_[static_cast<std::size_t>(v) + 1]; }
  NodeId target(int e) const { return nbr_[static_cast<std::size_t>(e)]; }
  double length(int e) const { return len_[static_cast<std::size_t>(e)]; }
  // The id of the same edge in the opposite direction.
  int reverse(int e) const { return rev_[static_cast<std::size_t>(e)]; }

  // Directed edge id of (u, v), or -1 when the edge is absent. Unchecked ids.
  int edge_id(NodeId u, NodeId v) const;

  // path_length() of the viewed Graph: the edge lengths summed from 0.0, left
  // to right. Throws if an edge is missing.
  double path_length(const Path& path) const;

 private:
  std::vector<int> row_ptr_;
  std::vector<NodeId> nbr_;
  std::vector<double> len_;
  std::vector<int> rev_;
  std::vector<char> active_;
};

// Ban masks and search buffers for queries over one CsrGraph. Reusable
// across queries; not thread-safe — give each thread (or each call) its own.
// The viewed CsrGraph must outlive the search.
class CsrSearch {
 public:
  explicit CsrSearch(const CsrGraph& graph);

  // Base bans, held until clear_bans(). A banned node behaves like an
  // inactive (removed) one; a banned edge like a removed one, in both
  // directions. Banning an absent edge is a no-op. Ids are range-checked.
  void ban_node(NodeId v);
  void ban_edge(NodeId u, NodeId v);
  void clear_bans();

  // shortest_path() on the view minus the bans: the same (distance, node)
  // binary heap, strict relaxation and ascending neighbor order.
  std::optional<Path> shortest_path(NodeId s, NodeId t,
                                    const TransitFilter* can_transit = nullptr);

  // k_shortest_paths_reference() on the view minus the bans. Each spur's
  // temporary bans are lifted before the next one; the base bans stay.
  std::vector<Path> k_shortest_paths(NodeId s, NodeId t, int k,
                                     const TransitFilter* can_transit = nullptr);

 private:
  void check_query(NodeId s, NodeId t, const TransitFilter* can_transit) const;
  // Dijkstra from s; true when t was reached. On success the path is the
  // prev_ chain from t back to s.
  bool dijkstra(NodeId s, NodeId t, const TransitFilter* can_transit);
  // Appends the s..t path Dijkstra found, excluding s itself.
  void append_found_path(NodeId s, NodeId t, Path& out);
  // Bans node v, or edge e in both directions, and records it in `set` only
  // when it was not banned already — so lifting a set never clears a ban
  // that another set (the caller's base bans, a Yen spur's) holds.
  void ban_into(NodeId v, std::vector<NodeId>& set);
  void ban_edge_into(int e, std::vector<int>& set);
  void lift(std::vector<NodeId>& nodes, std::vector<int>& edges);

  const CsrGraph* graph_;
  std::vector<std::uint8_t> node_ban_;
  std::vector<std::uint8_t> edge_ban_;
  std::vector<NodeId> base_nodes_;
  std::vector<int> base_edges_;
  std::vector<NodeId> spur_nodes_;
  std::vector<int> spur_edges_;
  std::vector<double> dist_;
  std::vector<NodeId> prev_;
  std::vector<std::pair<double, NodeId>> heap_;
};

}  // namespace nptsn
