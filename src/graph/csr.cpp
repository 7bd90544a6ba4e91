#include "graph/csr.hpp"

#include <algorithm>
#include <functional>
#include <limits>
#include <string>

namespace nptsn {

CsrGraph::CsrGraph(const Graph& g) {
  const auto n = static_cast<std::size_t>(g.num_nodes());
  row_ptr_.reserve(n + 1);
  nbr_.reserve(2 * static_cast<std::size_t>(g.num_edges()));
  len_.reserve(2 * static_cast<std::size_t>(g.num_edges()));
  active_.reserve(n);
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    active_.push_back(g.is_active(v) ? 1 : 0);
    row_ptr_.push_back(static_cast<int>(nbr_.size()));
    for (const auto& [nb, len] : g.neighbors(v)) {
      nbr_.push_back(nb);
      len_.push_back(len);
    }
  }
  row_ptr_.push_back(static_cast<int>(nbr_.size()));
  rev_.resize(nbr_.size());
  for (NodeId u = 0; u < num_nodes(); ++u) {
    for (int e = row_begin(u); e < row_end(u); ++e) {
      rev_[static_cast<std::size_t>(e)] = edge_id(target(e), u);
    }
  }
}

void CsrGraph::check_node(NodeId v) const {
  NPTSN_EXPECT(v >= 0 && v < num_nodes(), "node id out of range: " + std::to_string(v));
}

int CsrGraph::edge_id(NodeId u, NodeId v) const {
  const auto first = nbr_.begin() + row_begin(u);
  const auto last = nbr_.begin() + row_end(u);
  const auto it = std::lower_bound(first, last, v);
  return it != last && *it == v ? static_cast<int>(it - nbr_.begin()) : -1;
}

double CsrGraph::path_length(const Path& path) const {
  NPTSN_EXPECT(!path.empty(), "path must be non-empty");
  double total = 0.0;
  for (std::size_t i = 0; i + 1 < path.size(); ++i) {
    check_node(path[i]);
    check_node(path[i + 1]);
    const int e = edge_id(path[i], path[i + 1]);
    NPTSN_EXPECT(e >= 0, "edge does not exist");
    total += length(e);
  }
  return total;
}

CsrSearch::CsrSearch(const CsrGraph& graph)
    : graph_(&graph),
      node_ban_(static_cast<std::size_t>(graph.num_nodes()), 0),
      edge_ban_(static_cast<std::size_t>(graph.num_edge_ids()), 0),
      dist_(static_cast<std::size_t>(graph.num_nodes())),
      prev_(static_cast<std::size_t>(graph.num_nodes())) {}

void CsrSearch::ban_node(NodeId v) {
  graph_->check_node(v);
  ban_into(v, base_nodes_);
}

void CsrSearch::ban_edge(NodeId u, NodeId v) {
  graph_->check_node(u);
  graph_->check_node(v);
  ban_edge_into(graph_->edge_id(u, v), base_edges_);
}

void CsrSearch::clear_bans() { lift(base_nodes_, base_edges_); }

void CsrSearch::ban_into(NodeId v, std::vector<NodeId>& set) {
  std::uint8_t& ban = node_ban_[static_cast<std::size_t>(v)];
  if (ban != 0) return;
  ban = 1;
  set.push_back(v);
}

void CsrSearch::ban_edge_into(int e, std::vector<int>& set) {
  if (e < 0 || edge_ban_[static_cast<std::size_t>(e)] != 0) return;
  edge_ban_[static_cast<std::size_t>(e)] = 1;
  edge_ban_[static_cast<std::size_t>(graph_->reverse(e))] = 1;
  set.push_back(e);
}

void CsrSearch::lift(std::vector<NodeId>& nodes, std::vector<int>& edges) {
  for (const NodeId v : nodes) node_ban_[static_cast<std::size_t>(v)] = 0;
  for (const int e : edges) {
    edge_ban_[static_cast<std::size_t>(e)] = 0;
    edge_ban_[static_cast<std::size_t>(graph_->reverse(e))] = 0;
  }
  nodes.clear();
  edges.clear();
}

void CsrSearch::check_query(NodeId s, NodeId t, const TransitFilter* can_transit) const {
  graph_->check_node(s);
  graph_->check_node(t);
  NPTSN_EXPECT(can_transit == nullptr ||
                   can_transit->size() == static_cast<std::size_t>(graph_->num_nodes()),
               "transit filter size must match the graph");
}

std::optional<Path> CsrSearch::shortest_path(NodeId s, NodeId t,
                                             const TransitFilter* can_transit) {
  check_query(s, t, can_transit);
  if (!dijkstra(s, t, can_transit)) return std::nullopt;
  Path path{s};
  append_found_path(s, t, path);
  return path;
}

bool CsrSearch::dijkstra(NodeId s, NodeId t, const TransitFilter* can_transit) {
  const CsrGraph& g = *graph_;
  const auto banned = [this](NodeId v) { return node_ban_[static_cast<std::size_t>(v)] != 0; };
  if (!g.is_active(s) || !g.is_active(t) || banned(s) || banned(t)) return false;
  if (s == t) return true;

  constexpr double kInf = std::numeric_limits<double>::infinity();
  std::ranges::fill(dist_, kInf);
  heap_.clear();
  // (distance, node) under std::greater, driven exactly as
  // std::priority_queue drives its vector: ties go to the lower node id.
  dist_[static_cast<std::size_t>(s)] = 0.0;
  heap_.emplace_back(0.0, s);
  while (!heap_.empty()) {
    std::pop_heap(heap_.begin(), heap_.end(), std::greater<>());
    const auto [d, u] = heap_.back();
    heap_.pop_back();
    if (d > dist_[static_cast<std::size_t>(u)]) continue;
    if (u == t) break;
    // A non-transit node may terminate a path but never relay one.
    if (u != s && can_transit != nullptr && !(*can_transit)[static_cast<std::size_t>(u)]) {
      continue;
    }
    const int end = g.row_end(u);
    for (int e = g.row_begin(u); e < end; ++e) {
      const NodeId v = g.target(e);
      if ((node_ban_[static_cast<std::size_t>(v)] | edge_ban_[static_cast<std::size_t>(e)]) != 0) {
        continue;
      }
      const double nd = d + g.length(e);
      if (nd < dist_[static_cast<std::size_t>(v)]) {
        dist_[static_cast<std::size_t>(v)] = nd;
        prev_[static_cast<std::size_t>(v)] = u;
        heap_.emplace_back(nd, v);
        std::push_heap(heap_.begin(), heap_.end(), std::greater<>());
      }
    }
  }
  return dist_[static_cast<std::size_t>(t)] != kInf;
}

void CsrSearch::append_found_path(NodeId s, NodeId t, Path& out) {
  // prev_[s] is never written (lengths are positive), so the chain is walked
  // to s rather than to a -1 sentinel.
  const std::size_t first = out.size();
  for (NodeId v = t; v != s; v = prev_[static_cast<std::size_t>(v)]) out.push_back(v);
  std::reverse(out.begin() + static_cast<std::ptrdiff_t>(first), out.end());
}

}  // namespace nptsn
