#include "graph/yen.hpp"

#include <algorithm>
#include <set>

#include "graph/csr.hpp"

namespace nptsn {
namespace {

// Candidate ordering: by length, then by node sequence for determinism.
struct Candidate {
  double length;
  Path path;

  friend bool operator<(const Candidate& a, const Candidate& b) {
    if (a.length != b.length) return a.length < b.length;
    return a.path < b.path;
  }
};

}  // namespace

std::vector<Path> CsrSearch::k_shortest_paths(NodeId s, NodeId t, int k,
                                              const TransitFilter* can_transit) {
  NPTSN_EXPECT(k >= 0, "k must be non-negative");
  check_query(s, t, can_transit);
  std::vector<Path> accepted;
  if (k == 0) return accepted;

  auto first = shortest_path(s, t, can_transit);
  if (!first) return accepted;
  accepted.push_back(std::move(*first));

  std::set<Candidate> candidates;
  std::set<Path> known;  // accepted ∪ candidates, to avoid duplicates
  known.insert(accepted.front());

  while (static_cast<int>(accepted.size()) < k) {
    const Path& prev = accepted.back();
    for (std::size_t spur_idx = 0; spur_idx + 1 < prev.size(); ++spur_idx) {
      const NodeId spur = prev[spur_idx];
      // A spur from a non-transit node would relay through it, so skip it
      // unless it is the path's source.
      if (spur_idx > 0 && can_transit != nullptr &&
          !(*can_transit)[static_cast<std::size_t>(spur)]) {
        continue;
      }
      const auto root_end = prev.begin() + static_cast<std::ptrdiff_t>(spur_idx) + 1;
      // Ban the edges that would recreate an accepted path sharing this root,
      // and the root nodes before the spur, to keep paths loopless.
      for (const Path& p : accepted) {
        if (p.size() > spur_idx + 1 && std::equal(prev.begin(), root_end, p.begin())) {
          ban_edge_into(graph_->edge_id(p[spur_idx], p[spur_idx + 1]), spur_edges_);
        }
      }
      for (std::size_t i = 0; i < spur_idx; ++i) ban_into(prev[i], spur_nodes_);
      const bool found = dijkstra(spur, t, can_transit);
      Path total;
      if (found) {
        total.assign(prev.begin(), root_end);
        append_found_path(spur, t, total);
      }
      lift(spur_nodes_, spur_edges_);
      if (!found || known.contains(total)) continue;
      known.insert(total);
      // Summed edge by edge like path_length(), not root length + spur
      // distance: the two round differently.
      const double length = graph_->path_length(total);
      candidates.insert({length, std::move(total)});
    }

    if (candidates.empty()) break;
    accepted.push_back(candidates.begin()->path);
    candidates.erase(candidates.begin());
  }
  return accepted;
}

std::vector<Path> k_shortest_paths(const Graph& g, NodeId s, NodeId t, int k,
                                   const TransitFilter* can_transit) {
  const CsrGraph view(g);
  CsrSearch search(view);
  return search.k_shortest_paths(s, t, k, can_transit);
}

std::vector<Path> k_shortest_paths_reference(const Graph& g, NodeId s, NodeId t, int k,
                                             const TransitFilter* can_transit) {
  NPTSN_EXPECT(k >= 0, "k must be non-negative");
  g.check_node(s);
  g.check_node(t);
  NPTSN_EXPECT(can_transit == nullptr ||
                   can_transit->size() == static_cast<std::size_t>(g.num_nodes()),
               "transit filter size must match the graph");
  std::vector<Path> accepted;
  if (k == 0) return accepted;

  const auto first = shortest_path(g, s, t, can_transit);
  if (!first) return accepted;
  accepted.push_back(*first);

  std::set<Candidate> candidates;
  std::set<Path> known;  // accepted ∪ candidates, to avoid duplicates
  known.insert(*first);

  while (static_cast<int>(accepted.size()) < k) {
    const Path& prev = accepted.back();
    // Each node of the previous accepted path (except the destination) is a
    // spur node; the prefix up to it is the root path.
    for (std::size_t spur_idx = 0; spur_idx + 1 < prev.size(); ++spur_idx) {
      const NodeId spur = prev[spur_idx];
      const Path root(prev.begin(), prev.begin() + static_cast<std::ptrdiff_t>(spur_idx) + 1);

      Graph work = g;
      // Remove edges that would recreate an already-known path sharing this
      // root prefix.
      for (const Path& p : accepted) {
        if (p.size() > spur_idx + 1 &&
            std::equal(root.begin(), root.end(), p.begin())) {
          work.remove_edge(p[spur_idx], p[spur_idx + 1]);
        }
      }
      // Remove root nodes (except the spur itself) to keep paths loopless.
      for (std::size_t i = 0; i + 1 <= spur_idx; ++i) work.remove_node(root[i]);

      // A spur from a non-transit node would relay through it, so skip it
      // unless it is the path's source.
      if (spur_idx > 0 && can_transit != nullptr &&
          !(*can_transit)[static_cast<std::size_t>(spur)]) {
        continue;
      }
      const auto spur_path = shortest_path(work, spur, t, can_transit);
      if (!spur_path) continue;

      Path total = root;
      total.insert(total.end(), spur_path->begin() + 1, spur_path->end());
      if (known.contains(total)) continue;
      known.insert(total);
      candidates.insert({path_length(g, total), std::move(total)});
    }

    if (candidates.empty()) break;
    accepted.push_back(candidates.begin()->path);
    candidates.erase(candidates.begin());
  }
  return accepted;
}

}  // namespace nptsn
