// Yen's K shortest loopless paths (Yen, Management Science 1971) — the path
// generator used by the Survival-Oriented Action Generator (Alg. 1 line 5).
#pragma once

#include <vector>

#include "graph/paths.hpp"

namespace nptsn {

// Returns up to k loopless paths from s to t in non-decreasing length order.
// The order is deterministic but not lexicographic among equal lengths: the
// first path is shortest_path()'s, and each later one is the smallest
// (length, node sequence) candidate discovered so far. A path found by a
// later spur can therefore tie an earlier one in length and still be
// lexicographically smaller (tests/graph/yen_test.cpp pins an example).
// Fewer than k paths are returned when the graph does not contain them.
// can_transit has shortest_path() semantics (nullptr = all nodes relay).
// s, t and the filter size are checked even when k == 0.
//
// Runs CsrSearch::k_shortest_paths() over a CsrGraph snapshot of g; callers
// that query one graph repeatedly should hold the CsrGraph themselves.
std::vector<Path> k_shortest_paths(const Graph& g, NodeId s, NodeId t, int k,
                                   const TransitFilter* can_transit = nullptr);

// The graph-copying Yen (one Graph copy per spur node), bit-frozen as the
// oracle for the CSR implementation. Same contract and same results as
// k_shortest_paths(). Its one production caller is the scalar
// HeuristicRecovery::recover(), the packed NBF session's ground truth.
std::vector<Path> k_shortest_paths_reference(const Graph& g, NodeId s, NodeId t, int k,
                                             const TransitFilter* can_transit = nullptr);

}  // namespace nptsn
