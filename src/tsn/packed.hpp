// Bitset-packed staged implementation of HeuristicRecovery — the production
// fast path behind StatelessNbf::stage().
//
// Staging precomputes, once per topology: packed adjacency bit-rows, a
// CsrGraph of Gt whose edge ids are the per-directed-edge ids, the dense
// (from, to) -> edge-id lookup, the transit mask, and every flow's
// FlowTiming. Each recover() then runs entirely on flat arrays — a
// word-parallel reachability guard (tsk::reach_fast), the shared CSR
// Dijkstra and, when the shortest path cannot be scheduled, the shared CSR
// Yen (graph/csr.hpp) with the scenario's failed nodes and links as bans,
// and single-word slot-occupancy kernels instead of the std::map SlotTable.
// No residual Graph is built. Results are bit-identical to
// HeuristicRecovery::recover(), which stays in the tree as the bit-frozen
// ground truth with its own graph-copying Yen (k_shortest_paths_reference).
#pragma once

#include <memory>

#include "net/topology.hpp"
#include "tsn/recovery.hpp"

namespace nptsn {

// Packed envelope: instances with more nodes use the scalar path (the dense
// edge-id lookup is n^2); in-vehicle networks are far below this.
inline constexpr int kPackedMaxNodes = 1024;

// Builds a packed session for the topology, or nullptr when the instance is
// outside the packed envelope (num_nodes > kPackedMaxNodes or
// slots_per_base > 64). path_candidates / discipline have
// HeuristicRecovery's semantics.
std::unique_ptr<NbfSession> make_packed_recovery_session(const Topology& topology,
                                                         int path_candidates,
                                                         TtDiscipline discipline);

}  // namespace nptsn
