// Staged implementation of HeuristicRecovery — the production fast path
// behind StatelessNbf::stage().
//
// Staging builds, once per topology, one CsrGraph of Gt and every flow's
// FlowTiming. Each recover() applies the scenario's failed nodes and links as
// bans on a CsrSearch over that graph, routes every flow with the shared CSR
// Dijkstra and, when the shortest path cannot be scheduled, the shared CSR
// Yen (graph/csr.hpp), and schedules on single-word slot-occupancy rows
// indexed by the CSR's directed edge ids instead of the std::map SlotTable.
// A flow is unplaceable exactly when the banned Dijkstra finds no path. No
// residual Graph is built. Results are bit-identical to
// HeuristicRecovery::recover(), which stays in the tree as the bit-frozen
// ground truth with its own graph-copying Yen (k_shortest_paths_reference).
#pragma once

#include <memory>

#include "net/topology.hpp"
#include "tsn/recovery.hpp"

namespace nptsn {

// Builds a packed session for the topology, or nullptr when the instance is
// outside the packed envelope: slots_per_base > 64, so a directed link's slot
// row does not fit one word. path_candidates / discipline have
// HeuristicRecovery's semantics.
std::unique_ptr<NbfSession> make_packed_recovery_session(const Topology& topology,
                                                         int path_candidates,
                                                         TtDiscipline discipline);

}  // namespace nptsn
