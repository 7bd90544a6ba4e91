// The two Yen implementations every Yen test case runs against: the
// production CSR Yen behind k_shortest_paths() and the graph-copying oracle.
#pragma once

#include <vector>

#include "graph/yen.hpp"

namespace nptsn::testing {

struct YenImpl {
  const char* name;
  std::vector<Path> (*run)(const Graph&, NodeId, NodeId, int, const TransitFilter*);
};

inline constexpr YenImpl kYenImpls[] = {
    {"csr", &k_shortest_paths},
    {"reference", &k_shortest_paths_reference},
};

}  // namespace nptsn::testing
