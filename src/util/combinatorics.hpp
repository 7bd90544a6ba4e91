// Combination enumeration used by the failure-injection algorithm (Alg. 3).
#pragma once

#include <algorithm>
#include <cstdint>
#include <vector>

#include "util/expect.hpp"

namespace nptsn {

// Visits every k-subset of {0, ..., n-1} in lexicographic order. The visitor
// receives the current index combination and returns true to continue or
// false to stop early (used when the analyzer finds a non-recoverable
// failure). Returns false iff the visitor stopped the enumeration.
template <typename Visitor>
bool for_each_combination(int n, int k, Visitor&& visit) {
  NPTSN_EXPECT(n >= 0 && k >= 0, "for_each_combination requires n, k >= 0");
  if (k > n) return true;  // no subsets to visit
  std::vector<int> idx(static_cast<std::size_t>(k));
  for (int i = 0; i < k; ++i) idx[static_cast<std::size_t>(i)] = i;
  while (true) {
    if (!visit(static_cast<const std::vector<int>&>(idx))) return false;
    // Advance to the next combination.
    int i = k - 1;
    while (i >= 0 && idx[static_cast<std::size_t>(i)] == n - k + i) --i;
    if (i < 0) return true;
    ++idx[static_cast<std::size_t>(i)];
    for (int j = i + 1; j < k; ++j) {
      idx[static_cast<std::size_t>(j)] = idx[static_cast<std::size_t>(j - 1)] + 1;
    }
  }
}

// n choose k without overflow for the small n used here (guarded).
inline std::uint64_t binomial(int n, int k) {
  NPTSN_EXPECT(n >= 0 && k >= 0, "binomial requires n, k >= 0");
  if (k > n) return 0;
  k = std::min(k, n - k);
  std::uint64_t result = 1;
  for (int i = 1; i <= k; ++i) {
    NPTSN_ASSERT(result <= UINT64_MAX / static_cast<std::uint64_t>(n - k + i),
                 "binomial overflow");
    result = result * static_cast<std::uint64_t>(n - k + i) / static_cast<std::uint64_t>(i);
  }
  return result;
}

}  // namespace nptsn
