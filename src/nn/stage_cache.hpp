// Cross-session cache of staged adjacency batches (DESIGN.md §13).
//
// Staging a batch adjacency (stacking the observations' n x n CSR A-hat
// rows into the (B n) x n CsrRows the GCN encoder reads) is pure
// preprocessing: the staged form is a deterministic function of the parts'
// CSR arrays alone. Within one PPO update ActorCritic::stage_batch already
// stages once and reuses across head iterations; this cache extends the
// reuse across updates and across SESSIONS — a planner service replaying a
// previously seen problem walks the same topology prefixes and re-stages
// identical adjacency batches every epoch.
//
// Exactness: a probe hashes the parts' CSR arrays in stacking order (row
// lengths, columns and value bit patterns), then VERIFIES a hit by comparing
// them, and the symmetry flag their stack carries, with the cached stacked
// form before handing it out. A verified-equal staged form is
// indistinguishable from a fresh one (the stacked arrays are a
// deterministic function of the parts' arrays), so batched forwards stay
// bit-identical with the cache on or off. Hash collisions with different
// content are counted and treated as misses.
//
// Thread-safe (one mutex — staging hits are rare enough per second that
// sharding would buy nothing) and bounded by a byte budget charged per
// staged form as one (column, value) pair per dense entry of its B n x n
// rows plus its row pointers: a bound on the CSR it stores, not its size.
// Derived state: never checkpointed.
#pragma once

#include <cstdint>
#include <memory>
#include <mutex>
#include <vector>

#include "nn/matrix.hpp"
#include "util/lru_store.hpp"

namespace nptsn {

class AdjacencyStageCache {
 public:
  explicit AdjacencyStageCache(std::size_t max_bytes = std::size_t{64} << 20);

  // Returns the parts' rows stacked into one CsrRows: a verified cache hit,
  // or a freshly stacked (and admitted) one. The returned object is
  // immutable and shared — callers keep it alive independently of eviction.
  std::shared_ptr<const CsrRows> stage(const std::vector<const CsrRows*>& parts);

  struct Stats {
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t collisions = 0;  // hash matched, content differed
    std::uint64_t evictions = 0;
    std::size_t bytes = 0;
    std::size_t entries = 0;
  };
  Stats stats() const;
  void clear();

 private:
  mutable std::mutex mutex_;
  std::uint64_t collisions_ = 0;
  LruStore<std::uint64_t, std::shared_ptr<const CsrRows>> store_;
};

}  // namespace nptsn
