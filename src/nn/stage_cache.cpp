#include "nn/stage_cache.hpp"

#include <cstring>

namespace nptsn {
namespace {

// FNV-1a over the block dimensions and raw double bit patterns. Bit patterns
// (not values) so -0.0 / 0.0 and NaN payloads hash — and later compare —
// exactly like the content-verification pass sees them.
std::uint64_t content_hash(const std::vector<Matrix>& blocks) {
  std::uint64_t h = 1469598103934665603ull;
  const auto absorb = [&h](std::uint64_t word) {
    for (int i = 0; i < 8; ++i) {
      h ^= (word >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  };
  absorb(blocks.size());
  for (const Matrix& m : blocks) {
    absorb(static_cast<std::uint64_t>(m.rows()));
    absorb(static_cast<std::uint64_t>(m.cols()));
    for (int i = 0; i < m.size(); ++i) {
      std::uint64_t bits;
      std::memcpy(&bits, m.data() + i, sizeof(bits));
      absorb(bits);
    }
  }
  return h;
}

bool content_equal(const std::vector<Matrix>& blocks, const BlockAdjacency& staged) {
  if (static_cast<std::size_t>(staged.count()) != blocks.size()) return false;
  const std::vector<Matrix>& cached = staged.blocks();
  for (std::size_t g = 0; g < blocks.size(); ++g) {
    const Matrix& a = blocks[g];
    const Matrix& b = cached[g];
    if (a.rows() != b.rows() || a.cols() != b.cols()) return false;
    if (std::memcmp(a.data(), b.data(), a.size() * sizeof(double)) != 0) return false;
  }
  return true;
}

// Estimated resident bytes of a staged form: the dense blocks plus a CSR
// index bounded by one (col, val, row_ptr) triple per dense entry.
std::size_t staged_cost(const BlockAdjacency& staged) {
  const std::size_t n = static_cast<std::size_t>(staged.block_size());
  const std::size_t dense = static_cast<std::size_t>(staged.count()) * n * n;
  return dense * sizeof(double) + dense * (sizeof(int) + sizeof(double)) +
         (static_cast<std::size_t>(staged.count()) * n + 1) * sizeof(std::size_t);
}

}  // namespace

AdjacencyStageCache::AdjacencyStageCache(std::size_t max_bytes) : store_(max_bytes) {}

std::shared_ptr<const BlockAdjacency> AdjacencyStageCache::stage(
    std::vector<Matrix> blocks) {
  const std::uint64_t key = content_hash(blocks);
  {
    std::lock_guard lock(mutex_);
    if (const auto* hit = store_.get(key)) {
      if (content_equal(blocks, **hit)) return *hit;
      ++collisions_;  // different content behind the same hash: miss
    }
  }
  // Stage outside the lock — the expensive part — then admit. On a racing
  // double-stage of the same content, last-writer-wins; both results are
  // content-identical, so either serves every later probe correctly.
  auto staged = std::make_shared<const BlockAdjacency>(std::move(blocks));
  std::lock_guard lock(mutex_);
  store_.put(key, staged, staged_cost(*staged));
  return staged;
}

AdjacencyStageCache::Stats AdjacencyStageCache::stats() const {
  std::lock_guard lock(mutex_);
  return Stats{store_.hits(),      store_.misses(), collisions_,
               store_.evictions(), store_.bytes(),  store_.size()};
}

void AdjacencyStageCache::clear() {
  std::lock_guard lock(mutex_);
  store_.clear();
}

}  // namespace nptsn
