#include "nn/stage_cache.hpp"

#include <cstring>

namespace nptsn {
namespace {

// FNV-1a over the stacked form's shape and, part by part, its row lengths,
// columns and raw value bit patterns: exactly the arrays the stacked CsrRows
// holds, with its row pointers as lengths so that no part's offset enters.
// Bit patterns (not values), so NaN payloads hash — and later compare —
// exactly like the verification pass sees them.
std::uint64_t content_hash(const std::vector<const CsrRows*>& parts) {
  std::uint64_t h = 1469598103934665603ull;
  const auto absorb = [&h](const void* bytes, std::size_t size) {
    const auto* p = static_cast<const unsigned char*>(bytes);
    for (std::size_t i = 0; i < size; ++i) {
      h ^= p[i];
      h *= 1099511628211ull;
    }
  };
  std::uint64_t rows = 0;
  for (const CsrRows* part : parts) rows += static_cast<std::uint64_t>(part->rows());
  const auto cols = static_cast<std::uint64_t>(parts.front()->cols());
  absorb(&rows, sizeof(rows));
  absorb(&cols, sizeof(cols));
  for (const CsrRows* part : parts) {
    for (int r = 0; r < part->rows(); ++r) {
      const std::uint64_t length = part->row_end(r) - part->row_begin(r);
      absorb(&length, sizeof(length));
    }
    absorb(part->csr_cols(), part->nnz() * sizeof(int));
    absorb(part->csr_vals(), part->nnz() * sizeof(double));
  }
  return h;
}

// Whether `staged` holds exactly the parts' rows, stacked in order, with the
// symmetry flag their stack would carry.
bool content_equal(const std::vector<const CsrRows*>& parts, const CsrRows& staged) {
  int row = 0;
  std::size_t base = 0;
  bool symmetric = true;
  for (const CsrRows* part : parts) {
    if (part->cols() != staged.cols() || row + part->rows() > staged.rows()) return false;
    for (int r = 0; r < part->rows(); ++r, ++row) {
      if (staged.row_end(row) - base != part->row_end(r)) return false;
    }
    const std::size_t nnz = part->nnz();
    if (nnz > 0 &&
        (std::memcmp(staged.csr_cols() + base, part->csr_cols(), nnz * sizeof(int)) != 0 ||
         std::memcmp(staged.csr_vals() + base, part->csr_vals(), nnz * sizeof(double)) != 0)) {
      return false;
    }
    base += nnz;
    symmetric = symmetric && part->symmetric();
  }
  return row == staged.rows() && symmetric == staged.symmetric();
}

// The byte budget's charge for a staged form: one (column, value) pair per
// dense entry of its rows x cols (B n x n: its B blocks' n^2 each) plus its
// row pointers. It bounds the stored CSR rather than measuring it, so the
// budget admits few enough batches to keep a stream's resident memory down
// (charging the stored bytes let the default budget pin about 6 MB more).
std::size_t staged_cost(const CsrRows& staged) {
  const std::size_t rows = static_cast<std::size_t>(staged.rows());
  const std::size_t dense = rows * static_cast<std::size_t>(staged.cols());
  return dense * (sizeof(int) + sizeof(double)) + (rows + 1) * sizeof(std::size_t);
}

}  // namespace

AdjacencyStageCache::AdjacencyStageCache(std::size_t max_bytes) : store_(max_bytes) {}

std::shared_ptr<const CsrRows> AdjacencyStageCache::stage(
    const std::vector<const CsrRows*>& parts) {
  NPTSN_EXPECT(!parts.empty(), "stage needs at least one part");
  const std::uint64_t key = content_hash(parts);
  {
    std::lock_guard lock(mutex_);
    if (const auto* hit = store_.get(key)) {
      if (content_equal(parts, **hit)) return *hit;
      ++collisions_;  // different content behind the same hash: miss
    }
  }
  // Stage outside the lock, then admit. On a racing double-stage of the same
  // content, last-writer-wins; both results are content-identical, so
  // either serves every later probe correctly.
  auto staged = std::make_shared<const CsrRows>(parts);
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
