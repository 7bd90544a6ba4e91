#include "tsn/sim_kernels.hpp"

#include <atomic>
#include <bit>

namespace nptsn {

namespace {
std::atomic<TsnKernel> g_tsn_kernel{TsnKernel::kFast};
}  // namespace

void set_tsn_kernel(TsnKernel kernel) {
  g_tsn_kernel.store(kernel, std::memory_order_relaxed);
}

TsnKernel tsn_kernel() { return g_tsn_kernel.load(std::memory_order_relaxed); }

namespace tsk {

std::uint64_t fold_occupancy_reference(std::uint64_t row, int stride, int repetitions) {
  std::uint64_t fold = 0;
  for (int s = 0; s < stride; ++s) {
    for (int k = 0; k < repetitions; ++k) {
      if ((row >> (s + k * stride)) & 1u) {
        fold |= std::uint64_t{1} << s;
        break;
      }
    }
  }
  return fold;
}

std::uint64_t fold_occupancy_fast(std::uint64_t row, int stride, int repetitions) {
  std::uint64_t fold = 0;
  for (int k = 0; k < repetitions; ++k) fold |= row >> (k * stride);
  return fold & low_mask(stride);
}

int nowait_start_reference(const std::uint64_t* folds, int hops, int deadline_slots) {
  for (int start = 0; start + hops <= deadline_slots; ++start) {
    bool free = true;
    for (int i = 0; i < hops && free; ++i) {
      free = ((folds[i] >> (start + i)) & 1u) == 0;
    }
    if (free) return start;
  }
  return -1;
}

int nowait_start_fast(const std::uint64_t* folds, int hops, int deadline_slots) {
  if (hops > deadline_slots) return -1;
  std::uint64_t blocked = 0;
  for (int i = 0; i < hops; ++i) blocked |= folds[i] >> i;
  const std::uint64_t candidates = ~blocked & low_mask(deadline_slots - hops + 1);
  if (candidates == 0) return -1;
  return std::countr_zero(candidates);
}

int earliest_free_reference(std::uint64_t fold, int from, int deadline_slots) {
  for (int s = from; s < deadline_slots; ++s) {
    if (((fold >> s) & 1u) == 0) return s;
  }
  return -1;
}

int earliest_free_fast(std::uint64_t fold, int from, int deadline_slots) {
  if (from >= deadline_slots) return -1;
  const std::uint64_t avail = ~fold & low_mask(deadline_slots) & ~low_mask(from);
  if (avail == 0) return -1;
  return std::countr_zero(avail);
}

}  // namespace tsk

}  // namespace nptsn
