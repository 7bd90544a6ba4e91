// SWAR kernels of the packed NBF session (src/tsn/packed.cpp), following the
// src/nn/kernels pattern: every kernel ships as a `_reference` / `_fast`
// pair with identical semantics. The reference member is the bit-frozen
// scalar ground truth, kept for the differential tests; the session always
// calls the fast member. All decisions these kernels make are integer/bit
// decisions, so the pair is BIT-identical on every platform (unlike the nn
// kernels, no float-summation caveat applies).
//
// The global TsnKernel selector has one job: HeuristicRecovery::stage()
// returns a packed session only under kFast. kReference sends every NBF
// call down the scalar std::map recovery instead. Verdicts, schedules and
// cache keys are the same either way.
#pragma once

#include <cstdint>

namespace nptsn {

enum class TsnKernel { kReference, kFast };

// Process-global kernel selection (thread-safe; default kFast).
void set_tsn_kernel(TsnKernel kernel);
TsnKernel tsn_kernel();

// Word-level primitives. Bit i of word w addresses entity w * 64 + i.
namespace tsk {

inline constexpr int kWordBits = 64;

inline int words_for(int bits) { return (bits + kWordBits - 1) / kWordBits; }

inline bool test_bit(const std::uint64_t* words, int i) {
  return (words[i / kWordBits] >> (i % kWordBits)) & 1u;
}

inline void set_bit(std::uint64_t* words, int i) {
  words[i / kWordBits] |= std::uint64_t{1} << (i % kWordBits);
}

inline void clear_bit(std::uint64_t* words, int i) {
  words[i / kWordBits] &= ~(std::uint64_t{1} << (i % kWordBits));
}

// Mask selecting bits [0, b); b may be >= 64 (full mask).
inline std::uint64_t low_mask(int b) {
  return b >= kWordBits ? ~std::uint64_t{0} : (std::uint64_t{1} << b) - 1;
}

// --- Reachability closure ----------------------------------------------
//
// BFS over a packed adjacency with shortest_path()'s transit semantics:
// expansion happens only from `src` and from nodes whose `transit` bit is
// set; every discovered node is masked by `alive`. Returns true iff `dst`
// is reached. `rows[u]` points to the `words`-word adjacency row of node u
// (callers patch rows of failed-link endpoints); `visited`, `frontier`,
// and `next` are caller-provided `words`-word scratch. Requires `src`
// alive; src == dst returns true.
bool reach_reference(const std::uint64_t* const* rows, int words,
                     const std::uint64_t* alive, const std::uint64_t* transit,
                     int src, int dst, std::uint64_t* visited,
                     std::uint64_t* frontier, std::uint64_t* next);
bool reach_fast(const std::uint64_t* const* rows, int words,
                const std::uint64_t* alive, const std::uint64_t* transit,
                int src, int dst, std::uint64_t* visited, std::uint64_t* frontier,
                std::uint64_t* next);

// --- Slot-table occupancy (single-word envelope: slots_per_base <= 64) ---
//
// Folds the repetition strides of one directed-link slot row into the flow's
// period window: bit s (s in [0, stride)) of the result is set iff any slot
// {s + k * stride} for k in [0, repetitions) is occupied in `row`. Requires
// repetitions * stride <= 64 and all row bits below repetitions * stride.
std::uint64_t fold_occupancy_reference(std::uint64_t row, int stride, int repetitions);
std::uint64_t fold_occupancy_fast(std::uint64_t row, int stride, int repetitions);

// Earliest no-wait chain start: smallest `start` with start + hops <=
// deadline_slots such that bit (start + i) of folds[i] is clear for every
// hop i; -1 when no such start exists. Exactly schedule_no_wait()'s search.
int nowait_start_reference(const std::uint64_t* folds, int hops, int deadline_slots);
int nowait_start_fast(const std::uint64_t* folds, int hops, int deadline_slots);

// Earliest free slot s in [from, deadline_slots) of a folded occupancy;
// -1 when the window is exhausted. Exactly the store-and-forward scan.
int earliest_free_reference(std::uint64_t fold, int from, int deadline_slots);
int earliest_free_fast(std::uint64_t fold, int from, int deadline_slots);

}  // namespace tsk

}  // namespace nptsn
