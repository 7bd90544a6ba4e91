// The fast family's dense rows, as one ISA level's object builds them
// (fast_rows.cpp; DESIGN.md §11). Private to src/nn: kernels.cpp composes
// each into a fast nnk::KernelTable with the CSR walks and picks one.
#pragma once

#include "nn/kernels.hpp"

namespace nptsn::nnk::detail {

// Output rows per register tile of the fast dense rows: a tile is kTileRows
// rows by one panel (two vectors) of columns. A call over fewer rows packs
// only its last panel (PackedOperand::pack).
inline constexpr int kTileRows = 6;

// The routines one ISA object contributes to a fast KernelTable.
struct FastRows {
  const char* isa;
  int panel_cols;
  decltype(KernelTable::affine_rows) affine_rows;
  decltype(KernelTable::matmul_rows) matmul_rows;
  decltype(KernelTable::matmul_tn_resume) matmul_tn_resume;
  decltype(KernelTable::tanh) tanh;
};

// Each ISA object defines its getter and nothing else; kernels.cpp calls
// only the ones src/nn/CMakeLists.txt built (NPTSN_FAST_ROWS_*).
const FastRows& fast_rows_x86_64_v3();
const FastRows& fast_rows_x86_64_v4();
const FastRows& fast_rows_portable();

}  // namespace nptsn::nnk::detail
