#pragma once
/// \file rank_panel.hpp
/// \brief The rank-panel GEMM path (internal to the BLAS layer; gemm.cpp
/// dispatches to it when gemm_uses_rank_panel() holds).
///
/// It computes C(m x n) = alpha * op(A) * B^T + beta * C for the shape every
/// MTTKRP issues: op(A) is the matricized tensor (m x k, k long), B^T is the
/// transposed Khatri-Rao product in its p-major layout (row p of B^T is n
/// contiguous values at B + p*ldb), and n is the rank. Neither operand is
/// packed: the kernels read op(A) in place, in blocks of kc consecutive
/// k-indices (a column-major A's next block streams into L2 while the
/// current one computes), and broadcast or load B^T straight from the
/// caller's buffer. Register tiles span all n columns in widths that split
/// n without zero-padded edge tiles. See rank_panel.cpp for the per-layout
/// tile shapes.
///
/// Determinism: every output element sums over k in one fixed order (kc
/// blocks ascending, k ascending inside a block) that depends only on the
/// layout of A, n, k, lda and the scalar type — never on m, the row range,
/// or the thread count — so a team, which splits the rows of C only, is
/// bitwise equal to one thread.

#include <algorithm>

#include "blas/types.hpp"
#include "util/common.hpp"

namespace dmtk::blas::detail {

/// Scale the columns [j0, j1) of C(0:m, :) by beta: the up-front fold that
/// lets both GEMM paths accumulate into C unconditionally.
template <typename T>
void scale_columns(index_t m, index_t j0, index_t j1, T beta, T* C,
                   index_t ldc) {
  if (beta == T{1}) return;
  for (index_t j = j0; j < j1; ++j) {
    T* col = C + j * ldc;
    if (beta == T{0}) {
      std::fill(col, col + m, T{0});
    } else {
      for (index_t i = 0; i < m; ++i) col[i] *= beta;
    }
  }
}

/// Rank-panel product on one thread (a gemm_batched item or row range).
template <typename T>
void rank_panel_seq(Trans ta, index_t m, index_t n, index_t k, T alpha,
                    const T* A, index_t lda, const T* B, index_t ldb, T beta,
                    T* C, index_t ldc);

/// Rank-panel product on a team of `nt` threads, rows of C split in whole
/// register tiles.
template <typename T>
void rank_panel_team(Trans ta, index_t m, index_t n, index_t k, T alpha,
                     const T* A, index_t lda, const T* B, index_t ldb, T beta,
                     T* C, index_t ldc, int nt);

}  // namespace dmtk::blas::detail
