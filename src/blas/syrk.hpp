#pragma once
/// \file syrk.hpp
/// \brief Symmetric rank-k update, used to form the Gram matrices U^T U that
/// CP-ALS combines into the Hadamard system matrix H (Section 2.2).
///
/// Implemented on top of the blocked/packed GEMM kernel (gemm.hpp): the
/// upper trapezoid of each NB-column block is one GEMM against the leading
/// columns/rows of A, and the strictly-lower triangle is mirrored from the
/// upper one afterwards — so the triangular-output contract (lower == upper
/// bitwise, never recomputed) is preserved while the flops run on the
/// SIMD-dispatched micro-kernels.

#include <algorithm>

#include "blas/gemm_workspace.hpp"
#include "blas/types.hpp"
#include "util/common.hpp"

namespace dmtk::blas {

/// Column-block width of syrk's triangular GEMM sweep (see syrk.cpp).
inline constexpr index_t kSyrkNB = 128;

/// Workspace elements of T one syrk(n, k) call needs at `threads` threads
/// (the blocked-GEMM column sweep of syrk.cpp). Sized for the packed path,
/// which bounds the block products of both transposes.
template <typename T>
[[nodiscard]] inline std::size_t syrk_workspace_elems(index_t n, index_t k,
                                                      int threads) {
  return gemm_workspace_elems<T>(Trans::NoTrans, n, std::min(n, kSyrkNB), k,
                                 threads);
}

/// C <- alpha * op(A)^T op(A) ... specifically, for column-major A:
///   trans == Trans::Trans:   C(n x n) <- alpha * A^T A + beta * C, A is k x n
///   trans == Trans::NoTrans: C(n x n) <- alpha * A A^T + beta * C, A is n x k
/// Both triangles of C are written (full symmetric output), which is what the
/// Gram/Hadamard pipeline consumes.
///
/// \param ws packing workspace for the internal GEMM sweep; pass
///           syrk_workspace_elems<T>(n, k, threads) elements for a heap-free
///           call, or an invalid view to use the internal fallback arena
template <typename T>
void syrk(Trans trans, index_t n, index_t k, T alpha, const T* A, index_t lda,
          T beta, T* C, index_t ldc, int threads, const GemmWorkspace& ws);

/// Convenience overload: internal fallback workspace.
template <typename T>
void syrk(Trans trans, index_t n, index_t k, T alpha, const T* A, index_t lda,
          T beta, T* C, index_t ldc, int threads = 0) {
  syrk(trans, n, k, alpha, A, lda, beta, C, ldc, threads, GemmWorkspace{});
}

extern template void syrk<float>(Trans, index_t, index_t, float, const float*,
                                 index_t, float, float*, index_t, int,
                                 const GemmWorkspace&);
extern template void syrk<double>(Trans, index_t, index_t, double,
                                  const double*, index_t, double, double*,
                                  index_t, int, const GemmWorkspace&);

}  // namespace dmtk::blas
