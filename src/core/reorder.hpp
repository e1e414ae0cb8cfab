#pragma once
/// \file reorder.hpp
/// \brief Explicit tensor reordering: generalized transpose (permute) and
/// explicit matricization. These are the memory-bound operations the paper's
/// 1-step/2-step algorithms are designed to AVOID; they are provided (a) as
/// the substrate of the Reorder MTTKRP (the Tensor Toolbox's kernel), (b)
/// for tests, and (c) so users migrating from Matlab have the familiar
/// primitives.
/// Templated on the scalar type like the rest of the numeric core.

#include <span>

#include "core/matrix.hpp"
#include "core/tensor.hpp"

namespace dmtk {

/// Generalized transpose, semantics of Matlab's permute: the result Y has
/// Y.dim(k) == X.dim(perm[k]) and Y(j_0,...,j_{N-1}) == X(i) with
/// i_{perm[k]} = j_k. perm must be a permutation of [0, N).
template <typename T>
TensorT<T> permute(const TensorT<T>& X, std::span<const index_t> perm,
                   int threads = 0);

/// Explicit mode-n matricization X(n): an I_n x I_{!=n} column-major matrix
/// whose columns are mode-n fibers ordered by the linearization of the
/// remaining modes. Requires a full copy of the tensor (the cost the 1-step
/// and 2-step algorithms avoid).
template <typename T>
MatrixT<T> matricize(const TensorT<T>& X, index_t mode, int threads = 0);

/// As matricize, but gathering into a caller-owned buffer of I_n * I_{!=n}
/// elements (column-major, ld = I_n) — what MttkrpPlan uses so the Reorder
/// method draws its scratch from the workspace arena instead of
/// allocating a fresh matrix per call.
template <typename T>
void matricize_into(const TensorT<T>& X, index_t mode, T* out,
                    int threads = 0);

/// Inverse of matricize: fold an I_n x I_{!=n} matrix back into a tensor
/// with the given dimensions.
template <typename T>
TensorT<T> tensorize(const MatrixT<T>& Xn, std::span<const index_t> dims,
                     index_t mode, int threads = 0);

#define DMTK_REORDER_EXTERN(T)                                                \
  extern template TensorT<T> permute<T>(const TensorT<T>&,                    \
                                        std::span<const index_t>, int);       \
  extern template MatrixT<T> matricize<T>(const TensorT<T>&, index_t, int);   \
  extern template void matricize_into<T>(const TensorT<T>&, index_t, T*,      \
                                         int);                                \
  extern template TensorT<T> tensorize<T>(const MatrixT<T>&,                  \
                                          std::span<const index_t>, index_t,  \
                                          int);
DMTK_REORDER_EXTERN(double)
DMTK_REORDER_EXTERN(float)
#undef DMTK_REORDER_EXTERN

}  // namespace dmtk
