#pragma once
/// \file krp.hpp
/// \brief Khatri-Rao product algorithms (Section 4.1 of the paper).
///
/// Convention: the KRP of the factor list (F_0, ..., F_{Z-1}) is
///   K = F_0 (.) F_1 (.) ... (.) F_{Z-1},
/// with the row-wise definition K(r, :) = F_0(l_0,:) * ... * F_{Z-1}(l_{Z-1},:)
/// where the multi-index (l_0, ..., l_{Z-1}) decomposes r with the LAST
/// factor varying fastest (this generalizes K(rB + rA*IB, :) = A(rA,:)*B(rB,:)).
///
/// Storage: row-wise generation writes one C-vector per output row, so the
/// natural layout is row-major. dmtk's Matrix is column-major, therefore KRP
/// outputs are returned TRANSPOSED: a C x (prod J_z) column-major matrix
/// whose column r is row r of the mathematical KRP. GEMM consumers pass it
/// with Trans::Trans; this is also exactly the conformal layout Figure 2
/// needs for the block inner product.
///
/// Everything here is templated on the scalar type (instantiated for double
/// and float); `FactorList` aliases the double factor list.

#include <span>
#include <vector>

#include "core/matrix.hpp"
#include "util/common.hpp"

namespace dmtk {

/// Non-owning ordered list of factor matrices.
template <typename T>
using FactorListT = std::vector<const MatrixT<T>*>;

using FactorList = FactorListT<double>;
using FactorListF = FactorListT<float>;

/// Number of rows of the KRP: prod of factor row counts (1 for an empty
/// list, matching the empty-product convention used by partial KRPs of
/// external modes).
template <typename T>
index_t krp_rows(const FactorListT<T>& factors);

/// Common column count of the factors; throws if inconsistent. An empty
/// list has no intrinsic width, so `expected` is returned for it.
template <typename T>
index_t krp_cols(const FactorListT<T>& factors, index_t expected = 0);

/// Write row r of the KRP (a C-vector) into out.
template <typename T>
void krp_row(const FactorListT<T>& factors, index_t r, T* out);

/// Rows [r0, r1) of the KRP, one Hadamard product per factor per row (no
/// reuse of partial products). Kt is the transposed output buffer: column
/// (r - r0) of a C x (r1-r0) column-major matrix with leading dimension
/// ldkt >= C.
template <typename T>
void krp_rows_naive(const FactorListT<T>& factors, index_t r0, index_t r1,
                    T* Kt, index_t ldkt);

/// Algorithm 1: rows [r0, r1) with reuse of the Z-2 partial Hadamard
/// products, costing ~one Hadamard product per output row. Starting at an
/// arbitrary r0 (not just 0) is what makes the parallel variant possible.
template <typename T>
void krp_rows_reuse(const FactorListT<T>& factors, index_t r0, index_t r1,
                    T* Kt, index_t ldkt);

/// Which row-generation kernel to use.
enum class KrpVariant { Naive, Reuse };

/// Full transposed KRP, C x (prod J_z), computed in parallel: threads own
/// contiguous blocks of output rows (Section 4.1.2).
template <typename T>
MatrixT<T> krp_transposed(const FactorListT<T>& factors,
                          KrpVariant variant = KrpVariant::Reuse,
                          int threads = 0);

/// As krp_transposed, but writing into a caller-owned matrix (resized if
/// needed). Lets hot loops and benchmarks reuse the output buffer, which
/// matters: the KRP is memory-bound, so an avoidable allocate+zero pass
/// costs as much as the kernel itself.
template <typename T>
void krp_transposed_into(const FactorListT<T>& factors, MatrixT<T>& Kt,
                         KrpVariant variant = KrpVariant::Reuse,
                         int threads = 0);

/// Column-wise KRP in the untransposed (prod J_z) x C layout, built column
/// by column as a Kronecker product — the Tensor-Toolbox `khatrirao`
/// formulation that the Reorder MTTKRP method reproduces.
template <typename T>
MatrixT<T> krp_columnwise(const FactorListT<T>& factors);

/// Factor list for the mode-n MTTKRP KRP:
/// (U_{N-1}, ..., U_{n+1}, U_{n-1}, ..., U_0), i.e. mode 0's row index
/// varies fastest, matching the column ordering of X(n).
template <typename T>
FactorListT<T> mttkrp_krp_factors(const std::vector<MatrixT<T>>& factors,
                                  index_t mode);

/// Left partial KRP factor list (U_{n-1}, ..., U_0) — K_L in the paper.
template <typename T>
FactorListT<T> left_krp_factors(const std::vector<MatrixT<T>>& factors,
                                index_t mode);

/// Right partial KRP factor list (U_{N-1}, ..., U_{n+1}) — K_R.
template <typename T>
FactorListT<T> right_krp_factors(const std::vector<MatrixT<T>>& factors,
                                 index_t mode);

#define DMTK_KRP_EXTERN(T)                                                    \
  extern template index_t krp_rows<T>(const FactorListT<T>&);                 \
  extern template index_t krp_cols<T>(const FactorListT<T>&, index_t);        \
  extern template void krp_row<T>(const FactorListT<T>&, index_t, T*);        \
  extern template void krp_rows_naive<T>(const FactorListT<T>&, index_t,      \
                                         index_t, T*, index_t);               \
  extern template void krp_rows_reuse<T>(const FactorListT<T>&, index_t,      \
                                         index_t, T*, index_t);               \
  extern template MatrixT<T> krp_transposed<T>(const FactorListT<T>&,         \
                                               KrpVariant, int);              \
  extern template void krp_transposed_into<T>(const FactorListT<T>&,          \
                                              MatrixT<T>&, KrpVariant, int);  \
  extern template MatrixT<T> krp_columnwise<T>(const FactorListT<T>&);        \
  extern template FactorListT<T> mttkrp_krp_factors<T>(                       \
      const std::vector<MatrixT<T>>&, index_t);                               \
  extern template FactorListT<T> left_krp_factors<T>(                         \
      const std::vector<MatrixT<T>>&, index_t);                               \
  extern template FactorListT<T> right_krp_factors<T>(                        \
      const std::vector<MatrixT<T>>&, index_t);
DMTK_KRP_EXTERN(double)
DMTK_KRP_EXTERN(float)
#undef DMTK_KRP_EXTERN

}  // namespace dmtk
