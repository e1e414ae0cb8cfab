#pragma once
/// \file cp_model.hpp
/// \brief Ktensor: a rank-C CP model Y = [lambda; U_0, ..., U_{N-1}]
/// (Section 2.2). Factor matrices are I_n x C column-major; lambda holds the
/// per-component scales pulled out by column normalization. Templated on the
/// scalar type alongside Tensor/Matrix (`Ktensor` = double, `KtensorF` =
/// fp32); norms accumulate in double either way.

#include <span>
#include <vector>

#include "core/matrix.hpp"
#include "core/tensor.hpp"
#include "util/rng.hpp"

namespace dmtk {

template <typename T>
struct KtensorT {
  std::vector<MatrixT<T>> factors;  ///< factors[n] is I_n x C
  std::vector<T> lambda;            ///< size C; empty means all-ones

  [[nodiscard]] index_t order() const {
    return static_cast<index_t>(factors.size());
  }

  [[nodiscard]] index_t rank() const {
    return factors.empty() ? 0 : factors.front().cols();
  }

  [[nodiscard]] std::vector<index_t> dims() const;

  /// Effective lambda value for component c (1 when lambda is empty).
  [[nodiscard]] T lambda_or_one(index_t c) const {
    return lambda.empty() ? T{1} : lambda[static_cast<std::size_t>(c)];
  }

  /// Materialize the dense tensor Y(i_0,...,i_{N-1}) =
  /// sum_c lambda_c prod_n U_n(i_n, c). Cost O(I * C).
  [[nodiscard]] TensorT<T> full(int threads = 0) const;

  /// ||Y||_F^2 = lambda^T (Hadamard_n U_n^T U_n) lambda, computed without
  /// materializing the tensor (double accumulation).
  [[nodiscard]] double norm_squared(int threads = 0) const;

  /// ||Y||_F^2 given H = U_0^T U_0 (*) ... (*) U_{N-1}^T U_{N-1}, the
  /// Hadamard product of the factor Grams taken in mode order. The CP-ALS
  /// sweep loop keeps those Grams current and passes them in; with Grams
  /// from the same syrk, the bits equal norm_squared()'s.
  [[nodiscard]] double norm_squared_from_grams(const MatrixT<T>& H) const;

  /// Pull column 2-norms of every factor into lambda (multiplicatively).
  void normalize_columns();

  /// Model with i.i.d. uniform [0,1) factors and unit lambda.
  static KtensorT random(std::span<const index_t> dims, index_t rank,
                         Rng& rng);

  /// Validate internal consistency (matching ranks, lambda size); throws
  /// DimensionError on violation.
  void validate() const;
};

extern template struct KtensorT<double>;
extern template struct KtensorT<float>;

using Ktensor = KtensorT<double>;
using KtensorF = KtensorT<float>;

/// Entrywise conversion between scalar types (fp64 -> fp32 rounds).
template <typename To, typename From>
KtensorT<To> ktensor_cast(const KtensorT<From>& K) {
  KtensorT<To> R;
  R.factors.reserve(K.factors.size());
  for (const MatrixT<From>& U : K.factors) {
    R.factors.push_back(matrix_cast<To>(U));
  }
  R.lambda.reserve(K.lambda.size());
  for (From l : K.lambda) R.lambda.push_back(static_cast<To>(l));
  return R;
}

/// Relative factor-match score in [0,1] between two CP models of equal shape
/// and rank: the best average absolute cosine similarity over component
/// permutations is approximated greedily. Used to verify planted-factor
/// recovery in tests and the fMRI example.
template <typename T>
double factor_match_score(const KtensorT<T>& a, const KtensorT<T>& b);

extern template double factor_match_score<double>(const Ktensor&,
                                                  const Ktensor&);
extern template double factor_match_score<float>(const KtensorF&,
                                                 const KtensorF&);

}  // namespace dmtk
