#pragma once
/// Shared helpers for the dmtk test suite.

#include <gtest/gtest.h>

#include <cmath>
#include <limits>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/matrix.hpp"
#include "core/tensor.hpp"
#include "util/rng.hpp"

namespace dmtk::testing {

/// True when X answers norm_squared() from the ‖X‖² it carries rather than
/// from a pass over its entries: a write the tensor cannot see (through
/// the const data pointer, which drops nothing) leaves the answer as it
/// was. The entry is restored before returning. X must be non-empty.
template <typename T>
bool answers_from_carried_norm(TensorT<T>& X) {
  const double before = X.norm_squared();
  T* const p = const_cast<T*>(std::as_const(X).data());
  const T saved = p[0];
  p[0] = std::abs(saved) + T{1};  // a strictly larger square
  const bool carried = X.norm_squared() == before;
  p[0] = saved;
  return carried;
}

/// Default comparison tolerance for a scalar type: a small multiple of its
/// machine epsilon (the scaling the typed float/double tests share, so one
/// test body serves both precisions).
template <typename T>
constexpr double eps_tol(double mult = 100.0) {
  return mult * static_cast<double>(std::numeric_limits<T>::epsilon());
}

/// Expect |a - b| <= tol * max(1, |a|, |b|) — the absolute-plus-relative
/// rule of expect_matrix_near, for scalars of any precision.
template <typename T>
void expect_near_eps(T a, T b, double tol_mult = 100.0) {
  const double da = static_cast<double>(a);
  const double db = static_cast<double>(b);
  const double scale = std::max({1.0, std::abs(da), std::abs(db)});
  ASSERT_NEAR(da, db, eps_tol<T>(tol_mult) * scale);
}

/// Naive triple-loop GEMM oracle: C = alpha*op(A)*op(B) + beta*C, all
/// column-major buffers with the given leading dimensions.
inline void naive_gemm(bool ta, bool tb, index_t m, index_t n, index_t k,
                       double alpha, const double* A, index_t lda,
                       const double* B, index_t ldb, double beta, double* C,
                       index_t ldc) {
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < m; ++i) {
      double s = 0.0;
      for (index_t p = 0; p < k; ++p) {
        const double a = ta ? A[p + i * lda] : A[i + p * lda];
        const double b = tb ? B[j + p * ldb] : B[p + j * ldb];
        s += a * b;
      }
      C[i + j * ldc] = alpha * s + beta * C[i + j * ldc];
    }
  }
}

/// Expect matrices equal within an absolute-plus-relative tolerance
/// (defaulting to an eps-scaled one for the matrices' scalar type).
template <typename T>
void expect_matrix_near(const MatrixT<T>& a, const MatrixT<T>& b,
                        double tol = -1.0) {
  if (tol < 0.0) {
    tol = std::is_same_v<T, double> ? 1e-10 : eps_tol<T>(100.0);
  }
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (index_t j = 0; j < a.cols(); ++j) {
    for (index_t i = 0; i < a.rows(); ++i) {
      const double av = static_cast<double>(a(i, j));
      const double bv = static_cast<double>(b(i, j));
      const double scale = std::max({1.0, std::abs(av), std::abs(bv)});
      ASSERT_NEAR(av, bv, tol * scale) << "at (" << i << ", " << j << ")";
    }
  }
}

/// Expect tensors equal within a tolerance (eps-scaled default as above).
template <typename T>
void expect_tensor_near(const TensorT<T>& a, const TensorT<T>& b,
                        double tol = -1.0) {
  if (tol < 0.0) {
    tol = std::is_same_v<T, double> ? 1e-10 : eps_tol<T>(100.0);
  }
  ASSERT_EQ(a.order(), b.order());
  for (index_t n = 0; n < a.order(); ++n) ASSERT_EQ(a.dim(n), b.dim(n));
  for (index_t l = 0; l < a.numel(); ++l) {
    const double av = static_cast<double>(a[l]);
    const double bv = static_cast<double>(b[l]);
    const double scale = std::max({1.0, std::abs(av), std::abs(bv)});
    ASSERT_NEAR(av, bv, tol * scale) << "at linear index " << l;
  }
}

/// Random factor matrices for a tensor shape.
template <typename T = double>
std::vector<MatrixT<T>> random_factors(std::span<const index_t> dims,
                                       index_t rank, Rng& rng) {
  std::vector<MatrixT<T>> fs;
  fs.reserve(dims.size());
  for (index_t d : dims) {
    fs.push_back(MatrixT<T>::random_uniform(d, rank, rng));
  }
  return fs;
}

}  // namespace dmtk::testing
