#include "core/cp_model.hpp"

#include <algorithm>
#include <cmath>

#include "blas/blas.hpp"
#include "core/multi_index.hpp"
#include "util/env.hpp"
#include "util/parallel.hpp"

namespace dmtk {

template <typename T>
std::vector<index_t> KtensorT<T>::dims() const {
  std::vector<index_t> d(factors.size());
  for (std::size_t n = 0; n < factors.size(); ++n) d[n] = factors[n].rows();
  return d;
}

template <typename T>
void KtensorT<T>::validate() const {
  DMTK_CHECK(!factors.empty(), "Ktensor: no factors");
  const index_t C = rank();
  for (const MatrixT<T>& U : factors) {
    DMTK_CHECK(U.cols() == C, "Ktensor: inconsistent rank across factors");
  }
  DMTK_CHECK(lambda.empty() || static_cast<index_t>(lambda.size()) == C,
             "Ktensor: lambda size mismatch");
}

template <typename T>
TensorT<T> KtensorT<T>::full(int threads) const {
  validate();
  const index_t N = order();
  const index_t C = rank();
  TensorT<T> X(dims());
  const index_t I0 = factors[0].rows();
  const index_t nslabs = X.numel() / I0;  // linearization of modes 1..N-1

  // For each component, walk the mode-(1..N-1) odometer and axpy the scaled
  // mode-0 column into each length-I0 slab. Slabs are independent, so the
  // parallel split is over slabs.
  const int nt = resolve_threads(threads);
  parallel_region(nt, [&](int t, int nteam) {
    const Range r = block_range(nslabs, nteam, t);
    if (r.empty()) return;
    std::vector<index_t> extents(static_cast<std::size_t>(N - 1));
    for (index_t n = 1; n < N; ++n) {
      extents[static_cast<std::size_t>(n - 1)] = factors[n].rows();
    }
    std::vector<index_t> idx(extents.size());
    for (index_t c = 0; c < C; ++c) {
      const T lc = lambda_or_one(c);
      const T* u0 = factors[0].col(c).data();
      for (index_t s = r.begin; s < r.end; ++s) {
        decompose_first_fastest(s, extents, idx);
        T w = lc;
        for (index_t n = 1; n < N; ++n) {
          w *= factors[static_cast<std::size_t>(n)](
              idx[static_cast<std::size_t>(n - 1)], c);
        }
        blas::axpy(I0, w, u0, index_t{1}, X.data() + s * I0, index_t{1});
      }
    }
  });
  return X;
}

template <typename T>
double KtensorT<T>::norm_squared(int threads) const {
  validate();
  const index_t C = rank();
  if (C == 0) return 0.0;
  MatrixT<T> H(C, C);
  H.fill(T{1});
  MatrixT<T> G(C, C);
  for (const MatrixT<T>& U : factors) {
    blas::syrk(blas::Trans::Trans, C, U.rows(), T{1}, U.data(), U.ld(), T{0},
               G.data(), G.ld(), threads);
    blas::hadamard_inplace(C * C, G.data(), H.data());
  }
  return norm_squared_from_grams(H);
}

template <typename T>
double KtensorT<T>::norm_squared_from_grams(const MatrixT<T>& H) const {
  const index_t C = rank();
  DMTK_CHECK(H.rows() == C && H.cols() == C,
             "Ktensor: Gram product is not rank x rank");
  double s = 0.0;
  for (index_t i = 0; i < C; ++i) {
    for (index_t j = 0; j < C; ++j) {
      s += static_cast<double>(lambda_or_one(i)) *
           static_cast<double>(lambda_or_one(j)) *
           static_cast<double>(H(i, j));
    }
  }
  // Guard tiny negative values from roundoff; the quantity is a norm.
  return std::max(0.0, s);
}

template <typename T>
void KtensorT<T>::normalize_columns() {
  validate();
  const index_t C = rank();
  if (lambda.empty()) lambda.assign(static_cast<std::size_t>(C), T{1});
  for (MatrixT<T>& U : factors) {
    for (index_t c = 0; c < C; ++c) {
      const T nrm = blas::nrm2(U.rows(), U.col(c).data(), index_t{1});
      if (nrm > T{0}) {
        blas::scal(U.rows(), T{1} / nrm, U.col(c).data(), index_t{1});
        lambda[static_cast<std::size_t>(c)] *= nrm;
      }
    }
  }
}

template <typename T>
KtensorT<T> KtensorT<T>::random(std::span<const index_t> dims, index_t rank,
                                Rng& rng) {
  KtensorT K;
  K.factors.reserve(dims.size());
  for (index_t d : dims) {
    K.factors.push_back(MatrixT<T>::random_uniform(d, rank, rng));
  }
  K.lambda.assign(static_cast<std::size_t>(rank), T{1});
  return K;
}

template <typename T>
double factor_match_score(const KtensorT<T>& a, const KtensorT<T>& b) {
  DMTK_CHECK(a.order() == b.order() && a.rank() == b.rank(),
             "factor_match_score: shape mismatch");
  const index_t N = a.order();
  const index_t C = a.rank();
  if (C == 0) return 1.0;

  // Pairwise congruence: product over modes of |cos(U_a(:,i), U_b(:,j))|.
  Matrix congruence(C, C);
  congruence.fill(1.0);
  for (index_t n = 0; n < N; ++n) {
    const MatrixT<T>& Ua = a.factors[static_cast<std::size_t>(n)];
    const MatrixT<T>& Ub = b.factors[static_cast<std::size_t>(n)];
    DMTK_CHECK(Ua.rows() == Ub.rows(), "factor_match_score: dim mismatch");
    for (index_t i = 0; i < C; ++i) {
      const double na = static_cast<double>(
          blas::nrm2(Ua.rows(), Ua.col(i).data(), index_t{1}));
      for (index_t j = 0; j < C; ++j) {
        const double nb = static_cast<double>(
            blas::nrm2(Ub.rows(), Ub.col(j).data(), index_t{1}));
        const double d = static_cast<double>(
            blas::dot(Ua.rows(), Ua.col(i).data(), index_t{1},
                      Ub.col(j).data(), index_t{1}));
        congruence(i, j) *= (na > 0 && nb > 0) ? std::abs(d) / (na * nb) : 0.0;
      }
    }
  }
  // Greedy assignment (adequate for well-separated components).
  std::vector<bool> used(static_cast<std::size_t>(C), false);
  double total = 0.0;
  for (index_t i = 0; i < C; ++i) {
    double best = 0.0;
    index_t bestj = -1;
    for (index_t j = 0; j < C; ++j) {
      if (!used[static_cast<std::size_t>(j)] && congruence(i, j) >= best) {
        best = congruence(i, j);
        bestj = j;
      }
    }
    if (bestj >= 0) used[static_cast<std::size_t>(bestj)] = true;
    total += best;
  }
  return total / static_cast<double>(C);
}

template struct KtensorT<double>;
template struct KtensorT<float>;
template double factor_match_score<double>(const Ktensor&, const Ktensor&);
template double factor_match_score<float>(const KtensorF&, const KtensorF&);

}  // namespace dmtk
