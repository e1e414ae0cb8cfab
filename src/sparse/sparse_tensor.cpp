#include "sparse/sparse_tensor.hpp"

#include <algorithm>
#include <cmath>
#include <optional>

#include "blas/blas.hpp"
#include "core/cp_als_detail.hpp"
#include "core/multi_index.hpp"
#include "exec/sweep_plan.hpp"
#include "util/env.hpp"
#include "util/parallel.hpp"

namespace dmtk::sparse {

template <typename T>
SparseTensorT<T>::SparseTensorT(std::vector<index_t> dims)
    : dims_(std::move(dims)), coords_(dims_.size()) {
  for (index_t d : dims_) {
    DMTK_CHECK(d > 0, "SparseTensor: nonpositive mode size");
  }
}

template <typename T>
index_t SparseTensorT<T>::numel() const {
  index_t n = dims_.empty() ? 0 : 1;
  for (index_t d : dims_) n *= d;
  return n;
}

template <typename T>
void SparseTensorT<T>::reserve(index_t nnz) {
  DMTK_CHECK(nnz >= 0, "SparseTensor: negative reserve");
  for (auto& c : coords_) c.reserve(static_cast<std::size_t>(nnz));
  values_.reserve(static_cast<std::size_t>(nnz));
}

template <typename T>
void SparseTensorT<T>::push_back(std::span<const index_t> idx, T value) {
  DMTK_CHECK(idx.size() == dims_.size(), "SparseTensor: order mismatch");
  for (std::size_t n = 0; n < dims_.size(); ++n) {
    DMTK_CHECK(idx[n] >= 0 && idx[n] < dims_[n],
               "SparseTensor: coordinate out of range");
  }
  for (std::size_t n = 0; n < dims_.size(); ++n) {
    coords_[n].push_back(idx[n]);
  }
  values_.push_back(value);
}

template <typename T>
double SparseTensorT<T>::norm_squared() const {
  double s = 0.0;
  for (T v : values_) {
    s += static_cast<double>(v) * static_cast<double>(v);
  }
  return s;
}

template <typename T>
SparseTensorT<T> SparseTensorT<T>::from_dense(const TensorT<T>& X,
                                              double threshold) {
  SparseTensorT<T> S({X.dims().begin(), X.dims().end()});
  const index_t N = X.order();
  std::vector<index_t> idx(static_cast<std::size_t>(N), 0);
  const std::vector<index_t> extents(X.dims().begin(), X.dims().end());
  for (index_t l = 0; l < X.numel(); ++l) {
    if (std::abs(static_cast<double>(X[l])) > threshold) {
      decompose_first_fastest(l, extents, idx);
      S.push_back(idx, X[l]);
    }
  }
  return S;
}

template <typename T>
TensorT<T> SparseTensorT<T>::to_dense() const {
  TensorT<T> X({dims_.begin(), dims_.end()});
  const index_t N = order();
  for (index_t k = 0; k < nnz(); ++k) {
    index_t l = 0;
    for (index_t n = N; n-- > 0;) {
      l = l * dim(n) + coord(n, k);
    }
    X[l] += value(k);
  }
  return X;
}

template <typename T>
SparseTensorT<T> SparseTensorT<T>::random(std::vector<index_t> dims,
                                          index_t nnz, Rng& rng) {
  SparseTensorT<T> S(std::move(dims));
  std::vector<index_t> idx(static_cast<std::size_t>(S.order()));
  for (index_t k = 0; k < nnz; ++k) {
    for (index_t n = 0; n < S.order(); ++n) {
      idx[static_cast<std::size_t>(n)] = static_cast<index_t>(
          rng.below(static_cast<std::uint64_t>(S.dim(n))));
    }
    S.push_back(idx, static_cast<T>(rng.uniform()));
  }
  return S;
}

template class SparseTensorT<double>;
template class SparseTensorT<float>;

template <typename T>
void mttkrp(const SparseTensorT<T>& X,
            std::span<const MatrixT<std::type_identity_t<T>>> factors,
            index_t mode, MatrixT<T>& M, int threads) {
  const index_t N = X.order();
  DMTK_CHECK(N >= 2, "sparse mttkrp: need at least 2 modes");
  DMTK_CHECK(mode >= 0 && mode < N, "sparse mttkrp: bad mode");
  DMTK_CHECK(static_cast<index_t>(factors.size()) == N,
             "sparse mttkrp: need one factor per mode");
  const index_t C = factors[0].cols();
  for (index_t n = 0; n < N; ++n) {
    DMTK_CHECK(factors[static_cast<std::size_t>(n)].cols() == C,
               "sparse mttkrp: rank mismatch");
    DMTK_CHECK(factors[static_cast<std::size_t>(n)].rows() == X.dim(n),
               "sparse mttkrp: factor rows != mode size");
  }
  const index_t In = X.dim(mode);
  if (M.rows() != In || M.cols() != C) M = MatrixT<T>(In, C);

  const int nt = resolve_threads(threads);
  const index_t nnz = X.nnz();
  // Thread-private accumulators sized I_n x C, reduced afterwards — the
  // same conflict-avoidance strategy as the dense 1-step algorithm. The
  // partials are double for either scalar: fp32 storage still accumulates
  // at the fp64 floor (the bandwidth win is in the value/factor loads).
  std::vector<Matrix> partials(static_cast<std::size_t>(nt));
  parallel_region(nt, [&](int t, int nteam) {
    const Range r = block_range(nnz, nteam, t);
    Matrix& Mt = partials[static_cast<std::size_t>(t)];
    Mt = Matrix(In, C);
    std::vector<double> row(static_cast<std::size_t>(C));
    for (index_t k = r.begin; k < r.end; ++k) {
      // row = x * (*)_{n != mode} U_n(i_n, :), then scatter-add into Mt.
      std::fill(row.begin(), row.end(), static_cast<double>(X.value(k)));
      for (index_t n = 0; n < N; ++n) {
        if (n == mode) continue;
        const MatrixT<T>& U = factors[static_cast<std::size_t>(n)];
        const T* base = U.data() + X.coord(n, k);
        for (index_t c = 0; c < C; ++c) {
          row[static_cast<std::size_t>(c)] *=
              static_cast<double>(base[c * U.ld()]);
        }
      }
      const index_t i = X.coord(mode, k);
      for (index_t c = 0; c < C; ++c) {
        Mt(i, c) += row[static_cast<std::size_t>(c)];
      }
    }
  });
  if constexpr (std::is_same_v<T, double>) {
    M.set_zero();
    for (const Matrix& Mt : partials) {
      blas::axpy(M.size(), 1.0, Mt.data(), index_t{1}, M.data(), index_t{1});
    }
  } else {
    // Reduce in double, round once on the store into the fp32 output.
    Matrix acc(In, C);
    for (const Matrix& Mt : partials) {
      blas::axpy(acc.size(), 1.0, Mt.data(), index_t{1}, acc.data(),
                 index_t{1});
    }
    const double* src = acc.data();
    T* dst = M.data();
    for (index_t l = 0; l < M.size(); ++l) {
      dst[static_cast<std::size_t>(l)] =
          static_cast<T>(src[static_cast<std::size_t>(l)]);
    }
  }
}

template void mttkrp<double>(const SparseTensorT<double>&,
                             std::span<const MatrixT<double>>, index_t,
                             MatrixT<double>&, int);
template void mttkrp<float>(const SparseTensorT<float>&,
                            std::span<const MatrixT<float>>, index_t,
                            MatrixT<float>&, int);

template <typename T>
CpAlsResultT<T> cp_als(const SparseTensorT<T>& X,
                       const CpAlsOptionsT<T>& opts) {
  const index_t N = X.order();
  const index_t C = opts.rank;
  DMTK_CHECK(N >= 2, "sparse cp_als: tensor must have at least 2 modes");
  DMTK_CHECK(C >= 1, "sparse cp_als: rank must be positive");

  // Execution context: caller-supplied (shared arena) or private — the
  // same contract as the dense drivers.
  std::optional<ExecContext> own_ctx;
  const ExecContext& ctx =
      opts.exec != nullptr ? *opts.exec : own_ctx.emplace(opts.threads);

  // One sweep plan for the whole factorization: CSF construction (sort +
  // additive duplicate merge + fiber compression) or the COO workspace
  // layout happens here, once; the sweeps below run heap-free.
  CpAlsSweepPlanT<T> sweep(ctx, X, C, opts.sweep_scheme);

  CpAlsResultT<T> result;
  detail::init_model(X, opts, "sparse cp_als", result.model);
  detail::run_als_sweeps(
      X, opts, ctx, sweep, result,
      detail::exact_solve_update(result.model, ctx.threads()));
  return result;
}

template CpAlsResultT<double> cp_als<double>(const SparseTensorT<double>&,
                                             const CpAlsOptionsT<double>&);
template CpAlsResultT<float> cp_als<float>(const SparseTensorT<float>&,
                                           const CpAlsOptionsT<float>&);

}  // namespace dmtk::sparse
