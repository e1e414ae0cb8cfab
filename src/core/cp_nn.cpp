#include "core/cp_nn.hpp"

#include <algorithm>
#include <cmath>
#include <optional>
#include <type_traits>

#include "blas/blas.hpp"
#include "core/cp_als_detail.hpp"
#include "exec/sweep_plan.hpp"

namespace dmtk {

namespace {

/// One HALS pass over the columns of U (exact coordinate descent):
/// U(:, c) <- max(0, U(:, c) + (M(:, c) - U H(:, c)) / H(c, c)).
template <typename T>
void hals_update(MatrixT<T>& U, const MatrixT<T>& M, const MatrixT<T>& H,
                 std::vector<T>& g) {
  // The pivot floor scales with the scalar: 1e-12 sits well below any
  // meaningful double Gram diagonal but underflows the float update (the
  // division would overflow to Inf); fp32 uses an epsilon-scale guard.
  constexpr T kPivotFloor = std::is_same_v<T, float> ? T(1e-6) : T(1e-12);
  const index_t rows = U.rows();
  const index_t C = U.cols();
  for (index_t c = 0; c < C; ++c) {
    // g = M(:,c) - U H(:,c), using the CURRENT U (columns < c already new).
    blas::copy(rows, M.col(c).data(), index_t{1}, g.data(), index_t{1});
    blas::gemv(blas::Layout::ColMajor, blas::Trans::NoTrans, rows, C, T{-1},
               U.data(), U.ld(), H.col(c).data(), index_t{1}, T{1}, g.data(),
               index_t{1}, /*threads=*/1);
    const T hcc = std::max(H(c, c), kPivotFloor);
    T* u = U.col(c).data();
    bool all_zero = true;
    for (index_t i = 0; i < rows; ++i) {
      u[i] = std::max(T{0}, u[i] + g[static_cast<std::size_t>(i)] / hcc);
      if (u[i] != T{0}) all_zero = false;
    }
    // A dead component would zero its Gram row and stall every later
    // update; revive it with a tiny uniform value (standard HALS guard).
    if (all_zero) {
      for (index_t i = 0; i < rows; ++i) u[i] = T(1e-10);
    }
  }
}

}  // namespace

template <typename T>
CpAlsResultT<T> cp_nnhals(const TensorT<T>& X, const CpAlsOptionsT<T>& opts) {
  const index_t N = X.order();
  const index_t C = opts.rank;
  DMTK_CHECK(N >= 2, "cp_nnhals: tensor must have at least 2 modes");
  DMTK_CHECK(C >= 1, "cp_nnhals: rank must be positive");

  // Execution context + the shared sweep plan (see cp_als.cpp).
  std::optional<ExecContext> own_ctx;
  const ExecContext& ctx =
      opts.exec != nullptr ? *opts.exec : own_ctx.emplace(opts.threads);
  CpAlsSweepPlanT<T> sweep(ctx, X.dims(), C, opts.sweep_scheme, opts.method);

  CpAlsResultT<T> result;
  KtensorT<T>& model = result.model;
  detail::init_model(X, opts, "cp_nnhals", model);
  if (opts.initial_guess != nullptr) {
    for (const MatrixT<T>& U : model.factors) {
      for (T v : U.span()) {
        DMTK_CHECK(v >= T{0}, "cp_nnhals: initial guess must be nonnegative");
      }
    }
    // HALS keeps the component scale inside the factors (the incremental
    // column updates are not scale-invariant the way the exact ALS solve
    // is): fold any lambda of the warm start into the last factor.
    MatrixT<T>& Ulast = model.factors.back();
    for (index_t c = 0; c < C; ++c) {
      blas::scal(Ulast.rows(), model.lambda[static_cast<std::size_t>(c)],
                 Ulast.col(c).data(), index_t{1});
    }
  }
  model.lambda.assign(static_cast<std::size_t>(C), T{1});

  index_t max_rows = 0;
  for (index_t n = 0; n < N; ++n) max_rows = std::max(max_rows, X.dim(n));
  std::vector<T> hals_scratch(static_cast<std::size_t>(max_rows));

  detail::run_als_sweeps(
      X, opts, ctx, sweep, result,
      [&](index_t n, MatrixT<T>& H, MatrixT<T>& M, int /*iter*/) {
        hals_update(model.factors[static_cast<std::size_t>(n)], M, H,
                    hals_scratch);
      });
  return result;
}

template CpAlsResult cp_nnhals<double>(const Tensor&, const CpAlsOptions&);
template CpAlsResultF cp_nnhals<float>(const TensorF&, const CpAlsOptionsF&);

}  // namespace dmtk
