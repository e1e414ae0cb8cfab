#pragma once
/// \file cp_als_detail.hpp
/// \brief The shared CP-ALS execution path. Every driver (standard,
/// dimension-tree and nonnegative HALS) runs the same sweep loop —
/// run_als_sweeps below — which owns the Gram matrices, the per-mode
/// MTTKRP outputs, the fit bookkeeping, and the stopping rule, and
/// produces each mode's MTTKRP through a CpAlsSweepPlan. Drivers differ
/// only in the factor-update callback they pass in. Also here: Gram
/// computation, the TTB column normalization convention, the
/// factor-update solve, and the fit formula.
///
/// Everything is templated on the scalar type T (deduced from the options/
/// plan types), so the float and double CP-ALS pipelines are literally the
/// same code. Fit and timing bookkeeping stays double for either scalar.

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstring>
#include <string>
#include <type_traits>
#include <vector>

#include "blas/blas.hpp"
#include "core/cp_als.hpp"
#include "core/cp_model.hpp"
#include "core/matrix.hpp"
#include "core/tensor.hpp"
#include "exec/sweep_plan.hpp"
#include "io/checkpoint.hpp"
#include "linalg/spd_solve.hpp"
#include "util/timer.hpp"

namespace dmtk::detail {

/// G = U^T U.
template <typename T>
inline void gram(const MatrixT<T>& U, MatrixT<T>& G, int threads) {
  blas::syrk(blas::Trans::Trans, U.cols(), U.rows(), T{1}, U.data(), U.ld(),
             T{0}, G.data(), G.ld(), threads);
}

/// Normalize columns of U into lambda. First sweep uses the 2-norm;
/// subsequent sweeps use max(max_abs, 1) so established components stop
/// shrinking — the Tensor Toolbox convention.
template <typename T>
inline void normalize_update(MatrixT<T>& U, std::vector<T>& lambda,
                             bool first) {
  const index_t C = U.cols();
  for (index_t c = 0; c < C; ++c) {
    T nrm;
    if (first) {
      nrm = blas::nrm2(U.rows(), U.col(c).data(), index_t{1});
    } else {
      const index_t im = blas::iamax(U.rows(), U.col(c).data(), index_t{1});
      nrm = im >= 0 ? std::abs(U(im, c)) : T{0};
      nrm = std::max(nrm, T{1});
    }
    lambda[static_cast<std::size_t>(c)] = nrm;
    if (nrm > T{0}) {
      blas::scal(U.rows(), T{1} / nrm, U.col(c).data(), index_t{1});
    }
  }
}

/// Solve U = M H^dagger in place on M, where H is the Hadamard product of
/// the Gram matrices of all factors except the one being updated.
template <typename T>
inline void factor_solve(MatrixT<T>& H, MatrixT<T>& M, int threads) {
  linalg::spd_solve_right(H.cols(), H.data(), H.ld(), M.rows(), M.data(),
                          M.ld(), threads);
}

/// CP fit 1 - ||X - Y||_F / ||X||_F evaluated without materializing Y:
/// ||X - Y||^2 = ||X||^2 + ||Y||^2 - 2 <X, Y>, where <X, Y> =
/// sum_c lambda_c <Mlast(:, c), Ulast(:, c)> because Mlast is the final-mode
/// MTTKRP of X against the current factors. Both squared norms come from
/// the caller: ||X||^2 from the tensor (carried from its read), ||Y||^2 from
/// the Grams the sweep loop already keeps (norm_squared_from_grams).
/// Accuracy is limited to ~sqrt(eps) of the SCALAR type by the cancellation
/// of the O(||X||^2) terms — ~1e-8 for double, ~1e-3..1e-4 for float (the
/// fp32 fit is a fit-insensitive diagnostic, not a convergence-grade
/// residual).
template <typename T>
inline double cp_fit(double normX2, double normY2, const KtensorT<T>& model,
                     const MatrixT<T>& Mlast) {
  const index_t C = model.rank();
  const MatrixT<T>& Ulast = model.factors.back();
  double inner = 0.0;
  for (index_t c = 0; c < C; ++c) {
    inner += static_cast<double>(model.lambda_or_one(c)) *
             static_cast<double>(
                 blas::dot(Ulast.rows(), Mlast.col(c).data(), index_t{1},
                           Ulast.col(c).data(), index_t{1}));
  }
  const double residual2 = std::max(0.0, normX2 + normY2 - 2.0 * inner);
  const double normX = std::sqrt(normX2);
  if (normX > 0.0) return 1.0 - std::sqrt(residual2) / normX;
  // An all-zero tensor has no scale to normalize the residual by, so the
  // relative-fit formula is 0/0. Define the fit by what it measures: 1.0
  // when the model reproduces X exactly (zero residual — the natural ALS
  // outcome, since every MTTKRP of a zero tensor is zero), 0.0 for any
  // model with mass the tensor does not have (a warm start that was never
  // driven to zero must not report a perfect fit).
  return residual2 > 0.0 ? 0.0 : 1.0;
}

/// FNV-1a over the configuration that determines a sweep loop's
/// arithmetic — what a checkpoint must be bound to for a resume to be
/// bitwise-faithful. Included: scalar kind, tensor extents, rank, tol,
/// seed, fit flag, sweep scheme / method, and the resolved
/// thread count (parallel reductions change rounding with the team
/// size). Deliberately excluded: max_iters (resuming with a raised sweep
/// cap is the point of checkpointing) and checkpoint cadence/path (they
/// never touch the arithmetic).
template <typename T, typename XT>
std::uint64_t cp_als_options_hash(const XT& X, const CpAlsOptionsT<T>& opts,
                                  int threads) {
  std::uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xFFu;
      h *= 1099511628211ull;
    }
  };
  mix(std::is_same_v<T, float> ? 1 : 0);
  mix(static_cast<std::uint64_t>(X.order()));
  for (index_t d : X.dims()) mix(static_cast<std::uint64_t>(d));
  mix(static_cast<std::uint64_t>(opts.rank));
  std::uint64_t tol_bits = 0;
  std::memcpy(&tol_bits, &opts.tol, sizeof tol_bits);
  mix(tol_bits);
  mix(opts.seed);
  mix(opts.compute_fit ? 1 : 0);
  mix(static_cast<std::uint64_t>(opts.sweep_scheme));
  mix(static_cast<std::uint64_t>(opts.method));
  mix(0);  // the retired tree-depth cap, so earlier checkpoints still bind
  mix(static_cast<std::uint64_t>(threads));
  return h;
}

/// Initialize result.model from the warm start or the seed; shared
/// validation for every driver (`who` names the driver in error messages).
/// Works for any tensor type exposing order() and dims() — dense TensorT<T>
/// and sparse::SparseTensor alike.
template <typename T, typename XT>
void init_model(const XT& X, const CpAlsOptionsT<T>& opts,
                const char* who, KtensorT<T>& model) {
  const index_t N = X.order();
  const index_t C = opts.rank;
  if (opts.initial_guess != nullptr) {
    model = *opts.initial_guess;
    model.validate();
    DMTK_CHECK(model.rank() == C && model.order() == N,
               std::string(who) + ": initial guess shape mismatch");
    if (model.lambda.empty()) {
      model.lambda.assign(static_cast<std::size_t>(C), T{1});
    }
  } else {
    Rng rng(opts.seed);
    model = KtensorT<T>::random(X.dims(), C, rng);
  }
}

/// The single ALS sweep loop behind every driver — dense AND sparse: the
/// tensor type only has to expose order()/dim()/dims()/norm_squared(int)
/// and a matching CpAlsSweepPlan begin_sweep/mode_mttkrp overload, so a
/// sparse::SparseTensor runs the exact same grams/fit/stopping code as the
/// dense drivers.
/// `update_mode(n, H, M, iter)` must update result.model's factor n (and
/// lambda, if the driver normalizes) in place, given the Hadamard-of-Grams
/// system matrix H and the mode's MTTKRP M; the loop recomputes the Gram
/// matrix afterwards and owns fit evaluation and the stopping rule.
template <typename T, typename XT, typename UpdateFn>
void run_als_sweeps(const XT& X, const CpAlsOptionsT<T>& opts,
                    const ExecContext& ctx, CpAlsSweepPlanT<T>& sweep,
                    CpAlsResultT<T>& result, UpdateFn&& update_mode) {
  const index_t N = X.order();
  const index_t C = opts.rank;
  const int nt = ctx.threads();
  KtensorT<T>& model = result.model;
  const double normX2 = X.norm_squared(nt);

  // Checkpoint restore happens BEFORE the Gram matrices are built: the
  // grams (and everything else the loop owns) are recomputed from the
  // restored model, so the only state a checkpoint has to carry is
  // {model, fit_old, completed sweeps} — see io/checkpoint.hpp.
  double fit_old = 0.0;
  int start_iter = 0;
  const bool checkpointing = !opts.checkpoint_path.empty();
  const int checkpoint_every = std::max(1, opts.checkpoint_every);
  std::uint64_t opts_hash = 0;
  if (checkpointing) {
    opts_hash = cp_als_options_hash(X, opts, nt);
    if (opts.resume) {
      if (auto ck = io::try_read_checkpoint<T>(opts.checkpoint_path)) {
        if (ck->options_hash != opts_hash) {
          throw io::IoError("'" + opts.checkpoint_path +
                            "': checkpoint was written by a different run "
                            "configuration (options hash mismatch) — "
                            "refusing to resume");
        }
        if (ck->model.order() != N || ck->model.rank() != C) {
          throw io::IoError("'" + opts.checkpoint_path +
                            "': checkpoint model shape does not match the "
                            "tensor/rank of this run");
        }
        model = std::move(ck->model);
        fit_old = ck->fit_old;
        start_iter = static_cast<int>(std::min<std::uint64_t>(
            ck->completed_sweeps,
            static_cast<std::uint64_t>(std::max(0, opts.max_iters))));
        result.iterations = start_iter;
        result.resumed_sweeps = start_iter;
        result.final_fit = fit_old;
      }
    }
  }

  std::vector<MatrixT<T>> grams(static_cast<std::size_t>(N));
  for (index_t n = 0; n < N; ++n) {
    grams[static_cast<std::size_t>(n)] = MatrixT<T>(C, C);
    gram(model.factors[static_cast<std::size_t>(n)],
         grams[static_cast<std::size_t>(n)], nt);
  }

  // Per-mode MTTKRP outputs: exact-solve updates swap the solved output
  // into the model and leave the previous factor here (same shape), HALS
  // reads M in place — either way, steady-state sweeps never reallocate.
  std::vector<MatrixT<T>> Ms(static_cast<std::size_t>(N));
  for (index_t n = 0; n < N; ++n) {
    Ms[static_cast<std::size_t>(n)] = MatrixT<T>(X.dim(n), C);
  }
  // Pre-sized fit scratch: the final-mode MTTKRP is copied (not assigned)
  // into it, so fit sweeps stay allocation-free too.
  MatrixT<T> Mlast;
  if (opts.compute_fit) Mlast = MatrixT<T>(X.dim(N - 1), C);
  MatrixT<T> H(C, C);

  for (int iter = start_iter; iter < opts.max_iters; ++iter) {
    CpAlsIterStats stats;
    WallTimer sweep_timer;
    sweep.begin_sweep(X);

    for (index_t n = 0; n < N; ++n) {
      MatrixT<T>& M = Ms[static_cast<std::size_t>(n)];
      sweep.mode_mttkrp(n, X, model.factors, M);
      if (opts.compute_fit && n == N - 1) {
        std::copy(M.span().begin(), M.span().end(), Mlast.span().begin());
      }
      hadamard_of_grams_into(grams, n, H);
      update_mode(n, H, M, iter);
      gram(model.factors[static_cast<std::size_t>(n)],
           grams[static_cast<std::size_t>(n)], nt);
    }

    result.iterations = iter + 1;
    bool stop = false;
    if (opts.compute_fit) {
      // H is free once the modes are done: it takes the Hadamard of the
      // current Grams, in mode order, for ||Y||^2.
      hadamard_of_grams_into(grams, -1, H);
      const double fit =
          cp_fit(normX2, model.norm_squared_from_grams(H), model, Mlast);
      stats.fit = fit;
      result.final_fit = fit;
      if (!std::isfinite(fit)) {
        // The numeric guardrail: a NaN/Inf fit means the factors have
        // diverged; stop with a structured status instead of silently
        // iterating NaN arithmetic for the remaining sweeps.
        result.status = CpAlsStatus::Diverged;
        stop = true;
      } else if (iter > 0 && std::abs(fit - fit_old) < opts.tol) {
        result.converged = true;
        result.status = CpAlsStatus::Converged;
        stop = true;
      }
      fit_old = fit;
    }
    if (result.status != CpAlsStatus::Diverged) {
      // Lambda is the cheapest tell when the fit pass is off: every
      // normalization funnels the factors' scale through it.
      for (const T& l : model.lambda) {
        if (!std::isfinite(static_cast<double>(l))) {
          result.status = CpAlsStatus::Diverged;
          stop = true;
          break;
        }
      }
    }
    stats.seconds = sweep_timer.seconds();
    result.iters.push_back(stats);
    // Checkpoint after bookkeeping so a resume replays from exactly this
    // point; a diverged model is deliberately never checkpointed (the
    // previous good checkpoint stays the resume target).
    if (checkpointing && result.status != CpAlsStatus::Diverged &&
        (iter + 1) % checkpoint_every == 0) {
      io::CheckpointT<T> ck;
      ck.options_hash = opts_hash;
      ck.completed_sweeps = static_cast<std::uint64_t>(iter + 1);
      ck.fit_old = fit_old;
      ck.model = model;
      io::write_checkpoint(opts.checkpoint_path, ck);
    }
    if (stop) break;
  }
}

}  // namespace dmtk::detail
