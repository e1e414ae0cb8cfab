/// \file quickstart.cpp
/// Five-minute tour of the dmtk public API:
///  1. build a dense tensor,
///  2. set up an ExecContext and run a reusable MttkrpPlan (and the
///     one-shot wrapper, for comparison),
///  3. compute a CP decomposition against the same context and inspect
///     the fit.
///
/// Build & run:  ./example_quickstart

#include <cstdio>

#include "dmtk.hpp"

int main() {
  using namespace dmtk;

  // --- 1. A dense 3-way tensor with a planted rank-4 structure. ----------
  Rng rng(2024);
  Ktensor truth = Ktensor::random(std::vector<index_t>{60, 50, 40}, 4, rng);
  Tensor X = truth.full();
  std::printf("tensor: %lld x %lld x %lld, %lld entries, ||X|| = %.3f\n",
              static_cast<long long>(X.dim(0)),
              static_cast<long long>(X.dim(1)),
              static_cast<long long>(X.dim(2)),
              static_cast<long long>(X.numel()), X.norm());

  // --- 2. MTTKRP: the kernel this library is about. ----------------------
  // An ExecContext pins the thread count and owns the workspace arena;
  // a MttkrpPlan is built once per (shape, rank, mode, method) and then
  // executes allocation-free — the ALS pattern. The plan keeps no clock:
  // to time a call, wrap it.
  ExecContext ctx;  // library-default threads
  std::vector<Matrix> factors;
  for (index_t n = 0; n < 3; ++n) {
    factors.push_back(Matrix::random_uniform(X.dim(n), 4, rng));
  }
  for (MttkrpMethod m : {MttkrpMethod::OneStep, MttkrpMethod::TwoStep,
                         MttkrpMethod::Reorder}) {
    MttkrpPlan plan(ctx, X.dims(), /*rank=*/4, /*mode=*/1, m);
    Matrix M(X.dim(1), 4);
    const WallTimer t;
    plan.execute(X, factors, M);  // reuse this call across sweeps
    const double ms = t.seconds() * 1e3;
    std::printf("mttkrp[%-8s] mode 1: ||M|| = %10.3f   %.3f ms\n",
                std::string(to_string(m)).c_str(), M.norm(), ms);
  }
  // One-shot wrapper, when you only need a single call: same kernels,
  // transient plan under the hood.
  Matrix M1 = mttkrp(X, factors, /*mode=*/1);
  std::printf("mttkrp one-shot (auto): ||M|| = %.3f\n", M1.norm());

  // --- 3. CP-ALS: recover the planted factors. ---------------------------
  // Passing the context lets the driver's per-mode plans share its arena.
  CpAlsOptions opts;
  opts.rank = 4;
  opts.max_iters = 100;
  opts.tol = 1e-8;
  opts.exec = &ctx;
  const CpAlsResult result = cp_als(X, opts);
  std::printf("cp_als: %d sweeps, fit = %.6f, converged = %s\n",
              result.iterations, result.final_fit,
              result.converged ? "yes" : "no");
  std::printf("factor match vs planted truth: %.4f (1.0 = perfect)\n",
              factor_match_score(result.model, truth));
  return 0;
}
