#include "baseline/ttb_cp_als.hpp"

#include "core/mttkrp.hpp"

namespace dmtk::baseline {

void ttb_mttkrp(const Tensor& X, std::span<const Matrix> factors, index_t mode,
                Matrix& M, int threads) {
  // The Tensor-Toolbox kernel IS the library's Reorder method (explicit
  // matricization + column-wise KRP + one GEMM, parallelism only inside
  // the BLAS call); route through the shared one-shot wrapper.
  mttkrp(X, factors, mode, M, MttkrpMethod::Reorder, threads);
}

CpAlsResult ttb_cp_als(const Tensor& X, const CpAlsOptions& opts) {
  // Same ALS driver — the shared sweep loop of cp_als_detail.hpp — with
  // the sweep plan pinned to the PerMode scheme and every per-mode plan to
  // the Reorder kernel, so per-iteration time differences against cp_als
  // measure the MTTKRP kernels alone.
  CpAlsOptions baseline_opts = opts;
  baseline_opts.method = MttkrpMethod::Reorder;
  baseline_opts.sweep_scheme = SweepScheme::PerMode;
  return cp_als(X, baseline_opts);
}

}  // namespace dmtk::baseline
