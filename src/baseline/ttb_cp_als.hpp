#pragma once
/// \file ttb_cp_als.hpp
/// \brief Tensor-Toolbox-style comparator (Section 5.3.3's "Matlab"
/// baseline), implemented in C++ so the comparison isolates the algorithm
/// rather than the language: per mode it (1) explicitly matricizes the
/// tensor (a permute that physically reorders every entry, like Matlab's
/// permute+reshape inside ttm/mttkrp), (2) forms the full Khatri-Rao product
/// column-wise (like khatrirao.m), and (3) multiplies with one GEMM. As in
/// Matlab, the ONLY parallelism is whatever lives inside the BLAS call —
/// there is no algorithm-level threading to exploit the tensor structure.

#include "core/cp_als.hpp"
#include "core/matrix.hpp"
#include "core/tensor.hpp"

namespace dmtk::baseline {

/// One Tensor-Toolbox-style MTTKRP: explicit matricization + explicit
/// column-wise KRP + single GEMM. One-shot wrapper over an
/// MttkrpMethod::Reorder plan (see exec/mttkrp_plan.hpp).
void ttb_mttkrp(const Tensor& X, std::span<const Matrix> factors, index_t mode,
                Matrix& M, int threads = 0);

/// CP-ALS with every per-mode MttkrpPlan pinned to the Reorder kernel;
/// otherwise identical to dmtk::cp_als (same initialization, normalization,
/// solve, and stopping rule), so per-iteration time differences measure the
/// MTTKRP kernels. Honors opts.exec like cp_als.
CpAlsResult ttb_cp_als(const Tensor& X, const CpAlsOptions& opts);

}  // namespace dmtk::baseline
