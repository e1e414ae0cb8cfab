#pragma once
/// \file mttkrp.hpp
/// \brief The matricized-tensor times Khatri-Rao product:
///   M = X(n) * (U_{N-1} (.) ... (.) U_{n+1} (.) U_{n-1} (.) ... (.) U_0),
/// the computational bottleneck of CP decompositions (Section 2.3).
///
/// Six implementations are provided:
///  - Reference: element-wise loops, O(I*N*C). Testing oracle only.
///  - Reorder:   explicit matricization (tensor permute) + explicit
///               column-wise KRP + one GEMM — the straightforward approach
///               of Bader & Kolda that the paper's algorithms aim to beat;
///               also the kernel inside the Tensor-Toolbox-style baseline.
///  - OneStepSeq: Algorithm 2 — full KRP, then a block inner product over
///               the natural row-major blocks of X(n); no reordering.
///  - OneStep:   Algorithm 3 — parallel 1-step; external modes split the
///               columns of X(n) across threads (each thread forms its own
///               KRP rows), internal modes split the I_Rn natural blocks
///               (left KRP precomputed, right KRP formed row-by-row);
///               thread-private outputs + parallel reduction.
///  - TwoStep:   Algorithm 4 (Phan et al.) — one large GEMM (partial MTTKRP
///               with the left or right partial KRP, whichever minimizes
///               second-step work) followed by a multi-TTV. Parallelism
///               lives inside the BLAS calls.
///  - Auto:      the mode's root-to-leaf path through the dense
///               dimension tree (exec/dim_tree.hpp): the 1-step kernel
///               alone when the tree holds the mode alone under its root
///               (mode 0 or N-1), else one full-tensor GEMM of X in place
///               at the balanced split — the 2-step's partial MTTKRP on
///               the multi-mode matricization — plus small batched
///               contractions. Bitwise what a DimTree sweep serves.
///  - Acc64:     full KRP, then a direct row-owned inner product with one
///               fp64 accumulator per output row, rounded once on the
///               store: fp32 storage with fp64 sums (the dense analogue of
///               the sparse kernels' accumulation). Deterministic across
///               thread counts, but its fp64 loop skips the blocked GEMM.
///
/// The kernels themselves live behind the plan API of exec/mttkrp_plan.hpp
/// (dispatch, thread partitions, and workspace are precomputed once and
/// reused across ALS sweeps). The free functions below are thin ONE-SHOT
/// wrappers that build a transient plan per call — fine for tests and
/// occasional calls; hot loops should hold an ExecContext and an
/// MttkrpPlan per mode instead. Neither records time: a caller that wants
/// one wraps the call in a WallTimer (util/timer.hpp).

#include <optional>
#include <span>
#include <string_view>
#include <type_traits>

#include "core/matrix.hpp"
#include "core/tensor.hpp"
#include "util/common.hpp"

namespace dmtk {

enum class MttkrpMethod {
  Reference,
  Reorder,
  OneStepSeq,
  OneStep,
  TwoStep,
  Auto,
  Acc64,  ///< appended: enumerator values feed checkpoint options hashes
};

/// Human-readable method name (for logs and benchmark tables).
std::string_view to_string(MttkrpMethod m);

/// Inverse of to_string: parse a method name ("reference", "reorder",
/// "1-step-seq", "1-step", "2-step", "auto", "acc64"). Returns nullopt for
/// unknown names — the single parser shared by the CLI and the server.
std::optional<MttkrpMethod> parse_mttkrp_method(std::string_view name);

/// Compute the mode-n MTTKRP of X against the factor matrices. `factors`
/// must hold one matrix per mode (factors[mode] is ignored but must have
/// conforming column count). M is resized/overwritten to I_n x C.
///
/// One-shot wrapper: builds a transient MttkrpPlan (allocating its
/// workspace) per call. Loops should build the plan once and execute() it.
/// The scalar type is deduced from X (the span parameter is a non-deduced
/// context so containers still convert implicitly).
template <typename T>
void mttkrp(const TensorT<T>& X,
            std::span<const MatrixT<std::type_identity_t<T>>> factors,
            index_t mode, MatrixT<T>& M,
            MttkrpMethod method = MttkrpMethod::Auto, int threads = 0);

/// Convenience overload returning the result.
template <typename T>
MatrixT<T> mttkrp(const TensorT<T>& X,
                  std::span<const MatrixT<std::type_identity_t<T>>> factors,
                  index_t mode, MttkrpMethod method = MttkrpMethod::Auto,
                  int threads = 0);

extern template void mttkrp<double>(const Tensor&, std::span<const Matrix>,
                                    index_t, Matrix&, MttkrpMethod, int);
extern template void mttkrp<float>(const TensorF&, std::span<const MatrixF>,
                                   index_t, MatrixF&, MttkrpMethod, int);
extern template Matrix mttkrp<double>(const Tensor&, std::span<const Matrix>,
                                      index_t, MttkrpMethod, int);
extern template MatrixF mttkrp<float>(const TensorF&, std::span<const MatrixF>,
                                      index_t, MttkrpMethod, int);

/// One-shot MttkrpMethod::Acc64 on fp32 storage: fp32 operands, fp64
/// per-entry sums, one rounding on the store. CP-ALS runs it per sweep
/// through `opts.method = MttkrpMethod::Acc64` (CLI: `--method acc64`).
void mttkrp_acc64(const TensorF& X, std::span<const MatrixF> factors,
                  index_t mode, MatrixF& M, int threads = 0);

/// True when the 2-step algorithm is distinct from the 1-step one for this
/// mode (internal modes of tensors with N >= 3).
bool twostep_is_defined(index_t order, index_t mode);

}  // namespace dmtk
