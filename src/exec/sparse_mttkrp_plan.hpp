#pragma once
/// \file sparse_mttkrp_plan.hpp
/// \brief Plan-based sparse MTTKRP: the sparse workload's entry into the
/// ExecContext/plan execution layer.
///
/// The COO module (sparse/sparse_tensor.hpp) was the one workload that
/// bypassed the plan layer entirely — per-call heap-allocated partials, no
/// arena, no sweep loop. A SparseMttkrpPlan does for sparse tensors what
/// MttkrpPlan does for dense ones: everything value-independent happens at
/// construction, execute() is allocation-free from the context's arena.
///
/// Two kernels share the plan:
///
///  - Csf (default): one mode-rooted CSF tree per mode (sparse/csf.hpp),
///    built at construction — sort, additive duplicate merge, and fiber
///    compression are plan-time costs amortized over the ALS sweeps.
///    With the target mode at the root each root node owns one output row,
///    so the precomputed per-thread root tiles write disjoint rows of M
///    and no private outputs are needed; per-thread scratch is just
///    order x rank fp64 accumulators from the arena.
///
///  - Coo: the SPLATT-style per-nonzero kernel (one fused Hadamard-
///    accumulate per nonzero), with the thread-private I_n x C
///    accumulators and the per-thread Hadamard row carved from the arena
///    instead of heap-allocated per call. Bitwise-identical arithmetic to
///    the free sparse::mttkrp at equal thread counts — the anchor that
///    ties the plan layer to the retired ad-hoc driver.
///
/// The plan is templated on the storage scalar like the dense MttkrpPlanT;
/// `SparseMttkrpPlan` / `SparseMttkrpPlanF` alias the double and float
/// instantiations. Both kernels keep their accumulators in fp64 regardless
/// of T — the fp32 plan halves the value/factor bytes streamed per nonzero
/// (the bandwidth-bound part) while the per-row sums stay at the fp64
/// floor, rounding once on the output store.
///
/// The plan BINDS the tensor at construction: the CSF copies snapshot X's
/// values then, and the COO kernel reads the bound tensor live, so X must
/// outlive the plan and must not be mutated between construction and the
/// last execute(). (Factor matrices, as everywhere in the plan layer, are
/// read at call time.)

#include <span>
#include <vector>

#include "core/matrix.hpp"
#include "exec/exec_context.hpp"
#include "sparse/csf.hpp"
#include "sparse/sparse_tensor.hpp"

namespace dmtk {

/// Kernel selection for SparseMttkrpPlan. Auto resolves to Csf (the
/// fiber-sharing kernel); Coo is kept as the plan-layer form of the
/// original per-nonzero kernel for ablations and equivalence anchors.
enum class SparseMttkrpKernel { Auto, Csf, Coo };

template <typename T>
class SparseMttkrpPlanT {
 public:
  /// Plan all N per-mode MTTKRPs of X at rank `rank`. Context and tensor
  /// references are retained; both must outlive the plan.
  SparseMttkrpPlanT(const ExecContext& ctx, const sparse::SparseTensorT<T>& X,
                    index_t rank,
                    SparseMttkrpKernel kernel = SparseMttkrpKernel::Auto);

  /// Run the planned mode-`mode` MTTKRP of the bound tensor against
  /// `factors` into M (resized on shape mismatch; allocation-free when the
  /// caller keeps M across calls, the ALS pattern).
  void execute(index_t mode, std::span<const MatrixT<T>> factors,
               MatrixT<T>& M);

  [[nodiscard]] std::span<const index_t> dims() const { return dims_; }
  [[nodiscard]] index_t rank() const { return rank_; }
  /// Nonzeros of the bound tensor (before duplicate merging).
  [[nodiscard]] index_t nnz() const { return nnz_; }
  [[nodiscard]] int threads() const { return nt_; }
  /// The kernel the caller asked for (possibly Auto).
  [[nodiscard]] SparseMttkrpKernel requested_kernel() const {
    return requested_;
  }
  /// What execute() actually runs (never Auto).
  [[nodiscard]] SparseMttkrpKernel kernel() const { return kernel_; }
  /// Arena bytes one execute() draws (already reserved in the context).
  /// The workspace holds fp64 accumulators for either scalar.
  [[nodiscard]] std::size_t workspace_bytes() const {
    return ws_doubles_ * sizeof(double);
  }
  /// The tensor the plan was built against.
  [[nodiscard]] const sparse::SparseTensorT<T>& tensor() const { return *X_; }
  /// Csf kernel only: the mode-rooted CSF built for `mode` (tests and
  /// structure inspection).
  [[nodiscard]] const sparse::CsfTensorT<T>& csf(index_t mode) const;

 private:
  void exec_csf(index_t mode, std::span<const MatrixT<T>> factors,
                MatrixT<T>& M, double* base);
  void exec_coo(index_t mode, std::span<const MatrixT<T>> factors,
                MatrixT<T>& M, double* base);

  const ExecContext* ctx_;
  const sparse::SparseTensorT<T>* X_;
  std::vector<index_t> dims_;
  index_t rank_ = 0;
  index_t nnz_ = 0;
  int nt_ = 1;
  SparseMttkrpKernel requested_ = SparseMttkrpKernel::Auto;
  SparseMttkrpKernel kernel_ = SparseMttkrpKernel::Csf;

  // Csf state: per-mode trees and the per-thread root tiles.
  std::vector<sparse::CsfTensorT<T>> csf_;
  std::vector<std::vector<Range>> tiles_;  // [mode][thread]
  std::size_t stride_scratch_ = 0;         // per-thread CSF scratch

  // Coo state.
  std::size_t stride_partial_ = 0;  // per-thread In x C private output
  std::size_t off_row_ = 0;         // nt Hadamard rows after the partials
  std::size_t stride_row_ = 0;

  std::size_t ws_doubles_ = 0;  // fp64 accumulator slots, either scalar
};

extern template class SparseMttkrpPlanT<double>;
extern template class SparseMttkrpPlanT<float>;

/// The default (double) sparse plan and its fp32 sibling.
using SparseMttkrpPlan = SparseMttkrpPlanT<double>;
using SparseMttkrpPlanF = SparseMttkrpPlanT<float>;

}  // namespace dmtk
