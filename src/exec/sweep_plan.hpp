#pragma once
/// \file sweep_plan.hpp
/// \brief CP-ALS sweep planner: one execution path for every driver.
///
/// An ALS sweep updates the N factors in mode order; each update needs the
/// mode's MTTKRP against the CURRENT factors (modes < n already new, modes
/// > n still old). A CpAlsSweepPlan is built once per (shape, rank, scheme)
/// against an ExecContext and then serves one MTTKRP per mode per sweep,
/// allocation-free from the context's arena. Dense tensors pick between
/// PerMode and DimTree; sparse tensors (the second constructor) run the
/// SparseCsf / SparseCoo schemes through a SparseMttkrpPlan
/// (exec/sparse_mttkrp_plan.hpp) behind the same begin_sweep/mode_mttkrp
/// protocol, which is what lets detail::run_als_sweeps drive sparse
/// CP-ALS through the exact same sweep loop. The dense schemes:
///
///  - PerMode: N independent MttkrpPlans (the paper's per-mode kernels,
///    Algorithms 2-4). Every mode pays one pass over the full tensor. With
///    no method named, each mode runs the paper's CP-ALS policy: 1-step on
///    the external modes, 2-step on the internal ones.
///
///  - DimTree: the dense dimension tree of exec/dim_tree.hpp, driven
///    lazily under the in-order mode discipline (enforced), which is what
///    makes its shared intermediates exact ALS. The tree touches all I
///    tensor entries twice per sweep instead of N times. README, "Sweep
///    schemes", has the measured sweep times against PerMode.
///
/// Sweep protocol (drivers in core/ follow it through
/// detail::run_als_sweeps):
///
///   plan.begin_sweep(X);
///   for (n = 0; n < N; ++n) {
///     plan.mode_mttkrp(n, X, model.factors, M);   // in order, exactly once
///     ...update factor n in place...
///   }
///
/// The arena frame backing the tree's intermediates opens in begin_sweep()
/// and closes after mode N-1 is served, so the arena reads as empty
/// between sweeps. Do not construct other plans against the same context
/// in the middle of a sweep (reserve() would invalidate the frame).
///
/// Templated on the scalar type like MttkrpPlan (`CpAlsSweepPlan` = the
/// double instantiation). The sparse schemes follow the scalar too: a
/// CpAlsSweepPlanF built on a SparseTensorF runs the fp32 CSF/COO kernels
/// (fp64 accumulators, half the streamed bytes per nonzero).

#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "core/matrix.hpp"
#include "core/mttkrp.hpp"
#include "core/tensor.hpp"
#include "exec/dim_tree.hpp"
#include "exec/exec_context.hpp"
#include "exec/mttkrp_plan.hpp"

namespace dmtk {

namespace sparse {
template <typename U>
class SparseTensorT;
}  // namespace sparse
template <typename U>
class SparseMttkrpPlanT;

/// How a CP-ALS driver produces the per-mode MTTKRPs of a sweep. PerMode
/// and DimTree serve dense tensors; SparseCsf (the mode-rooted CSF kernel)
/// and SparseCoo (the per-nonzero kernel through the plan layer) serve
/// sparse ones — a plan built for one input kind rejects schemes of the
/// other, so a dense tensor is never silently run through a sparse kernel
/// or vice versa. Auto resolves per input kind (see resolve_sweep_scheme).
enum class SweepScheme { Auto, PerMode, DimTree, SparseCsf, SparseCoo };

[[nodiscard]] std::string_view to_string(SweepScheme s);

/// Parse "auto" | "permode" | "dimtree" | "csf" | "coo". Returns nullopt
/// for unknown names — shared by the CLI and the server.
[[nodiscard]] std::optional<SweepScheme> parse_sweep_scheme(
    std::string_view name);

/// What Auto runs on a DENSE tensor: the dimension tree, at every order.
/// The single source of truth for the resolution — the plan constructor,
/// the decompose job's validation and the CLI's report all go through it.
/// It never returns a sparse scheme: sparse input resolves Auto through
/// resolve_sparse_sweep_scheme below instead. An explicit (non-Auto)
/// MttkrpMethod pins PerMode under Auto, because the tree has its own
/// contraction kernels and would silently ignore the requested one.
[[nodiscard]] constexpr SweepScheme resolve_sweep_scheme(
    SweepScheme s, MttkrpMethod method = MttkrpMethod::Auto) {
  if (s != SweepScheme::Auto) return s;
  return method == MttkrpMethod::Auto ? SweepScheme::DimTree
                                      : SweepScheme::PerMode;
}

/// What Auto runs on a SPARSE tensor: the CSF kernel. Shared by the
/// sparse plan constructor and the CLI's sparse path.
[[nodiscard]] constexpr SweepScheme resolve_sparse_sweep_scheme(
    SweepScheme s) {
  return s == SweepScheme::Auto ? SweepScheme::SparseCsf : s;
}

/// A planned ALS sweep executor. Construction resolves the scheme, builds
/// the dimension tree (DimTree) or the per-mode MttkrpPlans (PerMode),
/// lays out every intermediate and scratch buffer, and reserves the
/// context arena once; sweeps then run heap-free.
template <typename T>
class CpAlsSweepPlanT {
 public:
  using scalar_type = T;

  /// Plan sweeps for a tensor with extents `dims` at rank `rank`. `method`
  /// selects the per-mode MTTKRP kernel (PerMode scheme only; the tree has
  /// its own contraction kernels). The context must outlive the plan.
  CpAlsSweepPlanT(const ExecContext& ctx, std::span<const index_t> dims,
                  index_t rank, SweepScheme scheme = SweepScheme::Auto,
                  MttkrpMethod method = MttkrpMethod::Auto);

  /// Plan sparse sweeps: Auto resolves to SparseCsf; only SparseCsf /
  /// SparseCoo are accepted (a dense scheme on sparse input throws, like a
  /// sparse scheme on the dense constructor). The SparseMttkrpPlan built
  /// here BINDS X — CSF construction happens now — so X must outlive the
  /// plan and keep its values (see exec/sparse_mttkrp_plan.hpp). Both
  /// scalars are supported: the float instantiation takes a SparseTensorF
  /// and runs the fp32 kernels with fp64 accumulation.
  CpAlsSweepPlanT(const ExecContext& ctx, const sparse::SparseTensorT<T>& X,
                  index_t rank, SweepScheme scheme = SweepScheme::Auto);

  ~CpAlsSweepPlanT();

  /// Start a sweep: marks every tree intermediate stale and opens the
  /// arena frame. X must have the planned extents.
  void begin_sweep(const TensorT<T>& X);

  /// Start a sweep over the bound sparse tensor; X must match the planned
  /// shape and nonzero count (sparse schemes only).
  void begin_sweep(const sparse::SparseTensorT<T>& X);

  /// Produce the mode-`n` MTTKRP into M (resized to I_n x C on mismatch).
  /// Modes must be requested in order 0..N-1, each exactly once per sweep
  /// — the discipline that makes the shared tree intermediates exact ALS.
  /// Factors are read at call time, so in-place updates between calls are
  /// what the plan expects.
  void mode_mttkrp(index_t n, const TensorT<T>& X,
                   std::span<const MatrixT<T>> factors, MatrixT<T>& M);

  /// Sparse-scheme form of mode_mttkrp (same in-order protocol).
  void mode_mttkrp(index_t n, const sparse::SparseTensorT<T>& X,
                   std::span<const MatrixT<T>> factors, MatrixT<T>& M);

  [[nodiscard]] std::span<const index_t> dims() const { return dims_; }
  [[nodiscard]] index_t rank() const { return rank_; }
  /// The context the plan was built against (and whose arena its sweeps
  /// draw from) — what lets a caller holding only the plan (e.g. a
  /// served batch) hand the right context back to the ALS driver.
  [[nodiscard]] const ExecContext& context() const { return *ctx_; }
  /// The scheme the caller asked for (possibly Auto).
  [[nodiscard]] SweepScheme requested_scheme() const { return requested_; }
  /// What the plan actually runs (never Auto).
  [[nodiscard]] SweepScheme scheme() const { return scheme_; }
  /// Arena bytes a DimTree sweep holds at its peak, the depth-0 leaves'
  /// 1-step workspace included (0 for PerMode, whose per-mode plans size
  /// their own frames; the sparse schemes report their SparseMttkrpPlan's
  /// per-execute footprint).
  [[nodiscard]] std::size_t workspace_bytes() const {
    return tree_ ? tree_->workspace_elems() * sizeof(T) : sparse_ws_bytes_;
  }

  /// True for the SparseCsf / SparseCoo schemes.
  [[nodiscard]] bool is_sparse() const {
    return scheme_ == SweepScheme::SparseCsf ||
           scheme_ == SweepScheme::SparseCoo;
  }
  /// Sparse schemes only: the underlying per-mode sparse plan.
  [[nodiscard]] const SparseMttkrpPlanT<T>& sparse_plan() const;

  /// The plan's nodes with their lifetime contraction counts.
  [[nodiscard]] std::span<const SweepNode> nodes() const {
    return tree_ ? tree_->nodes() : std::span<const SweepNode>(node_counts_);
  }

 private:
  const ExecContext* ctx_;
  std::vector<index_t> dims_;
  index_t rank_ = 0;
  SweepScheme requested_ = SweepScheme::Auto;
  SweepScheme scheme_ = SweepScheme::PerMode;

  /// Shared mode_mttkrp protocol: in-order discipline + factor checks;
  /// resizes M. Returns once the request is valid.
  void check_mode_request(index_t n, std::span<const MatrixT<T>> factors,
                          MatrixT<T>& M);
  /// Shared protocol bookkeeping after a mode is served.
  void finish_mode();

  // PerMode state.
  std::vector<MttkrpPlanT<T>> mode_plans_;

  // Sparse state (SparseCsf / SparseCoo; scalar follows the plan's T).
  std::unique_ptr<SparseMttkrpPlanT<T>> sparse_plan_;
  std::size_t sparse_ws_bytes_ = 0;

  // DimTree state: the tree and the arena frame of the current sweep.
  std::optional<DimTreeT<T>> tree_;
  std::optional<WorkspaceArena::Frame> frame_;

  // Sweep protocol state.
  bool sweep_active_ = false;
  index_t next_mode_ = 0;

  // PerMode and sparse node counts (one leaf per mode).
  std::vector<SweepNode> node_counts_;
};

extern template class CpAlsSweepPlanT<double>;
extern template class CpAlsSweepPlanT<float>;

using CpAlsSweepPlan = CpAlsSweepPlanT<double>;
using CpAlsSweepPlanF = CpAlsSweepPlanT<float>;

}  // namespace dmtk
