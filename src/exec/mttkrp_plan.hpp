#pragma once
/// \file mttkrp_plan.hpp
/// \brief FFTW-style reusable MTTKRP plan.
///
/// A plan is built once per (tensor shape, rank, mode, method) against an
/// ExecContext and then executed once per ALS sweep. Construction does all
/// the work that does not depend on tensor/factor VALUES:
///   - method dispatch and the 2-step side selection (left vs right
///     partial MTTKRP, Alg. 4's heuristic);
///   - the thread partition geometry (per-thread KRP row blocks, the
///     I_Rn natural-block split of internal modes);
///   - the complete workspace layout: full/partial transposed-KRP buffers,
///     packed factor panels, partial-Hadamard reuse tables, thread-private
///     outputs, reorder scratch — sized, cache-line aligned, and reserved
///     in the context's arena up front.
///
/// execute() then draws every large buffer from the arena frame opened for
/// the call; the small index scratch lives in the plan itself. The
/// paper's methods (OneStep/TwoStep), the Auto tree path and
/// the fp64-accumulate Acc64 kernel run fully heap-free after construction —
/// INCLUDING the BLAS layer: every gemm/gemm_batched call receives a
/// GemmWorkspace carved from the same arena frame, so the packing panels
/// of the blocked kernel never touch the heap either (the arena
/// instrumentation plus blas::gemm_internal_allocs() verify this in the
/// tests). The Reorder comparator and the Reference oracle keep their
/// O(tensor) buffers in the arena too but may use transient O(N) index
/// scratch inside matricize_into.
///
/// Auto runs the mode's root-to-leaf path through the dense dimension
/// tree of exec/dim_tree.hpp, the same tree a DimTree sweep drives: every
/// node on the path is evaluated on each execute(), with no reuse across
/// calls. A mode the tree holds alone under the root (a depth-0 leaf,
/// always mode 0 or N-1) is the external-mode 1-step kernel alone; any
/// other mode is one full-tensor GEMM of X in place at the balanced split
/// (the 2-step's partial MTTKRP, but against the multi-mode matricization)
/// followed by small batched contractions. So an Auto plan gives the same
/// bits as a DimTree sweep's mode_mttkrp on unchanged factors, and needs
/// no per-thread KRP of the full co-space.
///
/// External-mode 1-step (modes 0 and N-1) runs the kernel of
/// exec/onestep_external.hpp, which the dimension tree's depth-0 leaves
/// share.
///
/// Internal-mode 1-step executes its per-block multiplies (Alg 3 line 16)
/// as ONE gemm_batched sweep: the per-block KRP tiles are materialized in
/// parallel from the shared left KRP, then the IRn sub-cutoff GEMMs run
/// collaboratively instead of as a per-thread sequence — when IRn is
/// smaller than the team, the batched kernel splits block rows so no
/// thread idles.
///
/// The plan computes and records nothing else: callers that want a phase
/// time wrap execute() from outside. The one-shot free function of
/// core/mttkrp.hpp is a thin wrapper that builds a transient plan.
///
/// The whole plan is templated on the scalar type: MttkrpPlanT<float>
/// halves the bytes of every matricized pass and KRP, which is the paper's
/// bandwidth economy (`MttkrpPlan` = the double instantiation). All
/// workspace offsets are in elements of T; the arena allocation is the
/// byte-sized typed carve-out of exec_context.hpp.

#include <optional>
#include <span>
#include <vector>

#include "core/krp.hpp"
#include "core/krp_detail.hpp"
#include "core/matrix.hpp"
#include "core/mttkrp.hpp"
#include "core/tensor.hpp"
#include "exec/dim_tree.hpp"
#include "exec/exec_context.hpp"
#include "exec/onestep_external.hpp"

namespace dmtk {

template <typename T>
class MttkrpPlanT {
 public:
  using scalar_type = T;

  /// Plan the mode-`mode` MTTKRP of a tensor with extents `dims` against
  /// rank-`rank` factors. The context reference is retained; it must
  /// outlive the plan.
  MttkrpPlanT(const ExecContext& ctx, std::span<const index_t> dims,
              index_t rank, index_t mode,
              MttkrpMethod method = MttkrpMethod::Auto);

  /// Run the planned MTTKRP: M = X(mode) * KRP(factors except mode).
  /// X must have the planned extents and `factors` one conforming matrix
  /// per mode. M is resized on shape mismatch (allocation-free when the
  /// caller keeps it across calls, the ALS pattern).
  void execute(const TensorT<T>& X, std::span<const MatrixT<T>> factors,
               MatrixT<T>& M);

  [[nodiscard]] std::span<const index_t> dims() const { return dims_; }
  [[nodiscard]] index_t rank() const { return rank_; }
  [[nodiscard]] index_t mode() const { return mode_; }
  [[nodiscard]] int threads() const { return nt_; }
  /// The method the caller asked for (possibly Auto).
  [[nodiscard]] MttkrpMethod requested_method() const { return requested_; }
  /// What execute() will actually run (never Auto). An Auto plan reports
  /// OneStep when the mode is a depth-0 leaf of the tree (the shared
  /// kernel, bitwise the named OneStep plan) and TwoStep otherwise.
  [[nodiscard]] MttkrpMethod resolved_method() const { return resolved_; }
  /// 2-step side decision: true = the left group is contracted first. For
  /// TwoStep, Alg. 4's rule, iff I_Ln > I_Rn (meaningful on an internal
  /// mode); for Auto, whether the tree's full-tensor GEMM contracts the
  /// left group (the mode lies in the root's right group).
  [[nodiscard]] bool uses_left() const { return twostep_left_; }
  /// Arena bytes one execute() draws (already reserved in the context).
  [[nodiscard]] std::size_t workspace_bytes() const {
    return ws_elems_ * sizeof(T);
  }

 private:
  // Value-independent description of one KRP factor list: extents in
  // product order, plus the workspace offsets of its packed panels and the
  // per-thread partial-Hadamard reuse tables.
  struct KrpLayout {
    std::vector<index_t> extents;          // J_z of each factor, product order
    std::vector<std::size_t> packed_off;   // per-factor packed panel offset
    index_t rows = 1;                      // prod J_z
    bool empty() const { return extents.empty(); }
  };

  void plan_workspace();

  // Which KRP factor list to gather from the current factors.
  enum class List { Full, Left, Right };

  // Fill `fl` (preallocated) with current-factor pointers per layout order.
  void gather_factors(std::span<const MatrixT<T>> factors, List which,
                      FactorListT<T>& fl) const;

  // Pack the factor list transposed (C x J_z panels) into the workspace.
  void pack(const FactorListT<T>& fl, const KrpLayout& lay, T* base,
            std::vector<const T*>& packed) const;

  // Parallel transposed-KRP generation into ws block `off` (C x rows) from
  // already-packed panels.
  void krp_transposed_ws(const KrpLayout& lay,
                         std::span<const T* const> packed, T* base,
                         std::size_t off);

  // Method bodies (mirror the algorithms of core/mttkrp.cpp).
  void exec_reference(const TensorT<T>& X, std::span<const MatrixT<T>> factors,
                      MatrixT<T>& M);
  void exec_reorder(const TensorT<T>& X, std::span<const MatrixT<T>> factors,
                    MatrixT<T>& M, T* base);
  void exec_onestep_internal(const TensorT<T>& X,
                             std::span<const MatrixT<T>> factors,
                             MatrixT<T>& M, T* base);
  void exec_twostep(const TensorT<T>& X, std::span<const MatrixT<T>> factors,
                    MatrixT<T>& M, T* base);
  void exec_acc64(const TensorT<T>& X, std::span<const MatrixT<T>> factors,
                  MatrixT<T>& M, T* base);

  const ExecContext* ctx_;
  std::vector<index_t> dims_;
  index_t rank_ = 0;
  index_t mode_ = 0;
  index_t In_ = 0;       // I_n
  index_t ILn_ = 0;      // prod of modes left of n
  index_t IRn_ = 0;      // prod of modes right of n
  index_t cosize_ = 0;   // I / I_n
  MttkrpMethod requested_ = MttkrpMethod::Auto;
  MttkrpMethod resolved_ = MttkrpMethod::Auto;
  bool twostep_left_ = false;
  int nt_ = 1;

  // KRP factor-list layouts (which ones are populated depends on the
  // resolved method).
  KrpLayout full_;   // all modes but n, mode 0 fastest
  KrpLayout left_;   // modes n-1..0 (K_L)
  KrpLayout right_;  // modes N-1..n+1 (K_R)

  // Workspace offsets (elements of T from the frame base).
  std::size_t ws_elems_ = 0;
  std::size_t off_kt_full_ = 0;      // C x cosize transposed full KRP
  std::size_t off_klt_ = 0;          // C x ILn transposed left partial KRP
  std::size_t off_krt_ = 0;          // C x IRn transposed right partial KRP
  std::size_t off_partials_ = 0;     // nt thread-private In x C outputs
  std::size_t stride_partial_ = 0;
  std::size_t off_thread_p_ = 0;     // per-thread partial-Hadamard table
  std::size_t stride_thread_p_ = 0;
  std::size_t off_thread_row_ = 0;   // per-thread right-KRP row (C)
  std::size_t stride_thread_row_ = 0;
  std::size_t off_thread_acc_ = 0;   // Acc64: per-thread C fp64 sums
  std::size_t stride_thread_acc_ = 0;
  std::size_t off_inter_ = 0;        // 2-step first-step intermediate
  std::size_t off_xn_ = 0;           // Reorder: explicit matricization
  std::size_t off_kcol_ = 0;         // Reorder: column-wise KRP (J x C)
  std::size_t off_acc_ = 0;          // Reorder: two Kronecker accumulators
  std::size_t off_gemm_ws_ = 0;      // BLAS packing workspace block
  std::size_t gemm_ws_elems_ = 0;    // its size

  // OneStep on an external mode runs the shared Alg. 3 kernel.
  std::optional<OneStepExternalT<T>> external_;
  // Auto runs the mode's path through the dimension tree.
  std::optional<DimTreeT<T>> tree_;

  // Small preallocated scratch so execute() itself never allocates.
  FactorListT<T> fl_full_;
  FactorListT<T> fl_left_;
  FactorListT<T> fl_right_;
  std::vector<const T*> packed_full_;
  std::vector<const T*> packed_left_;
  std::vector<const T*> packed_right_;
  std::vector<const T*> batch_a_;  // internal-mode batched-GEMM items:
  std::vector<const T*> batch_b_;  // X(n) block / KRP tile / partial
  std::vector<T*> batch_c_;        // per item (size I_Rn)
  detail::BlockDigits digits_;       // nt blocks of N mixed-radix digits
  std::vector<index_t> ref_idx_;     // Reference-method multi-index
};

extern template class MttkrpPlanT<double>;
extern template class MttkrpPlanT<float>;

/// The library's default (double) plan and its fp32 sibling.
using MttkrpPlan = MttkrpPlanT<double>;
using MttkrpPlanF = MttkrpPlanT<float>;

}  // namespace dmtk
