#pragma once
/// \file onestep_external.hpp
/// \brief The paper's parallel 1-step MTTKRP for an external mode
/// (Algorithm 3, modes 0 and N-1), planned once and run from a caller's
/// workspace.
///
/// X(n) of an external mode is a plain column-major (mode 0) or row-major
/// (mode N-1) matrix, so the kernel needs no reordering. The nt planned
/// column blocks of X(n) (block_range) each run on one thread into a
/// private In x C partial, and the partials are summed in slot order
/// (reduce_partials). A block does not form its whole KRP slice up front,
/// as Alg. 3 writes it: that slice (C x I/(In nt) elements, 4 MB per block
/// at 282^3 f64 rank 25) would leave L2 and be read back from L3/DRAM once
/// per row block of the GEMM. Instead it walks its columns in pieces of
/// piece_rows() KRP rows, a C x P tile sized to stay in L2, and multiplies
/// each piece into the partial as soon as it is formed (beta = 0 for the
/// first piece, 1 after). At rank <= 64 a tail too short for the
/// rank-panel GEMM shape (k < 4C) joins the piece before it. Piece
/// boundaries depend only on (shape, rank, planned blocks, T), so the
/// output never depends on how many threads actually showed up.
///
/// Two callers run this one kernel: MttkrpPlanT (its OneStep method on an
/// external mode) and DimTreeT (a dimension-tree leaf at depth 0, which is
/// always mode 0 or N-1 — exactly this MTTKRP). Sharing it is what makes
/// the tree's depth-0 leaves bitwise equal to the named OneStep plan.

#include <cstddef>
#include <span>
#include <vector>

#include "core/krp.hpp"
#include "core/krp_detail.hpp"
#include "core/matrix.hpp"
#include "core/tensor.hpp"
#include "exec/exec_context.hpp"

namespace dmtk {

/// M = sum_p partials[p] for p in [0, planned), the slot-ordered
/// reduction of the 1-step kernels' thread-private In x C outputs
/// (`stride` elements apart), parallelized over M's entries.
template <typename T>
void reduce_partials(const T* partials, std::size_t stride, int planned,
                     MatrixT<T>& M);

template <typename T>
class OneStepExternalT {
 public:
  /// Plan the mode-`mode` MTTKRP (mode 0 or N-1) of a tensor with extents
  /// `dims` at rank `rank`, over ctx.threads() planned column blocks.
  OneStepExternalT(const ExecContext& ctx, std::span<const index_t> dims,
                   index_t rank, index_t mode);

  /// Elements of T one run() uses from its workspace base. A block's KRP
  /// tile holds one piece and a folded tail at most, so only the packed
  /// factor panels grow with the extents.
  [[nodiscard]] std::size_t workspace_elems() const { return ws_elems_; }
  /// KRP rows per piece, fixed by (rank, T): C * P * sizeof(T) is about
  /// 256 KiB.
  [[nodiscard]] index_t piece_rows() const { return piece_; }

  /// M (In x C, resized by the caller) = X(mode) * KRP(factors but mode).
  /// `base` is a line-aligned block of workspace_elems() elements.
  void run(const TensorT<T>& X, std::span<const MatrixT<T>> factors,
           MatrixT<T>& M, T* base);

 private:
  index_t rank_ = 0;
  index_t mode_ = 0;
  index_t In_ = 0;      // I_n
  index_t cosize_ = 0;  // I / I_n: the columns of X(n)
  int nt_ = 1;
  index_t piece_ = 1;      // KRP rows per piece
  index_t min_piece_ = 1;  // shorter tails join the piece before them

  std::vector<index_t> extents_;  // KRP factor extents, mode 0 fastest
  std::vector<std::size_t> packed_off_;

  // Workspace offsets (elements of T from the run base).
  std::size_t ws_elems_ = 0;
  std::size_t off_kt_ = 0;  // per-block KRP piece tile
  std::size_t stride_kt_ = 0;
  std::size_t off_gemm_ws_ = 0;  // per-block BLAS packing workspace
  std::size_t stride_gemm_ws_ = 0;
  std::size_t off_partials_ = 0;  // per-block In x C outputs
  std::size_t stride_partial_ = 0;
  std::size_t off_p_ = 0;  // per-block partial-Hadamard table
  std::size_t stride_p_ = 0;

  // Small preallocated scratch so run() never allocates.
  FactorListT<T> fl_;
  std::vector<const T*> packed_;
  detail::BlockDigits digits_;  // nt blocks of Z mixed-radix digits
};

extern template class OneStepExternalT<double>;
extern template class OneStepExternalT<float>;

}  // namespace dmtk
