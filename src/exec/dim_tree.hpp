#pragma once
/// \file dim_tree.hpp
/// \brief The dense dimension tree: one planned tree over a tensor's modes
/// whose root-to-leaf paths produce every mode's MTTKRP.
///
/// A multi-level binary dimension tree (the paper's Section 6 direction,
/// after Phan, Tichavsky & Cichocki, IEEE TSP 2013). The root is the tensor
/// itself; its two children are the only FULL-tensor contractions (two big
/// GEMMs of X, viewed as its multi-mode matricization, against the partial
/// KRP of the sibling group; a 3-way tree adds the rotation's T_m below);
/// every deeper node contracts its parent's
/// arena-resident intermediate against the KRP of the sibling interval's
/// factors, and each leaf yields one mode's MTTKRP. Node contractions run
/// as per-component gemm_batched sweeps (batch = rank, rows split across
/// the team inside each component when rank < threads), with
/// GemmWorkspaces carved from the same workspace — no scalar TTV chains,
/// no per-call heap traffic.
///
/// A depth-0 leaf — a root child holding one mode, which is always mode 0
/// or N-1 — is exactly that mode's external MTTKRP, so it runs the paper's
/// parallel 1-step kernel (exec/onestep_external.hpp), bitwise the named
/// OneStep plan's.
///
/// Two callers drive one tree:
///  - CpAlsSweepPlanT's DimTree scheme, lazily: begin(base, s) once per
///    sweep s of a run, then mttkrp(n) for n = 0..N-1 in order. A node is
///    (re)computed the first time a leaf below it is requested, so the
///    factors it contracts are exactly the versions exact ALS requires —
///    already updated left of the node's interval, not yet updated right
///    of it.
///  - MttkrpPlanT's Auto method: begin() then mttkrp(mode) on every
///    execute(), i.e. every node on the mode's root-to-leaf path, with no
///    reuse across calls. For mode 0 of a {0, 1} | {2} tree that is one
///    column-major GEMM of X(0:1) and one small batched contraction.
///
/// The multi-sweep rotation, which every 3-way tree plans and only sweep
/// plans run (Ma & Solomonik, "Efficient parallel CP decomposition with
/// pairwise perturbation and multi-sweep dimension tree", IPDPS 2021).
/// Sweep s of a run (its global ALS sweep index) runs:
///  - s = 0: the tree above, two full-tensor passes;
///  - s odd: T_2 = X(0:1)·A(2) (the {0, 1} node) for leaves 0 and 1, then
///    T_1 = X ×_1 A(1), one GEMM per mode-2 slab into an (I0·I2) x C block,
///    for leaf 2; T_1 stays live for the next sweep;
///  - s even: leaf 0 from the carried T_1, then T_0 = X(0)^T·A(0) (the
///    {1, 2} node) for leaves 1 and 2.
/// Each T_m contracts X with one factor, the one updated just before, so
/// it serves the next two mode updates exactly: three full passes per two
/// sweeps after the first. A sweep that cannot take T_1 from the sweep
/// before it (a run resumed at an even s) rebuilds it from X and the
/// current A(1), which gives the same bits. N >= 4 trees keep two passes
/// per sweep: a T_m there serves three updates through a 3-mode subtree
/// that reads it about twice, which moves as many bytes as the tree does.
///
/// Memory is laid out by liveness: when a node at depth d evaluates, only
/// its ancestors' intermediates (one slot per depth above d) are live, so
/// its scratch overlaps every deeper slot, and a leaf's scratch overlaps
/// slot d too. A 3-way tree's peak is therefore about the largest per-mode
/// plan's, not its intermediate plus its KRP scratch. The rotation's T_m
/// take turns in the same depth-0 slot, sized for the largest of them; on
/// a cube all three are the size of the {0, 1} intermediate, so a carried
/// T_1 costs no extra memory.

#include <array>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "core/krp.hpp"
#include "core/krp_detail.hpp"
#include "core/matrix.hpp"
#include "core/tensor.hpp"
#include "exec/exec_context.hpp"
#include "exec/onestep_external.hpp"

namespace dmtk {

/// Balanced binary split of the mode interval [a, b): the s in (a, b) that
/// minimizes max(prod dims[a, s), prod dims[s, b)) — the paper's rule for
/// bounding the dimension-tree intermediates, applied recursively at every
/// level.
///
/// A tie takes the LATER split. On a cube that makes the tree
/// {0, 1} | {2} instead of {0} | {1, 2}, which wins on both sides of the
/// root (282^3 f64, rank 25, one thread): the full-tensor node reads
/// X(0:1) column-major at 33.1 GF/s, against 21.2 GF/s for the X(0)^T
/// view (blas::gemm alone on each shape), and the depth-0 leaf becomes
/// mode N-1's row-major 1-step, 17.2 ms (65 GF/s) against 19.0 ms
/// (59 GF/s) for mode 0's column-major one (the whole kernel, KRP pieces
/// and reduction included, median of 4 rounds of 31 runs).
[[nodiscard]] index_t sweep_balanced_split(std::span<const index_t> dims,
                                           index_t a, index_t b);

/// One node of a sweep plan and how often it has been contracted. PerMode
/// and sparse plans expose one leaf node per mode; DimTree plans one entry
/// per tree node (internal nodes are the shared partial contractions, the
/// rotation's T_m included), so the depth-0 evals count the full-tensor
/// passes.
struct SweepNode {
  index_t first = 0;       ///< mode interval [first, last), cyclic when
  index_t last = 0;        ///< last <= first: T_1's {2, 0} is 2:1
  int depth = 0;           ///< 0 = child of the root (the full-tensor passes)
  bool leaf = false;       ///< true when the node yields a mode's MTTKRP
  std::int64_t evals = 0;  ///< contractions performed since construction
};

template <typename T>
class DimTreeT {
 public:
  /// Plan the tree for a tensor with extents `dims` (N >= 2, validated by
  /// the caller) at rank `rank`: balanced binary splits down to single
  /// modes, and on a 3-way tensor the rotation's nodes too, so that a
  /// sweep plan and an Auto MttkrpPlan of one shape share one footprint.
  /// The context must outlive the tree; the caller reserves
  /// workspace_elems() in its arena.
  DimTreeT(const ExecContext& ctx, std::span<const index_t> dims,
           index_t rank);

  /// Elements of T the tree draws from its workspace base at its peak,
  /// the depth-0 leaves' 1-step workspace included.
  [[nodiscard]] std::size_t workspace_elems() const { return ws_elems_; }
  /// The tree's nodes with their lifetime contraction counts.
  [[nodiscard]] std::span<const SweepNode> nodes() const {
    return node_counts_;
  }
  /// True when mode n's leaf is a child of the root: mode n's MTTKRP is
  /// then the external-mode 1-step kernel alone.
  [[nodiscard]] bool root_leaf(index_t n) const;
  /// True when the full-tensor node on mode n's path contracts the LEFT
  /// group of modes, i.e. mode n lies in the root's right group.
  [[nodiscard]] bool contracts_left(index_t n) const;

  /// Start sweep `sweep` of a run (0: the plain tree; see the header for
  /// the rotation): mark every intermediate stale and point the tree at
  /// `base`, a line-aligned block of workspace_elems() elements. `carried`
  /// says that sweep - 1 completed on the same base and tensor, so an even
  /// sweep keeps the T_1 it left in its slot instead of rebuilding it.
  void begin(T* base, int sweep = 0, bool carried = false);

  /// Mode n's MTTKRP into M (already I_n x C): evaluates every node on n's
  /// path for this sweep that has not been evaluated since begin().
  /// Factors are read at call time.
  void mttkrp(index_t n, const TensorT<T>& X,
              std::span<const MatrixT<T>> factors, MatrixT<T>& M);

 private:
  /// The contracted factor interval [u, v) of a node evaluation, with the
  /// scratch offsets (relative to the node's scratch base) of its packed
  /// factor panels and transposed-KRP buffer.
  struct TrimSpec {
    index_t u = 0, v = 0;
    index_t rows = 1;                ///< prod dims[u, v)
    std::vector<index_t> extents;    ///< J_z per factor, mode u fastest last
    std::vector<std::size_t> packed_off;
    std::size_t off_krp = 0;
  };

  /// A non-root tree node: mode interval, parent link, the sibling
  /// interval that derives it from its parent, and the workspace offsets
  /// of its output intermediate and evaluation scratch. Every interval is
  /// a prefix or a suffix of its parent's, so one trim always suffices.
  struct Node {
    index_t a = 0, b = 0;  ///< mode interval [a, b)
    int depth = 0;         ///< 0 = child of the root
    int parent = -1;       ///< node id; -1 = the root tensor X
    index_t out_rows = 1;  ///< prod dims[a, b)
    bool leaf = false;
    bool slabs = false;    ///< T_1: X x_1 A(1), one GEMM per mode-2 slab
    bool fresh = false;    ///< intermediate computed since begin()
    TrimSpec trim;         ///< contracts [parent.a, a) or [b, parent.b)
    bool trim_left = false;   ///< trim is [parent.a, a): a right child
    std::size_t off_out = 0;  ///< intermediate offset (internal nodes)
    std::size_t off_p = 0;    ///< per-thread partial-Hadamard scratch
    std::size_t stride_p = 0;
    std::size_t off_gws = 0;  ///< GEMM packing workspace
    std::size_t gws_elems = 0;
    std::size_t off_scratch = 0;  ///< evaluation scratch base (absolute)
    std::size_t scratch_elems = 0;
    int onestep = -1;  ///< depth-0 leaf: index into onestep_
  };

  /// Append a node over [a, b) that contracts its parent's intermediate
  /// (X when parent < 0) with the factors [u, v); returns its id.
  int add_node(index_t a, index_t b, int depth, int parent, index_t u,
               index_t v, bool trim_left, index_t out_rows);
  /// The subtree over [a, b) below `parent`; returns its root's id.
  int build_tree(index_t a, index_t b, int depth, int parent);
  /// Id of the depth-0 node over [a, b), built as a subtree if the tree
  /// has none.
  int root_child(index_t a, index_t b);
  /// Id of `parent`'s leaf for mode n.
  [[nodiscard]] int leaf_below(int parent, index_t n) const;
  void plan_rotation();
  void plan_node_layout();
  void eval_node(int id, const TensorT<T>& X,
                 std::span<const MatrixT<T>> factors, MatrixT<T>* M);
  /// Form the transposed KRP (C x trim.rows) of the node's trim factors
  /// in its scratch; returns the buffer.
  const T* form_trim_krp(const Node& nd, std::span<const MatrixT<T>> factors);

  const ExecContext* ctx_;
  std::vector<index_t> dims_;
  index_t rank_ = 0;
  int nt_ = 1;

  std::vector<Node> nodes_;
  std::vector<std::vector<int>> leaf_path_;  ///< per mode: node ids, top down
  /// The rotation's per-mode paths for odd [0] and even [1] sweeps (empty
  /// when the tree does not rotate), and the T_1 node it carries.
  std::array<std::vector<std::vector<int>>, 2> rot_path_;
  int t1_ = -1;
  int phase_ = 0;  ///< this sweep: 0 = the tree, 1 = odd, 2 = even
  std::vector<OneStepExternalT<T>> onestep_;  ///< depth-0 leaf kernels
  std::vector<SweepNode> node_counts_;
  std::size_t ws_elems_ = 0;
  T* base_ = nullptr;
  // Preallocated small scratch so evaluations never allocate.
  FactorListT<T> fl_;
  std::vector<const T*> packed_;
  detail::BlockDigits digits_;  // nt blocks of N mixed-radix digits
  std::vector<const T*> batch_a_;
  std::vector<const T*> batch_b_;
  std::vector<T*> batch_c_;
};

extern template class DimTreeT<double>;
extern template class DimTreeT<float>;

}  // namespace dmtk
