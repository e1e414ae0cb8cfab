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
///    Algorithms 2-4). Every mode pays one pass over the full tensor.
///
///  - DimTree: a multi-level binary dimension tree over the modes (the
///    paper's Section 6 direction, after Phan, Tichavsky & Cichocki). The
///    root is the tensor itself; its two children are the only FULL-tensor
///    contractions of the sweep (two big GEMMs against partial KRPs);
///    every deeper node contracts its parent's arena-resident intermediate
///    against the KRP of the sibling interval's factors, and each leaf
///    yields one mode's MTTKRP. Node contractions run as per-component
///    gemm_batched sweeps (batch = rank, rows split across the team inside
///    each component when rank < threads), with GemmWorkspaces carved from
///    the same arena — no scalar TTV chains, no per-call heap traffic.
///
/// Laziness gives exactness: a node's intermediate is (re)computed the
/// first time a leaf below it is requested in the sweep. With the in-order
/// mode discipline (enforced), the factors it contracts are exactly the
/// versions exact ALS requires — already-updated for modes left of the
/// node's interval, not-yet-updated for modes right of it.
///
/// A depth-0 leaf — a root child holding one mode, which is always mode 0
/// or N-1 — is exactly that mode's external MTTKRP, so it runs the paper's
/// parallel 1-step kernel (exec/onestep_external.hpp) that MttkrpPlan runs
/// for the same mode, and gives the same bits.
///
/// Cost: the root split is chosen to balance the two group sizes, so the
/// tree touches all I tensor entries twice per sweep instead of N times.
/// Memory is laid out by liveness: when a node at depth d evaluates, only
/// its ancestors' intermediates (one slot per depth above d) are live, so
/// its scratch overlaps every deeper slot, and a leaf's scratch overlaps
/// slot d too. A 3-way tree's peak is therefore about the largest per-mode
/// plan's, not its intermediate plus its KRP scratch. README, "Sweep
/// schemes", has the measured sweep times against PerMode.
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

#include <cstdint>
#include <memory>
#include <optional>
#include <span>
#include <string_view>
#include <vector>

#include "core/krp.hpp"
#include "core/matrix.hpp"
#include "core/mttkrp.hpp"
#include "core/tensor.hpp"
#include "exec/exec_context.hpp"
#include "exec/mttkrp_plan.hpp"
#include "exec/onestep_external.hpp"

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

/// Balanced binary split of the mode interval [a, b): the s in (a, b) that
/// minimizes max(prod dims[a, s), prod dims[s, b)) — the paper's rule for
/// bounding the dimension-tree intermediates, applied recursively here.
[[nodiscard]] index_t sweep_balanced_split(std::span<const index_t> dims,
                                           index_t a, index_t b);

/// One node of a sweep plan and how often it has been contracted. PerMode
/// and sparse plans expose one leaf node per mode; DimTree plans one entry
/// per tree node (internal nodes are the shared partial contractions), so
/// the depth-0 evals count the sweep's full-tensor passes.
struct SweepNode {
  index_t first = 0;       ///< mode interval [first, last)
  index_t last = 0;
  int depth = 0;           ///< 0 = child of the root (the full-tensor passes)
  bool leaf = false;       ///< true when the node yields a mode's MTTKRP
  std::int64_t evals = 0;  ///< contractions performed since construction
};

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
  /// its own contraction kernels). `max_levels` caps the tree's binary
  /// split depth: 0 = full tree (split to single modes), 1 = the one-level
  /// two-group scheme. The context must outlive the plan.
  CpAlsSweepPlanT(const ExecContext& ctx, std::span<const index_t> dims,
                  index_t rank, SweepScheme scheme = SweepScheme::Auto,
                  MttkrpMethod method = MttkrpMethod::Auto,
                  int max_levels = 0);

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
  /// draw from) — what lets a caller holding only the plan (e.g. the
  /// serve plan cache) hand the right context back to the ALS driver.
  [[nodiscard]] const ExecContext& context() const { return *ctx_; }
  /// The scheme the caller asked for (possibly Auto).
  [[nodiscard]] SweepScheme requested_scheme() const { return requested_; }
  /// What the plan actually runs (never Auto).
  [[nodiscard]] SweepScheme scheme() const { return scheme_; }
  /// Deepest internal (splitting) level of the tree; 0 for PerMode.
  [[nodiscard]] int levels() const { return levels_; }
  /// Arena bytes a DimTree sweep holds at its peak, the depth-0 leaves'
  /// 1-step workspace included (0 for PerMode, whose per-mode plans size
  /// their own frames; the sparse schemes report their SparseMttkrpPlan's
  /// per-execute footprint).
  [[nodiscard]] std::size_t workspace_bytes() const {
    return sparse_ws_bytes_ > 0 ? sparse_ws_bytes_ : ws_elems_ * sizeof(T);
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
    return node_counts_;
  }

 private:
  /// One contracted factor interval [u, v) of a node evaluation, with the
  /// scratch offsets (relative to the node's scratch base) of its packed
  /// factor panels and transposed-KRP buffer.
  struct TrimSpec {
    index_t u = 0, v = 0;
    index_t rows = 1;                ///< prod dims[u, v)
    std::vector<index_t> extents;    ///< J_z per factor, mode u fastest last
    std::vector<std::size_t> packed_off;
    std::size_t off_krp = 0;
    [[nodiscard]] bool empty() const { return u >= v; }
  };

  /// A non-root tree node: mode interval, parent link, the one or two
  /// sibling-interval trims that derive it from its parent, and the arena
  /// offsets of its output intermediate and evaluation scratch.
  struct Node {
    index_t a = 0, b = 0;  ///< mode interval [a, b)
    int depth = 0;         ///< 0 = child of the root
    int parent = -1;       ///< node id; -1 = the root tensor X
    index_t out_rows = 1;  ///< prod dims[a, b)
    bool leaf = false;
    bool fresh = false;    ///< intermediate computed this sweep
    TrimSpec left;         ///< contracts [parent.a, a)
    TrimSpec right;        ///< contracts [b, parent.b)
    bool left_first = false;  ///< two-trim order: contract larger side first
    index_t t_rows = 0;       ///< rows of the two-trim mid intermediate
    std::size_t off_out = 0;  ///< intermediate offset (internal nodes)
    std::size_t off_t = 0;    ///< two-trim mid intermediate offset (scratch)
    std::size_t off_p = 0;    ///< per-thread partial-Hadamard scratch
    std::size_t stride_p = 0;
    std::size_t off_gws = 0;  ///< GEMM packing workspace
    std::size_t gws_elems = 0;
    std::size_t off_scratch = 0;  ///< evaluation scratch base (absolute)
    std::size_t scratch_elems = 0;
    int onestep = -1;  ///< depth-0 leaf: index into onestep_
  };

  int build_tree(index_t a, index_t b, int depth, int parent, int max_levels);
  void plan_node_layout();
  void eval_node(int id, const TensorT<T>& X,
                 std::span<const MatrixT<T>> factors, MatrixT<T>* M);
  /// Form the transposed KRP (C x trim.rows) of factors [trim.u, trim.v)
  /// in the node's scratch; returns the buffer.
  const T* form_trim_krp(const Node& nd, const TrimSpec& trim,
                         std::span<const MatrixT<T>> factors);
  /// One-sided batched contraction of `src` (src_rows x C, component-major)
  /// against the trim's KRP: contract_left=true removes the
  /// fastest-varying (leading) trim.rows index of each component block,
  /// else the slowest (trailing) one.
  void contract_batched(const Node& nd, const T* src, index_t src_rows,
                        const TrimSpec& trim, const T* krp,
                        bool contract_left, T* dst, index_t dst_rows);

  const ExecContext* ctx_;
  std::vector<index_t> dims_;
  index_t rank_ = 0;
  int nt_ = 1;
  SweepScheme requested_ = SweepScheme::Auto;
  SweepScheme scheme_ = SweepScheme::PerMode;
  int levels_ = 0;

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

  // DimTree state.
  std::vector<Node> nodes_;
  std::vector<std::vector<int>> leaf_path_;  ///< per mode: node ids, top down
  std::vector<OneStepExternalT<T>> onestep_;  ///< depth-0 leaf kernels
  std::size_t ws_elems_ = 0;
  std::optional<WorkspaceArena::Frame> frame_;
  T* base_ = nullptr;
  // Preallocated small scratch so sweeps never allocate.
  FactorListT<T> fl_;
  std::vector<const T*> packed_;
  std::vector<index_t> digits_;
  std::size_t digits_stride_ = 0;
  std::vector<const T*> batch_a_;
  std::vector<const T*> batch_b_;
  std::vector<T*> batch_c_;

  // Sweep protocol state.
  bool sweep_active_ = false;
  index_t next_mode_ = 0;

  std::vector<SweepNode> node_counts_;
};

extern template class CpAlsSweepPlanT<double>;
extern template class CpAlsSweepPlanT<float>;

using CpAlsSweepPlan = CpAlsSweepPlanT<double>;
using CpAlsSweepPlanF = CpAlsSweepPlanT<float>;

}  // namespace dmtk
