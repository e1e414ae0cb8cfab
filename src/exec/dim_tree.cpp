#include "exec/dim_tree.hpp"

#include <algorithm>
#include <limits>

#include "blas/blas.hpp"
#include "core/krp_detail.hpp"

namespace dmtk {

index_t sweep_balanced_split(std::span<const index_t> dims, index_t a,
                             index_t b) {
  DMTK_CHECK(b - a >= 2, "sweep_balanced_split: interval too short");
  index_t total = 1;
  for (index_t k = a; k < b; ++k) total *= dims[static_cast<std::size_t>(k)];
  index_t best = a + 1;
  index_t best_cost = std::numeric_limits<index_t>::max();
  index_t left = 1;
  for (index_t s = a + 1; s < b; ++s) {
    left *= dims[static_cast<std::size_t>(s - 1)];
    const index_t cost = std::max(left, total / left);
    if (cost <= best_cost) {  // a tie takes the later split (see header)
      best_cost = cost;
      best = s;
    }
  }
  return best;
}

template <typename T>
DimTreeT<T>::DimTreeT(const ExecContext& ctx, std::span<const index_t> dims,
                      index_t rank)
    : ctx_(&ctx),
      dims_(dims.begin(), dims.end()),
      rank_(rank),
      nt_(ctx.threads()) {
  const index_t N = static_cast<index_t>(dims_.size());
  const index_t s = sweep_balanced_split(dims_, 0, N);
  build_tree(0, s, 0, -1);
  build_tree(s, N, 0, -1);

  // Top-down ancestor path of every leaf (evaluation walks it).
  leaf_path_.assign(static_cast<std::size_t>(N), {});
  for (std::size_t id = 0; id < nodes_.size(); ++id) {
    const Node& nd = nodes_[id];
    if (!nd.leaf) continue;
    std::vector<int>& path = leaf_path_[static_cast<std::size_t>(nd.a)];
    for (int v = static_cast<int>(id); v >= 0;
         v = nodes_[static_cast<std::size_t>(v)].parent) {
      path.push_back(v);
    }
    std::reverse(path.begin(), path.end());
  }

  plan_node_layout();

  for (const Node& nd : nodes_) {
    node_counts_.push_back(
        {.first = nd.a, .last = nd.b, .depth = nd.depth, .leaf = nd.leaf});
  }

  fl_.reserve(static_cast<std::size_t>(N));
  packed_.reserve(static_cast<std::size_t>(N));
  digits_stride_ = static_cast<std::size_t>(N);
  digits_.assign(static_cast<std::size_t>(nt_) * digits_stride_, 0);
  batch_a_.resize(static_cast<std::size_t>(rank_));
  batch_b_.resize(static_cast<std::size_t>(rank_));
  batch_c_.resize(static_cast<std::size_t>(rank_));
}

template <typename T>
bool DimTreeT<T>::root_leaf(index_t n) const {
  return leaf_path_[static_cast<std::size_t>(n)].size() == 1;
}

template <typename T>
bool DimTreeT<T>::contracts_left(index_t n) const {
  const int top = leaf_path_[static_cast<std::size_t>(n)].front();
  return nodes_[static_cast<std::size_t>(top)].a > 0;
}

template <typename T>
void DimTreeT<T>::build_tree(index_t a, index_t b, int depth, int parent) {
  const int id = static_cast<int>(nodes_.size());
  nodes_.push_back({});
  {
    Node& nd = nodes_[static_cast<std::size_t>(id)];
    nd.a = a;
    nd.b = b;
    nd.depth = depth;
    nd.parent = parent;
    nd.out_rows = 1;
    for (index_t k = a; k < b; ++k) {
      nd.out_rows *= dims_[static_cast<std::size_t>(k)];
    }
    nd.leaf = (b - a == 1);
    // The sibling interval: what remains of the parent's after [a, b),
    // which is always the parent's prefix or suffix.
    const index_t pa =
        parent < 0 ? 0 : nodes_[static_cast<std::size_t>(parent)].a;
    const index_t pb = parent < 0 ? static_cast<index_t>(dims_.size())
                                  : nodes_[static_cast<std::size_t>(parent)].b;
    nd.trim_left = a > pa;
    TrimSpec& t = nd.trim;
    t.u = nd.trim_left ? pa : b;
    t.v = nd.trim_left ? a : pb;
    for (index_t k = t.v; k-- > t.u;) {
      t.extents.push_back(dims_[static_cast<std::size_t>(k)]);
      t.rows *= dims_[static_cast<std::size_t>(k)];
    }
  }
  if (b - a >= 2) {
    const index_t s = sweep_balanced_split(dims_, a, b);
    build_tree(a, s, depth + 1, id);
    build_tree(s, b, depth + 1, id);
  }
}

template <typename T>
void DimTreeT<T>::plan_node_layout() {
  const index_t C = rank_;
  const std::size_t snt = static_cast<std::size_t>(nt_);

  // Intermediates region: one slot per depth, sized for the largest
  // internal node there. The in-order traversal keeps at most one node per
  // depth alive, so same-depth nodes share a slot.
  int max_depth = 0;
  for (const Node& nd : nodes_) max_depth = std::max(max_depth, nd.depth);
  // dmtk-lint: allow(hot-alloc): plan CONSTRUCTION, runs once per tree —
  // the allocation-free guarantee covers evaluation, not this layout pass.
  std::vector<std::size_t> slot(static_cast<std::size_t>(max_depth) + 1, 0);
  for (const Node& nd : nodes_) {
    if (nd.leaf) continue;  // leaves write the caller's M
    slot[static_cast<std::size_t>(nd.depth)] =
        std::max(slot[static_cast<std::size_t>(nd.depth)],
                 WorkspaceArena::aligned_count<T>(
                     static_cast<std::size_t>(nd.out_rows * C)));
  }
  // level_base[d] = start of slot d; level_base[max_depth + 1] = the end.
  // dmtk-lint: allow(hot-alloc): plan construction (see above).
  std::vector<std::size_t> level_base(slot.size() + 1, 0);
  for (std::size_t d = 0; d < slot.size(); ++d) {
    level_base[d + 1] = level_base[d] + slot[d];
  }
  ws_elems_ = level_base.back();
  for (Node& nd : nodes_) {
    if (!nd.leaf) nd.off_out = level_base[static_cast<std::size_t>(nd.depth)];
  }

  // Per-evaluation scratch, laid out by liveness. While a node at depth d
  // evaluates, only its ancestors' slots (depth < d) hold live data: the
  // in-order sweep is done with every node left of it and has not reached
  // any node right of it, and a single root-to-leaf path holds nothing
  // else either. So an internal node's scratch starts after its own output
  // slot d, and a leaf's (whose output is the caller's M) at slot d. A
  // depth-0 leaf overlaps everything.
  for (Node& nd : nodes_) {
    const std::size_t d = static_cast<std::size_t>(nd.depth);
    nd.off_scratch = nd.leaf ? level_base[d] : level_base[d + 1];
    if (nd.leaf && nd.parent < 0) {
      // Mode 0 or N-1 against the whole tensor: the external-mode 1-step
      // kernel, bitwise the named OneStep plan's.
      nd.onestep = static_cast<int>(onestep_.size());
      onestep_.emplace_back(*ctx_, dims_, rank_, nd.a);
      nd.scratch_elems = onestep_.back().workspace_elems();
      ws_elems_ = std::max(ws_elems_, nd.off_scratch + nd.scratch_elems);
      continue;
    }
    // Packed factor panels + transposed-KRP buffer of the trim,
    // per-thread partial-Hadamard scratch, and the GEMM packing workspace.
    std::size_t off = 0;
    auto take = [&off](std::size_t elems) {
      const std::size_t at = off;
      off += WorkspaceArena::aligned_count<T>(elems);
      return at;
    };
    TrimSpec& t = nd.trim;
    t.packed_off.resize(t.extents.size());
    for (std::size_t z = 0; z < t.extents.size(); ++z) {
      t.packed_off[z] = take(static_cast<std::size_t>(t.extents[z] * C));
    }
    t.off_krp = take(static_cast<std::size_t>(t.rows * C));
    if (t.extents.size() >= 3) {
      nd.stride_p = WorkspaceArena::aligned_count<T>(
          static_cast<std::size_t>(C) * (t.extents.size() - 2));
      nd.off_p = take(snt * nd.stride_p);
    }
    nd.gws_elems =
        nd.parent < 0
            ? blas::gemm_workspace_elems<T>(blas::Trans::Trans, nd.out_rows,
                                            C, t.rows, nt_)
            : blas::gemm_batched_workspace_elems<T>(
                  blas::Trans::Trans, nd.out_rows, 1, t.rows, nt_);
    nd.off_gws = take(nd.gws_elems);
    nd.scratch_elems = off;
    ws_elems_ = std::max(ws_elems_, nd.off_scratch + off);
  }
}

template <typename T>
void DimTreeT<T>::begin(T* base) {
  for (Node& nd : nodes_) nd.fresh = false;
  base_ = base;
}

template <typename T>
void DimTreeT<T>::mttkrp(index_t n, const TensorT<T>& X,
                         std::span<const MatrixT<T>> factors, MatrixT<T>& M) {
  for (int id : leaf_path_[static_cast<std::size_t>(n)]) {
    Node& nd = nodes_[static_cast<std::size_t>(id)];
    if (!nd.fresh) eval_node(id, X, factors, nd.leaf ? &M : nullptr);
  }
}

template <typename T>
const T* DimTreeT<T>::form_trim_krp(const Node& nd,
                                    std::span<const MatrixT<T>> factors) {
  const index_t C = rank_;
  const TrimSpec& trim = nd.trim;
  T* scratch = base_ + nd.off_scratch;
  const std::size_t Z = trim.extents.size();
  fl_.resize(Z);
  std::size_t i = 0;
  for (index_t k = trim.v; k-- > trim.u;) {
    fl_[i++] = &factors[static_cast<std::size_t>(k)];
  }
  packed_.resize(Z);
  for (std::size_t z = 0; z < Z; ++z) {
    T* P = scratch + trim.packed_off[z];
    detail::pack_factor_transposed(*fl_[z], C, P);
    packed_[z] = P;
  }
  T* Kt = scratch + trim.off_krp;
  detail::krp_transposed_blocks<T>(packed_, trim.extents, C, trim.rows, nt_,
                                   Kt, scratch + nd.off_p, nd.stride_p,
                                   digits_.data(), digits_stride_);
  return Kt;
}

template <typename T>
void DimTreeT<T>::eval_node(int id, const TensorT<T>& X,
                            std::span<const MatrixT<T>> factors,
                            MatrixT<T>* M) {
  Node& nd = nodes_[static_cast<std::size_t>(id)];
  T* out = nd.leaf ? M->data() : base_ + nd.off_out;
  const index_t C = rank_;
  const TrimSpec& trim = nd.trim;

  if (nd.onestep >= 0) {
    // A depth-0 leaf: the external mode's 1-step MTTKRP, a full-tensor pass.
    onestep_[static_cast<std::size_t>(nd.onestep)].run(X, factors, *M,
                                                        base_ + nd.off_scratch);
  } else if (nd.parent < 0) {
    // An internal child of the root: a full-tensor pass, as one plain GEMM
    // of X (viewed as its multi-mode matricization) against the sibling
    // group's transposed KRP.
    const T* krp = form_trim_krp(nd, factors);
    const blas::GemmWorkspace gws = blas::typed_workspace(
        base_ + nd.off_scratch + nd.off_gws, nd.gws_elems);
    if (!nd.trim_left) {
      // [0, s): X(0:s-1) is out_rows x trim.rows column-major.
      blas::gemm(blas::Layout::ColMajor, blas::Trans::NoTrans,
                 blas::Trans::Trans, nd.out_rows, C, trim.rows, T{1},
                 X.data(), nd.out_rows, krp, C, T{0}, out, nd.out_rows, nt_,
                 gws);
    } else {
      // [s, N): the transpose view of the same matricization.
      blas::gemm(blas::Layout::ColMajor, blas::Trans::Trans,
                 blas::Trans::Trans, nd.out_rows, C, trim.rows, T{1},
                 X.data(), trim.rows, krp, C, T{0}, out, nd.out_rows, nt_,
                 gws);
    }
  } else {
    // Component c of the parent's intermediate is a (trim.rows x out_rows)
    // [left trim] or (out_rows x trim.rows) column-major block; its
    // contraction against KRP row c (read strided out of the C x rows
    // transposed-KRP buffer) is one m x 1 x k GEMM. The batch has one
    // accumulation group per component, so when C < threads the batched
    // kernel splits rows inside the groups and the whole team stays busy.
    const Node& par = nodes_[static_cast<std::size_t>(nd.parent)];
    const T* src = base_ + par.off_out;
    const T* krp = form_trim_krp(nd, factors);
    for (index_t c = 0; c < C; ++c) {
      const std::size_t sc = static_cast<std::size_t>(c);
      batch_a_[sc] = src + c * par.out_rows;
      batch_b_[sc] = krp + c;
      batch_c_[sc] = out + c * nd.out_rows;
    }
    const blas::GemmWorkspace gws = blas::typed_workspace(
        base_ + nd.off_scratch + nd.off_gws, nd.gws_elems);
    blas::gemm_batched(blas::Layout::ColMajor,
                       nd.trim_left ? blas::Trans::Trans : blas::Trans::NoTrans,
                       blas::Trans::Trans, nd.out_rows, index_t{1}, trim.rows,
                       T{1}, batch_a_.data(),
                       nd.trim_left ? trim.rows : nd.out_rows, batch_b_.data(),
                       C, T{0}, batch_c_.data(), nd.out_rows, C, nt_, gws);
  }
  nd.fresh = true;
  ++node_counts_[static_cast<std::size_t>(id)].evals;
}

template class DimTreeT<double>;
template class DimTreeT<float>;

}  // namespace dmtk
