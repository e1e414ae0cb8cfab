#include "exec/dim_tree.hpp"

#include <algorithm>
#include <limits>
#include <utility>

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
  if (N == 3) plan_rotation();

  plan_node_layout();

  for (const Node& nd : nodes_) {
    node_counts_.push_back(
        {.first = nd.a, .last = nd.b, .depth = nd.depth, .leaf = nd.leaf});
  }

  fl_.reserve(static_cast<std::size_t>(N));
  packed_.reserve(static_cast<std::size_t>(N));
  digits_ = detail::BlockDigits(nt_, static_cast<std::size_t>(N));
  // One pointer per component, or per mode-2 slab for T_1.
  const std::size_t batch = static_cast<std::size_t>(
      t1_ >= 0 ? std::max(rank_, dims_[2]) : rank_);
  batch_a_.resize(batch);
  batch_b_.resize(batch);
  batch_c_.resize(batch);
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
int DimTreeT<T>::add_node(index_t a, index_t b, int depth, int parent,
                          index_t u, index_t v, bool trim_left,
                          index_t out_rows) {
  Node nd;
  nd.a = a;
  nd.b = b;
  nd.depth = depth;
  nd.parent = parent;
  nd.out_rows = out_rows;
  nd.leaf = (b - a == 1);
  nd.trim_left = trim_left;
  TrimSpec& t = nd.trim;
  t.u = u;
  t.v = v;
  for (index_t k = v; k-- > u;) {
    t.extents.push_back(dims_[static_cast<std::size_t>(k)]);
    t.rows *= dims_[static_cast<std::size_t>(k)];
  }
  nodes_.push_back(std::move(nd));
  return static_cast<int>(nodes_.size()) - 1;
}

template <typename T>
int DimTreeT<T>::build_tree(index_t a, index_t b, int depth, int parent) {
  index_t out_rows = 1;
  for (index_t k = a; k < b; ++k) {
    out_rows *= dims_[static_cast<std::size_t>(k)];
  }
  // The sibling interval: what remains of the parent's after [a, b),
  // which is always the parent's prefix or suffix.
  const index_t pa =
      parent < 0 ? 0 : nodes_[static_cast<std::size_t>(parent)].a;
  const index_t pb = parent < 0 ? static_cast<index_t>(dims_.size())
                                : nodes_[static_cast<std::size_t>(parent)].b;
  const bool trim_left = a > pa;
  const int id = add_node(a, b, depth, parent, trim_left ? pa : b,
                          trim_left ? a : pb, trim_left, out_rows);
  if (b - a >= 2) {
    const index_t s = sweep_balanced_split(dims_, a, b);
    build_tree(a, s, depth + 1, id);
    build_tree(s, b, depth + 1, id);
  }
  return id;
}

template <typename T>
int DimTreeT<T>::root_child(index_t a, index_t b) {
  for (std::size_t id = 0; id < nodes_.size(); ++id) {
    const Node& nd = nodes_[id];
    if (nd.parent < 0 && nd.a == a && nd.b == b) return static_cast<int>(id);
  }
  return build_tree(a, b, 0, -1);
}

template <typename T>
int DimTreeT<T>::leaf_below(int parent, index_t n) const {
  for (std::size_t id = 0; id < nodes_.size(); ++id) {
    const Node& nd = nodes_[id];
    if (nd.parent == parent && nd.leaf && nd.a == n) {
      return static_cast<int>(id);
    }
  }
  DMTK_CHECK(false, "dimension tree: no such leaf");
  return -1;
}

template <typename T>
void DimTreeT<T>::plan_rotation() {
  // T_2 and T_0 are the {0, 1} and {1, 2} root children; the tree holds
  // one of them already. T_1 over the cyclic {2, 0} has component c an
  // I0 x I2 column-major block: leaf 2 contracts its rows against A(0)
  // (as a right child does), leaf 0 its columns against A(2).
  const int t2 = root_child(0, 2);
  const int t0 = root_child(1, 3);
  t1_ = add_node(2, 1, 0, -1, 1, 2, false, dims_[0] * dims_[2]);
  nodes_[static_cast<std::size_t>(t1_)].slabs = true;
  const int t1_leaf2 = add_node(2, 3, 1, t1_, 0, 1, true, dims_[2]);
  const int t1_leaf0 = add_node(0, 1, 1, t1_, 2, 3, false, dims_[0]);
  rot_path_[0] = {{t2, leaf_below(t2, 0)},
                  {t2, leaf_below(t2, 1)},
                  {t1_, t1_leaf2}};
  rot_path_[1] = {{t1_, t1_leaf0},
                  {t0, leaf_below(t0, 1)},
                  {t0, leaf_below(t0, 2)}};
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
        nd.slabs ? blas::gemm_batched_workspace_elems<T>(
                       blas::Trans::Trans, dims_[0], C, t.rows, nt_)
        : nd.parent < 0
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
void DimTreeT<T>::begin(T* base, int sweep, bool carried) {
  phase_ = t1_ < 0 || sweep == 0 ? 0 : 2 - sweep % 2;
  for (Node& nd : nodes_) nd.fresh = false;
  // An odd sweep evaluates T_1 last, so its slot still holds it.
  if (phase_ == 2 && carried) {
    nodes_[static_cast<std::size_t>(t1_)].fresh = true;
  }
  base_ = base;
}

template <typename T>
void DimTreeT<T>::mttkrp(index_t n, const TensorT<T>& X,
                         std::span<const MatrixT<T>> factors, MatrixT<T>& M) {
  const std::vector<std::vector<int>>& paths =
      phase_ == 0 ? leaf_path_
                  : rot_path_[static_cast<std::size_t>(phase_ - 1)];
  for (int id : paths[static_cast<std::size_t>(n)]) {
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
                                   digits_);
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
  } else if (nd.slabs) {
    // T_1, a full-tensor pass: mode-2 slab k of X (I0 x I1, column-major)
    // times A(1) is rows [k·I0, (k+1)·I0) of every component.
    const index_t I0 = dims_[0];
    const index_t I2 = dims_[2];
    const T* krp = form_trim_krp(nd, factors);
    for (index_t k = 0; k < I2; ++k) {
      const std::size_t sk = static_cast<std::size_t>(k);
      batch_a_[sk] = X.data() + k * I0 * trim.rows;
      batch_b_[sk] = krp;
      batch_c_[sk] = out + k * I0;
    }
    const blas::GemmWorkspace gws = blas::typed_workspace(
        base_ + nd.off_scratch + nd.off_gws, nd.gws_elems);
    blas::gemm_batched(blas::Layout::ColMajor, blas::Trans::NoTrans,
                       blas::Trans::Trans, I0, C, trim.rows, T{1},
                       batch_a_.data(), I0, batch_b_.data(), C, T{0},
                       batch_c_.data(), nd.out_rows, I2, nt_, gws);
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
