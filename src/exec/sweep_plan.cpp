#include "exec/sweep_plan.hpp"

#include "exec/sparse_mttkrp_plan.hpp"

namespace dmtk {

std::string_view to_string(SweepScheme s) {
  switch (s) {
    case SweepScheme::Auto: return "auto";
    case SweepScheme::PerMode: return "permode";
    case SweepScheme::DimTree: return "dimtree";
    case SweepScheme::SparseCsf: return "csf";
    case SweepScheme::SparseCoo: return "coo";
  }
  return "?";
}

std::optional<SweepScheme> parse_sweep_scheme(std::string_view name) {
  if (name == "auto") return SweepScheme::Auto;
  if (name == "permode") return SweepScheme::PerMode;
  if (name == "dimtree") return SweepScheme::DimTree;
  if (name == "csf") return SweepScheme::SparseCsf;
  if (name == "coo") return SweepScheme::SparseCoo;
  return std::nullopt;
}

template <typename T>
CpAlsSweepPlanT<T>::CpAlsSweepPlanT(const ExecContext& ctx,
                                    std::span<const index_t> dims,
                                    index_t rank, SweepScheme scheme,
                                    MttkrpMethod method)
    : ctx_(&ctx),
      dims_(dims.begin(), dims.end()),
      rank_(rank),
      requested_(scheme) {
  const index_t N = static_cast<index_t>(dims_.size());
  DMTK_CHECK(N >= 2, "sweep plan: tensor must have at least 2 modes");
  DMTK_CHECK(rank >= 1, "sweep plan: rank must be positive");
  for (index_t d : dims_) {
    DMTK_CHECK(d >= 1, "sweep plan: extents must be positive");
  }
  // Auto resolves to DimTree unless an explicit per-mode kernel request
  // pins PerMode (resolve_sweep_scheme). Never a sparse scheme — those
  // require the sparse constructor.
  scheme_ = resolve_sweep_scheme(requested_, method);
  DMTK_CHECK(scheme_ == SweepScheme::PerMode || scheme_ == SweepScheme::DimTree,
             "sweep plan: sparse scheme requested for a dense tensor — "
             "construct the plan from a SparseTensor instead");

  if (scheme_ == SweepScheme::PerMode) {
    mode_plans_.reserve(static_cast<std::size_t>(N));
    for (index_t n = 0; n < N; ++n) {
      // An Auto MttkrpPlan would run the tree's path for its mode; PerMode
      // keeps the paper's per-mode kernels.
      const MttkrpMethod m =
          method != MttkrpMethod::Auto ? method
          : twostep_is_defined(N, n)   ? MttkrpMethod::TwoStep
                                       : MttkrpMethod::OneStep;
      mode_plans_.emplace_back(ctx, dims, rank, n, m);
      node_counts_.push_back({.first = n, .last = n + 1, .leaf = true});
    }
    return;
  }

  tree_.emplace(ctx, dims_, rank_);
  ctx.arena().template reserve<T>(tree_->workspace_elems());
}

template <typename T>
CpAlsSweepPlanT<T>::CpAlsSweepPlanT(const ExecContext& ctx,
                                    const sparse::SparseTensorT<T>& X,
                                    index_t rank, SweepScheme scheme)
    : ctx_(&ctx), rank_(rank), requested_(scheme) {
  dims_.assign(X.dims().begin(), X.dims().end());
  const index_t N = static_cast<index_t>(dims_.size());
  DMTK_CHECK(N >= 2, "sweep plan: tensor must have at least 2 modes");
  DMTK_CHECK(rank >= 1, "sweep plan: rank must be positive");
  // Sparse input resolves Auto to the CSF kernel; the dense heuristic of
  // resolve_sweep_scheme never applies here (and dense schemes are
  // rejected — a sparse tensor has no dense matricization to sweep).
  scheme_ = resolve_sparse_sweep_scheme(scheme);
  DMTK_CHECK(
      scheme_ == SweepScheme::SparseCsf || scheme_ == SweepScheme::SparseCoo,
      "sweep plan: dense scheme requested for a sparse tensor — use "
      "SweepScheme::SparseCsf / SparseCoo (or Auto)");
  sparse_plan_ = std::make_unique<SparseMttkrpPlanT<T>>(
      ctx, X, rank,
      scheme_ == SweepScheme::SparseCsf ? SparseMttkrpKernel::Csf
                                        : SparseMttkrpKernel::Coo);
  sparse_ws_bytes_ = sparse_plan_->workspace_bytes();
  for (index_t n = 0; n < N; ++n) {
    node_counts_.push_back({.first = n, .last = n + 1, .leaf = true});
  }
}

template <typename T>
CpAlsSweepPlanT<T>::~CpAlsSweepPlanT() = default;

template <typename T>
const SparseMttkrpPlanT<T>& CpAlsSweepPlanT<T>::sparse_plan() const {
  DMTK_CHECK(sparse_plan_ != nullptr,
             "sweep plan: sparse_plan() requires a sparse scheme");
  return *sparse_plan_;
}

template <typename T>
void CpAlsSweepPlanT<T>::begin_sweep(const TensorT<T>& X) {
  const index_t N = static_cast<index_t>(dims_.size());
  DMTK_CHECK(!is_sparse(),
             "sweep plan: dense begin_sweep on a sparse-scheme plan");
  DMTK_CHECK(X.order() == N, "sweep plan: tensor order mismatch");
  for (index_t n = 0; n < N; ++n) {
    DMTK_CHECK(X.dim(n) == dims_[static_cast<std::size_t>(n)],
               "sweep plan: tensor extents differ from the planned shape");
  }
  next_mode_ = 0;
  sweep_active_ = true;
  if (tree_) {
    frame_.reset();  // tolerate an abandoned previous sweep
    frame_.emplace(ctx_->arena());
    const std::size_t elems = tree_->workspace_elems();
    tree_->begin(elems > 0 ? frame_->template alloc<T>(elems) : nullptr);
  }
}

template <typename T>
void CpAlsSweepPlanT<T>::begin_sweep(const sparse::SparseTensorT<T>& X) {
  const index_t N = static_cast<index_t>(dims_.size());
  DMTK_CHECK(is_sparse(),
             "sweep plan: sparse begin_sweep on a dense-scheme plan");
  DMTK_CHECK(X.order() == N, "sweep plan: tensor order mismatch");
  for (index_t n = 0; n < N; ++n) {
    DMTK_CHECK(X.dim(n) == dims_[static_cast<std::size_t>(n)],
               "sweep plan: tensor extents differ from the planned shape");
  }
  // The sparse plan bound its tensor at construction; a different nonzero
  // count here means the caller swapped tensors under the plan.
  DMTK_CHECK(X.nnz() == sparse_plan_->nnz(),
             "sweep plan: sparse tensor differs from the one planned for");
  next_mode_ = 0;
  sweep_active_ = true;
}

template <typename T>
void CpAlsSweepPlanT<T>::check_mode_request(index_t n,
                                            std::span<const MatrixT<T>> factors,
                                            MatrixT<T>& M) {
  const index_t N = static_cast<index_t>(dims_.size());
  DMTK_CHECK(sweep_active_, "sweep plan: begin_sweep() before mode_mttkrp()");
  DMTK_CHECK(n == next_mode_,
             "sweep plan: modes must be requested in order 0..N-1");
  DMTK_CHECK(static_cast<index_t>(factors.size()) == N,
             "sweep plan: need one factor matrix per mode");
  for (index_t k = 0; k < N; ++k) {
    const MatrixT<T>& U = factors[static_cast<std::size_t>(k)];
    DMTK_CHECK(U.cols() == rank_, "sweep plan: factors disagree on rank");
    DMTK_CHECK(U.rows() == dims_[static_cast<std::size_t>(k)],
               "sweep plan: factor rows != mode size");
  }
  const index_t In = dims_[static_cast<std::size_t>(n)];
  if (M.rows() != In || M.cols() != rank_) M = MatrixT<T>(In, rank_);
}

template <typename T>
void CpAlsSweepPlanT<T>::finish_mode() {
  ++next_mode_;
  if (next_mode_ == static_cast<index_t>(dims_.size())) {
    sweep_active_ = false;
    frame_.reset();
  }
}

template <typename T>
void CpAlsSweepPlanT<T>::mode_mttkrp(index_t n, const TensorT<T>& X,
                                     std::span<const MatrixT<T>> factors,
                                     MatrixT<T>& M) {
  DMTK_CHECK(!is_sparse(),
             "sweep plan: dense mode_mttkrp on a sparse-scheme plan");
  check_mode_request(n, factors, M);

  if (scheme_ == SweepScheme::PerMode) {
    mode_plans_[static_cast<std::size_t>(n)].execute(X, factors, M);
    ++node_counts_[static_cast<std::size_t>(n)].evals;
  } else {
    tree_->mttkrp(n, X, factors, M);
  }
  finish_mode();
}

template <typename T>
void CpAlsSweepPlanT<T>::mode_mttkrp(index_t n,
                                     const sparse::SparseTensorT<T>& X,
                                     std::span<const MatrixT<T>> factors,
                                     MatrixT<T>& M) {
  DMTK_CHECK(is_sparse(),
             "sweep plan: sparse mode_mttkrp on a dense-scheme plan");
  DMTK_CHECK(X.nnz() == sparse_plan_->nnz(),
             "sweep plan: sparse tensor differs from the one planned for");
  check_mode_request(n, factors, M);

  sparse_plan_->execute(n, factors, M);
  ++node_counts_[static_cast<std::size_t>(n)].evals;
  finish_mode();
}

template class CpAlsSweepPlanT<double>;
template class CpAlsSweepPlanT<float>;

}  // namespace dmtk
