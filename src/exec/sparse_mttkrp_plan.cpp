#include "exec/sparse_mttkrp_plan.hpp"

#include <algorithm>

#include "blas/blas.hpp"

namespace dmtk {

template <typename T>
SparseMttkrpPlanT<T>::SparseMttkrpPlanT(const ExecContext& ctx,
                                        const sparse::SparseTensorT<T>& X,
                                        index_t rank,
                                        SparseMttkrpKernel kernel)
    : ctx_(&ctx),
      X_(&X),
      dims_(X.dims().begin(), X.dims().end()),
      rank_(rank),
      nnz_(X.nnz()),
      requested_(kernel) {
  const index_t N = static_cast<index_t>(dims_.size());
  DMTK_CHECK(N >= 2, "sparse plan: tensor must have at least 2 modes");
  DMTK_CHECK(rank >= 1, "sparse plan: rank must be positive");
  nt_ = ctx.threads();
  kernel_ = kernel == SparseMttkrpKernel::Auto ? SparseMttkrpKernel::Csf
                                               : kernel;

  if (kernel_ == SparseMttkrpKernel::Csf) {
    // One mode-rooted tree per mode, plus the per-thread root tiling —
    // the whole sort/merge/compress cost is paid here, once.
    csf_.reserve(static_cast<std::size_t>(N));
    tiles_.resize(static_cast<std::size_t>(N));
    for (index_t n = 0; n < N; ++n) {
      csf_.push_back(sparse::CsfTensorT<T>::build(
          X, sparse::CsfTensorT<T>::root_first_perm(dims_, n)));
      std::vector<Range>& tn = tiles_[static_cast<std::size_t>(n)];
      tn.resize(static_cast<std::size_t>(nt_));
      const index_t roots = csf_.back().nodes(0);
      for (int t = 0; t < nt_; ++t) {
        tn[static_cast<std::size_t>(t)] = block_range(roots, nt_, t);
      }
    }
    stride_scratch_ = WorkspaceArena::aligned_count<double>(
        sparse::csf_mttkrp_scratch_accums(N, rank_));
    ws_doubles_ = static_cast<std::size_t>(nt_) * stride_scratch_;
  } else {
    // COO: nt thread-private In x C outputs (largest mode) plus one
    // Hadamard row per thread — the buffers the retired free-function
    // kernel heap-allocated on every call. All fp64 regardless of T.
    index_t max_in = 0;
    for (index_t d : dims_) max_in = std::max(max_in, d);
    stride_partial_ = WorkspaceArena::aligned_count<double>(
        static_cast<std::size_t>(max_in) * static_cast<std::size_t>(rank_));
    stride_row_ =
        WorkspaceArena::aligned_count<double>(static_cast<std::size_t>(rank_));
    off_row_ = static_cast<std::size_t>(nt_) * stride_partial_;
    ws_doubles_ = off_row_ + static_cast<std::size_t>(nt_) * stride_row_;
  }
  ctx.arena().reserve<double>(ws_doubles_);
}

template <typename T>
const sparse::CsfTensorT<T>& SparseMttkrpPlanT<T>::csf(index_t mode) const {
  DMTK_CHECK(kernel_ == SparseMttkrpKernel::Csf,
             "sparse plan: csf() requires the Csf kernel");
  DMTK_CHECK(mode >= 0 && mode < static_cast<index_t>(csf_.size()),
             "sparse plan: mode out of range");
  return csf_[static_cast<std::size_t>(mode)];
}

template <typename T>
void SparseMttkrpPlanT<T>::execute(index_t mode,
                                   std::span<const MatrixT<T>> factors,
                                   MatrixT<T>& M) {
  const index_t N = static_cast<index_t>(dims_.size());
  DMTK_CHECK(mode >= 0 && mode < N, "sparse plan: mode out of range");
  DMTK_CHECK(static_cast<index_t>(factors.size()) == N,
             "sparse plan: need one factor matrix per mode");
  for (index_t n = 0; n < N; ++n) {
    const MatrixT<T>& U = factors[static_cast<std::size_t>(n)];
    DMTK_CHECK(U.cols() == rank_, "sparse plan: factors disagree on rank");
    DMTK_CHECK(U.rows() == dims_[static_cast<std::size_t>(n)],
               "sparse plan: factor rows != mode size");
  }
  const index_t In = dims_[static_cast<std::size_t>(mode)];
  if (M.rows() != In || M.cols() != rank_) M = MatrixT<T>(In, rank_);

  WorkspaceArena::Frame frame(ctx_->arena());
  double* base = ws_doubles_ > 0 ? frame.alloc<double>(ws_doubles_) : nullptr;
  if (kernel_ == SparseMttkrpKernel::Csf) {
    exec_csf(mode, factors, M, base);
  } else {
    exec_coo(mode, factors, M, base);
  }
}

template <typename T>
void SparseMttkrpPlanT<T>::exec_csf(index_t mode,
                                    std::span<const MatrixT<T>> factors,
                                    MatrixT<T>& M, double* base) {
  const sparse::CsfTensorT<T>& T_ = csf_[static_cast<std::size_t>(mode)];
  const std::vector<Range>& tiles = tiles_[static_cast<std::size_t>(mode)];
  // Root fids are distinct, so the tiles write disjoint rows; rows with no
  // root node (empty slices) keep the zero from here. OpenMP may deliver
  // fewer threads than planned (nesting, thread limits), so each worker
  // strides over the planned tiles by the ACTUAL team size — the same
  // defense the dense KRP blocks use — instead of assuming tile t runs.
  M.set_zero();
  parallel_region(nt_, [&](int t, int nteam) {
    for (int b = t; b < nt_; b += nteam) {
      sparse::csf_mttkrp_root_range(T_, factors, M,
                                    tiles[static_cast<std::size_t>(b)],
                                    base + static_cast<std::size_t>(t) *
                                               stride_scratch_);
    }
  });
}

template <typename T>
void SparseMttkrpPlanT<T>::exec_coo(index_t mode,
                                    std::span<const MatrixT<T>> factors,
                                    MatrixT<T>& M, double* base) {
  const sparse::SparseTensorT<T>& X = *X_;
  const index_t N = static_cast<index_t>(dims_.size());
  const index_t C = rank_;
  const index_t In = dims_[static_cast<std::size_t>(mode)];
  const index_t nnz = nnz_;
  const std::size_t partial_doubles =
      static_cast<std::size_t>(In) * static_cast<std::size_t>(C);
  // Same arithmetic, same reduction order as the free sparse::mttkrp —
  // only the buffers moved from the heap into the arena. The nonzeros are
  // partitioned by the ACTUAL team size (which may be smaller than
  // planned), and only that many partials are reduced below: slots beyond
  // the real team were never zeroed this call and hold stale arena bytes.
  int team = 1;
  parallel_region(nt_, [&](int t, int nteam) {
    if (t == 0) team = nteam;
    const Range r = block_range(nnz, nteam, t);
    double* Mt = base + static_cast<std::size_t>(t) * stride_partial_;
    std::fill(Mt, Mt + partial_doubles, 0.0);
    double* row = base + off_row_ + static_cast<std::size_t>(t) * stride_row_;
    for (index_t k = r.begin; k < r.end; ++k) {
      std::fill(row, row + C, static_cast<double>(X.value(k)));
      for (index_t n = 0; n < N; ++n) {
        if (n == mode) continue;
        const MatrixT<T>& U = factors[static_cast<std::size_t>(n)];
        const T* ubase = U.data() + X.coord(n, k);
        const index_t ld = U.ld();
        for (index_t c = 0; c < C; ++c) {
          row[c] *= static_cast<double>(ubase[c * ld]);
        }
      }
      const index_t i = X.coord(mode, k);
      for (index_t c = 0; c < C; ++c) Mt[i + c * In] += row[c];
    }
  });
  if constexpr (std::is_same_v<T, double>) {
    M.set_zero();
    for (int t = 0; t < team; ++t) {
      blas::axpy(M.size(), 1.0,
                 base + static_cast<std::size_t>(t) * stride_partial_,
                 index_t{1}, M.data(), index_t{1});
    }
  } else {
    // Reduce the fp64 partials into the thread-0 slot (always live), then
    // round once per entry into the fp32 output.
    for (int t = 1; t < team; ++t) {
      blas::axpy(static_cast<index_t>(partial_doubles), 1.0,
                 base + static_cast<std::size_t>(t) * stride_partial_,
                 index_t{1}, base, index_t{1});
    }
    T* dst = M.data();
    for (std::size_t l = 0; l < partial_doubles; ++l) {
      dst[l] = static_cast<T>(base[l]);
    }
  }
}

template class SparseMttkrpPlanT<double>;
template class SparseMttkrpPlanT<float>;

}  // namespace dmtk
