#include "exec/onestep_external.hpp"

#include <algorithm>

#include "blas/blas.hpp"
#include "core/krp_detail.hpp"
#include "util/parallel.hpp"

namespace dmtk {

template <typename T>
void reduce_partials(const T* partials, std::size_t stride, int planned,
                     MatrixT<T>& M) {
  const index_t total = M.size();
  T* out = M.data();
  parallel_region(planned, [&](int t, int nteam) {
    const Range r = block_range(total, nteam, t);
    if (r.empty()) return;
    std::fill(out + r.begin, out + r.end, T{0});
    for (int p = 0; p < planned; ++p) {
      const T* src = partials + static_cast<std::size_t>(p) * stride;
      for (index_t i = r.begin; i < r.end; ++i) out[i] += src[i];
    }
  });
}

template <typename T>
OneStepExternalT<T>::OneStepExternalT(const ExecContext& ctx,
                                      std::span<const index_t> dims,
                                      index_t rank, index_t mode)
    : rank_(rank), mode_(mode), nt_(ctx.threads()) {
  const index_t N = static_cast<index_t>(dims.size());
  DMTK_CHECK(mode == 0 || mode == N - 1,
             "1-step external kernel: mode must be 0 or N-1");
  In_ = dims[static_cast<std::size_t>(mode)];
  cosize_ = 1;
  // KRP factor order of core/krp.cpp: every mode but `mode`, N-1 first.
  for (index_t n = N; n-- > 0;) {
    if (n == mode) continue;
    extents_.push_back(dims[static_cast<std::size_t>(n)]);
    cosize_ *= dims[static_cast<std::size_t>(n)];
  }

  const index_t C = rank_;
  const std::size_t snt = static_cast<std::size_t>(nt_);
  const std::size_t Z = extents_.size();
  std::size_t top = 0;
  auto take = [&top](std::size_t elems) {
    const std::size_t off = top;
    top += WorkspaceArena::aligned_count<T>(elems);
    return off;
  };
  packed_off_.resize(Z);
  for (std::size_t z = 0; z < Z; ++z) {
    packed_off_[z] = take(static_cast<std::size_t>(extents_[z] * C));
  }
  stride_kt_ = WorkspaceArena::aligned_count<T>(
      static_cast<std::size_t>(C * ctx.max_block(cosize_)));
  off_kt_ = take(snt * stride_kt_);
  // Each block runs a private sequential GEMM; blocks differ by one
  // column, so size for the shortest and the longest (only one of them may
  // fall short of the rank-panel shape).
  stride_gemm_ws_ = WorkspaceArena::aligned_count<T>(std::max(
      blas::gemm_workspace_elems<T>(blas::Trans::Trans, In_, C, cosize_ / nt_,
                                    1),
      blas::gemm_workspace_elems<T>(blas::Trans::Trans, In_, C,
                                    ctx.max_block(cosize_), 1)));
  off_gemm_ws_ = take(snt * stride_gemm_ws_);
  stride_partial_ =
      WorkspaceArena::aligned_count<T>(static_cast<std::size_t>(In_ * C));
  off_partials_ = take(snt * stride_partial_);
  // Per-block partial-Hadamard table: C elements per reusable partial.
  if (Z >= 3) {
    stride_p_ = WorkspaceArena::aligned_count<T>(static_cast<std::size_t>(C) *
                                                 (Z - 2));
    off_p_ = take(snt * stride_p_);
  }
  ws_elems_ = top;

  fl_.resize(Z);
  packed_.resize(Z);
  digits_stride_ = Z;
  digits_.assign(snt * digits_stride_, 0);
}

template <typename T>
void OneStepExternalT<T>::run(const TensorT<T>& X,
                              std::span<const MatrixT<T>> factors,
                              MatrixT<T>& M, T* base) {
  const index_t C = rank_;
  const index_t cols = cosize_;
  std::size_t i = 0;
  for (index_t n = static_cast<index_t>(factors.size()); n-- > 0;) {
    if (n != mode_) fl_[i++] = &factors[static_cast<std::size_t>(n)];
  }
  for (std::size_t z = 0; z < fl_.size(); ++z) {
    T* P = base + packed_off_[z];
    detail::pack_factor_transposed(*fl_[z], C, P);
    packed_[z] = P;
  }

  // Loop over the PLANNED nt_ partitions, strided by the actual team size:
  // tile sizes and the reduction below assume exactly nt_ blocks, so a
  // smaller-than-requested OpenMP team (nested parallelism, thread limits)
  // must still produce every block — each sized as planned.
  parallel_region(nt_, [&](int t, int nteam) {
    for (int b = t; b < nt_; b += nteam) {
      const std::size_t sb = static_cast<std::size_t>(b);
      const Range r = block_range(cols, nt_, b);
      T* Mt = base + off_partials_ + sb * stride_partial_;
      if (r.empty()) {
        // Still participates in the reduction: must read as zero.
        std::fill(Mt, Mt + In_ * C, T{0});
        continue;
      }
      // Block-local KRP rows [r.begin, r.end) — Alg 3 line 7.
      T* Kt = base + off_kt_ + sb * stride_kt_;
      T* P = base + off_p_ + sb * stride_p_;
      index_t* dg = digits_.data() + sb * digits_stride_;
      detail::krp_rows_ws<T>(packed_, extents_, C, r.begin, r.end, Kt, C, P,
                             dg);
      // Local GEMM against the block's columns of X(n) — line 8. The
      // packing workspace is this block's private slice of the frame.
      const blas::GemmWorkspace gws = blas::typed_workspace(
          base + off_gemm_ws_ + sb * stride_gemm_ws_, stride_gemm_ws_);
      if (mode_ == 0) {
        // Column block of the column-major X(0): contiguous panel.
        blas::gemm(blas::Layout::ColMajor, blas::Trans::NoTrans,
                   blas::Trans::Trans, In_, C, r.size(), T{1},
                   X.data() + r.begin * In_, In_, Kt, C, T{0}, Mt, In_,
                   /*threads=*/1, gws);
      } else {
        // mode == N-1: X(N-1) is In x cols row-major (ld = cols); a column
        // block is a row block of its column-major transpose view.
        blas::gemm(blas::Layout::ColMajor, blas::Trans::Trans,
                   blas::Trans::Trans, In_, C, r.size(), T{1},
                   X.data() + r.begin, cols, Kt, C, T{0}, Mt, In_,
                   /*threads=*/1, gws);
      }
    }
  });
  reduce_partials(base + off_partials_, stride_partial_, nt_, M);
}

template void reduce_partials<double>(const double*, std::size_t, int,
                                      MatrixT<double>&);
template void reduce_partials<float>(const float*, std::size_t, int,
                                     MatrixT<float>&);
template class OneStepExternalT<double>;
template class OneStepExternalT<float>;

}  // namespace dmtk
