#include "exec/onestep_external.hpp"

#include <algorithm>

#include "blas/blas.hpp"
#include "core/krp_detail.hpp"
#include "util/parallel.hpp"

namespace dmtk {

namespace {

/// KRP rows per piece: the piece's C x P tile of the transposed KRP takes
/// 256 KiB of a 2 MiB L2, beside the blocks of X(n) the rank-panel GEMM
/// streams through it. At 282^3 f64 rank 25 (P = 1310) on a 4-core
/// AVX-512 Xeon, 128 and 192 KiB ran as fast and 512 KiB slower. Fixed by
/// (rank, T) alone, like the GEMM's own blocking.
template <typename T>
index_t l2_piece_rows(index_t C) {
  constexpr index_t kBudget = 256 * 1024;
  const index_t row_bytes = C * static_cast<index_t>(sizeof(T));
  return std::max<index_t>(1, kBudget / row_bytes);
}

/// Rows of M one GEMM call covers in a mode N-1 piece. A row-major X(N-1)
/// block streams best a few rows at a time, each row read along the whole
/// piece: at 282^3 f64 rank 25 on the same Xeon, groups of 32 took the
/// 1-step from 21 to 17.7 ms on one thread and 5.3 to 4.8 ms on four,
/// where 16, 48 and 64 gained less. A column-major X(0) piece runs whole:
/// its columns are In_ long, and cutting them measured slower.
constexpr index_t kRowGroup = 32;

}  // namespace

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
  // Pieces of l2_piece_rows<T>(C) KRP rows; a tail too short for the
  // rank-panel shape joins the piece before it, so a piece holds at most
  // piece_ + min_piece_ - 1 rows (or a whole block, if that is shorter).
  piece_ = l2_piece_rows<T>(C);
  min_piece_ = C <= blas::kRankPanelMaxN ? 4 * C : 1;
  const index_t tile_rows =
      std::min(ctx.max_block(cosize_), piece_ + min_piece_ - 1);
  stride_kt_ = WorkspaceArena::aligned_count<T>(
      static_cast<std::size_t>(C * tile_rows));
  off_kt_ = take(snt * stride_kt_);
  // Each piece runs a private sequential GEMM. A piece is either a whole
  // block (the shortest block may fall short of the rank-panel shape) or
  // at most tile_rows long, and the BLIS workspace grows with k, so these
  // two sizes cover every piece.
  stride_gemm_ws_ = WorkspaceArena::aligned_count<T>(std::max(
      blas::gemm_workspace_elems<T>(blas::Trans::Trans, In_, C, cosize_ / nt_,
                                    1),
      blas::gemm_workspace_elems<T>(blas::Trans::Trans, In_, C, tile_rows,
                                    1)));
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
  digits_ = detail::BlockDigits(nt_, Z);
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
      T* Kt = base + off_kt_ + sb * stride_kt_;
      T* P = base + off_p_ + sb * stride_p_;
      index_t* dg = digits_.block(b);
      const blas::GemmWorkspace gws = blas::typed_workspace(
          base + off_gemm_ws_ + sb * stride_gemm_ws_, stride_gemm_ws_);
      for (index_t p0 = r.begin; p0 < r.end;) {
        index_t p1 = std::min(r.end, p0 + piece_);
        if (r.end - p1 < min_piece_) p1 = r.end;
        // KRP rows [p0, p1) into the L2-resident tile (Alg 3 line 7), then
        // at once the GEMM against those columns of X(n) (line 8).
        detail::krp_rows_ws<T>(packed_, extents_, C, p0, p1, Kt, C, P, dg);
        const T beta = p0 == r.begin ? T{0} : T{1};
        if (mode_ == 0) {
          // Column block of the column-major X(0): contiguous panel.
          blas::gemm(blas::Layout::ColMajor, blas::Trans::NoTrans,
                     blas::Trans::Trans, In_, C, p1 - p0, T{1},
                     X.data() + p0 * In_, In_, Kt, C, beta, Mt, In_,
                     /*threads=*/1, gws);
        } else {
          // mode == N-1: X(N-1) is In x cols row-major (ld = cols); a
          // column block is a row block of its column-major transpose
          // view. Walked in groups of kRowGroup rows of M, each group's
          // rows of X streamed across the whole piece.
          for (index_t i0 = 0; i0 < In_; i0 += kRowGroup) {
            const index_t rows = std::min(kRowGroup, In_ - i0);
            blas::gemm(blas::Layout::ColMajor, blas::Trans::Trans,
                       blas::Trans::Trans, rows, C, p1 - p0, T{1},
                       X.data() + i0 * cols + p0, cols, Kt, C, beta, Mt + i0,
                       In_, /*threads=*/1, gws);
          }
        }
        p0 = p1;
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
