#include "exec/mttkrp_plan.hpp"

#include <algorithm>

#include "blas/blas.hpp"
#include "core/krp_detail.hpp"
#include "core/multi_index.hpp"
#include "core/reorder.hpp"
#include "core/ttv.hpp"
#include "util/parallel.hpp"

namespace dmtk {

namespace {

/// One KRP row read straight from the (unpacked) factors — the krp_row of
/// core/krp.cpp with caller-owned digit scratch.
template <typename T>
inline void krp_row_ws(const FactorListT<T>& fl,
                       std::span<const index_t> extents, index_t r, index_t C,
                       T* out, index_t* dg) {
  const std::size_t Z = fl.size();
  decompose_last_fastest(r, extents, {dg, Z});
  detail::load_row(*fl[0], dg[0], C, out);
  for (std::size_t z = 1; z < Z; ++z) {
    detail::hadamard_row(out, *fl[z], dg[z], C, out);
  }
}

}  // namespace

template <typename T>
MttkrpPlanT<T>::MttkrpPlanT(const ExecContext& ctx,
                            std::span<const index_t> dims, index_t rank,
                            index_t mode, MttkrpMethod method)
    : ctx_(&ctx),
      dims_(dims.begin(), dims.end()),
      rank_(rank),
      mode_(mode),
      requested_(method) {
  const index_t N = static_cast<index_t>(dims_.size());
  DMTK_CHECK(N >= 2, "mttkrp: tensor must have at least 2 modes");
  DMTK_CHECK(mode >= 0 && mode < N, "mttkrp: bad mode");
  DMTK_CHECK(rank >= 1, "mttkrp: rank must be positive");
  for (index_t d : dims_) {
    DMTK_CHECK(d >= 1, "mttkrp: extents must be positive");
  }

  In_ = dims_[static_cast<std::size_t>(mode)];
  ILn_ = 1;
  for (index_t n = 0; n < mode; ++n) ILn_ *= dims_[static_cast<std::size_t>(n)];
  IRn_ = 1;
  for (index_t n = mode + 1; n < N; ++n) {
    IRn_ *= dims_[static_cast<std::size_t>(n)];
  }
  cosize_ = ILn_ * IRn_;
  nt_ = ctx.threads();

  if (requested_ == MttkrpMethod::Auto) {
    // The dimension tree's root-to-leaf path for this mode: one
    // full-tensor GEMM at the balanced split plus the small contractions
    // below it, or the 1-step kernel alone when the mode is a child of the
    // root. Reported as the method it amounts to.
    tree_.emplace(ctx, dims_, rank_);
    resolved_ = tree_->root_leaf(mode) ? MttkrpMethod::OneStep
                                       : MttkrpMethod::TwoStep;
    twostep_left_ = tree_->contracts_left(mode);
    ws_elems_ = tree_->workspace_elems();
    ctx.arena().template reserve<T>(ws_elems_);
    return;
  }
  resolved_ = requested_;
  // Alg. 4's side decision: left partial first iff the left co-space is
  // larger.
  twostep_left_ = ILn_ > IRn_;

  // Factor-list layouts in the product orders of core/krp.cpp.
  for (index_t n = N; n-- > 0;) {
    if (n != mode) {
      full_.extents.push_back(dims_[static_cast<std::size_t>(n)]);
    }
  }
  for (index_t n = mode; n-- > 0;) {
    left_.extents.push_back(dims_[static_cast<std::size_t>(n)]);
  }
  for (index_t n = N; n-- > mode + 1;) {
    right_.extents.push_back(dims_[static_cast<std::size_t>(n)]);
  }
  for (KrpLayout* lay : {&full_, &left_, &right_}) {
    lay->rows = 1;
    for (index_t e : lay->extents) lay->rows *= e;
  }

  fl_full_.resize(full_.extents.size());
  fl_left_.resize(left_.extents.size());
  fl_right_.resize(right_.extents.size());
  if (resolved_ == MttkrpMethod::OneStep && mode_ > 0 && mode_ < N - 1) {
    // Internal-mode batched-GEMM item pointers (filled per execute()).
    batch_a_.resize(static_cast<std::size_t>(IRn_));
    batch_b_.resize(static_cast<std::size_t>(IRn_));
    batch_c_.resize(static_cast<std::size_t>(IRn_));
  }
  packed_full_.resize(full_.extents.size());
  packed_left_.resize(left_.extents.size());
  packed_right_.resize(right_.extents.size());
  digits_stride_ = static_cast<std::size_t>(N);
  digits_.assign(static_cast<std::size_t>(nt_) * digits_stride_, 0);
  ref_idx_.assign(static_cast<std::size_t>(N), 0);

  plan_workspace();
  ctx.arena().template reserve<T>(ws_elems_);
}

template <typename T>
void MttkrpPlanT<T>::plan_workspace() {
  const index_t C = rank_;
  const index_t N = static_cast<index_t>(dims_.size());
  const std::size_t snt = static_cast<std::size_t>(nt_);
  std::size_t top = 0;
  auto take = [&top](std::size_t elems) {
    const std::size_t off = top;
    top += WorkspaceArena::aligned_count<T>(elems);
    return off;
  };
  auto plan_packed = [&](KrpLayout& lay) {
    lay.packed_off.resize(lay.extents.size());
    for (std::size_t z = 0; z < lay.extents.size(); ++z) {
      lay.packed_off[z] =
          take(static_cast<std::size_t>(lay.extents[z] * C));
    }
  };
  // Per-thread partial-Hadamard table: C elements per reusable partial.
  std::size_t p_elems = 0;
  auto p_need = [&](const KrpLayout& lay) {
    if (lay.extents.size() >= 3) {
      p_elems = std::max(
          p_elems, static_cast<std::size_t>(C) * (lay.extents.size() - 2));
    }
  };

  // BLAS packing workspace for the method's GEMM calls, carved from the
  // same frame so the blocked kernel runs heap-free (gemm_workspace.hpp).
  // The MTTKRP products (B^T = the transposed KRP) need none when they take
  // the rank-panel path; Reorder's NoTrans product always packs.
  auto plan_gemm_ws = [&](blas::Trans tb, index_t gm, index_t gk) {
    gemm_ws_elems_ = blas::gemm_workspace_elems<T>(tb, gm, C, gk, nt_);
    off_gemm_ws_ = take(gemm_ws_elems_);
  };

  switch (resolved_) {
    case MttkrpMethod::Reference:
      break;  // only the small member index scratch
    case MttkrpMethod::Reorder:
      off_xn_ = take(static_cast<std::size_t>(In_ * cosize_));
      off_kcol_ = take(static_cast<std::size_t>(cosize_ * C));
      // Two ping-pong Kronecker accumulators of up to cosize elements.
      off_acc_ = take(2 * WorkspaceArena::aligned_count<T>(
                              static_cast<std::size_t>(cosize_)));
      plan_gemm_ws(blas::Trans::NoTrans, In_, cosize_);
      break;
    case MttkrpMethod::OneStep:
      if (mode_ == 0 || mode_ == N - 1) {
        // The shared external-mode kernel lays out the whole frame
        // (exec/onestep_external.hpp).
        external_.emplace(*ctx_, dims_, rank_, mode_);
        top = external_->workspace_elems();
      } else {
        plan_packed(left_);
        p_need(left_);
        off_klt_ = take(static_cast<std::size_t>(C * ILn_));
        // All I_Rn per-block KRP tiles, materialized for the batched GEMM
        // sweep (block j occupies columns [j*ILn, (j+1)*ILn) of the full
        // transposed KRP). Costs the same C x cosize the external modes'
        // per-thread tiles already put in the shared arena.
        off_kt_full_ = take(static_cast<std::size_t>(C * cosize_));
        stride_thread_row_ =
            WorkspaceArena::aligned_count<T>(static_cast<std::size_t>(C));
        off_thread_row_ = take(snt * stride_thread_row_);
        gemm_ws_elems_ = blas::gemm_batched_workspace_elems<T>(
            blas::Trans::Trans, In_, C, ILn_, nt_);
        off_gemm_ws_ = take(gemm_ws_elems_);
        stride_partial_ = WorkspaceArena::aligned_count<T>(
            static_cast<std::size_t>(In_ * C));
        off_partials_ = take(snt * stride_partial_);
      }
      break;
    case MttkrpMethod::TwoStep:
      if (mode_ > 0) {
        plan_packed(left_);
        p_need(left_);
        off_klt_ = take(static_cast<std::size_t>(C * ILn_));
      }
      if (mode_ < N - 1) {
        plan_packed(right_);
        p_need(right_);
        off_krt_ = take(static_cast<std::size_t>(C * IRn_));
      }
      if (twostep_is_defined(N, mode_)) {
        const index_t inter_rows = twostep_left_ ? In_ * IRn_ : ILn_ * In_;
        off_inter_ = take(static_cast<std::size_t>(inter_rows * C));
        plan_gemm_ws(blas::Trans::Trans, inter_rows,
                     twostep_left_ ? ILn_ : IRn_);
      } else {
        // Degenerate externals: the one partial-MTTKRP GEMM is the answer.
        plan_gemm_ws(blas::Trans::Trans, In_, mode_ == 0 ? IRn_ : ILn_);
      }
      break;
    case MttkrpMethod::Acc64:
      plan_packed(full_);
      p_need(full_);
      off_kt_full_ = take(static_cast<std::size_t>(C * cosize_));
      // One C-wide fp64 accumulator per planned block, carved in T units.
      // Page-strided so a neighbour's hot accumulator lies beyond the reach
      // of the hardware prefetchers: with cache-line-granular slots the
      // 4-thread kernel ran ~2x slower on a 4-core x86 host.
      {
        constexpr std::size_t kPage = 4096;
        static_assert(sizeof(double) % sizeof(T) == 0);
        const std::size_t bytes = static_cast<std::size_t>(C) * sizeof(double);
        stride_thread_acc_ = (bytes + kPage - 1) / kPage * (kPage / sizeof(T));
      }
      off_thread_acc_ = take(snt * stride_thread_acc_);
      break;
    case MttkrpMethod::Auto:
      break;  // unreachable: Auto plans run the tree
  }
  if (p_elems > 0) {
    stride_thread_p_ = WorkspaceArena::aligned_count<T>(p_elems);
    off_thread_p_ = take(snt * stride_thread_p_);
  }
  ws_elems_ = top;
}

template <typename T>
void MttkrpPlanT<T>::gather_factors(std::span<const MatrixT<T>> factors,
                                    List which, FactorListT<T>& fl) const {
  // Orders match the layout construction in the constructor (and the
  // mttkrp_krp_factors / left_krp_factors / right_krp_factors helpers).
  const index_t N = static_cast<index_t>(factors.size());
  std::size_t i = 0;
  switch (which) {
    case List::Full:
      for (index_t n = N; n-- > 0;) {
        if (n != mode_) fl[i++] = &factors[static_cast<std::size_t>(n)];
      }
      break;
    case List::Left:
      for (index_t n = mode_; n-- > 0;) {
        fl[i++] = &factors[static_cast<std::size_t>(n)];
      }
      break;
    case List::Right:
      for (index_t n = N; n-- > mode_ + 1;) {
        fl[i++] = &factors[static_cast<std::size_t>(n)];
      }
      break;
  }
}

template <typename T>
void MttkrpPlanT<T>::pack(const FactorListT<T>& fl, const KrpLayout& lay,
                          T* base, std::vector<const T*>& packed) const {
  for (std::size_t z = 0; z < fl.size(); ++z) {
    T* P = base + lay.packed_off[z];
    detail::pack_factor_transposed(*fl[z], rank_, P);
    packed[z] = P;
  }
}

template <typename T>
void MttkrpPlanT<T>::krp_transposed_ws(const KrpLayout& lay,
                                       std::span<const T* const> packed,
                                       T* base, std::size_t off) {
  detail::krp_transposed_blocks<T>(packed, lay.extents, rank_, lay.rows,
                                   nt_, base + off, base + off_thread_p_,
                                   stride_thread_p_, digits_.data(),
                                   digits_stride_);
}

template <typename T>
void MttkrpPlanT<T>::execute(const TensorT<T>& X,
                             std::span<const MatrixT<T>> factors,
                             MatrixT<T>& M) {
  const index_t N = static_cast<index_t>(dims_.size());
  DMTK_CHECK(X.order() == N, "mttkrp plan: tensor order mismatch");
  for (index_t n = 0; n < N; ++n) {
    DMTK_CHECK(X.dim(n) == dims_[static_cast<std::size_t>(n)],
               "mttkrp plan: tensor extents differ from the planned shape");
  }
  DMTK_CHECK(static_cast<index_t>(factors.size()) == N,
             "mttkrp: need one factor matrix per mode");
  for (index_t n = 0; n < N; ++n) {
    const MatrixT<T>& U = factors[static_cast<std::size_t>(n)];
    DMTK_CHECK(U.cols() == rank_, "mttkrp: factors disagree on rank");
    DMTK_CHECK(U.rows() == X.dim(n), "mttkrp: factor rows != mode size");
  }
  if (M.rows() != In_ || M.cols() != rank_) M = MatrixT<T>(In_, rank_);

  WorkspaceArena::Frame frame(ctx_->arena());
  T* base = ws_elems_ > 0 ? frame.template alloc<T>(ws_elems_) : nullptr;

  if (tree_) {
    tree_->begin(base);
    tree_->mttkrp(mode_, X, factors, M);
    return;
  }
  switch (resolved_) {
    case MttkrpMethod::Reference:
      exec_reference(X, factors, M);
      break;
    case MttkrpMethod::Reorder:
      exec_reorder(X, factors, M, base);
      break;
    case MttkrpMethod::OneStep:
      if (mode_ == 0 || mode_ == N - 1) {
        external_->run(X, factors, M, base);
      } else {
        exec_onestep_internal(X, factors, M, base);
      }
      break;
    case MttkrpMethod::TwoStep:
      exec_twostep(X, factors, M, base);
      break;
    case MttkrpMethod::Acc64:
      exec_acc64(X, factors, M, base);
      break;
    case MttkrpMethod::Auto:
      break;  // unreachable: Auto plans run the tree
  }
}

// ---------------------------------------------------------------------------
// Reference: element-wise oracle.
// ---------------------------------------------------------------------------
template <typename T>
void MttkrpPlanT<T>::exec_reference(const TensorT<T>& X,
                                    std::span<const MatrixT<T>> factors,
                                    MatrixT<T>& M) {
  const index_t N = static_cast<index_t>(dims_.size());
  const index_t C = rank_;
  M.set_zero();
  const index_t I = X.numel();
  for (index_t l = 0; l < I; ++l) {
    decompose_first_fastest(l, dims_, ref_idx_);
    const T x = X[l];
    for (index_t c = 0; c < C; ++c) {
      T w = x;
      for (index_t n = 0; n < N; ++n) {
        if (n != mode_) {
          w *= factors[static_cast<std::size_t>(n)](
              ref_idx_[static_cast<std::size_t>(n)], c);
        }
      }
      M(ref_idx_[static_cast<std::size_t>(mode_)], c) += w;
    }
  }
}

// ---------------------------------------------------------------------------
// Reorder: explicit matricization + explicit column-wise KRP + one GEMM
// (Bader & Kolda; the Tensor-Toolbox kernel).
// ---------------------------------------------------------------------------
template <typename T>
void MttkrpPlanT<T>::exec_reorder(const TensorT<T>& X,
                                  std::span<const MatrixT<T>> factors,
                                  MatrixT<T>& M, T* base) {
  const index_t C = rank_;
  T* Xn = base + off_xn_;
  matricize_into(X, mode_, Xn, nt_);
  T* K = base + off_kcol_;
  // Column c of K is the Kronecker product of the factor columns, built
  // by repeated expansion exactly like krp_columnwise / Tensor Toolbox's
  // khatrirao (last factor fastest), with ping-pong accumulators.
  gather_factors(factors, List::Full, fl_full_);
  T* acc = base + off_acc_;
  T* next = acc + WorkspaceArena::aligned_count<T>(
                      static_cast<std::size_t>(cosize_));
  for (index_t c = 0; c < C; ++c) {
    acc[0] = T{1};
    index_t len = 1;
    for (const MatrixT<T>* F : fl_full_) {
      const index_t Jz = F->rows();
      const T* col = F->col(c).data();
      index_t o = 0;
      for (index_t a = 0; a < len; ++a) {
        for (index_t i = 0; i < Jz; ++i) next[o++] = acc[a] * col[i];
      }
      len *= Jz;
      std::swap(acc, next);
    }
    blas::copy(len, acc, index_t{1}, K + c * cosize_, index_t{1});
  }
  blas::gemm(blas::Layout::ColMajor, blas::Trans::NoTrans,
             blas::Trans::NoTrans, In_, C, cosize_, T{1}, Xn, In_, K, cosize_,
             T{0}, M.data(), M.ld(), nt_,
             blas::typed_workspace(base + off_gemm_ws_, gemm_ws_elems_));
}

// ---------------------------------------------------------------------------
// Algorithm 3: parallel 1-step, internal modes (the external ones run the
// kernel of exec/onestep_external.cpp).
// ---------------------------------------------------------------------------
template <typename T>
void MttkrpPlanT<T>::exec_onestep_internal(const TensorT<T>& X,
                                           std::span<const MatrixT<T>> factors,
                                           MatrixT<T>& M, T* base) {
  const index_t C = rank_;

  // Left KRP precomputed in parallel (Alg 3 line 11).
  gather_factors(factors, List::Left, fl_left_);
  pack(fl_left_, left_, base, packed_left_);
  krp_transposed_ws(left_, packed_left_, base, off_klt_);
  const T* KLt = base + off_klt_;
  gather_factors(factors, List::Right, fl_right_);

  // Materialize every per-block KRP tile: tile j is row j of the right KRP
  // (line 14) Hadamard-scaled against the shared left KRP (line 15), and
  // lands at columns [j*ILn, (j+1)*ILn) of the full transposed KRP buffer.
  // Strided over the planned nt_ partitions (see exec_onestep_external);
  // the zero-fill of ALL nt_ partial outputs rides along so every slot
  // reads as zero in the reduction even when its block is empty.
  T* Kt = base + off_kt_full_;
  parallel_region(nt_, [&](int t, int nteam) {
    for (int b = t; b < nt_; b += nteam) {
      const std::size_t sb = static_cast<std::size_t>(b);
      const Range r = block_range(IRn_, nt_, b);
      T* Mt = base + off_partials_ + sb * stride_partial_;
      std::fill(Mt, Mt + In_ * C, T{0});
      if (r.empty()) continue;
      T* krrow = base + off_thread_row_ + sb * stride_thread_row_;
      index_t* dg = digits_.data() + sb * digits_stride_;
      for (index_t j = r.begin; j < r.end; ++j) {
        T* Ktile = Kt + j * ILn_ * C;
        krp_row_ws(fl_right_, right_.extents, j, C, krrow, dg);
        for (index_t rl = 0; rl < ILn_; ++rl) {
          blas::hadamard(C, krrow, KLt + rl * C, Ktile + rl * C);
        }
      }
    }
  });

  // One batched sweep over the I_Rn per-block multiplies (line 16): item j
  // accumulates X(n)[j] * K[j] into the partial owned by j's planned
  // block, so consecutive items share an output — gemm_batched's
  // accumulation-group contract — and the partials reduce exactly as
  // before. The sweep keeps the whole team busy even when I_Rn < nt
  // (the batched kernel splits rows inside the groups).
  {
    index_t j = 0;
    for (int b = 0; b < nt_; ++b) {
      const Range r = block_range(IRn_, nt_, b);
      T* Mt =
          base + off_partials_ + static_cast<std::size_t>(b) * stride_partial_;
      for (; j < r.end; ++j) {
        const std::size_t sj = static_cast<std::size_t>(j);
        batch_a_[sj] = X.mode_block(mode_, j);  // In x ILn row-major
        batch_b_[sj] = Kt + j * ILn_ * C;
        batch_c_[sj] = Mt;
      }
    }
    blas::gemm_batched(blas::Layout::ColMajor, blas::Trans::Trans,
                       blas::Trans::Trans, In_, C, ILn_, T{1}, batch_a_.data(),
                       ILn_, batch_b_.data(), C, T{1}, batch_c_.data(), In_,
                       IRn_, nt_,
                       blas::typed_workspace(base + off_gemm_ws_,
                                             gemm_ws_elems_));
  }
  reduce_partials(base + off_partials_, stride_partial_, nt_, M);
}

// ---------------------------------------------------------------------------
// Algorithm 4: 2-step (Phan et al.).
// ---------------------------------------------------------------------------
template <typename T>
void MttkrpPlanT<T>::exec_twostep(const TensorT<T>& X,
                                  std::span<const MatrixT<T>> factors,
                                  MatrixT<T>& M, T* base) {
  const index_t N = static_cast<index_t>(dims_.size());
  const index_t C = rank_;

  // Partial KRPs (lines 2-3). External modes have one empty side.
  if (mode_ > 0) {
    gather_factors(factors, List::Left, fl_left_);
    pack(fl_left_, left_, base, packed_left_);
    krp_transposed_ws(left_, packed_left_, base, off_klt_);
  }
  if (mode_ < N - 1) {
    gather_factors(factors, List::Right, fl_right_);
    pack(fl_right_, right_, base, packed_right_);
    krp_transposed_ws(right_, packed_right_, base, off_krt_);
  }
  const T* KLt = base + off_klt_;
  const T* KRt = base + off_krt_;
  const blas::GemmWorkspace gws =
      blas::typed_workspace(base + off_gemm_ws_, gemm_ws_elems_);

  if (mode_ == 0) {
    // Degenerate: the right partial MTTKRP IS the answer (full MTTKRP).
    blas::gemm(blas::Layout::ColMajor, blas::Trans::NoTrans,
               blas::Trans::Trans, In_, C, IRn_, T{1}, X.data(), In_, KRt, C,
               T{0}, M.data(), M.ld(), nt_, gws);
    return;
  }
  if (mode_ == N - 1) {
    // Degenerate: the left partial MTTKRP is the answer.
    blas::gemm(blas::Layout::ColMajor, blas::Trans::Trans, blas::Trans::Trans,
               In_, C, ILn_, T{1}, X.data(), ILn_, KLt, C, T{0}, M.data(),
               M.ld(), nt_, gws);
    return;
  }

  T* inter = base + off_inter_;
  if (twostep_left_) {
    // L(0:N-n-1) = X(0:n-1)^T * K_L (line 5): X(0:n-1) is I_Ln x (I_n I_Rn)
    // column-major, so the product is one GEMM with A transposed.
    blas::gemm(blas::Layout::ColMajor, blas::Trans::Trans, blas::Trans::Trans,
               In_ * IRn_, C, ILn_, T{1}, X.data(), ILn_, KLt, C, T{0}, inter,
               In_ * IRn_, nt_, gws);
    multi_ttv_left(inter, In_, IRn_, C, KRt, C, M, nt_);
  } else {
    // R(0:n) = X(0:n) * K_R (line 11): X(0:n) is (I_Ln I_n) x I_Rn
    // column-major.
    blas::gemm(blas::Layout::ColMajor, blas::Trans::NoTrans, blas::Trans::Trans,
               ILn_ * In_, C, IRn_, T{1}, X.data(), ILn_ * In_, KRt, C, T{0},
               inter, ILn_ * In_, nt_, gws);
    multi_ttv_right(inter, In_, ILn_, C, KLt, C, M, nt_);
  }
}

// ---------------------------------------------------------------------------
// Acc64: full transposed KRP, then a row-owned inner product summed in fp64.
// ---------------------------------------------------------------------------
template <typename T>
void MttkrpPlanT<T>::exec_acc64(const TensorT<T>& X,
                                std::span<const MatrixT<T>> factors,
                                MatrixT<T>& M, T* base) {
  const index_t C = rank_;
  gather_factors(factors, List::Full, fl_full_);
  pack(fl_full_, full_, base, packed_full_);
  krp_transposed_ws(full_, packed_full_, base, off_kt_full_);
  const T* Kt = base + off_kt_full_;

  // Each planned block owns whole output rows i and sums each one across
  // every natural block of X(mode) in its own C-wide fp64 accumulator,
  // widening the stored operands per product. No reduction, and an
  // entry's summation order never depends on the team size.
  parallel_region(nt_, [&](int t, int nteam) {
    for (int b = t; b < nt_; b += nteam) {
      const std::size_t sb = static_cast<std::size_t>(b);
      const Range r = block_range(In_, nt_, b);
      double* acc = static_cast<double*>(static_cast<void*>(
          base + off_thread_acc_ + sb * stride_thread_acc_));
      for (index_t i = r.begin; i < r.end; ++i) {
        std::fill(acc, acc + C, 0.0);
        for (index_t j = 0; j < IRn_; ++j) {
          const T* xrow = X.mode_block(mode_, j) + i * ILn_;
          const T* kt = Kt + j * ILn_ * C;
          for (index_t l = 0; l < ILn_; ++l) {
            const double x = static_cast<double>(xrow[l]);
            const T* kcol = kt + l * C;
            for (index_t c = 0; c < C; ++c) {
              acc[c] += x * static_cast<double>(kcol[c]);
            }
          }
        }
        // One rounding per output entry: fp64 accumulator -> T.
        for (index_t c = 0; c < C; ++c) M(i, c) = static_cast<T>(acc[c]);
      }
    }
  });
}

template class MttkrpPlanT<double>;
template class MttkrpPlanT<float>;

}  // namespace dmtk
