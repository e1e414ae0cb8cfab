#include "blas/gemm.hpp"

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <memory>
#include <vector>

#include "blas/cpu_features.hpp"
#include "blas/microkernel_avx2.hpp"
#include "blas/microkernel_avx512.hpp"
#include "blas/microkernel_scalar.hpp"
#include "blas/rank_panel.hpp"
#include "util/aligned_alloc.hpp"
#include "util/env.hpp"
#include "util/parallel.hpp"

namespace dmtk::blas {

namespace {

using detail::packed_a_elems;
using detail::packed_b_elems;
using detail::scale_columns;

// ---------------------------------------------------------------------------
// Micro-kernel dispatch
// ---------------------------------------------------------------------------

/// A selected register-tile kernel: full MR x NR tiles over packed panels
/// (see microkernel_scalar.hpp for the contract).
template <typename T>
struct MicroKernel {
  void (*fn)(index_t kc, T alpha, const T* Ap, const T* Bp, T* C, index_t ldc);
  index_t mr;
  index_t nr;
};

/// Generic types fall back to the portable tile.
template <typename T>
MicroKernel<T> select_kernel() {
  return {&microkernel_scalar<T, 4, 8>, 4, 8};
}

template <>
MicroKernel<double> select_kernel<double>() {
  switch (simd_level()) {
#if DMTK_HAVE_AVX2_KERNELS
    case SimdLevel::Avx2x4x8: return {&microkernel_avx2_d4x8, 4, 8};
    case SimdLevel::Avx2x8x8: return {&microkernel_avx2_d8x8, 8, 8};
#endif
#if DMTK_HAVE_AVX512_KERNELS
    case SimdLevel::Avx512x8x16: return {&microkernel_avx512_d8x16, 8, 16};
    case SimdLevel::Avx512x16x16:
      return {&microkernel_avx512_d16x16, 16, 16};
#endif
    default: break;
  }
  return {&microkernel_scalar<double, 4, 8>, 4, 8};
}

/// Float has one tile per family (8x8 = a full ymm of floats per strip,
/// 16x16 = a full zmm); both levels of a family select it, so a DMTK_SIMD
/// override steers float and double consistently.
template <>
MicroKernel<float> select_kernel<float>() {
  switch (simd_level()) {
#if DMTK_HAVE_AVX2_KERNELS
    case SimdLevel::Avx2x4x8:
    case SimdLevel::Avx2x8x8: return {&microkernel_avx2_f8x8, 8, 8};
#endif
#if DMTK_HAVE_AVX512_KERNELS
    case SimdLevel::Avx512x8x16:
    case SimdLevel::Avx512x16x16:
      return {&microkernel_avx512_f16x16, 16, 16};
#endif
    default: break;
  }
  return {&microkernel_scalar<float, 4, 8>, 4, 8};
}

// ---------------------------------------------------------------------------
// Workspace acquisition
// ---------------------------------------------------------------------------

std::atomic<std::size_t> g_internal_allocs{0};

/// Serve a workspace request of `need` elements of T: the caller's view
/// when it is big enough (base aligned up to a cache line — the SIMD
/// kernels use aligned loads on the packed A strips), otherwise a growable
/// per-type thread_local arena (growth events are counted so tests can
/// prove plan-driven call sites never land here). The arena belongs to the
/// CALLING thread; team workers index slices of it.
template <typename T>
T* acquire_ws(const GemmWorkspace& ws, std::size_t need) {
  if (ws.valid()) {
    // std::align bumps the base up to a cache line and checks the aligned
    // region still holds `need` elements — the whole cast-free form of the
    // old doubles-measured pointer arithmetic.
    void* p = ws.base;
    std::size_t space = ws.bytes;
    if (std::align(kDefaultAlignment, need * sizeof(T), p, space) !=
        nullptr) {
      return static_cast<T*>(p);
    }
  }
  // dmtk-lint: allow(hot-alloc): the no-workspace fallback arena —
  // thread_local, grown monotonically, amortized to zero steady-state
  // allocations (g_internal_allocs counts the growths for the tests).
  thread_local std::vector<T, AlignedAllocator<T>> arena;
  if (arena.size() < need) {
    arena.resize(need);
    g_internal_allocs.fetch_add(1, std::memory_order_relaxed);
  }
  return arena.data();
}

// ---------------------------------------------------------------------------
// Packing (runtime tile extents, strip-granular for cooperative packing)
// ---------------------------------------------------------------------------

/// Pack op(A)(i0:i0+mc, p0:p0+kc) into MR-row strips, zero-padding the last
/// partial strip so the micro-kernel never branches on the m edge. Packs
/// only strips s0, s0+sstep, ... — a thread team covers a panel by calling
/// with (t, nteam), a single owner with (0, 1).
template <typename T>
void pack_a(index_t MR, index_t mc, index_t kc, const T* A, index_t lda,
            Trans ta, index_t i0, index_t p0, T* Ap, index_t s0,
            index_t sstep) {
  const index_t nstrips = (mc + MR - 1) / MR;
  for (index_t s = s0; s < nstrips; s += sstep) {
    const index_t i = s * MR;
    const index_t mr = std::min<index_t>(MR, mc - i);
    T* dst = Ap + s * (MR * kc);
    if (ta == Trans::NoTrans) {
      const T* src = A + (i0 + i) + p0 * lda;
      for (index_t p = 0; p < kc; ++p) {
        const T* col = src + p * lda;
        for (index_t ii = 0; ii < mr; ++ii) dst[p * MR + ii] = col[ii];
        for (index_t ii = mr; ii < MR; ++ii) dst[p * MR + ii] = T{0};
      }
    } else {
      for (index_t p = 0; p < kc; ++p) {
        for (index_t ii = 0; ii < mr; ++ii) {
          dst[p * MR + ii] = A[(p0 + p) + (i0 + i + ii) * lda];
        }
        for (index_t ii = mr; ii < MR; ++ii) dst[p * MR + ii] = T{0};
      }
    }
  }
}

/// Pack op(B)(p0:p0+kc, j0:j0+nc) into NR-column strips, zero-padded on the
/// n edge; same strip-granular cooperation scheme as pack_a.
template <typename T>
void pack_b(index_t NR, index_t kc, index_t nc, const T* B, index_t ldb,
            Trans tb, index_t p0, index_t j0, T* Bp, index_t s0,
            index_t sstep) {
  const index_t nstrips = (nc + NR - 1) / NR;
  for (index_t s = s0; s < nstrips; s += sstep) {
    const index_t j = s * NR;
    const index_t nr = std::min<index_t>(NR, nc - j);
    T* dst = Bp + s * (NR * kc);
    if (tb == Trans::NoTrans) {
      for (index_t p = 0; p < kc; ++p) {
        const T* row = B + (p0 + p);
        for (index_t jj = 0; jj < nr; ++jj) {
          dst[p * NR + jj] = row[(j0 + j + jj) * ldb];
        }
        for (index_t jj = nr; jj < NR; ++jj) dst[p * NR + jj] = T{0};
      }
    } else {
      for (index_t p = 0; p < kc; ++p) {
        const T* col = B + (p0 + p) * ldb;
        for (index_t jj = 0; jj < nr; ++jj) {
          dst[p * NR + jj] = col[j0 + j + jj];
        }
        for (index_t jj = nr; jj < NR; ++jj) dst[p * NR + jj] = T{0};
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Macro-tile: packed panels -> C block
// ---------------------------------------------------------------------------

/// Run the kernel on one full-or-edge tile. Edge tiles go through a local
/// zeroed MR x NR buffer (the packed panels are already zero-padded, so the
/// kernel computes garbage-free values whose edge sub-block is the answer).
template <typename T>
inline void run_tile(const MicroKernel<T>& uk, index_t kc, T alpha,
                     const T* ap, const T* bp, T* C, index_t ldc, index_t mr,
                     index_t nr) {
  if (mr == uk.mr && nr == uk.nr) {
    uk.fn(kc, alpha, ap, bp, C, ldc);
    return;
  }
  alignas(kDefaultAlignment) T tmp[kGemmMaxMR * kGemmMaxNR];
  std::fill(tmp, tmp + uk.mr * uk.nr, T{0});
  uk.fn(kc, alpha, ap, bp, tmp, uk.mr);
  for (index_t j = 0; j < nr; ++j) {
    T* col = C + j * ldc;
    for (index_t i = 0; i < mr; ++i) col[i] += tmp[i + j * uk.mr];
  }
}

/// mc x nc block of C += alpha * packed-A . packed-B, sweeping NR column
/// strips jr0, jr0+jrstep, ... (a thread team splits the jr loop by calling
/// with (t, nteam)).
template <typename T>
void macro_tile(const MicroKernel<T>& uk, index_t mc, index_t nc, index_t kc,
                T alpha, const T* Ap, const T* Bp, T* C, index_t ldc,
                index_t jr0, index_t jrstep) {
  const index_t njr = (nc + uk.nr - 1) / uk.nr;
  for (index_t sj = jr0; sj < njr; sj += jrstep) {
    const index_t jr = sj * uk.nr;
    const index_t nr = std::min<index_t>(uk.nr, nc - jr);
    const T* bp = Bp + sj * (uk.nr * kc);
    for (index_t ir = 0; ir < mc; ir += uk.mr) {
      const index_t mr = std::min<index_t>(uk.mr, mc - ir);
      const T* ap = Ap + (ir / uk.mr) * (uk.mr * kc);
      run_tile(uk, kc, alpha, ap, bp, C + ir + jr * ldc, ldc, mr, nr);
    }
  }
}

// ---------------------------------------------------------------------------
// Sequential blocked kernel
// ---------------------------------------------------------------------------

/// C(m x n) <- alpha * op(A) * op(B) + beta * C on one thread, packing into
/// the caller-carved Ap/Bp blocks.
template <typename T>
void gemm_seq(const MicroKernel<T>& uk, Trans ta, Trans tb, index_t m,
              index_t n, index_t k, T alpha, const T* A, index_t lda,
              const T* B, index_t ldb, T beta, T* C, index_t ldc, T* Ap,
              T* Bp) {
  scale_columns(m, index_t{0}, n, beta, C, ldc);
  if (m == 0 || n == 0 || k == 0 || alpha == T{0}) return;
  for (index_t jc = 0; jc < n; jc += kGemmNC) {
    const index_t nc = std::min<index_t>(kGemmNC, n - jc);
    for (index_t pc = 0; pc < k; pc += kGemmKC) {
      const index_t kc = std::min<index_t>(kGemmKC, k - pc);
      pack_b(uk.nr, kc, nc, B, ldb, tb, pc, jc, Bp, 0, 1);
      for (index_t ic = 0; ic < m; ic += kGemmMC) {
        const index_t mc = std::min<index_t>(kGemmMC, m - ic);
        pack_a(uk.mr, mc, kc, A, lda, ta, ic, pc, Ap, 0, 1);
        macro_tile(uk, mc, nc, kc, alpha, Ap, Bp, C + ic + jc * ldc, ldc, 0,
                   1);
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Collaborative team kernel
// ---------------------------------------------------------------------------

/// One thread team, one shared packed-B panel per (jc, pc) block. The team
/// packs B cooperatively (NR strips split across threads), barriers, then:
///  - tall outputs (>= one MC block per thread): threads own MC row blocks
///    round-robin, each packing its block of A into its private slice —
///    B-packing work is shared instead of duplicated per thread as in the
///    pre-plan independent-slice scheme;
///  - short outputs: the whole team packs each A block cooperatively into
///    one shared slice and splits the NR column strips of the macro-tile.
/// Every barrier below is executed by every thread of the team (branch
/// conditions depend only on shapes), so the sequences cannot diverge.
template <typename T>
void gemm_team(const MicroKernel<T>& uk, Trans ta, Trans tb, index_t m,
               index_t n, index_t k, T alpha, const T* A, index_t lda,
               const T* B, index_t ldb, T beta, T* C, index_t ldc, int nt,
               T* Bp, T* Aslices, std::size_t a_elems) {
  parallel_region(nt, [&](int t, int nteam) {
    {
      const Range r = block_range(n, nteam, t);
      scale_columns(m, r.begin, r.end, beta, C, ldc);
    }
    team_barrier();
    const index_t n_ic = (m + kGemmMC - 1) / kGemmMC;
    const bool split_ic = n_ic >= static_cast<index_t>(nteam);
    T* my_a = Aslices + static_cast<std::size_t>(t) * a_elems;
    for (index_t jc = 0; jc < n; jc += kGemmNC) {
      const index_t nc = std::min<index_t>(kGemmNC, n - jc);
      for (index_t pc = 0; pc < k; pc += kGemmKC) {
        const index_t kc = std::min<index_t>(kGemmKC, k - pc);
        pack_b(uk.nr, kc, nc, B, ldb, tb, pc, jc, Bp, t, nteam);
        team_barrier();
        if (split_ic) {
          for (index_t bi = t; bi < n_ic; bi += nteam) {
            const index_t ic = bi * kGemmMC;
            const index_t mc = std::min<index_t>(kGemmMC, m - ic);
            pack_a(uk.mr, mc, kc, A, lda, ta, ic, pc, my_a, 0, 1);
            macro_tile(uk, mc, nc, kc, alpha, my_a, Bp, C + ic + jc * ldc,
                       ldc, 0, 1);
          }
          team_barrier();  // all reads of Bp done before the next repack
        } else {
          for (index_t ic = 0; ic < m; ic += kGemmMC) {
            const index_t mc = std::min<index_t>(kGemmMC, m - ic);
            pack_a(uk.mr, mc, kc, A, lda, ta, ic, pc, Aslices, t, nteam);
            team_barrier();
            macro_tile(uk, mc, nc, kc, alpha, Aslices, Bp, C + ic + jc * ldc,
                       ldc, t, nteam);
            team_barrier();  // Aslices (and, last round, Bp) reads done
          }
        }
      }
    }
  });
}

// ---------------------------------------------------------------------------
// Item runner shared by gemm() and gemm_batched()
// ---------------------------------------------------------------------------

/// Column-major driver core once layout/threading is resolved: runs on the
/// workspace carved as [Bp | A slice 0 | ... | A slice nt-1].
template <typename T>
void gemm_col(Trans ta, Trans tb, index_t m, index_t n, index_t k, T alpha,
              const T* A, index_t lda, const T* B, index_t ldb, T beta, T* C,
              index_t ldc, int nt, const GemmWorkspace& ws) {
  if (gemm_uses_rank_panel(tb, n, k)) {
    // Unpacked, no workspace. A team splits the rows once the product is
    // worth a fork/join (a quarter million multiply-adds).
    if (nt > 1 && m * n * k >= (index_t{1} << 18)) {
      detail::rank_panel_team(ta, m, n, k, alpha, A, lda, B, ldb, beta, C,
                              ldc, nt);
    } else {
      detail::rank_panel_seq(ta, m, n, k, alpha, A, lda, B, ldb, beta, C,
                             ldc);
    }
    return;
  }
  const MicroKernel<T> uk = select_kernel<T>();
  const std::size_t b_elems = std::max(packed_b_elems<T>(n, k),
                                       packed_b_elems<T>(m, k));
  const std::size_t a_elems = std::max(packed_a_elems<T>(m, k),
                                       packed_a_elems<T>(n, k));
  // One thread, or too little work to amortize a team: sequential kernel.
  const bool team = nt > 1 && m * n >= 4096;
  const std::size_t need = b_elems + (team ? static_cast<std::size_t>(nt) : 1)
                                         * a_elems;
  T* base = acquire_ws<T>(ws, need);
  T* Bp = base;
  T* Aslices = base + b_elems;
  if (!team) {
    gemm_seq(uk, ta, tb, m, n, k, alpha, A, lda, B, ldb, beta, C, ldc,
             Aslices, Bp);
  } else {
    gemm_team(uk, ta, tb, m, n, k, alpha, A, lda, B, ldb, beta, C, ldc,
              nt, Bp, Aslices, a_elems);
  }
}

template <typename T>
void check_gemm_args(Trans ta, Trans tb, index_t m, index_t n, index_t k,
                     index_t lda, index_t ldb, index_t ldc) {
  DMTK_CHECK(m >= 0 && n >= 0 && k >= 0, "gemm: negative dimension");
  DMTK_CHECK(ldc >= std::max<index_t>(1, m), "gemm: ldc too small");
  DMTK_CHECK(lda >= std::max<index_t>(1, ta == Trans::NoTrans ? m : k),
             "gemm: lda too small");
  DMTK_CHECK(ldb >= std::max<index_t>(1, tb == Trans::NoTrans ? k : n),
             "gemm: ldb too small");
}

}  // namespace

std::size_t gemm_internal_allocs() {
  return g_internal_allocs.load(std::memory_order_relaxed);
}

template <typename T>
void gemm(Layout layout, Trans ta, Trans tb, index_t m, index_t n, index_t k,
          T alpha, const T* A, index_t lda, const T* B, index_t ldb, T beta,
          T* C, index_t ldc, int threads, const GemmWorkspace& ws) {
  DMTK_CHECK(m >= 0 && n >= 0 && k >= 0, "gemm: negative dimension");
  // Row-major C = op(A)op(B) is column-major C^T = op(B)^T op(A)^T: swap the
  // operand roles and output dimensions and recurse into the col-major path.
  if (layout == Layout::RowMajor) {
    gemm(Layout::ColMajor, tb, ta, n, m, k, alpha, B, ldb, A, lda, beta, C,
         ldc, threads, ws);
    return;
  }
  check_gemm_args<T>(ta, tb, m, n, k, lda, ldb, ldc);
  if (m == 0 || n == 0) return;
  if (k == 0 || alpha == T{0}) {
    scale_columns(m, index_t{0}, n, beta, C, ldc);
    return;
  }
  gemm_col(ta, tb, m, n, k, alpha, A, lda, B, ldb, beta, C, ldc,
           resolve_threads(threads), ws);
}

template <typename T>
void gemm_batched(Layout layout, Trans ta, Trans tb, index_t m, index_t n,
                  index_t k, T alpha, const T* const* A, index_t lda,
                  const T* const* B, index_t ldb, T beta, T* const* C,
                  index_t ldc, index_t batch, int threads,
                  const GemmWorkspace& ws) {
  DMTK_CHECK(batch >= 0, "gemm_batched: negative batch");
  if (layout == Layout::RowMajor) {
    gemm_batched(Layout::ColMajor, tb, ta, n, m, k, alpha, B, ldb, A, lda,
                 beta, C, ldc, batch, threads, ws);
    return;
  }
  check_gemm_args<T>(ta, tb, m, n, k, lda, ldb, ldc);
  if (batch == 0 || m == 0 || n == 0) return;

  // Group structure: a maximal run of consecutive equal C pointers is one
  // accumulation group; beta applies at each group's first item only.
  auto first_of_group = [&](index_t i) {
    return i == 0 || C[i] != C[i - 1];
  };
  if (k == 0 || alpha == T{0}) {
    for (index_t i = 0; i < batch; ++i) {
      if (first_of_group(i)) scale_columns(m, index_t{0}, n, beta, C[i], ldc);
    }
    return;
  }

  const int nt = resolve_threads(threads);
  const MicroKernel<T> uk = select_kernel<T>();
  // Zero on the rank-panel path, which packs nothing (and never grows
  // the fallback arena).
  const bool panel = gemm_uses_rank_panel(tb, n, k);
  const std::size_t per = gemm_workspace_elems<T>(tb, m, n, k, 1);
  const std::size_t need =
      static_cast<std::size_t>(nt <= 1 ? 1 : nt) * per;
  T* ws_base = acquire_ws<T>(ws, need);
  const std::size_t b_elems = std::max(packed_b_elems<T>(n, k),
                                       packed_b_elems<T>(m, k));

  index_t ngroups = 0;
  for (index_t i = 0; i < batch; ++i) {
    if (first_of_group(i)) ++ngroups;
  }

  /// Item i on the row sub-range [i0, i0+mi) with this thread's workspace
  /// slice; beta_eff per the group contract.
  auto run_item = [&](index_t i, index_t i0, index_t mi, T* slice) {
    const T beta_eff = first_of_group(i) ? beta : T{1};
    const T* Ai = (ta == Trans::NoTrans) ? A[i] + i0 : A[i] + i0 * lda;
    if (panel) {
      detail::rank_panel_seq(ta, mi, n, k, alpha, Ai, lda, B[i], ldb,
                             beta_eff, C[i] + i0, ldc);
      return;
    }
    gemm_seq(uk, ta, tb, mi, n, k, alpha, Ai, lda, B[i], ldb, beta_eff,
             C[i] + i0, ldc, slice + b_elems, slice);
  };

  if (nt <= 1) {
    for (index_t i = 0; i < batch; ++i) run_item(i, 0, m, ws_base);
    return;
  }

  parallel_region(nt, [&](int t, int nteam) {
    // `per` is a whole number of cache lines (every component of the
    // sizing helper is line-rounded), so the slices stay line-aligned.
    T* slice = ws_base + static_cast<std::size_t>(t) * per;
    if (ngroups >= static_cast<index_t>(nteam)) {
      // Whole groups per thread: walk the batch tracking the group index
      // and execute the groups in this thread's block, items in order.
      const Range gr = block_range(ngroups, nteam, t);
      index_t g = -1;
      for (index_t i = 0; i < batch; ++i) {
        if (first_of_group(i)) ++g;
        if (g >= gr.end) break;
        if (g >= gr.begin) run_item(i, 0, m, slice);
      }
    } else {
      // Fewer groups than threads: split each group's rows across its
      // sub-team so no thread idles (the MoreThreadsThanBlocks shape of
      // the internal-mode MTTKRP). Thread t belongs to group g iff t lies
      // in block_range(nteam, ngroups, g).
      index_t g = 0;
      Range tb_range = block_range(nteam, static_cast<int>(ngroups), 0);
      while (static_cast<index_t>(t) >= tb_range.end && g + 1 < ngroups) {
        ++g;
        tb_range =
            block_range(nteam, static_cast<int>(ngroups), static_cast<int>(g));
      }
      if (static_cast<index_t>(t) >= tb_range.end) return;
      const int nsub = static_cast<int>(tb_range.size());
      const int sub = t - static_cast<int>(tb_range.begin);
      const Range rows = block_range(m, nsub, sub);
      if (rows.empty()) return;
      index_t gi = -1;
      for (index_t i = 0; i < batch; ++i) {
        if (first_of_group(i)) ++gi;
        if (gi > g) break;
        if (gi == g) run_item(i, rows.begin, rows.size(), slice);
      }
    }
  });
}

template void gemm<float>(Layout, Trans, Trans, index_t, index_t, index_t,
                          float, const float*, index_t, const float*, index_t,
                          float, float*, index_t, int, const GemmWorkspace&);
template void gemm<double>(Layout, Trans, Trans, index_t, index_t, index_t,
                           double, const double*, index_t, const double*,
                           index_t, double, double*, index_t, int,
                           const GemmWorkspace&);
template void gemm_batched<float>(Layout, Trans, Trans, index_t, index_t,
                                  index_t, float, const float* const*, index_t,
                                  const float* const*, index_t, float,
                                  float* const*, index_t, index_t, int,
                                  const GemmWorkspace&);
template void gemm_batched<double>(Layout, Trans, Trans, index_t, index_t,
                                   index_t, double, const double* const*,
                                   index_t, const double* const*, index_t,
                                   double, double* const*, index_t, index_t,
                                   int, const GemmWorkspace&);

}  // namespace dmtk::blas
