#include "blas/rank_panel.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <type_traits>
#include <utility>

#include "blas/cpu_features.hpp"
#include "blas/gemm_workspace.hpp"
#include "util/parallel.hpp"

#if defined(__x86_64__) || defined(__i386__)
#define DMTK_RANK_PANEL_X86 1
#include <immintrin.h>
#else
#define DMTK_RANK_PANEL_X86 0
#endif

// Fixed-count loops over a tile's accumulators must unroll completely, or
// the accumulator arrays live in memory instead of registers.
#if defined(__clang__)
#define DMTK_UNROLL _Pragma("unroll")
#else
#define DMTK_UNROLL _Pragma("GCC unroll 16")
#endif

/// Tile shapes per SIMD family (W = lanes per vector register):
///
///  column-major A (ta == NoTrans, op(A)(i, p) = A[i + p*lda])
///    vectors run down the rows of C: a tile is 2W rows by w columns,
///    w <= 6 (AVX2, 16 ymm) or w <= 12 (AVX-512, 32 zmm); per k step it
///    loads two vectors of A's column and broadcasts w values of B^T's
///    row. Rows past m are masked, never padded.
///  row-major A (ta == Trans, op(A)(i, p) = A[i*lda + p])
///    vectors run along the columns of C: a tile is r <= 4 (AVX2) or 8
///    (AVX-512) rows by v <= 3 vectors; per k step it loads v vectors of
///    B^T's row and broadcasts one value of each of A's r rows. The last
///    vector is masked to n, so only its unused lanes are idle.
///  scalar: the same loops one element wide, 4 x w <= 4 tiles.
///
/// n is split into the fewest chunks the widest tile allows, of near-equal
/// widths (n = 25 on AVX2: five 8 x 5 tiles across, not four 8 x 8 with 7
/// zero columns).

namespace dmtk::blas::detail {

namespace {

/// One register tile: C(0:rows, 0:cols) += alpha * op(A)(0:rows, 0:kc) *
/// B^T(0:kc, 0:cols), with B^T(p, j) = B[j + p*ldb].
template <typename T>
using TileFn = void (*)(index_t kc, T alpha, const T* A, index_t lda,
                        const T* B, index_t ldb, T* C, index_t ldc,
                        index_t rows, index_t cols);

inline constexpr int kMaxWidth = 12;  // widest column-major tile
inline constexpr int kMaxRowsT = 8;   // tallest row-major tile
inline constexpr int kMaxVecsT = 4;   // most vectors across a row-major tile

/// A SIMD family's tiles for one scalar type.
template <typename T>
struct PanelKernels {
  index_t mr_n = 0;    // column-major A: tile height
  index_t nr_max = 0;  //   widest tile; nt[w] is the w-column tile
  std::array<TileFn<T>, kMaxWidth + 1> nt{};
  index_t mr_t = 0;    // row-major A: tile height (a power of two)
  index_t lanes = 0;   //   columns per vector
  index_t nv_max = 0;  //   most vectors; tt[v][r] is the r-row, v-vector tile
  std::array<std::array<TileFn<T>, kMaxRowsT + 1>, kMaxVecsT + 1> tt{};
};

template <typename F, std::size_t... I>
void for_each_index(F&& f, std::index_sequence<I...>) {
  (f(std::integral_constant<int, static_cast<int>(I) + 1>{}), ...);
}

// ---------------------------------------------------------------------------
// Scalar family
// ---------------------------------------------------------------------------

template <typename T, int R, int NR, bool TransA>
void scalar_body(index_t kc, T alpha, const T* A, index_t lda, const T* B,
                 index_t ldb, T* C, index_t ldc) {
  const index_t rs = TransA ? lda : 1;
  const index_t cs = TransA ? 1 : lda;
  T acc[R][NR] = {};
  for (index_t p = 0; p < kc; ++p) {
    const T* b = B + p * ldb;
    DMTK_UNROLL
    for (int i = 0; i < R; ++i) {
      const T a = A[i * rs + p * cs];
      DMTK_UNROLL
      for (int j = 0; j < NR; ++j) acc[i][j] += a * b[j];
    }
  }
  for (int j = 0; j < NR; ++j) {
    T* col = C + j * ldc;
    for (int i = 0; i < R; ++i) col[i] += alpha * acc[i][j];
  }
}

/// 4 x NR tile; shorter row tails get their own fully unrolled body.
template <typename T, int NR, bool TransA>
void scalar_tile(index_t kc, T alpha, const T* A, index_t lda, const T* B,
                 index_t ldb, T* C, index_t ldc, index_t rows, index_t) {
  using Body = void (*)(index_t, T, const T*, index_t, const T*, index_t, T*,
                        index_t);
  constexpr Body kBodies[] = {
      &scalar_body<T, 1, NR, TransA>, &scalar_body<T, 2, NR, TransA>,
      &scalar_body<T, 3, NR, TransA>, &scalar_body<T, 4, NR, TransA>};
  kBodies[rows - 1](kc, alpha, A, lda, B, ldb, C, ldc);
}

template <typename T>
PanelKernels<T> scalar_kernels() {
  PanelKernels<T> pk;
  pk.mr_n = 4;
  pk.nr_max = 4;
  pk.mr_t = 4;
  pk.lanes = 1;
  pk.nv_max = 4;
  for_each_index(
      [&](auto w) {
        pk.nt[w] = &scalar_tile<T, w, false>;
        for (int r = 1; r <= 4; ++r) pk.tt[w][r] = &scalar_tile<T, w, true>;
      },
      std::make_index_sequence<4>{});
  return pk;
}

#if DMTK_RANK_PANEL_X86

// ---------------------------------------------------------------------------
// AVX2 family
// ---------------------------------------------------------------------------

#define DMTK_AVX2 __attribute__((target("avx2,fma")))
#define DMTK_AVX2_INLINE __attribute__((target("avx2,fma"), always_inline))

struct Avx2D {
  using T = double;
  using V = __m256d;
  using M = __m256i;
  static constexpr int W = 4;
  DMTK_AVX2_INLINE static V zero() { return _mm256_setzero_pd(); }
  DMTK_AVX2_INLINE static V load(const T* p) { return _mm256_loadu_pd(p); }
  DMTK_AVX2_INLINE static V loadm(const T* p, M m) {
    return _mm256_maskload_pd(p, m);
  }
  DMTK_AVX2_INLINE static void store(T* p, V v) { _mm256_storeu_pd(p, v); }
  DMTK_AVX2_INLINE static void storem(T* p, M m, V v) {
    _mm256_maskstore_pd(p, m, v);
  }
  DMTK_AVX2_INLINE static V bcast(const T* p) {
    return _mm256_broadcast_sd(p);
  }
  DMTK_AVX2_INLINE static V fma(V a, V b, V c) {
    return _mm256_fmadd_pd(a, b, c);
  }
  /// Lanes [0, n) on; n <= 0 gives an empty mask.
  DMTK_AVX2_INLINE static M mask(index_t n) {
    return _mm256_cmpgt_epi64(_mm256_set1_epi64x(n),
                              _mm256_setr_epi64x(0, 1, 2, 3));
  }
};

struct Avx2F {
  using T = float;
  using V = __m256;
  using M = __m256i;
  static constexpr int W = 8;
  DMTK_AVX2_INLINE static V zero() { return _mm256_setzero_ps(); }
  DMTK_AVX2_INLINE static V load(const T* p) { return _mm256_loadu_ps(p); }
  DMTK_AVX2_INLINE static V loadm(const T* p, M m) {
    return _mm256_maskload_ps(p, m);
  }
  DMTK_AVX2_INLINE static void store(T* p, V v) { _mm256_storeu_ps(p, v); }
  DMTK_AVX2_INLINE static void storem(T* p, M m, V v) {
    _mm256_maskstore_ps(p, m, v);
  }
  DMTK_AVX2_INLINE static V bcast(const T* p) {
    return _mm256_broadcast_ss(p);
  }
  DMTK_AVX2_INLINE static V fma(V a, V b, V c) {
    return _mm256_fmadd_ps(a, b, c);
  }
  DMTK_AVX2_INLINE static M mask(index_t n) {
    const int c = static_cast<int>(std::clamp<index_t>(n, 0, W));
    return _mm256_cmpgt_epi32(_mm256_set1_epi32(c),
                              _mm256_setr_epi32(0, 1, 2, 3, 4, 5, 6, 7));
  }
};

/// Column-major tile: 2W rows x NR columns, k steps along A's columns.
template <class Vt, int NR, bool Masked>
DMTK_AVX2_INLINE inline void avx2_nt_body(
    index_t kc, typename Vt::T alpha, const typename Vt::T* A, index_t lda,
    const typename Vt::T* B, index_t ldb, typename Vt::T* C, index_t ldc,
    typename Vt::M m0, typename Vt::M m1) {
  using T = typename Vt::T;
  using V = typename Vt::V;
  constexpr int W = Vt::W;
  V c0[NR], c1[NR];
  DMTK_UNROLL
  for (int j = 0; j < NR; ++j) c0[j] = c1[j] = Vt::zero();
  for (index_t p = 0; p < kc; ++p) {
    const T* a = A + p * lda;
    V a0, a1;
    if constexpr (Masked) {
      a0 = Vt::loadm(a, m0);
      a1 = Vt::loadm(a + W, m1);
    } else {
      a0 = Vt::load(a);
      a1 = Vt::load(a + W);
    }
    const T* b = B + p * ldb;
    DMTK_UNROLL
    for (int j = 0; j < NR; ++j) {
      const V bj = Vt::bcast(b + j);
      c0[j] = Vt::fma(a0, bj, c0[j]);
      c1[j] = Vt::fma(a1, bj, c1[j]);
    }
  }
  const V va = Vt::bcast(&alpha);
  DMTK_UNROLL
  for (int j = 0; j < NR; ++j) {
    T* col = C + j * ldc;
    if constexpr (Masked) {
      Vt::storem(col, m0, Vt::fma(va, c0[j], Vt::loadm(col, m0)));
      Vt::storem(col + W, m1, Vt::fma(va, c1[j], Vt::loadm(col + W, m1)));
    } else {
      Vt::store(col, Vt::fma(va, c0[j], Vt::load(col)));
      Vt::store(col + W, Vt::fma(va, c1[j], Vt::load(col + W)));
    }
  }
}

template <class Vt, int NR>
DMTK_AVX2 void avx2_nt(index_t kc, typename Vt::T alpha,
                       const typename Vt::T* A, index_t lda,
                       const typename Vt::T* B, index_t ldb,
                       typename Vt::T* C, index_t ldc, index_t rows, index_t) {
  constexpr int W = Vt::W;
  if (rows == 2 * W) {
    const typename Vt::M none{};
    avx2_nt_body<Vt, NR, false>(kc, alpha, A, lda, B, ldb, C, ldc, none, none);
  } else {
    avx2_nt_body<Vt, NR, true>(kc, alpha, A, lda, B, ldb, C, ldc,
                               Vt::mask(rows), Vt::mask(rows - W));
  }
}

/// Row-major tile: R rows x NV vectors across, the last vector masked.
template <class Vt, int NV, int R>
DMTK_AVX2 void avx2_t(index_t kc, typename Vt::T alpha,
                      const typename Vt::T* A, index_t lda,
                      const typename Vt::T* B, index_t ldb, typename Vt::T* C,
                      index_t ldc, index_t, index_t cols) {
  using T = typename Vt::T;
  using V = typename Vt::V;
  constexpr int W = Vt::W;
  const typename Vt::M mlast = Vt::mask(cols - (NV - 1) * W);
  V acc[R][NV];
  DMTK_UNROLL
  for (int i = 0; i < R; ++i) {
    DMTK_UNROLL
    for (int v = 0; v < NV; ++v) acc[i][v] = Vt::zero();
  }
  for (index_t p = 0; p < kc; ++p) {
    const T* b = B + p * ldb;
    V bv[NV];
    DMTK_UNROLL
    for (int v = 0; v + 1 < NV; ++v) bv[v] = Vt::load(b + v * W);
    bv[NV - 1] = Vt::loadm(b + (NV - 1) * W, mlast);
    DMTK_UNROLL
    for (int i = 0; i < R; ++i) {
      const V a = Vt::bcast(A + i * lda + p);
      DMTK_UNROLL
      for (int v = 0; v < NV; ++v) acc[i][v] = Vt::fma(a, bv[v], acc[i][v]);
    }
  }
  alignas(64) T tmp[R][NV * W];
  DMTK_UNROLL
  for (int i = 0; i < R; ++i) {
    DMTK_UNROLL
    for (int v = 0; v < NV; ++v) Vt::store(tmp[i] + v * W, acc[i][v]);
  }
  for (index_t j = 0; j < cols; ++j) {
    T* col = C + j * ldc;
    DMTK_UNROLL
    for (int i = 0; i < R; ++i) col[i] = std::fma(alpha, tmp[i][j], col[i]);
  }
}

template <class Vt>
PanelKernels<typename Vt::T> avx2_kernels() {
  constexpr int kMRT = 4;
  PanelKernels<typename Vt::T> pk;
  pk.mr_n = 2 * Vt::W;
  pk.nr_max = 6;
  pk.mr_t = kMRT;
  pk.lanes = Vt::W;
  pk.nv_max = 3;
  for_each_index([&](auto w) { pk.nt[w] = &avx2_nt<Vt, w>; },
                 std::make_index_sequence<6>{});
  for_each_index(
      [&](auto v) {
        for_each_index([&](auto r) { pk.tt[v][r] = &avx2_t<Vt, v, r>; },
                       std::make_index_sequence<kMRT>{});
      },
      std::make_index_sequence<3>{});
  return pk;
}

// ---------------------------------------------------------------------------
// AVX-512 family
// ---------------------------------------------------------------------------

#define DMTK_AVX512 __attribute__((target("avx512f,avx512dq,fma")))
#define DMTK_AVX512_INLINE \
  __attribute__((target("avx512f,avx512dq,fma"), always_inline))

struct Avx512D {
  using T = double;
  using V = __m512d;
  using M = __mmask8;
  static constexpr int W = 8;
  DMTK_AVX512_INLINE static V zero() { return _mm512_setzero_pd(); }
  DMTK_AVX512_INLINE static V load(const T* p) { return _mm512_loadu_pd(p); }
  DMTK_AVX512_INLINE static V loadm(const T* p, M m) {
    return _mm512_maskz_loadu_pd(m, p);
  }
  DMTK_AVX512_INLINE static void store(T* p, V v) { _mm512_storeu_pd(p, v); }
  DMTK_AVX512_INLINE static void storem(T* p, M m, V v) {
    _mm512_mask_storeu_pd(p, m, v);
  }
  DMTK_AVX512_INLINE static V bcast(const T* p) {
    return _mm512_set1_pd(*p);
  }
  DMTK_AVX512_INLINE static V fma(V a, V b, V c) {
    return _mm512_fmadd_pd(a, b, c);
  }
  DMTK_AVX512_INLINE static M mask(index_t n) {
    return static_cast<M>((1u << std::clamp<index_t>(n, 0, W)) - 1u);
  }
};

struct Avx512F {
  using T = float;
  using V = __m512;
  using M = __mmask16;
  static constexpr int W = 16;
  DMTK_AVX512_INLINE static V zero() { return _mm512_setzero_ps(); }
  DMTK_AVX512_INLINE static V load(const T* p) { return _mm512_loadu_ps(p); }
  DMTK_AVX512_INLINE static V loadm(const T* p, M m) {
    return _mm512_maskz_loadu_ps(m, p);
  }
  DMTK_AVX512_INLINE static void store(T* p, V v) { _mm512_storeu_ps(p, v); }
  DMTK_AVX512_INLINE static void storem(T* p, M m, V v) {
    _mm512_mask_storeu_ps(p, m, v);
  }
  DMTK_AVX512_INLINE static V bcast(const T* p) {
    return _mm512_set1_ps(*p);
  }
  DMTK_AVX512_INLINE static V fma(V a, V b, V c) {
    return _mm512_fmadd_ps(a, b, c);
  }
  DMTK_AVX512_INLINE static M mask(index_t n) {
    return static_cast<M>((1u << std::clamp<index_t>(n, 0, W)) - 1u);
  }
};

template <class Vt, int NR, bool Masked>
DMTK_AVX512_INLINE inline void avx512_nt_body(
    index_t kc, typename Vt::T alpha, const typename Vt::T* A, index_t lda,
    const typename Vt::T* B, index_t ldb, typename Vt::T* C, index_t ldc,
    typename Vt::M m0, typename Vt::M m1) {
  using T = typename Vt::T;
  using V = typename Vt::V;
  constexpr int W = Vt::W;
  V c0[NR], c1[NR];
  DMTK_UNROLL
  for (int j = 0; j < NR; ++j) c0[j] = c1[j] = Vt::zero();
  for (index_t p = 0; p < kc; ++p) {
    const T* a = A + p * lda;
    V a0, a1;
    if constexpr (Masked) {
      a0 = Vt::loadm(a, m0);
      a1 = Vt::loadm(a + W, m1);
    } else {
      a0 = Vt::load(a);
      a1 = Vt::load(a + W);
    }
    const T* b = B + p * ldb;
    DMTK_UNROLL
    for (int j = 0; j < NR; ++j) {
      const V bj = Vt::bcast(b + j);
      c0[j] = Vt::fma(a0, bj, c0[j]);
      c1[j] = Vt::fma(a1, bj, c1[j]);
    }
  }
  const V va = Vt::bcast(&alpha);
  DMTK_UNROLL
  for (int j = 0; j < NR; ++j) {
    T* col = C + j * ldc;
    if constexpr (Masked) {
      Vt::storem(col, m0, Vt::fma(va, c0[j], Vt::loadm(col, m0)));
      Vt::storem(col + W, m1, Vt::fma(va, c1[j], Vt::loadm(col + W, m1)));
    } else {
      Vt::store(col, Vt::fma(va, c0[j], Vt::load(col)));
      Vt::store(col + W, Vt::fma(va, c1[j], Vt::load(col + W)));
    }
  }
}

template <class Vt, int NR>
DMTK_AVX512 void avx512_nt(index_t kc, typename Vt::T alpha,
                           const typename Vt::T* A, index_t lda,
                           const typename Vt::T* B, index_t ldb,
                           typename Vt::T* C, index_t ldc, index_t rows,
                           index_t) {
  constexpr int W = Vt::W;
  if (rows == 2 * W) {
    const typename Vt::M none{};
    avx512_nt_body<Vt, NR, false>(kc, alpha, A, lda, B, ldb, C, ldc, none,
                                  none);
  } else {
    avx512_nt_body<Vt, NR, true>(kc, alpha, A, lda, B, ldb, C, ldc,
                                 Vt::mask(rows), Vt::mask(rows - W));
  }
}

template <class Vt, int NV, int R>
DMTK_AVX512 void avx512_t(index_t kc, typename Vt::T alpha,
                          const typename Vt::T* A, index_t lda,
                          const typename Vt::T* B, index_t ldb,
                          typename Vt::T* C, index_t ldc, index_t,
                          index_t cols) {
  using T = typename Vt::T;
  using V = typename Vt::V;
  constexpr int W = Vt::W;
  const typename Vt::M mlast = Vt::mask(cols - (NV - 1) * W);
  V acc[R][NV];
  DMTK_UNROLL
  for (int i = 0; i < R; ++i) {
    DMTK_UNROLL
    for (int v = 0; v < NV; ++v) acc[i][v] = Vt::zero();
  }
  for (index_t p = 0; p < kc; ++p) {
    const T* b = B + p * ldb;
    V bv[NV];
    DMTK_UNROLL
    for (int v = 0; v + 1 < NV; ++v) bv[v] = Vt::load(b + v * W);
    bv[NV - 1] = Vt::loadm(b + (NV - 1) * W, mlast);
    DMTK_UNROLL
    for (int i = 0; i < R; ++i) {
      const V a = Vt::bcast(A + i * lda + p);
      DMTK_UNROLL
      for (int v = 0; v < NV; ++v) acc[i][v] = Vt::fma(a, bv[v], acc[i][v]);
    }
  }
  alignas(64) T tmp[R][NV * W];
  DMTK_UNROLL
  for (int i = 0; i < R; ++i) {
    DMTK_UNROLL
    for (int v = 0; v < NV; ++v) Vt::store(tmp[i] + v * W, acc[i][v]);
  }
  for (index_t j = 0; j < cols; ++j) {
    T* col = C + j * ldc;
    DMTK_UNROLL
    for (int i = 0; i < R; ++i) col[i] = std::fma(alpha, tmp[i][j], col[i]);
  }
}


template <class Vt>
PanelKernels<typename Vt::T> avx512_kernels() {
  constexpr int kMRT = 8;
  PanelKernels<typename Vt::T> pk;
  pk.mr_n = 2 * Vt::W;
  pk.nr_max = 12;
  pk.mr_t = kMRT;
  pk.lanes = Vt::W;
  pk.nv_max = 3;
  for_each_index([&](auto w) { pk.nt[w] = &avx512_nt<Vt, w>; },
                 std::make_index_sequence<12>{});
  for_each_index(
      [&](auto v) {
        for_each_index(
            [&](auto r) { pk.tt[v][r] = &avx512_t<Vt, v, r>; },
            std::make_index_sequence<kMRT>{});
      },
      std::make_index_sequence<3>{});
  return pk;
}

#undef DMTK_AVX2
#undef DMTK_AVX2_INLINE
#undef DMTK_AVX512
#undef DMTK_AVX512_INLINE

#endif  // DMTK_RANK_PANEL_X86

#undef DMTK_UNROLL

// ---------------------------------------------------------------------------
// Dispatch and drivers
// ---------------------------------------------------------------------------

/// The tile set of the current simd_level() family (tables built once).
template <typename T>
const PanelKernels<T>& panel_kernels() {
  static const PanelKernels<T> scalar = scalar_kernels<T>();
#if DMTK_RANK_PANEL_X86
  using Avx2 = std::conditional_t<std::is_same_v<T, double>, Avx2D, Avx2F>;
  using Avx512 =
      std::conditional_t<std::is_same_v<T, double>, Avx512D, Avx512F>;
  static const PanelKernels<T> avx2 = avx2_kernels<Avx2>();
  static const PanelKernels<T> avx512 = avx512_kernels<Avx512>();
  switch (simd_level()) {
    case SimdLevel::Avx2x4x8:
    case SimdLevel::Avx2x8x8: return avx2;
    case SimdLevel::Avx512x8x16:
    case SimdLevel::Avx512x16x16: return avx512;
    case SimdLevel::Scalar: break;
  }
#endif
  return scalar;
}

/// k-block length. A column-major tile steps to the next column of A at
/// every k, so its k-block spans kc * lda elements: 32 columns when columns
/// are shorter than a 4 KiB page, 16 when each is a page or more, keeps the
/// pages one tile touches well inside the L1 DTLB beside the prefetch
/// stream. A row-major tile reads its rows contiguously, so there the
/// kc x n block of B^T sets the length: it stays within a 48 KiB L1.
/// Depends on (layout, n, k, lda, T) only, never on m, the row range or
/// the thread count: the fixed per-element summation order the determinism
/// contract needs.
template <typename T>
index_t block_kc(bool row_major_a, index_t n, index_t k, index_t lda) {
  constexpr index_t kBudget = 48 * 1024;
  const index_t sz = static_cast<index_t>(sizeof(T));
  const index_t cap =
      row_major_a ? std::clamp<index_t>(kBudget / (n * sz), 16, 2048)
                  : (lda * sz >= 4096 ? 16 : 32);
  const index_t blocks = (k + cap - 1) / cap;
  return (k + blocks - 1) / blocks;
}

/// Row-block height: the mc x kc block of op(A) and the one prefetched
/// after it fit together in a 2 MiB L2, and the mc x n block of C, revisited
/// once per k block, stays there as well.
template <typename T>
index_t block_mc(index_t n, index_t kc, index_t mr) {
  constexpr index_t kABudget = 384 * 1024;
  constexpr index_t kCBudget = 256 * 1024;
  const index_t sz = static_cast<index_t>(sizeof(T));
  const index_t rows = std::min(kABudget / (kc * sz), kCBudget / (n * sz));
  return std::max(mr, rows / mr * mr);
}

/// A block of a column-major A as it lies in memory: `cols` runs of `len`
/// contiguous elements, `lda` apart.
template <typename T>
struct ColumnBlock {
  const T* first = nullptr;
  index_t lda = 0;
  index_t cols = 0;
  index_t len = 0;
  /// Cache lines per column, one extra for a column that straddles a line.
  [[nodiscard]] index_t lines_per_col() const {
    return (len * static_cast<index_t>(sizeof(T)) + 63) / 64 + 1;
  }
  [[nodiscard]] index_t lines() const { return cols * lines_per_col(); }
  /// Prefetch lines [l0, l1) of the block, numbered column by column,
  /// towards L2: walking the block in memory order lets it stream at full
  /// bandwidth, where the tiles' own walk (a line per column, across many
  /// pages) would not.
  void prefetch(index_t l0, index_t l1) const {
    constexpr index_t kLine = 64 / static_cast<index_t>(sizeof(T));
    const index_t lpc = lines_per_col();
    index_t j = l0 / lpc;
    index_t q = l0 % lpc;
    for (index_t l = l0; l < l1; ++l) {
      __builtin_prefetch(first + j * lda + std::min(q * kLine, len - 1), 0,
                         2);
      if (++q == lpc) {
        q = 0;
        ++j;
      }
    }
  }
};

/// A run of output columns covered by one tile width.
struct Chunk {
  index_t j0;
  index_t cols;
  int width;  // nt[] index (column-major A) or vector count (row-major A)
};

template <typename T>
void run_rows(const PanelKernels<T>& pk, Trans ta, index_t m, index_t n,
              index_t k, T alpha, const T* A, index_t lda, const T* B,
              index_t ldb, T beta, T* C, index_t ldc) {
  scale_columns(m, index_t{0}, n, beta, C, ldc);
  if (m == 0) return;
  const bool tr = ta == Trans::Trans;
  // Fewest chunks the widest tile allows, near-equal widths.
  const index_t units = tr ? (n + pk.lanes - 1) / pk.lanes : n;
  const index_t per = tr ? pk.nv_max : pk.nr_max;
  const index_t nch = (units + per - 1) / per;
  std::array<Chunk, kRankPanelMaxN> ch{};
  for (index_t c = 0, j0 = 0; c < nch; ++c) {
    const index_t u = units / nch + (c < units % nch ? 1 : 0);
    const index_t cols = tr ? std::min(u * pk.lanes, n - j0) : u;
    ch[static_cast<std::size_t>(c)] = {j0, cols, static_cast<int>(u)};
    j0 += cols;
  }
  const index_t mr = tr ? pk.mr_t : pk.mr_n;
  const index_t kc = block_kc<T>(tr, n, k, lda);
  const index_t mc = block_mc<T>(n, kc, mr);
  auto block = [&](index_t i0, index_t i1, index_t p0) {
    return ColumnBlock<T>{A + i0 + p0 * lda, lda, std::min(kc, k - p0),
                          i1 - i0};
  };
  for (index_t ic = 0; ic < m; ic += mc) {
    const index_t ie = std::min(m, ic + mc);
    for (index_t pc = 0; pc < k; pc += kc) {
      const index_t kb = std::min(kc, k - pc);
      // Column-major A: the block after this one streams into L2 while
      // this one computes, a share of it issued before each tile. The few
      // long row streams of a row-major A need no help: the hardware
      // prefetcher follows them, and software prefetch measured slower.
      ColumnBlock<T> next;
      if (!tr && pc + kc < k) {
        next = block(ic, ie, pc + kc);
      } else if (!tr && ie < m) {
        next = block(ie, std::min(m, ie + mc), 0);
      }
      const index_t tiles = (ie - ic + mr - 1) / mr;
      const index_t lines = next.lines();
      for (index_t t = 0; t < tiles; ++t) {
        const index_t ir = ic + t * mr;
        const index_t rows = std::min(mr, ie - ir);
        next.prefetch(t * lines / tiles, (t + 1) * lines / tiles);
        const T* a = tr ? A + ir * lda + pc : A + ir + pc * lda;
        for (index_t c = 0; c < nch; ++c) {
          const Chunk& h = ch[static_cast<std::size_t>(c)];
          const TileFn<T> fn =
              tr ? pk.tt[static_cast<std::size_t>(h.width)]
                        [static_cast<std::size_t>(rows)]
                 : pk.nt[static_cast<std::size_t>(h.width)];
          fn(kb, alpha, a, lda, B + h.j0 + pc * ldb, ldb, C + ir + h.j0 * ldc,
             ldc, rows, h.cols);
        }
      }
    }
  }
}

}  // namespace

template <typename T>
void rank_panel_seq(Trans ta, index_t m, index_t n, index_t k, T alpha,
                    const T* A, index_t lda, const T* B, index_t ldb, T beta,
                    T* C, index_t ldc) {
  run_rows(panel_kernels<T>(), ta, m, n, k, alpha, A, lda, B, ldb, beta, C,
           ldc);
}

template <typename T>
void rank_panel_team(Trans ta, index_t m, index_t n, index_t k, T alpha,
                     const T* A, index_t lda, const T* B, index_t ldb, T beta,
                     T* C, index_t ldc, int nt) {
  const PanelKernels<T>& pk = panel_kernels<T>();
  const index_t mr = ta == Trans::Trans ? pk.mr_t : pk.mr_n;
  const index_t tiles = (m + mr - 1) / mr;
  parallel_region(nt, [&](int t, int nteam) {
    const Range r = block_range(tiles, nteam, t);
    const index_t i0 = r.begin * mr;
    const index_t i1 = std::min(m, r.end * mr);
    if (i0 >= i1) return;
    const T* Ai = ta == Trans::Trans ? A + i0 * lda : A + i0;
    run_rows(pk, ta, i1 - i0, n, k, alpha, Ai, lda, B, ldb, beta, C + i0,
             ldc);
  });
}

template void rank_panel_seq<float>(Trans, index_t, index_t, index_t, float,
                                    const float*, index_t, const float*,
                                    index_t, float, float*, index_t);
template void rank_panel_seq<double>(Trans, index_t, index_t, index_t, double,
                                     const double*, index_t, const double*,
                                     index_t, double, double*, index_t);
template void rank_panel_team<float>(Trans, index_t, index_t, index_t, float,
                                     const float*, index_t, const float*,
                                     index_t, float, float*, index_t, int);
template void rank_panel_team<double>(Trans, index_t, index_t, index_t,
                                      double, const double*, index_t,
                                      const double*, index_t, double, double*,
                                      index_t, int);

}  // namespace dmtk::blas::detail
