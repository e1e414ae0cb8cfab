// Micro-kernel and dispatch coverage for the BLIS-style GEMM rebuild:
// every dispatchable SIMD level over register-tile edge shapes (m % MR,
// n % NR, k = 1, strided leading dimensions, all four transpose combos)
// against a reference triple loop, scalar-vs-AVX2 dispatch equivalence,
// gemm_batched vs looped gemm (including shared-output accumulation groups
// and the fewer-groups-than-threads row-split path), the explicit
// GemmWorkspace / internal-fallback-allocation contract, and the unpacked
// rank-panel path every MTTKRP takes (every width up to the rank limit in
// both tensor layouts, team-vs-one-thread bitwise equality, accumulation
// groups, and plan-sized calls that never touch the fallback arena).

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdlib>
#include <limits>
#include <optional>
#include <string>
#include <thread>
#include <tuple>
#include <vector>

#include "blas/cpu_features.hpp"
#include "blas/gemm.hpp"
#include "test_helpers.hpp"
#include "util/aligned_alloc.hpp"
#include "util/rng.hpp"

namespace dmtk::blas {
namespace {

using dmtk::testing::naive_gemm;

/// Restore the entry dispatch level when a test that pins levels exits
/// (tests in this binary share the process-global selection).
struct SimdLevelGuard {
  SimdLevel entry = simd_level();
  ~SimdLevelGuard() { set_simd_level(entry); }
};

/// Every level this CPU can dispatch — the supported_simd_levels() ladder,
/// cross-checked against set_simd_level() actually installing each one.
std::vector<SimdLevel> dispatchable_levels() {
  SimdLevelGuard guard;
  std::vector<SimdLevel> levels = supported_simd_levels();
  for (SimdLevel lvl : levels) EXPECT_EQ(set_simd_level(lvl), lvl);
  return levels;
}

/// One gemm-vs-oracle comparison at the CURRENT dispatch level.
void expect_matches_oracle(index_t m, index_t n, index_t k, bool ta, bool tb,
                           index_t ld_slack, int threads) {
  Rng rng(100 + m * 3 + n * 5 + k * 7 + (ta ? 11 : 0) + (tb ? 13 : 0) +
          ld_slack);
  const index_t lda = (ta ? k : m) + ld_slack;
  const index_t a_cols = ta ? m : k;
  const index_t ldb = (tb ? n : k) + ld_slack;
  const index_t b_cols = tb ? k : n;
  const index_t ldc = m + ld_slack;
  std::vector<double> A(static_cast<std::size_t>(lda * a_cols));
  std::vector<double> B(static_cast<std::size_t>(ldb * b_cols));
  std::vector<double> C(static_cast<std::size_t>(ldc * n));
  fill_uniform(A, rng, -1.0, 1.0);
  fill_uniform(B, rng, -1.0, 1.0);
  fill_uniform(C, rng, -1.0, 1.0);
  std::vector<double> Cref = C;

  gemm(Layout::ColMajor, ta ? Trans::Trans : Trans::NoTrans,
       tb ? Trans::Trans : Trans::NoTrans, m, n, k, 1.25, A.data(), lda,
       B.data(), ldb, -0.5, C.data(), ldc, threads);
  naive_gemm(ta, tb, m, n, k, 1.25, A.data(), lda, B.data(), ldb, -0.5,
             Cref.data(), ldc);
  // FMA and the blocked accumulation order differ from the oracle's in the
  // last ulps only; the tolerance is rounding-tight, not loose.
  const double tol = 1e-13 * static_cast<double>(k + 2);
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < ldc; ++i) {
      const std::size_t at = static_cast<std::size_t>(i + j * ldc);
      ASSERT_NEAR(C[at], Cref[at], tol)
          << "(" << i << "," << j << ") m=" << m << " n=" << n << " k=" << k
          << " ta=" << ta << " tb=" << tb;
    }
  }
}

TEST(GemmKernels, EdgeShapesEveryLevelEveryTranspose) {
  SimdLevelGuard guard;
  // Register-tile edges: m % MR and n % NR residues for MR, NR <= 16
  // (remainders both above and below one AVX-512 tile), k = 1 (degenerate
  // accumulation), and KC straddles.
  const std::vector<index_t> ms = {1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 17, 31, 33};
  const std::vector<index_t> ns = {1, 3, 7, 8, 9, 15, 16, 17, 31, 33};
  const std::vector<index_t> ks = {1, 2, 5};
  for (SimdLevel lvl : dispatchable_levels()) {
    ASSERT_EQ(set_simd_level(lvl), lvl);
    for (index_t m : ms) {
      for (index_t n : ns) {
        for (index_t k : ks) {
          expect_matches_oracle(m, n, k, false, false, 0, 1);
        }
      }
    }
    // Transpose combos and strided leading dimensions on tile-edge shapes.
    for (bool ta : {false, true}) {
      for (bool tb : {false, true}) {
        expect_matches_oracle(13, 11, 9, ta, tb, 3, 1);
        expect_matches_oracle(97, 17, 19, ta, tb, 5, 1);
      }
    }
    // KC boundary straddle with an MC straddle.
    expect_matches_oracle(99, 9, 257, false, false, 0, 1);
    expect_matches_oracle(99, 9, 256, true, true, 2, 1);
  }
}

TEST(GemmKernels, DispatchLevelsAgree) {
  SimdLevelGuard guard;
  const index_t m = 150, n = 70, k = 300;
  Rng rng(42);
  std::vector<double> A(static_cast<std::size_t>(m * k));
  std::vector<double> B(static_cast<std::size_t>(k * n));
  fill_uniform(A, rng, -1.0, 1.0);
  fill_uniform(B, rng, -1.0, 1.0);

  ASSERT_EQ(set_simd_level(SimdLevel::Scalar), SimdLevel::Scalar);
  std::vector<double> Cref(static_cast<std::size_t>(m * n), 0.0);
  gemm(Layout::ColMajor, Trans::NoTrans, Trans::NoTrans, m, n, k, 1.0,
       A.data(), m, B.data(), k, 0.0, Cref.data(), m, 2);

  for (SimdLevel lvl : dispatchable_levels()) {
    if (lvl == SimdLevel::Scalar) continue;
    ASSERT_EQ(set_simd_level(lvl), lvl);
    for (int threads : {1, 2, 4}) {
      std::vector<double> C(static_cast<std::size_t>(m * n), 0.0);
      gemm(Layout::ColMajor, Trans::NoTrans, Trans::NoTrans, m, n, k, 1.0,
           A.data(), m, B.data(), k, 0.0, C.data(), m, threads);
      for (std::size_t i = 0; i < C.size(); ++i) {
        ASSERT_NEAR(C[i], Cref[i], 1e-13 * static_cast<double>(k))
            << "level=" << to_string(lvl) << " threads=" << threads
            << " at " << i;
      }
    }
  }
}

TEST(GemmKernels, ThreadedTeamMatchesSequential) {
  // The collaborative team path (shared packed B, split MC blocks or NR
  // strips) must agree with the one-thread kernel on both the tall and
  // the short-output regimes, at EVERY dispatchable level (the AVX-512
  // tiles included — the 1-core box still exercises the team code paths
  // through parallel_region's oversubscribed teams).
  SimdLevelGuard guard;
  for (SimdLevel lvl : dispatchable_levels()) {
    ASSERT_EQ(set_simd_level(lvl), lvl);
    for (auto [m, n, k] : {std::tuple<index_t, index_t, index_t>{400, 40, 60},
                           {40, 400, 60},
                           {257, 129, 300}}) {
      Rng rng(7 + m);
      std::vector<double> A(static_cast<std::size_t>(m * k));
      std::vector<double> B(static_cast<std::size_t>(k * n));
      fill_uniform(A, rng, -1.0, 1.0);
      fill_uniform(B, rng, -1.0, 1.0);
      std::vector<double> Cseq(static_cast<std::size_t>(m * n), 1.0);
      std::vector<double> Cpar = Cseq;
      gemm(Layout::ColMajor, Trans::NoTrans, Trans::NoTrans, m, n, k, 1.0,
           A.data(), m, B.data(), k, 0.5, Cseq.data(), m, 1);
      for (int threads : {2, 3, 8}) {
        std::vector<double> C = Cpar;
        gemm(Layout::ColMajor, Trans::NoTrans, Trans::NoTrans, m, n, k, 1.0,
             A.data(), m, B.data(), k, 0.5, C.data(), m, threads);
        for (std::size_t i = 0; i < C.size(); ++i) {
          // Identical blocking and per-element accumulation order: the team
          // only changes WHO computes a tile, not how — bitwise equal.
          ASSERT_EQ(C[i], Cseq[i]) << "level=" << to_string(lvl)
                                   << " threads=" << threads << " at " << i;
        }
      }
    }
  }
}

// ---------------------------------------------------------------------------
// gemm_batched
// ---------------------------------------------------------------------------

struct BatchData {
  index_t m, n, k, batch;
  std::vector<double> A, B, C;
  std::vector<const double*> ap, bp;
  std::vector<double*> cp;

  BatchData(index_t m_, index_t n_, index_t k_, index_t batch_,
            std::uint64_t seed)
      : m(m_), n(n_), k(k_), batch(batch_) {
    Rng rng(seed);
    A.resize(static_cast<std::size_t>(m * k * batch));
    B.resize(static_cast<std::size_t>(k * n * batch));
    C.resize(static_cast<std::size_t>(m * n * batch));
    fill_uniform(A, rng, -1.0, 1.0);
    fill_uniform(B, rng, -1.0, 1.0);
    fill_uniform(C, rng, -1.0, 1.0);
    for (index_t i = 0; i < batch; ++i) {
      ap.push_back(A.data() + i * m * k);
      bp.push_back(B.data() + i * k * n);
      cp.push_back(C.data() + i * m * n);
    }
  }
};

TEST(GemmBatched, DistinctOutputsMatchLoopedGemm) {
  for (int threads : {1, 3}) {
    BatchData d(37, 5, 23, 12, 11);
    BatchData ref(37, 5, 23, 12, 11);
    gemm_batched(Layout::ColMajor, Trans::NoTrans, Trans::Trans, d.m, d.n,
                 d.k, 2.0, d.ap.data(), d.m, d.bp.data(), d.n, 0.5,
                 d.cp.data(), d.m, d.batch, threads);
    for (index_t i = 0; i < ref.batch; ++i) {
      gemm(Layout::ColMajor, Trans::NoTrans, Trans::Trans, ref.m, ref.n,
           ref.k, 2.0, ref.ap[static_cast<std::size_t>(i)], ref.m,
           ref.bp[static_cast<std::size_t>(i)], ref.n, 0.5,
           ref.cp[static_cast<std::size_t>(i)], ref.m, 1);
    }
    for (std::size_t i = 0; i < d.C.size(); ++i) {
      ASSERT_EQ(d.C[i], ref.C[i]) << "threads=" << threads << " at " << i;
    }
  }
}

TEST(GemmBatched, SharedOutputGroupsAccumulateInOrder) {
  // 9 items in 3 groups of 3 sharing one C each: the group's first item
  // sees beta, later items accumulate — same semantics as a beta-then-1
  // loop of plain gemms.
  const index_t m = 20, n = 4, k = 15, batch = 9;
  BatchData d(m, n, k, batch, 21);
  BatchData ref(m, n, k, batch, 21);
  std::vector<double*> cgroup(static_cast<std::size_t>(batch));
  std::vector<double*> cgroup_ref(static_cast<std::size_t>(batch));
  for (index_t i = 0; i < batch; ++i) {
    cgroup[static_cast<std::size_t>(i)] = d.cp[static_cast<std::size_t>(i / 3) * 3];
    cgroup_ref[static_cast<std::size_t>(i)] =
        ref.cp[static_cast<std::size_t>(i / 3) * 3];
  }
  for (int threads : {1, 2, 3}) {
    std::vector<double> c_snapshot = d.C;
    gemm_batched(Layout::ColMajor, Trans::Trans, Trans::NoTrans, m, n, k, 1.0,
                 d.ap.data(), k, d.bp.data(), k, -1.0, cgroup.data(), m,
                 batch, threads);
    std::vector<double> got = d.C;
    d.C = c_snapshot;  // restore for the next thread count
    for (index_t i = 0; i < batch; ++i) {
      cgroup[static_cast<std::size_t>(i)] =
          d.C.data() + (i / 3) * 3 * m * n;  // re-point after restore
    }
    if (threads == 1) {
      for (index_t i = 0; i < batch; ++i) {
        gemm(Layout::ColMajor, Trans::Trans, Trans::NoTrans, m, n, k, 1.0,
             ref.ap[static_cast<std::size_t>(i)], k,
             ref.bp[static_cast<std::size_t>(i)], k, i % 3 == 0 ? -1.0 : 1.0,
             cgroup_ref[static_cast<std::size_t>(i)], m, 1);
      }
    }
    for (std::size_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got[i], ref.C[i]) << "threads=" << threads << " at " << i;
    }
  }
}

TEST(GemmBatched, FewerGroupsThanThreadsSplitsRows) {
  // 2 items, 8 threads: the row-split co-op path. Splitting m never
  // reorders any element's k-accumulation, so the result is still exact.
  BatchData d(150, 6, 40, 2, 31);
  BatchData ref(150, 6, 40, 2, 31);
  gemm_batched(Layout::ColMajor, Trans::NoTrans, Trans::NoTrans, d.m, d.n,
               d.k, 1.0, d.ap.data(), d.m, d.bp.data(), d.k, 0.0,
               d.cp.data(), d.m, d.batch, 8);
  for (index_t i = 0; i < ref.batch; ++i) {
    gemm(Layout::ColMajor, Trans::NoTrans, Trans::NoTrans, ref.m, ref.n,
         ref.k, 1.0, ref.ap[static_cast<std::size_t>(i)], ref.m,
         ref.bp[static_cast<std::size_t>(i)], ref.k, 0.0,
         ref.cp[static_cast<std::size_t>(i)], ref.m, 1);
  }
  for (std::size_t i = 0; i < d.C.size(); ++i) {
    ASSERT_EQ(d.C[i], ref.C[i]) << "at " << i;
  }
}

TEST(GemmBatched, EmptyAndDegenerateBatches) {
  gemm_batched<double>(Layout::ColMajor, Trans::NoTrans, Trans::NoTrans, 4, 4,
                       4, 1.0, nullptr, 4, nullptr, 4, 0.0, nullptr, 4, 0, 2);
  // k == 0 scales each group's C by beta exactly once.
  std::vector<double> C1{1, 2, 3, 4};
  std::vector<double*> cp{C1.data(), C1.data()};  // one group of two items
  gemm_batched<double>(Layout::ColMajor, Trans::NoTrans, Trans::NoTrans, 2, 2,
                       0, 1.0, nullptr, 2, nullptr, 1, 0.5, cp.data(), 2, 2,
                       1);
  EXPECT_EQ(C1, (std::vector<double>{0.5, 1, 1.5, 2}));
}

// ---------------------------------------------------------------------------
// Workspace contract
// ---------------------------------------------------------------------------

/// The zero-alloc workspace contract, per scalar type: an explicit
/// GemmWorkspace sized by gemm_workspace_elems<T> keeps every call off the
/// internal fallback arena, and the fallback path (allowed to grow once)
/// computes the identical result. Running this for float as well locks in
/// the byte-based workspace view — the float instantiation used to
/// reinterpret doubles-measured storage (UB); now it carves its own typed
/// block.
template <typename T>
void run_workspace_contract() {
  const index_t m = 120, n = 90, k = 150;
  const int threads = 3;
  Rng rng(5);
  std::vector<T> A(static_cast<std::size_t>(m * k));
  std::vector<T> B(static_cast<std::size_t>(k * n));
  std::vector<T> C(static_cast<std::size_t>(m * n), T{0});
  fill_uniform(A, rng, -1.0, 1.0);
  fill_uniform(B, rng, -1.0, 1.0);

  const std::size_t need =
      gemm_workspace_elems<T>(Trans::NoTrans, m, n, k, threads);
  std::vector<T, AlignedAllocator<T>> buf(need);
  const GemmWorkspace ws = typed_workspace(buf.data(), buf.size());

  // Warm the per-type fallback arena once so the fallback comparison call
  // below cannot be the first-touch growth.
  gemm(Layout::ColMajor, Trans::NoTrans, Trans::NoTrans, m, n, k, T{1},
       A.data(), m, B.data(), k, T{0}, C.data(), m, threads);

  const std::size_t before = gemm_internal_allocs();
  for (int round = 0; round < 3; ++round) {
    gemm(Layout::ColMajor, Trans::NoTrans, Trans::NoTrans, m, n, k, T{1},
         A.data(), m, B.data(), k, T{0}, C.data(), m, threads, ws);
  }
  EXPECT_EQ(gemm_internal_allocs(), before)
      << "explicit workspace must keep gemm off the heap";

  // The fallback path must still compute the same result, bitwise.
  std::vector<T> Cfb(static_cast<std::size_t>(m * n), T{0});
  gemm(Layout::ColMajor, Trans::NoTrans, Trans::NoTrans, m, n, k, T{1},
       A.data(), m, B.data(), k, T{0}, Cfb.data(), m, threads);
  EXPECT_EQ(gemm_internal_allocs(), before);
  for (std::size_t i = 0; i < C.size(); ++i) ASSERT_EQ(C[i], Cfb[i]);
}

TEST(GemmWorkspaceContract, ExplicitWorkspaceAvoidsInternalAllocation) {
  run_workspace_contract<double>();
}

TEST(GemmWorkspaceContract, FloatInstantiationHonorsTypedWorkspace) {
  run_workspace_contract<float>();
}

TEST(GemmWorkspaceContract, UndersizedViewFallsBackSafely) {
  // A too-small caller view must not be scribbled on: the kernel detects
  // the shortfall and routes to the fallback arena instead.
  const index_t m = 64, n = 64, k = 300;
  Rng rng(17);
  std::vector<float> A(static_cast<std::size_t>(m * k));
  std::vector<float> B(static_cast<std::size_t>(k * n));
  std::vector<float> C(static_cast<std::size_t>(m * n), 0.0f);
  std::vector<float> Cref = C;
  fill_uniform(A, rng, -1.0, 1.0);
  fill_uniform(B, rng, -1.0, 1.0);
  alignas(kDefaultAlignment) float tiny[8] = {};
  gemm(Layout::ColMajor, Trans::NoTrans, Trans::NoTrans, m, n, k, 1.0f,
       A.data(), m, B.data(), k, 0.0f, C.data(), m, 1,
       typed_workspace(tiny, 8));
  gemm(Layout::ColMajor, Trans::NoTrans, Trans::NoTrans, m, n, k, 1.0f,
       A.data(), m, B.data(), k, 0.0f, Cref.data(), m, 1);
  for (std::size_t i = 0; i < C.size(); ++i) ASSERT_EQ(C[i], Cref[i]);
  for (float v : tiny) ASSERT_EQ(v, 0.0f);
}

TEST(GemmWorkspaceContract, SizingIsMonotoneAndCoversBatched) {
  constexpr Trans kPacked = Trans::NoTrans;
  EXPECT_LE(gemm_workspace_elems<double>(kPacked, 10, 10, 10, 1),
            gemm_workspace_elems<double>(kPacked, 100, 100, 100, 1));
  EXPECT_LE(gemm_workspace_elems<double>(kPacked, 64, 64, 64, 1),
            gemm_workspace_elems<double>(kPacked, 64, 64, 64, 4));
  EXPECT_EQ(gemm_batched_workspace_elems<double>(kPacked, 64, 8, 32, 4),
            4 * gemm_workspace_elems<double>(kPacked, 64, 8, 32, 1));
  // For equal element budgets the float view costs half the bytes.
  EXPECT_LE(
      gemm_workspace_elems<float>(kPacked, 64, 64, 300, 2) * sizeof(float),
      gemm_workspace_elems<double>(kPacked, 64, 64, 300, 2) * sizeof(double));
  // The rank-panel shape packs nothing; just past it (n = 65, or k < 4n)
  // the packed sizing applies again.
  EXPECT_EQ(gemm_workspace_elems<double>(Trans::Trans, 282, 25, 1000, 4), 0u);
  EXPECT_EQ(gemm_batched_workspace_elems<float>(Trans::Trans, 64, 1, 32, 4),
            0u);
  EXPECT_EQ(gemm_workspace_elems<double>(Trans::Trans, 282, 65, 1000, 4),
            gemm_workspace_elems<double>(kPacked, 282, 65, 1000, 4));
  EXPECT_EQ(gemm_batched_workspace_elems<double>(Trans::Trans, 64, 25, 99, 4),
            gemm_batched_workspace_elems<double>(kPacked, 64, 25, 99, 4));
}

TEST(GemmKernels, FloatMatchesDoubleWithinFp32Rounding) {
  // The float instantiation (AVX2 f8x8 or scalar tile) must agree with the
  // double kernel to fp32 rounding across dispatch levels — the
  // correctness anchor for the fp32 compute path.
  SimdLevelGuard guard;
  const index_t m = 130, n = 70, k = 220;
  Rng rng(23);
  std::vector<double> Ad(static_cast<std::size_t>(m * k));
  std::vector<double> Bd(static_cast<std::size_t>(k * n));
  fill_uniform(Ad, rng, -1.0, 1.0);
  fill_uniform(Bd, rng, -1.0, 1.0);
  std::vector<float> Af(Ad.begin(), Ad.end());
  std::vector<float> Bf(Bd.begin(), Bd.end());
  std::vector<double> Cd(static_cast<std::size_t>(m * n), 0.0);
  gemm(Layout::ColMajor, Trans::NoTrans, Trans::NoTrans, m, n, k, 1.0,
       Ad.data(), m, Bd.data(), k, 0.0, Cd.data(), m, 1);
  const double tol =
      static_cast<double>(k) * 2.0 *
      static_cast<double>(std::numeric_limits<float>::epsilon());
  for (SimdLevel lvl : dispatchable_levels()) {
    ASSERT_EQ(set_simd_level(lvl), lvl);
    std::vector<float> Cf(static_cast<std::size_t>(m * n), 0.0f);
    gemm(Layout::ColMajor, Trans::NoTrans, Trans::NoTrans, m, n, k, 1.0f,
         Af.data(), m, Bf.data(), k, 0.0f, Cf.data(), m, 1);
    for (std::size_t i = 0; i < Cf.size(); ++i) {
      ASSERT_NEAR(static_cast<double>(Cf[i]), Cd[i], tol)
          << "level=" << to_string(lvl) << " at " << i;
    }
  }
}

// ---------------------------------------------------------------------------
// Rank-panel path: C = alpha * op(A) * B^T + beta * C with B^T p-major
// (tb == Trans), 1 <= n <= 64, k >= 4n — every MTTKRP's GEMM shape.
// ---------------------------------------------------------------------------

/// Operands of one rank-panel product with A in either layout and every
/// leading dimension padded by `slack`.
template <typename T>
struct PanelData {
  index_t m, n, k, lda, ldb, ldc;
  Trans ta;
  std::vector<T> A, B, C;
  PanelData(index_t m_, index_t n_, index_t k_, bool row_major_a,
            index_t slack, std::uint64_t seed)
      : m(m_), n(n_), k(k_),
        lda((row_major_a ? k_ : m_) + slack), ldb(n_ + slack),
        ldc(m_ + slack), ta(row_major_a ? Trans::Trans : Trans::NoTrans) {
    Rng rng(seed);
    A.resize(static_cast<std::size_t>(lda * (row_major_a ? m : k)));
    B.resize(static_cast<std::size_t>(ldb * k));
    C.resize(static_cast<std::size_t>(ldc * n));
    fill_uniform(A, rng, -1.0, 1.0);
    fill_uniform(B, rng, -1.0, 1.0);
    fill_uniform(C, rng, -1.0, 1.0);
  }
  void run(T alpha, T beta, T* out, int threads,
           const GemmWorkspace& ws = {}) const {
    gemm(Layout::ColMajor, ta, Trans::Trans, m, n, k, alpha, A.data(), lda,
         B.data(), ldb, beta, out, ldc, threads, ws);
  }
};

/// One product at the current level against the double oracle; the
/// padding rows of C must come back untouched.
template <typename T>
void expect_panel_matches_oracle(index_t m, index_t n, index_t k,
                                 bool row_major_a, T alpha, T beta) {
  PanelData<T> d(m, n, k, row_major_a, 3, 500 + n * 7 + k);
  const std::vector<double> Ad(d.A.begin(), d.A.end());
  const std::vector<double> Bd(d.B.begin(), d.B.end());
  std::vector<double> Cref(d.C.begin(), d.C.end());
  std::vector<T> C = d.C;
  d.run(alpha, beta, C.data(), 1);
  naive_gemm(row_major_a, true, m, n, k, alpha, Ad.data(), d.lda, Bd.data(),
             d.ldb, beta, Cref.data(), d.ldc);
  const double tol = (sizeof(T) == 4 ? 2e-6 : 1e-14) * static_cast<double>(k);
  for (std::size_t i = 0; i < C.size(); ++i) {
    ASSERT_NEAR(static_cast<double>(C[i]), Cref[i], tol)
        << "level=" << to_string(simd_level()) << " m=" << m << " n=" << n
        << " k=" << k << " rowA=" << row_major_a << " beta=" << beta
        << " at " << i;
  }
}

template <typename T>
void run_panel_widths() {
  // m = 37 is no multiple of any tile height; k = 263 keeps n <= 64 on the
  // rank-panel path and sends n = 65 to the packed kernel (the boundary).
  const index_t m = 37, k = 263;
  const T betas[] = {T{0}, T{0.5}, T{1}};
  for (index_t n = 1; n <= 65; ++n) {
    ASSERT_EQ(gemm_uses_rank_panel(Trans::Trans, n, k), n <= 64);
    for (bool row_major_a : {false, true}) {
      const T beta = betas[(n + (row_major_a ? 1 : 0)) % 3];
      expect_panel_matches_oracle<T>(m, n, k, row_major_a, T{1.5}, beta);
    }
  }
}

TEST(RankPanel, EveryWidthEveryLevelBothLayouts) {
  SimdLevelGuard guard;
  for (SimdLevel lvl : dispatchable_levels()) {
    ASSERT_EQ(set_simd_level(lvl), lvl);
    run_panel_widths<double>();
    run_panel_widths<float>();
  }
}

template <typename T>
void run_panel_team_bitwise() {
  for (auto [m, n, k] : {std::tuple<index_t, index_t, index_t>{282, 25, 2000},
                         {1001, 10, 300},
                         {50, 64, 700},
                         {777, 16, 999}}) {
    for (bool row_major_a : {false, true}) {
      PanelData<T> d(m, n, k, row_major_a, 1, 9 + m + n);
      std::vector<T> Cseq = d.C;
      d.run(T{0.75}, T{0.5}, Cseq.data(), 1);
      for (int threads : {2, 3, 8}) {
        std::vector<T> C = d.C;
        d.run(T{0.75}, T{0.5}, C.data(), threads);
        for (std::size_t i = 0; i < C.size(); ++i) {
          // Rows split only: each element sums over k in the same order.
          ASSERT_EQ(C[i], Cseq[i])
              << "level=" << to_string(simd_level()) << " m=" << m
              << " n=" << n << " rowA=" << row_major_a
              << " threads=" << threads << " at " << i;
        }
      }
    }
  }
}

TEST(RankPanel, TeamIsBitwiseEqualToOneThreadOnEveryLevel) {
  SimdLevelGuard guard;
  for (SimdLevel lvl : dispatchable_levels()) {
    ASSERT_EQ(set_simd_level(lvl), lvl);
    run_panel_team_bitwise<double>();
    run_panel_team_bitwise<float>();
  }
}

TEST(RankPanel, BatchedGroupsAccumulateLikeLoopedGemm) {
  // 10 items in groups of 3, 3, 2, 2 — the 1-step internal-mode shape. At
  // 8 threads there are fewer groups than threads, so rows split inside
  // each group; the result must still equal the looped gemm bitwise.
  const index_t m = 45, n = 25, k = 120, batch = 10;
  const index_t group_of[batch] = {0, 0, 0, 1, 1, 1, 2, 2, 3, 3};
  for (bool row_major_a : {false, true}) {
    std::vector<PanelData<double>> items;
    for (index_t i = 0; i < batch; ++i) {
      items.emplace_back(m, n, k, row_major_a, 2, 70 + i);
    }
    const PanelData<double>& d0 = items.front();
    std::vector<const double*> ap, bp;
    for (const auto& it : items) {
      ap.push_back(it.A.data());
      bp.push_back(it.B.data());
    }
    const std::size_t csz = d0.C.size();
    std::vector<double> Cref(4 * csz);
    for (index_t g = 0; g < 4; ++g) {
      std::copy(items[static_cast<std::size_t>(g)].C.begin(),
                items[static_cast<std::size_t>(g)].C.end(),
                Cref.begin() + static_cast<std::ptrdiff_t>(g) *
                                   static_cast<std::ptrdiff_t>(csz));
    }
    const std::vector<double> Cinit = Cref;
    for (index_t i = 0; i < batch; ++i) {
      const bool first = i == 0 || group_of[i] != group_of[i - 1];
      items[static_cast<std::size_t>(i)].run(
          2.0, first ? 0.5 : 1.0,
          Cref.data() + group_of[i] * static_cast<index_t>(csz), 1);
    }
    for (int threads : {1, 3, 8}) {
      std::vector<double> C = Cinit;
      std::vector<double*> cp;
      for (index_t i = 0; i < batch; ++i) {
        cp.push_back(C.data() + group_of[i] * static_cast<index_t>(csz));
      }
      gemm_batched(Layout::ColMajor, d0.ta, Trans::Trans, m, n, k, 2.0,
                   ap.data(), d0.lda, bp.data(), d0.ldb, 0.5, cp.data(),
                   d0.ldc, batch, threads);
      for (std::size_t i = 0; i < C.size(); ++i) {
        ASSERT_EQ(C[i], Cref[i]) << "rowA=" << row_major_a
                                 << " threads=" << threads << " at " << i;
      }
    }
  }
}

TEST(RankPanel, PlanSizedCallsStayOffTheFallbackArena) {
  // A plan sizes its workspace with the tb-aware helpers, which grant the
  // rank-panel shape nothing. Run on a fresh thread, whose fallback arena
  // is empty: any acquisition at all would count as a growth.
  const index_t m = 300, n = 25, k = 500;
  const int threads = 4;
  ASSERT_EQ(gemm_workspace_elems<double>(Trans::Trans, m, n, k, threads), 0u);
  ASSERT_EQ(gemm_batched_workspace_elems<double>(Trans::Trans, m, n, k,
                                                 threads),
            0u);
  std::size_t grown = 0;
  std::thread worker([&] {
    alignas(kDefaultAlignment) double slot[1] = {};
    const GemmWorkspace none = typed_workspace(slot, 0);
    const std::size_t before = gemm_internal_allocs();
    for (bool row_major_a : {false, true}) {
      PanelData<double> d(m, n, k, row_major_a, 0, 3);
      std::vector<double> C = d.C;
      d.run(1.0, 0.0, C.data(), threads, none);
      d.run(1.0, 1.0, C.data(), 1, none);
      const double* ap[2] = {d.A.data(), d.A.data()};
      const double* bp[2] = {d.B.data(), d.B.data()};
      double* cp[2] = {C.data(), C.data()};
      gemm_batched(Layout::ColMajor, d.ta, Trans::Trans, m, n, k, 1.0, ap,
                   d.lda, bp, d.ldb, 0.0, cp, d.ldc, 2, threads, none);
    }
    grown = gemm_internal_allocs() - before;
  });
  worker.join();
  EXPECT_EQ(grown, 0u);
}

// ---------------------------------------------------------------------------
// SimdLevel plumbing
// ---------------------------------------------------------------------------

TEST(SimdLevel, ParseRoundTripsAndAliases) {
  for (SimdLevel lvl :
       {SimdLevel::Scalar, SimdLevel::Avx2x4x8, SimdLevel::Avx2x8x8,
        SimdLevel::Avx512x8x16, SimdLevel::Avx512x16x16}) {
    const auto parsed = parse_simd_level(to_string(lvl));
    ASSERT_TRUE(parsed.has_value()) << to_string(lvl);
    EXPECT_EQ(*parsed, lvl);
  }
  EXPECT_EQ(parse_simd_level("avx2"), SimdLevel::Avx2x8x8);
  EXPECT_EQ(parse_simd_level("avx512"), SimdLevel::Avx512x16x16);
  EXPECT_FALSE(parse_simd_level("avx512-4x4").has_value());
  EXPECT_FALSE(parse_simd_level("").has_value());
}

TEST(SimdLevel, SetClampsToHardwareAndSticks) {
  SimdLevelGuard guard;
  // Scalar is always installable.
  EXPECT_EQ(set_simd_level(SimdLevel::Scalar), SimdLevel::Scalar);
  EXPECT_EQ(simd_level(), SimdLevel::Scalar);
  // Whatever the hardware supports is installable and sticks.
  const SimdLevel hw = hardware_simd_level();
  EXPECT_EQ(set_simd_level(hw), hw);
  EXPECT_EQ(simd_level(), hw);
  // Forcing a level above hardware installs the clamped fallback, not the
  // requested one (the DMTK_SIMD=avx512-on-AVX2 path, minus the env var).
  const SimdLevel forced = set_simd_level(SimdLevel::Avx512x16x16);
  EXPECT_EQ(forced, clamp_simd_level(SimdLevel::Avx512x16x16, hw));
  EXPECT_EQ(simd_level(), forced);
}

TEST(SimdLevel, ClampDegradesFamilyByFamily) {
  // Pure ladder logic, testable regardless of what this box supports: an
  // AVX-512 request on an AVX2 machine degrades to the AVX2 8x8 tile (not
  // scalar), and any vector request on a scalar machine degrades to
  // Scalar. Nothing is ever promoted.
  EXPECT_EQ(clamp_simd_level(SimdLevel::Avx512x16x16, SimdLevel::Avx2x8x8),
            SimdLevel::Avx2x8x8);
  EXPECT_EQ(clamp_simd_level(SimdLevel::Avx512x8x16, SimdLevel::Avx2x8x8),
            SimdLevel::Avx2x8x8);
  EXPECT_EQ(clamp_simd_level(SimdLevel::Avx512x16x16, SimdLevel::Scalar),
            SimdLevel::Scalar);
  EXPECT_EQ(clamp_simd_level(SimdLevel::Avx2x4x8, SimdLevel::Scalar),
            SimdLevel::Scalar);
  EXPECT_EQ(clamp_simd_level(SimdLevel::Scalar, SimdLevel::Avx512x16x16),
            SimdLevel::Scalar);
  EXPECT_EQ(clamp_simd_level(SimdLevel::Avx2x4x8, SimdLevel::Avx512x16x16),
            SimdLevel::Avx2x4x8);
  EXPECT_EQ(clamp_simd_level(SimdLevel::Avx512x8x16, SimdLevel::Avx512x16x16),
            SimdLevel::Avx512x8x16);
}

// The level dispatch started at, read during static initialisation: before
// any test moves it and before an ExecContext could autoload a profile.
const SimdLevel kStartupLevel = simd_level();

TEST(SimdLevel, SupportedLaddersAreCoherent) {
  const std::vector<SimdLevel> levels = supported_simd_levels();
  ASSERT_FALSE(levels.empty());
  EXPECT_EQ(levels.front(), SimdLevel::Scalar);
  EXPECT_EQ(levels.back(), hardware_simd_level());
  for (std::size_t i = 1; i < levels.size(); ++i) {
    EXPECT_LT(static_cast<int>(levels[i - 1]), static_cast<int>(levels[i]));
  }
  // Every kernel starts at the CPU's widest level; DMTK_SIMD, when set,
  // replaces it (clamped to the hardware).
  if (const std::optional<SimdLevel> env = simd_env_override()) {
    EXPECT_EQ(kStartupLevel, *env);
  } else {
    EXPECT_EQ(kStartupLevel, hardware_simd_level());
  }
}

TEST(SimdLevel, EnvOverrideOptsOutOfTheWideLevel) {
  const SimdLevel entry = simd_level();
  const char* prior = std::getenv("DMTK_SIMD");
  const std::optional<std::string> saved =
      prior ? std::optional<std::string>(prior) : std::nullopt;
  ASSERT_EQ(::setenv("DMTK_SIMD", "avx2", 1), 0);
  const std::optional<SimdLevel> env = simd_env_override();
  ::unsetenv("DMTK_SIMD");
  if (saved) ::setenv("DMTK_SIMD", saved->c_str(), 1);
  set_simd_level(entry);
  ASSERT_TRUE(env.has_value());
  // On AVX2 and AVX-512 hardware alike, "avx2" is the AVX2 8x8 tile; a
  // CPU without AVX2 clamps it to scalar.
  EXPECT_EQ(*env, hardware_simd_level() == SimdLevel::Scalar
                      ? SimdLevel::Scalar
                      : SimdLevel::Avx2x8x8);
}

}  // namespace
}  // namespace dmtk::blas
