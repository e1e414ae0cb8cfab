// GEMM correctness against a naive oracle, across shapes, transpositions,
// layouts, scalars, and thread counts. The packed blocked kernel has edge
// paths at every blocking boundary, so the parameterized sweep includes
// sizes straddling MR/NR/MC/KC/NC edges.

#include <gtest/gtest.h>

#include <tuple>
#include <vector>

#include "blas/gemm.hpp"
#include "blas/gemm_workspace.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace dmtk::blas {
namespace {

using dmtk::testing::naive_gemm;

struct GemmCase {
  index_t m, n, k;
  bool ta, tb;
  double alpha, beta;
  int threads;
};

class GemmSweep : public ::testing::TestWithParam<GemmCase> {};

TEST_P(GemmSweep, MatchesNaiveOracle) {
  const GemmCase p = GetParam();
  Rng rng(1000 + p.m * 7 + p.n * 13 + p.k * 31 + (p.ta ? 1 : 0) +
          (p.tb ? 2 : 0));

  const index_t lda = p.ta ? p.k : p.m;
  const index_t a_cols = p.ta ? p.m : p.k;
  const index_t ldb = p.tb ? p.n : p.k;
  const index_t b_cols = p.tb ? p.k : p.n;

  std::vector<double> A(static_cast<std::size_t>(lda * a_cols));
  std::vector<double> B(static_cast<std::size_t>(ldb * b_cols));
  std::vector<double> C(static_cast<std::size_t>(p.m * p.n));
  fill_uniform(A, rng, -1.0, 1.0);
  fill_uniform(B, rng, -1.0, 1.0);
  fill_uniform(C, rng, -1.0, 1.0);
  std::vector<double> Cref = C;

  gemm(Layout::ColMajor, p.ta ? Trans::Trans : Trans::NoTrans,
       p.tb ? Trans::Trans : Trans::NoTrans, p.m, p.n, p.k, p.alpha, A.data(),
       lda, B.data(), ldb, p.beta, C.data(), p.m, p.threads);
  naive_gemm(p.ta, p.tb, p.m, p.n, p.k, p.alpha, A.data(), lda, B.data(), ldb,
             p.beta, Cref.data(), p.m);

  for (std::size_t i = 0; i < C.size(); ++i) {
    ASSERT_NEAR(C[i], Cref[i], 1e-10 * static_cast<double>(p.k + 1))
        << "entry " << i;
  }
}

std::vector<GemmCase> gemm_cases() {
  std::vector<GemmCase> cases;
  // Shape sweep: tiny, register-tile edges (MR=4, NR=8), cache-block edges
  // (MC=96, KC=256), and MTTKRP-like skinny shapes.
  const std::vector<std::tuple<index_t, index_t, index_t>> shapes = {
      {1, 1, 1},    {3, 5, 2},    {4, 8, 16},   {5, 9, 17},
      {96, 64, 32}, {97, 65, 33}, {13, 300, 7}, {300, 13, 260},
      {20, 20, 600} /* long-k inner-product shape */,
      {257, 12, 40} /* m > 2*MC */};
  for (auto [m, n, k] : shapes) {
    for (bool ta : {false, true}) {
      for (bool tb : {false, true}) {
        cases.push_back({m, n, k, ta, tb, 1.0, 0.0, 1});
      }
    }
  }
  // Scalar combinations on one mid-size shape.
  for (double alpha : {0.0, 1.0, -2.5}) {
    for (double beta : {0.0, 1.0, 0.5}) {
      cases.push_back({33, 29, 41, false, false, alpha, beta, 1});
    }
  }
  // Threaded paths: wide output (column split) and tall output (row split),
  // big enough to cross the small-work sequential cutoff.
  for (int t : {2, 4}) {
    cases.push_back({40, 400, 30, false, false, 1.0, 0.0, t});
    cases.push_back({400, 40, 30, false, false, 1.0, 1.0, t});
    cases.push_back({128, 128, 64, true, true, -1.0, 2.0, t});
  }
  return cases;
}

INSTANTIATE_TEST_SUITE_P(Shapes, GemmSweep, ::testing::ValuesIn(gemm_cases()));

TEST(Gemm, RowMajorMatchesColMajorTransposed) {
  Rng rng(5);
  const index_t m = 17, n = 23, k = 9;
  std::vector<double> A(static_cast<std::size_t>(m * k));
  std::vector<double> B(static_cast<std::size_t>(k * n));
  fill_uniform(A, rng);
  fill_uniform(B, rng);

  // Row-major C (m x n, ldc = n) computed directly...
  std::vector<double> Crm(static_cast<std::size_t>(m * n), 0.0);
  // A row-major m x k (lda = k), B row-major k x n (ldb = n).
  gemm(Layout::RowMajor, Trans::NoTrans, Trans::NoTrans, m, n, k, 1.0,
       A.data(), k, B.data(), n, 0.0, Crm.data(), n);

  // ...equals the col-major product of the transposed interpretations:
  // reading the same buffers col-major gives A_cm = A_rm^T (k x m, ld k) and
  // B_cm = B_rm^T (n x k, ld n), and C_rm^T = B_rm^T A_rm^T = B_cm * A_cm.
  std::vector<double> Ccm(static_cast<std::size_t>(m * n), 0.0);
  naive_gemm(false, false, n, m, k, 1.0, B.data(), n, A.data(), k, 0.0,
             Ccm.data(), n);
  // Crm (row-major m x n, ld n) is exactly Ccm (col-major n x m, ld n).
  for (std::size_t i = 0; i < Crm.size(); ++i) {
    ASSERT_NEAR(Crm[i], Ccm[i], 1e-11);
  }
}

TEST(Gemm, ZeroKScalesCOnly) {
  // k = 0: A and B are never read, but BLAS semantics still require valid
  // leading dimensions (lda >= m for NoTrans).
  std::vector<double> C{1, 2, 3, 4};
  gemm<double>(Layout::ColMajor, Trans::NoTrans, Trans::NoTrans, 2, 2, 0, 1.0,
               nullptr, 2, nullptr, 1, 0.5, C.data(), 2);
  EXPECT_EQ(C, (std::vector<double>{0.5, 1, 1.5, 2}));
}

TEST(Gemm, AlphaZeroSkipsProduct) {
  std::vector<double> A{1e300, 1e300};  // would overflow if multiplied
  std::vector<double> C{1, 1};
  gemm(Layout::ColMajor, Trans::NoTrans, Trans::NoTrans, index_t{1},
       index_t{1}, index_t{2}, 0.0, A.data(), index_t{1}, A.data(), index_t{2},
       1.0, C.data(), index_t{1});
  EXPECT_DOUBLE_EQ(C[0], 1.0);
}

TEST(Gemm, NegativeDimensionThrows) {
  std::vector<double> buf(4, 0.0);
  EXPECT_THROW(gemm(Layout::ColMajor, Trans::NoTrans, Trans::NoTrans,
                    index_t{-1}, index_t{1}, index_t{1}, 1.0, buf.data(),
                    index_t{1}, buf.data(), index_t{1}, 0.0, buf.data(),
                    index_t{1}),
               DimensionError);
}

TEST(Gemm, BadLeadingDimensionThrows) {
  std::vector<double> buf(16, 0.0);
  EXPECT_THROW(gemm(Layout::ColMajor, Trans::NoTrans, Trans::NoTrans,
                    index_t{4}, index_t{2}, index_t{2}, 1.0, buf.data(),
                    index_t{2} /* < m */, buf.data(), index_t{2}, 0.0,
                    buf.data(), index_t{4}),
               DimensionError);
}

TEST(Gemm, FloatInstantiationWorks) {
  Rng rng(3);
  const index_t m = 9, n = 11, k = 5;
  std::vector<float> A(static_cast<std::size_t>(m * k));
  std::vector<float> B(static_cast<std::size_t>(k * n));
  std::vector<float> C(static_cast<std::size_t>(m * n), 0.0f);
  for (auto& x : A) x = static_cast<float>(rng.uniform(-1, 1));
  for (auto& x : B) x = static_cast<float>(rng.uniform(-1, 1));
  gemm(Layout::ColMajor, Trans::NoTrans, Trans::NoTrans, m, n, k, 1.0f,
       A.data(), m, B.data(), k, 0.0f, C.data(), m);
  // Check one entry against a dot product.
  float expect = 0.0f;
  for (index_t p = 0; p < k; ++p) expect += A[2 + p * m] * B[p + 3 * k];
  EXPECT_NEAR(C[2 + 3 * m], expect, 1e-5f);
}

TEST(Gemm, LargeSingleCallStressesAllBlockLevels) {
  // Exceeds MC, KC and NC simultaneously so every packing path runs.
  Rng rng(77);
  constexpr index_t m = 200, n = 1100, k = 300;
  static_assert(m > kGemmMC && k > kGemmKC && n > kGemmNC);
  std::vector<double> A(static_cast<std::size_t>(m * k));
  std::vector<double> B(static_cast<std::size_t>(k * n));
  std::vector<double> C(static_cast<std::size_t>(m * n), 0.0);
  fill_uniform(A, rng, -1, 1);
  fill_uniform(B, rng, -1, 1);
  gemm(Layout::ColMajor, Trans::NoTrans, Trans::NoTrans, m, n, k, 1.0,
       A.data(), m, B.data(), k, 0.0, C.data(), m, 2);
  // Spot-check a scattered set of entries against dot products.
  Rng pick(99);
  for (int s = 0; s < 50; ++s) {
    const index_t i = static_cast<index_t>(pick.below(m));
    const index_t j = static_cast<index_t>(pick.below(n));
    double expect = 0.0;
    for (index_t p = 0; p < k; ++p) expect += A[i + p * m] * B[p + j * k];
    ASSERT_NEAR(C[i + j * m], expect, 1e-9);
  }
}

}  // namespace
}  // namespace dmtk::blas
