// The heart of the test suite: every MTTKRP algorithm must agree with the
// element-wise reference on every mode of tensors with 2..6 modes, across
// ranks and thread counts. Additional tests pin the algorithm-selection
// logic and input validation.

#include <gtest/gtest.h>

#include <string>
#include <tuple>
#include <vector>

#include "core/mttkrp.hpp"
#include "exec/mttkrp_plan.hpp"
#include "test_helpers.hpp"

namespace dmtk {
namespace {

using testing::random_factors;

struct MttkrpCase {
  std::vector<index_t> dims;
  index_t mode;
  index_t rank;
  MttkrpMethod method;
  int threads;

  friend std::ostream& operator<<(std::ostream& os, const MttkrpCase& c) {
    os << "dims=[";
    for (index_t d : c.dims) os << d << ",";
    os << "] mode=" << c.mode << " rank=" << c.rank << " method="
       << to_string(c.method) << " threads=" << c.threads;
    return os;
  }
};

class MttkrpSweep : public ::testing::TestWithParam<MttkrpCase> {};

TEST_P(MttkrpSweep, MatchesReference) {
  const MttkrpCase& p = GetParam();
  Rng rng(static_cast<std::uint64_t>(
      1000 + p.mode * 7 + p.rank * 13 +
      static_cast<std::uint64_t>(p.dims.size()) * 31));
  Tensor X = Tensor::random_uniform(p.dims, rng);
  const std::vector<Matrix> factors = random_factors(p.dims, p.rank, rng);

  Matrix expect = mttkrp(X, factors, p.mode, MttkrpMethod::Reference);
  Matrix got = mttkrp(X, factors, p.mode, p.method, p.threads);
  // Different summation orders: tolerance scales with the contraction size.
  const double tol = 1e-11 * static_cast<double>(X.cosize(p.mode));
  ASSERT_EQ(got.rows(), X.dim(p.mode));
  ASSERT_EQ(got.cols(), p.rank);
  for (index_t j = 0; j < got.cols(); ++j) {
    for (index_t i = 0; i < got.rows(); ++i) {
      const double scale =
          std::max(1.0, std::abs(expect(i, j)));
      ASSERT_NEAR(got(i, j), expect(i, j), tol * scale)
          << "at (" << i << "," << j << ")";
    }
  }
}

std::vector<MttkrpCase> sweep_cases() {
  const std::vector<std::vector<index_t>> shapes = {
      {6, 7},                // 2-way: MTTKRP is a plain matrix product
      {5, 6, 7},             // 3-way cube-ish
      {9, 2, 8},             // small middle mode
      {4, 5, 3, 6},          // 4-way
      {3, 4, 2, 3, 4},       // 5-way
      {2, 3, 2, 2, 3, 2},    // 6-way (the paper's largest N)
      {31, 5, 17},           // one mode crossing BLAS tile edges
  };
  const std::vector<MttkrpMethod> methods = {
      MttkrpMethod::Reorder, MttkrpMethod::OneStepSeq, MttkrpMethod::OneStep,
      MttkrpMethod::TwoStep, MttkrpMethod::Auto};
  std::vector<MttkrpCase> cases;
  for (const auto& dims : shapes) {
    for (index_t mode = 0; mode < static_cast<index_t>(dims.size()); ++mode) {
      for (MttkrpMethod m : methods) {
        cases.push_back({dims, mode, 3, m, 1});
      }
      // Threaded variants of the parallel-relevant methods.
      cases.push_back({dims, mode, 3, MttkrpMethod::OneStep, 4});
      cases.push_back({dims, mode, 3, MttkrpMethod::TwoStep, 4});
    }
  }
  // Rank edge cases.
  for (index_t rank : {index_t{1}, index_t{8}, index_t{25}}) {
    cases.push_back({{5, 6, 7}, 1, rank, MttkrpMethod::OneStep, 2});
    cases.push_back({{5, 6, 7}, 1, rank, MttkrpMethod::TwoStep, 2});
  }
  // More threads than blocks (IRn small) for internal-mode 1-step.
  cases.push_back({{4, 5, 2}, 1, 3, MttkrpMethod::OneStep, 8});
  // More threads than fibers for external-mode 1-step.
  cases.push_back({{4, 2, 2}, 0, 3, MttkrpMethod::OneStep, 16});
  return cases;
}

INSTANTIATE_TEST_SUITE_P(AllMethodsModesShapes, MttkrpSweep,
                         ::testing::ValuesIn(sweep_cases()));

TEST(Mttkrp, TwoStepDefinedOnlyForInternalModes) {
  EXPECT_FALSE(twostep_is_defined(3, 0));
  EXPECT_TRUE(twostep_is_defined(3, 1));
  EXPECT_FALSE(twostep_is_defined(3, 2));
  EXPECT_FALSE(twostep_is_defined(2, 0));
  EXPECT_TRUE(twostep_is_defined(6, 4));
}

TEST(Mttkrp, BothTwoStepSidesAgree) {
  // Force both orderings via shapes skewed each way; both must match the
  // reference (covered by the sweep) AND each other on a balanced shape
  // where the heuristic could tip either way.
  Rng rng(55);
  Tensor Xl = Tensor::random_uniform({8, 5, 3}, rng);  // left-first shape
  Tensor Xr = Tensor::random_uniform({3, 5, 8}, rng);  // right-first shape
  for (const Tensor* X : {&Xl, &Xr}) {
    const std::vector<Matrix> fs = random_factors(X->dims(), 4, rng);
    Matrix ref = mttkrp(*X, fs, 1, MttkrpMethod::Reference);
    Matrix two = mttkrp(*X, fs, 1, MttkrpMethod::TwoStep, 2);
    testing::expect_matrix_near(ref, two, 1e-10);
  }
}

TEST(Mttkrp, AutoPolicyFollowsTheDimTree) {
  // Auto runs the mode's path through the dimension tree. 6*7 = 42 against
  // 8*5 = 40 puts the root split at 2, so no mode is a depth-0 leaf: every
  // mode is one full-tensor GEMM plus a contraction (reported as TwoStep),
  // and the GEMM contracts the left group {0, 1} for modes 2 and 3.
  const std::vector<index_t> dims{6, 7, 8, 5};
  ExecContext ctx(2);
  Rng rng(56);
  Tensor X = Tensor::random_uniform(dims, rng);
  const std::vector<Matrix> fs = random_factors(dims, 3, rng);
  for (index_t mode = 0; mode < 4; ++mode) {
    MttkrpPlan plan(ctx, dims, 3, mode);
    EXPECT_EQ(plan.resolved_method(), MttkrpMethod::TwoStep) << "mode " << mode;
    EXPECT_EQ(plan.uses_left(), mode >= 2) << "mode " << mode;
    Matrix M;
    plan.execute(X, fs, M);
    testing::expect_matrix_near(
        M, mttkrp(X, fs, mode, MttkrpMethod::Reference), 1e-12);
  }
}

TEST(Mttkrp, OutputResizedAutomatically) {
  Rng rng(59);
  Tensor X = Tensor::random_uniform({4, 5, 6}, rng);
  const std::vector<Matrix> fs = random_factors(X.dims(), 3, rng);
  Matrix M(2, 2);  // wrong shape on purpose
  mttkrp(X, fs, 1, M, MttkrpMethod::OneStep);
  EXPECT_EQ(M.rows(), 5);
  EXPECT_EQ(M.cols(), 3);
}

TEST(Mttkrp, ValidationErrors) {
  Rng rng(60);
  Tensor X = Tensor::random_uniform({4, 5, 6}, rng);
  std::vector<Matrix> fs = random_factors(X.dims(), 3, rng);

  EXPECT_THROW((void)mttkrp(X, fs, -1), DimensionError);
  EXPECT_THROW((void)mttkrp(X, fs, 3), DimensionError);

  std::vector<Matrix> too_few(fs.begin(), fs.begin() + 2);
  EXPECT_THROW((void)mttkrp(X, too_few, 0), DimensionError);

  std::vector<Matrix> bad_rank = fs;
  bad_rank[1] = Matrix(5, 4);  // rank 4 vs 3
  EXPECT_THROW((void)mttkrp(X, bad_rank, 0), DimensionError);

  std::vector<Matrix> bad_rows = fs;
  bad_rows[2] = Matrix(7, 3);  // 7 != dim 6
  EXPECT_THROW((void)mttkrp(X, bad_rows, 0), DimensionError);
}

TEST(Mttkrp, MethodNames) {
  EXPECT_EQ(to_string(MttkrpMethod::OneStep), "1-step");
  EXPECT_EQ(to_string(MttkrpMethod::TwoStep), "2-step");
  EXPECT_EQ(to_string(MttkrpMethod::Reorder), "reorder");
  EXPECT_EQ(to_string(MttkrpMethod::Auto), "auto");
}

TEST(Mttkrp, TwoWayModeZeroIsPlainGemm) {
  // For N=2, the mode-0 MTTKRP is X * U1 — an ordinary matrix product.
  Rng rng(61);
  Tensor X = Tensor::random_uniform({5, 7}, rng);
  const std::vector<Matrix> fs = random_factors(X.dims(), 3, rng);
  Matrix M = mttkrp(X, fs, 0, MttkrpMethod::OneStep, 2);
  for (index_t c = 0; c < 3; ++c) {
    for (index_t i = 0; i < 5; ++i) {
      double expect = 0.0;
      for (index_t j = 0; j < 7; ++j) {
        const std::array<index_t, 2> idx{i, j};
        expect += X(idx) * fs[1](j, c);
      }
      ASSERT_NEAR(M(i, c), expect, 1e-12);
    }
  }
}

TEST(Mttkrp, DeterministicAcrossRuns) {
  // Thread-private accumulation + ordered reduction must give bitwise
  // reproducible results run-to-run with the same thread count.
  Rng rng(62);
  Tensor X = Tensor::random_uniform({8, 9, 10}, rng);
  const std::vector<Matrix> fs = random_factors(X.dims(), 5, rng);
  Matrix a = mttkrp(X, fs, 1, MttkrpMethod::OneStep, 4);
  Matrix b = mttkrp(X, fs, 1, MttkrpMethod::OneStep, 4);
  EXPECT_DOUBLE_EQ(a.max_abs_diff(b), 0.0);
}

}  // namespace
}  // namespace dmtk
