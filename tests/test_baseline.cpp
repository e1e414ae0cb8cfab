// The Tensor-Toolbox-style baseline must compute the same MTTKRP and drive
// CP-ALS to the same trajectory as the optimized kernels — only slower.

#include <gtest/gtest.h>

#include <vector>

#include "baseline/ttb_cp_als.hpp"
#include "core/mttkrp.hpp"
#include "exec/mttkrp_plan.hpp"
#include "test_helpers.hpp"

namespace dmtk::baseline {
namespace {

using dmtk::testing::random_factors;

class TtbMttkrpModes : public ::testing::TestWithParam<index_t> {};

TEST_P(TtbMttkrpModes, MatchesReference) {
  const index_t mode = GetParam();
  Rng rng(30 + mode);
  Tensor X = Tensor::random_uniform({5, 6, 4, 3}, rng);
  const std::vector<Matrix> fs = random_factors(X.dims(), 3, rng);
  Matrix ref = mttkrp(X, fs, mode, MttkrpMethod::Reference);
  Matrix got;
  ttb_mttkrp(X, fs, mode, got, 2);
  dmtk::testing::expect_matrix_near(ref, got, 1e-10);
}

INSTANTIATE_TEST_SUITE_P(AllModes, TtbMttkrpModes,
                         ::testing::Values<index_t>(0, 1, 2, 3));

TEST(TtbMttkrp, IsTheReorderPlan) {
  // The baseline runs the Reorder kernel (explicit matricization, explicit
  // KRP, one GEMM): bit for bit what a Reorder plan computes.
  Rng rng(31);
  Tensor X = Tensor::random_uniform({10, 12, 14}, rng);
  const std::vector<Matrix> fs = random_factors(X.dims(), 5, rng);
  ExecContext ctx(2);
  for (index_t mode = 0; mode < X.order(); ++mode) {
    Matrix got;
    ttb_mttkrp(X, fs, mode, got, 2);
    MttkrpPlan plan(ctx, X.dims(), 5, mode, MttkrpMethod::Reorder);
    Matrix want;
    plan.execute(X, fs, want);
    ASSERT_EQ(got.rows(), want.rows());
    ASSERT_EQ(got.cols(), want.cols());
    for (index_t i = 0; i < got.size(); ++i) {
      ASSERT_EQ(got.data()[i], want.data()[i]) << "mode " << mode << ", " << i;
    }
  }
}

TEST(TtbMttkrp, ResizesOutput) {
  Rng rng(32);
  Tensor X = Tensor::random_uniform({4, 5, 6}, rng);
  const std::vector<Matrix> fs = random_factors(X.dims(), 2, rng);
  Matrix M(1, 1);
  ttb_mttkrp(X, fs, 2, M);
  EXPECT_EQ(M.rows(), 6);
  EXPECT_EQ(M.cols(), 2);
}

TEST(TtbCpAls, SameTrajectoryAsOptimizedDriver) {
  Rng rng(33);
  Tensor X = Tensor::random_uniform({8, 9, 7}, rng);
  CpAlsOptions opts;
  opts.rank = 3;
  opts.max_iters = 5;
  opts.tol = 0.0;
  opts.seed = 77;
  const CpAlsResult fast = cp_als(X, opts);
  const CpAlsResult slow = ttb_cp_als(X, opts);
  EXPECT_NEAR(fast.final_fit, slow.final_fit, 1e-8);
  for (index_t n = 0; n < 3; ++n) {
    EXPECT_LT(fast.model.factors[static_cast<std::size_t>(n)].max_abs_diff(
                  slow.model.factors[static_cast<std::size_t>(n)]),
              1e-6);
  }
}

TEST(TtbCpAls, RecoversLowRankTensor) {
  Rng rng(34);
  Ktensor truth = Ktensor::random(std::array<index_t, 3>{9, 8, 7}, 2, rng);
  Tensor X = truth.full();
  CpAlsOptions opts;
  opts.rank = 2;
  opts.max_iters = 200;
  opts.tol = 1e-10;
  const CpAlsResult r = ttb_cp_als(X, opts);
  EXPECT_GT(r.final_fit, 0.9999);
}

}  // namespace
}  // namespace dmtk::baseline
