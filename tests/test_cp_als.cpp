// CP-ALS behaviour: exact recovery of low-rank tensors, fit monotonicity,
// convergence flags, method invariance, warm starts, the Gram/Hadamard
// helper, and the two squared norms the fit takes from elsewhere: ‖X‖²
// carried from the tensor read, ‖Y‖² from the sweep loop's Grams.

#include <gtest/gtest.h>

#include <unistd.h>

#include <array>
#include <cmath>
#include <filesystem>
#include <string>

#include "core/cp_als.hpp"
#include "core/cp_als_detail.hpp"
#include "exec/mttkrp_plan.hpp"
#include "io/tensor_io.hpp"
#include "test_helpers.hpp"

namespace dmtk {
namespace {

TEST(CpAls, ExactlyRecoversLowRankTensorFit) {
  // A noiseless rank-3 tensor must be fit to ~1.0.
  Rng rng(1);
  Ktensor truth = Ktensor::random(std::array<index_t, 3>{12, 10, 8}, 3, rng);
  Tensor X = truth.full();
  CpAlsOptions opts;
  opts.rank = 3;
  opts.max_iters = 400;
  opts.tol = 1e-12;
  opts.seed = 99;
  const CpAlsResult r = cp_als(X, opts);
  // ALS can converge slowly from random starts ("swamps"); 0.999 already
  // certifies recovery of the low-rank structure.
  EXPECT_GT(r.final_fit, 0.999);
}

TEST(CpAls, RecoversPlantedFactors) {
  Rng rng(2);
  Ktensor truth = Ktensor::random(std::array<index_t, 3>{15, 12, 10}, 2, rng);
  Tensor X = truth.full();
  CpAlsOptions opts;
  opts.rank = 2;
  opts.max_iters = 300;
  opts.tol = 1e-12;
  const CpAlsResult r = cp_als(X, opts);
  EXPECT_GT(factor_match_score(r.model, truth), 0.99);
}

TEST(CpAls, FitNonDecreasingUpToTolerance) {
  Rng rng(3);
  Tensor X = Tensor::random_uniform({10, 11, 12}, rng);
  CpAlsOptions opts;
  opts.rank = 4;
  opts.max_iters = 20;
  opts.tol = 0.0;  // run all sweeps
  const CpAlsResult r = cp_als(X, opts);
  ASSERT_GE(r.iters.size(), 2u);
  for (std::size_t i = 1; i < r.iters.size(); ++i) {
    // ALS is monotone in exact arithmetic; allow tiny numerical dips.
    EXPECT_GE(r.iters[i].fit, r.iters[i - 1].fit - 1e-9) << "sweep " << i;
  }
}

TEST(CpAls, ConvergedFlagAndIterationCount) {
  Rng rng(4);
  Ktensor truth = Ktensor::random(std::array<index_t, 3>{8, 8, 8}, 2, rng);
  Tensor X = truth.full();
  CpAlsOptions opts;
  opts.rank = 2;
  opts.max_iters = 500;
  opts.tol = 1e-7;
  const CpAlsResult r = cp_als(X, opts);
  EXPECT_TRUE(r.converged);
  EXPECT_LT(r.iterations, 500);
  EXPECT_EQ(static_cast<int>(r.iters.size()), r.iterations);
}

TEST(CpAls, MaxItersRespectedWhenToleranceTight) {
  Rng rng(5);
  Tensor X = Tensor::random_uniform({9, 9, 9}, rng);
  CpAlsOptions opts;
  opts.rank = 2;
  opts.max_iters = 3;
  opts.tol = 0.0;
  const CpAlsResult r = cp_als(X, opts);
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.iterations, 3);
}

TEST(CpAls, MethodsProduceSameTrajectory) {
  // With identical seeds, every MTTKRP method must produce numerically
  // equivalent iterates (they compute the same quantity): the paper's
  // kernels, the Auto dimension tree, and the Tensor Toolbox's Reorder
  // kernel, which is only slower.
  Rng rng(6);
  Tensor X = Tensor::random_uniform({8, 9, 10}, rng);
  CpAlsOptions base;
  base.rank = 3;
  base.max_iters = 5;
  base.tol = 0.0;
  base.seed = 7;
  base.method = MttkrpMethod::OneStep;
  const CpAlsResult r1 = cp_als(X, base);

  for (MttkrpMethod m :
       {MttkrpMethod::TwoStep, MttkrpMethod::Reorder, MttkrpMethod::Auto}) {
    SCOPED_TRACE(std::string(to_string(m)));
    CpAlsOptions o = base;
    o.method = m;
    const CpAlsResult r = cp_als(X, o);
    EXPECT_NEAR(r1.final_fit, r.final_fit, 1e-8);
    for (index_t n = 0; n < 3; ++n) {
      EXPECT_LT(r1.model.factors[static_cast<std::size_t>(n)].max_abs_diff(
                    r.model.factors[static_cast<std::size_t>(n)]),
                1e-6);
    }
  }
}

TEST(CpAls, ThreadCountDoesNotChangeResultMaterially) {
  Rng rng(7);
  Tensor X = Tensor::random_uniform({8, 8, 8}, rng);
  CpAlsOptions o;
  o.rank = 2;
  o.max_iters = 4;
  o.tol = 0.0;
  CpAlsOptions o4 = o;
  o4.threads = 4;
  o.threads = 1;
  const CpAlsResult r1 = cp_als(X, o);
  const CpAlsResult r4 = cp_als(X, o4);
  EXPECT_NEAR(r1.final_fit, r4.final_fit, 1e-8);
}

TEST(CpAls, WarmStartFromTruthConvergesImmediately) {
  Rng rng(8);
  Ktensor truth = Ktensor::random(std::array<index_t, 3>{10, 9, 8}, 2, rng);
  Tensor X = truth.full();
  CpAlsOptions opts;
  opts.rank = 2;
  opts.max_iters = 50;
  opts.tol = 1e-9;
  opts.initial_guess = &truth;
  const CpAlsResult r = cp_als(X, opts);
  EXPECT_TRUE(r.converged);
  EXPECT_LE(r.iterations, 3);
  EXPECT_GT(r.final_fit, 0.999999);
}

TEST(CpAls, LambdaAbsorbsScale) {
  // Scaling the tensor by s must scale lambda by ~s and leave fit unchanged.
  Rng rng(9);
  Ktensor truth = Ktensor::random(std::array<index_t, 3>{8, 8, 8}, 1, rng);
  Tensor X = truth.full();
  Tensor Xs = X;
  for (index_t l = 0; l < Xs.numel(); ++l) Xs[l] *= 100.0;
  CpAlsOptions opts;
  opts.rank = 1;
  opts.max_iters = 100;
  opts.tol = 1e-10;
  CpAlsResult r = cp_als(X, opts);
  CpAlsResult rs = cp_als(Xs, opts);
  // The max-norm normalization used after the first sweep leaves part of
  // the scale in the factor entries; renormalize to the canonical form
  // (unit 2-norm columns) before comparing lambdas.
  r.model.normalize_columns();
  rs.model.normalize_columns();
  ASSERT_FALSE(r.model.lambda.empty());
  EXPECT_NEAR(rs.model.lambda[0] / r.model.lambda[0], 100.0, 1e-3 * 100.0);
  EXPECT_NEAR(r.final_fit, rs.final_fit, 1e-6);
}

TEST(CpAls, StatsArePopulated) {
  Rng rng(10);
  Tensor X = Tensor::random_uniform({10, 10, 10}, rng);
  CpAlsOptions opts;
  opts.rank = 3;
  opts.max_iters = 3;
  opts.tol = 0.0;
  const CpAlsResult r = cp_als(X, opts);
  ASSERT_EQ(static_cast<int>(r.iters.size()), r.iterations);
  for (const CpAlsIterStats& s : r.iters) EXPECT_GT(s.seconds, 0.0);
}

TEST(CpAls, FitOffSkipsResidual) {
  Rng rng(11);
  Tensor X = Tensor::random_uniform({6, 6, 6}, rng);
  CpAlsOptions opts;
  opts.rank = 2;
  opts.max_iters = 4;
  opts.compute_fit = false;
  const CpAlsResult r = cp_als(X, opts);
  EXPECT_EQ(r.iterations, 4);  // no convergence check without fit
  EXPECT_FALSE(r.converged);
  EXPECT_EQ(r.final_fit, 0.0);
}

TEST(CpAls, OverRankedDecompositionStillWellBehaved) {
  // rank > true rank makes H rank-deficient at the optimum: the pinv
  // fallback must keep iterations finite and fit ~1.
  Rng rng(12);
  Ktensor truth = Ktensor::random(std::array<index_t, 3>{8, 8, 8}, 1, rng);
  Tensor X = truth.full();
  CpAlsOptions opts;
  opts.rank = 3;  // over-parameterized
  opts.max_iters = 60;
  opts.tol = 1e-8;
  const CpAlsResult r = cp_als(X, opts);
  EXPECT_GT(r.final_fit, 0.999);
  for (double l : r.model.lambda) EXPECT_TRUE(std::isfinite(l));
}

TEST(CpAls, ZeroTensorIsWellDefined) {
  // norm(X) == 0 used to make the fit degenerate (divide by zero). The
  // definition now: a zero tensor is fit perfectly (1.0) exactly when the
  // model's residual is itself zero, and the whole run must stay finite.
  Tensor X({5, 4, 3});  // all zeros
  CpAlsOptions opts;
  opts.rank = 2;
  opts.max_iters = 10;
  const CpAlsResult r = cp_als(X, opts);
  EXPECT_TRUE(std::isfinite(r.final_fit));
  for (double l : r.model.lambda) EXPECT_TRUE(std::isfinite(l));
  for (const Matrix& U : r.model.factors) {
    for (double u : U.span()) EXPECT_TRUE(std::isfinite(u));
  }
  EXPECT_NE(r.status, CpAlsStatus::Diverged);
  // The converged model of a zero tensor reproduces it exactly (lambda
  // collapses to zero), so the defined fit is 1.
  EXPECT_EQ(r.final_fit, 1.0);
}

TEST(CpAls, RejectsBadOptions) {
  Rng rng(13);
  Tensor X = Tensor::random_uniform({4, 4, 4}, rng);
  CpAlsOptions opts;
  opts.rank = 0;
  EXPECT_THROW(cp_als(X, opts), DimensionError);
}

TEST(CpAls, FourWayTensorWorks) {
  Rng rng(14);
  Ktensor truth =
      Ktensor::random(std::array<index_t, 4>{6, 5, 4, 7}, 2, rng);
  Tensor X = truth.full();
  CpAlsOptions opts;
  opts.rank = 2;
  opts.max_iters = 200;
  opts.tol = 1e-10;
  const CpAlsResult r = cp_als(X, opts);
  EXPECT_GT(r.final_fit, 0.999);
}

TEST(HadamardOfGrams, SkipsRequestedMode) {
  Matrix G0(2, 2), G1(2, 2), G2(2, 2);
  G0.fill(2.0);
  G1.fill(3.0);
  G2.fill(5.0);
  const std::vector<Matrix> grams{G0, G1, G2};
  Matrix H = hadamard_of_grams(grams, 1);
  for (double h : H.span()) EXPECT_DOUBLE_EQ(h, 10.0);
  Matrix Hall = hadamard_of_grams(grams, -1);
  for (double h : Hall.span()) EXPECT_DOUBLE_EQ(h, 30.0);
}

TEST(HadamardOfGrams, MismatchThrows) {
  Matrix G0(2, 2), G1(3, 3);
  const std::vector<Matrix> grams{G0, G1};
  EXPECT_THROW(hadamard_of_grams(grams, -1), DimensionError);
}

TEST(CpAls, ModelNormFromLoopGramsMatchesNormSquaredBitwise) {
  Rng rng(17);
  Ktensor K = Ktensor::random(std::array<index_t, 4>{40, 9, 13, 7}, 5, rng);
  K.lambda = {2.5, 0.5, 1.25, 3.0, 0.75};
  for (const int threads : {1, 3}) {
    std::vector<Matrix> grams;
    for (const Matrix& U : K.factors) {
      grams.emplace_back(K.rank(), K.rank());
      detail::gram(U, grams.back(), threads);
    }
    EXPECT_EQ(K.norm_squared_from_grams(hadamard_of_grams(grams, -1)),
              K.norm_squared(threads))
        << "threads " << threads;
  }
}

TEST(CpAls, FitEqualsTheFormulaWithAFreshModelNorm) {
  // The sweep loop takes ||Y||^2 from the Grams it keeps; recomputing it
  // from the final model, with the last mode's MTTKRP, gives the same bits.
  // A change in how the Grams are combined moves the fit's last bit only
  // on some inputs, hence several seeds.
  const index_t C = 7;
  for (std::uint64_t seed = 0; seed < 12; ++seed) {
    Rng rng(seed);
    const Tensor X = Tensor::random_uniform({11, 9, 8, 6}, rng);
    for (const int threads : {1, 3}) {
      ExecContext ctx(threads);
      CpAlsOptions o;
      o.rank = C;
      o.max_iters = 3;
      o.tol = 0.0;
      o.sweep_scheme = SweepScheme::PerMode;
      o.exec = &ctx;
      const CpAlsResult r = cp_als(X, o);
      // The PerMode sweep runs the paper's 1-step kernel on mode N-1.
      MttkrpPlan last(ctx, X.dims(), C, X.order() - 1, MttkrpMethod::OneStep);
      Matrix Mlast(X.dim(X.order() - 1), C);
      last.execute(X, r.model.factors, Mlast);
      EXPECT_EQ(r.final_fit,
                detail::cp_fit(X.norm_squared(threads),
                               r.model.norm_squared(threads), r.model, Mlast))
          << "seed " << seed << ", threads " << threads;
    }
  }
}

/// cp_als on a tensor as read (‖X‖² carried) and on a copy whose carried
/// value was dropped (‖X‖² recomputed) must agree to the last bit: the
/// CLI-vs-server model comparison and checkpoint resume rely on it.
template <typename T>
void expect_same_result_carried_or_not() {
  namespace fs = std::filesystem;
  const fs::path p = fs::temp_directory_path() /
                     ("dmtk_cp_als_carried_" + std::to_string(::getpid()) +
                      (std::is_same_v<T, float> ? "_f32" : "_f64") + ".dten");
  Rng rng(23);
  // More than one sum-of-squares group, so the recomputed norm is a
  // threaded pass.
  io::write_tensor(p, TensorT<T>::random_uniform({48, 40, 36}, rng));
  TensorT<T> carried = io::read_tensor_as<T>(p);
  fs::remove(p);
  TensorT<T> dropped = carried;
  (void)dropped.data();
  ASSERT_TRUE(dmtk::testing::answers_from_carried_norm(carried));
  ASSERT_FALSE(dmtk::testing::answers_from_carried_norm(dropped));
  for (const int threads : {1, 4}) {
    CpAlsOptionsT<T> o;
    o.rank = 3;
    o.max_iters = 4;
    o.tol = 0.0;
    o.threads = threads;
    const CpAlsResultT<T> a = cp_als(carried, o);
    const CpAlsResultT<T> b = cp_als(dropped, o);
    EXPECT_EQ(a.final_fit, b.final_fit) << "threads " << threads;
    EXPECT_EQ(a.model.lambda, b.model.lambda) << "threads " << threads;
    for (std::size_t n = 0; n < a.model.factors.size(); ++n) {
      EXPECT_EQ(a.model.factors[n].max_abs_diff(b.model.factors[n]), 0.0)
          << "threads " << threads << ", factor " << n;
    }
  }
}

TEST(CpAls, SameResultWhetherTheNormIsCarriedOrRecomputedF64) {
  expect_same_result_carried_or_not<double>();
}

TEST(CpAls, SameResultWhetherTheNormIsCarriedOrRecomputedF32) {
  expect_same_result_carried_or_not<float>();
}

}  // namespace
}  // namespace dmtk
