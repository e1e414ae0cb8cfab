// The fp32 execution path: typed (float vs double) coverage of the
// templated numeric core. Anchors:
//  - every MTTKRP method's float plan agrees with the double plan to fp32
//    rounding on the same inputs (typed test over both scalars, the double
//    row degenerating to an exact self-check of the harness);
//  - cp_als<float> produces a valid decomposition whose fit lands within
//    fp32 tolerance of the double run on seeded problems, for PerMode and
//    DimTree sweeps;
//  - float sweeps run allocation-free from the arena after plan
//    construction — including inside the BLAS layer — exactly like the
//    double path (the zero-alloc contract extended to the float
//    instantiation);
//  - the byte-based workspace sizing: a float plan's arena footprint is at
//    most the double plan's (the bandwidth economy the scalar templating
//    exists for);
//  - the sparse CSF/COO kernels' float instantiations track the double
//    ones to fp32 rounding (both accumulate in fp64, so the only fp32
//    error is input/output rounding), sparse cp_als<float> lands within
//    typed tolerance of the double fit, and the sparse float sweep is
//    allocation-free like the dense one;
//  - the mixed-precision dense path (MttkrpMethod::Acc64 / --method acc64)
//    reproduces the fp64 MTTKRP sums bit-for-rounded-bit and recovers the
//    fp64 fit floor through cp_als;
//  - fp32 tensor AND ktensor IO round-trip, and cross-precision reads
//    convert.
//
// Registered under the `float` ctest label (CMake matches "float" in the
// test name).

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <limits>
#include <vector>

#include "blas/gemm.hpp"
#include "core/cp_als.hpp"
#include "core/cp_model.hpp"
#include "core/mttkrp.hpp"
#include "exec/exec_context.hpp"
#include "exec/mttkrp_plan.hpp"
#include "exec/sweep_plan.hpp"
#include "exec/sparse_mttkrp_plan.hpp"
#include "io/tensor_io.hpp"
#include "sparse/sparse_tensor.hpp"
#include "test_helpers.hpp"
#include "util/rng.hpp"

namespace dmtk {
namespace {

constexpr MttkrpMethod kAllMethods[] = {
    MttkrpMethod::Reference, MttkrpMethod::Reorder, MttkrpMethod::OneStep,
    MttkrpMethod::TwoStep,   MttkrpMethod::Auto,    MttkrpMethod::Acc64,
};

/// Same seeded problem in both precisions: the double operands, and their
/// fp32 roundings.
struct DualProblem {
  Tensor Xd;
  TensorF Xf;
  std::vector<Matrix> fsd;
  std::vector<MatrixF> fsf;

  DualProblem(const std::vector<index_t>& dims, index_t rank,
              std::uint64_t seed) {
    Rng rng(seed);
    Xd = Tensor::random_uniform(dims, rng);
    fsd = testing::random_factors(dims, rank, rng);
    Xf = tensor_cast<float>(Xd);
    fsf.reserve(fsd.size());
    for (const Matrix& U : fsd) fsf.push_back(matrix_cast<float>(U));
  }
};

// ---------------------------------------------------------------------------
// Typed scalar coverage: the same plan path for T = double and T = float.
// ---------------------------------------------------------------------------

template <typename T>
class TypedPlanTest : public ::testing::Test {};
using Scalars = ::testing::Types<double, float>;
TYPED_TEST_SUITE(TypedPlanTest, Scalars);

TYPED_TEST(TypedPlanTest, PlanMatchesReferenceEveryMethodAndMode) {
  using T = TypeParam;
  Rng rng(41);
  const std::vector<index_t> dims{6, 5, 4, 3};
  const index_t rank = 3;
  TensorT<T> X = TensorT<T>::random_uniform(dims, rng);
  const std::vector<MatrixT<T>> fs =
      testing::random_factors<T>(dims, rank, rng);
  ExecContext ctx(2);
  MatrixT<T> ref;
  for (index_t mode = 0; mode < X.order(); ++mode) {
    {
      MttkrpPlanT<T> plan(ctx, X.dims(), rank, mode, MttkrpMethod::Reference);
      plan.execute(X, fs, ref);
    }
    for (MttkrpMethod m : kAllMethods) {
      if (m == MttkrpMethod::Reference) continue;
      MttkrpPlanT<T> plan(ctx, X.dims(), rank, mode, m);
      MatrixT<T> got;
      plan.execute(X, fs, got);
      SCOPED_TRACE(std::string("method=") + std::string(to_string(m)) +
                   " mode=" + std::to_string(mode));
      // Accumulation-order differences only: eps-scaled in T.
      testing::expect_matrix_near(got, ref,
                                  testing::eps_tol<T>(500.0));
    }
  }
}

TYPED_TEST(TypedPlanTest, SweepPlanSchemesAgree) {
  using T = TypeParam;
  Rng rng(43);
  const std::vector<index_t> dims{5, 4, 3, 4};
  const index_t rank = 2;
  TensorT<T> X = TensorT<T>::random_uniform(dims, rng);
  const std::vector<MatrixT<T>> fs =
      testing::random_factors<T>(dims, rank, rng);
  // One context per plan: interleaving two ACTIVE sweeps on one arena is
  // outside the plan contract (each sweep holds its own frame open).
  ExecContext ctx_p(2);
  ExecContext ctx_d(2);
  CpAlsSweepPlanT<T> permode(ctx_p, X.dims(), rank, SweepScheme::PerMode);
  CpAlsSweepPlanT<T> dimtree(ctx_d, X.dims(), rank, SweepScheme::DimTree);
  MatrixT<T> Mp, Md;
  permode.begin_sweep(X);
  dimtree.begin_sweep(X);
  for (index_t n = 0; n < X.order(); ++n) {
    permode.mode_mttkrp(n, X, fs, Mp);
    dimtree.mode_mttkrp(n, X, fs, Md);
    SCOPED_TRACE("mode=" + std::to_string(n));
    testing::expect_matrix_near(Md, Mp, testing::eps_tol<T>(500.0));
  }
}

// ---------------------------------------------------------------------------
// Float vs double cross-checks.
// ---------------------------------------------------------------------------

TEST(FloatMttkrp, FloatPlanTracksDoublePlanWithinFp32Rounding) {
  const DualProblem p({7, 6, 5, 4}, 3, 171);
  ExecContext ctx(2);
  for (index_t mode = 0; mode < p.Xd.order(); ++mode) {
    for (MttkrpMethod m : kAllMethods) {
      MttkrpPlan pd(ctx, p.Xd.dims(), 3, mode, m);
      MttkrpPlanF pf(ctx, p.Xf.dims(), 3, mode, m);
      Matrix Md;
      MatrixF Mf;
      pd.execute(p.Xd, p.fsd, Md);
      pf.execute(p.Xf, p.fsf, Mf);
      SCOPED_TRACE(std::string("method=") + std::string(to_string(m)) +
                   " mode=" + std::to_string(mode));
      // The float path re-runs the whole contraction in fp32; the products
      // of ~300 terms stay within a few hundred float-eps of the double
      // result for O(1) uniform operands.
      testing::expect_matrix_near(matrix_cast<double>(Mf), Md,
                                  testing::eps_tol<float>(1000.0));
    }
  }
}

TEST(FloatCpAls, FitMatchesDoubleWithinFp32ToleranceOnSeededProblem) {
  // A planted rank-3 model with mild noise: both precisions must find an
  // essentially-exact fit, and their fits must agree to ~sqrt(eps_f32)
  // (the fit formula cancels O(||X||^2) terms, so ~1e-3 is the honest
  // tolerance; observed agreement is usually much tighter).
  const std::vector<index_t> dims{12, 10, 8};
  Rng rng(7);
  Ktensor truth = Ktensor::random(dims, 2, rng);
  const Tensor Xd = truth.full();
  const TensorF Xf = tensor_cast<float>(Xd);

  for (SweepScheme scheme : {SweepScheme::PerMode, SweepScheme::DimTree}) {
    CpAlsOptions od;
    od.rank = 2;
    od.max_iters = 200;
    od.tol = 1e-9;
    od.seed = 99;
    od.sweep_scheme = scheme;
    CpAlsOptionsF of;
    of.rank = 2;
    of.max_iters = 200;
    of.tol = 1e-6;  // fp32 fit noise floor sits near 1e-6
    of.seed = 99;
    of.sweep_scheme = scheme;

    const CpAlsResult rd = cp_als(Xd, od);
    const CpAlsResultF rf = cp_als(Xf, of);
    SCOPED_TRACE(std::string("scheme=") + std::string(to_string(scheme)));
    EXPECT_GT(rd.final_fit, 0.995);
    EXPECT_GT(rf.final_fit, 0.99);
    EXPECT_NEAR(rf.final_fit, rd.final_fit, 5e-3);
    // The recovered float model matches the double one as factors too.
    EXPECT_GT(factor_match_score(ktensor_cast<double>(rf.model), rd.model),
              0.98);
  }
}

TEST(FloatCpAls, WarmStartAndLambdaAreFloatTyped) {
  const std::vector<index_t> dims{6, 5, 4};
  Rng rng(3);
  const TensorF X = TensorF::random_uniform(dims, rng);
  CpAlsOptionsF opts;
  opts.rank = 2;
  opts.max_iters = 4;
  const CpAlsResultF r1 = cp_als(X, opts);
  ASSERT_EQ(r1.model.lambda.size(), 2u);
  // Warm-start from the first run's model: the typed initial_guess path.
  CpAlsOptionsF warm = opts;
  warm.initial_guess = &r1.model;
  warm.max_iters = 2;
  const CpAlsResultF r2 = cp_als(X, warm);
  EXPECT_GE(r2.final_fit, r1.final_fit - 1e-4);
}

// ---------------------------------------------------------------------------
// Zero-allocation contract for the float instantiation.
// ---------------------------------------------------------------------------

TEST(FloatZeroAlloc, FloatSweepsDrawOnlyFromTheArena) {
  Rng rng(29);
  const std::vector<index_t> dims{8, 7, 6, 5};
  const index_t rank = 4;
  const TensorF X = TensorF::random_uniform(dims, rng);
  ExecContext ctx(2);

  CpAlsSweepPlanF plan(ctx, X.dims(), rank, SweepScheme::DimTree);
  std::vector<MttkrpPlanF> mode_plans;
  for (index_t mode = 0; mode < X.order(); ++mode) {
    mode_plans.emplace_back(ctx, X.dims(), rank, mode, MttkrpMethod::Auto);
  }
  const std::size_t grows = ctx.arena().grow_count();
  const std::size_t capacity = ctx.arena().capacity();
  const std::size_t blas_allocs = blas::gemm_internal_allocs();
  EXPECT_LE(plan.workspace_bytes(), capacity);

  MatrixF M;
  for (int round = 0; round < 3; ++round) {
    const std::vector<MatrixF> fs =
        testing::random_factors<float>(dims, rank, rng);
    plan.begin_sweep(X);
    for (index_t n = 0; n < X.order(); ++n) {
      plan.mode_mttkrp(n, X, fs, M);
    }
    for (MttkrpPlanF& p : mode_plans) p.execute(X, fs, M);
  }
  EXPECT_EQ(ctx.arena().grow_count(), grows);
  EXPECT_EQ(ctx.arena().capacity(), capacity);
  EXPECT_EQ(ctx.arena().in_use(), 0u);
  EXPECT_EQ(blas::gemm_internal_allocs(), blas_allocs);
}

TEST(FloatZeroAlloc, FloatPlanFootprintIsAtMostTheDoubleOne) {
  const std::vector<index_t> dims{16, 12, 10};
  ExecContext ctx_f(2);
  ExecContext ctx_d(2);
  for (index_t mode = 0; mode < 3; ++mode) {
    for (MttkrpMethod m :
         {MttkrpMethod::OneStep, MttkrpMethod::TwoStep, MttkrpMethod::Reorder}) {
      MttkrpPlanF pf(ctx_f, dims, 8, mode, m);
      MttkrpPlan pd(ctx_d, dims, 8, mode, m);
      EXPECT_LE(pf.workspace_bytes(), pd.workspace_bytes())
          << "mode=" << mode << " method=" << to_string(m);
    }
  }
  EXPECT_LE(ctx_f.arena().capacity(), ctx_d.arena().capacity());
}

// ---------------------------------------------------------------------------
// Sparse fp32: the float instantiation of the CSF/COO kernels and sweep.
// ---------------------------------------------------------------------------

// The dense (dims-only) constructor still rejects sparse schemes for
// either scalar — a sparse plan needs the tensor's nonzero structure, so
// it must be built from a SparseTensor.
TEST(FloatSweepPlan, SparseSchemesNeedTheSparseConstructor) {
  ExecContext ctx(1);
  const std::vector<index_t> dims{4, 3, 2};
  EXPECT_THROW(CpAlsSweepPlanF(ctx, dims, 2, SweepScheme::SparseCsf),
               DimensionError);
}

TEST(FloatSparseMttkrp, FloatKernelsTrackDoubleWithinFp32Rounding) {
  Rng rng(311);
  const std::vector<index_t> dims{9, 8, 7};
  const index_t rank = 3;
  const sparse::SparseTensor Sd = sparse::SparseTensor::random(dims, 120, rng);
  const sparse::SparseTensorF Sf = sparse::sparse_cast<float>(Sd);
  const std::vector<Matrix> fsd = testing::random_factors(dims, rank, rng);
  std::vector<MatrixF> fsf;
  for (const Matrix& U : fsd) fsf.push_back(matrix_cast<float>(U));

  ExecContext ctx_d(2);
  ExecContext ctx_f(2);
  for (SparseMttkrpKernel k :
       {SparseMttkrpKernel::Csf, SparseMttkrpKernel::Coo}) {
    SparseMttkrpPlan pd(ctx_d, Sd, rank, k);
    SparseMttkrpPlanF pf(ctx_f, Sf, rank, k);
    Matrix Md;
    MatrixF Mf;
    for (index_t mode = 0; mode < Sd.order(); ++mode) {
      pd.execute(mode, fsd, Md);
      pf.execute(mode, fsf, Mf);
      SCOPED_TRACE(std::string("kernel=") +
                   (k == SparseMttkrpKernel::Csf ? "csf" : "coo") +
                   " mode=" + std::to_string(mode));
      // Both scalars accumulate in fp64, so the float run differs from
      // the double one only by the fp32 rounding of inputs and outputs.
      testing::expect_matrix_near(matrix_cast<double>(Mf), Md,
                                  testing::eps_tol<float>(100.0));
    }
  }
  // The free COO function agrees too (the one-shot reference path).
  Matrix Md;
  MatrixF Mf;
  sparse::mttkrp(Sd, fsd, 1, Md);
  sparse::mttkrp(Sf, fsf, 1, Mf);
  testing::expect_matrix_near(matrix_cast<double>(Mf), Md,
                              testing::eps_tol<float>(100.0));
}

TEST(FloatSparseCpAls, FitTracksDoubleForBothSchemes) {
  const std::vector<index_t> dims{10, 9, 8};
  Rng rng(17);
  const sparse::SparseTensor Sd = sparse::SparseTensor::random(dims, 260, rng);
  const sparse::SparseTensorF Sf = sparse::sparse_cast<float>(Sd);

  for (SweepScheme scheme : {SweepScheme::SparseCsf, SweepScheme::SparseCoo}) {
    CpAlsOptions od;
    od.rank = 3;
    od.max_iters = 25;
    od.tol = 0.0;  // fixed sweep count: compare like against like
    od.seed = 5;
    od.sweep_scheme = scheme;
    CpAlsOptionsF of;
    of.rank = 3;
    of.max_iters = 25;
    of.tol = 0.0;
    of.seed = 5;
    of.sweep_scheme = scheme;

    const CpAlsResult rd = sparse::cp_als(Sd, od);
    const CpAlsResultF rf = sparse::cp_als(Sf, of);
    SCOPED_TRACE(std::string("scheme=") + std::string(to_string(scheme)));
    EXPECT_TRUE(std::isfinite(rf.final_fit));
    EXPECT_EQ(rf.iterations, rd.iterations);
    // fp64 accumulation keeps the sparse fp32 sweep glued to the double
    // trajectory; the fit gap is fp32 Gram/solve noise only.
    EXPECT_NEAR(rf.final_fit, rd.final_fit, 5e-3);
    EXPECT_GT(factor_match_score(ktensor_cast<double>(rf.model), rd.model),
              0.95);
  }
}

TEST(FloatSparseZeroAlloc, FloatSparseSweepsDrawOnlyFromTheArena) {
  Rng rng(23);
  const std::vector<index_t> dims{8, 7, 6};
  const index_t rank = 4;
  const sparse::SparseTensor Sd = sparse::SparseTensor::random(dims, 150, rng);
  const sparse::SparseTensorF S = sparse::sparse_cast<float>(Sd);
  ExecContext ctx(2);

  CpAlsSweepPlanF plan(ctx, S, rank, SweepScheme::SparseCsf);
  const std::size_t grows = ctx.arena().grow_count();
  const std::size_t capacity = ctx.arena().capacity();
  EXPECT_LE(plan.workspace_bytes(), capacity);

  MatrixF M;
  for (int round = 0; round < 3; ++round) {
    const std::vector<MatrixF> fs =
        testing::random_factors<float>(dims, rank, rng);
    plan.begin_sweep(S);
    for (index_t n = 0; n < S.order(); ++n) {
      plan.mode_mttkrp(n, S, fs, M);
    }
  }
  EXPECT_EQ(ctx.arena().grow_count(), grows);
  EXPECT_EQ(ctx.arena().capacity(), capacity);
  EXPECT_EQ(ctx.arena().in_use(), 0u);
}

// ---------------------------------------------------------------------------
// Mixed-precision accumulate: fp32 storage, fp64 sums.
// ---------------------------------------------------------------------------

TEST(FloatMixedAccumulate, Acc64MatchesTheExactSumsOfTheFp32Inputs) {
  const DualProblem p({7, 6, 5, 4}, 3, 433);
  // The oracle: widen the fp32 operands back to double and run the exact
  // double kernel — mttkrp_acc64 computes precisely these sums (fp64
  // accumulators over fp32 inputs), rounding once on the store.
  const Tensor Xw = tensor_cast<double>(p.Xf);
  std::vector<Matrix> fsw;
  for (const MatrixF& U : p.fsf) fsw.push_back(matrix_cast<double>(U));
  for (index_t mode = 0; mode < p.Xd.order(); ++mode) {
    Matrix Mw;
    mttkrp(Xw, std::span<const Matrix>(fsw), mode, Mw,
           MttkrpMethod::Reference, 1);
    for (int threads : {1, 3}) {
      MatrixF Mf;
      mttkrp_acc64(p.Xf, p.fsf, mode, Mf, threads);
      SCOPED_TRACE("mode=" + std::to_string(mode) +
                   " threads=" + std::to_string(threads));
      // One output rounding away from the exact result, and deterministic
      // across thread counts (threads own disjoint output rows).
      testing::expect_matrix_near(matrix_cast<double>(Mf), Mw,
                                  testing::eps_tol<float>(4.0));
    }
  }
  // Determinism across team sizes, bitwise.
  MatrixF M1;
  mttkrp_acc64(p.Xf, p.fsf, 1, M1, 1);
  for (int threads : {3, 4}) {
    MatrixF Mt;
    mttkrp_acc64(p.Xf, p.fsf, 1, Mt, threads);
    for (index_t i = 0; i < M1.rows(); ++i) {
      for (index_t c = 0; c < M1.cols(); ++c) {
        ASSERT_EQ(M1(i, c), Mt(i, c)) << "threads=" << threads;
      }
    }
  }
}

TEST(FloatMixedAccumulate, Acc64CpAlsRecoversTheFp64FitFloor) {
  // A planted model: the fp64 run converges to an essentially exact fit.
  // The plain fp32 run stalls at the fp32 noise floor; swapping only the
  // MTTKRP for the fp64-accumulate kernel must pull the fit back to the
  // fp64 floor (within the fp32 Gram/solve noise that remains).
  const std::vector<index_t> dims{14, 12, 10};
  Rng rng(61);
  Ktensor truth = Ktensor::random(dims, 3, rng);
  const Tensor Xd = truth.full();
  const TensorF Xf = tensor_cast<float>(Xd);

  CpAlsOptions od;
  od.rank = 3;
  od.max_iters = 150;
  od.tol = 1e-10;
  od.seed = 31;
  CpAlsOptionsF of;
  of.rank = 3;
  of.max_iters = 150;
  of.tol = 1e-7;
  of.seed = 31;
  CpAlsOptionsF oa = of;
  oa.method = MttkrpMethod::Acc64;

  const CpAlsResult rd = cp_als(Xd, od);
  const CpAlsResultF rf = cp_als(Xf, of);
  const CpAlsResultF ra = cp_als(Xf, oa);
  EXPECT_GT(rd.final_fit, 0.999);
  EXPECT_TRUE(std::isfinite(rf.final_fit));
  // The mixed run lands within fp32-rounding distance of the double fit
  // and within the shared fp32 noise floor of the all-fp32 run (the two
  // take different ALS iterates, so neither strictly dominates per seed).
  EXPECT_NEAR(ra.final_fit, rd.final_fit, 1e-3);
  EXPECT_NEAR(ra.final_fit, rf.final_fit, 1e-3);
}

// ---------------------------------------------------------------------------
// fp32 tensor IO payload.
// ---------------------------------------------------------------------------

TEST(FloatTensorIo, F32PayloadRoundTripsAndCrossReads) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "dmtk_f32_io_test";
  fs::create_directories(dir);
  const fs::path pf = dir / "xf.dten";
  const fs::path pd = dir / "xd.dten";

  Rng rng(5);
  const TensorF Xf = TensorF::random_uniform({4, 3, 5}, rng);
  io::write_tensor(pf, Xf);
  EXPECT_EQ(io::tensor_scalar_kind(pf), io::ScalarKind::F32);
  // f32 -> f32: bitwise round trip.
  const TensorF back = io::read_tensor_as<float>(pf);
  ASSERT_EQ(back.numel(), Xf.numel());
  for (index_t l = 0; l < Xf.numel(); ++l) ASSERT_EQ(back[l], Xf[l]);
  // f32 payload read as double: exact widening.
  const Tensor wide = io::read_tensor(pf);
  for (index_t l = 0; l < Xf.numel(); ++l) {
    ASSERT_EQ(wide[l], static_cast<double>(Xf[l]));
  }
  // f64 payload read as float: rounds entrywise.
  const Tensor Xd = io::read_tensor(pf);
  io::write_tensor(pd, Xd);
  EXPECT_EQ(io::tensor_scalar_kind(pd), io::ScalarKind::F64);
  const TensorF narrowed = io::read_tensor_as<float>(pd);
  for (index_t l = 0; l < Xd.numel(); ++l) {
    ASSERT_EQ(narrowed[l], static_cast<float>(Xd[l]));
  }
  // The f32 file is about half the size of the f64 one (same header).
  EXPECT_LT(fs::file_size(pf), fs::file_size(pd));
  fs::remove_all(dir);
}

TEST(FloatKtensorIo, F32ModelPayloadRoundTripsAndCrossReads) {
  namespace fs = std::filesystem;
  const fs::path dir = fs::temp_directory_path() / "dmtk_f32_ktn_io_test";
  fs::create_directories(dir);
  const fs::path pf = dir / "mf.dktn";
  const fs::path pd = dir / "md.dktn";

  Rng rng(9);
  const std::vector<index_t> kdims{5, 4, 3};
  const KtensorF Kf = KtensorF::random(kdims, 3, rng);
  io::write_ktensor(pf, Kf);
  EXPECT_EQ(io::ktensor_scalar_kind(pf), io::ScalarKind::F32);
  // f32 -> f32: bitwise round trip of lambda and every factor entry.
  const KtensorF back = io::read_ktensor_as<float>(pf);
  ASSERT_EQ(back.rank(), Kf.rank());
  ASSERT_EQ(back.factors.size(), Kf.factors.size());
  for (index_t c = 0; c < Kf.rank(); ++c) {
    ASSERT_EQ(back.lambda[static_cast<std::size_t>(c)],
              Kf.lambda[static_cast<std::size_t>(c)]);
  }
  for (std::size_t n = 0; n < Kf.factors.size(); ++n) {
    const MatrixF& U = Kf.factors[n];
    const MatrixF& V = back.factors[n];
    ASSERT_EQ(V.rows(), U.rows());
    for (index_t l = 0; l < U.rows() * U.cols(); ++l) {
      ASSERT_EQ(V.data()[l], U.data()[l]);
    }
  }
  // f32 payload read as double: exact widening (the export path).
  const Ktensor wide = io::read_ktensor_as<double>(pf);
  for (std::size_t n = 0; n < Kf.factors.size(); ++n) {
    const MatrixF& U = Kf.factors[n];
    const Matrix& W = wide.factors[n];
    for (index_t l = 0; l < U.rows() * U.cols(); ++l) {
      ASSERT_EQ(W.data()[l], static_cast<double>(U.data()[l]));
    }
  }
  // f64 payload read as float: entrywise rounding, and the historical
  // double reader still handles its own format.
  io::write_ktensor(pd, wide);
  EXPECT_EQ(io::ktensor_scalar_kind(pd), io::ScalarKind::F64);
  const Ktensor legacy = io::read_ktensor(pd);
  EXPECT_EQ(legacy.rank(), Kf.rank());
  const KtensorF narrowed = io::read_ktensor_as<float>(pd);
  for (std::size_t n = 0; n < Kf.factors.size(); ++n) {
    const Matrix& W = wide.factors[n];
    const MatrixF& V = narrowed.factors[n];
    for (index_t l = 0; l < W.rows() * W.cols(); ++l) {
      ASSERT_EQ(V.data()[l], static_cast<float>(W.data()[l]));
    }
  }
  // Same rank, same header: the f32 model file is smaller.
  EXPECT_LT(fs::file_size(pf), fs::file_size(pd));
  fs::remove_all(dir);
}

}  // namespace
}  // namespace dmtk
