// Property-test harness for the sparse plan layer: a seeded random-tensor
// generator (orders 2-6, skewed extents, duplicate coordinates, empty
// slices, nnz 0/1, dense-as-sparse) drives the three-way equivalence
//   CSF MTTKRP == COO reference == dense MttkrpPlan on the densified tensor,
// plus CSF structure invariants, additive duplicate merging, plan reuse,
// the zero-allocation contract (arena grow_count flat, mirroring
// test_sweep_plan.cpp), the CpAlsSweepPlan sparse schemes behind the shared
// sweep protocol, and the bitwise anchor: plan-driven sparse CP-ALS with
// SweepScheme::SparseCoo reproduces the retired ad-hoc COO driver exactly.

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "core/cp_als.hpp"
#include "core/cp_als_detail.hpp"
#include "core/mttkrp.hpp"
#include "exec/exec_context.hpp"
#include "exec/sparse_mttkrp_plan.hpp"
#include "exec/sweep_plan.hpp"
#include "sparse/csf.hpp"
#include "sparse/sparse_tensor.hpp"
#include "test_helpers.hpp"
#include "util/env.hpp"

namespace dmtk {
namespace {

using testing::expect_matrix_near;
using testing::random_factors;

// ---------------------------------------------------------------------------
// Seeded generator: every case is reproducible from its seed alone.
// ---------------------------------------------------------------------------

/// Skewed random extents: mostly tiny modes (1..5, so extent-1 modes and
/// empty slices occur naturally), occasionally one stretched mode — the
/// shape regime where fiber compression and root tiling earn their keep.
std::vector<index_t> skewed_dims(Rng& rng, index_t order) {
  std::vector<index_t> dims(static_cast<std::size_t>(order));
  for (index_t& d : dims) {
    d = 1 + static_cast<index_t>(rng.below(5));
  }
  if (rng.uniform() < 0.35) {
    dims[rng.below(static_cast<std::uint64_t>(order))] *=
        2 + static_cast<index_t>(rng.below(8));
  }
  return dims;
}

/// Random sparse tensor with a controlled duplicate-coordinate fraction
/// (duplicates act additively — the semantics under test).
sparse::SparseTensor random_sparse(Rng& rng, const std::vector<index_t>& dims,
                                   index_t nnz, double dup_fraction) {
  sparse::SparseTensor S(dims);
  std::vector<std::vector<index_t>> fresh;
  std::vector<index_t> idx(dims.size());
  for (index_t k = 0; k < nnz; ++k) {
    if (!fresh.empty() && rng.uniform() < dup_fraction) {
      idx = fresh[rng.below(fresh.size())];
    } else {
      for (std::size_t n = 0; n < dims.size(); ++n) {
        idx[n] = static_cast<index_t>(
            rng.below(static_cast<std::uint64_t>(dims[n])));
      }
      fresh.push_back(idx);
    }
    S.push_back(idx, rng.uniform(-1.0, 1.0));
  }
  return S;
}

/// One generated case: the sparse tensor plus a label for SCOPED_TRACE.
struct GenCase {
  sparse::SparseTensor S;
  std::string desc;
};

GenCase generate_case(std::uint64_t seed) {
  Rng rng(1000 + seed);
  const index_t order = 2 + static_cast<index_t>(rng.below(5));  // 2..6
  const std::vector<index_t> dims = skewed_dims(rng, order);
  sparse::SparseTensor probe(dims);
  const index_t numel = probe.numel();

  GenCase gc;
  const std::uint64_t kind = rng.below(6);
  switch (kind) {
    case 0:  // empty tensor
      gc.S = sparse::SparseTensor(dims);
      gc.desc = "nnz=0";
      break;
    case 1:  // single nonzero
      gc.S = random_sparse(rng, dims, 1, 0.0);
      gc.desc = "nnz=1";
      break;
    case 2: {  // dense-as-sparse: density 1.0, the paper's regime
      Tensor X = Tensor::random_uniform(dims, rng);
      gc.S = sparse::SparseTensor::from_dense(X);
      gc.desc = "dense-as-sparse";
      break;
    }
    case 3: {  // heavy duplicates
      const index_t nnz = 2 + static_cast<index_t>(rng.below(40));
      gc.S = random_sparse(rng, dims, nnz, 0.5);
      gc.desc = "dup-heavy nnz=" + std::to_string(nnz);
      break;
    }
    default: {  // generic sparse fill
      const index_t nnz = 1 + static_cast<index_t>(rng.below(
          static_cast<std::uint64_t>(std::max<index_t>(2, numel / 2))));
      gc.S = random_sparse(rng, dims, nnz, 0.1);
      gc.desc = "generic nnz=" + std::to_string(nnz);
      break;
    }
  }
  gc.desc += " dims=";
  for (index_t d : dims) gc.desc += std::to_string(d) + ",";
  return gc;
}

// ---------------------------------------------------------------------------
// The retired ad-hoc COO driver, preserved verbatim as the bitwise oracle:
// this is what sparse::cp_als was before it moved onto the plan layer.
// ---------------------------------------------------------------------------

CpAlsResult retired_coo_cp_als(const sparse::SparseTensor& X,
                               const CpAlsOptions& opts) {
  const index_t N = X.order();
  const index_t C = opts.rank;
  const int nt = resolve_threads(opts.threads);

  CpAlsResult result;
  Ktensor& model = result.model;
  Rng rng(opts.seed);
  model = Ktensor::random(X.dims(), C, rng);

  const double normX2 = X.norm_squared();
  std::vector<Matrix> grams(static_cast<std::size_t>(N));
  for (index_t n = 0; n < N; ++n) {
    grams[static_cast<std::size_t>(n)] = Matrix(C, C);
    detail::gram(model.factors[static_cast<std::size_t>(n)],
                 grams[static_cast<std::size_t>(n)], nt);
  }

  Matrix M;
  Matrix Mlast;
  double fit_old = 0.0;
  for (int iter = 0; iter < opts.max_iters; ++iter) {
    for (index_t n = 0; n < N; ++n) {
      sparse::mttkrp(X, model.factors, n, M, nt);
      if (opts.compute_fit && n == N - 1) Mlast = M;
      Matrix H = hadamard_of_grams(grams, n);
      detail::factor_solve(H, M, nt);
      Matrix& U = model.factors[static_cast<std::size_t>(n)];
      std::swap(U, M);
      detail::normalize_update(U, model.lambda, iter == 0);
      detail::gram(U, grams[static_cast<std::size_t>(n)], nt);
    }
    result.iterations = iter + 1;
    if (opts.compute_fit) {
      const double fit =
          detail::cp_fit(normX2, model.norm_squared(nt), model, Mlast);
      result.final_fit = fit;
      if (iter > 0 && std::abs(fit - fit_old) < opts.tol) {
        result.converged = true;
        break;
      }
      fit_old = fit;
    }
  }
  return result;
}

// ---------------------------------------------------------------------------
// The core property: CSF == COO == dense reference, for every mode, over
// the whole generated family.
// ---------------------------------------------------------------------------

TEST(SparsePlanProperty, CsfEqualsCooEqualsDenseAcrossGeneratedCases) {
  for (std::uint64_t seed = 0; seed < 30; ++seed) {
    const GenCase gc = generate_case(seed);
    const sparse::SparseTensor& S = gc.S;
    SCOPED_TRACE("seed=" + std::to_string(seed) + " " + gc.desc);
    Rng frng(7000 + seed);
    const index_t rank = 1 + static_cast<index_t>(frng.below(5));
    const std::vector<Matrix> fs = random_factors(S.dims(), rank, frng);
    const Tensor D = S.to_dense();  // duplicates accumulate here too

    ExecContext ctx(seed % 3 == 0 ? 2 : 1);
    SparseMttkrpPlan csf_plan(ctx, S, rank, SparseMttkrpKernel::Csf);
    SparseMttkrpPlan coo_plan(ctx, S, rank, SparseMttkrpKernel::Coo);
    ASSERT_EQ(csf_plan.kernel(), SparseMttkrpKernel::Csf);
    ASSERT_EQ(coo_plan.kernel(), SparseMttkrpKernel::Coo);

    Matrix Mcsf, Mcoo, Mref;
    for (index_t n = 0; n < S.order(); ++n) {
      SCOPED_TRACE("mode=" + std::to_string(n));
      csf_plan.execute(n, fs, Mcsf);
      coo_plan.execute(n, fs, Mcoo);
      sparse::mttkrp(S, fs, n, Mref, ctx.threads());  // free-fn COO oracle
      const Matrix dense_ref = mttkrp(D, fs, n, MttkrpMethod::Reference);
      expect_matrix_near(Mcoo, Mref, 1e-12);
      expect_matrix_near(Mcsf, Mref, 1e-9);
      expect_matrix_near(Mcsf, dense_ref, 1e-9);
    }
    EXPECT_EQ(ctx.arena().in_use(), 0u);
  }
}

// ---------------------------------------------------------------------------
// CSF structure invariants and duplicate-merge semantics.
// ---------------------------------------------------------------------------

TEST(CsfTensor, StructureInvariantsAcrossGeneratedCases) {
  for (std::uint64_t seed = 0; seed < 20; ++seed) {
    const GenCase gc = generate_case(seed);
    const sparse::SparseTensor& S = gc.S;
    SCOPED_TRACE("seed=" + std::to_string(seed) + " " + gc.desc);
    for (index_t root = 0; root < S.order(); ++root) {
      const auto perm = sparse::CsfTensor::root_first_perm(S.dims(), root);
      ASSERT_EQ(perm.front(), root);
      const sparse::CsfTensor T = sparse::CsfTensor::build(S, perm);
      const index_t N = T.order();
      EXPECT_EQ(T.root_mode(), root);
      // Merged leaf count never exceeds the raw coordinate count.
      EXPECT_LE(T.nnz(), S.nnz());
      EXPECT_EQ(T.nodes(N - 1), T.nnz());
      // Root fids strictly increase (sorted, distinct slices).
      const auto rf = T.fids(0);
      for (std::size_t j = 1; j < rf.size(); ++j) {
        EXPECT_LT(rf[j - 1], rf[j]);
      }
      for (index_t l = 0; l + 1 < N; ++l) {
        const auto p = T.ptr(l);
        ASSERT_EQ(static_cast<index_t>(p.size()), T.nodes(l) + 1);
        EXPECT_EQ(p.front(), 0);
        EXPECT_EQ(p.back(), T.nodes(l + 1));
        for (std::size_t j = 1; j < p.size(); ++j) {
          EXPECT_LT(p[j - 1], p[j]);  // every node has >= 1 child
        }
      }
      // Node counts shrink (weakly) toward the root: compression.
      for (index_t l = 0; l + 1 < N; ++l) {
        EXPECT_LE(T.nodes(l), T.nodes(l + 1));
      }
      // fids stay inside their mode's extent.
      for (index_t l = 0; l < N; ++l) {
        const index_t extent = T.dim(T.perm()[static_cast<std::size_t>(l)]);
        for (index_t f : T.fids(l)) {
          EXPECT_GE(f, 0);
          EXPECT_LT(f, extent);
        }
      }
    }
  }
}

TEST(CsfTensor, DuplicatesMergeAdditivelyMatchingPushBack) {
  // The documented semantics gap: SparseTensor::push_back treats repeated
  // coordinates additively, and CSF construction must merge them the same
  // way — including an exact cancellation to 0.0, which stays a stored
  // (explicit) zero rather than being dropped.
  sparse::SparseTensor S({4, 3, 2});
  const std::vector<index_t> a{1, 2, 0};
  const std::vector<index_t> b{1, 2, 1};
  const std::vector<index_t> c{3, 0, 1};
  S.push_back(a, 2.0);
  S.push_back(b, -1.5);
  S.push_back(a, 0.5);   // merges with the first entry: 2.5
  S.push_back(c, 4.0);
  S.push_back(c, -4.0);  // cancels to exactly 0.0 — kept
  ASSERT_EQ(S.nnz(), 5);

  const sparse::CsfTensor T =
      sparse::CsfTensor::build(S, sparse::CsfTensor::root_first_perm(S.dims(), 0));
  EXPECT_EQ(T.nnz(), 3);  // {a, b, c} after merging
  double sum = 0.0;
  for (double v : T.values()) sum += v;
  EXPECT_DOUBLE_EQ(sum, 2.5 - 1.5 + 0.0);

  // And the kernel agrees with the densified tensor (which accumulates
  // duplicates by construction).
  Rng rng(3);
  const std::vector<Matrix> fs = random_factors(S.dims(), 2, rng);
  ExecContext ctx(1);
  SparseMttkrpPlan plan(ctx, S, 2, SparseMttkrpKernel::Csf);
  Matrix M;
  for (index_t n = 0; n < 3; ++n) {
    plan.execute(n, fs, M);
    expect_matrix_near(M, mttkrp(S.to_dense(), fs, n, MttkrpMethod::Reference),
                       1e-12);
  }
}

// ---------------------------------------------------------------------------
// Plan reuse and the zero-allocation contract (mirrors test_sweep_plan).
// ---------------------------------------------------------------------------

TEST(SparseMttkrpPlan, ReuseAcrossFactorValuesIsAllocationFree) {
  Rng rng(91);
  const std::vector<index_t> dims{9, 6, 7, 4};
  const sparse::SparseTensor S = random_sparse(rng, dims, 150, 0.2);
  ExecContext ctx(2);
  SparseMttkrpPlan csf_plan(ctx, S, 4, SparseMttkrpKernel::Csf);
  SparseMttkrpPlan coo_plan(ctx, S, 4, SparseMttkrpKernel::Coo);

  const std::size_t grows = ctx.arena().grow_count();
  const std::size_t capacity = ctx.arena().capacity();
  EXPECT_LE(csf_plan.workspace_bytes(), capacity);
  EXPECT_LE(coo_plan.workspace_bytes(), capacity);

  // Pre-sized outputs: steady-state ALS never resizes them.
  std::vector<Matrix> Ms;
  for (index_t n = 0; n < 4; ++n) Ms.emplace_back(dims[static_cast<std::size_t>(n)], 4);
  for (int round = 0; round < 3; ++round) {
    const std::vector<Matrix> fs = random_factors(dims, 4, rng);
    for (index_t n = 0; n < 4; ++n) {
      csf_plan.execute(n, fs, Ms[static_cast<std::size_t>(n)]);
      Matrix ref;
      sparse::mttkrp(S, fs, n, ref, 2);
      expect_matrix_near(Ms[static_cast<std::size_t>(n)], ref, 1e-9);
      coo_plan.execute(n, fs, Ms[static_cast<std::size_t>(n)]);
      expect_matrix_near(Ms[static_cast<std::size_t>(n)], ref, 1e-12);
    }
  }
  EXPECT_EQ(ctx.arena().grow_count(), grows);
  EXPECT_EQ(ctx.arena().capacity(), capacity);
  EXPECT_EQ(ctx.arena().in_use(), 0u);
  EXPECT_LE(ctx.arena().high_water(), capacity);
}

// ---------------------------------------------------------------------------
// The sparse schemes behind the shared CpAlsSweepPlan protocol.
// ---------------------------------------------------------------------------

TEST(SweepPlanSparse, LeavesMatchCooReferenceThroughProtocol) {
  Rng rng(92);
  const std::vector<index_t> dims{6, 8, 5};
  const sparse::SparseTensor S = random_sparse(rng, dims, 80, 0.1);
  for (SweepScheme scheme : {SweepScheme::SparseCsf, SweepScheme::SparseCoo}) {
    ExecContext ctx(2);
    CpAlsSweepPlan plan(ctx, S, 3, scheme);
    EXPECT_EQ(plan.scheme(), scheme);
    EXPECT_TRUE(plan.is_sparse());
    Matrix M, ref;
    for (int round = 0; round < 2; ++round) {
      const std::vector<Matrix> fs = random_factors(dims, 3, rng);
      plan.begin_sweep(S);
      for (index_t n = 0; n < 3; ++n) {
        plan.mode_mttkrp(n, S, fs, M);
        sparse::mttkrp(S, fs, n, ref, 2);
        SCOPED_TRACE("scheme=" + std::string(to_string(scheme)) + " mode=" +
                     std::to_string(n));
        expect_matrix_near(M, ref,
                           scheme == SweepScheme::SparseCoo ? 1e-12 : 1e-9);
      }
    }
    EXPECT_EQ(ctx.arena().in_use(), 0u);
  }
}

TEST(SweepPlanSparse, AutoResolvesToCsfAndSchemesAreInputKindChecked) {
  Rng rng(93);
  const std::vector<index_t> dims{5, 4, 6, 3};
  const sparse::SparseTensor S = random_sparse(rng, dims, 40, 0.0);
  ExecContext ctx(1);
  CpAlsSweepPlan plan(ctx, S, 2);
  EXPECT_EQ(plan.requested_scheme(), SweepScheme::Auto);
  EXPECT_EQ(plan.scheme(), SweepScheme::SparseCsf);
  EXPECT_EQ(plan.sparse_plan().kernel(), SparseMttkrpKernel::Csf);

  // Dense scheme on sparse input / sparse scheme on dense input: loud.
  EXPECT_THROW(CpAlsSweepPlan(ctx, S, 2, SweepScheme::PerMode),
               DimensionError);
  EXPECT_THROW(CpAlsSweepPlan(ctx, S, 2, SweepScheme::DimTree),
               DimensionError);
  EXPECT_THROW(CpAlsSweepPlan(ctx, dims, 2, SweepScheme::SparseCsf),
               DimensionError);
  EXPECT_THROW(CpAlsSweepPlan(ctx, dims, 2, SweepScheme::SparseCoo),
               DimensionError);

  // Kind-mismatched sweep calls are rejected too.
  Tensor D = S.to_dense();
  EXPECT_THROW(plan.begin_sweep(D), DimensionError);
  CpAlsSweepPlan dense_plan(ctx, dims, 2, SweepScheme::PerMode);
  EXPECT_THROW(dense_plan.begin_sweep(S), DimensionError);
}

TEST(SweepPlanSparse, EnforcesInOrderProtocolAndBinding) {
  Rng rng(94);
  const std::vector<index_t> dims{5, 4, 3};
  const sparse::SparseTensor S = random_sparse(rng, dims, 30, 0.0);
  const std::vector<Matrix> fs = random_factors(dims, 2, rng);
  ExecContext ctx(1);
  CpAlsSweepPlan plan(ctx, S, 2, SweepScheme::SparseCsf);
  Matrix M;
  EXPECT_THROW(plan.mode_mttkrp(0, S, fs, M), DimensionError);  // no begin
  plan.begin_sweep(S);
  EXPECT_THROW(plan.mode_mttkrp(1, S, fs, M), DimensionError);  // out of order
  plan.mode_mttkrp(0, S, fs, M);
  EXPECT_THROW(plan.mode_mttkrp(0, S, fs, M), DimensionError);  // repeat
  plan.mode_mttkrp(1, S, fs, M);
  plan.mode_mttkrp(2, S, fs, M);
  EXPECT_THROW(plan.mode_mttkrp(0, S, fs, M), DimensionError);  // done

  // A different tensor under a bound plan: shape mismatch or nnz mismatch.
  const sparse::SparseTensor other = random_sparse(rng, dims, 31, 0.0);
  EXPECT_THROW(plan.begin_sweep(other), DimensionError);
  sparse::SparseTensor wrong_shape(std::vector<index_t>{5, 4, 4});
  EXPECT_THROW(plan.begin_sweep(wrong_shape), DimensionError);
}

// ---------------------------------------------------------------------------
// Full CP-ALS through the plan layer.
// ---------------------------------------------------------------------------

TEST(SparseCpAlsPlan, SparseCooBitwiseMatchesRetiredDriver) {
  // The acceptance anchor: the plan-based driver with the COO kernel is
  // the retired ad-hoc driver, bit for bit — same seeds, same iterates,
  // same fit — only the execution path changed.
  Rng rng(95);
  for (int threads : {1, 2}) {
    for (const auto& dims : {std::vector<index_t>{8, 7, 6},
                             std::vector<index_t>{5, 4, 3, 4}}) {
      const sparse::SparseTensor S = random_sparse(rng, dims, 120, 0.15);
      CpAlsOptions opts;
      opts.rank = 3;
      opts.max_iters = 5;
      opts.tol = 0.0;
      opts.seed = 11;
      opts.threads = threads;
      opts.sweep_scheme = SweepScheme::SparseCoo;
      const CpAlsResult plan_r = sparse::cp_als(S, opts);
      const CpAlsResult retired_r = retired_coo_cp_als(S, opts);
      SCOPED_TRACE("threads=" + std::to_string(threads) + " order=" +
                   std::to_string(dims.size()));
      ASSERT_EQ(plan_r.iterations, retired_r.iterations);
      EXPECT_EQ(plan_r.converged, retired_r.converged);
      EXPECT_EQ(plan_r.final_fit, retired_r.final_fit);
      for (std::size_t n = 0; n < dims.size(); ++n) {
        EXPECT_EQ(plan_r.model.factors[n].max_abs_diff(
                      retired_r.model.factors[n]),
                  0.0)
            << "factor " << n;
      }
      for (std::size_t c = 0; c < plan_r.model.lambda.size(); ++c) {
        EXPECT_EQ(plan_r.model.lambda[c], retired_r.model.lambda[c]);
      }
    }
  }
}

TEST(SparseCpAlsPlan, CsfMatchesCooIteratesAndDenseCpAls) {
  Rng rng(96);
  Tensor X({7, 6, 5});
  for (index_t l = 0; l < X.numel(); ++l) {
    if (rng.uniform() < 0.3) X[l] = rng.uniform(-1.0, 1.0);
  }
  const sparse::SparseTensor S = sparse::SparseTensor::from_dense(X);
  CpAlsOptions opts;
  opts.rank = 2;
  opts.max_iters = 4;
  opts.tol = 0.0;
  opts.seed = 5;
  CpAlsOptions csf = opts;
  csf.sweep_scheme = SweepScheme::SparseCsf;
  CpAlsOptions coo = opts;
  coo.sweep_scheme = SweepScheme::SparseCoo;
  const CpAlsResult csf_r = sparse::cp_als(S, csf);
  const CpAlsResult coo_r = sparse::cp_als(S, coo);
  const CpAlsResult dense_r = cp_als(X, opts);  // Auto -> PerMode at N=3
  ASSERT_EQ(csf_r.iterations, coo_r.iterations);
  EXPECT_NEAR(csf_r.final_fit, coo_r.final_fit, 1e-9);
  EXPECT_NEAR(csf_r.final_fit, dense_r.final_fit, 1e-9);
  for (std::size_t n = 0; n < 3; ++n) {
    EXPECT_LT(csf_r.model.factors[n].max_abs_diff(coo_r.model.factors[n]),
              1e-7);
    EXPECT_LT(csf_r.model.factors[n].max_abs_diff(dense_r.model.factors[n]),
              1e-7);
  }
  // A CSF sweep plan exposes one leaf node per mode, each contracted once
  // a sweep.
  const std::vector<Matrix> fs = random_factors(S.dims(), 2, rng);
  ExecContext ctx(2);
  CpAlsSweepPlan plan(ctx, S, 2, SweepScheme::SparseCsf);
  Matrix M;
  for (int s = 0; s < csf_r.iterations; ++s) {
    plan.begin_sweep(S);
    for (index_t n = 0; n < S.order(); ++n) plan.mode_mttkrp(n, S, fs, M);
  }
  ASSERT_EQ(plan.nodes().size(), 3u);
  for (const SweepNode& nd : plan.nodes()) {
    EXPECT_TRUE(nd.leaf);
    EXPECT_EQ(nd.evals, csf_r.iterations);
  }
}

TEST(SparseCpAlsPlan, SweepsAreAllocationFreeAfterPlanning) {
  // Shared-context form of the zero-alloc contract: the first run grows
  // the arena exactly once per plan construction; a second factorization
  // of the same shape reuses it without any further heap traffic, and the
  // arena reads empty afterwards.
  Rng rng(97);
  const std::vector<index_t> dims{10, 8, 6, 5};
  const sparse::SparseTensor S = random_sparse(rng, dims, 400, 0.1);
  ExecContext ctx(2);
  CpAlsOptions opts;
  opts.rank = 4;
  opts.max_iters = 3;
  opts.tol = 0.0;
  opts.exec = &ctx;
  opts.sweep_scheme = SweepScheme::SparseCsf;
  const CpAlsResult warm = sparse::cp_als(S, opts);
  ASSERT_EQ(warm.iterations, 3);
  const std::size_t grows = ctx.arena().grow_count();
  const std::size_t capacity = ctx.arena().capacity();
  opts.seed = 77;
  const CpAlsResult r = sparse::cp_als(S, opts);
  ASSERT_EQ(r.iterations, 3);
  EXPECT_EQ(ctx.arena().grow_count(), grows);
  EXPECT_EQ(ctx.arena().capacity(), capacity);
  EXPECT_EQ(ctx.arena().in_use(), 0u);

  // And at the plan level: a full sweep's executes draw only frames.
  CpAlsSweepPlan plan(ctx, S, 4, SweepScheme::SparseCsf);
  const std::size_t grows2 = ctx.arena().grow_count();
  std::vector<Matrix> fs = random_factors(dims, 4, rng);
  std::vector<Matrix> Ms;
  for (index_t n = 0; n < 4; ++n) {
    Ms.emplace_back(dims[static_cast<std::size_t>(n)], 4);
  }
  for (int round = 0; round < 2; ++round) {
    plan.begin_sweep(S);
    for (index_t n = 0; n < 4; ++n) {
      plan.mode_mttkrp(n, S, fs, Ms[static_cast<std::size_t>(n)]);
    }
  }
  EXPECT_EQ(ctx.arena().grow_count(), grows2);
  EXPECT_EQ(ctx.arena().in_use(), 0u);
}

TEST(SparseCpAlsPlan, RecoversSparseLowRankStructure) {
  // End-to-end sanity retained from the retired driver's suite, now
  // through the CSF plan: exact sparse CP structure is recovered.
  Rng rng(98);
  Ktensor truth;
  for (index_t d : {index_t{12}, index_t{10}, index_t{8}}) {
    Matrix U(d, 2);
    for (index_t c = 0; c < 2; ++c) {
      for (index_t i = 0; i < d; ++i) {
        U(i, c) = rng.uniform() < 0.4 ? rng.uniform(0.5, 1.5) : 0.0;
      }
    }
    truth.factors.push_back(std::move(U));
  }
  truth.lambda = {1.0, 1.0};
  const sparse::SparseTensor S = sparse::SparseTensor::from_dense(truth.full());
  ASSERT_GT(S.nnz(), 0);
  CpAlsOptions opts;
  opts.rank = 2;
  opts.max_iters = 200;
  opts.tol = 1e-10;
  opts.sweep_scheme = SweepScheme::SparseCsf;
  const CpAlsResult r = sparse::cp_als(S, opts);
  EXPECT_GT(r.final_fit, 0.999);
}

TEST(SparseCpAlsPlan, RejectsDenseOnlyOptions) {
  Rng rng(99);
  const sparse::SparseTensor S =
      random_sparse(rng, std::vector<index_t>{4, 4, 4}, 10, 0.0);
  CpAlsOptions opts;
  opts.rank = 2;
  opts.max_iters = 2;
  opts.sweep_scheme = SweepScheme::DimTree;
  EXPECT_THROW(sparse::cp_als(S, opts), DimensionError);
}

}  // namespace
}  // namespace dmtk
