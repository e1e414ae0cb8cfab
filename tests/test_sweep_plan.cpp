// Coverage for the CP-ALS sweep planner (exec/sweep_plan.hpp): DimTree
// leaf MTTKRPs vs the Reference oracle across orders 3-6 and degenerate
// shapes, DimTree-vs-PerMode driver iterate equivalence, the tree's
// shape, plan reuse across factorizations, the in-order sweep
// protocol, the zero-allocation contract (arena instrumentation +
// blas::gemm_internal_allocs) over full dimension-tree sweeps, and the
// DimTree driver end to end (recovery, convergence, thread invariance,
// warm start, full-tensor passes vs PerMode, bad rank), and the depth-0
// leaves' one-kernel and arena-peak guarantees.

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "blas/gemm_workspace.hpp"
#include "core/cp_als.hpp"
#include "core/cp_nn.hpp"
#include "core/mttkrp.hpp"
#include "exec/exec_context.hpp"
#include "exec/mttkrp_plan.hpp"
#include "exec/sweep_plan.hpp"
#include "test_helpers.hpp"

namespace dmtk {
namespace {

using testing::expect_matrix_near;
using testing::random_factors;

/// One sweep with FIXED factors: every DimTree leaf must then equal the
/// plain mode-n MTTKRP (the tree is an algebraic rearrangement).
void expect_leaves_match_reference(const std::vector<index_t>& dims,
                                   index_t rank, int threads,
                                   SweepScheme scheme = SweepScheme::DimTree) {
  Rng rng(100 + static_cast<std::uint64_t>(dims.size()) +
          static_cast<std::uint64_t>(rank));
  Tensor X = Tensor::random_uniform(dims, rng);
  const std::vector<Matrix> fs = random_factors(dims, rank, rng);
  ExecContext ctx(threads);
  CpAlsSweepPlan plan(ctx, X.dims(), rank, scheme);
  plan.begin_sweep(X);
  Matrix M;
  for (index_t n = 0; n < X.order(); ++n) {
    plan.mode_mttkrp(n, X, fs, M);
    const Matrix ref = mttkrp(X, fs, n, MttkrpMethod::Reference);
    SCOPED_TRACE("scheme=" + std::string(to_string(plan.scheme())) +
                 " mode=" + std::to_string(n) +
                 " threads=" + std::to_string(threads));
    expect_matrix_near(M, ref, 1e-9);
  }
}

TEST(SweepPlanDimTree, LeavesMatchReferenceAcrossOrders) {
  const std::vector<std::vector<index_t>> shapes = {
      {5, 4},                 // 2-way: both root children are leaves
      {5, 4, 6},              // 3-way
      {3, 4, 2, 5},           // 4-way
      {3, 2, 4, 2, 3},        // 5-way
      {2, 3, 2, 2, 3, 2},     // 6-way: multi-level tree
  };
  for (const auto& dims : shapes) {
    for (int threads : {1, 3}) {
      expect_leaves_match_reference(dims, 3, threads);
    }
  }
}

TEST(SweepPlanDimTree, DegenerateShapes) {
  // A mode of extent 1 (leading, internal, trailing), rank 1, and rank
  // larger than every extent.
  expect_leaves_match_reference({1, 4, 3}, 3, 2);
  expect_leaves_match_reference({4, 1, 3, 2}, 2, 2);
  expect_leaves_match_reference({3, 4, 1}, 2, 1);
  expect_leaves_match_reference({3, 2, 4}, 1, 2);
  expect_leaves_match_reference({3, 2, 4, 2}, 7, 3);
  expect_leaves_match_reference({2, 1, 2, 1, 3}, 4, 2);
}

TEST(SweepPlanDimTree, PerModeSchemeThroughSameInterface) {
  expect_leaves_match_reference({5, 4, 6}, 3, 2, SweepScheme::PerMode);
  expect_leaves_match_reference({3, 4, 2, 5}, 4, 1, SweepScheme::PerMode);
}

TEST(SweepPlanDimTree, PlanReuseAcrossFactorizations) {
  // One plan, several sweeps with fresh factor values — the ALS pattern
  // across two factorizations of the same shape.
  const std::vector<index_t> dims{4, 3, 5, 2};
  Rng rng(77);
  Tensor X = Tensor::random_uniform(dims, rng);
  ExecContext ctx(2);
  CpAlsSweepPlan plan(ctx, X.dims(), 3, SweepScheme::DimTree);
  Matrix M;
  for (int round = 0; round < 3; ++round) {
    const std::vector<Matrix> fs = random_factors(dims, 3, rng);
    plan.begin_sweep(X);
    for (index_t n = 0; n < X.order(); ++n) {
      plan.mode_mttkrp(n, X, fs, M);
      expect_matrix_near(M, mttkrp(X, fs, n, MttkrpMethod::Reference), 1e-9);
    }
  }
  EXPECT_EQ(ctx.arena().in_use(), 0u);
}

/// The plan's nodes in build order as "first:last@depth", with an "L" on
/// leaves.
std::string tree_shape(const CpAlsSweepPlan& plan) {
  std::string s;
  for (const SweepNode& nd : plan.nodes()) {
    if (!s.empty()) s += ' ';
    s += std::to_string(nd.first) + ":" + std::to_string(nd.last) + "@" +
         std::to_string(nd.depth) + (nd.leaf ? "L" : "");
  }
  return s;
}

TEST(SweepPlanDimTree, TreeShapeMetadata) {
  ExecContext ctx(1);
  const std::vector<index_t> dims{2, 3, 2, 2, 3, 2};
  // Balanced splits down to single modes, ties to the later cut: every
  // node is a prefix or a suffix of its parent's interval.
  CpAlsSweepPlan full(ctx, dims, 2, SweepScheme::DimTree);
  EXPECT_EQ(tree_shape(full),
            "0:3@0 0:2@1 0:1@2L 1:2@2L 2:3@1L "
            "3:6@0 3:5@1 3:4@2L 4:5@2L 5:6@1L");
  CpAlsSweepPlan permode(ctx, dims, 2, SweepScheme::PerMode);
  EXPECT_EQ(permode.scheme(), SweepScheme::PerMode);
  EXPECT_EQ(tree_shape(permode), "0:1@0L 1:2@0L 2:3@0L 3:4@0L 4:5@0L 5:6@0L");
  // Auto runs the tree at every dense order.
  CpAlsSweepPlan auto6(ctx, dims, 2, SweepScheme::Auto);
  EXPECT_EQ(auto6.requested_scheme(), SweepScheme::Auto);
  EXPECT_EQ(auto6.scheme(), SweepScheme::DimTree);
  CpAlsSweepPlan auto3(ctx, {std::vector<index_t>{4, 5, 6}}, 2,
                       SweepScheme::Auto);
  EXPECT_EQ(auto3.scheme(), SweepScheme::DimTree);
  // {0, 1} | {2}, then {0} | {1}.
  EXPECT_EQ(tree_shape(auto3), "0:2@0 0:1@1L 1:2@1L 2:3@0L");
  // An explicit per-mode kernel pins PerMode under Auto — the tree would
  // silently discard the requested method otherwise.
  CpAlsSweepPlan pinned(ctx, dims, 2, SweepScheme::Auto,
                        MttkrpMethod::TwoStep);
  EXPECT_EQ(pinned.scheme(), SweepScheme::PerMode);
}

TEST(SweepSchemeAuto, PicksDimTreeForEveryDenseOrder) {
  // The resolution rule itself: the tree unless a per-mode kernel is
  // named — and never a sparse scheme for dense input (sparse resolution
  // happens in the sparse plan constructor, not here).
  EXPECT_EQ(resolve_sweep_scheme(SweepScheme::Auto), SweepScheme::DimTree);
  // An explicit per-mode kernel pins PerMode under Auto, acc64 included.
  for (MttkrpMethod m : {MttkrpMethod::TwoStep, MttkrpMethod::OneStep,
                         MttkrpMethod::Acc64}) {
    EXPECT_EQ(resolve_sweep_scheme(SweepScheme::Auto, m),
              SweepScheme::PerMode);
  }
  EXPECT_EQ(resolve_sweep_scheme(SweepScheme::DimTree, MttkrpMethod::TwoStep),
            SweepScheme::DimTree);  // explicit scheme still wins
  // The sparse resolver: Auto -> CSF, explicit schemes pass through.
  EXPECT_EQ(resolve_sparse_sweep_scheme(SweepScheme::Auto),
            SweepScheme::SparseCsf);
  EXPECT_EQ(resolve_sparse_sweep_scheme(SweepScheme::SparseCoo),
            SweepScheme::SparseCoo);
  // Explicit requests pass through untouched.
  for (SweepScheme s : {SweepScheme::PerMode, SweepScheme::DimTree,
                        SweepScheme::SparseCsf}) {
    EXPECT_EQ(resolve_sweep_scheme(s), s);
  }
  // Every dense order plans a tree under Auto, from N = 2.
  ExecContext ctx(1);
  for (const std::vector<index_t>& dims :
       {std::vector<index_t>{5, 4}, std::vector<index_t>{5, 4, 6},
        std::vector<index_t>{3, 4, 2, 5}}) {
    EXPECT_EQ(CpAlsSweepPlan(ctx, dims, 2).scheme(), SweepScheme::DimTree);
  }
}


// ---------------------------------------------------------------------------
// Driver equivalence: DimTree and PerMode sweeps produce the same ALS
// iterates (algebraic rearrangement, not an approximation).
// ---------------------------------------------------------------------------

class SweepSchemeShapes
    : public ::testing::TestWithParam<std::vector<index_t>> {};

TEST_P(SweepSchemeShapes, DimTreeVsPerModeIterates) {
  const std::vector<index_t> dims = GetParam();
  Rng rng(51);
  Tensor X = Tensor::random_uniform(dims, rng);
  CpAlsOptions opts;
  opts.rank = 3;
  opts.max_iters = 4;
  opts.tol = 0.0;
  opts.seed = 9;
  CpAlsOptions pm = opts;
  pm.sweep_scheme = SweepScheme::PerMode;
  CpAlsOptions dt = opts;
  dt.sweep_scheme = SweepScheme::DimTree;
  const CpAlsResult pm_r = cp_als(X, pm);
  const CpAlsResult dt_r = cp_als(X, dt);
  ASSERT_EQ(pm_r.iterations, dt_r.iterations);
  EXPECT_NEAR(pm_r.final_fit, dt_r.final_fit, 1e-9);
  for (std::size_t n = 0; n < dims.size(); ++n) {
    EXPECT_LT(pm_r.model.factors[n].max_abs_diff(dt_r.model.factors[n]), 1e-7)
        << "factor " << n;
  }
  for (index_t c = 0; c < opts.rank; ++c) {
    EXPECT_NEAR(pm_r.model.lambda[static_cast<std::size_t>(c)],
                dt_r.model.lambda[static_cast<std::size_t>(c)], 1e-7);
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, SweepSchemeShapes,
    ::testing::Values(std::vector<index_t>{6, 7},              // 2-way
                      std::vector<index_t>{5, 6, 7},           // 3-way
                      std::vector<index_t>{9, 2, 8},           // skewed 3-way
                      std::vector<index_t>{4, 5, 3, 6},        // 4-way
                      std::vector<index_t>{3, 4, 2, 3, 4},     // 5-way
                      std::vector<index_t>{2, 3, 2, 2, 3, 2},  // 6-way
                      std::vector<index_t>{4, 1, 5, 3},        // extent-1 mode
                      std::vector<index_t>{2, 3, 2, 2}));      // rank > extents

void expect_same_result(const CpAlsResult& a, const CpAlsResult& b) {
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.converged, b.converged);
  EXPECT_EQ(a.final_fit, b.final_fit);
  ASSERT_EQ(a.model.factors.size(), b.model.factors.size());
  for (std::size_t n = 0; n < a.model.factors.size(); ++n) {
    EXPECT_EQ(a.model.factors[n].max_abs_diff(b.model.factors[n]), 0.0)
        << "factor " << n;
  }
}

TEST(SweepSchemeAuto, AutoDriverMatchesExplicitDimTreeOnFourWay) {
  Rng rng(59);
  Tensor X = Tensor::random_uniform({4, 5, 3, 4}, rng);
  CpAlsOptions opts;
  opts.rank = 2;
  opts.max_iters = 3;
  CpAlsOptions dt = opts;
  dt.sweep_scheme = SweepScheme::DimTree;
  expect_same_result(cp_als(X, opts), cp_als(X, dt));
}

TEST(SweepScheme, NnhalsRunsDimTree) {
  Rng rng(53);
  Tensor X = Tensor::random_uniform({5, 4, 3, 4}, rng);
  CpAlsOptions opts;
  opts.rank = 3;
  opts.max_iters = 4;
  opts.tol = 0.0;
  CpAlsOptions dt = opts;
  dt.sweep_scheme = SweepScheme::DimTree;
  const CpAlsResult pm_r = cp_nnhals(X, opts);
  const CpAlsResult dt_r = cp_nnhals(X, dt);
  ASSERT_EQ(pm_r.iterations, dt_r.iterations);
  for (std::size_t n = 0; n < 4; ++n) {
    EXPECT_LT(pm_r.model.factors[n].max_abs_diff(dt_r.model.factors[n]), 1e-7);
  }
}

TEST(SweepScheme, SharedContextReusesOneArena) {
  // Two factorizations of the same shape through one context: results
  // match the private-context runs exactly, and the arena is grown only by
  // plan construction.
  Rng rng(54);
  Tensor X = Tensor::random_uniform({4, 5, 3, 6}, rng);
  CpAlsOptions opts;
  opts.rank = 3;
  opts.max_iters = 3;
  opts.sweep_scheme = SweepScheme::DimTree;
  opts.threads = 2;
  const CpAlsResult solo_a = cp_als(X, opts);
  CpAlsOptions opts2 = opts;
  opts2.seed = 1234;
  const CpAlsResult solo_b = cp_als(X, opts2);

  ExecContext ctx(2);
  CpAlsOptions shared = opts;
  shared.exec = &ctx;
  CpAlsOptions shared2 = opts2;
  shared2.exec = &ctx;
  expect_same_result(solo_a, cp_als(X, shared));
  expect_same_result(solo_b, cp_als(X, shared2));
  EXPECT_EQ(ctx.arena().in_use(), 0u);
}

TEST(SweepScheme, DimTreeCountsEveryNodeOncePerSweep) {
  Rng rng(55);
  const std::vector<index_t> dims{6, 5, 4, 3};
  Tensor X = Tensor::random_uniform(dims, rng);
  const std::vector<Matrix> fs = random_factors(dims, 3, rng);
  constexpr int kSweeps = 3;
  ExecContext ctx(2);
  CpAlsSweepPlan plan(ctx, dims, 3, SweepScheme::DimTree);
  Matrix M;
  for (int s = 0; s < kSweeps; ++s) {
    plan.begin_sweep(X);
    for (index_t n = 0; n < X.order(); ++n) plan.mode_mttkrp(n, X, fs, M);
  }
  ASSERT_FALSE(plan.nodes().empty());
  int leaves = 0;
  for (const SweepNode& nd : plan.nodes()) {
    EXPECT_EQ(nd.evals, kSweeps);  // every node contracts once a sweep
    if (nd.leaf) ++leaves;
  }
  EXPECT_EQ(leaves, 4);
}

// ---------------------------------------------------------------------------
// The zero-allocation contract: after construction, a full dimension-tree
// sweep draws only from the already-reserved arena — including the BLAS
// packing workspaces of every node contraction.
// ---------------------------------------------------------------------------

// ---------------------------------------------------------------------------
// The dimension-tree driver end to end: cp_als with sweep_scheme = DimTree.
// ---------------------------------------------------------------------------

CpAlsOptions dimtree_opts(index_t rank, int max_iters, double tol) {
  CpAlsOptions opts;
  opts.rank = rank;
  opts.max_iters = max_iters;
  opts.tol = tol;
  opts.sweep_scheme = SweepScheme::DimTree;
  return opts;
}

TEST(DimTreeDriver, RecoversLowRankTensor) {
  Rng rng(42);
  Ktensor truth = Ktensor::random(std::array<index_t, 4>{7, 6, 5, 4}, 2, rng);
  const CpAlsResult r = cp_als(truth.full(), dimtree_opts(2, 300, 1e-10));
  EXPECT_GT(r.final_fit, 0.999);
  EXPECT_GT(factor_match_score(r.model, truth), 0.99);
}

TEST(DimTreeDriver, ConvergenceFlagWorks) {
  Rng rng(43);
  Ktensor truth = Ktensor::random(std::array<index_t, 3>{8, 8, 8}, 2, rng);
  const CpAlsResult r = cp_als(truth.full(), dimtree_opts(2, 500, 1e-7));
  EXPECT_TRUE(r.converged);
  EXPECT_LT(r.iterations, 500);
}

TEST(DimTreeDriver, ThreadInvariant) {
  Rng rng(44);
  Tensor X = Tensor::random_uniform({6, 7, 8}, rng);
  CpAlsOptions o1 = dimtree_opts(3, 3, 0.0);
  CpAlsOptions o4 = o1;
  o1.threads = 1;
  o4.threads = 4;
  EXPECT_NEAR(cp_als(X, o1).final_fit, cp_als(X, o4).final_fit, 1e-9);
}

TEST(DimTreeDriver, WarmStartSupported) {
  Rng rng(45);
  Ktensor truth = Ktensor::random(std::array<index_t, 3>{6, 6, 6}, 2, rng);
  CpAlsOptions opts = dimtree_opts(2, 10, 1e-9);
  opts.initial_guess = &truth;
  const CpAlsResult r = cp_als(truth.full(), opts);
  EXPECT_TRUE(r.converged);
  EXPECT_GT(r.final_fit, 1.0 - 1e-6);
}

TEST(DimTreeDriver, FewerFullTensorPassesPerSweep) {
  // The tree's saving is a count, not a timing: a depth-0 node contracts
  // the full tensor, so over S sweeps the tree pays 2·S full passes where
  // PerMode pays N·S (one per mode plan). Checked on a 4-way tensor and on
  // a 3-way one, whose tree is {0} | {1, 2}: its mode-0 leaf is one of the
  // two passes. Auto resolves to the tree on both; PerMode is pinned.
  constexpr int kSweeps = 3;
  ExecContext ctx(2);
  for (const std::vector<index_t>& dims :
       {std::vector<index_t>{40, 40, 40, 10},
        std::vector<index_t>{30, 30, 30}}) {
    Rng rng(46);
    Tensor X = Tensor::random_uniform(dims, rng);
    const std::vector<Matrix> fs = random_factors(dims, 8, rng);
    const index_t N = X.order();
    for (SweepScheme scheme : {SweepScheme::Auto, SweepScheme::PerMode}) {
      CpAlsSweepPlan plan(ctx, X.dims(), 8, scheme);
      Matrix M;
      for (int s = 0; s < kSweeps; ++s) {
        plan.begin_sweep(X);
        for (index_t n = 0; n < N; ++n) plan.mode_mttkrp(n, X, fs, M);
      }
      std::int64_t full_passes = 0;
      for (const SweepNode& nd : plan.nodes()) {
        if (nd.depth == 0) full_passes += nd.evals;
      }
      SCOPED_TRACE(std::string(to_string(plan.scheme())) + " N=" +
                   std::to_string(N));
      EXPECT_EQ(full_passes,
                (plan.scheme() == SweepScheme::DimTree ? 2 : N) * kSweeps);
    }
  }
}

// ---------------------------------------------------------------------------
// One kernel: a depth-0 leaf (mode 0 or N-1 as a child of the root) runs
// the external-mode 1-step kernel of MttkrpPlan, so its output is the
// per-mode plan's to the bit, under real thread teams.
// ---------------------------------------------------------------------------

TEST(SweepPlanDimTree, TwoWayTreeIsBitwisePerMode) {
  // Both leaves of a 2-way tree sit at depth 0.
  const std::vector<index_t> dims{157, 93};
  Rng rng(60);
  Tensor X = Tensor::random_uniform(dims, rng);
  const std::vector<Matrix> fs = random_factors(dims, 7, rng);
  for (int threads : {1, 4}) {
    ExecContext ctx(threads);
    CpAlsSweepPlan tree(ctx, dims, 7);
    CpAlsSweepPlan permode(ctx, dims, 7, SweepScheme::PerMode);
    ASSERT_EQ(tree.scheme(), SweepScheme::DimTree);
    // One sweep at a time: the tree holds its arena frame until its last
    // mode is served.
    std::array<Matrix, 2> Mt;
    std::array<Matrix, 2> Mp;
    tree.begin_sweep(X);
    for (index_t n = 0; n < 2; ++n) {
      tree.mode_mttkrp(n, X, fs, Mt[static_cast<std::size_t>(n)]);
    }
    permode.begin_sweep(X);
    for (index_t n = 0; n < 2; ++n) {
      permode.mode_mttkrp(n, X, fs, Mp[static_cast<std::size_t>(n)]);
    }
    for (std::size_t n = 0; n < 2; ++n) {
      EXPECT_EQ(Mt[n].max_abs_diff(Mp[n]), 0.0)
          << "mode " << n << " threads " << threads;
    }
  }
}

TEST(SweepPlanDimTree, ThreeWayModeZeroIsBitwiseMttkrpPlan) {
  // 37 < 29*31, so the tree is {0} | {1, 2}: mode 0 is its depth-0 leaf,
  // bitwise the named OneStep plan.
  const std::vector<index_t> dims{37, 29, 31};
  Rng rng(61);
  Tensor X = Tensor::random_uniform(dims, rng);
  const std::vector<Matrix> fs = random_factors(dims, 6, rng);
  for (int threads : {1, 4}) {
    ExecContext ctx(threads);
    CpAlsSweepPlan tree(ctx, dims, 6);
    MttkrpPlan mode0(ctx, dims, 6, 0, MttkrpMethod::OneStep);
    Matrix Mt;
    Matrix M;
    tree.begin_sweep(X);
    tree.mode_mttkrp(0, X, fs, Mt);
    // Finish the sweep (it closes the tree's arena frame) before the plan
    // draws from the same arena.
    for (index_t n = 1; n < 3; ++n) tree.mode_mttkrp(n, X, fs, M);
    Matrix Mp;
    mode0.execute(X, fs, Mp);
    EXPECT_EQ(Mt.max_abs_diff(Mp), 0.0) << "threads " << threads;
  }
}

TEST(SweepPlanDimTree, ThreeWayPeakIsTheLargestPerModePlan) {
  // 48^3 is a tie, so the tree is {0, 1} | {2}. Liveness layout: the
  // mode-2 leaf's 1-step workspace overlaps the {0, 1} intermediate, so
  // the tree's arena peak is about the largest named per-mode plan's (the
  // paper's policy: 1-step on modes 0 and 2, 2-step on mode 1), not their
  // sum. workspace_bytes() is the true peak (leaf kernel included), and a
  // sweep draws no more than it.
  const index_t I = 48;
  const index_t C = 12;
  const std::vector<index_t> dims{I, I, I};
  Rng rng(62);
  Tensor X = Tensor::random_uniform(dims, rng);
  const std::vector<Matrix> fs = random_factors(dims, C, rng);
  for (int threads : {1, 4}) {
    ExecContext ctx(threads);
    std::size_t per_mode_max = 0;
    for (index_t n = 0; n < 3; ++n) {
      const MttkrpMethod m =
          n == 1 ? MttkrpMethod::TwoStep : MttkrpMethod::OneStep;
      per_mode_max = std::max(
          per_mode_max, MttkrpPlan(ctx, dims, C, n, m).workspace_bytes());
    }
    CpAlsSweepPlan tree(ctx, dims, C);
    ASSERT_EQ(tree.scheme(), SweepScheme::DimTree);
    Matrix M;
    tree.begin_sweep(X);
    for (index_t n = 0; n < 3; ++n) tree.mode_mttkrp(n, X, fs, M);
    SCOPED_TRACE("threads " + std::to_string(threads));
    const double bound = 1.05 * static_cast<double>(per_mode_max);
    EXPECT_LE(static_cast<double>(tree.workspace_bytes()), bound);
    // The per-mode plans never executed on this context, so the high
    // water is the sweep's alone; it is exactly the planned peak.
    EXPECT_LE(static_cast<double>(ctx.arena().high_water()), bound);
    EXPECT_EQ(ctx.arena().high_water(), tree.workspace_bytes());
  }
}

TEST(DimTreeDriver, RejectsBadRank) {
  Rng rng(47);
  Tensor X = Tensor::random_uniform({4, 4, 4}, rng);
  EXPECT_THROW(cp_als(X, dimtree_opts(0, 50, 1e-4)), DimensionError);
}

TEST(SweepPlanDimTree, SweepIsAllocationFreeAfterConstruction) {
  Rng rng(56);
  const std::vector<index_t> dims{7, 6, 5, 4};
  Tensor X = Tensor::random_uniform(dims, rng);
  ExecContext ctx(3);
  CpAlsSweepPlan plan(ctx, X.dims(), 5, SweepScheme::DimTree);

  const std::size_t grows = ctx.arena().grow_count();
  const std::size_t capacity = ctx.arena().capacity();
  const std::size_t blas_allocs = blas::gemm_internal_allocs();
  EXPECT_LE(plan.workspace_bytes(), capacity);

  Matrix M;
  for (int round = 0; round < 3; ++round) {
    std::vector<Matrix> fs = random_factors(dims, 5, rng);
    plan.begin_sweep(X);
    for (index_t n = 0; n < X.order(); ++n) {
      plan.mode_mttkrp(n, X, fs, M);
      // In-place factor updates between modes, as in a real sweep.
      fs[static_cast<std::size_t>(n)] =
          testing::random_factors(dims, 5, rng)[static_cast<std::size_t>(n)];
    }
  }
  EXPECT_EQ(ctx.arena().grow_count(), grows);
  EXPECT_EQ(ctx.arena().capacity(), capacity);
  EXPECT_EQ(ctx.arena().in_use(), 0u);
  EXPECT_LE(ctx.arena().high_water(), capacity);
  EXPECT_EQ(blas::gemm_internal_allocs(), blas_allocs)
      << "a tree contraction fell back to the internal packing arena";
}

// ---------------------------------------------------------------------------
// Sweep protocol and validation.
// ---------------------------------------------------------------------------

TEST(SweepPlan, EnforcesInOrderProtocol) {
  Rng rng(57);
  const std::vector<index_t> dims{4, 3, 5};
  Tensor X = Tensor::random_uniform(dims, rng);
  const std::vector<Matrix> fs = random_factors(dims, 2, rng);
  ExecContext ctx(1);
  CpAlsSweepPlan plan(ctx, X.dims(), 2, SweepScheme::DimTree);
  Matrix M;
  // No begin_sweep yet.
  EXPECT_THROW(plan.mode_mttkrp(0, X, fs, M), DimensionError);
  plan.begin_sweep(X);
  // Out of order.
  EXPECT_THROW(plan.mode_mttkrp(1, X, fs, M), DimensionError);
  plan.mode_mttkrp(0, X, fs, M);
  // Repeat of a served mode.
  EXPECT_THROW(plan.mode_mttkrp(0, X, fs, M), DimensionError);
  plan.mode_mttkrp(1, X, fs, M);
  plan.mode_mttkrp(2, X, fs, M);
  // Sweep complete; the next sweep needs a fresh begin_sweep.
  EXPECT_THROW(plan.mode_mttkrp(0, X, fs, M), DimensionError);
  plan.begin_sweep(X);
  plan.mode_mttkrp(0, X, fs, M);
  expect_matrix_near(M, mttkrp(X, fs, 0, MttkrpMethod::Reference), 1e-10);
}

TEST(SweepPlan, ValidationErrors) {
  ExecContext ctx(1);
  const std::vector<index_t> dims{4, 5, 6};
  EXPECT_THROW(CpAlsSweepPlan(ctx, dims, 0, SweepScheme::DimTree),
               DimensionError);
  EXPECT_THROW(
      CpAlsSweepPlan(ctx, {std::vector<index_t>{7}}, 3, SweepScheme::DimTree),
      DimensionError);

  Rng rng(58);
  CpAlsSweepPlan plan(ctx, dims, 3, SweepScheme::DimTree);
  Tensor Y = Tensor::random_uniform({4, 5, 7}, rng);
  EXPECT_THROW(plan.begin_sweep(Y), DimensionError);
  Tensor X = Tensor::random_uniform(dims, rng);
  plan.begin_sweep(X);
  Matrix M;
  std::vector<Matrix> bad = random_factors(dims, 4, rng);  // wrong rank
  EXPECT_THROW(plan.mode_mttkrp(0, X, bad, M), DimensionError);
}

TEST(SweepBalancedSplit, GeneralizesDimtreeSplit) {
  // The root split over all N modes.
  const auto root = [](std::vector<index_t> dims) {
    return sweep_balanced_split(dims, 0, static_cast<index_t>(dims.size()));
  };
  EXPECT_EQ(root({4, 4, 4, 4}), 2);  // 16 | 16
  EXPECT_EQ(root({100, 2, 2}), 1);   // max(100, 4) beats max(200, 2)
  EXPECT_EQ(root({2, 2, 100}), 2);   // max(4, 100) beats max(2, 200)
  EXPECT_EQ(root({7, 9}), 1);        // two-way tensors have only s = 1
  // A tie takes the later split: X(0:1) column-major for the full-tensor
  // GEMM, and mode N-1's row-major 1-step for the depth-0 leaf.
  EXPECT_EQ(root({48, 48, 48}), 2);          // 48 | 2304 ties 2304 | 48
  EXPECT_EQ(root({30, 30, 30, 30, 30}), 3);  // 900 | 27000 ties 27000 | 900
  // Sub-interval splits used by the deeper tree levels.
  const std::vector<index_t> dims{2, 2, 100, 3};
  EXPECT_EQ(sweep_balanced_split(dims, 0, 2), 1);
  EXPECT_EQ(sweep_balanced_split(dims, 1, 4), 3);
}

TEST(SweepSchemeParse, RoundTripsAndRejectsOtherSpellings) {
  for (SweepScheme s :
       {SweepScheme::Auto, SweepScheme::PerMode, SweepScheme::DimTree,
        SweepScheme::SparseCsf, SweepScheme::SparseCoo}) {
    const auto parsed = parse_sweep_scheme(to_string(s));
    ASSERT_TRUE(parsed.has_value()) << to_string(s);
    EXPECT_EQ(*parsed, s);
  }
  EXPECT_EQ(parse_sweep_scheme("csf"), SweepScheme::SparseCsf);
  EXPECT_EQ(parse_sweep_scheme("coo"), SweepScheme::SparseCoo);
  // One spelling per scheme: the retired aliases are unknown names.
  for (const char* alias : {"per-mode", "dim-tree", "sparse-csf",
                            "sparse-coo"}) {
    EXPECT_EQ(parse_sweep_scheme(alias), std::nullopt) << alias;
  }
  EXPECT_FALSE(parse_sweep_scheme("").has_value());
  EXPECT_FALSE(parse_sweep_scheme("tree").has_value());
}

}  // namespace
}  // namespace dmtk
