// Coverage for the plan-based execution API (exec/): ExecContext +
// WorkspaceArena semantics, MttkrpPlan vs the one-shot wrapper (bitwise),
// plan reuse across repeated executes, the zero-allocation contract after
// plan construction, and driver equivalence between the `exec` and
// `threads` configuration paths.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <string>
#include <vector>

#include "blas/gemm_workspace.hpp"
#include "core/cp_als.hpp"
#include "core/cp_nn.hpp"
#include "core/mttkrp.hpp"
#include "exec/exec_context.hpp"
#include "exec/mttkrp_plan.hpp"
#include "exec/onestep_external.hpp"
#include "exec/sweep_plan.hpp"
#include "test_helpers.hpp"
#include "util/parallel.hpp"

namespace dmtk {
namespace {

using testing::random_factors;

const std::vector<MttkrpMethod> kAllMethods = {
    MttkrpMethod::Reference, MttkrpMethod::Reorder, MttkrpMethod::OneStep,
    MttkrpMethod::TwoStep,   MttkrpMethod::Auto,    MttkrpMethod::Acc64,
};

void expect_bitwise_equal(const Matrix& a, const Matrix& b) {
  ASSERT_EQ(a.rows(), b.rows());
  ASSERT_EQ(a.cols(), b.cols());
  for (index_t j = 0; j < a.cols(); ++j) {
    for (index_t i = 0; i < a.rows(); ++i) {
      ASSERT_EQ(a(i, j), b(i, j)) << "at (" << i << ", " << j << ")";
    }
  }
}

// ---------------------------------------------------------------------------
// WorkspaceArena
// ---------------------------------------------------------------------------

TEST(WorkspaceArena, ReserveGrowsOnceAndTracksGrowCount) {
  WorkspaceArena arena;
  EXPECT_EQ(arena.capacity(), 0u);
  EXPECT_EQ(arena.grow_count(), 0u);
  arena.reserve<double>(100);
  EXPECT_GE(arena.capacity(), 100u * sizeof(double));
  EXPECT_EQ(arena.grow_count(), 1u);
  arena.reserve<double>(50);  // never shrinks, no realloc
  EXPECT_EQ(arena.grow_count(), 1u);
  arena.reserve_bytes(3200);
  EXPECT_EQ(arena.grow_count(), 2u);
}

TEST(WorkspaceArena, FramesBumpAndRelease) {
  WorkspaceArena arena;
  arena.reserve_bytes(WorkspaceArena::aligned_count<double>(10) *
                      sizeof(double) * 3);
  {
    WorkspaceArena::Frame f(arena);
    double* a = f.alloc<double>(10);
    double* b = f.alloc<double>(10);
    ASSERT_NE(a, nullptr);
    // Blocks are cache-line aligned and disjoint.
    EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a) % kDefaultAlignment, 0u);
    EXPECT_GE(b, a + 10);
    EXPECT_GT(arena.in_use(), 0u);
  }
  EXPECT_EQ(arena.in_use(), 0u);  // frame destruction releases in bulk
  EXPECT_GT(arena.high_water(), 0u);
}

TEST(WorkspaceArena, TypedCarveOutsShareOneByteBudget) {
  // The same arena serves float and double carve-outs: a float block of
  // the same element count takes half the bytes, and both come back
  // line-aligned — the typed replacement for the old doubles-measured
  // blocks that float users had to reinterpret.
  WorkspaceArena arena;
  arena.reserve_bytes(4096);
  WorkspaceArena::Frame f(arena);
  float* a = f.alloc<float>(16);
  double* b = f.alloc<double>(16);
  ASSERT_NE(a, nullptr);
  ASSERT_NE(b, nullptr);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(a) % kDefaultAlignment, 0u);
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(b) % kDefaultAlignment, 0u);
  // 16 floats round up to one cache line (64 B); 16 doubles to two.
  EXPECT_EQ(arena.in_use(), 64u + 128u);
  a[0] = 1.0f;  // both views are writable storage
  b[0] = 2.0;
  EXPECT_EQ(a[0], 1.0f);
  EXPECT_EQ(b[0], 2.0);
}

TEST(WorkspaceArena, FrameAllocBeyondReserveThrows) {
  WorkspaceArena arena;
  arena.reserve<double>(WorkspaceArena::aligned_count<double>(8));
  WorkspaceArena::Frame f(arena);
  (void)f.alloc<double>(8);
  EXPECT_THROW((void)f.alloc<double>(1024), DimensionError);
}

TEST(WorkspaceArena, GrowthUnderAnOpenFrameThrows) {
  // Growth moves the storage, so it would leave an open frame's pointers
  // dangling: it is refused, and allowed again once the frame closes.
  WorkspaceArena arena;
  arena.reserve<double>(8);
  {
    WorkspaceArena::Frame f(arena);
    (void)f.alloc<double>(8);
    arena.reserve<double>(8);  // fits: no growth, no error
    EXPECT_THROW(arena.reserve<double>(1024), DimensionError);
  }
  EXPECT_EQ(arena.grow_count(), 1u);
  arena.reserve<double>(1024);
  EXPECT_EQ(arena.grow_count(), 2u);
  WorkspaceArena::Frame f(arena);
  double* p = f.alloc<double>(1024);
  p[1023] = 1.0;
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % kDefaultAlignment, 0u);
}

TEST(ExecContext, ResolvesAndPinsThreads) {
  ExecContext one(1);
  EXPECT_EQ(one.threads(), 1);
  ExecContext four(4);
  EXPECT_EQ(four.threads(), 4);
  ExecContext dflt;  // <=0 resolves to the library default, which is >= 1
  EXPECT_GE(dflt.threads(), 1);
  // Partition policy matches block_range.
  const Range r0 = four.partition(10, 0);
  EXPECT_EQ(r0.begin, 0);
  EXPECT_EQ(r0.size(), four.max_block(10));
}

// ---------------------------------------------------------------------------
// Plan vs one-shot: bitwise equivalence for every method.
// ---------------------------------------------------------------------------

struct PlanCase {
  std::vector<index_t> dims;
  index_t rank;
  int threads;
};

class PlanVsOneShot : public ::testing::TestWithParam<PlanCase> {};

TEST_P(PlanVsOneShot, BitwiseEqualAcrossMethodsAndModes) {
  const PlanCase& pc = GetParam();
  Rng rng(123 + static_cast<std::uint64_t>(pc.dims.size()));
  Tensor X = Tensor::random_uniform(pc.dims, rng);
  const std::vector<Matrix> fs = random_factors(pc.dims, pc.rank, rng);
  ExecContext ctx(pc.threads);
  const index_t N = X.order();
  for (index_t mode = 0; mode < N; ++mode) {
    for (MttkrpMethod m : kAllMethods) {
      MttkrpPlan plan(ctx, X.dims(), pc.rank, mode, m);
      Matrix got(X.dim(mode), pc.rank);
      plan.execute(X, fs, got);
      const Matrix expect = mttkrp(X, fs, mode, m, pc.threads);
      SCOPED_TRACE(std::string("method=") + std::string(to_string(m)) +
                   " mode=" + std::to_string(mode));
      expect_bitwise_equal(got, expect);
    }
  }
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, PlanVsOneShot,
    ::testing::Values(PlanCase{{5, 4, 6}, 3, 1},       // 3-way sequential
                      PlanCase{{5, 4, 6}, 3, 3},       // 3-way threaded
                      PlanCase{{3, 4, 2, 5}, 4, 2},    // 4-way
                      PlanCase{{3, 2, 4, 2, 3}, 5, 3}  // 5-way
                      ));

// ---------------------------------------------------------------------------
// Plan reuse: repeated execute() with changing values stays correct.
// ---------------------------------------------------------------------------

TEST(MttkrpPlan, ReuseAcrossRepeatedExecutes) {
  Rng rng(321);
  const std::vector<index_t> dims{6, 5, 4};
  Tensor X = Tensor::random_uniform(dims, rng);
  ExecContext ctx(2);
  for (MttkrpMethod m :
       {MttkrpMethod::OneStep, MttkrpMethod::TwoStep, MttkrpMethod::Auto}) {
    MttkrpPlan plan(ctx, X.dims(), 3, 1, m);
    Matrix M;
    for (int round = 0; round < 4; ++round) {
      // Fresh factor values every round: the plan must not cache values.
      const std::vector<Matrix> fs = random_factors(dims, 3, rng);
      plan.execute(X, fs, M);
      const Matrix expect = mttkrp(X, fs, 1, m, 2);
      expect_bitwise_equal(M, expect);
    }
  }
}

TEST(MttkrpPlan, SharedContextAcrossModesMatchesOneShot) {
  // The ALS pattern: one context, one plan per mode, arena shared.
  Rng rng(77);
  const std::vector<index_t> dims{4, 5, 3, 4};
  Tensor X = Tensor::random_uniform(dims, rng);
  const std::vector<Matrix> fs = random_factors(dims, 4, rng);
  ExecContext ctx(2);
  std::vector<MttkrpPlan> plans;
  for (index_t n = 0; n < X.order(); ++n) {
    plans.emplace_back(ctx, X.dims(), 4, n, MttkrpMethod::Auto);
  }
  for (int sweep = 0; sweep < 3; ++sweep) {
    for (index_t n = 0; n < X.order(); ++n) {
      Matrix M;
      plans[static_cast<std::size_t>(n)].execute(X, fs, M);
      expect_bitwise_equal(M, mttkrp(X, fs, n, MttkrpMethod::Auto, 2));
    }
  }
}

// ---------------------------------------------------------------------------
// ExecContext edge cases.
// ---------------------------------------------------------------------------

TEST(MttkrpPlan, SingleThreadContext) {
  Rng rng(11);
  const std::vector<index_t> dims{4, 3, 5};
  Tensor X = Tensor::random_uniform(dims, rng);
  const std::vector<Matrix> fs = random_factors(dims, 2, rng);
  ExecContext ctx(1);
  for (index_t mode = 0; mode < 3; ++mode) {
    MttkrpPlan plan(ctx, X.dims(), 2, mode, MttkrpMethod::OneStep);
    Matrix M;
    plan.execute(X, fs, M);
    const Matrix ref = mttkrp(X, fs, mode, MttkrpMethod::Reference);
    testing::expect_matrix_near(M, ref, 1e-12);
  }
}

TEST(MttkrpPlan, MoreThreadsThanBlocks) {
  // threads exceed both the internal-mode block count (I_R1 = 2) and the
  // external-mode fiber count; the extra threads get empty ranges and the
  // result must still be exact.
  Rng rng(12);
  const std::vector<index_t> dims{4, 5, 2};
  Tensor X = Tensor::random_uniform(dims, rng);
  const std::vector<Matrix> fs = random_factors(dims, 3, rng);
  ExecContext ctx(16);
  for (index_t mode = 0; mode < 3; ++mode) {
    for (MttkrpMethod m : {MttkrpMethod::OneStep, MttkrpMethod::TwoStep}) {
      MttkrpPlan plan(ctx, X.dims(), 3, mode, m);
      Matrix M;
      plan.execute(X, fs, M);
      const Matrix ref = mttkrp(X, fs, mode, MttkrpMethod::Reference);
      SCOPED_TRACE(std::string("method=") + std::string(to_string(m)) +
                   " mode=" + std::to_string(mode));
      testing::expect_matrix_near(M, ref, 1e-12);
    }
  }
}

// ---------------------------------------------------------------------------
// The zero-allocation contract: after plan construction, execute() draws
// only from the already-reserved arena.
// ---------------------------------------------------------------------------

TEST(MttkrpPlan, ExecuteIsAllocationFreeAfterConstruction) {
  Rng rng(13);
  const std::vector<index_t> dims{7, 6, 5, 4};
  Tensor X = Tensor::random_uniform(dims, rng);
  ExecContext ctx(3);

  // Build one plan per (mode, method) — all reserves happen HERE.
  std::vector<MttkrpPlan> plans;
  for (index_t mode = 0; mode < X.order(); ++mode) {
    for (MttkrpMethod m : kAllMethods) {
      plans.emplace_back(ctx, X.dims(), 3, mode, m);
    }
  }
  const std::size_t grows_after_construction = ctx.arena().grow_count();
  const std::size_t capacity_after_construction = ctx.arena().capacity();
  const std::size_t blas_allocs_after_construction =
      blas::gemm_internal_allocs();
  for (const MttkrpPlan& p : plans) {
    EXPECT_LE(p.workspace_bytes(), capacity_after_construction);
  }

  Matrix M;  // sized by the first execute of each shape
  for (int round = 0; round < 3; ++round) {
    const std::vector<Matrix> fs = random_factors(dims, 3, rng);
    for (MttkrpPlan& p : plans) {
      p.execute(X, fs, M);
    }
  }
  // No arena growth, no new reservations: execute() never touched the heap
  // through the workspace machinery.
  EXPECT_EQ(ctx.arena().grow_count(), grows_after_construction);
  EXPECT_EQ(ctx.arena().capacity(), capacity_after_construction);
  EXPECT_EQ(ctx.arena().in_use(), 0u);  // every frame released
  EXPECT_LE(ctx.arena().high_water(), capacity_after_construction);
  // ...and the BLAS layer never fell back to its internal packing arena:
  // every gemm/gemm_batched inside execute() ran on the plan's carved
  // GemmWorkspace.
  EXPECT_EQ(blas::gemm_internal_allocs(), blas_allocs_after_construction);
}

TEST(MttkrpPlan, GemmDominatedMethodsAreHeapFreeInsideBlas) {
  // GEMM-heavy shapes: large enough that the blocked kernel crosses its
  // packing-panel boundaries (k > KC for mode 0's 2-step GEMM), so a
  // workspace regression would show up as internal fallback allocation.
  Rng rng(131);
  const std::vector<index_t> dims{40, 30, 24};
  Tensor X = Tensor::random_uniform(dims, rng);
  const index_t rank = 16;
  ExecContext ctx(2);

  std::vector<MttkrpPlan> plans;
  for (index_t mode = 0; mode < X.order(); ++mode) {
    // Reorder: one In x rank x cosize GEMM; TwoStep: the paper's
    // GEMM-dominated internal path; OneStep internal: the batched sweep.
    for (MttkrpMethod m : {MttkrpMethod::Reorder, MttkrpMethod::TwoStep,
                           MttkrpMethod::OneStep}) {
      plans.emplace_back(ctx, X.dims(), rank, mode, m);
    }
  }
  const std::size_t grows = ctx.arena().grow_count();
  const std::size_t blas_allocs = blas::gemm_internal_allocs();

  Matrix M;
  const std::vector<Matrix> fs = random_factors(dims, rank, rng);
  const Matrix ref = mttkrp(X, fs, 0, MttkrpMethod::Reference);
  for (int round = 0; round < 2; ++round) {
    for (MttkrpPlan& p : plans) {
      p.execute(X, fs, M);
      if (p.mode() == 0) testing::expect_matrix_near(M, ref, 1e-9);
    }
  }
  EXPECT_EQ(ctx.arena().grow_count(), grows);
  EXPECT_EQ(blas::gemm_internal_allocs(), blas_allocs)
      << "a plan GEMM/SYRK call fell back to the internal packing arena";
}

// ---------------------------------------------------------------------------
// Auto is the dimension tree's root-to-leaf path: bitwise what a DimTree
// sweep serves on unchanged factors, drawn from the same arena footprint.
// ---------------------------------------------------------------------------

template <typename T>
void expect_auto_is_tree_path(const std::vector<index_t>& dims, int threads,
                              double tol) {
  const index_t rank = 5;
  const index_t N = static_cast<index_t>(dims.size());
  Rng rng(400 + static_cast<std::uint64_t>(dims[0]) +
          static_cast<std::uint64_t>(N));
  const TensorT<T> X = TensorT<T>::random_uniform(dims, rng);
  const std::vector<MatrixT<T>> fs = random_factors<T>(dims, rank, rng);
  ExecContext ctx(threads);
  CpAlsSweepPlanT<T> sweep(ctx, dims, rank);
  ASSERT_EQ(sweep.scheme(), SweepScheme::DimTree);
  std::vector<MatrixT<T>> tree_out(dims.size());
  sweep.begin_sweep(X);
  for (index_t n = 0; n < N; ++n) {
    sweep.mode_mttkrp(n, X, fs, tree_out[static_cast<std::size_t>(n)]);
  }

  // An Auto plan after a sweep plan of the same shape and rank needs no
  // more arena than the sweep: the mttkrp-after-decompose pattern of a
  // served worker.
  const std::size_t grows = ctx.arena().grow_count();
  for (index_t n = 0; n < N; ++n) {
    SCOPED_TRACE("dims[0]=" + std::to_string(dims[0]) + " N=" +
                 std::to_string(N) + " threads=" + std::to_string(threads) +
                 " mode=" + std::to_string(n));
    MttkrpPlanT<T> plan(ctx, dims, rank, n);
    EXPECT_EQ(ctx.arena().grow_count(), grows);
    EXPECT_EQ(plan.workspace_bytes(), sweep.workspace_bytes());
    MatrixT<T> M;
    plan.execute(X, fs, M);
    const MatrixT<T>& Mt = tree_out[static_cast<std::size_t>(n)];
    ASSERT_EQ(M.rows(), Mt.rows());
    for (index_t j = 0; j < M.cols(); ++j) {
      for (index_t i = 0; i < M.rows(); ++i) {
        ASSERT_EQ(M(i, j), Mt(i, j)) << "at (" << i << ", " << j << ")";
      }
    }
    testing::expect_matrix_near(
        M, mttkrp(X, fs, n, MttkrpMethod::Reference), tol);
  }
}

TEST(MttkrpPlanAuto, IsTheDimTreePathBitwise) {
  const std::vector<std::vector<index_t>> shapes = {
      {24, 24, 24},       // tie: {0, 1} | {2}, mode 2 a depth-0 leaf
      {37, 29, 31},       // no tie: {0} | {1, 2}, mode 0 a depth-0 leaf
      {15, 7, 8, 6},      // {0, 1} | {2, 3}: no depth-0 leaf
      {6, 5, 4, 5, 6},    // tie at the root: {0, 1, 2} | {3, 4}
  };
  for (const std::vector<index_t>& dims : shapes) {
    for (int threads : {1, 4}) {
      expect_auto_is_tree_path<double>(dims, threads, 1e-12);
      expect_auto_is_tree_path<float>(dims, threads, 1e-5);
    }
  }
}

// ---------------------------------------------------------------------------
// The external-mode 1-step in L2-sized pieces: each planned block forms
// and multiplies piece_rows() KRP rows at a time, accumulating into its
// partial. Shapes here give every block three or more pieces and a ragged
// tail, so the piece boundaries, the folded short tail (rank <= 64) and
// the short BLIS-path tail (rank > 64) all run.
// ---------------------------------------------------------------------------

template <typename T>
index_t piece_rows_at(index_t rank) {
  const ExecContext ctx(1);
  const std::vector<index_t> dims{2, 2, 2};
  return OneStepExternalT<T>(ctx, dims, rank, 0).piece_rows();
}

/// f64 copies of the operands, so the oracle's own rounding does not enter
/// an f32 comparison.
template <typename T>
Tensor as_f64(const TensorT<T>& X) {
  Tensor Y({X.dims().begin(), X.dims().end()});
  for (index_t l = 0; l < X.numel(); ++l) Y[l] = X[l];
  return Y;
}

template <typename T>
std::vector<Matrix> as_f64(const std::vector<MatrixT<T>>& fs) {
  std::vector<Matrix> out;
  for (const MatrixT<T>& F : fs) {
    Matrix G(F.rows(), F.cols());
    for (index_t j = 0; j < F.cols(); ++j) {
      for (index_t i = 0; i < F.rows(); ++i) G(i, j) = F(i, j);
    }
    out.push_back(std::move(G));
  }
  return out;
}

/// The mode-`mode` OneStep plan on `dims` at `threads` planned blocks:
/// within `tol` (relative to the largest entry) of the f64 Reference,
/// bitwise repeatable, heap-free inside the BLAS layer, and, when
/// `tree_leaf`, bitwise the DimTree sweep's depth-0 leaf for that mode.
template <typename T>
void expect_pieced_onestep(const std::vector<index_t>& dims, index_t rank,
                           index_t mode, int threads, bool tree_leaf,
                           double tol) {
  Rng rng(500 + static_cast<std::uint64_t>(rank) +
          static_cast<std::uint64_t>(dims.size()));
  const TensorT<T> X = TensorT<T>::random_uniform(dims, rng);
  const std::vector<MatrixT<T>> fs = random_factors<T>(dims, rank, rng);
  ExecContext ctx(threads);

  MttkrpPlanT<T> plan(ctx, dims, rank, mode, MttkrpMethod::OneStep);
  MatrixT<T> M;
  MatrixT<T> again;
  const std::size_t blas_allocs = blas::gemm_internal_allocs();
  plan.execute(X, fs, M);
  plan.execute(X, fs, again);
  EXPECT_EQ(M.max_abs_diff(again), 0.0) << "repeated runs differ";
  // Every piece's GEMM, short tails included, ran on the planned
  // workspace.
  EXPECT_EQ(blas::gemm_internal_allocs(), blas_allocs);

  const Matrix ref =
      mttkrp(as_f64(X), as_f64(fs), mode, MttkrpMethod::Reference);
  double err = 0.0;
  double scale = 0.0;
  for (index_t j = 0; j < rank; ++j) {
    for (index_t i = 0; i < ref.rows(); ++i) {
      err = std::max(err, std::abs(static_cast<double>(M(i, j)) - ref(i, j)));
      scale = std::max(scale, std::abs(ref(i, j)));
    }
  }
  EXPECT_LE(err, tol * scale);

  if (!tree_leaf) return;
  CpAlsSweepPlanT<T> sweep(ctx, dims, rank);
  bool leaf = false;
  for (const SweepNode& nd : sweep.nodes()) {
    leaf = leaf || (nd.leaf && nd.depth == 0 && nd.first == mode);
  }
  ASSERT_TRUE(leaf) << "mode " << mode << " is not a depth-0 leaf";
  std::vector<MatrixT<T>> Mt(dims.size());
  sweep.begin_sweep(X);
  for (index_t n = 0; n < static_cast<index_t>(dims.size()); ++n) {
    sweep.mode_mttkrp(n, X, fs, Mt[static_cast<std::size_t>(n)]);
  }
  EXPECT_EQ(Mt[static_cast<std::size_t>(mode)].max_abs_diff(M), 0.0)
      << "the depth-0 leaf differs from the named OneStep plan";
}

template <typename T>
void expect_pieced_onestep_shapes(index_t rank, int threads, double tol) {
  const index_t P = piece_rows_at<T>(rank);
  // Two tails per block: 2 * rank rows (below 4 * rank: folded into the
  // last full piece on the rank-panel path, a short BLIS piece above
  // rank 64) and half a piece.
  for (const index_t tail : {2 * rank, P / 2}) {
    // Block length 3P + tail; the column count rounds up to a multiple of
    // 4 so it factors into every shape below, which lengthens a block by
    // at most 3 columns.
    const index_t per_block = 3 * P + tail;
    const index_t cosize = (per_block * threads + 3) / 4 * 4;
    for (int b = 0; b < threads; ++b) {
      const index_t len = block_range(cosize, threads, b).size();
      ASSERT_GE(len / P, 3);
      ASSERT_GE(len % P, tail);
      ASSERT_LT(len % P, tail + 4);
    }
    struct Shape {
      std::vector<index_t> dims;
      index_t mode;
      bool tree_leaf;
    };
    // 33 output rows: one whole group of 32 and a 1-row group in mode
    // N-1's row walk. The tree splits {0} | {1, 2} when I0 > I2, and
    // {0, 1} | {2} when I0 <= I2; {5, c, 2, 2} splits {0} | {1, 2, 3}.
    const std::vector<Shape> shapes = {
        {{3, cosize / 2, 2}, 0, true},
        {{2, cosize / 2, 33}, 2, true},
        {{5, cosize / 4, 2, 2}, 0, true},
        {{2, 2, cosize / 4, 33}, 3, false},
    };
    for (const Shape& s : shapes) {
      SCOPED_TRACE("rank " + std::to_string(rank) + " threads " +
                   std::to_string(threads) + " tail " +
                   std::to_string(tail) + " order " +
                   std::to_string(s.dims.size()) + " mode " +
                   std::to_string(s.mode));
      expect_pieced_onestep<T>(s.dims, rank, s.mode, threads, s.tree_leaf,
                               tol);
    }
  }
}

TEST(OneStepPieces, PieceBoundariesMatchReferenceAndTheTreeLeaf) {
  for (const index_t rank : {index_t{9}, index_t{70}}) {
    for (const int threads : {1, 3, 4}) {
      expect_pieced_onestep_shapes<double>(rank, threads, 1e-12);
      expect_pieced_onestep_shapes<float>(rank, threads, 1e-4);
    }
  }
}

TEST(OneStepPieces, WorkspaceDoesNotGrowWithCosize) {
  // Blocks longer than a piece hold only a piece's KRP tile, so doubling
  // I1 grows the workspace by factor 1's packed C x I1 panel alone, in both
  // external modes: the KRP tiles, GEMM workspaces and partials stay.
  const index_t rank = 25;
  const ExecContext ctx(4);
  const index_t P = piece_rows_at<double>(rank);
  // Mode 0 has 16P columns and mode 2 6P, so every block of 4 is longer
  // than a piece (and its folded tail) before I1 doubles.
  const index_t I1 = 2 * P;
  const std::size_t panel_growth =
      WorkspaceArena::aligned_count<double>(
          static_cast<std::size_t>(2 * I1 * rank)) -
      WorkspaceArena::aligned_count<double>(
          static_cast<std::size_t>(I1 * rank));
  for (const index_t mode : {index_t{0}, index_t{2}}) {
    const std::vector<index_t> small{3, I1, 8};
    const std::vector<index_t> large{3, 2 * I1, 8};
    EXPECT_EQ(OneStepExternalT<double>(ctx, large, rank, mode)
                  .workspace_elems(),
              OneStepExternalT<double>(ctx, small, rank, mode)
                      .workspace_elems() +
                  panel_growth)
        << "mode " << mode;
  }
}

TEST(OneStepPieces, CubeSweepWorkspaceIsNoLargerThanBefore) {
  // 282^3 f64 rank 25 at 4 threads: the sweep reserved 16 243 712 bytes
  // while the leaf formed each block's whole KRP slice (4 MB per block);
  // the {0, 1} intermediate bounds it now. The 1-step alone drops from
  // that same 16 MB to under 2 MB.
  const std::vector<index_t> dims{282, 282, 282};
  ExecContext ctx(4);
  const CpAlsSweepPlan sweep(ctx, dims, 25);
  EXPECT_LE(sweep.workspace_bytes(), std::size_t{16243712});
  EXPECT_LT(OneStepExternalT<double>(ctx, dims, 25, 2).workspace_elems() *
                sizeof(double),
            std::size_t{2} << 20);
}

// ---------------------------------------------------------------------------
// Plan metadata.
// ---------------------------------------------------------------------------

TEST(MttkrpPlan, AutoResolvesThroughTheDimTree) {
  // Auto runs the mode's root-to-leaf path of the dimension tree. A mode
  // the tree holds alone under the root reports OneStep (the shared
  // external kernel); any other mode reports TwoStep, and uses_left() says
  // whether the full-tensor GEMM contracts the left group.
  struct Case {
    std::vector<index_t> dims;
    std::vector<MttkrpMethod> method;  // per mode
    std::vector<bool> left;            // per TwoStep mode
  };
  using M = MttkrpMethod;
  const std::vector<Case> cases = {
      // 4*5 = 20 > 6: the tree is {0, 1} | {2}; mode 2 is a depth-0 leaf.
      {{4, 5, 6}, {M::TwoStep, M::TwoStep, M::OneStep}, {false, false, false}},
      // 37 < 29*31: {0} | {1, 2}; mode 0 is a depth-0 leaf.
      {{37, 29, 31}, {M::OneStep, M::TwoStep, M::TwoStep}, {false, true, true}},
      // A tie (48 | 48*48 against 48*48 | 48) takes the later split.
      {{48, 48, 48}, {M::TwoStep, M::TwoStep, M::OneStep}, {false, false, false}},
  };
  ExecContext ctx(1);
  for (const Case& c : cases) {
    for (index_t mode = 0; mode < 3; ++mode) {
      const std::size_t m = static_cast<std::size_t>(mode);
      MttkrpPlan plan(ctx, c.dims, 2, mode, MttkrpMethod::Auto);
      EXPECT_EQ(plan.requested_method(), MttkrpMethod::Auto);
      EXPECT_EQ(plan.resolved_method(), c.method[m])
          << "dims[0] " << c.dims[0] << " mode " << mode;
      if (c.method[m] == MttkrpMethod::TwoStep) {
        EXPECT_EQ(plan.uses_left(), c.left[m])
            << "dims[0] " << c.dims[0] << " mode " << mode;
      }
    }
  }
}

TEST(MttkrpPlan, TwoStepSideMatchesHeuristic) {
  // Alg. 4 line 4: I_Ln > I_Rn picks the left partial MTTKRP. One shape
  // skewed each way covers both sides, and each stays exact.
  ExecContext ctx(1);
  Rng rng(14);
  for (const std::vector<index_t>& dims :
       {std::vector<index_t>{20, 3, 2},     // I_L = 20 > I_R = 2
        std::vector<index_t>{2, 3, 20}}) {  // I_L = 2 < I_R = 20
    Tensor X = Tensor::random_uniform(dims, rng);
    const std::vector<Matrix> fs = random_factors(dims, 3, rng);
    MttkrpPlan plan(ctx, dims, 3, 1, MttkrpMethod::TwoStep);
    EXPECT_EQ(plan.uses_left(), dims[0] > dims[2]);
    Matrix M;
    plan.execute(X, fs, M);
    testing::expect_matrix_near(M, mttkrp(X, fs, 1, MttkrpMethod::Reference),
                                1e-12);
  }
}

TEST(MttkrpPlan, ValidationErrors) {
  ExecContext ctx(1);
  const std::vector<index_t> dims{4, 5, 6};
  EXPECT_THROW(MttkrpPlan(ctx, dims, 3, -1), DimensionError);
  EXPECT_THROW(MttkrpPlan(ctx, dims, 3, 3), DimensionError);
  EXPECT_THROW(MttkrpPlan(ctx, dims, 0, 0), DimensionError);
  EXPECT_THROW(MttkrpPlan(ctx, {std::vector<index_t>{7}}, 3, 0),
               DimensionError);

  Rng rng(16);
  MttkrpPlan plan(ctx, dims, 3, 0);
  Matrix M;
  // Tensor shape differing from the planned one.
  Tensor Y = Tensor::random_uniform({4, 5, 7}, rng);
  std::vector<Matrix> fs = random_factors(Y.dims(), 3, rng);
  EXPECT_THROW(plan.execute(Y, fs, M), DimensionError);
  // Conforming tensor, wrong-rank factors.
  Tensor X = Tensor::random_uniform(dims, rng);
  std::vector<Matrix> bad = random_factors(dims, 4, rng);
  EXPECT_THROW(plan.execute(X, bad, M), DimensionError);
}

// ---------------------------------------------------------------------------
// parse_mttkrp_method: inverse of to_string.
// ---------------------------------------------------------------------------

TEST(ParseMttkrpMethod, RoundTripsEveryMethod) {
  for (MttkrpMethod m : kAllMethods) {
    const auto parsed = parse_mttkrp_method(to_string(m));
    ASSERT_TRUE(parsed.has_value()) << to_string(m);
    EXPECT_EQ(*parsed, m);
  }
}

TEST(ParseMttkrpMethod, RejectsUnknownNames) {
  EXPECT_FALSE(parse_mttkrp_method("").has_value());
  EXPECT_FALSE(parse_mttkrp_method("3-step").has_value());
  EXPECT_FALSE(parse_mttkrp_method("AUTO").has_value());
}

TEST(ParseMttkrpMethod, RejectsRetiredAliases) {
  // One spelling per method: to_string's name is the only one accepted.
  for (const char* alias :
       {"onestep", "1step", "twostep", "2step", "onestep-seq", "seq",
        "1-step-seq"}) {
    EXPECT_EQ(parse_mttkrp_method(alias), std::nullopt) << alias;
  }
}

// ---------------------------------------------------------------------------
// Driver equivalence: the exec-context path must reproduce the
// threads-int path exactly (same plans, same arithmetic).
// ---------------------------------------------------------------------------

void expect_same_result(const CpAlsResult& a, const CpAlsResult& b) {
  EXPECT_EQ(a.iterations, b.iterations);
  EXPECT_EQ(a.converged, b.converged);
  EXPECT_EQ(a.final_fit, b.final_fit);
  ASSERT_EQ(a.model.factors.size(), b.model.factors.size());
  for (std::size_t n = 0; n < a.model.factors.size(); ++n) {
    expect_bitwise_equal(a.model.factors[n], b.model.factors[n]);
  }
  ASSERT_EQ(a.model.lambda.size(), b.model.lambda.size());
  for (std::size_t c = 0; c < a.model.lambda.size(); ++c) {
    EXPECT_EQ(a.model.lambda[c], b.model.lambda[c]);
  }
}

TEST(DriverExecContext, CpAlsMatchesThreadsPath) {
  Rng rng(17);
  Tensor X = Tensor::random_uniform({6, 5, 4}, rng);
  CpAlsOptions opts;
  opts.rank = 3;
  opts.max_iters = 5;
  opts.threads = 2;
  const CpAlsResult via_threads = cp_als(X, opts);

  ExecContext ctx(2);
  CpAlsOptions opts_ctx = opts;
  opts_ctx.exec = &ctx;
  const CpAlsResult via_ctx = cp_als(X, opts_ctx);
  expect_same_result(via_threads, via_ctx);
}

TEST(DriverExecContext, DimtreeAndHalsAcceptContext) {
  Rng rng(18);
  Tensor X = Tensor::random_uniform({5, 4, 6}, rng);
  ExecContext ctx(2);
  CpAlsOptions opts;
  opts.rank = 2;
  opts.max_iters = 4;
  opts.threads = 2;

  CpAlsOptions opts_ctx = opts;
  opts_ctx.exec = &ctx;
  CpAlsOptions dt = opts;
  dt.sweep_scheme = SweepScheme::DimTree;
  CpAlsOptions dt_ctx = opts_ctx;
  dt_ctx.sweep_scheme = SweepScheme::DimTree;
  expect_same_result(cp_als(X, dt), cp_als(X, dt_ctx));
  expect_same_result(cp_nnhals(X, opts), cp_nnhals(X, opts_ctx));
}

}  // namespace
}  // namespace dmtk
