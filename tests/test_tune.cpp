// Wisdom-profile subsystem (src/tune/): serialization round trips, the
// CRC-checked save/load path, the strictness contract (corrupt or
// other-CPU profiles never half-apply), the apply/clear side effects on
// the process-global dispatch level and GEMM blocking, the plan-time
// consults (dimtree min-order/levels, two-step side), and the numerical
// contract of a loaded profile: blocking changes that only re-partition
// MC/NC are BITWISE invisible (per-C-element accumulation order depends
// only on the KC split and the in-kernel p order), while a KC change is
// fit-equivalent but may differ in the last ulps.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <string>
#include <vector>

#include "blas/cpu_features.hpp"
#include "blas/gemm_workspace.hpp"
#include "core/matrix.hpp"
#include "core/tensor.hpp"
#include "exec/exec_context.hpp"
#include "exec/mttkrp_plan.hpp"
#include "exec/sweep_plan.hpp"
#include "io/checked_io.hpp"
#include "tune/wisdom.hpp"
#include "util/rng.hpp"

namespace dmtk::tune {
namespace {

using blas::GemmBlocking;
using blas::SimdLevel;

std::string temp_path(const char* tag) {
  return (std::filesystem::temp_directory_path() /
          (std::string("dmtk_test_") + tag + "_" +
           std::to_string(::getpid()) + ".json"))
      .string();
}

/// Every test leaves the process-global tune/blas state as it found it.
class TuneTest : public ::testing::Test {
 protected:
  void SetUp() override {
    clear_wisdom();
    entry_level_ = blas::simd_level();
    entry_blocking_ = blas::gemm_blocking();
  }
  void TearDown() override {
    clear_wisdom();
    blas::set_simd_level(entry_level_);
    blas::set_gemm_blocking(entry_blocking_);
    for (const std::string& p : cleanup_) std::remove(p.c_str());
  }
  std::string scratch_file(const char* tag) {
    cleanup_.push_back(temp_path(tag));
    return cleanup_.back();
  }

  /// A profile keyed to THIS machine that apply_wisdom will accept, with
  /// recognizably non-default tunables.
  WisdomProfile local_profile() const {
    WisdomProfile p;
    p.cpu_brand = cpu_brand();
    p.cpu_ladder = cpu_ladder();
    p.best_simd_f64 = blas::hardware_simd_level();
    p.best_simd_f32 = blas::hardware_simd_level();
    p.blocking = GemmBlocking{128, 192, 512};
    p.dimtree_levels = 1;
    p.dimtree_min_order = 3;
    p.twostep = TwoStepPref::Right;
    p.sparse_crossover = 0.25;
    p.created = "test";
    p.tune_threads = 1;
    p.default_gflops_f64 = 10.0;
    p.tuned_gflops_f64 = 12.0;
    p.levels.push_back({SimdLevel::Scalar, 1.0, 2.0});
    return p;
  }

  SimdLevel entry_level_ = SimdLevel::Scalar;
  GemmBlocking entry_blocking_{};
  std::vector<std::string> cleanup_;
};

TEST_F(TuneTest, TwoStepPrefParsesAndPrints) {
  for (TwoStepPref p :
       {TwoStepPref::Heuristic, TwoStepPref::Left, TwoStepPref::Right}) {
    const auto back = parse_twostep_pref(to_string(p));
    ASSERT_TRUE(back.has_value());
    EXPECT_EQ(*back, p);
  }
  EXPECT_FALSE(parse_twostep_pref("sideways").has_value());
}

TEST_F(TuneTest, ProfileJsonRoundTrips) {
  const WisdomProfile p = local_profile();
  const WisdomProfile q = profile_from_json(profile_to_json(p));
  EXPECT_EQ(q.cpu_brand, p.cpu_brand);
  EXPECT_EQ(q.cpu_ladder, p.cpu_ladder);
  EXPECT_EQ(q.best_simd_f64, p.best_simd_f64);
  EXPECT_EQ(q.best_simd_f32, p.best_simd_f32);
  EXPECT_EQ(q.blocking, p.blocking);
  EXPECT_EQ(q.dimtree_levels, p.dimtree_levels);
  EXPECT_EQ(q.dimtree_min_order, p.dimtree_min_order);
  EXPECT_EQ(q.twostep, p.twostep);
  EXPECT_DOUBLE_EQ(q.sparse_crossover, p.sparse_crossover);
  EXPECT_EQ(q.created, p.created);
  EXPECT_EQ(q.quick, p.quick);
  ASSERT_EQ(q.levels.size(), p.levels.size());
  EXPECT_EQ(q.levels[0].level, p.levels[0].level);
  EXPECT_DOUBLE_EQ(q.levels[0].f64_gflops, p.levels[0].f64_gflops);
}

TEST_F(TuneTest, MalformedProfileJsonRejects) {
  EXPECT_THROW((void)profile_from_json("not json at all"),
               std::runtime_error);
  EXPECT_THROW((void)profile_from_json("{\"format\":\"wrong-format\"}"),
               std::runtime_error);
  // Field validation: an unknown SIMD level name must reject (a profile
  // from a newer build must not half-apply here).
  WisdomProfile p = local_profile();
  std::string json = profile_to_json(p);
  const auto at = json.find(to_string(p.best_simd_f64));
  ASSERT_NE(at, std::string::npos);
  json.replace(at, std::string(to_string(p.best_simd_f64)).size(),
               "avx1024-64x64");
  EXPECT_THROW((void)profile_from_json(json), std::runtime_error);
}

TEST_F(TuneTest, SaveReadRoundTripsThroughCrcFile) {
  const std::string path = scratch_file("roundtrip");
  const WisdomProfile p = local_profile();
  save_wisdom(path, p);
  const WisdomProfile q = read_wisdom_file(path);
  EXPECT_EQ(q.blocking, p.blocking);
  EXPECT_EQ(q.twostep, p.twostep);
  EXPECT_EQ(q.dimtree_min_order, p.dimtree_min_order);
}

TEST_F(TuneTest, CorruptProfileIsRejectedAtLoad) {
  const std::string path = scratch_file("corrupt");
  save_wisdom(path, local_profile());
  // Flip one payload byte; the CRC32 footer must catch it.
  {
    std::fstream f(path, std::ios::in | std::ios::out | std::ios::binary);
    ASSERT_TRUE(f.good());
    f.seekp(10);
    char c = 0;
    f.seekg(10);
    f.get(c);
    f.seekp(10);
    f.put(static_cast<char>(c ^ 0x40));
  }
  EXPECT_THROW((void)read_wisdom_file(path), io::IoError);
  // The strict registry load reports failure and applies nothing.
  std::string why;
  EXPECT_FALSE(load_wisdom(path, &why));
  EXPECT_FALSE(why.empty());
  EXPECT_FALSE(wisdom_loaded());
  EXPECT_EQ(blas::gemm_blocking(), entry_blocking_);
}

TEST_F(TuneTest, OtherCpuProfileIsRejectedAtLoad) {
  WisdomProfile p = local_profile();
  p.cpu_brand = "Imaginary Hexium 9000";
  const std::string path = scratch_file("othercpu");
  save_wisdom(path, p);
  std::string why;
  EXPECT_FALSE(load_wisdom(path, &why));
  EXPECT_NE(why.find("CPU"), std::string::npos);
  EXPECT_FALSE(wisdom_loaded());
  EXPECT_EQ(blas::gemm_blocking(), entry_blocking_);
}

TEST_F(TuneTest, ClearWisdomRestoresTheHardwareLevel) {
  if (blas::simd_env_override()) GTEST_SKIP() << "DMTK_SIMD pins the level";
  // A profile that opted out of the wide level, then a clear: dispatch
  // returns to the CPU's widest level, not to whatever ran before.
  WisdomProfile p = local_profile();
  p.best_simd_f64 = p.best_simd_f32 = SimdLevel::Scalar;
  apply_wisdom(p, "unit-test");
  EXPECT_EQ(blas::simd_level(), SimdLevel::Scalar);
  clear_wisdom();
  EXPECT_EQ(blas::simd_level(), blas::hardware_simd_level());
}

TEST_F(TuneTest, ApplyAndClearMoveTheGlobalKnobs) {
  const WisdomProfile p = local_profile();
  apply_wisdom(p, "unit-test");
  EXPECT_TRUE(wisdom_loaded());
  EXPECT_EQ(wisdom_source(), "unit-test");
  EXPECT_EQ(blas::gemm_blocking(), p.blocking);
  if (!blas::simd_env_override()) {
    EXPECT_EQ(blas::simd_level(), p.best_simd_f64);
  }
  EXPECT_EQ(auto_dimtree_min_order(), 3);
  EXPECT_EQ(wisdom_dimtree_levels(), 1);
  EXPECT_EQ(wisdom_twostep(), TwoStepPref::Right);
  EXPECT_DOUBLE_EQ(wisdom_sparse_crossover(), 0.25);

  clear_wisdom();
  EXPECT_FALSE(wisdom_loaded());
  EXPECT_EQ(blas::gemm_blocking(), GemmBlocking{});
  EXPECT_EQ(auto_dimtree_min_order(), kDefaultDimtreeMinOrder);
  EXPECT_EQ(wisdom_dimtree_levels(), kDefaultDimtreeLevels);
  EXPECT_EQ(wisdom_twostep(), TwoStepPref::Heuristic);
  EXPECT_DOUBLE_EQ(wisdom_sparse_crossover(), kDefaultSparseCrossover);
}

TEST_F(TuneTest, LoadWisdomAppliesOnMatch) {
  const std::string path = scratch_file("match");
  const WisdomProfile p = local_profile();
  save_wisdom(path, p);
  std::string why;
  ASSERT_TRUE(load_wisdom(path, &why)) << why;
  EXPECT_TRUE(wisdom_loaded());
  EXPECT_EQ(wisdom_source(), path);
  EXPECT_EQ(blas::gemm_blocking(), p.blocking);
}

TEST_F(TuneTest, SetGemmBlockingClampsToSaneBounds) {
  const GemmBlocking absurd{1, 1, 1};
  const GemmBlocking got = blas::set_gemm_blocking(absurd);
  EXPECT_GE(got.mc, blas::kGemmMinMC);
  EXPECT_GE(got.kc, blas::kGemmMinKC);
  EXPECT_GE(got.nc, blas::kGemmMinNC);
  const GemmBlocking huge{1 << 20, 1 << 20, 1 << 20};
  const GemmBlocking got2 = blas::set_gemm_blocking(huge);
  EXPECT_LE(got2.mc, blas::kGemmMaxMC);
  EXPECT_LE(got2.kc, blas::kGemmMaxKC);
  EXPECT_LE(got2.nc, blas::kGemmMaxNC);
}

// The consult wiring in the plan layer.

TEST_F(TuneTest, DimtreeMinOrderConsultSteersAutoResolution) {
  WisdomProfile p = local_profile();
  p.dimtree_min_order = 3;
  apply_wisdom(p);
  EXPECT_EQ(resolve_sweep_scheme(SweepScheme::Auto, 3), SweepScheme::DimTree);
  p.dimtree_min_order = 5;
  apply_wisdom(p);
  EXPECT_EQ(resolve_sweep_scheme(SweepScheme::Auto, 3), SweepScheme::PerMode);
  EXPECT_EQ(resolve_sweep_scheme(SweepScheme::Auto, 4), SweepScheme::PerMode);
  EXPECT_EQ(resolve_sweep_scheme(SweepScheme::Auto, 5), SweepScheme::DimTree);
  // Explicit schemes are never overridden by wisdom.
  EXPECT_EQ(resolve_sweep_scheme(SweepScheme::PerMode, 6),
            SweepScheme::PerMode);
}

TEST_F(TuneTest, DimtreeLevelsConsultCapsPlannedTreeDepth) {
  const std::vector<index_t> dims{4, 4, 4, 4};
  ExecContext ctx(1);
  CpAlsSweepPlan full(ctx, dims, 4, SweepScheme::DimTree);
  EXPECT_GT(full.levels(), 1);

  WisdomProfile p = local_profile();  // dimtree_levels = 1
  apply_wisdom(p);
  CpAlsSweepPlan capped(ctx, dims, 4, SweepScheme::DimTree);
  EXPECT_EQ(capped.levels(), 1);

  // An explicit caller cap still wins over the consult.
  CpAlsSweepPlan explicit_full(ctx, dims, 4, SweepScheme::DimTree,
                               MttkrpMethod::Auto, 8);
  EXPECT_GT(explicit_full.levels(), 1);
}

TEST_F(TuneTest, TwoStepConsultSteersAutoSide) {
  const std::vector<index_t> dims{8, 6, 8};  // internal mode 1: ILn == IRn
  ExecContext ctx(1);
  WisdomProfile p = local_profile();
  p.twostep = TwoStepPref::Left;
  apply_wisdom(p);
  MttkrpPlan left(ctx, dims, 4, 1, MttkrpMethod::TwoStep);
  EXPECT_TRUE(left.uses_left());
  p.twostep = TwoStepPref::Right;
  apply_wisdom(p);
  MttkrpPlan right(ctx, dims, 4, 1, MttkrpMethod::TwoStep);
  EXPECT_FALSE(right.uses_left());
  // A forced side beats the consult.
  MttkrpPlan forced(ctx, dims, 4, 1, MttkrpMethod::TwoStep,
                    TwoStepSide::Left);
  EXPECT_TRUE(forced.uses_left());
}

// The numerical contract of applying a profile.

TEST_F(TuneTest, McNcBlockingChangeIsBitwiseInvisible) {
  // Accumulation into any C element is ordered by the KC partitioning and
  // the in-kernel p loop only; MC/NC changes re-tile the independent
  // output blocks. A profile that moves MC/NC (KC and level unchanged)
  // must therefore reproduce MTTKRP results BIT FOR BIT.
  const std::vector<index_t> dims{24, 20, 16};
  const index_t rank = 8;
  Rng rng(11);
  const Tensor x = Tensor::random_uniform(dims, rng);
  std::vector<Matrix> factors;
  for (index_t d : dims)
    factors.push_back(Matrix::random_uniform(d, rank, rng));

  auto run = [&] {
    ExecContext ctx(1);
    MttkrpPlan plan(ctx, dims, rank, 1);
    Matrix m;
    plan.execute(x, factors, m);
    return m;
  };
  clear_wisdom();
  const Matrix base = run();

  WisdomProfile p = local_profile();
  p.best_simd_f64 = blas::simd_level();   // level unchanged
  p.twostep = TwoStepPref::Heuristic;     // algorithm choices unchanged:
  p.dimtree_min_order = kDefaultDimtreeMinOrder;  // ONLY blocking moves
  p.blocking = blas::gemm_blocking();
  p.blocking.mc = p.blocking.mc == 64 ? 128 : 64;   // move MC
  p.blocking.nc = p.blocking.nc == 512 ? 2048 : 512;  // move NC
  apply_wisdom(p);
  const Matrix tuned = run();

  ASSERT_EQ(tuned.rows(), base.rows());
  ASSERT_EQ(tuned.cols(), base.cols());
  for (index_t i = 0; i < base.size(); ++i) {
    ASSERT_EQ(tuned.data()[i], base.data()[i]) << "element " << i;
  }
}

TEST_F(TuneTest, KcBlockingChangeIsFitEquivalent) {
  // A KC change re-associates the k-sum, so bits may differ — but only in
  // rounding: the results must agree to a tight relative tolerance.
  const std::vector<index_t> dims{24, 20, 16};
  const index_t rank = 8;
  Rng rng(13);
  const Tensor x = Tensor::random_uniform(dims, rng);
  std::vector<Matrix> factors;
  for (index_t d : dims)
    factors.push_back(Matrix::random_uniform(d, rank, rng));

  auto run = [&] {
    ExecContext ctx(1);
    MttkrpPlan plan(ctx, dims, rank, 1);
    Matrix m;
    plan.execute(x, factors, m);
    return m;
  };
  clear_wisdom();
  const Matrix base = run();

  WisdomProfile p = local_profile();
  p.best_simd_f64 = blas::simd_level();
  p.twostep = TwoStepPref::Heuristic;
  p.dimtree_min_order = kDefaultDimtreeMinOrder;
  p.blocking = blas::gemm_blocking();
  p.blocking.kc = p.blocking.kc == 64 ? 96 : 64;  // move KC
  apply_wisdom(p);
  const Matrix tuned = run();

  EXPECT_LT(tuned.max_abs_diff(base), 1e-10 * base.norm());
}

}  // namespace
}  // namespace dmtk::tune
