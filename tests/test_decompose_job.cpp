// DecomposeJob (job/decompose_job.hpp), the one decompose path behind
// `dmtk decompose` and served decompose requests: the rejection table (one
// row per rule, each naming its field), the value-based rule that spelling
// out a default is never an error, scheme resolution at construction, and
// run() agreeing with the drivers it wraps.

#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <functional>
#include <limits>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "core/cp_als.hpp"
#include "exec/exec_context.hpp"
#include "io/tensor_io.hpp"
#include "job/decompose_job.hpp"
#include "sparse/sparse_tensor.hpp"
#include "util/rng.hpp"

namespace dmtk {
namespace {

namespace fs = std::filesystem;

class DecomposeJobTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/dmtk_job_XXXXXX";
    ASSERT_NE(mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
    Rng rng(3);
    cube_ = path("cube.dten");
    io::write_tensor(cube_, Tensor::random_uniform({6, 5, 4}, rng));
    four_ = path("four.dten");
    io::write_tensor(four_, Tensor::random_uniform({4, 3, 3, 2}, rng));
    tns_ = path("s.tns");
    io::write_tns(tns_, sparse::SparseTensor::random({8, 7, 6}, 30, rng));
  }

  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  std::string path(const char* name) const {
    return (fs::path(dir_) / name).string();
  }

  std::string dir_;
  std::string cube_;  ///< 3-way dense: Auto resolves to DimTree
  std::string four_;  ///< 4-way dense: Auto resolves to DimTree too
  std::string tns_;   ///< sparse
};

std::string slurp(const std::string& file) {
  std::ifstream in(file, std::ios::binary);
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

struct Row {
  const char* what;
  const char* field;  ///< the message must start with "<field>:"
  std::function<void(DecomposeSpec&)> edit;
};

TEST_F(DecomposeJobTest, EveryRuleRejectsByFieldName) {
  const Row rows[] = {
      {"empty path", "tensor", [](DecomposeSpec& s) { s.tensor.clear(); }},
      {"rank 0", "rank", [](DecomposeSpec& s) { s.rank = 0; }},
      {"iters 0", "iters", [](DecomposeSpec& s) { s.iters = 0; }},
      {"negative tol", "tol", [](DecomposeSpec& s) { s.tol = -1.0; }},
      {"NaN tol", "tol",
       [](DecomposeSpec& s) {
         s.tol = std::numeric_limits<double>::quiet_NaN();
       }},
      {"checkpoint_every 0", "checkpoint_every",
       [](DecomposeSpec& s) {
         s.checkpoint = "ck";
         s.checkpoint_every = 0;
       }},
      {"checkpoint_every without a path", "checkpoint_every",
       [](DecomposeSpec& s) { s.checkpoint_every = 2; }},
      {"resume without a path", "resume",
       [](DecomposeSpec& s) { s.resume = true; }},
      // Sparse input.
      {"sparse + permode", "sweep",
       [this](DecomposeSpec& s) {
         s.tensor = tns_;
         s.sweep = SweepScheme::PerMode;
       }},
      {"sparse + dimtree", "sweep",
       [this](DecomposeSpec& s) {
         s.tensor = tns_;
         s.sweep = SweepScheme::DimTree;
       }},
      {"sparse + method", "method",
       [this](DecomposeSpec& s) {
         s.tensor = tns_;
         s.method = MttkrpMethod::TwoStep;
       }},
      {"sparse + nn", "nn",
       [this](DecomposeSpec& s) {
         s.tensor = tns_;
         s.nn = true;
       }},
      {"sparse + acc64", "method",
       [this](DecomposeSpec& s) {
         s.tensor = tns_;
         s.f32 = true;
         s.method = MttkrpMethod::Acc64;
       }},
      // Dense input.
      {"dense + csf", "sweep",
       [](DecomposeSpec& s) { s.sweep = SweepScheme::SparseCsf; }},
      {"dense + coo", "sweep",
       [](DecomposeSpec& s) { s.sweep = SweepScheme::SparseCoo; }},
      {"method on an explicit dimtree", "method",
       [](DecomposeSpec& s) {
         s.sweep = SweepScheme::DimTree;
         s.method = MttkrpMethod::OneStep;
       }},
      {"acc64 without f32", "method",
       [](DecomposeSpec& s) { s.method = MttkrpMethod::Acc64; }},
      {"acc64 on an explicit dimtree", "method",
       [](DecomposeSpec& s) {
         s.f32 = true;
         s.sweep = SweepScheme::DimTree;
         s.method = MttkrpMethod::Acc64;
       }},
  };
  for (const Row& row : rows) {
    DecomposeSpec spec;
    spec.tensor = cube_;
    row.edit(spec);
    try {
      const DecomposeJob job(spec);
      ADD_FAILURE() << row.what << ": accepted";
    } catch (const std::invalid_argument& e) {
      const std::string msg = e.what();
      EXPECT_EQ(msg.rfind(std::string(row.field) + ":", 0), 0u)
          << row.what << ": message '" << msg << "' does not name "
          << row.field;
    }
  }
}

TEST_F(DecomposeJobTest, SpellingOutADefaultIsNeverAnError) {
  const std::vector<std::function<void(DecomposeSpec&)>> edits = {
      [](DecomposeSpec& s) { s.sweep = SweepScheme::PerMode; },
      [](DecomposeSpec& s) { s.sweep = SweepScheme::DimTree; },  // method auto
      [](DecomposeSpec& s) { s.checkpoint_every = 1; },          // no path
      [this](DecomposeSpec& s) {  // every dense knob at its default
        s.tensor = tns_;
        s.sweep = SweepScheme::Auto;
        s.method = MttkrpMethod::Auto;
        s.f32 = true;
      },
      [](DecomposeSpec& s) {
        s.f32 = true;
        s.method = MttkrpMethod::Acc64;
      },
  };
  for (std::size_t i = 0; i < edits.size(); ++i) {
    DecomposeSpec spec;
    spec.tensor = cube_;
    edits[i](spec);
    EXPECT_NO_THROW({ const DecomposeJob job(spec); }) << "edit " << i;
  }
}

TEST(ParsePrecision, TakesOneSpellingPerPrecision) {
  EXPECT_EQ(parse_precision("double"), std::optional<bool>(false));
  EXPECT_EQ(parse_precision("float"), std::optional<bool>(true));
  for (const char* name : {"f64", "fp64", "f32", "fp32", "single", "Float"}) {
    EXPECT_EQ(parse_precision(name), std::nullopt) << name;
  }
}

TEST_F(DecomposeJobTest, ResolvesTheSchemeAtConstruction) {
  DecomposeSpec spec;
  spec.tensor = cube_;
  const DecomposeJob cube(spec);
  EXPECT_FALSE(cube.sparse());
  EXPECT_EQ(cube.scheme(), SweepScheme::DimTree);
  EXPECT_EQ(cube.dims(), (std::vector<index_t>{6, 5, 4}));

  spec.tensor = four_;
  EXPECT_EQ(DecomposeJob(spec).scheme(), SweepScheme::DimTree);
  spec.method = MttkrpMethod::TwoStep;  // an explicit method pins PerMode
  EXPECT_EQ(DecomposeJob(spec).scheme(), SweepScheme::PerMode);
  spec.f32 = true;
  spec.method = MttkrpMethod::Acc64;  // acc64 is just such a method
  EXPECT_EQ(DecomposeJob(spec).scheme(), SweepScheme::PerMode);

  DecomposeSpec sp;
  sp.tensor = tns_;
  const DecomposeJob sparse_job(sp);
  EXPECT_TRUE(sparse_job.sparse());
  EXPECT_EQ(sparse_job.scheme(), SweepScheme::SparseCsf);
  EXPECT_TRUE(sparse_job.dims().empty());
}

TEST_F(DecomposeJobTest, MissingFilesAreIoErrors) {
  DecomposeSpec spec;
  spec.tensor = path("absent.dten");
  EXPECT_THROW(DecomposeJob{spec}, io::IoError);
  spec.tensor = path("absent.tns");
  EXPECT_THROW(DecomposeJob{spec}, io::IoError);
}

TEST_F(DecomposeJobTest, RunMatchesTheDriverAndThePlanPath) {
  DecomposeSpec spec;
  spec.tensor = cube_;
  spec.rank = 3;
  spec.iters = 4;
  spec.tol = 0.0;
  spec.seed = 99;
  const DecomposeJob job(spec);
  const ExecContext ctx(1);
  const DecomposeOutcome out = job.run(ctx);

  CpAlsOptions o;
  o.rank = 3;
  o.max_iters = 4;
  o.tol = 0.0;
  o.seed = 99;
  o.exec = &ctx;
  const CpAlsResult direct = cp_als(io::read_tensor(cube_), o);
  ASSERT_TRUE(std::holds_alternative<Ktensor>(out.model));
  const Ktensor& K = std::get<Ktensor>(out.model);
  for (std::size_t n = 0; n < K.factors.size(); ++n) {
    EXPECT_EQ(K.factors[n].max_abs_diff(direct.model.factors[n]), 0.0);
  }
  EXPECT_EQ(out.fit, direct.final_fit);
  EXPECT_EQ(out.iterations, 4);
  EXPECT_EQ(out.scheme, SweepScheme::DimTree);

  // The caller-owned plan path (a served batch) writes the same
  // model file byte for byte.
  CpAlsSweepPlan plan(ctx, job.dims(), spec.rank, job.scheme(), spec.method);
  const DecomposeOutcome planned =
      job.run(plan, io::read_tensor_as<double>(cube_));
  out.write_model(path("a.dktn"));
  planned.write_model(path("b.dktn"));
  EXPECT_EQ(slurp(path("a.dktn")), slurp(path("b.dktn")));
}

TEST_F(DecomposeJobTest, RunsEveryInputKindInItsPrecision) {
  DecomposeSpec spec;
  spec.tensor = cube_;
  spec.rank = 2;
  spec.iters = 2;
  spec.f32 = true;
  spec.method = MttkrpMethod::Acc64;
  const ExecContext ctx(1);
  const DecomposeOutcome dense = DecomposeJob(spec).run(ctx);
  EXPECT_TRUE(std::holds_alternative<KtensorF>(dense.model));
  EXPECT_EQ(dense.nnz, 0);

  DecomposeSpec sp;
  sp.tensor = tns_;
  sp.rank = 2;
  sp.iters = 2;
  sp.f32 = true;
  const DecomposeOutcome sparse_out = DecomposeJob(sp).run(ctx);
  EXPECT_TRUE(std::holds_alternative<KtensorF>(sparse_out.model));
  EXPECT_EQ(sparse_out.nnz, 30);
  EXPECT_EQ(sparse_out.scheme, SweepScheme::SparseCsf);
  EXPECT_TRUE(std::isfinite(sparse_out.fit));

  // A caller-owned plan serves plain dense cp_als jobs only.
  const std::vector<index_t> dims{6, 5, 4};
  CpAlsSweepPlanF plan(ctx, dims, 2, SweepScheme::PerMode, spec.method);
  spec.nn = true;
  const TensorF X = io::read_tensor_as<float>(cube_);
  EXPECT_THROW((void)DecomposeJob(spec).run(plan, X), DimensionError);
  // And the tensor handed in must have the probed extents.
  spec.nn = false;
  Rng rng(3);
  const TensorF other = TensorF::random_uniform({5, 5, 4}, rng);
  EXPECT_THROW((void)DecomposeJob(spec).run(plan, other), DimensionError);
}

}  // namespace
}  // namespace dmtk
