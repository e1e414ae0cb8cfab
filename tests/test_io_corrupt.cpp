/// \file test_io_corrupt.cpp
/// \brief Corrupt-input coverage for every binary reader: truncation at
/// several depths and single-bit rot must produce a clean structured
/// IoError — never a crash, a hang, or a silently wrong tensor — and the
/// atomic-write path must leave the previous file intact when a write
/// fails mid-stream. The multi-chunk cases use a tensor large enough that
/// its body bypasses the reader's buffer and arrives in several direct
/// bulk reads. The last section covers the ‖X‖² the tensor read folds in
/// and carries.

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <array>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <functional>
#include <string>
#include <utility>
#include <vector>

#include "core/cp_model.hpp"
#include "core/tensor.hpp"
#include "io/checked_io.hpp"
#include "io/checkpoint.hpp"
#include "io/tensor_io.hpp"
#include "test_helpers.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"
#include "util/sumsq.hpp"

namespace dmtk {
namespace {

namespace fs = std::filesystem;

class IoCorruptTest : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = fs::temp_directory_path() /
           ("dmtk_corrupt_" + std::to_string(::getpid()) + "_" +
            ::testing::UnitTest::GetInstance()->current_test_info()->name());
    fs::create_directories(dir_);
    fault::disarm_all();
  }
  void TearDown() override {
    fault::disarm_all();
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  [[nodiscard]] std::string path(const std::string& name) const {
    return (dir_ / name).string();
  }

  fs::path dir_;
};

std::vector<char> slurp(const std::string& p) {
  std::ifstream in(p, std::ios::binary);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

void spit(const std::string& p, const std::vector<char>& bytes) {
  std::ofstream out(p, std::ios::binary | std::ios::trunc);
  out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
}

/// One reader under attack: truncate the file at several depths and flip
/// one bit at several offsets; every mutation must throw IoError.
void attack(const std::string& label, const std::string& p,
            const std::function<void(const std::string&)>& read) {
  const std::vector<char> good = slurp(p);
  ASSERT_GT(good.size(), 32u) << label;
  // Sanity: the pristine file reads back.
  ASSERT_NO_THROW(read(p)) << label;

  // Truncation at the header, mid-payload, and just-shy-of-complete.
  for (const std::size_t keep :
       {std::size_t{4}, good.size() / 2, good.size() - 1}) {
    std::vector<char> cut(good.begin(),
                          good.begin() + static_cast<std::ptrdiff_t>(keep));
    spit(p, cut);
    EXPECT_THROW(read(p), io::IoError)
        << label << ": truncated to " << keep << " of " << good.size();
  }

  // Single-bit rot in the magic, the extents, and the payload. The CRC
  // footer catches payload rot that header validation cannot.
  for (const std::size_t at :
       {std::size_t{2}, std::size_t{12}, good.size() / 2,
        good.size() - 30}) {
    std::vector<char> rot = good;
    rot[at] = static_cast<char>(rot[at] ^ 0x10);
    spit(p, rot);
    EXPECT_THROW(read(p), io::IoError)
        << label << ": bit flipped at offset " << at;
  }

  spit(p, good);  // restore for any follow-up
}

Tensor small_tensor() {
  Rng rng(99);
  return Tensor::random_uniform({5, 4, 3}, rng);
}

TEST_F(IoCorruptTest, TensorF64SurvivesCorruptionWithStructuredErrors) {
  const std::string p = path("x.dten");
  io::write_tensor(p, small_tensor());
  attack("tensor/f64", p, [](const std::string& f) {
    (void)io::read_tensor(f);
  });
}

TEST_F(IoCorruptTest, TensorF32SurvivesCorruptionWithStructuredErrors) {
  const std::string p = path("x32.dten");
  Rng rng(5);
  io::write_tensor(p, TensorF::random_uniform({6, 5, 4}, rng));
  attack("tensor/f32", p, [](const std::string& f) {
    (void)io::read_tensor_as<float>(f);
  });
}

TEST_F(IoCorruptTest, MatrixSurvivesCorruptionWithStructuredErrors) {
  const std::string p = path("m.dmat");
  Rng rng(11);
  io::write_matrix(p, Matrix::random_uniform(7, 6, rng));
  attack("matrix", p, [](const std::string& f) {
    (void)io::read_matrix(f);
  });
}

TEST_F(IoCorruptTest, KtensorSurvivesCorruptionWithStructuredErrors) {
  const std::string p = path("k.dktn");
  Rng rng(13);
  const std::vector<index_t> dims{6, 5, 4};
  Ktensor K = Ktensor::random(dims, 3, rng);
  io::write_ktensor(p, K);
  attack("ktensor", p, [](const std::string& f) {
    (void)io::read_ktensor(f);
  });
}

TEST_F(IoCorruptTest, KtensorF32SurvivesCorruptionWithStructuredErrors) {
  const std::string p = path("k32.dktn");
  Rng rng(19);
  const std::vector<index_t> dims{6, 5, 4};
  const KtensorF K = KtensorF::random(dims, 3, rng);
  io::write_ktensor(p, K);
  // Both the native-float read and the widening double read must fail
  // structurally, never by reading garbage, under the same attacks.
  attack("ktensor/f32", p, [](const std::string& f) {
    (void)io::read_ktensor_as<float>(f);
  });
  attack("ktensor/f32-as-f64", p, [](const std::string& f) {
    (void)io::read_ktensor_as<double>(f);
  });
}

TEST_F(IoCorruptTest, CheckpointSurvivesCorruptionWithStructuredErrors) {
  const std::string p = path("c.dckp");
  Rng rng(17);
  io::Checkpoint cp;
  cp.options_hash = 0xDEADBEEFu;
  cp.completed_sweeps = 7;
  cp.fit_old = 0.5;
  const std::vector<index_t> dims{6, 5, 4};
  cp.model = Ktensor::random(dims, 3, rng);
  io::write_checkpoint(p, cp);
  attack("checkpoint", p, [](const std::string& f) {
    (void)io::read_checkpoint<double>(f);
  });
}

TEST_F(IoCorruptTest, TnsTruncationIsRejectedWithLineNumbers) {
  // The text reader has its own (line-oriented) validation; a file cut
  // mid-entry must fail with an error naming the line, not parse short.
  const std::string p = path("s.tns");
  {
    std::ofstream out(p);
    out << "3\n4 5 6\n1 1 1 2.5\n2 3 4 -1.0\n";
  }
  const std::vector<char> good = slurp(p);
  std::vector<char> cut(good.begin(), good.end() - 6);
  spit(p, cut);
  try {
    (void)io::read_tns(p);
    FAIL() << "truncated .tns parsed";
  } catch (const io::IoError& e) {
    EXPECT_NE(std::string(e.what()).find(":"), std::string::npos);
  }
}

TEST_F(IoCorruptTest, LegacyFooterlessFilesStillRead) {
  // Seed-era files have no CRC footer; readers must accept them (skipping
  // verification) so an upgrade does not orphan existing data.
  const std::string p = path("legacy.dten");
  const Tensor X = small_tensor();
  io::write_tensor(p, X);
  std::vector<char> bytes = slurp(p);
  ASSERT_GT(bytes.size(), 24u);
  bytes.resize(bytes.size() - 24);  // strip the footer
  spit(p, bytes);
  const Tensor back = io::read_tensor(p);
  ASSERT_EQ(back.numel(), X.numel());
  for (index_t i = 0; i < X.numel(); ++i) EXPECT_EQ(back[i], X[i]);
}

TEST_F(IoCorruptTest, CorruptHeaderCannotTriggerHugeAllocation) {
  // A flipped extent must be caught by the payload-size pre-check, not
  // by an attempted multi-terabyte allocation.
  const std::string p = path("huge.dten");
  io::write_tensor(p, small_tensor());
  std::vector<char> bytes = slurp(p);
  // Payload layout: magic(8) order(8) dims... — blow up dim 0.
  bytes[16] = static_cast<char>(0xFF);
  bytes[20] = static_cast<char>(0x7F);
  spit(p, bytes);
  EXPECT_THROW((void)io::read_tensor(p), io::IoError);
}

TEST_F(IoCorruptTest, FailedWriteLeavesPreviousFileIntactAndNoTemps) {
  const std::string p = path("keep.dten");
  const Tensor X = small_tensor();
  io::write_tensor(p, X);
  const std::vector<char> before = slurp(p);

  // Arm the write fault: the next write must fail like ENOSPC...
  fault::arm("io.write", 1.0, 3);
  Rng rng(21);
  EXPECT_THROW(io::write_tensor(p, Tensor::random_uniform({8, 8, 8}, rng)),
               io::IoError);
  fault::disarm_all();

  // ...and the previous bytes are untouched: the temp was discarded
  // before any rename could happen.
  EXPECT_EQ(slurp(p), before);
  int stray = 0;
  for (const auto& ent : fs::directory_iterator(dir_)) {
    if (ent.path().filename().string().find(".tmp.") != std::string::npos) {
      ++stray;
    }
  }
  EXPECT_EQ(stray, 0) << "fault-aborted write left a temp file behind";
  // The target still reads cleanly.
  const Tensor back = io::read_tensor(p);
  EXPECT_EQ(back.numel(), X.numel());
}

TEST_F(IoCorruptTest, ShortReadFaultDrivesTheTruncationBranch) {
  const std::string p = path("short.dten");
  io::write_tensor(p, small_tensor());
  fault::arm("io.read.short", 1.0, 9);
  try {
    (void)io::read_tensor(p);
    FAIL() << "short-read fault did not surface";
  } catch (const io::IoError& e) {
    // The injected short read takes the REAL truncation branch, so the
    // message carries the offset diagnostics that branch always emits.
    EXPECT_NE(std::string(e.what()).find("offset"), std::string::npos);
  }
  fault::disarm_all();
  EXPECT_NO_THROW((void)io::read_tensor(p));
}

// ---------------------------------------------------------------------------
// Multi-chunk bodies: the direct bulk-read path
// ---------------------------------------------------------------------------

constexpr std::size_t kBigHeaderBytes = 8 + 8 + 3 * 8;  // magic, order, dims

/// 64x64x40 f64: a 1.3 MB body, several 256 KiB bulk chunks past the
/// 64 KiB buffer.
Tensor big_tensor() {
  Rng rng(31);
  return Tensor::random_uniform({64, 64, 40}, rng);
}

/// The byte offset an IoError message reports ("... offset N ...").
std::uint64_t reported_offset(const std::string& what) {
  const std::size_t at = what.find("offset ");
  if (at == std::string::npos) return 0;
  return std::stoull(what.substr(at + 7));
}

TEST_F(IoCorruptTest, BitFlipInLastBulkChunkFailsTheChecksum) {
  const std::string p = path("big.dten");
  io::write_tensor(p, big_tensor());
  std::vector<char> bytes = slurp(p);
  // 100 bytes before the footer: inside the final bulk chunk.
  const std::size_t at = bytes.size() - 24 - 100;
  bytes[at] = static_cast<char>(bytes[at] ^ 0x01);
  spit(p, bytes);
  try {
    (void)io::read_tensor(p);
    FAIL() << "bit flip in the last chunk went undetected";
  } catch (const io::IoError& e) {
    EXPECT_NE(std::string(e.what()).find("checksum mismatch"),
              std::string::npos)
        << e.what();
  }
}

TEST_F(IoCorruptTest, TruncationMidBodyNamesTheOffset) {
  const std::string p = path("big.dten");
  const Tensor X = big_tensor();
  io::write_tensor(p, X);
  const std::size_t body = static_cast<std::size_t>(X.numel()) * sizeof(double);
  // The file loses the back half of its body after the reader sized it:
  // a bulk read hits end-of-file at the cut and must say where.
  io::FileReader r(p);
  std::vector<char> header(kBigHeaderBytes);
  r.read_bytes(header.data(), header.size());
  const std::uint64_t cut = kBigHeaderBytes + body / 2 + 1;
  fs::resize_file(p, cut);
  std::vector<double> out(static_cast<std::size_t>(X.numel()));
  try {
    r.read_bytes(out.data(), body);
    FAIL() << "mid-body truncation went undetected";
  } catch (const io::IoError& e) {
    EXPECT_EQ(reported_offset(e.what()), cut) << e.what();
  }

  // Through the public reader: a file one byte short of its body fails
  // the payload bounds check, before any body byte is read.
  io::write_tensor(p, X);
  fs::resize_file(p, kBigHeaderBytes + body - 1);
  try {
    (void)io::read_tensor(p);
    FAIL() << "one-byte-short body went undetected";
  } catch (const io::IoError& e) {
    EXPECT_EQ(reported_offset(e.what()), kBigHeaderBytes) << e.what();
  }
}

TEST_F(IoCorruptTest, ShortReadFaultOnBulkReadReportsOffsetPastHeader) {
  const std::string p = path("big.dten");
  const Tensor X = big_tensor();
  io::write_tensor(p, X);
  const std::size_t body = static_cast<std::size_t>(X.numel()) * sizeof(double);
  io::FileReader r(p);
  std::vector<char> header(kBigHeaderBytes);
  r.read_bytes(header.data(), header.size());
  // Armed after the header: the first read() the fault sees is a bulk
  // read straight into the destination.
  fault::arm("io.read.short", 1.0, 9);
  std::vector<double> out(static_cast<std::size_t>(X.numel()));
  try {
    r.read_bytes(out.data(), body);
    FAIL() << "short-read fault did not surface";
  } catch (const io::IoError& e) {
    EXPECT_NE(std::string(e.what()).find("truncated"), std::string::npos)
        << e.what();
    EXPECT_GT(reported_offset(e.what()), kBigHeaderBytes) << e.what();
  }
  fault::disarm_all();
  const Tensor back = io::read_tensor(p);
  EXPECT_TRUE(std::equal(back.data(), back.data() + back.numel(), X.data()));
}

TEST_F(IoCorruptTest, MultiChunkCrossPrecisionReadsMatchTensorCast) {
  const std::string p64 = path("big64.dten");
  const std::string p32 = path("big32.dten");
  const Tensor X = big_tensor();
  Rng rng(37);
  const TensorF Xf = TensorF::random_uniform({80, 64, 48}, rng);
  io::write_tensor(p64, X);
  io::write_tensor(p32, Xf);

  const TensorF narrowed = io::read_tensor_as<float>(p64);
  const TensorF want_f = tensor_cast<float>(X);
  ASSERT_EQ(narrowed.numel(), want_f.numel());
  EXPECT_TRUE(std::equal(narrowed.data(), narrowed.data() + narrowed.numel(),
                         want_f.data()));

  const Tensor widened = io::read_tensor_as<double>(p32);
  const Tensor want_d = tensor_cast<double>(Xf);
  ASSERT_EQ(widened.numel(), want_d.numel());
  EXPECT_TRUE(std::equal(widened.data(), widened.data() + widened.numel(),
                         want_d.data()));
}

// ---------------------------------------------------------------------------
// The carried ‖X‖²
// ---------------------------------------------------------------------------

/// A fresh sum-of-squares pass over X's entries, never the carried value.
template <typename T>
double fresh_norm2(const TensorT<T>& X, int threads) {
  return util::sumsq(X.data(), static_cast<std::size_t>(X.numel()), threads);
}

/// Write big_tensor() with `Stored` scalars and read it back as `Want`.
template <typename Stored, typename Want>
TensorT<Want> write_and_read(const std::string& p) {
  io::write_tensor(p, tensor_cast<Stored>(big_tensor()));
  return io::read_tensor_as<Want>(p);
}

template <typename Stored, typename Want>
void expect_carried_equals_fresh(const std::string& p) {
  TensorT<Want> X = write_and_read<Stored, Want>(p);
  ASSERT_TRUE(dmtk::testing::answers_from_carried_norm(X));
  for (const int threads : {1, 2, 4}) {
    EXPECT_EQ(X.norm_squared(threads), fresh_norm2(X, threads))
        << "threads " << threads;
  }
}

TEST_F(IoCorruptTest, CarriedNormEqualsAFreshPassForEveryScalarPair) {
  expect_carried_equals_fresh<double, double>(path("dd.dten"));
  expect_carried_equals_fresh<double, float>(path("df.dten"));
  expect_carried_equals_fresh<float, double>(path("fd.dten"));
  expect_carried_equals_fresh<float, float>(path("ff.dten"));
}

TEST_F(IoCorruptTest, EveryNonConstAccessorDropsTheCarriedNorm) {
  Tensor X = write_and_read<double, double>(path("x.dten"));
  ASSERT_TRUE(dmtk::testing::answers_from_carried_norm(X));
  const std::array<index_t, 3> idx{1, 2, 3};
  const std::vector<std::pair<const char*, std::function<void(Tensor&)>>>
      writes = {
          {"data()", [](Tensor& Y) { Y.data()[0] += 1.0; }},
          {"span()", [](Tensor& Y) { Y.span()[1] += 1.0; }},
          {"operator[]", [](Tensor& Y) { Y[2] += 1.0; }},
          {"operator()", [&idx](Tensor& Y) { Y(idx) += 1.0; }},
          {"set_zero()", [](Tensor& Y) { Y.set_zero(); }},
      };
  for (const auto& [name, write] : writes) {
    Tensor Y = X;
    write(Y);
    EXPECT_FALSE(dmtk::testing::answers_from_carried_norm(Y)) << name;
    EXPECT_NE(Y.norm_squared(), X.norm_squared()) << name;
    EXPECT_EQ(Y.norm_squared(), fresh_norm2(Y, 1)) << name;
  }
}

TEST_F(IoCorruptTest, CopiesAndMovesKeepTheCarriedNorm) {
  const TensorF X = write_and_read<float, float>(path("x.dten"));
  const double want = X.norm_squared();
  TensorF copy = X;
  TensorF assigned;
  assigned = X;
  TensorF moved_from = X;
  TensorF moved = std::move(moved_from);
  TensorF* const kept[] = {&copy, &assigned, &moved};
  for (TensorF* Y : kept) {
    EXPECT_TRUE(dmtk::testing::answers_from_carried_norm(*Y));
    EXPECT_EQ(Y->norm_squared(), want);
  }
}

TEST_F(IoCorruptTest, TheNormFoldNeverStandsInForVerify) {
  // Truncation and bit rot in multi-chunk bodies, on the direct and both
  // converting reads: each still throws, so no tensor (and no carried
  // norm) comes out of a corrupt file.
  const std::string p64 = path("big64.dten");
  const std::string p32 = path("big32.dten");
  io::write_tensor(p64, big_tensor());
  io::write_tensor(p32, tensor_cast<float>(big_tensor()));
  attack("f64 as f64", p64, [](const std::string& f) {
    (void)io::read_tensor_as<double>(f);
  });
  attack("f64 as f32", p64, [](const std::string& f) {
    (void)io::read_tensor_as<float>(f);
  });
  attack("f32 as f64", p32, [](const std::string& f) {
    (void)io::read_tensor_as<double>(f);
  });
  attack("f32 as f32", p32, [](const std::string& f) {
    (void)io::read_tensor_as<float>(f);
  });
}

}  // namespace
}  // namespace dmtk
