// Tensor container semantics and — critically — the layout properties of
// Figure 2 that every MTTKRP algorithm relies on: linearization order,
// left/right sizes, and the row-major natural blocks of X(n).

#include <gtest/gtest.h>

#include <algorithm>
#include <array>
#include <cmath>
#include <cstdint>
#include <vector>

#include "core/tensor.hpp"
#include "util/sumsq.hpp"

namespace dmtk {
namespace {

TEST(TensorTest, DimsAndNumel) {
  Tensor X({3, 4, 5});
  EXPECT_EQ(X.order(), 3);
  EXPECT_EQ(X.dim(0), 3);
  EXPECT_EQ(X.dim(1), 4);
  EXPECT_EQ(X.dim(2), 5);
  EXPECT_EQ(X.numel(), 60);
}

TEST(TensorTest, LeftRightSizes) {
  Tensor X({3, 4, 5, 6});
  // I_Ln = prod of modes left of n; I_Rn = prod right of n.
  EXPECT_EQ(X.left_size(0), 1);
  EXPECT_EQ(X.left_size(1), 3);
  EXPECT_EQ(X.left_size(2), 12);
  EXPECT_EQ(X.left_size(3), 60);
  EXPECT_EQ(X.right_size(0), 120);
  EXPECT_EQ(X.right_size(1), 30);
  EXPECT_EQ(X.right_size(2), 6);
  EXPECT_EQ(X.right_size(3), 1);
  EXPECT_EQ(X.cosize(1), 90);
}

TEST(TensorTest, LinearizationMode0Fastest) {
  Tensor X({2, 3, 2});
  // l = i0 + i1*2 + i2*6 (Section 2.1).
  const std::array<index_t, 3> idx{1, 2, 1};
  EXPECT_EQ(X.linear_index(idx), 1 + 2 * 2 + 1 * 6);
}

TEST(TensorTest, ElementAccessRoundTrip) {
  Tensor X({3, 4, 5});
  const std::array<index_t, 3> idx{2, 1, 3};
  X(idx) = 42.0;
  EXPECT_EQ(X[2 + 1 * 3 + 3 * 12], 42.0);
}

TEST(TensorTest, ModeBlockIsRowMajorSubmatrix) {
  // Property from Figure 2: block j of X(n) holds entries with right-modes
  // linearized to j; within the block, entry (i_n, c) sits at offset
  // c + i_n * I_Ln (row-major with ld = I_Ln).
  Tensor X({3, 4, 5});
  // Fill with linear index for identification.
  for (index_t l = 0; l < X.numel(); ++l) X[l] = static_cast<double>(l);
  const index_t n = 1;
  const index_t ILn = X.left_size(n);  // 3
  for (index_t j = 0; j < X.right_size(n); ++j) {
    const double* block = X.mode_block(n, j);
    for (index_t i = 0; i < X.dim(n); ++i) {
      for (index_t c = 0; c < ILn; ++c) {
        // Entry (c, i, j) of the tensor.
        const std::array<index_t, 3> idx{c, i, j};
        EXPECT_EQ(block[c + i * ILn], X(idx));
      }
    }
  }
}

TEST(TensorTest, Mode0MatricizationIsColumnMajor) {
  Tensor X({4, 3, 2});
  for (index_t l = 0; l < X.numel(); ++l) X[l] = static_cast<double>(l);
  // X(0) column c (= linearization of modes 1,2) starts at c * I0 and is
  // contiguous — i.e. the raw buffer IS the column-major matricization.
  for (index_t c = 0; c < X.cosize(0); ++c) {
    for (index_t i = 0; i < X.dim(0); ++i) {
      EXPECT_EQ(X.data()[i + c * X.dim(0)], static_cast<double>(i + c * 4));
    }
  }
}

TEST(TensorTest, NormMatchesManualSum) {
  Tensor X({2, 2});
  X[0] = 1;
  X[1] = 2;
  X[2] = 2;
  X[3] = 4;
  EXPECT_DOUBLE_EQ(X.norm(), 5.0);
  EXPECT_DOUBLE_EQ(X.norm_squared(), 25.0);
}

/// Lengths on both sides of the sum-of-squares order's block and group
/// edges (util/sumsq.hpp), plus more than one group.
std::vector<index_t> norm_lengths() {
  const auto B = static_cast<index_t>(util::kSumSqBlock);
  const auto G = static_cast<index_t>(util::kSumSqGroup);
  return {1, 15, 16, 17, B - 1, B + 1, G + 1, 3 * G + B + 5};
}

template <typename T>
void expect_norm_bitwise_across_thread_counts() {
  for (const index_t n : norm_lengths()) {
    Rng rng(static_cast<std::uint64_t>(n));
    // Two modes, so the layout is a real tensor's; normal draws, on which
    // another summation order changes the low bits.
    TensorT<T> X({n, 2});
    fill_normal(X.span(), rng);
    const TensorT<T>& cx = X;
    util::SumSq<T> oracle;
    oracle.update(cx.data(), static_cast<std::size_t>(cx.numel()));
    for (const int threads : {1, 2, 3, 4}) {
      ASSERT_EQ(cx.norm_squared(threads), oracle.value())
          << "length " << n << ", threads " << threads;
    }
    EXPECT_EQ(cx.norm(3), std::sqrt(oracle.value()));
  }
}

TEST(TensorTest, NormSquaredIsBitwiseEqualAcrossThreadCountsF64) {
  expect_norm_bitwise_across_thread_counts<double>();
}

TEST(TensorTest, NormSquaredIsBitwiseEqualAcrossThreadCountsF32) {
  expect_norm_bitwise_across_thread_counts<float>();
}

TEST(TensorTest, EmptyTensorHasZeroNorm) {
  const Tensor X;
  for (const int threads : {1, 4}) EXPECT_EQ(X.norm_squared(threads), 0.0);
}

TEST(TensorTest, NormSquaredIsBitwiseRepeatableAtAFixedThreadCount) {
  // The group sums are combined in group order, never in the order the
  // threads finish: 50 calls on a team of 4 must agree to the last bit.
  Rng rng(11);
  Tensor X = Tensor::random_uniform({100, 100, 100}, rng);
  const double first = X.norm_squared(4);
  for (int call = 0; call < 50; ++call) {
    ASSERT_EQ(X.norm_squared(4), first) << "call " << call;
  }
}

TEST(TensorTest, MaxAbsDiff) {
  Tensor A({2, 2}), B({2, 2});
  A[3] = 1.0;
  B[3] = -1.0;
  EXPECT_DOUBLE_EQ(A.max_abs_diff(B), 2.0);
}

TEST(TensorTest, MaxAbsDiffShapeMismatchThrows) {
  Tensor A({2, 2}), B({2, 3});
  EXPECT_THROW((void)A.max_abs_diff(B), DimensionError);
}

TEST(TensorTest, RandomDeterministicAcrossSeeds) {
  Rng a(9), b(9);
  Tensor X = Tensor::random_uniform({3, 3}, a);
  Tensor Y = Tensor::random_uniform({3, 3}, b);
  EXPECT_DOUBLE_EQ(X.max_abs_diff(Y), 0.0);
}

TEST(TensorTest, ZeroDimensionThrows) {
  EXPECT_THROW(Tensor({3, 0, 2}), DimensionError);
}

TEST(TensorTest, StorageAboveTheLargeBufferCutIsZeroedAlignedAndCopies) {
  // 256·128·129 doubles is 33.8 MB: a mapped buffer, which TensorT(dims)
  // does not fill itself.
  const std::vector<index_t> dims{256, 128, 129};
  const std::size_t n = 256u * 128u * 129u;
  ASSERT_TRUE(is_large_buffer(n * sizeof(double)));
  Tensor X(dims);
  const Tensor& cx = X;
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(cx.data()) % kDefaultAlignment,
            0u);
  EXPECT_TRUE(std::all_of(cx.data(), cx.data() + n,
                          [](double v) { return v == 0.0; }));

  for (index_t l = 0; l < X.numel(); l += 4099)
    X[l] = 1.0 + static_cast<double>(l);
  const Tensor Y = X;  // copy
  EXPECT_NE(Y.data(), cx.data());
  EXPECT_EQ(Y.max_abs_diff(X), 0.0);
  const double* before = cx.data();
  const Tensor Z = std::move(X);  // move keeps the very buffer
  EXPECT_EQ(Z.data(), before);
  EXPECT_EQ(Z.max_abs_diff(Y), 0.0);
  EXPECT_EQ(Z[4099], 4100.0);
}

TEST(TensorTest, TwoWayTensorActsAsMatrix) {
  Tensor X({3, 4});
  EXPECT_EQ(X.left_size(1), 3);
  EXPECT_EQ(X.right_size(0), 4);
  EXPECT_EQ(X.cosize(0), 4);
}

}  // namespace
}  // namespace dmtk
