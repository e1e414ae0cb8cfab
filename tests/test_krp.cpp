// Khatri-Rao product algorithms: the row-wise definition, equality of the
// naive / reuse / parallel / column-wise variants, partial-KRP helpers, the
// flop-saving reuse property, and the planned-block kernels the MTTKRP
// plans run (krp_transposed_blocks with its per-block digit lines).

#include <gtest/gtest.h>
#include <omp.h>

#include <array>
#include <bit>
#include <cstdint>
#include <cstring>
#include <vector>

#include "core/krp.hpp"
#include "core/krp_detail.hpp"
#include "core/multi_index.hpp"
#include "test_helpers.hpp"

namespace dmtk {
namespace {

FactorList ptrs(const std::vector<Matrix>& ms) {
  FactorList fl;
  for (const Matrix& m : ms) fl.push_back(&m);
  return fl;
}

TEST(KrpRows, ProductOfRowCounts) {
  Rng rng(1);
  std::vector<Matrix> fs;
  fs.push_back(Matrix::random_uniform(3, 2, rng));
  fs.push_back(Matrix::random_uniform(4, 2, rng));
  fs.push_back(Matrix::random_uniform(5, 2, rng));
  EXPECT_EQ(krp_rows(ptrs(fs)), 60);
  EXPECT_EQ(krp_rows(FactorList{}), 1);  // empty product convention
}

TEST(KrpCols, DetectsMismatch) {
  Rng rng(2);
  std::vector<Matrix> fs;
  fs.push_back(Matrix::random_uniform(3, 2, rng));
  fs.push_back(Matrix::random_uniform(4, 3, rng));
  EXPECT_THROW(krp_cols(ptrs(fs)), DimensionError);
}

TEST(KrpRow, MatchesRowWiseDefinition) {
  // K = A (.) B: K(rB + rA*IB, :) = A(rA,:) * B(rB,:) (Section 2.1).
  Rng rng(3);
  const Matrix A = Matrix::random_uniform(3, 4, rng);
  const Matrix B = Matrix::random_uniform(5, 4, rng);
  std::vector<double> row(4);
  for (index_t ra = 0; ra < 3; ++ra) {
    for (index_t rb = 0; rb < 5; ++rb) {
      krp_row({&A, &B}, rb + ra * 5, row.data());
      for (index_t c = 0; c < 4; ++c) {
        EXPECT_DOUBLE_EQ(row[static_cast<std::size_t>(c)], A(ra, c) * B(rb, c));
      }
    }
  }
}

TEST(KrpTransposed, MatchesColumnwiseKronecker) {
  // The row-wise (transposed) KRP and the TTB-style column-wise KRP are the
  // same mathematical object: Kt(c, r) == K(r, c).
  Rng rng(4);
  std::vector<Matrix> fs;
  fs.push_back(Matrix::random_uniform(3, 5, rng));
  fs.push_back(Matrix::random_uniform(2, 5, rng));
  fs.push_back(Matrix::random_uniform(4, 5, rng));
  const FactorList fl = ptrs(fs);
  Matrix Kt = krp_transposed(fl, KrpVariant::Reuse, 1);
  Matrix K = krp_columnwise(fl);
  ASSERT_EQ(Kt.rows(), K.cols());
  ASSERT_EQ(Kt.cols(), K.rows());
  for (index_t r = 0; r < K.rows(); ++r) {
    for (index_t c = 0; c < K.cols(); ++c) {
      ASSERT_NEAR(Kt(c, r), K(r, c), 1e-14);
    }
  }
}

TEST(KrpColumnwise, KroneckerOfColumns) {
  // For two factors, column c must be kron(A(:,c), B(:,c)).
  Rng rng(5);
  const Matrix A = Matrix::random_uniform(3, 2, rng);
  const Matrix B = Matrix::random_uniform(4, 2, rng);
  Matrix K = krp_columnwise(FactorList{&A, &B});
  for (index_t c = 0; c < 2; ++c) {
    for (index_t a = 0; a < 3; ++a) {
      for (index_t b = 0; b < 4; ++b) {
        EXPECT_DOUBLE_EQ(K(b + a * 4, c), A(a, c) * B(b, c));
      }
    }
  }
}

class KrpVariantSweep
    : public ::testing::TestWithParam<std::tuple<int, index_t, int>> {};

TEST_P(KrpVariantSweep, NaiveReuseParallelAgree) {
  const auto [Z, C, threads] = GetParam();
  Rng rng(100 + Z * 10 + C);
  std::vector<Matrix> fs;
  const std::array<index_t, 4> rows{4, 3, 5, 2};
  for (int z = 0; z < Z; ++z) {
    fs.push_back(
        Matrix::random_uniform(rows[static_cast<std::size_t>(z)], C, rng));
  }
  const FactorList fl = ptrs(fs);
  Matrix Knaive = krp_transposed(fl, KrpVariant::Naive, 1);
  Matrix Kreuse = krp_transposed(fl, KrpVariant::Reuse, 1);
  Matrix Kpar = krp_transposed(fl, KrpVariant::Reuse, threads);
  testing::expect_matrix_near(Knaive, Kreuse, 1e-14);
  testing::expect_matrix_near(Knaive, Kpar, 1e-14);
}

INSTANTIATE_TEST_SUITE_P(
    Sweep, KrpVariantSweep,
    ::testing::Combine(::testing::Values(1, 2, 3, 4),
                       ::testing::Values<index_t>(1, 3, 25),
                       ::testing::Values(2, 5)));

TEST(KrpRowsRange, SubrangeMatchesFullComputation) {
  // Starting mid-stream (the parallel decomposition) must agree with the
  // full computation — exercises Odometer::seek and partial-product init.
  Rng rng(6);
  std::vector<Matrix> fs;
  fs.push_back(Matrix::random_uniform(3, 4, rng));
  fs.push_back(Matrix::random_uniform(4, 4, rng));
  fs.push_back(Matrix::random_uniform(5, 4, rng));
  const FactorList fl = ptrs(fs);
  const index_t J = krp_rows(fl);
  Matrix full(4, J);
  krp_rows_reuse(fl, 0, J, full.data(), 4);
  for (index_t r0 : {index_t{0}, index_t{7}, index_t{29}, index_t{59}}) {
    const index_t r1 = std::min<index_t>(J, r0 + 13);
    Matrix part(4, r1 - r0);
    krp_rows_reuse(fl, r0, r1, part.data(), 4);
    for (index_t r = r0; r < r1; ++r) {
      for (index_t c = 0; c < 4; ++c) {
        ASSERT_DOUBLE_EQ(part(c, r - r0), full(c, r)) << "row " << r;
      }
    }
  }
}

TEST(KrpRowsRange, EmptyRangeIsNoop) {
  Rng rng(7);
  std::vector<Matrix> fs;
  fs.push_back(Matrix::random_uniform(2, 3, rng));
  fs.push_back(Matrix::random_uniform(2, 3, rng));
  Matrix buf(3, 1);
  buf.fill(-1.0);
  krp_rows_reuse(ptrs(fs), 2, 2, buf.data(), 3);
  EXPECT_EQ(buf(0, 0), -1.0);  // untouched
}

TEST(KrpSingleFactor, IsRowCopy) {
  Rng rng(8);
  const Matrix A = Matrix::random_uniform(5, 3, rng);
  Matrix Kt = krp_transposed(FactorList{&A}, KrpVariant::Reuse, 2);
  for (index_t r = 0; r < 5; ++r) {
    for (index_t c = 0; c < 3; ++c) EXPECT_DOUBLE_EQ(Kt(c, r), A(r, c));
  }
}

TEST(KrpFactorHelpers, ModeOrderingForMttkrp) {
  // For mode n the KRP is U_{N-1} (.) ... (.) U_{n+1} (.) U_{n-1} ... U_0;
  // our lists are in product order, so the LAST entry is U_0 (fastest).
  Rng rng(9);
  std::vector<Matrix> fs;
  for (index_t n = 0; n < 4; ++n) {
    fs.push_back(Matrix::random_uniform(2 + n, 3, rng));
  }
  const FactorList k1 = mttkrp_krp_factors(fs, 1);
  ASSERT_EQ(k1.size(), 3u);
  EXPECT_EQ(k1[0], &fs[3]);
  EXPECT_EQ(k1[1], &fs[2]);
  EXPECT_EQ(k1[2], &fs[0]);

  const FactorList left = left_krp_factors(fs, 2);
  ASSERT_EQ(left.size(), 2u);
  EXPECT_EQ(left[0], &fs[1]);
  EXPECT_EQ(left[1], &fs[0]);

  const FactorList right = right_krp_factors(fs, 2);
  ASSERT_EQ(right.size(), 1u);
  EXPECT_EQ(right[0], &fs[3]);

  EXPECT_TRUE(left_krp_factors(fs, 0).empty());
  EXPECT_TRUE(right_krp_factors(fs, 3).empty());
}

TEST(KrpComposition, FullKrpEqualsRightTimesLeftBlocks) {
  // Figure 2's conformal partition: row block j of the full mode-n KRP is
  // KR(j, :) (.) KL. This identity is the core of the 1-step internal-mode
  // algorithm.
  Rng rng(10);
  std::vector<Matrix> fs;
  const std::array<index_t, 4> rows{3, 2, 4, 3};
  for (index_t n = 0; n < 4; ++n) {
    fs.push_back(
        Matrix::random_uniform(rows[static_cast<std::size_t>(n)], 5, rng));
  }
  const index_t mode = 2;
  Matrix Kfull = krp_transposed(mttkrp_krp_factors(fs, mode));
  Matrix KLt = krp_transposed(left_krp_factors(fs, mode));
  Matrix KRt = krp_transposed(right_krp_factors(fs, mode));
  const index_t ILn = KLt.cols();  // 3*2 = 6
  std::vector<double> krrow(5);
  for (index_t j = 0; j < KRt.cols(); ++j) {
    krp_row(right_krp_factors(fs, mode), j, krrow.data());
    for (index_t rl = 0; rl < ILn; ++rl) {
      for (index_t c = 0; c < 5; ++c) {
        ASSERT_NEAR(Kfull(c, j * ILn + rl),
                    krrow[static_cast<std::size_t>(c)] * KLt(c, rl), 1e-14);
      }
    }
  }
}

TEST(KrpLayout, OutputColumnsAreContiguousRows) {
  // Kt column r must be contiguous memory (the property that makes row-wise
  // generation cache-friendly).
  Rng rng(11);
  std::vector<Matrix> fs;
  fs.push_back(Matrix::random_uniform(2, 3, rng));
  fs.push_back(Matrix::random_uniform(3, 3, rng));
  Matrix Kt = krp_transposed(ptrs(fs));
  EXPECT_EQ(Kt.ld(), 3);  // = C: consecutive rows of K are C apart
}

std::uintptr_t address(const void* p) { return std::bit_cast<std::uintptr_t>(p); }

TEST(KrpBlockDigits, EachBlockOnLinesOfItsOwn) {
  constexpr std::uintptr_t kLine = 64;
  for (int blocks = 1; blocks <= 8; ++blocks) {
    for (std::size_t digits = 1; digits <= 9; ++digits) {
      detail::BlockDigits dg(blocks, digits);
      const std::uintptr_t span_lines =
          (digits * sizeof(index_t) + kLine - 1) / kLine;
      std::uintptr_t prev_last = 0;
      for (int b = 0; b < blocks; ++b) {
        index_t* d = dg.block(b);
        ASSERT_EQ(address(d) % kLine, 0u) << blocks << " x " << digits;
        const std::uintptr_t first = address(d) / kLine;
        const std::uintptr_t last = address(d + digits - 1) / kLine;
        EXPECT_EQ(last - first + 1, span_lines);
        if (b > 0) {
          EXPECT_GT(first, prev_last) << "blocks " << b - 1 << " and " << b
                                      << " share a line";
        }
        prev_last = last;
        for (std::size_t z = 0; z < digits; ++z) {
          d[z] = static_cast<index_t>(b);
        }
      }
      for (int b = 0; b < blocks; ++b) {
        for (std::size_t z = 0; z < digits; ++z) {
          EXPECT_EQ(dg.block(b)[z], b);  // no block wrote over another
        }
      }
    }
  }
}

/// The team parallel_region(planned, ...) gets: all `planned` threads, or
/// one when `one` holds every region inactive (max-active-levels 0).
template <typename F>
int on_team(bool one, int planned, F&& fn) {
  const int saved = omp_get_max_active_levels();
  if (one) omp_set_max_active_levels(0);
  int team = 0;
  parallel_region(planned, [&](int t, int nteam) {
    if (t == 0) team = nteam;
  });
  fn();
  omp_set_max_active_levels(saved);
  return team;
}

template <typename T>
class KrpPlannedBlocks : public ::testing::Test {};
using KrpScalars = ::testing::Types<double, float>;
TYPED_TEST_SUITE(KrpPlannedBlocks, KrpScalars);

TYPED_TEST(KrpPlannedBlocks, BitwiseEqualToKrpTransposed) {
  using T = TypeParam;
  const std::array<index_t, 4> rows{5, 3, 4, 2};  // 5 rows at Z = 1
  const index_t C = 6;
  Rng rng(17);
  for (std::size_t Z = 1; Z <= 4; ++Z) {
    std::vector<MatrixT<T>> fs;
    for (std::size_t z = 0; z < Z; ++z) {
      fs.push_back(MatrixT<T>::random_uniform(rows[z], C, rng));
    }
    FactorListT<T> fl;
    for (const MatrixT<T>& m : fs) fl.push_back(&m);
    const MatrixT<T> want = krp_transposed(fl, KrpVariant::Reuse, 1);
    const index_t J = want.cols();

    std::vector<std::vector<T>> panels(Z);
    std::vector<const T*> packed(Z);
    std::vector<index_t> extents(Z);
    for (std::size_t z = 0; z < Z; ++z) {
      panels[z].resize(static_cast<std::size_t>(rows[z] * C));
      detail::pack_factor_transposed(fs[z], C, panels[z].data());
      packed[z] = panels[z].data();
      extents[z] = rows[z];
    }
    // Partial-Hadamard slots a whole number of lines apart.
    const std::size_t line = 64 / sizeof(T);
    const std::size_t p_elems =
        Z >= 3 ? static_cast<std::size_t>(C) * (Z - 2) : 0;
    const std::size_t p_stride = (p_elems + line - 1) / line * line;

    for (int planned : {1, 3, 4, 7}) {
      for (bool one : {true, false}) {
        std::vector<T, AlignedAllocator<T>> P(
            static_cast<std::size_t>(planned) * p_stride + 1);
        std::vector<T> got(static_cast<std::size_t>(C * J), T{-1});
        detail::BlockDigits digits(planned, Z);
        const int team = on_team(one, planned, [&] {
          detail::krp_transposed_blocks<T>(packed, extents, C, J, planned,
                                           got.data(), P.data(), p_stride,
                                           digits);
        });
        EXPECT_EQ(team, one ? 1 : planned);
        EXPECT_EQ(std::memcmp(got.data(), want.data(), got.size() * sizeof(T)),
                  0)
            << "Z " << Z << ", " << planned << " blocks on a team of "
            << team;
      }
    }
  }
}

}  // namespace
}  // namespace dmtk
