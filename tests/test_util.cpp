// Tests for util/: block partitioning, the median, RNG, the timer, the
// threading environment, the CRC-32 kernels, the sum-of-squares kernels and
// the huge-page mapping of large buffers.

#include <gtest/gtest.h>

#include <array>
#include <cmath>
#include <cstdint>
#include <thread>
#include <vector>

#include "util/aligned_alloc.hpp"
#include "util/common.hpp"
#include "util/crc32.hpp"
#include "util/env.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"
#include "util/sumsq.hpp"
#include "util/timer.hpp"

namespace dmtk {
namespace {

// ---------------------------------------------------------------- block_range

TEST(BlockRange, CoversAllElementsExactlyOnce) {
  for (index_t total : {0, 1, 5, 12, 13, 100}) {
    for (int nt : {1, 2, 3, 7, 12, 64}) {
      std::vector<int> hits(static_cast<std::size_t>(total), 0);
      for (int t = 0; t < nt; ++t) {
        const Range r = block_range(total, nt, t);
        for (index_t i = r.begin; i < r.end; ++i) {
          ++hits[static_cast<std::size_t>(i)];
        }
      }
      for (index_t i = 0; i < total; ++i) {
        EXPECT_EQ(hits[static_cast<std::size_t>(i)], 1)
            << "total=" << total << " nt=" << nt << " i=" << i;
      }
    }
  }
}

TEST(BlockRange, BlocksAreContiguousAndOrdered) {
  const index_t total = 97;
  const int nt = 8;
  index_t expected_begin = 0;
  for (int t = 0; t < nt; ++t) {
    const Range r = block_range(total, nt, t);
    EXPECT_EQ(r.begin, expected_begin);
    expected_begin = r.end;
  }
  EXPECT_EQ(expected_begin, total);
}

TEST(BlockRange, BalancedWithinOne) {
  const index_t total = 103;
  const int nt = 12;
  index_t mn = total, mx = 0;
  for (int t = 0; t < nt; ++t) {
    const Range r = block_range(total, nt, t);
    mn = std::min(mn, r.size());
    mx = std::max(mx, r.size());
  }
  EXPECT_LE(mx - mn, 1);
}

TEST(BlockRange, MoreThreadsThanWork) {
  const index_t total = 3;
  const int nt = 8;
  index_t covered = 0;
  for (int t = 0; t < nt; ++t) covered += block_range(total, nt, t).size();
  EXPECT_EQ(covered, total);
}

// ------------------------------------------------------------- parallel_for

TEST(ParallelFor, VisitsEveryIndexOnce) {
  const index_t n = 1000;
  std::vector<std::atomic<int>> hits(static_cast<std::size_t>(n));
  parallel_for_blocked(index_t{0}, n, 4,
                       [&](index_t i) { ++hits[static_cast<std::size_t>(i)]; });
  for (auto& h : hits) EXPECT_EQ(h.load(), 1);
}

TEST(ParallelFor, SingleThreadFallback) {
  index_t sum = 0;
  parallel_for_blocked(index_t{0}, index_t{10}, 1, [&](index_t i) { sum += i; });
  EXPECT_EQ(sum, 45);
}

TEST(ParallelRegion, TeamSizeMatches) {
  std::atomic<int> count{0};
  parallel_region(3, [&](int, int nt) {
    EXPECT_EQ(nt, 3);
    ++count;
  });
  EXPECT_EQ(count.load(), 3);
}

// -------------------------------------------------------------------- stats

TEST(Stats, MedianOddCount) {
  const std::vector<double> xs{1.0, 2.0, 3.0, 4.0, 10.0};
  EXPECT_DOUBLE_EQ(median(xs), 3.0);
}

TEST(Stats, MedianEvenCount) {
  const std::vector<double> xs{4.0, 1.0, 3.0, 2.0};
  EXPECT_DOUBLE_EQ(median(xs), 2.5);
}

TEST(Stats, EmptyInputs) {
  const std::vector<double> xs;
  EXPECT_DOUBLE_EQ(median(xs), 0.0);
}

// ---------------------------------------------------------------------- rng

TEST(Rng, DeterministicForSeed) {
  Rng a(123), b(123);
  for (int i = 0; i < 100; ++i) EXPECT_EQ(a.next_u64(), b.next_u64());
}

TEST(Rng, DifferentSeedsDiffer) {
  Rng a(1), b(2);
  int same = 0;
  for (int i = 0; i < 100; ++i) {
    if (a.next_u64() == b.next_u64()) ++same;
  }
  EXPECT_EQ(same, 0);
}

TEST(Rng, UniformInRange) {
  Rng rng(7);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform();
    EXPECT_GE(u, 0.0);
    EXPECT_LT(u, 1.0);
  }
}

TEST(Rng, UniformBoundsRespected) {
  Rng rng(9);
  for (int i = 0; i < 1000; ++i) {
    const double u = rng.uniform(-2.0, 5.0);
    EXPECT_GE(u, -2.0);
    EXPECT_LT(u, 5.0);
  }
}

TEST(Rng, NormalMomentsApproximate) {
  Rng rng(11);
  const int n = 20000;
  double s = 0.0, s2 = 0.0;
  for (int i = 0; i < n; ++i) {
    const double x = rng.normal();
    s += x;
    s2 += x * x;
  }
  EXPECT_NEAR(s / n, 0.0, 0.05);
  EXPECT_NEAR(s2 / n, 1.0, 0.05);
}

TEST(Rng, SplitStreamsIndependent) {
  Rng rng(13);
  Rng s1 = rng.split();
  Rng s2 = rng.split();
  EXPECT_NE(s1.next_u64(), s2.next_u64());
}

TEST(Rng, FillHelpers) {
  Rng rng(17);
  std::vector<double> v(64);
  fill_uniform(v, rng, 2.0, 3.0);
  for (double x : v) {
    EXPECT_GE(x, 2.0);
    EXPECT_LT(x, 3.0);
  }
}

// -------------------------------------------------------------------- timer

TEST(Timer, MeasuresElapsedTime) {
  WallTimer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  EXPECT_GE(t.seconds(), 0.015);
}

TEST(Timer, ResetRestarts) {
  WallTimer t;
  std::this_thread::sleep_for(std::chrono::milliseconds(20));
  t.reset();
  EXPECT_LT(t.seconds(), 0.015);
}

// ---------------------------------------------------------------------- env

TEST(Env, ResolveThreadsUsesDefault) {
  set_num_threads(5);
  EXPECT_EQ(resolve_threads(0), 5);
  EXPECT_EQ(resolve_threads(-1), 5);
  EXPECT_EQ(resolve_threads(3), 3);
  set_num_threads(hardware_threads());
}

TEST(Env, SetNumThreadsClampsToOne) {
  set_num_threads(0);
  EXPECT_GE(num_threads(), 1);
  set_num_threads(hardware_threads());
}

TEST(Env, HardwareThreadsPositive) { EXPECT_GE(hardware_threads(), 1); }

// -------------------------------------------------------------------- crc32

/// The bytewise table loop: the reference both kernels must reproduce.
std::uint32_t crc32_oracle(std::uint32_t state, const unsigned char* p,
                           std::size_t n) {
  static const std::array<std::uint32_t, 256> table = [] {
    std::array<std::uint32_t, 256> t{};
    for (std::uint32_t i = 0; i < 256; ++i) {
      std::uint32_t c = i;
      for (int k = 0; k < 8; ++k)
        c = (c & 1u) ? (0xEDB88320u ^ (c >> 1)) : (c >> 1);
      t[i] = c;
    }
    return t;
  }();
  for (std::size_t i = 0; i < n; ++i)
    state = table[(state ^ p[i]) & 0xFFu] ^ (state >> 8);
  return state;
}

std::vector<unsigned char> random_bytes(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<unsigned char> b(n);
  for (unsigned char& c : b) c = static_cast<unsigned char>(rng.next_u64());
  return b;
}

using CrcKernel = std::uint32_t (*)(std::uint32_t, const void*,
                                    std::size_t) noexcept;

/// Every length 0..4096 from an aligned start, then random (length up to
/// 4 MiB, start alignment 0..63, running state) cases against the oracle.
void expect_matches_oracle(CrcKernel kernel, const char* name) {
  constexpr std::size_t kMax = std::size_t{4} << 20;
  const std::vector<unsigned char> buf = random_bytes(kMax + 64, 71);
  for (std::size_t n = 0; n <= 4096; ++n) {
    ASSERT_EQ(kernel(util::crc32_init(), buf.data(), n),
              crc32_oracle(util::crc32_init(), buf.data(), n))
        << name << " length " << n;
  }
  Rng rng(72);
  for (int trial = 0; trial < 48; ++trial) {
    // Log-uniform lengths, so both short tails and multi-MiB runs occur;
    // the last trials pin the 4 MiB end.
    const std::size_t n =
        trial >= 44 ? kMax - static_cast<std::size_t>(rng.below(4))
                    : static_cast<std::size_t>(
                          rng.below(std::uint64_t{1} << rng.below(23)));
    const std::size_t align = static_cast<std::size_t>(rng.below(64));
    const auto state = static_cast<std::uint32_t>(rng.next_u64());
    ASSERT_EQ(kernel(state, buf.data() + align, n),
              crc32_oracle(state, buf.data() + align, n))
        << name << " length " << n << " alignment " << align;
  }
}

TEST(Crc32, KnownAnswers) {
  // The CRC-32/ISO-HDLC check value pins the polynomial and the
  // reflection; the empty input pins the init/final xor pair.
  const char check[] = "123456789";
  EXPECT_EQ(util::crc32(check, 9), 0xCBF43926u);
  EXPECT_EQ(util::crc32(check, 0), 0u);
}

TEST(Crc32, IncrementalSplitMatchesOneShot) {
  const std::vector<unsigned char> buf = random_bytes(1024, 73);
  const std::uint32_t whole = util::crc32(buf.data(), buf.size());
  for (std::size_t k = 0; k <= buf.size(); ++k) {
    std::uint32_t s = util::crc32_update(util::crc32_init(), buf.data(), k);
    s = util::crc32_update(s, buf.data() + k, buf.size() - k);
    EXPECT_EQ(util::crc32_final(s), whole) << "split at " << k;
  }
}

TEST(Crc32, Slice16MatchesBytewiseOracle) {
  expect_matches_oracle(util::detail::crc32_slice16, "slice16");
}

TEST(Crc32, ClmulMatchesBytewiseOracle) {
  if (!util::detail::crc32_clmul_supported())
    GTEST_SKIP() << "CPU lacks PCLMULQDQ/SSE4.1";
  expect_matches_oracle(util::detail::crc32_clmul, "clmul");
}

// -------------------------------------------------------------------- sumsq

/// The documented summation order written out plainly: lanes i % 16 inside
/// blocks, the fixed lane tree, blocks ascending into groups, groups
/// ascending into the total. This file builds with -ffp-contract=off, so
/// the oracle rounds the square and the add separately on every target.
template <typename T>
double sumsq_oracle(const T* x, std::size_t n) {
  double total = 0.0;
  for (std::size_t g = 0; g < n; g += util::kSumSqGroup) {
    double group = 0.0;
    const std::size_t g_end = std::min(n, g + util::kSumSqGroup);
    for (std::size_t b = g; b < g_end; b += util::kSumSqBlock) {
      std::array<double, util::kSumSqLanes> lane{};
      const std::size_t b_end = std::min(g_end, b + util::kSumSqBlock);
      for (std::size_t i = b; i < b_end; ++i) {
        const double v = static_cast<double>(x[i]);
        lane[i % util::kSumSqLanes] += v * v;
      }
      for (std::size_t w = util::kSumSqLanes / 2; w >= 1; w /= 2) {
        for (std::size_t j = 0; j < w; ++j) lane[j] += lane[j + w];
      }
      group += lane[0];
    }
    total += group;
  }
  return total;
}

/// Normal draws scaled by 2^k, k in [-20, 20]: magnitudes wide enough that
/// any change to the summation order changes the result's low bits.
template <typename T>
std::vector<T> wide_values(std::size_t n, std::uint64_t seed) {
  Rng rng(seed);
  std::vector<T> v(n);
  for (T& x : v) {
    const int k = static_cast<int>(rng.below(41)) - 20;
    x = static_cast<T>(std::ldexp(rng.normal(), k));
  }
  return v;
}

/// Lengths on both sides of every boundary of the order: a lane row, a
/// block and a group, plus more than one group.
std::vector<std::size_t> sumsq_lengths() {
  const std::size_t B = util::kSumSqBlock;
  const std::size_t G = util::kSumSqGroup;
  return {0, 1, 15, 16, 17, B - 1, B, B + 1, G - 1, G, G + 1,
          2 * G + B + 17};
}

template <typename T>
void expect_matches_oracle() {
  const std::vector<std::size_t> lengths = sumsq_lengths();
  const std::vector<T> data = wide_values<T>(lengths.back(), 41);
  for (const std::size_t n : lengths) {
    const double want = sumsq_oracle(data.data(), n);
    util::SumSq<T> one;
    one.update(data.data(), n);
    ASSERT_EQ(one.value(), want) << "length " << n;
    // Pieces of every awkward size: inside a lane row, across one, and
    // across block and group edges.
    util::SumSq<T> pieces;
    const std::size_t cuts[] = {1, 7, 16, 33, util::kSumSqBlock + 3, 5};
    std::size_t done = 0;
    for (std::size_t k = 0; done < n; ++k) {
      const std::size_t take = std::min(cuts[k % std::size(cuts)], n - done);
      pieces.update(data.data() + done, take);
      done += take;
    }
    ASSERT_EQ(pieces.value(), want) << "pieces, length " << n;
    for (const int threads : {1, 2, 3, 4}) {
      ASSERT_EQ(util::sumsq(data.data(), n, threads), want)
          << "threads " << threads << ", length " << n;
    }
  }
}

TEST(SumSq, MatchesTheOracleF64) { expect_matches_oracle<double>(); }

TEST(SumSq, MatchesTheOracleF32) { expect_matches_oracle<float>(); }

TEST(SumSq, TheTestDataIsOrderSensitive) {
  // Guards the tests above against vacuous passes: on these values a plain
  // left-to-right sum differs from the fixed order.
  const std::vector<double> data = wide_values<double>(util::kSumSqGroup, 41);
  double naive = 0.0;
  for (const double v : data) naive += v * v;
  EXPECT_NE(naive, sumsq_oracle(data.data(), data.size()));
}

TEST(SumSq, RoundsTheSquareBeforeTheAdd) {
  // A fused multiply-add rarely changes a long sum's last bit, so random
  // data cannot be trusted to catch one. Here each lane in turn holds two
  // values, a then b, drawn so that a*a + b*b rounded twice differs from
  // fma(b, b, a*a); every other element is zero, so the lane's sum is the
  // result. (A float's square is exact in double: only f64 can tell.)
  Rng rng(5);
  for (std::size_t lane = 0; lane < util::kSumSqLanes; ++lane) {
    double a = 0.0, b = 0.0;
    do {
      a = rng.uniform(1.0, 2.0);
      b = rng.uniform(1.0, 2.0);
    } while (a * a + b * b == std::fma(b, b, a * a));
    std::vector<double> x(2 * util::kSumSqLanes, 0.0);
    x[lane] = a;
    x[util::kSumSqLanes + lane] = b;
    ASSERT_EQ(sumsq_oracle(x.data(), x.size()), a * a + b * b);
    util::SumSq<double> acc;
    acc.update(x.data(), x.size());
    EXPECT_EQ(acc.value(), a * a + b * b) << "lane " << lane;
  }
}

TEST(SumSq, ManyRoundsOfGroupsMatchTheOracle) {
  // Past the 64 groups one team round takes: several rounds, in order.
  const std::size_t n = 100 * util::kSumSqGroup + 999;
  const std::vector<float> data = wide_values<float>(n, 43);
  const double want = sumsq_oracle(data.data(), n);
  for (const int threads : {1, 3, 4}) {
    EXPECT_EQ(util::sumsq(data.data(), n, threads), want)
        << "threads " << threads;
  }
}

// ------------------------------------------------------------ aligned_alloc

TEST(BufferAlloc, MappingLengthRoundsUpToWholeHugePages) {
  static_assert(kLargeBufferBytes % kHugePageBytes == 0);
  EXPECT_EQ(mapped_bytes(kLargeBufferBytes), kLargeBufferBytes);
  EXPECT_EQ(mapped_bytes(kLargeBufferBytes + 1),
            kLargeBufferBytes + kHugePageBytes);
  EXPECT_EQ(mapped_bytes(kLargeBufferBytes + kHugePageBytes - 1),
            kLargeBufferBytes + kHugePageBytes);
  // The 282^3 f64 and 225x59x60x60 f32 tensors of the benchmark.
  EXPECT_EQ(mapped_bytes(179'406'144), 180'355'072u);
  EXPECT_EQ(mapped_bytes(191'160'000), 192'937'984u);
}

TEST(BufferAlloc, EveryRequestedByteOfAMappedBufferIsWritable) {
  // Not a huge-page multiple: the mapping is longer than the request.
  const std::size_t bytes = kLargeBufferBytes + 4097;
  ASSERT_TRUE(is_large_buffer(bytes));
  auto* p = static_cast<unsigned char*>(buffer_alloc(bytes));
  EXPECT_EQ(reinterpret_cast<std::uintptr_t>(p) % kDefaultAlignment, 0u);
  EXPECT_EQ(p[0], 0u);  // a mapping arrives zeroed
  EXPECT_EQ(p[bytes - 1], 0u);
  p[0] = 1;
  p[bytes - 1] = 2;
  EXPECT_EQ(p[bytes - 1], 2u);
  buffer_free(p, bytes);
}

// ------------------------------------------------------------------- checks

TEST(Check, ThrowsWithMessage) {
  try {
    DMTK_CHECK(false, "custom context");
    FAIL() << "expected throw";
  } catch (const DimensionError& e) {
    const std::string msg = e.what();
    EXPECT_NE(msg.find("custom context"), std::string::npos);
    EXPECT_NE(msg.find("false"), std::string::npos);
  }
}

TEST(Check, PassesSilently) { DMTK_CHECK(true, "never seen"); }

}  // namespace
}  // namespace dmtk
