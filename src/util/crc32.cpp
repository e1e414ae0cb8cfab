#include "util/crc32.hpp"

#include <array>
#include <cstring>

#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
#define DMTK_CRC32_X86 1
#include <immintrin.h>
#else
#define DMTK_CRC32_X86 0
#endif

namespace dmtk::util {
namespace {

constexpr std::uint32_t kPoly = 0xEDB88320u;

/// kSlices[k][b] is the CRC register contribution of byte b followed by k
/// zero bytes. Row 0 is the classic bytewise table; rows 1..15 let one
/// step fold 16 bytes with 16 independent lookups instead of a 16-long
/// dependency chain (Kounavis & Berry, "A Systematic Approach to Building
/// High Performance Software-based CRC Generators", 2005).
using SliceTables = std::array<std::array<std::uint32_t, 256>, 16>;

constexpr SliceTables make_slice_tables() {
  SliceTables t{};
  for (std::uint32_t i = 0; i < 256; ++i) {
    std::uint32_t c = i;
    for (int k = 0; k < 8; ++k) c = (c & 1u) ? (kPoly ^ (c >> 1)) : (c >> 1);
    t[0][i] = c;
  }
  for (std::size_t k = 1; k < 16; ++k) {
    for (std::size_t i = 0; i < 256; ++i) {
      t[k][i] = (t[k - 1][i] >> 8) ^ t[0][t[k - 1][i] & 0xFFu];
    }
  }
  return t;
}

constexpr SliceTables kSlices = make_slice_tables();

#if DMTK_CRC32_X86

#define DMTK_CLMUL __attribute__((target("pclmul,sse4.1")))
#define DMTK_CLMUL_INLINE \
  __attribute__((target("pclmul,sse4.1"), always_inline)) inline

DMTK_CLMUL_INLINE __m128i load128(const unsigned char* p) {
  __m128i v;
  std::memcpy(&v, p, sizeof v);
  return v;
}

/// Carry-less multiply both 64-bit halves of lane `x` by the fold
/// constants in `k` (low by low, high by high), which moves the lane
/// forward by the distance `k` encodes, then xor in the lane found there.
DMTK_CLMUL_INLINE __m128i fold(__m128i x, __m128i k, __m128i next) {
  const __m128i lo = _mm_clmulepi64_si128(x, k, 0x00);
  const __m128i hi = _mm_clmulepi64_si128(x, k, 0x11);
  return _mm_xor_si128(_mm_xor_si128(lo, hi), next);
}

/// Fold-by-4 over `n` bytes (n >= 64, n a multiple of 16), after Gopal et
/// al., "Fast CRC Computation for Generic Polynomials Using PCLMULQDQ
/// Instruction" (Intel, 2009). The constants are x^k mod P for the
/// bit-reflected 0xEDB88320, as (k = 4*128 +/- 32), (128 +/- 32), 64, and
/// the Barrett pair (P', mu).
DMTK_CLMUL std::uint32_t clmul_fold(std::uint32_t state,
                                    const unsigned char* p, std::size_t n) {
  const __m128i k_by4 = _mm_set_epi64x(0x1C6E41596, 0x154442BD4);
  const __m128i k_by1 = _mm_set_epi64x(0x0CCAA009E, 0x1751997D0);
  const __m128i k_64 = _mm_set_epi64x(0, 0x163CD6124);
  const __m128i barrett = _mm_set_epi64x(0x1F7011641, 0x1DB710641);
  const __m128i low32 = _mm_setr_epi32(-1, 0, -1, 0);

  // Four independent lanes hide the PCLMULQDQ latency.
  __m128i x0 = _mm_xor_si128(load128(p),
                             _mm_cvtsi32_si128(static_cast<int>(state)));
  __m128i x1 = load128(p + 16);
  __m128i x2 = load128(p + 32);
  __m128i x3 = load128(p + 48);
  for (p += 64, n -= 64; n >= 64; p += 64, n -= 64) {
    x0 = fold(x0, k_by4, load128(p));
    x1 = fold(x1, k_by4, load128(p + 16));
    x2 = fold(x2, k_by4, load128(p + 32));
    x3 = fold(x3, k_by4, load128(p + 48));
  }
  x0 = fold(x0, k_by1, x1);
  x0 = fold(x0, k_by1, x2);
  x0 = fold(x0, k_by1, x3);
  for (; n >= 16; p += 16, n -= 16) x0 = fold(x0, k_by1, load128(p));

  // 128 -> 64 bits, then 64 -> 32 bits, then Barrett-reduce mod P.
  __m128i t = _mm_clmulepi64_si128(x0, k_by1, 0x10);
  x0 = _mm_xor_si128(_mm_srli_si128(x0, 8), t);
  t = _mm_srli_si128(x0, 4);
  x0 = _mm_clmulepi64_si128(_mm_and_si128(x0, low32), k_64, 0x00);
  x0 = _mm_xor_si128(x0, t);
  t = _mm_clmulepi64_si128(_mm_and_si128(x0, low32), barrett, 0x10);
  t = _mm_clmulepi64_si128(_mm_and_si128(t, low32), barrett, 0x00);
  x0 = _mm_xor_si128(x0, t);
  return static_cast<std::uint32_t>(_mm_extract_epi32(x0, 1));
}

#endif  // DMTK_CRC32_X86

}  // namespace

namespace detail {

std::uint32_t crc32_slice16(std::uint32_t state, const void* data,
                            std::size_t n) noexcept {
  const auto* p = static_cast<const unsigned char*>(data);
  const SliceTables& t = kSlices;
  for (; n >= 16; p += 16, n -= 16) {
    // Byte j of the block is followed by 15 - j more bytes; the register
    // folds into the first four (the CRC is least-significant byte first).
    std::uint32_t s = 0;
    for (std::size_t j = 0; j < 4; ++j) {
      s ^= t[15 - j][(p[j] ^ (state >> (8 * j))) & 0xFFu];
    }
    for (std::size_t j = 4; j < 16; ++j) s ^= t[15 - j][p[j]];
    state = s;
  }
  for (; n > 0; ++p, --n) state = t[0][(state ^ *p) & 0xFFu] ^ (state >> 8);
  return state;
}

bool crc32_clmul_supported() noexcept {
#if DMTK_CRC32_X86
  __builtin_cpu_init();
  return __builtin_cpu_supports("pclmul") && __builtin_cpu_supports("sse4.1");
#else
  return false;
#endif
}

std::uint32_t crc32_clmul(std::uint32_t state, const void* data,
                          std::size_t n) noexcept {
#if DMTK_CRC32_X86
  const auto* p = static_cast<const unsigned char*>(data);
  if (n >= 64) {
    const std::size_t bulk = n & ~std::size_t{15};
    state = clmul_fold(state, p, bulk);
    p += bulk;
    n -= bulk;
  }
  return crc32_slice16(state, p, n);
#else
  return crc32_slice16(state, data, n);
#endif
}

}  // namespace detail

std::uint32_t crc32_update(std::uint32_t state, const void* data,
                           std::size_t n) noexcept {
  static const auto kernel = detail::crc32_clmul_supported()
                                 ? detail::crc32_clmul
                                 : detail::crc32_slice16;
  return kernel(state, data, n);
}

}  // namespace dmtk::util
