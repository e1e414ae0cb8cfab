#pragma once
/// \file crc32.hpp
/// \brief CRC-32 (IEEE 802.3, reflected polynomial 0xEDB88320) — the
/// checksum behind the binary-file footers. Incremental: writers fold
/// bytes in as they stream, readers re-fold and compare.
///
/// Two kernels compute the same function. On x86 CPUs with PCLMULQDQ and
/// SSE4.1, a carry-less-multiply fold over four 128-bit lanes with a
/// Barrett reduction; elsewhere (and for the last < 16 bytes)
/// slicing-by-16 tables. The kernel is chosen once per process.

#include <cstddef>
#include <cstdint>

namespace dmtk::util {

/// Incremental CRC-32. Usage: start from crc32_init(), fold byte ranges
/// with crc32_update(), finish with crc32_final(). The one-shot form
/// crc32(p, n) does all three.
inline constexpr std::uint32_t crc32_init() { return 0xFFFFFFFFu; }

std::uint32_t crc32_update(std::uint32_t state, const void* data,
                           std::size_t n) noexcept;

inline constexpr std::uint32_t crc32_final(std::uint32_t state) {
  return state ^ 0xFFFFFFFFu;
}

inline std::uint32_t crc32(const void* data, std::size_t n) noexcept {
  return crc32_final(crc32_update(crc32_init(), data, n));
}

/// The kernels behind crc32_update, reachable one by one so the tests can
/// hold each to the same answers. Same contract as crc32_update.
namespace detail {

std::uint32_t crc32_slice16(std::uint32_t state, const void* data,
                            std::size_t n) noexcept;

/// True when this CPU can run crc32_clmul's carry-less-multiply fold.
bool crc32_clmul_supported() noexcept;

/// The PCLMULQDQ kernel (slicing-by-16 on inputs under 64 bytes and on
/// the tail). Call only where crc32_clmul_supported(); on non-x86 builds
/// it is slicing-by-16 throughout.
std::uint32_t crc32_clmul(std::uint32_t state, const void* data,
                          std::size_t n) noexcept;

}  // namespace detail

}  // namespace dmtk::util
