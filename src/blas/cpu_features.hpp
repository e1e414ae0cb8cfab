#pragma once
/// \file cpu_features.hpp
/// \brief Runtime SIMD capability detection and micro-kernel selection.
///
/// The level every kernel (packed GEMM, rank-panel MTTKRP tiles, syrk)
/// dispatches to is chosen ONCE per process (first use):
///   1. the DMTK_SIMD environment variable ("scalar", "avx2", "avx2-4x8",
///      "avx2-8x8", "avx512", "avx512-8x16", "avx512-16x16") if set —
///      forcing a level the CPU cannot execute falls back to the best
///      supported one with a one-time stderr warning;
///   2. otherwise hardware_simd_level(), CPUID's best level: the widest
///      vector unit the CPU has.
/// After start-up, set_simd_level() moves it: the per-level kernel tests
/// compare kernels within one process that way. On a CPU where the wide
/// level costs more in clock than it gains, DMTK_SIMD is the opt-out.
///
/// The selection is exposed as a level enum rather than a bare function
/// pointer so the packing code can agree with the kernel on the register
/// tile shape (MR x NR) it packs for.

#include <optional>
#include <string>
#include <string_view>
#include <vector>

namespace dmtk::blas {

/// Which micro-kernel family (and register-tile shape) GEMM dispatches to.
/// Ordered weakest-to-strongest so level comparisons mean capability.
enum class SimdLevel {
  Scalar,       ///< portable C++ 4x8 kernel, compiles everywhere
  Avx2x4x8,     ///< AVX2/FMA, 4-row x 8-column register tile
  Avx2x8x8,     ///< AVX2/FMA, 8-row x 8-column tile (two 8x4 passes)
  Avx512x8x16,  ///< AVX-512, 8-row x 16-column tile (one zmm A strip)
  Avx512x16x16, ///< AVX-512, 16-row x 16-column tile (two 16x8 passes)
};

[[nodiscard]] std::string_view to_string(SimdLevel level);

/// Parse a DMTK_SIMD value. "avx2" means the default AVX2 tile (8x8);
/// "avx512" the default AVX-512 tile (16x16). Every to_string() name
/// parses back to its level (round-trip).
[[nodiscard]] std::optional<SimdLevel> parse_simd_level(std::string_view name);

/// Best level this CPU can execute (CPUID, ignoring the env override):
/// the start-up level when DMTK_SIMD is unset.
[[nodiscard]] SimdLevel hardware_simd_level();

/// Pure fallback ladder: the level actually dispatched when `requested` is
/// asked for on a machine whose best level is `hardware`. An AVX-512
/// request on an AVX2-only machine degrades to Avx2x8x8; any AVX request
/// on a pre-AVX2 machine degrades to Scalar. Exposed (rather than kept
/// internal) so the fallback path is unit-testable on any box.
[[nodiscard]] SimdLevel clamp_simd_level(SimdLevel requested,
                                         SimdLevel hardware);

/// Every level this CPU can execute, weakest first (always includes
/// Scalar, ends at hardware_simd_level()).
[[nodiscard]] std::vector<SimdLevel> supported_simd_levels();

/// The DMTK_SIMD override, already clamped to hardware — nullopt when the
/// variable is unset or unparseable (`dmtk info --cpu` reports the active
/// level's source from it).
[[nodiscard]] std::optional<SimdLevel> simd_env_override();

/// The level GEMM currently dispatches to (env override applied on first
/// call, then cached).
[[nodiscard]] SimdLevel simd_level();

/// Override the dispatch level for the rest of the process (clamped via
/// clamp_simd_level against hardware). Returns the level actually
/// installed.
SimdLevel set_simd_level(SimdLevel level);

/// The CPU's model name from /proc/cpuinfo, or "unknown" where it is
/// absent (non-Linux, restricted /proc). Informational (dmtk info --cpu).
[[nodiscard]] std::string cpu_brand();

}  // namespace dmtk::blas
