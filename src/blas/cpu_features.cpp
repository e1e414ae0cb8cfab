#include "blas/cpu_features.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>

namespace dmtk::blas {

namespace {

/// AVX2 kernels require both AVX2 (integer/FP 256-bit) and FMA. On
/// non-x86 builds the builtins are unavailable and the answer is Scalar.
bool cpu_has_avx2_fma() {
#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx2") && __builtin_cpu_supports("fma");
#else
  return false;
#endif
}

/// The AVX-512 kernels are compiled with target("avx512f,avx512dq,fma"),
/// so dispatching them requires exactly that feature set.
bool cpu_has_avx512() {
#if (defined(__x86_64__) || defined(__i386__)) && defined(__GNUC__)
  __builtin_cpu_init();
  return __builtin_cpu_supports("avx512f") &&
         __builtin_cpu_supports("avx512dq") && cpu_has_avx2_fma();
#else
  return false;
#endif
}

bool needs_avx512(SimdLevel level) {
  return level == SimdLevel::Avx512x8x16 || level == SimdLevel::Avx512x16x16;
}

SimdLevel initial_level() {
  if (const char* env = std::getenv("DMTK_SIMD")) {
    if (const auto parsed = parse_simd_level(env)) {
      const SimdLevel hw = hardware_simd_level();
      const SimdLevel clamped = clamp_simd_level(*parsed, hw);
      if (clamped != *parsed) {
        std::fprintf(stderr,
                     "dmtk: DMTK_SIMD=%.*s not supported by this CPU "
                     "(hardware best: %.*s); falling back to %.*s\n",
                     static_cast<int>(to_string(*parsed).size()),
                     to_string(*parsed).data(),
                     static_cast<int>(to_string(hw).size()),
                     to_string(hw).data(),
                     static_cast<int>(to_string(clamped).size()),
                     to_string(clamped).data());
      }
      return clamped;
    }
    std::fprintf(stderr,
                 "dmtk: unrecognized DMTK_SIMD value \"%s\" ignored\n", env);
  }
  return hardware_simd_level();
}

std::atomic<SimdLevel>& level_store() {
  static std::atomic<SimdLevel> level{initial_level()};
  return level;
}

}  // namespace

std::string_view to_string(SimdLevel level) {
  switch (level) {
    case SimdLevel::Scalar: return "scalar";
    case SimdLevel::Avx2x4x8: return "avx2-4x8";
    case SimdLevel::Avx2x8x8: return "avx2-8x8";
    case SimdLevel::Avx512x8x16: return "avx512-8x16";
    case SimdLevel::Avx512x16x16: return "avx512-16x16";
  }
  return "?";
}

std::optional<SimdLevel> parse_simd_level(std::string_view name) {
  if (name == "scalar") return SimdLevel::Scalar;
  if (name == "avx2") return SimdLevel::Avx2x8x8;
  if (name == "avx2-4x8") return SimdLevel::Avx2x4x8;
  if (name == "avx2-8x8") return SimdLevel::Avx2x8x8;
  if (name == "avx512") return SimdLevel::Avx512x16x16;
  if (name == "avx512-8x16") return SimdLevel::Avx512x8x16;
  if (name == "avx512-16x16") return SimdLevel::Avx512x16x16;
  return std::nullopt;
}

SimdLevel hardware_simd_level() {
  if (cpu_has_avx512()) return SimdLevel::Avx512x16x16;
  return cpu_has_avx2_fma() ? SimdLevel::Avx2x8x8 : SimdLevel::Scalar;
}

SimdLevel clamp_simd_level(SimdLevel requested, SimdLevel hardware) {
  if (needs_avx512(requested) && !needs_avx512(hardware)) {
    requested = SimdLevel::Avx2x8x8;  // degrade one family, keep the width
  }
  if (requested != SimdLevel::Scalar && hardware == SimdLevel::Scalar) {
    return SimdLevel::Scalar;
  }
  return requested;
}

std::vector<SimdLevel> supported_simd_levels() {
  std::vector<SimdLevel> levels{SimdLevel::Scalar};
  const SimdLevel hw = hardware_simd_level();
  if (hw == SimdLevel::Scalar) return levels;
  levels.push_back(SimdLevel::Avx2x4x8);
  levels.push_back(SimdLevel::Avx2x8x8);
  if (needs_avx512(hw)) {
    levels.push_back(SimdLevel::Avx512x8x16);
    levels.push_back(SimdLevel::Avx512x16x16);
  }
  return levels;
}

std::optional<SimdLevel> simd_env_override() {
  if (const char* env = std::getenv("DMTK_SIMD")) {
    if (const auto parsed = parse_simd_level(env)) {
      return clamp_simd_level(*parsed, hardware_simd_level());
    }
  }
  return std::nullopt;
}

SimdLevel simd_level() { return level_store().load(std::memory_order_relaxed); }

SimdLevel set_simd_level(SimdLevel level) {
  const SimdLevel installed = clamp_simd_level(level, hardware_simd_level());
  level_store().store(installed, std::memory_order_relaxed);
  return installed;
}

std::string cpu_brand() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    const auto colon = line.find(':');
    if (colon == std::string::npos) continue;
    if (line.compare(0, 10, "model name") == 0) {
      const auto first = line.find_first_not_of(" \t", colon + 1);
      return first == std::string::npos ? "unknown" : line.substr(first);
    }
  }
  return "unknown";
}

}  // namespace dmtk::blas
