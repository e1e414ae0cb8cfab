// GEMM roofline: GFLOP/s of the blocked kernel across micro-kernels
// (scalar vs AVX2 tiles), scalar types (fp64 vs fp32 — the bandwidth
// economy of the templated core), thread counts, and shapes — square GEMMs
// plus the MTTKRP-shaped ones the paper's figures are bounded by
// (tall-skinny external-mode products and the batched small-block sweep of
// the internal mode) and the exact shapes a 282^3 rank-R MTTKRP issues:
// C = op(A) * B^T with B^T the p-major transposed KRP, A the tensor in
// column-major (mode 0, 2-step right) or row-major (last mode) layout —
// the rank-panel path's shapes. Writes the BENCH_*.json perf-trajectory record
// consumed by tools/run_benches.sh, and doubles as the CI equivalence
// smoke check (--check: every kernel, in both precisions, must agree with
// its scalar reference).
//
// usage: bench_gemm_roofline [--sizes csv] [--threads csv] [--trials n]
//                            [--cases csv] [--json path] [--check] [--tiny]
//   --cases keeps the shapes whose tag starts with one of the listed
//   prefixes (square, skinny, batched, mttkrp).

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <string>
#include <vector>

#include "blas/blas.hpp"
#include "blas/cpu_features.hpp"
#include "util/env.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace {

using dmtk::index_t;
using dmtk::Rng;

struct Shape {
  const char* tag;   // "square" | "skinny" | "batched" | "mttkrp-*"
  index_t m, n, k;
  index_t batch;     // 1 = plain gemm, > 1 = gemm_batched sweep
  dmtk::blas::Trans ta = dmtk::blas::Trans::NoTrans;
  dmtk::blas::Trans tb = dmtk::blas::Trans::NoTrans;
};

struct Result {
  Shape shape;
  dmtk::blas::SimdLevel level;
  const char* precision;  // "f64" | "f32"
  int threads;
  double seconds;
  double gflops;
};

std::vector<int> parse_csv_ints(const char* csv) {
  std::vector<int> out;
  const std::string s(csv);
  std::size_t pos = 0;
  while (pos < s.size()) {
    std::size_t comma = s.find(',', pos);
    if (comma == std::string::npos) comma = s.size();
    out.push_back(std::atoi(s.substr(pos, comma - pos).c_str()));
    pos = comma + 1;
  }
  return out;
}

std::string cpu_model_name() {
  if (std::FILE* f = std::fopen("/proc/cpuinfo", "r")) {
    char line[512];
    while (std::fgets(line, sizeof(line), f)) {
      if (std::strncmp(line, "model name", 10) == 0) {
        std::fclose(f);
        const char* colon = std::strchr(line, ':');
        std::string name = colon ? colon + 2 : line;
        while (!name.empty() && (name.back() == '\n' || name.back() == ' ')) {
          name.pop_back();
        }
        return name;
      }
    }
    std::fclose(f);
  }
  return "unknown";
}

/// One timed case at scalar type T. For batch > 1 the shape describes ONE
/// item; the sweep multiplies batch items into batch separate outputs.
template <typename T>
double run_case(const Shape& s, int threads, int trials,
                const std::vector<T>& A, const std::vector<T>& B,
                std::vector<T>& C) {
  using namespace dmtk::blas;
  const index_t lda = s.ta == Trans::NoTrans ? s.m : s.k;
  const index_t ldb = s.tb == Trans::NoTrans ? s.k : s.n;
  if (s.batch <= 1) {
    return dmtk::time_median(trials, [&] {
      gemm(Layout::ColMajor, s.ta, s.tb, s.m, s.n, s.k, T{1}, A.data(), lda,
           B.data(), ldb, T{0}, C.data(), s.m, threads);
    });
  }
  std::vector<const T*> ap(static_cast<std::size_t>(s.batch));
  std::vector<const T*> bp(static_cast<std::size_t>(s.batch));
  std::vector<T*> cp(static_cast<std::size_t>(s.batch));
  for (index_t i = 0; i < s.batch; ++i) {
    const std::size_t si = static_cast<std::size_t>(i);
    ap[si] = A.data() + (i % 4) * s.m;  // reuse the allocation, shift a bit
    bp[si] = B.data() + (i % 4) * s.k;
    cp[si] = C.data() + si * static_cast<std::size_t>(s.m * s.n);
  }
  return dmtk::time_median(trials, [&] {
    gemm_batched(Layout::ColMajor, s.ta, s.tb, s.m, s.n, s.k, T{1},
                 ap.data(), lda, bp.data(), ldb, T{0}, cp.data(), s.m,
                 s.batch, threads);
  });
}

/// --check, one precision: every dispatchable kernel must reproduce the
/// scalar kernel's result to rounding in T (FMA changes the last ulps,
/// nothing more) on a packed-path shape and on the rank-panel shape in
/// both tensor layouts.
template <typename T>
bool check_equivalence_t(const char* prec, double ulp) {
  using namespace dmtk::blas;
  struct Case {
    const char* path;
    Trans ta, tb;
    index_t n;
  };
  const index_t m = 129, k = 173;
  const Case cases[] = {{"packed", Trans::NoTrans, Trans::NoTrans, 67},
                        {"rank-panel colA", Trans::NoTrans, Trans::Trans, 25},
                        {"rank-panel rowA", Trans::Trans, Trans::Trans, 25}};
  bool ok = true;
  for (const Case& c : cases) {
    const index_t lda = c.ta == Trans::NoTrans ? m : k;
    const index_t ldb = c.tb == Trans::NoTrans ? k : c.n;
    Rng rng(7);
    std::vector<T> A(static_cast<std::size_t>(m * k));
    std::vector<T> B(static_cast<std::size_t>(k * c.n));
    dmtk::fill_uniform(A, rng, -1.0, 1.0);
    dmtk::fill_uniform(B, rng, -1.0, 1.0);
    auto run = [&](std::vector<T>& C) {
      gemm(Layout::ColMajor, c.ta, c.tb, m, c.n, k, T{1}, A.data(), lda,
           B.data(), ldb, T{0}, C.data(), m, 2);
    };
    std::vector<T> Cref(static_cast<std::size_t>(m * c.n), T{0});
    set_simd_level(SimdLevel::Scalar);
    run(Cref);
    for (SimdLevel lvl : supported_simd_levels()) {
      if (lvl == SimdLevel::Scalar) continue;  // the reference itself
      if (set_simd_level(lvl) != lvl) continue;  // not on this hardware
      std::vector<T> C(Cref.size(), T{0});
      run(C);
      double max_diff = 0.0;
      for (std::size_t i = 0; i < C.size(); ++i) {
        max_diff = std::max(max_diff,
                            std::abs(static_cast<double>(C[i]) -
                                     static_cast<double>(Cref[i])));
      }
      const double tol = ulp * static_cast<double>(k);
      std::printf(
          "check %-8s %s vs scalar [%s]: max|diff| = %.3e (tol %.3e) %s\n",
          std::string(to_string(lvl)).c_str(), prec, c.path, max_diff, tol,
          max_diff <= tol ? "OK" : "FAIL");
      if (max_diff > tol) ok = false;
    }
  }
  return ok;
}

/// --check, both precisions (restores the entry dispatch level).
bool check_equivalence() {
  using namespace dmtk::blas;
  const SimdLevel entry_level = simd_level();
  const bool ok = check_equivalence_t<double>("f64", 1e-12) &
                  check_equivalence_t<float>("f32", 1e-4);
  set_simd_level(entry_level);
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  using namespace dmtk::blas;
  std::vector<int> sizes{256, 512, 1024};
  std::vector<int> threads{1, 2, 4};
  int trials = 3;
  const char* json_path = nullptr;
  bool do_check = false;
  bool tiny = false;
  std::vector<std::string> cases;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto next = [&]() -> const char* { return (i + 1 < argc) ? argv[++i] : ""; };
    if (arg == "--sizes") {
      sizes = parse_csv_ints(next());
    } else if (arg == "--threads") {
      threads = parse_csv_ints(next());
    } else if (arg == "--trials") {
      trials = std::max(1, std::atoi(next()));
    } else if (arg == "--cases") {
      const std::string csv = next();
      for (std::size_t pos = 0; pos <= csv.size();) {
        std::size_t comma = csv.find(',', pos);
        if (comma == std::string::npos) comma = csv.size();
        cases.push_back(csv.substr(pos, comma - pos));
        pos = comma + 1;
      }
    } else if (arg == "--json") {
      json_path = next();
    } else if (arg == "--check") {
      do_check = true;
    } else if (arg == "--tiny") {
      tiny = true;
      sizes = {64, 128};
      threads = {1, 2};
      trials = 1;
    } else if (arg == "--help" || arg == "-h") {
      std::printf(
          "usage: %s [--sizes csv] [--threads csv] [--trials n] "
          "[--cases csv] [--json path] [--check] [--tiny]\n",
          argv[0]);
      return 0;
    }
  }

  std::printf("=== gemm roofline ===\n");
  std::printf("cpu: %s\n", cpu_model_name().c_str());
  // "dispatch simd" reflects the DMTK_SIMD override (if any); CI greps it
  // to prove the env path actually installs the requested kernel.
  std::printf("hardware_threads=%d  detected simd=%s  dispatch simd=%s  "
              "trials=%d\n",
              dmtk::hardware_threads(),
              std::string(to_string(hardware_simd_level())).c_str(),
              std::string(to_string(simd_level())).c_str(), trials);

  if (do_check && !check_equivalence()) {
    std::fprintf(stderr, "kernel equivalence check FAILED\n");
    return 1;
  }

  // Shapes: square cubes plus MTTKRP-shaped cases — a tall-skinny
  // external-mode product (m = I_n, n = C, k = column block) and the
  // internal-mode batched sweep of small per-block multiplies.
  std::vector<Shape> shapes;
  for (int s : sizes) {
    shapes.push_back({"square", s, s, s, 1});
  }
  if (tiny) {
    shapes.push_back({"skinny", 2048, 16, 128, 1});
    shapes.push_back({"batched", 128, 16, 32, 16});
  } else {
    shapes.push_back({"skinny", 65536, 16, 256, 1});
    shapes.push_back({"skinny", 16384, 32, 1024, 1});
    shapes.push_back({"batched", 512, 16, 64, 128});
  }
  // MTTKRP shapes of a 282^3 tensor (k = 282^2): the rank sweep in both
  // tensor layouts, and the 2-step tall product.
  const index_t ext = tiny ? 40 : 282;
  for (index_t rank : {8, 16, 24, 25, 32, 64}) {
    shapes.push_back({"mttkrp-colA", ext, rank, ext * ext, 1, Trans::NoTrans,
                      Trans::Trans});
    shapes.push_back({"mttkrp-rowA", ext, rank, ext * ext, 1, Trans::Trans,
                      Trans::Trans});
  }
  shapes.push_back({"mttkrp-tall", ext * ext, 25, ext, 1, Trans::NoTrans,
                    Trans::Trans});
  if (!cases.empty()) {
    std::erase_if(shapes, [&](const Shape& s) {
      return std::none_of(cases.begin(), cases.end(), [&](const auto& c) {
        return std::string(s.tag).rfind(c, 0) == 0;
      });
    });
  }

  // Under a DMTK_SIMD override, measure ONLY the level the env installed —
  // the run then genuinely exercises the override path instead of
  // re-selecting every kernel itself. Without one, sweep all of them.
  std::vector<SimdLevel> levels;
  if (std::getenv("DMTK_SIMD") != nullptr) {
    levels.push_back(simd_level());
  } else {
    // The full ladder this hardware can dispatch (scalar included) — new
    // levels join the sweep the day their kernels land.
    levels = supported_simd_levels();
  }

  const SimdLevel entry_level = simd_level();
  std::vector<Result> results;
  std::printf("%-11s %22s %12s %5s %8s %10s %12s\n", "case",
              "m x n x k (xbatch)", "kernel", "prec", "threads", "seconds",
              "GFLOP/s");
  for (const Shape& s : shapes) {
    const std::size_t asz = static_cast<std::size_t>(s.m * s.k) + 4 * 512;
    const std::size_t bsz = static_cast<std::size_t>(s.k * s.n) + 4 * 512;
    const std::size_t csz =
        static_cast<std::size_t>(s.m * s.n) *
        static_cast<std::size_t>(s.batch > 1 ? s.batch : 1);
    Rng rng(1234);
    std::vector<double> Ad(asz), Bd(bsz), Cd(csz, 0.0);
    dmtk::fill_uniform(Ad, rng, -1.0, 1.0);
    dmtk::fill_uniform(Bd, rng, -1.0, 1.0);
    std::vector<float> Af(Ad.begin(), Ad.end());
    std::vector<float> Bf(Bd.begin(), Bd.end());
    std::vector<float> Cf(csz, 0.0f);
    const double flops = 2.0 * static_cast<double>(s.m) *
                         static_cast<double>(s.n) * static_cast<double>(s.k) *
                         static_cast<double>(s.batch > 1 ? s.batch : 1);
    for (SimdLevel lvl : levels) {
      if (set_simd_level(lvl) != lvl) continue;
      // Each vector family has ONE float kernel (f8x8 for AVX2, f16x16 for
      // AVX-512) serving both of its f64 levels, so in a full sweep the
      // family's narrower level would just re-time the same f32 kernel
      // under a misleading label; skip those legs (a DMTK_SIMD override
      // sweeps a single level and keeps its f32 row).
      const bool skip_f32 = (lvl == SimdLevel::Avx2x4x8 ||
                             lvl == SimdLevel::Avx512x8x16) &&
                            levels.size() > 1;
      for (int t : threads) {
        for (int prec = 0; prec < (skip_f32 ? 1 : 2); ++prec) {
          const bool f32 = prec == 1;
          const double sec = f32 ? run_case<float>(s, t, trials, Af, Bf, Cf)
                                 : run_case<double>(s, t, trials, Ad, Bd, Cd);
          const double gf = flops / sec / 1e9;
          results.push_back({s, lvl, f32 ? "f32" : "f64", t, sec, gf});
          char shape_buf[64];
          std::snprintf(shape_buf, sizeof(shape_buf),
                        "%lldx%lldx%lld%s", static_cast<long long>(s.m),
                        static_cast<long long>(s.n),
                        static_cast<long long>(s.k),
                        s.batch > 1 ? " xB" : "");
          std::printf("%-11s %22s %12s %5s %8d %10.4f %12.2f\n", s.tag,
                      shape_buf, std::string(to_string(lvl)).c_str(),
                      f32 ? "f32" : "f64", t, sec, gf);
        }
      }
    }
  }
  set_simd_level(entry_level);

  if (json_path != nullptr) {
    std::FILE* f = std::fopen(json_path, "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s\n", json_path);
      return 1;
    }
    char date[32] = "unknown";
    const std::time_t now = std::time(nullptr);
    std::strftime(date, sizeof(date), "%Y-%m-%dT%H:%M:%SZ",
                  std::gmtime(&now));
    std::fprintf(f, "{\n  \"bench\": \"gemm_roofline\",\n");
    std::fprintf(f, "  \"date\": \"%s\",\n", date);
    std::fprintf(f, "  \"machine\": {\n    \"cpu\": \"%s\",\n",
                 cpu_model_name().c_str());
    std::fprintf(f, "    \"hardware_threads\": %d,\n",
                 dmtk::hardware_threads());
    std::fprintf(f, "    \"simd_detected\": \"%s\"\n  },\n",
                 std::string(to_string(hardware_simd_level())).c_str());
    std::fprintf(f, "  \"trials\": %d,\n  \"cases\": [\n", trials);
    for (std::size_t i = 0; i < results.size(); ++i) {
      const Result& r = results[i];
      std::fprintf(
          f,
          "    {\"case\": \"%s\", \"m\": %lld, \"n\": %lld, \"k\": %lld, "
          "\"batch\": %lld, \"ta\": %d, \"tb\": %d, \"kernel\": \"%s\", "
          "\"precision\": \"%s\", "
          "\"threads\": %d, \"median_seconds\": %.6f, \"gflops\": %.3f}%s\n",
          r.shape.tag, static_cast<long long>(r.shape.m),
          static_cast<long long>(r.shape.n), static_cast<long long>(r.shape.k),
          static_cast<long long>(r.shape.batch),
          r.shape.ta == Trans::Trans ? 1 : 0,
          r.shape.tb == Trans::Trans ? 1 : 0,
          std::string(to_string(r.level)).c_str(), r.precision, r.threads,
          r.seconds, r.gflops, i + 1 < results.size() ? "," : "");
    }
    std::fprintf(f, "  ]\n}\n");
    std::fclose(f);
    std::printf("wrote %s\n", json_path);
  }
  return 0;
}
