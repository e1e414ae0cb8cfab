/// \file layers.cpp
/// \brief The traced run's layer measurements and the roofs they are put
/// against. Every call is a public entry point of its layer, timed from
/// here; nothing inside the library is instrumented.

#include <immintrin.h>
#include <unistd.h>

#include <fstream>
#include <memory>

#include "blas/gemm.hpp"
#include "common.hpp"
#include "core/krp.hpp"
#include "core/mttkrp.hpp"
#include "exec/mttkrp_plan.hpp"
#include "exec/sweep_plan.hpp"
#include "io/tensor_io.hpp"
#include "util/crc32.hpp"
#include "util/parallel.hpp"

namespace perfbench {

using namespace dmtk;

namespace {

/// Median seconds of `reps` calls of fn.
template <typename F>
double timed(int reps, F&& fn) {
  std::vector<double> t;
  for (int r = 0; r < reps; ++r) {
    const auto t0 = Clock::now();
    fn();
    t.push_back(seconds_since(t0));
  }
  return median_of(t);
}

std::size_t llc_bytes() {
  const long l3 = sysconf(_SC_LEVEL3_CACHE_SIZE);
  if (l3 > 0) return static_cast<std::size_t>(l3);
  std::ifstream in("/sys/devices/system/cpu/cpu0/cache/index3/size");
  std::size_t kib = 0;
  if (in >> kib) return kib * 1024;
  return std::size_t{32} << 20;
}

/// Sum of a[b, e) with independent accumulators, so the add latency does
/// not bound the loop: the STREAM-style read kernel.
double sum_scalar(const double* a, index_t b, index_t e) {
  double s[8] = {};
  index_t i = b;
  for (; i + 8 <= e; i += 8) {
    for (int j = 0; j < 8; ++j) s[j] += a[i + j];
  }
  for (; i < e; ++i) s[0] += a[i];
  return ((s[0] + s[1]) + (s[2] + s[3])) + ((s[4] + s[5]) + (s[6] + s[7]));
}

__attribute__((target("avx2"))) double sum_avx2(const double* a, index_t b,
                                                 index_t e) {
  __m256d s0 = _mm256_setzero_pd(), s1 = s0, s2 = s0, s3 = s0;
  index_t i = b;
  for (; i + 16 <= e; i += 16) {
    s0 = _mm256_add_pd(s0, _mm256_loadu_pd(a + i));
    s1 = _mm256_add_pd(s1, _mm256_loadu_pd(a + i + 4));
    s2 = _mm256_add_pd(s2, _mm256_loadu_pd(a + i + 8));
    s3 = _mm256_add_pd(s3, _mm256_loadu_pd(a + i + 12));
  }
  double r[4];
  _mm256_storeu_pd(r, _mm256_add_pd(_mm256_add_pd(s0, s1),
                                    _mm256_add_pd(s2, s3)));
  return (r[0] + r[1]) + (r[2] + r[3]) + sum_scalar(a, i, e);
}

/// Best of five read passes over a[0, n) split across `threads`.
double stream_read_gbps(const double* a, index_t n, int threads) {
  const bool avx2 = __builtin_cpu_supports("avx2");
  std::vector<double> partial(static_cast<std::size_t>(threads), 0.0);
  double best = 0.0;
  for (int pass = 0; pass < 5; ++pass) {
    const auto t0 = Clock::now();
    parallel_region(threads, [&](int t, int nt) {
      const Range r = block_range(n, nt, t);
      partial[static_cast<std::size_t>(t)] =
          avx2 ? sum_avx2(a, r.begin, r.end) : sum_scalar(a, r.begin, r.end);
    });
    best = std::max(best, static_cast<double>(n) * 8.0 / seconds_since(t0));
  }
  // Every element is 1.0: a wrong sum means the kernel skipped memory.
  double sum = 0.0;
  for (const double p : partial) sum += p;
  DMTK_CHECK(sum == static_cast<double>(n), "stream read: wrong sum");
  return best / 1e9;
}

template <typename T>
double gemm_peak_1t() {
  constexpr index_t n = 1024;
  std::vector<T> A(n * n, T{1} / 3), B(n * n, T{1} / 7), C(n * n);
  double best = 0.0;
  for (int r = 0; r < 4; ++r) {
    const auto t0 = Clock::now();
    blas::gemm<T>(blas::Layout::ColMajor, blas::Trans::NoTrans,
                  blas::Trans::NoTrans, n, n, n, T{1}, A.data(), n, B.data(),
                  n, T{0}, C.data(), n, 1);
    if (r > 0) best = std::max(best, 2.0 * n * n * n / seconds_since(t0));
  }
  return best / 1e9;
}

std::string mode_name(const char* base, index_t n) {
  return std::string(base) + ".m" + std::to_string(n);
}

}  // namespace

Roofs measure_roofs(Result& res, Trace& tr, int threads) {
  Trace::Scope span(tr, "machine.roofs");
  Roofs r;
  {
    const std::size_t bytes = 4 * llc_bytes();
    const auto n = static_cast<index_t>(bytes / sizeof(double));
    const std::unique_ptr<double[]> a(new double[static_cast<std::size_t>(n)]);
    parallel_region(threads, [&](int t, int nt) {  // first touch per thread
      const Range rg = block_range(n, nt, t);
      for (index_t i = rg.begin; i < rg.end; ++i) a[i] = 1.0;
    });
    Trace::Scope s(tr, "machine.stream");
    r.stream_gbps_1t = stream_read_gbps(a.get(), n, 1);
    r.stream_gbps = stream_read_gbps(a.get(), n, threads);
    std::printf("roofs: STREAM read on %.0f MB (4x the %.0f MB LLC)\n",
                static_cast<double>(bytes) / 1e6,
                static_cast<double>(bytes) / 4e6);
  }
  {
    Trace::Scope s(tr, "machine.gemm_peak");
    r.peak_f64_1t = gemm_peak_1t<double>();
    r.peak_f32_1t = gemm_peak_1t<float>();
  }
  res.add("machine.stream_gbps_1t", r.stream_gbps_1t, "GB/s");
  res.add("machine.stream_gbps", r.stream_gbps, "GB/s");
  res.add("machine.gemm_peak_gflops_1t.f64", r.peak_f64_1t, "GFLOP/s");
  res.add("machine.gemm_peak_gflops_1t.f32", r.peak_f32_1t, "GFLOP/s");
  return r;
}

template <typename T>
void measure_layers(const Roofs& roofs, const EndToEnd& e2e,
                    const TensorT<T>& X, const std::vector<MatrixT<T>>& factors,
                    const ExecContext& ctx, const fs::path& file, Result& res,
                    Trace& tr) {
  constexpr bool kF32 = std::is_same_v<T, float>;
  const int nt = ctx.threads();
  const index_t N = X.order();
  const index_t C = factors.front().cols();
  const auto I = static_cast<double>(X.numel());
  const double peak1 = roofs.peak_1t(kF32);
  const double peak = peak1 * nt;  // the team roof: cores x 1-thread peak

  // exec_context: the arena after the end-to-end windows ran.
  res.add("exec.arena_high_water_mb",
          static_cast<double>(ctx.arena().high_water()) / 1e6, "MB");
  res.add("exec.arena_grow_count",
          static_cast<double>(ctx.arena().grow_count()), "count");

  // blas: X(0) * KRP at the mode-0 MTTKRP shape (m = I_0, n = C, k = I/I_0).
  const FactorListT<T> fl = mttkrp_krp_factors(factors, 0);
  MatrixT<T> Kt;
  krp_transposed_into(fl, Kt, KrpVariant::Reuse, nt);
  const index_t m = X.dim(0);
  const index_t k = X.numel() / m;
  MatrixT<T> M0(m, C);
  const auto gemm_at = [&](int threads) {
    Trace::Scope s(tr, "blas.gemm");
    blas::gemm<T>(blas::Layout::ColMajor, blas::Trans::NoTrans,
                  blas::Trans::Trans, m, C, k, T{1}, X.data(), m, Kt.data(), C,
                  T{0}, M0.data(), m, threads);
  };
  gemm_at(1);
  const double gflop = 2.0 * static_cast<double>(m) * C * k / 1e9;
  const double g1 = gflop / timed(3, [&] { gemm_at(1); });
  const double g = gflop / timed(3, [&] { gemm_at(nt); });
  res.add("blas.gemm_gflops_1t", g1, "GFLOP/s");
  res.add("blas.gemm_roof_frac_1t", g1 / peak1, "frac");
  res.add("blas.gemm_gflops", g, "GFLOP/s");
  res.add("blas.gemm_roof_frac", g / peak, "frac");

  // core: the full transposed KRP of mode 0 (C x I/I_0, written once).
  const double tk = timed(5, [&] {
    Trace::Scope s(tr, "core.krp");
    krp_transposed_into(fl, Kt, KrpVariant::Reuse, nt);
  });
  const double krp_gbps = static_cast<double>(C) * k * sizeof(T) / tk / 1e9;
  res.add("core.krp_s", tk, "s");
  res.add("core.krp_gbps", krp_gbps, "GB/s");
  res.add("core.krp_bw_frac", krp_gbps / roofs.stream_gbps, "frac");

  // exec: one planned MTTKRP per mode.
  std::vector<MatrixT<T>> Ms;
  for (index_t n = 0; n < N; ++n) Ms.emplace_back(X.dim(n), C);
  std::vector<double> tm;
  for (index_t n = 0; n < N; ++n) {
    MttkrpPlanT<T> p(ctx, X.dims(), C, n);
    MatrixT<T>& Mn = Ms[static_cast<std::size_t>(n)];
    p.execute(X, factors, Mn);
    tm.push_back(timed(3, [&] {
      Trace::Scope s(tr, "exec.mttkrp_plan");
      p.execute(X, factors, Mn);
    }));
  }
  double mttkrp_s = 0.0;
  for (const double t : tm) mttkrp_s += t;
  for (index_t n = 0; n < 3; ++n) {
    res.add(mode_name("exec.mttkrp_s", n), tm[static_cast<std::size_t>(n)], "s");
  }
  res.add("exec.mttkrp_s", mttkrp_s, "s");
  const double mttkrp_gflops = N * 2.0 * I * C / mttkrp_s / 1e9;
  res.add("exec.mttkrp_gflops", mttkrp_gflops, "GFLOP/s");
  res.add("exec.mttkrp_roof_frac", mttkrp_gflops / peak, "frac");
  const double tensor_gbps = N * I * sizeof(T) / mttkrp_s / 1e9;
  res.add("exec.mttkrp_tensor_gbps", tensor_gbps, "GB/s");
  res.add("exec.mttkrp_bw_frac", tensor_gbps / roofs.stream_gbps, "frac");

  // exec: the sweep plan driven mode by mode (mode 0 carries the root
  // contraction of a dimension tree). One warm sweep, three timed.
  {
    CpAlsSweepPlanT<T> sp(ctx, X.dims(), C);
    std::vector<std::vector<double>> per_mode(static_cast<std::size_t>(N));
    for (int sweep = 0; sweep < 4; ++sweep) {
      Trace::Scope s(tr, "exec.sweep_plan");
      sp.begin_sweep(X);
      for (index_t n = 0; n < N; ++n) {
        const auto t0 = Clock::now();
        {
          Trace::Scope sm(tr, "exec.sweep_mode");
          sp.mode_mttkrp(n, X, factors, Ms[static_cast<std::size_t>(n)]);
        }
        if (sweep > 0) {
          per_mode[static_cast<std::size_t>(n)].push_back(seconds_since(t0));
        }
      }
    }
    double sweep_mttkrp_s = 0.0;
    for (index_t n = 0; n < N; ++n) {
      const double t = median_of(per_mode[static_cast<std::size_t>(n)]);
      sweep_mttkrp_s += t;
      if (n < 3) res.add(mode_name("exec.sweep_mode_s", n), t, "s");
    }
    res.add("exec.sweep_mttkrp_s", sweep_mttkrp_s, "s");
    res.add("exec.sweep_workspace_mb",
            static_cast<double>(sp.workspace_bytes()) / 1e6, "MB");

    // core: mixed-precision MTTKRP (fp32 storage, fp64 accumulation) on
    // the fp32 form of the tensor, against the planned fp32 MTTKRP.
    std::unique_ptr<TensorF> cast;
    const TensorF* Xf = nullptr;
    if constexpr (kF32) {
      Xf = &X;
    } else {
      cast = std::make_unique<TensorF>(tensor_cast<float>(X));
      Xf = cast.get();
    }
    std::vector<MatrixF> ff;
    for (const MatrixT<T>& U : factors) ff.push_back(matrix_cast<float>(U));
    double acc_s = 0.0, f32_s = 0.0;
    for (index_t n = 0; n < N; ++n) {
      MatrixF Mf(X.dim(n), C);
      const double ta = timed(1, [&] {
        Trace::Scope s(tr, "core.mttkrp_acc64");
        mttkrp_acc64(*Xf, ff, n, Mf, nt);
      });
      acc_s += ta;
      if (n < 3) res.add(mode_name("core.acc64_mttkrp_s", n), ta, "s");
      if constexpr (kF32) {
        f32_s += tm[static_cast<std::size_t>(n)];
      } else {
        MttkrpPlanF p(ctx, X.dims(), C, n);
        p.execute(*Xf, ff, Mf);
        f32_s += timed(3, [&] {
          Trace::Scope s(tr, "exec.mttkrp_plan");
          p.execute(*Xf, ff, Mf);
        });
      }
    }
    res.add("core.acc64_vs_f32", acc_s / f32_s, "x");

    // core: what a cp_als sweep spends besides its MTTKRPs (Gram, solve,
    // normalize, fit), from the untraced sweep_s.
    res.add("core.als_other_s", e2e.sweep_s - sweep_mttkrp_s, "s");
    res.add("core.als_mttkrp_frac", sweep_mttkrp_s / e2e.sweep_s, "frac");
    res.add("core.speedup", e2e.sweep_s_1t / e2e.sweep_s, "x");
  }

  // io + util: the tensor file read (page cache warm) and CRC-32 over the
  // same bytes.
  const auto bytes = static_cast<double>(fs::file_size(file));
  const double tr_s = timed(3, [&] {
    Trace::Scope s(tr, "io.read_tensor");
    const TensorT<T> Y = io::read_tensor_as<T>(file);
  });
  res.add("io.read_s", tr_s, "s");
  res.add("io.read_gbps", bytes / tr_s / 1e9, "GB/s");
  res.add("io.read_bw_frac", bytes / tr_s / 1e9 / roofs.stream_gbps_1t, "frac");
  std::vector<char> raw(static_cast<std::size_t>(bytes));
  std::ifstream(file, std::ios::binary).read(raw.data(), static_cast<std::streamsize>(raw.size()));
  std::uint32_t crc = 0;
  const double tc = timed(3, [&] {
    Trace::Scope s(tr, "util.crc32");
    crc ^= util::crc32(raw.data(), raw.size());
  });
  res.add("util.crc32_gbps", bytes / tc / 1e9, "GB/s");
  res.add("util.crc32_bw_frac", bytes / tc / 1e9 / roofs.stream_gbps_1t, "frac");
  std::printf("layers: crc %08x over %.0f bytes\n", crc, bytes);
}

template void measure_layers<double>(const Roofs&, const EndToEnd&,
                                     const Tensor&,
                                     const std::vector<Matrix>&,
                                     const ExecContext&, const fs::path&,
                                     Result&, Trace&);
template void measure_layers<float>(const Roofs&, const EndToEnd&,
                                    const TensorF&,
                                    const std::vector<MatrixF>&,
                                    const ExecContext&, const fs::path&,
                                    Result&, Trace&);

}  // namespace perfbench
