#include "tune/tuner.hpp"

#include <algorithm>
#include <cmath>
#include <ctime>
#include <ostream>
#include <string>
#include <vector>

#include "blas/cpu_features.hpp"
#include "blas/gemm.hpp"
#include "blas/gemm_workspace.hpp"
#include "core/matrix.hpp"
#include "core/tensor.hpp"
#include "exec/exec_context.hpp"
#include "exec/mttkrp_plan.hpp"
#include "exec/sweep_plan.hpp"
// dmtk-lint: allow(layering): serve/json.hpp is the in-tree JSON codec
// (standard headers only, no server code); wisdom profiles are JSON.
#include "serve/json.hpp"
#include "sparse/sparse_tensor.hpp"
#include "util/rng.hpp"
#include "util/timer.hpp"

namespace dmtk::tune {
namespace {

using blas::GemmBlocking;
using blas::SimdLevel;

void say(std::ostream* log, const std::string& line) {
  if (log != nullptr) *log << "tune: " << line << "\n";
}

/// RAII guards: every probe restores the process-global knob it moved, so
/// run_tune leaves the dispatch level and blocking exactly as found.
struct LevelGuard {
  SimdLevel entry = blas::simd_level();
  ~LevelGuard() { blas::set_simd_level(entry); }
};
struct BlockingGuard {
  GemmBlocking entry = blas::gemm_blocking();
  ~BlockingGuard() { blas::set_gemm_blocking(entry); }
};

/// Square col-major probe GEMM C = A*B at the CURRENT level+blocking;
/// returns GFLOP/s (median of `trials`, after one warm-up run).
template <typename T>
double probe_gemm_gflops(index_t s, int threads, int trials, Rng& rng) {
  MatrixT<T> A = MatrixT<T>::random_uniform(s, s, rng);
  MatrixT<T> B = MatrixT<T>::random_uniform(s, s, rng);
  MatrixT<T> C(s, s);
  auto run = [&] {
    blas::gemm(blas::Layout::ColMajor, blas::Trans::NoTrans,
               blas::Trans::NoTrans, s, s, s, T{1}, A.data(), s, B.data(), s,
               T{0}, C.data(), s, threads);
  };
  run();  // warm-up: page in the fallback arena, settle turbo
  const double sec = time_median(trials, run);
  const double flops = 2.0 * static_cast<double>(s) * s * s;
  return sec > 0.0 ? flops / sec / 1e9 : 0.0;
}

/// Prefer `cand` over `best` only on a clear (>2%) win — near-ties keep
/// the incumbent: the hardware level for SIMD (a profile opts out of the
/// wide vectors only when a narrower level measured faster), the current
/// blocking for the descent.
bool clearly_faster(double cand, double best) { return cand > best * 1.02; }

/// Seconds for one full ALS sweep (begin_sweep + all modes, in order)
/// through `plan`; factors and M are reused across trials like real ALS.
template <typename Plan, typename X>
double time_sweep(Plan& plan, const X& x, std::vector<Matrix>& factors,
                  Matrix& m, int trials) {
  auto run = [&] {
    plan.begin_sweep(x);
    for (index_t n = 0; n < static_cast<index_t>(factors.size()); ++n)
      plan.mode_mttkrp(n, x, factors, m);
  };
  run();  // warm-up (first sweep pays arena growth)
  return time_median(trials, run);
}

std::vector<Matrix> random_factors(std::span<const index_t> dims, index_t rank,
                                   Rng& rng) {
  std::vector<Matrix> f;
  f.reserve(dims.size());
  for (index_t d : dims) f.push_back(Matrix::random_uniform(d, rank, rng));
  return f;
}

std::string now_stamp() {
  char buf[32];
  std::time_t t = std::time(nullptr);
  std::tm tm{};
  gmtime_r(&t, &tm);
  std::strftime(buf, sizeof(buf), "%Y-%m-%dT%H:%M:%SZ", &tm);
  return buf;
}

}  // namespace

TuneReport run_tune(const TuneOptions& opts) {
  TuneReport rep;
  WisdomProfile& p = rep.profile;

  const bool quick = opts.quick;
  const int trials = opts.trials > 0 ? opts.trials : 3;
  ExecContext ctx(opts.threads);
  const int nt = ctx.threads();
  Rng rng(20260808);

  p.cpu_brand = cpu_brand();
  p.cpu_ladder = cpu_ladder();
  p.created = now_stamp();
  p.tune_threads = nt;
  p.quick = quick;

  LevelGuard level_guard;
  BlockingGuard blocking_guard;
  // Measure from the built-in defaults, not whatever profile/env state the
  // caller happens to be in. set_simd_level does not consult DMTK_SIMD, so
  // every level below is measured even when it is set; apply_wisdom still
  // lets the override beat the recorded level.
  blas::set_gemm_blocking(GemmBlocking{});

  // --- stage 1: SIMD level x precision sweep ------------------------------
  const index_t probe_s = quick ? 128 : 512;
  say(opts.log, "stage 1/5: SIMD level sweep (probe " +
                    std::to_string(probe_s) + "^3, " + std::to_string(trials) +
                    " trials)");
  for (SimdLevel lvl : blas::supported_simd_levels()) {
    blas::set_simd_level(lvl);
    LevelGflops lg;
    lg.level = lvl;
    lg.f64_gflops = probe_gemm_gflops<double>(probe_s, nt, trials, rng);
    lg.f32_gflops = probe_gemm_gflops<float>(probe_s, nt, trials, rng);
    p.levels.push_back(lg);
    say(opts.log, std::string("  ") + std::string(to_string(lvl)) + ": f64 " +
                      std::to_string(lg.f64_gflops) + " GF/s, f32 " +
                      std::to_string(lg.f32_gflops) + " GF/s");
  }
  // The ladder ends at the hardware level, the start-up default.
  const LevelGflops& hw = p.levels.back();
  p.default_gflops_f64 = hw.f64_gflops;
  double best64 = hw.f64_gflops, best32 = hw.f32_gflops;
  p.best_simd_f64 = p.best_simd_f32 = hw.level;
  for (const LevelGflops& lg : p.levels) {
    if (clearly_faster(lg.f64_gflops, best64)) {
      best64 = lg.f64_gflops;
      p.best_simd_f64 = lg.level;
    }
    if (clearly_faster(lg.f32_gflops, best32)) {
      best32 = lg.f32_gflops;
      p.best_simd_f32 = lg.level;
    }
  }
  blas::set_simd_level(p.best_simd_f64);

  // --- stage 2: blocking coordinate descent at the winning f64 level ------
  say(opts.log, std::string("stage 2/5: blocking descent at ") +
                    std::string(to_string(p.best_simd_f64)));
  GemmBlocking best = GemmBlocking{};
  double best_gf = probe_gemm_gflops<double>(probe_s, nt, trials, rng);
  const std::vector<index_t> mcs =
      quick ? std::vector<index_t>{96, 128}
            : std::vector<index_t>{64, 96, 128, 192, 256};
  const std::vector<index_t> kcs =
      quick ? std::vector<index_t>{192, 256}
            : std::vector<index_t>{128, 192, 256, 384, 512};
  const std::vector<index_t> ncs =
      quick ? std::vector<index_t>{512, 1024}
            : std::vector<index_t>{256, 512, 1024, 2048};
  const int passes = quick ? 1 : 2;
  for (int pass = 0; pass < passes; ++pass) {
    for (int axis = 0; axis < 3; ++axis) {
      const std::vector<index_t>& cands =
          axis == 0 ? mcs : (axis == 1 ? kcs : ncs);
      for (index_t c : cands) {
        GemmBlocking cand = best;
        (axis == 0 ? cand.mc : (axis == 1 ? cand.kc : cand.nc)) = c;
        if (cand == best) continue;
        cand = blas::set_gemm_blocking(cand);  // clamped, as installed
        const double gf = probe_gemm_gflops<double>(probe_s, nt, trials, rng);
        if (clearly_faster(gf, best_gf)) {
          best_gf = gf;
          best = cand;
        }
      }
    }
  }
  p.blocking = best;
  p.tuned_gflops_f64 = best_gf;
  blas::set_gemm_blocking(best);
  say(opts.log, "  best (MC,KC,NC)=(" + std::to_string(best.mc) + "," +
                    std::to_string(best.kc) + "," + std::to_string(best.nc) +
                    ") " + std::to_string(best_gf) + " GF/s (default " +
                    std::to_string(p.default_gflops_f64) + ")");

  // --- stage 3: dimension-tree scheme + depth -----------------------------
  say(opts.log, "stage 3/5: dimtree vs per-mode sweeps");
  const index_t rank = quick ? 8 : 16;
  const std::vector<index_t> d3 =
      quick ? std::vector<index_t>{12, 12, 12} : std::vector<index_t>{48, 48, 48};
  const std::vector<index_t> d4 = quick
                                      ? std::vector<index_t>{6, 6, 6, 6}
                                      : std::vector<index_t>{20, 20, 20, 20};
  auto sweep_scheme_seconds = [&](const std::vector<index_t>& dims,
                                  SweepScheme scheme, int max_levels) {
    Tensor x = Tensor::random_uniform(dims, rng);
    auto factors = random_factors(dims, rank, rng);
    Matrix m;
    CpAlsSweepPlan plan(ctx, dims, rank, scheme, MttkrpMethod::Auto,
                        max_levels);
    return time_sweep(plan, x, factors, m, trials);
  };
  rep.permode_seconds_n3 = sweep_scheme_seconds(d3, SweepScheme::PerMode, 0);
  rep.dimtree_seconds_n3 = sweep_scheme_seconds(d3, SweepScheme::DimTree, 0);
  rep.permode_seconds_n4 = sweep_scheme_seconds(d4, SweepScheme::PerMode, 0);
  rep.dimtree_seconds_n4 = sweep_scheme_seconds(d4, SweepScheme::DimTree, 0);
  const bool tree3 = rep.dimtree_seconds_n3 < rep.permode_seconds_n3;
  const bool tree4 = rep.dimtree_seconds_n4 < rep.permode_seconds_n4;
  p.dimtree_min_order = tree3 ? 3 : (tree4 ? 4 : 5);
  rep.tree_full_seconds_n4 = rep.dimtree_seconds_n4;
  rep.tree_onelevel_seconds_n4 =
      sweep_scheme_seconds(d4, SweepScheme::DimTree, 1);
  p.dimtree_levels =
      rep.tree_onelevel_seconds_n4 < rep.tree_full_seconds_n4 ? 1 : 0;
  say(opts.log,
      "  min_order=" + std::to_string(p.dimtree_min_order) +
          " levels=" + std::to_string(p.dimtree_levels) + " (N=3 tree/permode " +
          std::to_string(rep.dimtree_seconds_n3) + "/" +
          std::to_string(rep.permode_seconds_n3) + "s, N=4 " +
          std::to_string(rep.dimtree_seconds_n4) + "/" +
          std::to_string(rep.permode_seconds_n4) + "s)");

  // --- stage 4: two-step side on a balanced internal mode -----------------
  say(opts.log, "stage 4/5: two-step side");
  {
    // Cubic shape, internal mode: I_Ln == I_Rn, so Alg. 4's heuristic has
    // no signal and the measured preference is pure machine behavior.
    const std::vector<index_t> dims =
        quick ? std::vector<index_t>{8, 8, 8} : std::vector<index_t>{24, 24, 24};
    Tensor x = Tensor::random_uniform(dims, rng);
    auto factors = random_factors(dims, rank, rng);
    Matrix m;
    auto side_seconds = [&](TwoStepSide side) {
      MttkrpPlan plan(ctx, dims, rank, 1, MttkrpMethod::TwoStep, side);
      auto run = [&] { plan.execute(x, factors, m); };
      run();
      return time_median(trials, run);
    };
    rep.twostep_left_seconds = side_seconds(TwoStepSide::Left);
    rep.twostep_right_seconds = side_seconds(TwoStepSide::Right);
    if (rep.twostep_left_seconds < 0.9 * rep.twostep_right_seconds)
      p.twostep = TwoStepPref::Left;
    else if (rep.twostep_right_seconds < 0.9 * rep.twostep_left_seconds)
      p.twostep = TwoStepPref::Right;
    else
      p.twostep = TwoStepPref::Heuristic;  // no clear win: keep the shape rule
    say(opts.log, std::string("  pref=") + std::string(to_string(p.twostep)) +
                      " (left " + std::to_string(rep.twostep_left_seconds) +
                      "s, right " + std::to_string(rep.twostep_right_seconds) +
                      "s)");
  }

  // --- stage 5: dense/sparse density crossover ----------------------------
  say(opts.log, "stage 5/5: dense/sparse crossover");
  {
    const std::vector<index_t> dims =
        quick ? std::vector<index_t>{10, 10, 10}
              : std::vector<index_t>{32, 32, 32};
    index_t total = 1;
    for (index_t d : dims) total *= d;
    // Dense sweep time is density-independent: measure it once.
    const double dense_s = sweep_scheme_seconds(dims, SweepScheme::PerMode, 0);
    const std::vector<double> densities =
        quick ? std::vector<double>{0.05, 0.20}
              : std::vector<double>{0.02, 0.05, 0.10, 0.20};
    for (double density : densities) {
      const index_t nnz = std::max<index_t>(
          1, static_cast<index_t>(std::llround(density * total)));
      sparse::SparseTensor x = sparse::SparseTensor::random(dims, nnz, rng);
      auto factors = random_factors(dims, rank, rng);
      Matrix m;
      CpAlsSweepPlan plan(ctx, x, rank, SweepScheme::SparseCsf);
      const double sparse_s = time_sweep(plan, x, factors, m, trials);
      rep.crossover.push_back({density, sparse_s, dense_s});
      say(opts.log, "  density " + std::to_string(density) + ": sparse " +
                        std::to_string(sparse_s) + "s vs dense " +
                        std::to_string(dense_s) + "s");
    }
    // Crossover = midpoint between the densest sparse win and the first
    // dense win above it; all-sparse-wins caps at the densest probe (no
    // claims beyond measurement), all-dense-wins halves the sparsest probe.
    double last_win = -1.0, first_loss = -1.0;
    for (const CrossoverPoint& c : rep.crossover) {
      if (c.sparse_seconds < c.dense_seconds)
        last_win = c.density;
      else if (c.density > last_win && first_loss < 0.0)
        first_loss = c.density;
    }
    if (last_win < 0.0)
      p.sparse_crossover = densities.front() / 2.0;
    else if (first_loss < 0.0)
      p.sparse_crossover = densities.back();
    else
      p.sparse_crossover = (last_win + first_loss) / 2.0;
    p.sparse_crossover = std::clamp(p.sparse_crossover, 0.0, 1.0);
    say(opts.log, "  crossover=" + std::to_string(p.sparse_crossover));
  }

  return rep;  // guards restore the entry dispatch level and blocking
}

std::string report_to_json(const TuneReport& r) {
  using serve::Json;
  Json root;
  root.set("profile", Json::parse(profile_to_json(r.profile)));
  Json dt;
  dt.set("permode_seconds_n3", Json(r.permode_seconds_n3));
  dt.set("dimtree_seconds_n3", Json(r.dimtree_seconds_n3));
  dt.set("permode_seconds_n4", Json(r.permode_seconds_n4));
  dt.set("dimtree_seconds_n4", Json(r.dimtree_seconds_n4));
  dt.set("tree_full_seconds_n4", Json(r.tree_full_seconds_n4));
  dt.set("tree_onelevel_seconds_n4", Json(r.tree_onelevel_seconds_n4));
  root.set("dimtree", std::move(dt));
  Json ts;
  ts.set("left_seconds", Json(r.twostep_left_seconds));
  ts.set("right_seconds", Json(r.twostep_right_seconds));
  root.set("twostep", std::move(ts));
  Json::Array xs;
  for (const CrossoverPoint& c : r.crossover) {
    Json pt;
    pt.set("density", Json(c.density));
    pt.set("sparse_seconds", Json(c.sparse_seconds));
    pt.set("dense_seconds", Json(c.dense_seconds));
    xs.push_back(std::move(pt));
  }
  root.set("crossover", Json(std::move(xs)));
  return root.dump();
}

}  // namespace dmtk::tune
