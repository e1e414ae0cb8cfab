#pragma once
/// \file tuner.hpp
/// \brief `dmtk tune`: measure this machine's answers to the plan layer's
/// tunables and produce a WisdomProfile (tune/wisdom.hpp).
///
/// The sweep axes, in run order (later stages run under the earlier
/// stages' winners, so the profile is self-consistent):
///   1. SIMD level x precision: probe GEMM GFLOP/s at every supported
///      dispatch level for f64 and f32. The hardware level is the
///      incumbent; a narrower level is recorded only when it measured
///      clearly faster (the downclock opt-out, by measurement).
///   2. GEMM blocking (MC, KC, NC): coordinate descent from the defaults
///      at the winning f64 level.
///   3. Dimension-tree sweep scheme: PerMode vs DimTree full-sweep time at
///      N = 3 and N = 4 (the measured replacement for the "Auto N >= 4"
///      rule), plus full-depth vs one-level tree at N = 4.
///   4. Two-step MTTKRP side on a balanced internal mode (where the shape
///      heuristic has no signal): Left vs Right, preferring the heuristic
///      unless one side wins by a clear margin.
///   5. Dense/sparse density crossover: CSF sweep vs dense sweep across a
///      density ladder (advisory — surfaced by the CLI, never silently
///      overriding an explicit input kind).
///
/// `quick` shrinks every probe shape and candidate set so the whole pass
/// runs in seconds — the ctest smoke and CI use it; real profiles come
/// from the full pass.

#include <iosfwd>
#include <vector>

#include "tune/wisdom.hpp"

namespace dmtk::tune {

struct TuneOptions {
  bool quick = false;
  int threads = 0;  ///< 0 = resolve_threads default
  int trials = 0;   ///< median-of trials per measurement; 0 = 3 (quick: 1)
  std::ostream* log = nullptr;  ///< progress lines (CLI passes std::cout)
};

/// One dense-vs-sparse probe point of the crossover stage.
struct CrossoverPoint {
  double density = 0.0;
  double sparse_seconds = 0.0;
  double dense_seconds = 0.0;
};

/// Everything the pass measured: the profile to persist plus the raw
/// stage timings behind it (for BENCH JSON and --json reporting).
struct TuneReport {
  WisdomProfile profile;
  double permode_seconds_n3 = 0.0, dimtree_seconds_n3 = 0.0;
  double permode_seconds_n4 = 0.0, dimtree_seconds_n4 = 0.0;
  double tree_full_seconds_n4 = 0.0, tree_onelevel_seconds_n4 = 0.0;
  double twostep_left_seconds = 0.0, twostep_right_seconds = 0.0;
  std::vector<CrossoverPoint> crossover;
};

/// Run the pass. Leaves the process-global dispatch level and blocking
/// exactly as found (measurement probes restore what they change); apply
/// the result explicitly with apply_wisdom()/save_wisdom().
[[nodiscard]] TuneReport run_tune(const TuneOptions& opts);

/// Full report as one JSON line (profile embedded under "profile").
[[nodiscard]] std::string report_to_json(const TuneReport& r);

}  // namespace dmtk::tune
