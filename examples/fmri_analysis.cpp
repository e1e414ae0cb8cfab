/// \file fmri_analysis.cpp
/// The paper's motivating application (Section 3), end to end on synthetic
/// data: build a time x subjects x regions x regions dynamic-connectivity
/// tensor, decompose it with CP-ALS, and report the recovered "brain
/// networks" — which components activate when, which subjects express them,
/// and which region pairs they couple. Also runs the paper's 3-way variant
/// (symmetric region-pair linearization) and compares per-iteration time
/// against the Tensor Toolbox's Reorder kernel, miniaturizing Figure 7.
///
/// Build & run:  ./examples/fmri_analysis

#include <algorithm>
#include <cstdio>
#include <vector>

#include "dmtk.hpp"

namespace {

using namespace dmtk;

void describe_components(const Ktensor& model) {
  const index_t C = model.rank();
  const Matrix& time_f = model.factors[0];
  const Matrix& subj_f = model.factors[1];
  const Matrix& region_f = model.factors[2];
  for (index_t c = 0; c < C; ++c) {
    // Peak activation time and strongest region for a quick summary.
    index_t tpeak = 0, rpeak = 0, speak = 0;
    for (index_t t = 0; t < time_f.rows(); ++t) {
      if (std::abs(time_f(t, c)) > std::abs(time_f(tpeak, c))) tpeak = t;
    }
    for (index_t r = 0; r < region_f.rows(); ++r) {
      if (std::abs(region_f(r, c)) > std::abs(region_f(rpeak, c))) rpeak = r;
    }
    for (index_t s = 0; s < subj_f.rows(); ++s) {
      if (std::abs(subj_f(s, c)) > std::abs(subj_f(speak, c))) speak = s;
    }
    std::printf(
        "  component %lld: weight %8.2f | peak t=%lld | hub region=%lld | "
        "strongest subject=%lld\n",
        static_cast<long long>(c), model.lambda_or_one(c),
        static_cast<long long>(tpeak), static_cast<long long>(rpeak),
        static_cast<long long>(speak));
  }
}

}  // namespace

int main() {
  using namespace dmtk;

  // Scaled-down version of the paper's 225 x 59 x 200 x 200 tensor.
  sim::FmriOptions fo;
  fo.time_steps = 80;
  fo.subjects = 20;
  fo.regions = 30;
  fo.components = 4;
  fo.noise_level = 0.05;
  fo.seed = 42;
  std::printf("generating synthetic fMRI tensor %lld x %lld x %lld x %lld...\n",
              static_cast<long long>(fo.time_steps),
              static_cast<long long>(fo.subjects),
              static_cast<long long>(fo.regions),
              static_cast<long long>(fo.regions));
  const sim::FmriData data = sim::make_fmri_tensor(fo);

  // --- 4-way analysis. ----------------------------------------------------
  CpAlsOptions opts;
  opts.rank = fo.components;
  opts.max_iters = 150;
  opts.tol = 1e-7;
  const CpAlsResult r4 = cp_als(data.tensor, opts);
  std::printf("4-way CP: fit %.4f in %d sweeps; recovery score %.3f\n",
              r4.final_fit, r4.iterations,
              factor_match_score(r4.model, data.truth));
  describe_components(r4.model);

  // --- 3-way symmetric linearization (the paper's second analysis). ------
  const Tensor X3 = sim::symmetrize_linearize(data.tensor);
  std::printf("\n3-way linearized tensor: %lld x %lld x %lld (pairs)\n",
              static_cast<long long>(X3.dim(0)),
              static_cast<long long>(X3.dim(1)),
              static_cast<long long>(X3.dim(2)));
  const CpAlsResult r3 = cp_als(X3, opts);
  std::printf("3-way CP: fit %.4f in %d sweeps\n", r3.final_fit,
              r3.iterations);

  // --- Mini Figure 7: per-iteration time vs the TTB Reorder kernel. -----
  CpAlsOptions timing = opts;
  timing.max_iters = 3;
  timing.tol = 0.0;
  timing.compute_fit = false;
  const CpAlsResult ours = cp_als(data.tensor, timing);
  timing.method = MttkrpMethod::Reorder;
  const CpAlsResult ttb = cp_als(data.tensor, timing);
  auto median_iter = [](const CpAlsResult& r) {
    std::vector<double> s;
    for (const auto& it : r.iters) s.push_back(it.seconds);
    return median(s);
  };
  const double t_ours = median_iter(ours);
  const double t_ttb = median_iter(ttb);
  std::printf(
      "\nper-iteration time: ours %.4f s, TTB-style %.4f s  ->  %.2fx "
      "speedup\n",
      t_ours, t_ttb, t_ttb / t_ours);
  return 0;
}
