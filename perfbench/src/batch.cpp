/// \file batch.cpp
/// \brief The batch workloads (cube3-f64, fmri4-f32): CP-ALS
/// sweeps at the full team and at one thread, and planned MTTKRP calls —
/// the paper's kernel as a library caller issues it.

#include <cstdio>
#include <memory>

#include "common.hpp"
#include "core/cp_als.hpp"
#include "exec/mttkrp_plan.hpp"
#include "io/tensor_io.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace dmtk;

namespace {

/// Operation outputs are checked against these (relative) tolerances.
struct Tolerance {
  double fit;     ///< |fit - reference fit|
  double mttkrp;  ///< max |M - ref| / max |ref|
};

Tolerance tolerance_for(const Spec& s) {
  if (s.f32) return {1e-4, 1e-4};
  return {1e-9, 1e-10};
}

template <typename T>
double max_rel_error(const MatrixT<T>& M, const Matrix& ref) {
  double err = 0.0, scale = 0.0;
  for (index_t i = 0; i < ref.rows() * ref.cols(); ++i) {
    err = std::max(err, std::abs(static_cast<double>(M.data()[i]) -
                                 ref.data()[i]));
    scale = std::max(scale, std::abs(ref.data()[i]));
  }
  return err / std::max(scale, 1e-300);
}

template <typename T>
class Batch {
 public:
  Batch(const RunArgs& a, Result& res, Trace& tr)
      : a_(a), s_(a.spec), res_(res), tr_(tr), tol_(tolerance_for(a.spec)) {
    for (index_t n = 0; n < static_cast<index_t>(s_.dims.size()); ++n) {
      refs_.push_back(
          io::read_matrix(a.dir / ("ref_m" + std::to_string(n) + ".dmat")));
    }
  }

  /// Time to become ready: tensor and model read, context and plans
  /// built, one warm-up call. Done several times; the median is setup_s
  /// and the last state is kept.
  double setup() {
    Trace::Scope span(tr_, "bench.setup");
    X_ = TensorT<T>();  // release the previous copy before re-reading
    plan_.reset();
    mplans_.clear();
    ctx_.reset();
    const auto t0 = Clock::now();
    {
      Trace::Scope r(tr_, "io.read_tensor");
      X_ = io::read_tensor_as<T>(a_.dir / "x.dten");
    }
    init_ = io::read_ktensor_as<T>(a_.dir / "init.dkt");
    ctx_ = std::make_unique<ExecContext>(a_.threads);
    {
      Trace::Scope p(tr_, "exec.plan");
      plan_ = std::make_unique<CpAlsSweepPlanT<T>>(*ctx_, X_.dims(), s_.rank);
      for (index_t n = 0; n < X_.order(); ++n) {
        mplans_.push_back(std::make_unique<MttkrpPlanT<T>>(
            *ctx_, X_.dims(), s_.rank, n));
      }
    }
    M_.clear();
    for (index_t n = 0; n < X_.order(); ++n) M_.emplace_back(X_.dim(n), s_.rank);
    warm_fits_.push_back(sweep_call(*plan_, 0));
    return seconds_since(t0);
  }

  /// One cp_als call of the fixed sweep count from the stored initial
  /// model; returns its fit and adds seconds per sweep to `per_sweep`.
  double sweep_call(CpAlsSweepPlanT<T>& plan, std::uint64_t id,
                    Timings* per_sweep = nullptr) {
    CpAlsOptionsT<T> o;
    o.rank = s_.rank;
    o.max_iters = s_.sweeps_per_call;
    o.tol = 0.0;
    o.initial_guess = &init_;
    Trace::Scope span(tr_, "core.cp_als", id);
    const std::uint64_t steal0 = steal_ticks();
    const auto t0 = Clock::now();
    const CpAlsResultT<T> r = cp_als(X_, o, plan);
    const double sec = seconds_since(t0);
    if (per_sweep != nullptr) {
      per_sweep->add(sec / s_.sweeps_per_call, steal_ticks() - steal0);
    }
    return r.final_fit;
  }

  /// One MTTKRP of mode n at the full team, checked against the
  /// reference. Returns its milliseconds, or -1 when the output is wrong.
  double request(index_t n, std::uint64_t id) {
    const std::size_t m = static_cast<std::size_t>(n);
    const auto t0 = Clock::now();
    {
      Trace::Scope span(tr_, "exec.mttkrp_plan", id);
      mplans_[m]->execute(X_, init_.factors, M_[m]);
    }
    const double ms = seconds_since(t0) * 1e3;
    return max_rel_error(M_[m], refs_[m]) <= tol_.mttkrp ? ms : -1.0;
  }

  /// Timed samples of the three operations.
  struct Samples {
    Timings one, team;  ///< seconds per sweep, one per call
    std::vector<double> fits_one, fits_team;
    Timings req_ms;     ///< correct MTTKRP requests
  };

  /// The timed loop. 1-thread sweep calls, team sweep calls and MTTKRP
  /// requests are interleaved for `seconds`, each kept near its `share` of
  /// the time, so every metric samples the whole window (and any host
  /// contention in it) rather than one slice. Requests visit every mode
  /// once per round in a seeded order, so each mode has the same share.
  Samples measure(double seconds, const double (&share)[3],
                  CpAlsSweepPlanT<T>& plan1) {
    Samples sm;
    double spent[3] = {};
    long calls[3] = {};
    Rng rng(a_.seed * 1000003u + 17u);
    std::vector<index_t> round;
    const auto t0 = Clock::now();
    for (;;) {
      // Next: an activity that has not run yet, else the one furthest
      // below its share. Once every activity ran, stop when time is up.
      int k = -1;
      for (int i = 0; i < 3; ++i) {
        if (share[i] <= 0.0) continue;
        if (calls[i] == 0) {
          k = i;
          break;
        }
        if (k < 0 || spent[i] / share[i] < spent[k] / share[k]) k = i;
      }
      if (calls[k] > 0 && seconds_since(t0) >= seconds) break;
      const auto ts = Clock::now();
      const std::uint64_t id = static_cast<std::uint64_t>(++calls[k]);
      if (k == 0) {
        const PinnedTo pin(static_cast<std::size_t>(id));
        sm.fits_one.push_back(sweep_call(plan1, id, &sm.one));
      } else if (k == 1) {
        sm.fits_team.push_back(sweep_call(*plan_, id, &sm.team));
      } else {
        if (round.empty()) {
          for (index_t n = 0; n < X_.order(); ++n) round.push_back(n);
          shuffle(round, rng);
        }
        const std::uint64_t steal0 = steal_ticks();
        const double ms = request(round.back(), id);
        round.pop_back();
        res_.op(ms >= 0.0);
        if (ms >= 0.0) sm.req_ms.add(ms, steal_ticks() - steal0);
      }
      spent[k] += seconds_since(ts);
    }
    return sm;
  }

  /// Checks every recorded fit: against the reference (the 1-thread run
  /// of the same input) and the noise floor.
  void check_fits(const std::vector<double>& fits, double ref) {
    for (const double f : fits) {
      res_.op(std::abs(f - ref) <= tol_.fit && f >= s_.fit_floor);
    }
  }

  void run(bool traced) {
    std::vector<double> setups;
    for (int i = 0; i < kSetups; ++i) setups.push_back(setup());
    std::printf("%s: dims", s_.name);
    for (const index_t d : X_.dims()) std::printf(" %lld", static_cast<long long>(d));
    std::printf(", rank %lld, %d sweep(s) per call, %d threads\n",
                static_cast<long long>(s_.rank), s_.sweeps_per_call,
                a_.threads);

    ExecContext ctx1(1);
    CpAlsSweepPlanT<T> plan1(ctx1, X_.dims(), s_.rank);
    const double T_ = a_.seconds;
    // 1-thread, team, requests. The 1-thread sweeps are the longest
    // operation and vary most from call to call, so they get half the
    // window: about 30 calls of 0.4 s at 30 s.
    const double shares[3] = {0.5, 0.25, 0.25};
    double overhead = 0.0;
    Samples sm;
    if (!traced) {
      sm = measure(T_, shares, plan1);
    } else {
      // An untraced and a traced pass: their difference is the
      // recorder's cost.
      tr_.set_enabled(false);
      sm = measure(0.5 * T_, shares, plan1);
      tr_.set_enabled(true);
      const double team_and_requests[3] = {0.0, 0.5, 0.5};
      const Samples st = measure(0.25 * T_, team_and_requests, plan1);
      sm.fits_team.insert(sm.fits_team.end(), st.fits_team.begin(),
                          st.fits_team.end());
      overhead = 0.5 * (st.team.median() / sm.team.median() +
                        st.req_ms.median() / sm.req_ms.median()) -
                 1.0;
    }
    // The first 1-thread call is the reference of every fit.
    const double ref_fit = sm.fits_one.front();
    check_fits(warm_fits_, ref_fit);
    check_fits(sm.fits_one, ref_fit);
    check_fits(sm.fits_team, ref_fit);
    EndToEnd e2e;
    e2e.sweep_s = sm.team.median();
    e2e.sweep_s_1t = sm.one.median();
    std::printf("  fit %.6f (reference %.6f, floor %.4f)\n", sm.fits_team.back(),
                ref_fit, s_.fit_floor);
    describe("sweep s (team)", sm.team, "s");
    describe("sweep s (1 thread)", sm.one, "s");
    describe("mttkrp request ms", sm.req_ms, "ms");
    describe("setup s", setups, "s");

    if (!traced) {
      res_.add("sweep_s", e2e.sweep_s, "s");
      res_.add("sweep_s_1t", e2e.sweep_s_1t, "s");
      const std::vector<double> used = sm.req_ms.use();
      res_.add("req_ms_p50", quantile(used, 0.5), "ms");
      res_.add("req_ms_p90", quantile(used, 0.9), "ms");
      res_.add("req_per_s", 1e3 * sm.req_ms.per_second(), "1/s");
      res_.add("setup_s", median_of(setups), "s");
      res_.add("peak_rss_mb", peak_rss_mb(), "MB");
      return;
    }
    const Roofs roofs = measure_roofs(res_, tr_, a_.threads);
    measure_layers<T>(roofs, e2e, X_, init_.factors, *ctx_,
                      a_.dir / "x.dten", res_, tr_);
    measure_served(a_, a_.dir / "x.dten", res_, tr_);
    res_.add("trace.overhead_frac", overhead, "frac");
  }

 private:
  const RunArgs& a_;
  const Spec& s_;
  Result& res_;
  Trace& tr_;
  Tolerance tol_;
  std::vector<Matrix> refs_;
  std::vector<double> warm_fits_;

  TensorT<T> X_;
  KtensorT<T> init_;
  std::unique_ptr<ExecContext> ctx_;
  std::unique_ptr<CpAlsSweepPlanT<T>> plan_;
  std::vector<std::unique_ptr<MttkrpPlanT<T>>> mplans_;
  std::vector<MatrixT<T>> M_;
};

}  // namespace

void run_batch(const RunArgs& a, bool traced, Result& res, Trace& tr) {
  if (a.spec.f32) {
    Batch<float>(a, res, tr).run(traced);
  } else {
    Batch<double>(a, res, tr).run(traced);
  }
}

}  // namespace perfbench
