#pragma once
/// \file timer.hpp
/// \brief Wall-clock timing utilities: the tuner's probes and the per-phase
/// instrumentation inside the MTTKRP kernels.

#include <algorithm>
#include <chrono>
#include <functional>
#include <vector>

namespace dmtk {

/// Monotonic wall-clock stopwatch.
class WallTimer {
 public:
  WallTimer() : start_(clock::now()) {}

  /// Restart the stopwatch.
  void reset() { start_ = clock::now(); }

  /// Seconds elapsed since construction or the last reset().
  [[nodiscard]] double seconds() const {
    return std::chrono::duration<double>(clock::now() - start_).count();
  }

 private:
  using clock = std::chrono::steady_clock;
  clock::time_point start_;
};

/// Time a callable once and return elapsed seconds.
template <typename F>
double time_once(F&& fn) {
  WallTimer t;
  std::forward<F>(fn)();
  return t.seconds();
}

/// Run `fn` `trials` times and return the median elapsed seconds. The paper
/// reports medians of 10 runs for MTTKRP and means of 100 for KRP; medians
/// are robust to scheduler noise so we use them throughout.
template <typename F>
double time_median(int trials, F&& fn) {
  std::vector<double> samples;
  samples.reserve(static_cast<std::size_t>(trials));
  for (int i = 0; i < trials; ++i) samples.push_back(time_once(fn));
  std::nth_element(samples.begin(), samples.begin() + samples.size() / 2,
                   samples.end());
  return samples[samples.size() / 2];
}

/// Accumulates seconds into a slot only if the slot pointer is non-null.
/// Lets kernels be instrumented with zero overhead when timing is off.
class PhaseTimer {
 public:
  explicit PhaseTimer(double* slot) : slot_(slot) {
    if (slot_ != nullptr) timer_.reset();
  }
  ~PhaseTimer() { stop(); }

  PhaseTimer(const PhaseTimer&) = delete;
  PhaseTimer& operator=(const PhaseTimer&) = delete;

  /// Stop early (idempotent); otherwise the destructor stops.
  void stop() {
    if (slot_ != nullptr) {
      *slot_ += timer_.seconds();
      slot_ = nullptr;
    }
  }

 private:
  double* slot_;
  WallTimer timer_;
};

}  // namespace dmtk
