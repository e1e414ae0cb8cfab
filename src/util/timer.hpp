#pragma once
/// \file timer.hpp
/// \brief Wall-clock timing utilities: the per-phase instrumentation
/// inside the MTTKRP kernels and the request timings of the server.

#include <chrono>

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
