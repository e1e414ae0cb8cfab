#pragma once
/// \file timer.hpp
/// \brief Wall-clock stopwatch for callers: the request phases of the job,
/// the server and the CLI, and the whole-sweep time of the CP-ALS driver.
/// The kernels themselves read no clock.

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

}  // namespace dmtk
