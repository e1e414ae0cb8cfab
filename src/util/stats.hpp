#pragma once
/// \file stats.hpp
/// \brief Median of a sample of measurements (examples and tests report
/// the median of repeated timings).

#include <algorithm>
#include <span>
#include <vector>

namespace dmtk {

/// Median (averaging the two middle elements for even sizes); 0 for an
/// empty sample.
inline double median(std::span<const double> xs) {
  if (xs.empty()) return 0.0;
  std::vector<double> v(xs.begin(), xs.end());
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return (n % 2 == 1) ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

}  // namespace dmtk
