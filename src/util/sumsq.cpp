#include "util/sumsq.hpp"

#include <algorithm>

#include "util/parallel.hpp"

// The build compiles this file with -ffp-contract=off: a fused
// multiply-add rounds once where the documented order rounds twice.

namespace dmtk::util {
namespace {

/// lanes[j] += x[i]^2 for every i = j mod kSumSqLanes, ascending i; n is a
/// multiple of kSumSqLanes.
template <typename T>
void add_rows(std::array<double, kSumSqLanes>& lanes, const T* x,
              std::size_t n) noexcept {
  // A local copy, so the compiler keeps the lanes in registers and
  // vectorises the row without having to prove that x does not alias them.
  std::array<double, kSumSqLanes> acc = lanes;
  for (std::size_t i = 0; i < n; i += kSumSqLanes) {
    for (std::size_t j = 0; j < kSumSqLanes; ++j) {
      const double v = static_cast<double>(x[i + j]);
      acc[j] += v * v;
    }
  }
  lanes = acc;
}

/// The fixed lane tree: lane j += lane j + w for w = 8, 4, 2, 1.
double fold_lanes(std::array<double, kSumSqLanes> l) noexcept {
  for (std::size_t w = kSumSqLanes / 2; w >= 1; w /= 2) {
    for (std::size_t j = 0; j < w; ++j) l[j] += l[j + w];
  }
  return l[0];
}

/// Most groups a call of sumsq hands to one team; their sums wait in a
/// stack array for the in-order add, so larger inputs take several rounds.
constexpr std::size_t kRoundGroups = 64;

}  // namespace

template <typename T>
void SumSq<T>::update(const T* x, std::size_t n) noexcept {
  while (n > 0) {
    std::size_t take = std::min(kSumSqBlock - in_block_, n);
    const std::size_t lane = in_block_ % kSumSqLanes;
    if (lane != 0 || take < kSumSqLanes) {
      // A piece that starts or ends inside a row of 16 lanes: one element
      // at a time up to the row's end, with the same arithmetic.
      take = std::min(take, kSumSqLanes - lane);
      for (std::size_t i = 0; i < take; ++i) {
        const double v = static_cast<double>(x[i]);
        lanes_[lane + i] += v * v;
      }
    } else {
      take -= take % kSumSqLanes;
      add_rows(lanes_, x, take);
    }
    x += take;
    n -= take;
    in_block_ += take;
    if (in_block_ == kSumSqBlock) close_block();
  }
}

template <typename T>
void SumSq<T>::close_block() noexcept {
  group_ += fold_lanes(lanes_);
  lanes_.fill(0.0);
  in_block_ = 0;
  if (++blocks_ == kSumSqGroupBlocks) {
    total_ += group_;
    group_ = 0.0;
    blocks_ = 0;
  }
}

template <typename T>
double SumSq<T>::value() const noexcept {
  if (in_block_ == 0 && blocks_ == 0) return total_;
  const double group = in_block_ > 0 ? group_ + fold_lanes(lanes_) : group_;
  return total_ + group;
}

template <typename T>
double sumsq(const T* x, std::size_t n, int threads) noexcept {
  const std::size_t groups = (n + kSumSqGroup - 1) / kSumSqGroup;
  if (threads <= 1 || groups <= 1) {
    SumSq<T> acc;
    acc.update(x, n);
    return acc.value();
  }
  std::array<double, kRoundGroups> partial;
  double total = 0.0;
  for (std::size_t first = 0; first < groups; first += kRoundGroups) {
    const std::size_t round = std::min(kRoundGroups, groups - first);
    const int team =
        static_cast<int>(std::min(static_cast<std::size_t>(threads), round));
    parallel_region(team, [&](int t, int nteam) {
      const Range r = block_range(static_cast<index_t>(round), nteam, t);
      for (index_t g = r.begin; g < r.end; ++g) {
        const std::size_t begin =
            (first + static_cast<std::size_t>(g)) * kSumSqGroup;
        SumSq<T> acc;
        acc.update(x + begin, std::min(kSumSqGroup, n - begin));
        partial[static_cast<std::size_t>(g)] = acc.value();
      }
    });
    for (std::size_t g = 0; g < round; ++g) total += partial[g];
  }
  return total;
}

template class SumSq<float>;
template class SumSq<double>;
template double sumsq<float>(const float*, std::size_t, int) noexcept;
template double sumsq<double>(const double*, std::size_t, int) noexcept;

}  // namespace dmtk::util
