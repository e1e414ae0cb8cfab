#pragma once
/// \file sumsq.hpp
/// \brief Sum of squares in double, in a summation order fixed by the data
/// alone — the kernel behind ‖X‖². The checked tensor read folds it over
/// each chunk as the chunk lands, and TensorT::norm_squared runs it on a
/// team when no value was carried in.
///
/// The order. Element i lands in lane i % 16 of its block (kSumSqBlock
/// elements, i / kSumSqBlock), squared in double and added to that lane in
/// ascending i. A block's 16 lanes fold in a fixed tree (lane j += lane
/// j + w for w = 8, 4, 2, 1), block sums are added in ascending order into
/// their group (kSumSqGroupBlocks blocks), and group sums in ascending
/// order into the total. Nothing in that order depends on how the input is
/// chunked or on the thread count, and the square and the add round
/// separately (the file builds without multiply-add contraction), so every
/// split of the work returns the same bits (after Demmel & Nguyen, "Fast
/// Reproducible Floating-Point Summation", ARITH 2013, which fixes the
/// order by the data's layout).
///
/// One portable body computes the lane updates, and the compiler vectorises
/// its 16 independent lanes. Hand-written AVX2 and AVX-512 bodies fold
/// cached data faster, but on a 4-core Xeon they moved neither the
/// benchmark's set-up time (which includes the read) nor served request
/// latency beyond run-to-run spread, so there is no per-CPU dispatch.

#include <array>
#include <cstddef>

namespace dmtk::util {

inline constexpr std::size_t kSumSqLanes = 16;
inline constexpr std::size_t kSumSqBlock = 4096;  ///< elements
inline constexpr std::size_t kSumSqGroupBlocks = 16;
inline constexpr std::size_t kSumSqGroup = kSumSqBlock * kSumSqGroupBlocks;

/// Streaming form: update() any number of times with consecutive pieces of
/// the input, then value(). Any split of the input gives the same bits as
/// one update() with all of it.
template <typename T>
class SumSq {
 public:
  void update(const T* x, std::size_t n) noexcept;

  /// Sum of the squares of every element passed so far.
  [[nodiscard]] double value() const noexcept;

 private:
  void close_block() noexcept;

  std::array<double, kSumSqLanes> lanes_{};
  std::size_t in_block_ = 0;  ///< elements of the open block seen so far
  std::size_t blocks_ = 0;    ///< closed blocks of the open group
  double group_ = 0.0;        ///< their sum, in ascending order
  double total_ = 0.0;        ///< sum of closed groups, in ascending order
};

/// Threaded form: whole groups are split across a team of up to `threads`
/// threads, and the group sums are added in ascending order on the calling
/// thread. Inputs of at most one group, or threads <= 1, run on the calling
/// thread and open no team. Same bits as SumSq for every `threads`. Does
/// not allocate.
template <typename T>
[[nodiscard]] double sumsq(const T* x, std::size_t n, int threads) noexcept;

extern template class SumSq<float>;
extern template class SumSq<double>;

}  // namespace dmtk::util
