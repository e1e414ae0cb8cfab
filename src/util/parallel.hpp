#pragma once
/// \file parallel.hpp
/// \brief Thin OpenMP helpers: contiguous block partitioning (the paper's
/// thread decomposition for KRP rows and matricization columns) and a
/// structured parallel-for wrapper.

#include <omp.h>

#include <utility>

#include "util/common.hpp"

namespace dmtk {

/// Half-open range [begin, end).
struct Range {
  index_t begin = 0;
  index_t end = 0;
  [[nodiscard]] index_t size() const { return end - begin; }
  [[nodiscard]] bool empty() const { return begin >= end; }
};

/// Contiguous block of work assigned to thread `t` of `nthreads` when `total`
/// items are split as evenly as possible (first `total % nthreads` threads
/// get one extra item). This matches the paper's "contiguous blocks of rows"
/// assignment in the parallel KRP and external-mode MTTKRP.
inline Range block_range(index_t total, int nthreads, int t) {
  if (nthreads <= 0) return {0, total};
  const index_t n = static_cast<index_t>(nthreads);
  const index_t base = total / n;
  const index_t rem = total % n;
  const index_t tt = static_cast<index_t>(t);
  const index_t begin = tt * base + (tt < rem ? tt : rem);
  const index_t size = base + (tt < rem ? 1 : 0);
  return {begin, begin + size};
}

/// Run `fn(thread_id, nthreads)` on a team of `nthreads` OpenMP threads.
/// `fn` is responsible for its own partitioning (typically via block_range).
template <typename F>
void parallel_region(int nthreads, F&& fn) {
  if (nthreads <= 1) {
    fn(0, 1);
    return;
  }
#pragma omp parallel num_threads(nthreads)
  { fn(omp_get_thread_num(), omp_get_num_threads()); }
}

/// Barrier across the innermost enclosing OpenMP team. Safe outside any
/// parallel region (a team of one; no-op), which is what makes kernels
/// written against parallel_region degrade gracefully when the caller runs
/// them with nthreads <= 1.
///
/// Lock-discipline rule (not expressible to -Wthread-safety, so stated
/// here and enforced by review): never reach a team_barrier() while
/// holding a dmtk::Mutex. A thread parked at the barrier cannot release a
/// lock, so one teammate blocking on that lock deadlocks the whole team.
/// dmtk's kernels honor this by construction — the data-parallel phases
/// between barriers are lock-free (disjoint block_range partitions), and
/// every Mutex in the tree guards control-plane state (server, fault
/// registry), none of which is touched inside parallel_region.
inline void team_barrier() {
#pragma omp barrier
}

/// Statically-scheduled parallel loop over [begin, end) with `nthreads`
/// threads; each thread receives one contiguous block.
template <typename F>
void parallel_for_blocked(index_t begin, index_t end, int nthreads, F&& fn) {
  const index_t total = end - begin;
  if (total <= 0) return;
  if (nthreads <= 1) {
    for (index_t i = begin; i < end; ++i) fn(i);
    return;
  }
  parallel_region(nthreads, [&](int t, int nt) {
    const Range r = block_range(total, nt, t);
    for (index_t i = begin + r.begin; i < begin + r.end; ++i) fn(i);
  });
}

}  // namespace dmtk
