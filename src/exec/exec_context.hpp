#pragma once
/// \file exec_context.hpp
/// \brief Execution context for plan-based kernels: thread count, block
/// partitioning policy, and a reusable aligned workspace arena.
///
/// The paper's algorithms amortize work ACROSS MTTKRP calls (KRP partial-
/// product reuse within a call, dimension-tree reuse across an ALS sweep),
/// and the FFTW-style plan API in mttkrp_plan.hpp extends that amortization
/// to dispatch decisions, thread partitions, and workspace memory. The
/// ExecContext is the shared substrate: every plan built against a context
/// draws its scratch from the context's arena, so an ALS driver that builds
/// one plan per mode pays for the LARGEST mode's workspace once instead of
/// reallocating per call per sweep.
///
/// Threading: a context pins its thread count at construction (values <= 0
/// resolve to the library default of util/env.hpp at that moment). This
/// replaces the bare `int threads` parameters that previously threaded
/// through every layer of the library.
///
/// Concurrency: a context is designed for one executing plan at a time (the
/// ALS pattern — mode updates are sequential; parallelism lives INSIDE each
/// kernel). Use one context per driver thread if you run drivers
/// concurrently.

#include <cstddef>

#include "util/aligned_alloc.hpp"
#include "util/common.hpp"
#include "util/env.hpp"
#include "util/fault.hpp"
#include "util/parallel.hpp"

// DMTK_ASAN: 1 when AddressSanitizer instrumentation is active in this
// translation unit. Clang reports it via __has_feature, GCC via
// __SANITIZE_ADDRESS__ — probe both, as the CI matrix builds ASan with
// either compiler.
#if defined(__SANITIZE_ADDRESS__)
#define DMTK_ASAN 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
#define DMTK_ASAN 1
#endif
#endif
#ifndef DMTK_ASAN
#define DMTK_ASAN 0
#endif

#if DMTK_ASAN
#include <sanitizer/asan_interface.h>
#endif

namespace dmtk {

/// Bump-allocated scratch arena backed by one cache-line-aligned buffer.
///
/// Storage is measured in BYTES and handed out through typed carve-outs
/// (Frame::alloc<T>()), so the same arena serves double- and float-typed
/// plans without any per-type sizing convention. The buffer is std::byte
/// raw storage — replacing the old doubles-measured arena whose float
/// users had to type-pun live double objects (a strict-aliasing violation
/// compilers may legitimately miscompile). Carving T views out of byte
/// storage removes that real hazard; the residual is the universal
/// pre-C++23 arena caveat that plain stores do not formally begin object
/// lifetimes (std::start_lifetime_as_array is the C++23 spelling) — see
/// Frame::alloc.
///
/// Capacity only changes through reserve(); Frame::alloc() never grows the
/// buffer, so pointers handed out by a frame stay valid for the frame's
/// lifetime. Plans reserve their worst-case footprint at construction and
/// then execute allocation-free: the grow_count() instrumentation is how the
/// test suite verifies that no heap traffic happens after plan construction.
///
/// ASan poisoning (DMTK_ASAN builds only; zero cost otherwise): a bump
/// arena hides buffer-overflow bugs from AddressSanitizer — every byte of
/// the backing block is "valid" heap memory, so an overrun of one
/// carve-out into the next, or a read past the frame top, is invisible.
/// The arena therefore maintains the shadow state itself: bytes between
/// top_ and capacity are poisoned, Frame::alloc unpoisons exactly the
/// payload it hands out (the cache-line round-up padding after each block
/// stays poisoned, acting as a per-block redzone), and ~Frame re-poisons
/// everything the frame covered — so touching freed-frame memory or
/// overrunning a carve-out aborts under ASan with a use-after-poison
/// report. The protocol never changes sizing: reservation math, offsets,
/// and grow_count() are byte-for-byte identical in poisoned and plain
/// builds (tests/test_arena_poison.cpp locks this in).
class WorkspaceArena {
 public:
  /// Block granularity: one x86 cache line.
  static constexpr std::size_t kAlignBytes = kDefaultAlignment;

  /// Round a byte request up to cache-line granularity, so consecutive
  /// blocks (and per-thread slices) never share a cache line.
  [[nodiscard]] static constexpr std::size_t aligned_bytes(std::size_t bytes) {
    return (bytes + kAlignBytes - 1) / kAlignBytes * kAlignBytes;
  }

  /// Round an element count up so a block of that many T keeps cache-line
  /// granularity (the frame base is always line-aligned, so offsets built
  /// from aligned_count blocks stay aligned too).
  template <typename T>
  [[nodiscard]] static constexpr std::size_t aligned_count(std::size_t elems) {
    constexpr std::size_t kLine = kAlignBytes / sizeof(T);
    return (elems + kLine - 1) / kLine * kLine;
  }

  /// Grow capacity to at least `bytes` (never shrinks). Growth moves the
  /// storage, so it is refused while a frame is open — plans reserve once,
  /// at construction.
  void reserve_bytes(std::size_t bytes) {
    if (bytes <= capacity_) return;
    DMTK_CHECK(top_ == 0,
               "WorkspaceArena: growth would move the storage under an "
               "open frame");
    // Fault site `arena.alloc`: the deterministic stand-in for
    // std::bad_alloc on workspace growth — how a served request's plan
    // build failing with an "internal" error is exercised (see
    // util/fault.hpp).
    DMTK_FAULT_POINT("arena.alloc");
    // No frame is open, so nothing in the old block is live: take a fresh
    // uninitialised block (no copy, no zero-fill) and free the old one.
    // Blocks of 32 MiB or more are their own huge-page mappings
    // (util/aligned_alloc.hpp).
    auto* fresh = static_cast<std::byte*>(buffer_alloc(bytes));
    release();
    buf_ = fresh;
    capacity_ = bytes;
    ++grow_count_;
    poison_shadow(0, capacity_);
  }

  /// Typed reserve: capacity for `elems` elements of T.
  template <typename T>
  void reserve(std::size_t elems) {
    reserve_bytes(elems * sizeof(T));
  }

  /// Capacity / usage in bytes.
  [[nodiscard]] std::size_t capacity() const { return capacity_; }
  [[nodiscard]] std::size_t in_use() const { return top_; }
  /// Number of block (re)allocations the arena has performed.
  [[nodiscard]] std::size_t grow_count() const { return grow_count_; }
  /// Largest number of bytes ever simultaneously handed out.
  [[nodiscard]] std::size_t high_water() const { return high_water_; }

  /// RAII stack frame: blocks allocated through it are released (in bulk)
  /// when the frame is destroyed. Frames nest.
  class Frame {
   public:
    explicit Frame(WorkspaceArena& arena) : arena_(arena), base_(arena.top_) {}
    ~Frame() {
      // Re-poison everything this frame handed out: a pointer that
      // outlives its frame now faults under ASan instead of silently
      // reading whatever the next frame wrote there.
      arena_.poison_shadow(base_, arena_.top_);
      arena_.top_ = base_;
    }
    Frame(const Frame&) = delete;
    Frame& operator=(const Frame&) = delete;

    /// Hand out a line-aligned block of `elems` elements of T. Throws if
    /// the arena was not reserved large enough — growing here would
    /// invalidate previously returned pointers, so it is a caller bug, not
    /// a resize trigger. (The byte buffer's base is line-aligned and top_
    /// only moves in line multiples, so the plain void* conversion below
    /// is alignment-safe by construction, and no live object of another
    /// type is punned — the bug this replaced. Strictly, C++20 has no
    /// cast that BEGINS the T objects' lifetimes in raw storage; switch
    /// to std::start_lifetime_as_array when C++23 is available.)
    template <typename T>
    [[nodiscard]] T* alloc(std::size_t elems) {
      const std::size_t payload = elems * sizeof(T);
      const std::size_t need = aligned_bytes(payload);
      DMTK_CHECK(arena_.top_ + need <= arena_.capacity_,
                 "WorkspaceArena: frame exceeds reserved capacity");
      std::byte* p = arena_.buf_ + arena_.top_;
      // Unpoison exactly the payload; the line round-up tail stays
      // poisoned and is this block's redzone against the next carve-out.
      // (p is line-aligned, hence ASan-granule-aligned, by construction.)
      arena_.unpoison_shadow(arena_.top_, arena_.top_ + payload);
      arena_.top_ += need;
      arena_.high_water_ = std::max(arena_.high_water_, arena_.top_);
      return static_cast<T*>(static_cast<void*>(p));
    }

   private:
    WorkspaceArena& arena_;
    std::size_t base_;
  };

  WorkspaceArena() = default;
  ~WorkspaceArena() { release(); }
  WorkspaceArena(const WorkspaceArena&) = delete;
  WorkspaceArena& operator=(const WorkspaceArena&) = delete;

 private:
  /// Free the block. Hand it back clean first: ASan dislikes
  /// manually-poisoned bytes reaching the deallocator.
  void release() {
    if (buf_ == nullptr) return;
    unpoison_shadow(0, capacity_);
    buffer_free(buf_, capacity_);
    buf_ = nullptr;
    capacity_ = 0;
  }

  /// Shadow-memory helpers: no-ops outside DMTK_ASAN builds. `begin`/
  /// `end` are byte offsets into buf_.
  void poison_shadow(std::size_t begin, std::size_t end) const {
#if DMTK_ASAN
    if (end > begin)
      __asan_poison_memory_region(buf_ + begin, end - begin);
#else
    (void)begin;
    (void)end;
#endif
  }
  void unpoison_shadow(std::size_t begin, std::size_t end) const {
#if DMTK_ASAN
    if (end > begin)
      __asan_unpoison_memory_region(buf_ + begin, end - begin);
#else
    (void)begin;
    (void)end;
#endif
  }

  std::byte* buf_ = nullptr;  ///< line-aligned, from buffer_alloc
  std::size_t capacity_ = 0;
  std::size_t top_ = 0;
  std::size_t grow_count_ = 0;
  std::size_t high_water_ = 0;
};

/// Immutable execution configuration plus mutable scratch. Pass by const
/// reference (or via CpAlsOptions::exec); the arena is deliberately usable
/// through a const context — it is non-observable scratch state, which is
/// what lets drivers accept a `const ExecContext*` while plans still reuse
/// the workspace.
class ExecContext {
 public:
  /// Library-default thread count (util/env.hpp).
  ExecContext() : ExecContext(0) {}

  /// Pin the thread count; <= 0 resolves to the library default now.
  explicit ExecContext(int threads) : threads_(resolve_threads(threads)) {}

  [[nodiscard]] int threads() const { return threads_; }

  /// Partitioning policy: the contiguous block of `total` items owned by
  /// thread `t` of the context's team (the paper's thread decomposition).
  [[nodiscard]] Range partition(index_t total, int t) const {
    return block_range(total, threads_, t);
  }

  /// Largest block any thread receives under partition() — what plans use
  /// to size per-thread workspace tiles.
  [[nodiscard]] index_t max_block(index_t total) const {
    return partition(total, 0).size();
  }

  [[nodiscard]] WorkspaceArena& arena() const { return arena_; }

 private:
  int threads_;
  mutable WorkspaceArena arena_;
};

}  // namespace dmtk
