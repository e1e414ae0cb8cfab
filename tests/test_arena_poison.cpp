/// \file test_arena_poison.cpp
/// \brief WorkspaceArena ASan shadow-poisoning: freed-frame and
/// past-payload accesses must die under AddressSanitizer, while every
/// legitimate arena pattern (zero-element allocs, one-big-alloc
/// sub-offset carving as gemm_batched row-splits do, frame reuse) stays
/// report-free. The accounting tests run in every build and pin down
/// that poisoning never changes sizing math — grow_count, in_use, and
/// high_water are byte-for-byte what the pure arithmetic predicts.

#include <gtest/gtest.h>

#include <cstddef>

#include "exec/exec_context.hpp"

namespace dmtk {
namespace {

/// Defeat dead-read elimination: the death tests only die if the read
/// actually happens.
double sink_read(const double* p) {
  const volatile double* vp = p;
  return *vp;
}

TEST(ArenaPoison, AllocatedPayloadFullyUsable) {
  WorkspaceArena arena;
  arena.reserve<double>(256);
  WorkspaceArena::Frame frame(arena);
  double* p = frame.alloc<double>(200);
  for (std::size_t i = 0; i < 200; ++i) p[i] = static_cast<double>(i);
  double sum = 0.0;
  for (std::size_t i = 0; i < 200; ++i) sum += p[i];
  EXPECT_DOUBLE_EQ(sum, 199.0 * 200.0 / 2.0);
}

TEST(ArenaPoison, SubOffsetCarvingStaysAddressable) {
  // The plan idiom: ONE alloc sized as a sum of aligned_count blocks,
  // carved by offset arithmetic (mttkrp_plan / gemm_batched row-splits).
  // Every interior byte is payload, so nothing in it may be poisoned.
  constexpr std::size_t kBlock = 37;  // deliberately not line-multiple
  const std::size_t stride = WorkspaceArena::aligned_count<double>(kBlock);
  constexpr int kThreads = 4;
  WorkspaceArena arena;
  arena.reserve<double>(stride * kThreads);
  WorkspaceArena::Frame frame(arena);
  double* base = frame.alloc<double>(stride * kThreads);
  for (int t = 0; t < kThreads; ++t) {
    double* slice = base + static_cast<std::size_t>(t) * stride;
    // The per-thread slice includes its aligned_count tail — inside the
    // single payload, that padding is addressable (redzones sit only
    // between SEPARATE alloc calls).
    for (std::size_t i = 0; i < stride; ++i) slice[i] = 1.0;
  }
  EXPECT_DOUBLE_EQ(sink_read(base + stride * kThreads - 1), 1.0);
}

TEST(ArenaPoison, ZeroElementAllocHarmless) {
  WorkspaceArena arena;
  arena.reserve<double>(64);
  WorkspaceArena::Frame frame(arena);
  double* z = frame.alloc<double>(0);
  (void)z;
  double* p = frame.alloc<double>(8);
  for (int i = 0; i < 8; ++i) p[i] = 2.0;
  EXPECT_DOUBLE_EQ(sink_read(p + 7), 2.0);
}

TEST(ArenaPoison, FrameReuseAfterRelease) {
  WorkspaceArena arena;
  arena.reserve<double>(128);
  {
    WorkspaceArena::Frame f1(arena);
    double* a = f1.alloc<double>(100);
    for (int i = 0; i < 100; ++i) a[i] = 3.0;
  }
  // The same bytes, re-carved by a fresh frame, must be usable again.
  WorkspaceArena::Frame f2(arena);
  double* b = f2.alloc<double>(100);
  for (int i = 0; i < 100; ++i) b[i] = 4.0;
  EXPECT_DOUBLE_EQ(sink_read(b + 99), 4.0);
}

TEST(ArenaPoison, PoisoningNeverChangesSizing) {
  // The shadow protocol must be invisible to the reservation math: these
  // numbers are the pure bump-arithmetic predictions, identical with and
  // without ASan.
  WorkspaceArena arena;
  arena.reserve_bytes(4096);
  EXPECT_EQ(arena.capacity(), 4096u);
  EXPECT_EQ(arena.grow_count(), 1u);
  {
    WorkspaceArena::Frame frame(arena);
    (void)frame.alloc<double>(3);  // 24B payload -> one 64B line
    EXPECT_EQ(arena.in_use(), WorkspaceArena::aligned_bytes(3 * sizeof(double)));
    (void)frame.alloc<float>(100);  // 400B payload -> 448B
    EXPECT_EQ(arena.in_use(), 64u + WorkspaceArena::aligned_bytes(400));
  }
  EXPECT_EQ(arena.in_use(), 0u);
  EXPECT_EQ(arena.high_water(), 64u + 448u);
  EXPECT_EQ(arena.grow_count(), 1u);  // allocs never grew the buffer
}

TEST(ArenaPoison, MappedBlockAboveTheCutKeepsTheSizingMath) {
  // A block of kLargeBufferBytes or more is its own mapping: poisoned
  // whole on reserve, carved and re-poisoned like any block, unpoisoned
  // before it is unmapped by the growth below and by the destructor.
  const std::size_t cap = kLargeBufferBytes + 4096;
  ASSERT_TRUE(is_large_buffer(cap));
  WorkspaceArena arena;
  arena.reserve_bytes(cap);
  EXPECT_EQ(arena.capacity(), cap);
  EXPECT_EQ(arena.grow_count(), 1u);
  const std::size_t n = kLargeBufferBytes / sizeof(double);
  {
    WorkspaceArena::Frame frame(arena);
    double* a = frame.alloc<double>(3);  // 24B payload -> one 64B line
    a[0] = a[2] = 1.0;
    double* b = frame.alloc<double>(n);
    b[0] = b[n - 1] = 2.0;
    EXPECT_DOUBLE_EQ(sink_read(b + n - 1), 2.0);
    EXPECT_EQ(arena.in_use(), 64u + kLargeBufferBytes);
  }
  EXPECT_EQ(arena.in_use(), 0u);
  EXPECT_EQ(arena.high_water(), 64u + kLargeBufferBytes);
  arena.reserve_bytes(2 * cap);  // unmaps the first block
  EXPECT_EQ(arena.capacity(), 2 * cap);
  EXPECT_EQ(arena.grow_count(), 2u);
  WorkspaceArena::Frame frame(arena);
  double* c = frame.alloc<double>(2 * n);
  c[2 * n - 1] = 3.0;
  EXPECT_DOUBLE_EQ(sink_read(c + 2 * n - 1), 3.0);
  EXPECT_EQ(arena.high_water(), 2 * kLargeBufferBytes);
}

#if DMTK_ASAN && defined(GTEST_HAS_DEATH_TEST) && GTEST_HAS_DEATH_TEST

using ArenaPoisonDeathTest = ::testing::Test;

TEST(ArenaPoisonDeathTest, ReadPastPayloadDies) {
  WorkspaceArena arena;
  arena.reserve<double>(64);
  WorkspaceArena::Frame frame(arena);
  // 3 doubles = 24B payload inside a 64B line: p[3] lands in the
  // poisoned round-up padding (the per-block redzone).
  double* p = frame.alloc<double>(3);
  p[0] = p[1] = p[2] = 1.0;
  EXPECT_DEATH({ (void)sink_read(p + 3); }, "use-after-poison");
}

TEST(ArenaPoisonDeathTest, ReadBeyondFrameTopDies) {
  WorkspaceArena arena;
  arena.reserve<double>(64);
  WorkspaceArena::Frame frame(arena);
  // 8 doubles fill the line exactly — no padding — so p[8] is the first
  // unallocated byte past the frame top.
  double* p = frame.alloc<double>(8);
  p[7] = 1.0;
  EXPECT_DEATH({ (void)sink_read(p + 8); }, "use-after-poison");
}

TEST(ArenaPoisonDeathTest, UseAfterFrameReleaseDies) {
  WorkspaceArena arena;
  arena.reserve<double>(64);
  double* stale = nullptr;
  {
    WorkspaceArena::Frame frame(arena);
    stale = frame.alloc<double>(8);
    stale[0] = 1.0;
  }
  EXPECT_DEATH({ (void)sink_read(stale); }, "use-after-poison");
}

#endif  // DMTK_ASAN && death tests

}  // namespace
}  // namespace dmtk
