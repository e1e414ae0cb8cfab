#pragma once
/// \file aligned_alloc.hpp
/// \brief Cache-line-aligned storage: the STL allocator for Matrix storage
/// and the one buffer path for tensors and workspace arenas.
///
/// Large buffers. A buffer of at least kLargeBufferBytes (32 MiB) is its
/// own anonymous private mapping, advised for transparent huge pages and
/// returned to the kernel when freed; a smaller one is an aligned
/// `operator new` block from the heap. Only src/util/aligned_alloc.cpp
/// talks to the kernel (a dmtk_lint rule keeps it so). A mapping
/// is 64-byte aligned (page aligned) and arrives zero-filled, which is why
/// TensorT(dims) writes no zeros into one and the file reader writes
/// straight into it. Backed by 2 MiB pages, reading a 179 MB tensor takes
/// 877 page faults instead of 43,801. Where THP is off, the advice does
/// nothing, and only the skipped zero-fill remains.

#include <cstddef>
#include <cstdlib>
#include <new>
#include <utility>

namespace dmtk {

/// Default alignment for numeric buffers: one x86 cache line, which also
/// satisfies AVX-512 load alignment.
inline constexpr std::size_t kDefaultAlignment = 64;

/// Smallest buffer that buffer_alloc maps on its own. It is glibc's
/// DEFAULT_MMAP_THRESHOLD_MAX on 64-bit: above it glibc already gives every
/// allocation a fresh mapping, so mapping it here changes only the page
/// size and drops a redundant zero-fill. A 1 MiB cut was measured and
/// rejected: it moved the served 6.0 / 10.2 MB tensors off the heap and
/// slowed in-process team sweeps over them by 11-14%.
inline constexpr std::size_t kLargeBufferBytes = std::size_t{32} << 20;

/// True when buffer_alloc(bytes) maps the buffer (so it arrives zeroed).
[[nodiscard]] constexpr bool is_large_buffer(std::size_t bytes) {
  return bytes >= kLargeBufferBytes;
}

/// Uninitialised kDefaultAlignment-aligned storage for `bytes` > 0 bytes
/// (mapped and zeroed if is_large_buffer(bytes), heap otherwise). Throws
/// std::bad_alloc on failure; the huge-page advice never fails it.
[[nodiscard]] void* buffer_alloc(std::size_t bytes);

/// Free a buffer_alloc block; `bytes` must be the size it was asked for.
void buffer_free(void* p, std::size_t bytes) noexcept;

/// Minimal aligned allocator. Used by Matrix storage so BLAS kernels may
/// assume aligned, non-overlapping buffers.
template <typename T, std::size_t Alignment = kDefaultAlignment>
class AlignedAllocator {
 public:
  using value_type = T;
  static constexpr std::align_val_t kAlign{Alignment};

  AlignedAllocator() noexcept = default;
  template <typename U>
  AlignedAllocator(const AlignedAllocator<U, Alignment>&) noexcept {}

  template <typename U>
  struct rebind {
    using other = AlignedAllocator<U, Alignment>;
  };

  [[nodiscard]] T* allocate(std::size_t n) {
    if (n == 0) return nullptr;
    return static_cast<T*>(::operator new(n * sizeof(T), kAlign));
  }

  void deallocate(T* p, std::size_t) noexcept { ::operator delete(p, kAlign); }

  friend bool operator==(const AlignedAllocator&, const AlignedAllocator&) {
    return true;
  }
};

/// Tensor storage allocator: buffer_alloc blocks, and a vector resized
/// without a value leaves its elements default-initialised (unwritten),
/// so the owner decides which bytes need a fill.
template <typename T>
class BufferAllocator {
 public:
  using value_type = T;

  BufferAllocator() noexcept = default;
  template <typename U>
  BufferAllocator(const BufferAllocator<U>&) noexcept {}

  [[nodiscard]] T* allocate(std::size_t n) {
    if (n == 0) return nullptr;
    return static_cast<T*>(buffer_alloc(n * sizeof(T)));
  }

  void deallocate(T* p, std::size_t n) noexcept {
    if (p != nullptr) buffer_free(p, n * sizeof(T));
  }

  /// Default-initialise on value-less construction; forward otherwise.
  template <typename U, typename... Args>
  void construct(U* p, Args&&... args) {
    if constexpr (sizeof...(Args) == 0) {
      ::new (static_cast<void*>(p)) U;
    } else {
      ::new (static_cast<void*>(p)) U(std::forward<Args>(args)...);
    }
  }

  friend bool operator==(const BufferAllocator&, const BufferAllocator&) {
    return true;
  }
};

}  // namespace dmtk
