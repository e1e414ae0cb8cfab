#include "util/aligned_alloc.hpp"

#include <sys/mman.h>

namespace dmtk {

void* buffer_alloc(std::size_t bytes) {
  if (!is_large_buffer(bytes))
    return ::operator new(bytes, std::align_val_t{kDefaultAlignment});
  void* p = ::mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
  if (p == MAP_FAILED) throw std::bad_alloc();
  // Advice only: where THP is off or unsupported this fails or does
  // nothing, and the small-page mapping is just as good a buffer.
  (void)::madvise(p, bytes, MADV_HUGEPAGE);
  return p;
}

void buffer_free(void* p, std::size_t bytes) noexcept {
  if (!is_large_buffer(bytes)) {
    ::operator delete(p, std::align_val_t{kDefaultAlignment});
    return;
  }
  ::munmap(p, bytes);
}

}  // namespace dmtk
