#pragma once
/// \file tensor_cache.hpp
/// \brief The server's resident tensors: dense files read once, shared by
/// every worker, LRU-evicted under an entry cap and a byte budget.
///
/// A served request used to re-read and re-checksum its file every time,
/// which made the read the largest part of a warm request. The cache keeps
/// the checked TensorT (with the ‖X‖² it carries from ingest) behind a
/// std::shared_ptr, so a repeat request pays one stat() and one lookup.
///
/// Key: the path, the file's st_dev, st_ino, st_size and st_mtim (in
/// nanoseconds), and the precision read. dmtk's writer replaces a file by
/// renaming a temp file over it, so a rewrite brings a new inode and a
/// touch a new mtime — either misses and is re-read with the full CRC
/// check. A file replaced while it is being read is served from that read
/// but not kept (its identity is checked again afterwards).
///
/// Bounds: `max_entries == 0` disables the cache (every get() reads). A
/// tensor larger than `max_bytes` is served but not kept. Eviction drops
/// the cache's reference only: a job holding the shared_ptr keeps its
/// tensor alive until it finishes.
///
/// Threading: one cache per server, shared by all workers. One mutex
/// guards the map, the LRU list and the counters; file reads happen
/// outside it. When two workers miss on one key at once, both read and
/// the first insert wins (the second is handed the resident tensor).

#include <cstddef>
#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <variant>

#include "core/tensor.hpp"
#include "util/mutex.hpp"

namespace dmtk::serve {

/// Snapshot of the tensor-cache counters.
struct TensorCacheStats {
  std::uint64_t hits = 0;
  std::uint64_t misses = 0;
  std::uint64_t evictions = 0;
  std::size_t entries = 0;
  std::size_t bytes = 0;
  std::size_t max_bytes = 0;
};

class TensorCache {
 public:
  TensorCache(std::size_t max_entries, std::size_t max_bytes)
      : max_entries_(max_entries), max_bytes_(max_bytes) {}

  TensorCache(const TensorCache&) = delete;
  TensorCache& operator=(const TensorCache&) = delete;

  /// The dense tensor at `path` read as T: the resident copy when the
  /// file's identity matches one, else a checked read (kept when it fits
  /// the budget). Throws io::IoError as io::read_tensor_as does.
  template <typename T>
  [[nodiscard]] std::shared_ptr<const TensorT<T>> get(const std::string& path);

  [[nodiscard]] TensorCacheStats stats() const;

 private:
  struct Entry {
    std::string key;
    std::variant<std::shared_ptr<const Tensor>, std::shared_ptr<const TensorF>>
        tensor;
    std::size_t bytes = 0;
  };

  const std::size_t max_entries_;
  const std::size_t max_bytes_;
  mutable Mutex mu_;
  std::list<Entry> lru_ DMTK_GUARDED_BY(mu_);  ///< front = most recent
  std::unordered_map<std::string, std::list<Entry>::iterator> index_
      DMTK_GUARDED_BY(mu_);
  std::size_t bytes_ DMTK_GUARDED_BY(mu_) = 0;
  std::uint64_t hits_ DMTK_GUARDED_BY(mu_) = 0;
  std::uint64_t misses_ DMTK_GUARDED_BY(mu_) = 0;
  std::uint64_t evictions_ DMTK_GUARDED_BY(mu_) = 0;
};

extern template std::shared_ptr<const Tensor> TensorCache::get<double>(
    const std::string&);
extern template std::shared_ptr<const TensorF> TensorCache::get<float>(
    const std::string&);

}  // namespace dmtk::serve
