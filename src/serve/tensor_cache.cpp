#include "serve/tensor_cache.hpp"

#include <sys/stat.h>

#include <type_traits>

#include "io/tensor_io.hpp"

namespace dmtk::serve {

namespace {

/// The cache key of `path` read in one precision: what a rewrite or a
/// touch of the file changes. Empty when the path cannot be stat'ed (the
/// read then reports why).
std::string identity_of(const std::string& path, bool f32) {
  struct stat st {};
  if (::stat(path.c_str(), &st) != 0) return {};
  const auto mtime_ns = static_cast<std::int64_t>(st.st_mtim.tv_sec) *
                            1'000'000'000 +
                        st.st_mtim.tv_nsec;
  return path + "|dev=" + std::to_string(st.st_dev) +
         "|ino=" + std::to_string(st.st_ino) +
         "|size=" + std::to_string(st.st_size) +
         "|mtime_ns=" + std::to_string(mtime_ns) + (f32 ? "|f32" : "|f64");
}

}  // namespace

template <typename T>
std::shared_ptr<const TensorT<T>> TensorCache::get(const std::string& path) {
  using Ptr = std::shared_ptr<const TensorT<T>>;
  const auto read = [&] {
    return std::make_shared<const TensorT<T>>(io::read_tensor_as<T>(path));
  };
  if (max_entries_ == 0) return read();
  const std::string key = identity_of(path, std::is_same_v<T, float>);
  if (key.empty()) return read();
  {
    LockGuard lk(mu_);
    if (const auto it = index_.find(key); it != index_.end()) {
      ++hits_;
      lru_.splice(lru_.begin(), lru_, it->second);
      return std::get<Ptr>(it->second->tensor);
    }
    ++misses_;
  }

  Ptr X = read();
  const std::size_t bytes = static_cast<std::size_t>(X->numel()) * sizeof(T);
  // Over budget, or replaced while it was read: served, not kept.
  if (bytes > max_bytes_ ||
      identity_of(path, std::is_same_v<T, float>) != key) {
    return X;
  }
  LockGuard lk(mu_);
  if (const auto it = index_.find(key); it != index_.end()) {
    // Another worker's read of the same file landed first.
    lru_.splice(lru_.begin(), lru_, it->second);
    return std::get<Ptr>(it->second->tensor);
  }
  lru_.push_front(Entry{key, X, bytes});
  index_.emplace(key, lru_.begin());
  bytes_ += bytes;
  // The new entry fits both bounds on its own, so it is never the victim.
  while (lru_.size() > max_entries_ || bytes_ > max_bytes_) {
    const Entry& victim = lru_.back();
    bytes_ -= victim.bytes;
    ++evictions_;
    index_.erase(victim.key);
    lru_.pop_back();
  }
  return X;
}

TensorCacheStats TensorCache::stats() const {
  LockGuard lk(mu_);
  TensorCacheStats s;
  s.hits = hits_;
  s.misses = misses_;
  s.evictions = evictions_;
  s.entries = lru_.size();
  s.bytes = bytes_;
  s.max_bytes = max_bytes_;
  return s;
}

template std::shared_ptr<const Tensor> TensorCache::get<double>(
    const std::string&);
template std::shared_ptr<const TensorF> TensorCache::get<float>(
    const std::string&);

}  // namespace dmtk::serve
