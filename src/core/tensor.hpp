#pragma once
/// \file tensor.hpp
/// \brief Dense N-way tensor stored in the paper's "natural linearization"
/// (generalized column-major: mode 0 varies fastest, Section 2.1). All
/// MTTKRP algorithms in this library operate on this single layout and never
/// reorder entries; the matricization accessors below expose the implicit
/// matrix structures of Figure 2:
///   - X(0)      is column-major (In x I/I0, ld = I0),
///   - X(N-1)    is row-major,
///   - X(n)      for internal n is I_Rn contiguous row-major blocks of size
///               I_n x I_Ln,
///   - X(0:n)    (multi-mode row matricization) is column-major.
///
/// The container is templated on the scalar type: TensorT<double> is the
/// default compute type and TensorT<float> halves the bytes every
/// bandwidth-bound kernel moves (the paper's algorithms are bandwidth-bound,
/// so fp32 buys ~2x on fit-insensitive loads). `Tensor` and `TensorF` alias
/// the two instantiations; norms accumulate in double for either scalar.
///
/// A tensor read from a file carries its ‖X‖², summed while the checked
/// read streamed the data in, so CP-ALS and Tucker make no pass of their
/// own over X for it. Any non-const access drops the carried value.
///
/// Storage comes from util/aligned_alloc.hpp's buffer path: 64-byte
/// aligned, and storage of 32 MiB or more (a 162³ f64 tensor or larger) is
/// its own huge-page-advised mapping; 32 MiB is where glibc maps a buffer
/// on its own anyway (see kLargeBufferBytes). TensorT(dims) is zero-filled,
/// with no write at all into a mapping (the kernel hands it out zeroed);
/// the file reader skips the fill, since it writes every element before
/// anyone reads one.

#include <filesystem>
#include <optional>
#include <span>
#include <vector>

#include "util/aligned_alloc.hpp"
#include "util/common.hpp"
#include "util/rng.hpp"

namespace dmtk {

template <typename T>
class TensorT;

namespace io {
template <typename T>
TensorT<T> read_tensor_as(const std::filesystem::path& path);
}  // namespace io

template <typename T>
class TensorT {
 public:
  using value_type = T;

  /// Empty 0-way tensor.
  TensorT() = default;

  /// Tensor with the given mode sizes, zero-initialized.
  explicit TensorT(std::vector<index_t> dims);

  /// Number of modes N.
  [[nodiscard]] index_t order() const {
    return static_cast<index_t>(dims_.size());
  }

  /// Size of mode n (I_n).
  [[nodiscard]] index_t dim(index_t n) const {
    return dims_[static_cast<std::size_t>(n)];
  }

  [[nodiscard]] std::span<const index_t> dims() const { return dims_; }

  /// Total number of entries I = prod I_n.
  [[nodiscard]] index_t numel() const { return numel_; }

  /// I_Ln = prod_{k < n} I_k (product of modes to the LEFT of n). This is
  /// also the linearization stride of mode n.
  [[nodiscard]] index_t left_size(index_t n) const {
    return strides_[static_cast<std::size_t>(n)];
  }

  /// I_Rn = prod_{k > n} I_k (product of modes to the RIGHT of n).
  [[nodiscard]] index_t right_size(index_t n) const {
    return numel_ == 0 ? 0 : numel_ / (strides_[static_cast<std::size_t>(n)] *
                                       dims_[static_cast<std::size_t>(n)]);
  }

  /// I_{!=n} = I / I_n, the number of mode-n fibers (columns of X(n)).
  [[nodiscard]] index_t cosize(index_t n) const {
    return numel_ == 0 ? 0 : numel_ / dims_[static_cast<std::size_t>(n)];
  }

  /// Linear index of a multi-index (mode 0 fastest).
  [[nodiscard]] index_t linear_index(std::span<const index_t> idx) const {
    DMTK_CHECK(idx.size() == dims_.size(), "linear_index: order mismatch");
    index_t l = 0;
    for (std::size_t n = 0; n < dims_.size(); ++n) l += idx[n] * strides_[n];
    return l;
  }

  // Every non-const accessor drops the carried ‖X‖²: the caller may write.
  T& operator[](index_t l) {
    norm2_.reset();
    return data_[static_cast<std::size_t>(l)];
  }
  T operator[](index_t l) const {
    return data_[static_cast<std::size_t>(l)];
  }

  T& operator()(std::span<const index_t> idx) {
    norm2_.reset();
    return data_[static_cast<std::size_t>(linear_index(idx))];
  }
  T operator()(std::span<const index_t> idx) const {
    return data_[static_cast<std::size_t>(linear_index(idx))];
  }

  [[nodiscard]] T* data() {
    norm2_.reset();
    return data_.data();
  }
  [[nodiscard]] const T* data() const { return data_.data(); }
  [[nodiscard]] std::span<T> span() {
    norm2_.reset();
    return {data_.data(), data_.size()};
  }
  [[nodiscard]] std::span<const T> span() const {
    return {data_.data(), data_.size()};
  }

  /// Pointer to the j-th natural block of X(n): an I_n x I_Ln row-major
  /// submatrix (leading dimension I_Ln), j in [0, I_Rn). See Figure 2.
  [[nodiscard]] const T* mode_block(index_t n, index_t j) const {
    return data_.data() + static_cast<std::size_t>(
                              j * left_size(n) * dim(n));
  }

  void set_zero() {
    norm2_.reset();
    std::fill(data_.begin(), data_.end(), T{0});
  }

  /// Frobenius norm (the residual-norm term of CP-ALS needs this once per
  /// decomposition); sqrt of norm_squared(), with the same guarantee.
  [[nodiscard]] double norm(int threads = 0) const;

  /// Sum of squares of all entries, accumulated in double for either
  /// scalar type: the value carried in from the file read when there is
  /// one, else a util::sumsq pass on `threads` threads. The summation
  /// order is fixed by each entry's position alone (util/sumsq.hpp), so
  /// the result is bitwise the same for every thread count, run to run,
  /// and whether it was carried or computed.
  [[nodiscard]] double norm_squared(int threads = 0) const;

  /// Max absolute entrywise difference; shapes must match.
  [[nodiscard]] double max_abs_diff(const TensorT& other) const;

  /// Tensor with i.i.d. uniform [0,1) entries.
  static TensorT random_uniform(std::vector<index_t> dims, Rng& rng);

  /// Tensor with i.i.d. standard normal entries.
  static TensorT random_normal(std::vector<index_t> dims, Rng& rng);

 private:
  std::vector<index_t> dims_;
  std::vector<index_t> strides_;  // strides_[n] = prod_{k<n} dims_[k] = I_Ln
  index_t numel_ = 0;
  std::vector<T, BufferAllocator<T>> data_;
  /// ‖X‖² summed by the checked read; set nowhere else, dropped by every
  /// non-const accessor. Copies and moves keep it.
  std::optional<double> norm2_;

  /// Storage left unwritten, for callers that write every element.
  struct Uninitialized {};
  TensorT(std::vector<index_t> dims, Uninitialized);

  friend TensorT io::read_tensor_as<T>(const std::filesystem::path& path);
};

extern template class TensorT<double>;
extern template class TensorT<float>;

/// The library's default (double) tensor and its fp32 sibling.
using Tensor = TensorT<double>;
using TensorF = TensorT<float>;

/// Entrywise conversion between scalar types (fp64 -> fp32 rounds).
template <typename To, typename From>
TensorT<To> tensor_cast(const TensorT<From>& X) {
  TensorT<To> Y(std::vector<index_t>(X.dims().begin(), X.dims().end()));
  const From* src = X.data();
  To* dst = Y.data();
  for (index_t l = 0; l < X.numel(); ++l) {
    dst[static_cast<std::size_t>(l)] =
        static_cast<To>(src[static_cast<std::size_t>(l)]);
  }
  return Y;
}

}  // namespace dmtk
