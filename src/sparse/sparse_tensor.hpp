#pragma once
/// \file sparse_tensor.hpp
/// \brief Coordinate-format (COO) sparse tensor and sparse MTTKRP/CP-ALS.
///
/// The paper positions its dense algorithms against a rich sparse ecosystem
/// (SPLATT [23], AdaTM [15], Kaya & Ucar [12]) and argues dense tensors
/// deserve their own kernels. This module supplies the other side of that
/// comparison: the COO container, a SPLATT-style COO MTTKRP free function
/// (one fused Hadamard-accumulate per nonzero, thread-private outputs +
/// reduction — kept as the independent reference oracle), and the sparse
/// cp_als entry point. The driver itself runs through the plan layer: a
/// CpAlsSweepPlan with SweepScheme::SparseCsf (or SparseCoo) built on a
/// SparseMttkrpPlan (exec/sparse_mttkrp_plan.hpp), sharing the exact
/// grams/fit/stopping sweep loop of the dense drivers and executing
/// allocation-free from the context's arena once planned.
///
/// Like the dense core, the container is templated on the scalar type:
/// `SparseTensorT<float>` halves the bytes per nonzero the COO/CSF kernels
/// stream, which is exactly where a bandwidth-bound MTTKRP spends its time.
/// Both kernels accumulate in double regardless of the storage scalar, so
/// the fp32 path keeps the fp64 accumulation floor while moving half the
/// data. `SparseTensor` / `SparseTensorF` alias the two instantiations.

#include <type_traits>
#include <vector>

#include "core/cp_als.hpp"
#include "core/matrix.hpp"
#include "core/tensor.hpp"
#include "util/rng.hpp"

namespace dmtk::sparse {

/// COO sparse tensor, struct-of-arrays: coordinate list per mode plus a
/// value array. Duplicate coordinates are permitted and act additively
/// (as in most COO toolchains).
template <typename T>
class SparseTensorT {
 public:
  using value_type = T;

  SparseTensorT() = default;

  /// Empty tensor with the given mode sizes.
  explicit SparseTensorT(std::vector<index_t> dims);

  [[nodiscard]] index_t order() const {
    return static_cast<index_t>(dims_.size());
  }
  [[nodiscard]] index_t dim(index_t n) const {
    return dims_[static_cast<std::size_t>(n)];
  }
  [[nodiscard]] std::span<const index_t> dims() const { return dims_; }
  [[nodiscard]] index_t nnz() const {
    return static_cast<index_t>(values_.size());
  }
  /// Total positions (product of dims); density = nnz / numel.
  [[nodiscard]] index_t numel() const;

  /// Pre-size every per-mode coordinate array and the value array for
  /// `nnz` entries, so a bulk ingest (read_tns's two-pass load) appends
  /// without growth reallocations.
  void reserve(index_t nnz);

  /// Append a nonzero. Coordinates are bounds-checked.
  void push_back(std::span<const index_t> idx, T value);

  /// Coordinate of nonzero k in mode n.
  [[nodiscard]] index_t coord(index_t n, index_t k) const {
    return coords_[static_cast<std::size_t>(n)][static_cast<std::size_t>(k)];
  }
  [[nodiscard]] T value(index_t k) const {
    return values_[static_cast<std::size_t>(k)];
  }
  [[nodiscard]] std::span<const T> values() const { return values_; }

  /// Sum of squared values (== ||X||_F^2 since zeros contribute nothing).
  /// Accumulated in double for either scalar type, like TensorT::norm.
  [[nodiscard]] double norm_squared() const;
  /// Thread-count-taking overload so the shared ALS sweep loop can call
  /// X.norm_squared(nt) on dense and sparse tensors alike (the sparse sum
  /// is too small to parallelize; the argument is ignored).
  [[nodiscard]] double norm_squared(int /*threads*/) const {
    return norm_squared();
  }

  /// Drop every entry of a dense tensor with |x| <= threshold.
  static SparseTensorT from_dense(const TensorT<T>& X, double threshold = 0.0);

  /// Materialize densely (duplicates accumulate).
  [[nodiscard]] TensorT<T> to_dense() const;

  /// Uniform-random sparse tensor with `nnz` draws (coordinates i.i.d.,
  /// values uniform [0, 1)); duplicates possible and harmless.
  static SparseTensorT random(std::vector<index_t> dims, index_t nnz,
                              Rng& rng);

 private:
  std::vector<index_t> dims_;
  std::vector<std::vector<index_t>> coords_;  // [mode][nnz]
  std::vector<T> values_;
};

extern template class SparseTensorT<double>;
extern template class SparseTensorT<float>;

/// The library's default (double) sparse tensor and its fp32 sibling.
using SparseTensor = SparseTensorT<double>;
using SparseTensorF = SparseTensorT<float>;

/// Entrywise conversion between scalar types (fp64 -> fp32 rounds values;
/// coordinates are preserved exactly). The fp32 ingest path reads a .tns
/// (text values parse as double) and narrows with this.
template <typename To, typename From>
SparseTensorT<To> sparse_cast(const SparseTensorT<From>& X) {
  SparseTensorT<To> Y(std::vector<index_t>(X.dims().begin(), X.dims().end()));
  const index_t N = X.order();
  Y.reserve(X.nnz());
  std::vector<index_t> idx(static_cast<std::size_t>(N));
  for (index_t k = 0; k < X.nnz(); ++k) {
    for (index_t n = 0; n < N; ++n) {
      idx[static_cast<std::size_t>(n)] = X.coord(n, k);
    }
    Y.push_back(idx, static_cast<To>(X.value(k)));
  }
  return Y;
}

/// Sparse MTTKRP (SPLATT-style COO kernel): for each nonzero x at
/// (i_0,...,i_{N-1}),  M(i_mode, :) += x * (*)_{k != mode} U_k(i_k, :).
/// Parallelized over nonzeros with thread-private outputs + reduction; the
/// accumulators are double for either scalar. One-shot reference
/// implementation — hot loops should hold a SparseMttkrpPlan (or drive
/// CP-ALS through SweepScheme::SparseCsf).
template <typename T>
void mttkrp(const SparseTensorT<T>& X,
            std::span<const MatrixT<std::type_identity_t<T>>> factors,
            index_t mode, MatrixT<T>& M, int threads = 0);

extern template void mttkrp<double>(const SparseTensorT<double>&,
                                    std::span<const MatrixT<double>>, index_t,
                                    MatrixT<double>&, int);
extern template void mttkrp<float>(const SparseTensorT<float>&,
                                   std::span<const MatrixT<float>>, index_t,
                                   MatrixT<float>&, int);

/// CP-ALS over a sparse tensor; identical driver semantics to the dense
/// dmtk::cp_als (initialization, normalization, solve, fit, stopping —
/// literally the same detail::run_als_sweeps loop). The sweep's MTTKRPs
/// come from a CpAlsSweepPlan built on opts.sweep_scheme: Auto resolves
/// to SparseCsf; SparseCoo runs the plan-layer COO kernel (bitwise-equal
/// to the historical ad-hoc driver at equal thread counts); the dense
/// schemes are rejected. Both scalars are supported (the fp32 sweep keeps
/// fp64 accumulation in the kernels). opts.method is dense-only (ignored
/// here); opts.exec shares the arena.
template <typename T>
CpAlsResultT<T> cp_als(const SparseTensorT<T>& X,
                       const CpAlsOptionsT<T>& opts);

extern template CpAlsResultT<double> cp_als<double>(
    const SparseTensorT<double>&, const CpAlsOptionsT<double>&);
extern template CpAlsResultT<float> cp_als<float>(const SparseTensorT<float>&,
                                                  const CpAlsOptionsT<float>&);

}  // namespace dmtk::sparse
