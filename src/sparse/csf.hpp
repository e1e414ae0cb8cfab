#pragma once
/// \file csf.hpp
/// \brief Compressed sparse fiber (CSF) tensor: the SPLATT-style [23]
/// hierarchical format the paper positions its dense kernels against.
///
/// A CSF tensor stores the nonzeros of a sparse tensor as a forest: one
/// tree level per mode (in a caller-chosen mode order), where a node at
/// level l represents one distinct coordinate prefix (i_{perm[0]}, ...,
/// i_{perm[l]}). Runs of nonzeros sharing a prefix collapse into one node,
/// so the per-nonzero Hadamard work of a COO kernel is replaced by
/// per-fiber work shared through the tree — the sparse analogue of the
/// dimension tree's partial-contraction reuse.
///
/// Construction sorts the coordinates lexicographically in `perm` order and
/// compresses fibers in one pass. **Duplicate coordinates merge
/// additively** during that pass — the same semantics as
/// SparseTensor::push_back / to_dense, so a CSF MTTKRP and a COO MTTKRP of
/// the same tensor agree even when the coordinate list repeats entries
/// (a merged value of exactly 0 is kept, not dropped). This is done once
/// at plan time; the result is immutable.
///
/// The MTTKRP kernel here is the root-mode algorithm: with the target mode
/// at the root, each root node owns one output row, so threads that split
/// the root nodes write disjoint rows of M and need no private output
/// copies — only O(order x rank) scratch per thread.
///
/// Both scalar instantiations (`CsfTensor` = double, `CsfTensorF` = float)
/// share the same tree layout; only the leaf values change width. The
/// kernel's per-level scratch stays fp64 for either scalar, so fp32 storage
/// accumulates at the fp64 floor while streaming half the value/factor
/// bytes.

#include <span>
#include <vector>

#include "core/matrix.hpp"
#include "sparse/sparse_tensor.hpp"
#include "util/parallel.hpp"

namespace dmtk::sparse {

/// Immutable CSF representation of a SparseTensorT<T> for one mode order.
template <typename T>
class CsfTensorT {
 public:
  using value_type = T;

  CsfTensorT() = default;

  /// Build from X with mode order `perm` (perm[0] is the root level).
  /// Sorts, merges duplicate coordinates additively, and compresses
  /// fibers — the plan-time cost the MTTKRP amortizes across sweeps.
  static CsfTensorT build(const SparseTensorT<T>& X,
                          std::vector<index_t> perm);

  /// The standard per-mode ordering: `root` first, then the remaining
  /// modes by ascending extent (ties keep the lower mode index first) —
  /// short fibers near the root maximize prefix sharing below it.
  static std::vector<index_t> root_first_perm(std::span<const index_t> dims,
                                              index_t root);

  [[nodiscard]] index_t order() const {
    return static_cast<index_t>(dims_.size());
  }
  [[nodiscard]] std::span<const index_t> dims() const { return dims_; }
  [[nodiscard]] index_t dim(index_t n) const {
    return dims_[static_cast<std::size_t>(n)];
  }
  /// Mode order; level l of the tree indexes mode perm()[l].
  [[nodiscard]] std::span<const index_t> perm() const { return perm_; }
  [[nodiscard]] index_t root_mode() const { return perm_[0]; }

  /// Distinct coordinates stored (<= the source nnz when it held
  /// duplicates; exact leaf count).
  [[nodiscard]] index_t nnz() const {
    return static_cast<index_t>(values_.size());
  }
  /// Node count at level l (level 0 = root slices, order()-1 = leaves).
  [[nodiscard]] index_t nodes(index_t l) const {
    return static_cast<index_t>(fids_[static_cast<std::size_t>(l)].size());
  }
  /// Coordinate (in mode perm()[l]) of each node at level l, fiber order.
  [[nodiscard]] std::span<const index_t> fids(index_t l) const {
    return fids_[static_cast<std::size_t>(l)];
  }
  /// CSR-style child offsets of level l (valid for l < order()-1, size
  /// nodes(l)+1): node j's children at level l+1 are [ptr[j], ptr[j+1]).
  [[nodiscard]] std::span<const index_t> ptr(index_t l) const {
    return ptr_[static_cast<std::size_t>(l)];
  }
  /// Leaf values, aligned with fids(order()-1).
  [[nodiscard]] std::span<const T> values() const { return values_; }

 private:
  std::vector<index_t> dims_;
  std::vector<index_t> perm_;
  std::vector<std::vector<index_t>> fids_;  // [level][node]
  std::vector<std::vector<index_t>> ptr_;   // [level][node + 1], levels 0..N-2
  std::vector<T> values_;
};

extern template class CsfTensorT<double>;
extern template class CsfTensorT<float>;

/// The default (double) CSF tensor and its fp32 sibling.
using CsfTensor = CsfTensorT<double>;
using CsfTensorF = CsfTensorT<float>;

/// Number of fp64 accumulator slots one thread of the root-mode CSF MTTKRP
/// needs (cache-line padded per level); what SparseMttkrpPlan reserves per
/// thread. The scratch is double for either storage scalar — the kernel
/// accumulates in fp64 and rounds once on the output store.
[[nodiscard]] std::size_t csf_mttkrp_scratch_accums(index_t order,
                                                    index_t rank);

/// Root-mode CSF MTTKRP over root nodes [range.begin, range.end): for each
/// root node r there, OVERWRITE row fids(0)[r] of M with
///   sum over nonzeros below r of  x * (*)_{l > 0} U_{perm[l]}(i_{perm[l]}, :).
/// Root fids are distinct, so disjoint ranges write disjoint rows — the
/// caller zeroes M once and splits the roots across threads. `scratch`
/// must hold csf_mttkrp_scratch_accums(order, rank) doubles per call.
template <typename T>
void csf_mttkrp_root_range(const CsfTensorT<T>& T_,
                           std::span<const MatrixT<T>> factors, MatrixT<T>& M,
                           Range range, double* scratch);

extern template void csf_mttkrp_root_range<double>(
    const CsfTensorT<double>&, std::span<const MatrixT<double>>,
    MatrixT<double>&, Range, double*);
extern template void csf_mttkrp_root_range<float>(
    const CsfTensorT<float>&, std::span<const MatrixT<float>>, MatrixT<float>&,
    Range, double*);

}  // namespace dmtk::sparse
