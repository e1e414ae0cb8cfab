#pragma once
/// \file krp_detail.hpp
/// \brief The allocation-free core of the row-wise Khatri-Rao generation
/// (Algorithm 1), shared by the legacy free functions in krp.cpp and the
/// plan-based kernels in exec/mttkrp_plan.cpp. All scratch is caller-owned,
/// so MttkrpPlan can point it at its workspace arena while krp.cpp wraps it
/// with transient buffers. Templated on the scalar type like the rest of
/// the numeric core.

#include <algorithm>
#include <cstddef>
#include <span>
#include <vector>

#include "blas/level1.hpp"
#include "core/matrix.hpp"
#include "core/multi_index.hpp"
#include "util/aligned_alloc.hpp"
#include "util/common.hpp"
#include "util/parallel.hpp"

namespace dmtk::detail {

/// out[c] = F(l, c) for c in [0, C): read one (strided) row of a factor.
template <typename T>
inline void load_row(const MatrixT<T>& F, index_t l, index_t C, T* out) {
  const T* base = F.data() + l;
  const index_t ld = F.ld();
  for (index_t c = 0; c < C; ++c) out[c] = base[c * ld];
}

/// out[c] = a[c] * F(l, c): Hadamard of a contiguous vector with a factor
/// row.
template <typename T>
inline void hadamard_row(const T* a, const MatrixT<T>& F, index_t l,
                         index_t C, T* out) {
  const T* base = F.data() + l;
  const index_t ld = F.ld();
  for (index_t c = 0; c < C; ++c) out[c] = a[c] * base[c * ld];
}

/// Advance a last-fastest mixed-radix counter by one; returns the number of
/// digits that changed (0 on wraparound past the end) — the Odometer
/// contract of multi_index.hpp, on caller-owned digit storage.
inline int odo_increment(std::span<const index_t> extents, index_t* dg) {
  const int Z = static_cast<int>(extents.size());
  for (int d = 0; d < Z; ++d) {
    const std::size_t pos = static_cast<std::size_t>(Z - 1 - d);
    if (++dg[pos] < extents[pos]) return d + 1;
    dg[pos] = 0;
  }
  return 0;
}

/// The mixed-radix digits (odometers) of a plan's KRP blocks, one block's
/// on whole 64-byte lines of its own. krp_rows_ws writes a block's digits
/// on every KRP row it forms, so digits packed at a stride of Z elements
/// put 2-4 team members' odometers on one line, and every row's write
/// invalidated that line in the other cores (false sharing): 4 threads
/// each forming 2070 rows of a 91 x 91 rank-16 KRP took 43-146 us per
/// thread that way (medians of 51 runs, 4-core AVX-512 Xeon), against
/// 9-20 us on lines of their own. Sized once, when the plan is built; the
/// blocks never allocate.
class BlockDigits {
 public:
  BlockDigits() = default;
  /// Room for `blocks` blocks of `digits` digits each.
  BlockDigits(int blocks, std::size_t digits)
      : stride_(std::max<std::size_t>(1, (digits + kPerLine - 1) / kPerLine) *
                kPerLine),
        dg_(static_cast<std::size_t>(blocks) * stride_, 0) {}

  /// Block b's digits: line-aligned, and on no line another block uses.
  [[nodiscard]] index_t* block(int b) {
    return dg_.data() + static_cast<std::size_t>(b) * stride_;
  }

 private:
  static constexpr std::size_t kPerLine = kDefaultAlignment / sizeof(index_t);
  std::size_t stride_ = 0;
  std::vector<index_t, AlignedAllocator<index_t>> dg_;
};

/// Rows [r0, r1) of the KRP of packed transposed factor panels (each
/// packed[z] is a C x extents[z] column-major panel whose column l is row l
/// of factor z), written as columns of Kt (ld = ldkt). Algorithm 1 with
/// reuse of the Z-2 partial Hadamard products. Caller-owned scratch: `P`
/// holds the partials (C elements each, (Z-2) of them when Z >= 3), `dg`
/// the Z mixed-radix digits, written on every row: a planned block passes
/// its BlockDigits::block so no other block's writes share its line.
/// Nothing is allocated.
template <typename T>
inline void krp_rows_ws(std::span<const T* const> packed,
                        std::span<const index_t> extents, index_t C,
                        index_t r0, index_t r1, T* Kt, index_t ldkt,
                        T* P, index_t* dg) {
  const std::size_t Z = extents.size();
  if (r0 >= r1 || Z == 0) return;
  decompose_last_fastest(r0, extents, {dg, Z});

  if (Z <= 2) {
    // No partial products to reuse; one copy + (Z-1) Hadamards per row.
    for (index_t r = r0; r < r1; ++r) {
      T* out = Kt + (r - r0) * ldkt;
      blas::copy(C, packed[0] + dg[0] * C, index_t{1}, out, index_t{1});
      for (std::size_t z = 1; z < Z; ++z) {
        blas::hadamard_inplace(C, packed[z] + dg[z] * C, out);
      }
      odo_increment(extents, dg);
    }
    return;
  }

  // Algorithm 1: P(0) = F0(l0)*F1(l1), P(z) = P(z-1)*F_{z+1}(l_{z+1}).
  auto refresh_partials = [&](std::size_t from_z) {
    for (std::size_t z = from_z; z + 2 < Z; ++z) {
      T* pz = P + static_cast<index_t>(z) * C;
      if (z == 0) {
        blas::hadamard(C, packed[0] + dg[0] * C, packed[1] + dg[1] * C, pz);
      } else {
        blas::hadamard(C, P + static_cast<index_t>(z - 1) * C,
                       packed[z + 1] + dg[z + 1] * C, pz);
      }
    }
  };
  refresh_partials(0);

  for (index_t r = r0; r < r1; ++r) {
    // Output row = deepest partial product * last factor row.
    blas::hadamard(C, P + static_cast<index_t>(Z - 3) * C,
                   packed[Z - 1] + dg[Z - 1] * C, Kt + (r - r0) * ldkt);
    const int changed = odo_increment(extents, dg);
    // Digit Z-1 (the fastest) does not participate in P; if any slower
    // digit moved, partials from z = Z-1-changed on are stale.
    if (changed > 1 && r + 1 < r1) {
      const std::size_t first_stale = static_cast<std::size_t>(
          std::max<index_t>(0, static_cast<index_t>(Z) - 1 - changed));
      refresh_partials(first_stale);
    }
  }
}

/// Pack one factor transposed into a caller-owned C x F.rows() column-major
/// panel whose column l is row l of F — the layout krp_rows_ws reads.
template <typename T>
inline void pack_factor_transposed(const MatrixT<T>& F, index_t C, T* P) {
  for (index_t c = 0; c < C; ++c) {
    const T* col = F.col(c).data();
    T* out = P + c;
    for (index_t r = 0; r < F.rows(); ++r) out[r * C] = col[r];
  }
}

/// Parallel transposed-KRP generation over `planned` contiguous row blocks
/// into Kt (C x rows, ld = C), strided by the actual team size so a
/// smaller-than-planned OpenMP team (nested parallelism, thread limits)
/// still produces every block with its planned scratch slot: block b uses
/// P_base + b * p_stride partial-Hadamard elements (p_stride line-rounded)
/// and digits.block(b), which holds at least extents.size() digits for
/// each of the `planned` blocks. Shared by MttkrpPlan and DimTreeT.
template <typename T>
inline void krp_transposed_blocks(std::span<const T* const> packed,
                                  std::span<const index_t> extents, index_t C,
                                  index_t rows, int planned, T* Kt,
                                  T* P_base, std::size_t p_stride,
                                  BlockDigits& digits) {
  parallel_region(planned, [&](int t, int nteam) {
    for (int b = t; b < planned; b += nteam) {
      const std::size_t sb = static_cast<std::size_t>(b);
      const Range r = block_range(rows, planned, b);
      if (r.empty()) continue;
      krp_rows_ws<T>(packed, extents, C, r.begin, r.end, Kt + r.begin * C, C,
                     P_base + sb * p_stride, digits.block(b));
    }
  });
}

}  // namespace dmtk::detail
