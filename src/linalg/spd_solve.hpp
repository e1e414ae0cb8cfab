#pragma once
/// \file spd_solve.hpp
/// \brief Right-solve against a symmetric positive (semi-)definite system:
/// the exact operation CP-ALS performs per factor update, U_n = M H^dagger
/// (Section 2.2 of the paper). Fast path is Cholesky; the fallback computes
/// a truncated eigen pseudo-inverse so rank-deficient H (e.g. duplicate
/// factor columns) is still handled, matching Matlab's pinv-based updates.
/// Templated on the scalar type; the fp32 instantiation promotes to double
/// for the (rare) eigen fallback, whose Jacobi sweeps stay double-only.

#include <span>

#include "util/common.hpp"

namespace dmtk::linalg {

/// Diagnostics for a solve.
struct SpdSolveInfo {
  bool used_cholesky = true;  ///< false when the eigen pseudo-inverse ran
  index_t rank = 0;           ///< numerical rank used (n for Cholesky)
};

/// M <- M * H^dagger, where H is a column-major symmetric PSD n x n matrix
/// and M is column-major m x n. H is destroyed (used as factorization
/// workspace). `hcopy` is caller-owned scratch of at least n * n doubles
/// for the pristine copy of H the fallback needs; when it is empty the
/// solve allocates its own. With it, the Cholesky path allocates nothing
/// (the rare pseudo-inverse fallback still does). Returns diagnostics.
template <typename T>
SpdSolveInfo spd_solve_right(index_t n, T* H, index_t ldh, index_t m,
                             T* M, index_t ldm, int threads = 0,
                             std::span<double> hcopy = {});

extern template SpdSolveInfo spd_solve_right<double>(index_t, double*,
                                                     index_t, index_t,
                                                     double*, index_t, int,
                                                     std::span<double>);
extern template SpdSolveInfo spd_solve_right<float>(index_t, float*, index_t,
                                                    index_t, float*, index_t,
                                                    int, std::span<double>);

}  // namespace dmtk::linalg
