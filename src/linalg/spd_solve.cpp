#include "linalg/spd_solve.hpp"

#include <cmath>
#include <type_traits>
#include <vector>

#include "blas/gemm.hpp"
#include "linalg/cholesky.hpp"
#include "linalg/jacobi_eig.hpp"

namespace dmtk::linalg {

template <typename T>
SpdSolveInfo spd_solve_right(index_t n, T* H, index_t ldh, index_t m,
                             T* M, index_t ldm, int threads,
                             std::span<double> hcopy) {
  DMTK_CHECK(n >= 0 && m >= 0, "spd_solve_right: negative dims");
  SpdSolveInfo info;
  if (n == 0 || m == 0) return info;

  // Keep a pristine double copy for the fallback; cholesky_factor clobbers
  // H. The Jacobi eigensolver is double-only, so the fp32 instantiation
  // promotes here (the fallback is the rare rank-deficient path — its cost
  // is dwarfed by the sweep, and extra precision only helps a truncated
  // pseudo-inverse).
  const std::size_t nn = static_cast<std::size_t>(n * n);
  std::vector<double> own;
  if (hcopy.empty()) {
    own.resize(nn);
    hcopy = own;
  }
  DMTK_CHECK(hcopy.size() >= nn, "spd_solve_right: hcopy too small");
  for (index_t j = 0; j < n; ++j) {
    for (index_t i = 0; i < n; ++i) {
      hcopy[static_cast<std::size_t>(i + j * n)] =
          static_cast<double>(H[i + j * ldh]);
    }
  }

  if (cholesky_factor(n, H, ldh)) {
    cholesky_solve_right(n, H, ldh, m, M, ldm);
    info.used_cholesky = true;
    info.rank = n;
    return info;
  }

  // Pseudo-inverse fallback: H^dagger = V diag(1/w_i for w_i > cutoff) V^T.
  info.used_cholesky = false;
  const SymmetricEig eig = jacobi_eig(n, hcopy.data(), n);
  double wmax = 0.0;
  for (double w : eig.eigenvalues) wmax = std::max(wmax, std::abs(w));
  const double cutoff = wmax * static_cast<double>(n) * 1e-14;

  // M H^dagger = ((M V) S) V^T with S the truncated inverse spectrum,
  // evaluated in double (Md is the promoted copy of M; for T == double it
  // IS M's data, preserving the historical arithmetic bit-for-bit).
  std::vector<double> Md;
  double* Mp;
  index_t ld;
  if constexpr (std::is_same_v<T, double>) {
    Mp = M;
    ld = ldm;
  } else {
    Md.resize(static_cast<std::size_t>(m * n));
    for (index_t c = 0; c < n; ++c) {
      for (index_t i = 0; i < m; ++i) {
        Md[static_cast<std::size_t>(i + c * m)] =
            static_cast<double>(M[i + c * ldm]);
      }
    }
    Mp = Md.data();
    ld = m;
  }
  std::vector<double> MV(static_cast<std::size_t>(m * n), 0.0);
  blas::gemm(blas::Layout::ColMajor, blas::Trans::NoTrans, blas::Trans::NoTrans,
             m, n, n, 1.0, Mp, ld, eig.eigenvectors.data(), n, 0.0, MV.data(),
             m, threads);
  for (index_t c = 0; c < n; ++c) {
    const double w = eig.eigenvalues[c];
    const double inv = (std::abs(w) > cutoff) ? 1.0 / w : 0.0;
    if (inv != 0.0) ++info.rank;
    for (index_t i = 0; i < m; ++i) MV[i + c * m] *= inv;
  }
  blas::gemm(blas::Layout::ColMajor, blas::Trans::NoTrans, blas::Trans::Trans,
             m, n, n, 1.0, MV.data(), m, eig.eigenvectors.data(), n, 0.0, Mp,
             ld, threads);
  if constexpr (!std::is_same_v<T, double>) {
    for (index_t c = 0; c < n; ++c) {
      for (index_t i = 0; i < m; ++i) {
        M[i + c * ldm] =
            static_cast<T>(Md[static_cast<std::size_t>(i + c * m)]);
      }
    }
  }
  return info;
}

template SpdSolveInfo spd_solve_right<double>(index_t, double*, index_t,
                                              index_t, double*, index_t, int,
                                              std::span<double>);
template SpdSolveInfo spd_solve_right<float>(index_t, float*, index_t,
                                             index_t, float*, index_t, int,
                                             std::span<double>);

}  // namespace dmtk::linalg
