#pragma once
/// \file gemm_workspace.hpp
/// \brief Caller-provided packing workspace + cache blocking for the
/// blocked GEMM/SYRK path.
///
/// The BLIS-style kernel packs operand panels (KC x NC of op(B) shared by
/// the team, MC x KC of op(A) per thread). PR 1's plan layer guarantees
/// that MttkrpPlan::execute() performs no heap allocation; to extend that
/// guarantee INTO the BLAS layer, every gemm/syrk/gemm_batched entry point
/// accepts a GemmWorkspace view over caller-owned memory (in practice a
/// block of the ExecContext's WorkspaceArena). Callers that pass none fall
/// back to a per-thread, per-scalar-type thread_local arena that grows at
/// most a few times per process and is reused across calls; the fallback's
/// growth events are counted (gemm_internal_allocs()) so tests can prove
/// the hot paths never hit it.
///
/// The view is measured in BYTES and the sizing helpers are templated on
/// the scalar type. (Historically the view counted doubles and the float
/// instantiation reinterpreted double storage — double-based sizing was
/// sufficient but the type pun was undefined behavior; the byte-based view
/// plus typed_workspace() carve-out removed it.)
///
/// Sizing is conservative over every micro-kernel tile shape (MR, NR <=
/// 16), so one reservation is valid whatever DMTK_SIMD selects at run
/// time. The rank-panel path (gemm.hpp) packs nothing and is sized at
/// zero.
///
/// The MC/KC/NC blocking is a compile-time constant: the sizing helpers
/// and the packing loops read the same three values, so a workspace sized
/// by the helpers below always fits the blocks the kernel packs.

#include <algorithm>
#include <cstddef>

#include "blas/types.hpp"
#include "util/common.hpp"

namespace dmtk::blas {

/// Cache-blocking parameters (elements, not bytes): KC x NR B-strips sit
/// in L1 during the micro-kernel, MC x KC packed A in L2, KC x NC packed B
/// in L3.
inline constexpr index_t kGemmMC = 96;
inline constexpr index_t kGemmKC = 256;
inline constexpr index_t kGemmNC = 1024;

/// Largest register-tile extents over all dispatchable micro-kernels
/// (AVX-512 16x16); workspace sizing rounds panel extents up to these.
inline constexpr index_t kGemmMaxMR = 16;
inline constexpr index_t kGemmMaxNR = 16;

/// Non-owning view of a scratch block, measured in bytes. The kernel
/// aligns the base up to a cache line internally — the sizing helpers
/// below include that slack — so any buffer works, though WorkspaceArena
/// blocks are already aligned. Build one from a typed buffer with
/// typed_workspace().
struct GemmWorkspace {
  void* base = nullptr;
  std::size_t bytes = 0;
  [[nodiscard]] bool valid() const { return base != nullptr; }
};

/// Workspace view over `elems` elements of T at `base` — the typed
/// carve-out used by the plan layer (which sizes arena blocks with the
/// *_elems helpers below and carves them per scalar type).
template <typename T>
[[nodiscard]] inline GemmWorkspace typed_workspace(T* base,
                                                   std::size_t elems) {
  return GemmWorkspace{base, elems * sizeof(T)};
}

namespace detail {

/// Round a panel-block element count up to cache-line granularity so
/// per-thread slices never share a line (mirrors
/// WorkspaceArena::aligned_count without depending on exec/).
template <typename T>
[[nodiscard]] constexpr std::size_t ws_align(std::size_t elems) {
  constexpr std::size_t kLine = 64 / sizeof(T);
  return (elems + kLine - 1) / kLine * kLine;
}

[[nodiscard]] constexpr index_t round_up(index_t v, index_t to) {
  return (v + to - 1) / to * to;
}

/// Elements of T for one shared packed-B panel of a (m x n x k) GEMM.
template <typename T>
[[nodiscard]] constexpr std::size_t packed_b_elems(index_t n, index_t k) {
  const index_t kc = k < kGemmKC ? (k > 0 ? k : 1) : kGemmKC;
  const index_t nc =
      round_up(n < kGemmNC ? (n > 0 ? n : 1) : kGemmNC, kGemmMaxNR);
  return ws_align<T>(static_cast<std::size_t>(nc * kc));
}

/// Elements of T for one per-thread packed-A block of a (m x n x k) GEMM.
template <typename T>
[[nodiscard]] constexpr std::size_t packed_a_elems(index_t m, index_t k) {
  const index_t kc = k < kGemmKC ? (k > 0 ? k : 1) : kGemmKC;
  const index_t mc =
      round_up(m < kGemmMC ? (m > 0 ? m : 1) : kGemmMC, kGemmMaxMR);
  return ws_align<T>(static_cast<std::size_t>(mc * kc));
}

}  // namespace detail

/// Widest n (the CP rank) the rank-panel path serves.
inline constexpr index_t kRankPanelMaxN = 64;

/// True when a column-major gemm/gemm_batched with these operands takes
/// the rank-panel path (gemm.hpp): C = op(A) * B^T with B^T in its p-major
/// layout (tb == Trans), 1 <= n <= 64, and a reduction long enough
/// (k >= 4n) that streaming op(A) is the whole cost. Shape only: no
/// setting, level or blocking enters, so plans can size for it up front.
[[nodiscard]] constexpr bool gemm_uses_rank_panel(Trans tb, index_t n,
                                                  index_t k) {
  return tb == Trans::Trans && n >= 1 && n <= kRankPanelMaxN && k >= 4 * n;
}

/// Workspace elements of T one column-major gemm(·, tb, m, n, k) call
/// needs at `threads` threads: none on the rank-panel path, which packs
/// nothing; on the BLIS path the shared B panel plus one A block per
/// thread. A row-major call runs as the column-major one with the operands
/// swapped, so size it as that: ta in place of tb, m and n exchanged.
template <typename T>
[[nodiscard]] inline std::size_t gemm_workspace_elems(Trans tb, index_t m,
                                                      index_t n, index_t k,
                                                      int threads) {
  if (gemm_uses_rank_panel(tb, n, k)) return 0;
  const std::size_t nt = threads > 0 ? static_cast<std::size_t>(threads) : 1;
  // Bound both orientations of the panels.
  const std::size_t b = std::max(detail::packed_b_elems<T>(n, k),
                                 detail::packed_b_elems<T>(m, k));
  const std::size_t a = std::max(detail::packed_a_elems<T>(m, k),
                                 detail::packed_a_elems<T>(n, k));
  // One cache line of slack so the kernel can align an arbitrary base.
  return b + nt * a + detail::ws_align<T>(1);
}

/// Workspace elements of T for a column-major gemm_batched(·, tb, m, n, k)
/// sweep at `threads` threads: every thread runs the sequential kernel on
/// its items, so each needs a private slice.
template <typename T>
[[nodiscard]] inline std::size_t gemm_batched_workspace_elems(
    Trans tb, index_t m, index_t n, index_t k, int threads) {
  const std::size_t nt = threads > 0 ? static_cast<std::size_t>(threads) : 1;
  return nt * gemm_workspace_elems<T>(tb, m, n, k, 1);
}

/// Process-wide count of internal fallback-arena growth events: how many
/// times a gemm/syrk/gemm_batched call had to (re)allocate because the
/// caller provided no (or too small a) workspace. Flat across a region of
/// calls == those calls were heap-free inside the BLAS layer.
[[nodiscard]] std::size_t gemm_internal_allocs();

}  // namespace dmtk::blas
