#pragma once
/// \file cp_als.hpp
/// \brief CP decomposition via Alternating Least Squares (Section 2.2):
/// per factor update, (1) MTTKRP, (2) Gram/Hadamard system matrix,
/// (3) linear solve — with MTTKRP dominating the cost. The sweep's MTTKRPs
/// come from a CpAlsSweepPlan (exec/sweep_plan.hpp) selected by
/// `sweep_scheme`: per-mode kernels with the paper's dispatch policy
/// (1-step external, 2-step internal, overridable via `method` — including
/// MttkrpMethod::Acc64, the fp64-accumulate kernel that recovers the fp64
/// fit floor at fp32 storage cost), or the dimension-tree scheme that
/// shares partial contractions across modes.
///
/// Options, result, and the driver are templated on the scalar type:
/// `cp_als(TensorF, CpAlsOptionsF)` runs the whole pipeline — plans,
/// kernels, Gram/solve, fit — in fp32, halving the bytes the bandwidth-
/// bound MTTKRPs move. Fit/timing diagnostics stay double. The un-suffixed
/// aliases keep existing double call sites compiling unchanged.

#include <cstdint>
#include <string>
#include <vector>

#include "core/cp_model.hpp"
#include "core/matrix.hpp"
#include "core/mttkrp.hpp"
#include "core/tensor.hpp"
#include "exec/exec_context.hpp"
#include "exec/sweep_plan.hpp"

namespace dmtk {

template <typename T>
struct CpAlsOptionsT {
  index_t rank = 10;        ///< number of CP components C
  int max_iters = 50;       ///< maximum ALS sweeps
  double tol = 1e-4;        ///< stop when the fit improves by less than this
  MttkrpMethod method = MttkrpMethod::Auto;  ///< MTTKRP kernel selection
  int threads = 0;          ///< <=0: library default (used when exec unset)
  std::uint64_t seed = 42;  ///< seed for random initialization
  bool compute_fit = true;  ///< fit costs one extra O(InC) pass per sweep
  const KtensorT<T>* initial_guess = nullptr;  ///< optional warm start

  /// How the sweep's per-mode MTTKRPs are produced (see exec/sweep_plan.hpp):
  /// PerMode = independent per-mode kernels selected by `method`; DimTree =
  /// multi-level dimension-tree reuse across modes (`method` is then
  /// ignored — the tree has its own contraction kernels). Auto resolves to
  /// DimTree at every order unless `method` names a kernel, which pins
  /// PerMode.
  SweepScheme sweep_scheme = SweepScheme::Auto;

  /// Execution context (threads + workspace arena). When set, `threads` is
  /// ignored and the driver builds its CpAlsSweepPlan against this context
  /// (per-mode MttkrpPlan workspaces for PerMode; tree intermediates plus
  /// node scratch for DimTree), sharing its arena with whatever else the
  /// caller runs. When null the driver creates a private context from
  /// `threads` — same result, but the workspace cannot be shared across
  /// drivers.
  const ExecContext* exec = nullptr;

  /// Crash-safe checkpointing (see io/checkpoint.hpp). When non-empty,
  /// the sweep loop writes an atomic CRC'd checkpoint of the model +
  /// convergence state to this path after every `checkpoint_every`-th
  /// completed sweep; with `resume` set it first restores from a
  /// checkpoint already at the path (if any) and continues as if the run
  /// had never stopped — bitwise-identical to the uninterrupted run. The
  /// checkpoint is bound to the run configuration by an options hash
  /// (dims, rank, tol, seed, scheme, method, threads, fit flag, scalar
  /// kind — deliberately NOT max_iters, so a run may resume with a raised
  /// sweep cap); resuming under a different configuration throws
  /// io::IoError instead of silently diverging from both runs.
  std::string checkpoint_path;
  int checkpoint_every = 1;  ///< sweeps between checkpoints (min 1)
  bool resume = false;       ///< restore from checkpoint_path when present
};

using CpAlsOptions = CpAlsOptionsT<double>;
using CpAlsOptionsF = CpAlsOptionsT<float>;

/// How a sweep loop ended. `Diverged` means a non-finite fit or lambda
/// was detected (the guardrail that used to be a silent NaN model);
/// `MaxSweeps` means the iteration cap elapsed with the tolerance unmet.
enum class CpAlsStatus { Converged, MaxSweeps, Diverged };

inline const char* to_string(CpAlsStatus s) {
  switch (s) {
    case CpAlsStatus::Converged: return "converged";
    case CpAlsStatus::Diverged: return "diverged";
    case CpAlsStatus::MaxSweeps: default: return "max-sweeps";
  }
}

/// Per-sweep diagnostics. On a 3-way DimTree run, `seconds` alternates
/// after the first sweep: odd sweeps make two full-tensor passes, even
/// sweeps one (exec/dim_tree.hpp, the multi-sweep rotation).
struct CpAlsIterStats {
  double seconds = 0.0;  ///< whole-sweep wall time
  double fit = 0.0;      ///< model fit after the sweep (if computed)
};

template <typename T>
struct CpAlsResultT {
  KtensorT<T> model;        ///< normalized factors + lambda
  int iterations = 0;       ///< sweeps performed
  double final_fit = 0.0;   ///< 1 - ||X - Y||_F / ||X||_F
  bool converged = false;   ///< tolerance met before max_iters
  /// Converged / MaxSweeps / Diverged — `converged` is kept as the
  /// boolean shorthand (status == Converged) for existing call sites.
  CpAlsStatus status = CpAlsStatus::MaxSweeps;
  /// Sweeps restored from a checkpoint before this run's first own sweep
  /// (0 for a fresh run); `iterations` counts restored + executed.
  int resumed_sweeps = 0;
  std::vector<CpAlsIterStats> iters;  ///< one entry per sweep
};

using CpAlsResult = CpAlsResultT<double>;
using CpAlsResultF = CpAlsResultT<float>;

/// Compute a rank-`opts.rank` CP decomposition of X. Follows the Tensor
/// Toolbox cp_als conventions: uniform-random initialization, column
/// normalization with 2-norm on the first sweep and max-norm afterwards,
/// fit-change stopping rule. The fp32 instantiation runs every kernel in
/// float; its fit agrees with the double run to ~fp32 precision on
/// well-conditioned problems (see README "Precision").
template <typename T>
CpAlsResultT<T> cp_als(const TensorT<T>& X, const CpAlsOptionsT<T>& opts);

extern template CpAlsResult cp_als<double>(const Tensor&, const CpAlsOptions&);
extern template CpAlsResultF cp_als<float>(const TensorF&,
                                           const CpAlsOptionsF&);

/// As cp_als, but running the sweeps through a CALLER-OWNED plan instead
/// of constructing one: the hook that lets a resident process (a served
/// batch) amortize plan construction across many factorizations of the
/// same (shape, rank). The plan must be dense, match X's extents and
/// opts.rank, and outlive the call; execution uses plan.context() —
/// opts.exec and opts.threads are ignored (the plan's arena lives in its
/// own context). opts.sweep_scheme / method are likewise superseded by
/// what the plan was built with. Identical results to the plan-less
/// overload given matching construction parameters — byte-identical
/// factors for equal seeds.
template <typename T>
CpAlsResultT<T> cp_als(const TensorT<T>& X, const CpAlsOptionsT<T>& opts,
                       CpAlsSweepPlanT<T>& plan);

extern template CpAlsResult cp_als<double>(const Tensor&, const CpAlsOptions&,
                                           CpAlsSweepPlan&);
extern template CpAlsResultF cp_als<float>(const TensorF&, const CpAlsOptionsF&,
                                           CpAlsSweepPlanF&);

/// The Hadamard product of all Gram matrices except `skip`:
/// H = (*)_{k != skip} grams[k]. Pass skip = -1 to include all modes.
/// Exposed for tests.
template <typename T>
MatrixT<T> hadamard_of_grams(const std::vector<MatrixT<T>>& grams,
                             index_t skip);

/// As hadamard_of_grams, writing into a caller-owned C x C matrix (resized
/// on mismatch) — what the sweep loop uses so steady-state sweeps do not
/// allocate per mode.
template <typename T>
void hadamard_of_grams_into(const std::vector<MatrixT<T>>& grams, index_t skip,
                            MatrixT<T>& H);

extern template Matrix hadamard_of_grams<double>(const std::vector<Matrix>&,
                                                 index_t);
extern template MatrixF hadamard_of_grams<float>(const std::vector<MatrixF>&,
                                                 index_t);
extern template void hadamard_of_grams_into<double>(const std::vector<Matrix>&,
                                                    index_t, Matrix&);
extern template void hadamard_of_grams_into<float>(const std::vector<MatrixF>&,
                                                   index_t, MatrixF&);

}  // namespace dmtk
