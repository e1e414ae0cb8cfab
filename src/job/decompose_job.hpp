#pragma once
/// \file decompose_job.hpp
/// \brief One CP decomposition of one tensor file: the single decompose
/// path behind both `dmtk decompose` and the server's decompose requests.
///
/// A front end fills a plain DecomposeSpec from its own syntax (flags or
/// JSON fields) and constructs a DecomposeJob from it. The constructor
/// does everything that can fail on bad input — it probes the file, checks
/// every field and every field combination, and resolves the sweep scheme
/// — so `run()` only reads the tensor and executes. The rules are
/// value-based: spelling out a default is never an error, and a rejection
/// throws std::invalid_argument whose message starts with the field name.
///
///   input   rejected
///   ------  ------------------------------------------------------------
///   any     rank < 1, iters < 1, tol < 0 or NaN, checkpoint_every < 1;
///           checkpoint_every != 1 or resume without a checkpoint path
///   .tns    a dense sweep (permode/dimtree), a non-auto method (acc64
///           included), nn
///   dense   a sparse sweep (csf/coo), a non-auto method on a resolved
///           dimtree sweep, method acc64 without f32
///
/// Layering: job/ sits above core/exec/io/sparse and below serve/ and
/// tools/ (enforced by tools/dmtk_lint.py's `layering` rule).

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <variant>
#include <vector>

#include "core/cp_als.hpp"
#include "core/cp_model.hpp"
#include "core/mttkrp.hpp"
#include "exec/exec_context.hpp"
#include "exec/sweep_plan.hpp"
#include "util/common.hpp"

namespace dmtk {

/// True for a FROSTT `.tns` path: the extension selects the sparse path
/// everywhere (decompose, info, generate, serve).
[[nodiscard]] bool is_sparse_tensor_path(const std::string& path);

/// What to decompose and how. The defaults here are the defaults of both
/// front ends.
struct DecomposeSpec {
  std::string tensor;        ///< .dten (dense) or .tns (sparse) file
  bool f32 = false;          ///< compute (and write the model) in fp32
  bool nn = false;           ///< nonnegative CP (HALS), dense only
  index_t rank = 10;
  int iters = 100;           ///< sweep cap
  double tol = 1e-6;         ///< fit-change stopping tolerance
  std::uint64_t seed = 42;   ///< initialization seed
  SweepScheme sweep = SweepScheme::Auto;
  MttkrpMethod method = MttkrpMethod::Auto;  ///< Acc64: fp64 sums (f32)
  std::string checkpoint;    ///< crash-safe checkpoint path ("" = none)
  int checkpoint_every = 1;  ///< sweeps between checkpoints
  bool resume = false;       ///< restart from the checkpoint when present
};

/// Parse a precision name into DecomposeSpec::f32: "double" is false,
/// "float" true. Returns nullopt for any other spelling — the one parser
/// behind the CLI's --precision and the server's "precision" field.
[[nodiscard]] std::optional<bool> parse_precision(std::string_view name);

/// Everything a front end reports about a finished job.
struct DecomposeOutcome {
  std::variant<Ktensor, KtensorF> model;  ///< in the job's precision
  double fit = 0.0;
  int iterations = 0;
  CpAlsStatus status = CpAlsStatus::MaxSweeps;
  int resumed_sweeps = 0;  ///< sweeps restored from a checkpoint
  SweepScheme scheme = SweepScheme::Auto;  ///< what actually ran
  index_t nnz = 0;         ///< stored nonzeros (sparse input; 0 for dense)
  double read_ms = 0.0;    ///< tensor file read
  double exec_ms = 0.0;    ///< the decomposition itself

  /// Write the model in its native precision (an fp32 job writes an f32
  /// payload) — the same bytes from every front end.
  void write_model(const std::string& path) const;
};

class DecomposeJob {
 public:
  /// Probe the tensor file (the dense header, or existence for .tns),
  /// validate `spec` against it, and resolve the sweep scheme. Throws
  /// std::invalid_argument naming the offending field, io::IoError when
  /// the file is missing or not a tensor.
  explicit DecomposeJob(DecomposeSpec spec);

  [[nodiscard]] const DecomposeSpec& spec() const { return spec_; }
  [[nodiscard]] bool sparse() const { return sparse_; }
  /// Extents from the dense header (empty for .tns input, whose extents
  /// are only known after parsing the whole file).
  [[nodiscard]] const std::vector<index_t>& dims() const { return dims_; }
  /// The resolved scheme: Auto never survives construction.
  [[nodiscard]] SweepScheme scheme() const { return scheme_; }

  /// Read the tensor in the job's precision and decompose it on `ctx`
  /// through a plan built for this run.
  [[nodiscard]] DecomposeOutcome run(const ExecContext& ctx) const;

  /// Decompose the already-read `X` through a caller-owned dense plan
  /// built for this job's dims(), rank, scheme() and method (a served
  /// batch's plan, on a tensor from the server's tensor cache). X's
  /// extents must be the probed ones; the outcome's read_ms is left to
  /// the caller. Needs a plain dense cp_als job: no nn.
  template <typename T>
  [[nodiscard]] DecomposeOutcome run(CpAlsSweepPlanT<T>& plan,
                                     const TensorT<T>& X) const;

 private:
  DecomposeSpec spec_;
  bool sparse_ = false;
  std::vector<index_t> dims_;
  SweepScheme scheme_ = SweepScheme::Auto;
};

extern template DecomposeOutcome DecomposeJob::run<double>(
    CpAlsSweepPlan&, const Tensor&) const;
extern template DecomposeOutcome DecomposeJob::run<float>(
    CpAlsSweepPlanF&, const TensorF&) const;

}  // namespace dmtk
