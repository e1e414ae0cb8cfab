#include "job/decompose_job.hpp"

#include <algorithm>
#include <cmath>
#include <filesystem>
#include <stdexcept>
#include <type_traits>
#include <utility>

#include "core/cp_nn.hpp"
#include "io/tensor_io.hpp"
#include "sparse/sparse_tensor.hpp"
#include "util/timer.hpp"

namespace dmtk {

namespace {

[[noreturn]] void reject(const char* field, const std::string& why) {
  throw std::invalid_argument(std::string(field) + ": " + why);
}

std::string scheme_name(SweepScheme s) { return std::string(to_string(s)); }

template <typename T>
DecomposeOutcome outcome_of(CpAlsResultT<T>&& r, SweepScheme scheme,
                            double read_ms, double exec_ms) {
  DecomposeOutcome out;
  out.model = std::move(r.model);
  out.fit = r.final_fit;
  out.iterations = r.iterations;
  out.status = r.status;
  out.resumed_sweeps = r.resumed_sweeps;
  out.scheme = scheme;
  out.read_ms = read_ms;
  out.exec_ms = exec_ms;
  return out;
}

template <typename T>
void check_probed_extents(const TensorT<T>& X,
                          const std::vector<index_t>& probed) {
  DMTK_CHECK(std::ranges::equal(X.dims(), probed),
             "decompose: tensor extents changed between probe and read");
}

template <typename T>
TensorT<T> read_dense(const std::string& path,
                      const std::vector<index_t>& probed, double* read_ms) {
  WallTimer t;
  TensorT<T> X = io::read_tensor_as<T>(path);
  *read_ms = t.seconds() * 1e3;
  check_probed_extents(X, probed);
  return X;
}

template <typename T>
CpAlsOptionsT<T> options(const DecomposeSpec& s) {
  CpAlsOptionsT<T> o;
  o.rank = s.rank;
  o.max_iters = s.iters;
  o.tol = s.tol;
  o.seed = s.seed;
  // The requested scheme: the driver resolves it exactly as the job's
  // constructor did, and checkpoints stay bound to what was asked for.
  o.sweep_scheme = s.sweep;
  o.method = s.method;
  o.checkpoint_path = s.checkpoint;
  o.checkpoint_every = s.checkpoint_every;
  o.resume = s.resume;
  return o;
}

template <typename T>
DecomposeOutcome run_dense(const DecomposeJob& job, const ExecContext& ctx) {
  const DecomposeSpec& s = job.spec();
  double read_ms = 0.0;
  const TensorT<T> X = read_dense<T>(s.tensor, job.dims(), &read_ms);
  CpAlsOptionsT<T> o = options<T>(s);
  o.exec = &ctx;
  WallTimer t;
  CpAlsResultT<T> r = s.nn ? cp_nnhals(X, o) : cp_als(X, o);
  return outcome_of(std::move(r), job.scheme(), read_ms, t.seconds() * 1e3);
}

template <typename T>
DecomposeOutcome run_sparse(const DecomposeJob& job, const ExecContext& ctx) {
  // .tns text parses as double (the format's natural scalar); an fp32 job
  // narrows the values once and keeps the kernels' fp64 accumulators.
  WallTimer read_t;
  const auto X = [&] {
    sparse::SparseTensor S = io::read_tns(job.spec().tensor);
    if constexpr (std::is_same_v<T, double>) {
      return S;
    } else {
      return sparse::sparse_cast<T>(S);
    }
  }();
  const double read_ms = read_t.seconds() * 1e3;
  CpAlsOptionsT<T> o = options<T>(job.spec());
  o.exec = &ctx;
  WallTimer t;
  DecomposeOutcome out = outcome_of(sparse::cp_als(X, o), job.scheme(),
                                    read_ms, t.seconds() * 1e3);
  out.nnz = X.nnz();
  return out;
}

}  // namespace

bool is_sparse_tensor_path(const std::string& path) {
  return path.ends_with(".tns");
}

std::optional<bool> parse_precision(std::string_view name) {
  if (name == "double") return false;
  if (name == "float") return true;
  return std::nullopt;
}

void DecomposeOutcome::write_model(const std::string& path) const {
  std::visit([&](const auto& K) { io::write_ktensor(path, K); }, model);
}

DecomposeJob::DecomposeJob(DecomposeSpec spec) : spec_(std::move(spec)) {
  const DecomposeSpec& s = spec_;
  if (s.tensor.empty()) reject("tensor", "a tensor path is required");
  if (s.rank < 1) reject("rank", "must be >= 1");
  if (s.iters < 1) reject("iters", "must be >= 1");
  if (!(s.tol >= 0.0)) reject("tol", "must be >= 0");
  if (s.checkpoint_every < 1) reject("checkpoint_every", "must be >= 1");
  if (s.checkpoint.empty() && s.checkpoint_every != 1) {
    reject("checkpoint_every", "needs a checkpoint path");
  }
  if (s.checkpoint.empty() && s.resume) {
    reject("resume", "needs a checkpoint path");
  }

  sparse_ = is_sparse_tensor_path(s.tensor);
  if (sparse_) {
    if (s.sweep == SweepScheme::PerMode || s.sweep == SweepScheme::DimTree) {
      reject("sweep", "\"" + scheme_name(s.sweep) +
                          "\" is dense-only; .tns input takes auto, csf or "
                          "coo");
    }
    if (s.method != MttkrpMethod::Auto) {
      reject("method", "selects dense per-mode kernels; sparse input "
                       "chooses its own");
    }
    if (s.nn) reject("nn", "nonnegative CP needs a dense (.dten) tensor");
    if (!std::filesystem::exists(s.tensor)) {
      throw io::IoError("no such tensor file: " + s.tensor);
    }
    scheme_ = resolve_sparse_sweep_scheme(s.sweep);
    return;
  }

  if (s.sweep == SweepScheme::SparseCsf || s.sweep == SweepScheme::SparseCoo) {
    reject("sweep", "\"" + scheme_name(s.sweep) +
                        "\" needs a sparse (.tns) tensor");
  }
  if (s.method == MttkrpMethod::Acc64 && !s.f32) {
    reject("method", "\"acc64\" needs f32 storage (the double pipeline "
                     "already accumulates in fp64)");
  }
  // Header probe: extents without payload traffic (IoError when the file
  // is missing or not a dmtk tensor).
  dims_ = io::tensor_extents(s.tensor);
  if (dims_.size() < 2) reject("tensor", "needs at least 2 modes");
  scheme_ = resolve_sweep_scheme(s.sweep, s.method);
  if (s.method != MttkrpMethod::Auto && scheme_ == SweepScheme::DimTree) {
    reject("method", "selects per-mode kernels; the dimtree sweep has its "
                     "own");
  }
}

DecomposeOutcome DecomposeJob::run(const ExecContext& ctx) const {
  if (sparse_) {
    return spec_.f32 ? run_sparse<float>(*this, ctx)
                     : run_sparse<double>(*this, ctx);
  }
  return spec_.f32 ? run_dense<float>(*this, ctx)
                   : run_dense<double>(*this, ctx);
}

template <typename T>
DecomposeOutcome DecomposeJob::run(CpAlsSweepPlanT<T>& plan,
                                   const TensorT<T>& X) const {
  DMTK_CHECK(!sparse_ && !spec_.nn,
             "DecomposeJob: a caller-owned plan runs plain dense cp_als");
  DMTK_CHECK((spec_.f32 == std::is_same_v<T, float>),
             "DecomposeJob: plan precision differs from the job's");
  check_probed_extents(X, dims_);
  WallTimer t;
  CpAlsResultT<T> r = cp_als(X, options<T>(spec_), plan);
  return outcome_of(std::move(r), plan.scheme(), 0.0, t.seconds() * 1e3);
}

template DecomposeOutcome DecomposeJob::run<double>(CpAlsSweepPlan&,
                                                    const Tensor&) const;
template DecomposeOutcome DecomposeJob::run<float>(CpAlsSweepPlanF&,
                                                   const TensorF&) const;

}  // namespace dmtk
