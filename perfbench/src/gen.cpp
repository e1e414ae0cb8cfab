/// \file gen.cpp
/// \brief Input generation. Runs in its own process before the measured
/// one, so the program under test receives only files: the tensor(s), the
/// initial model of every timed decomposition, and the references each
/// operation's output is checked against.

#include "common.hpp"

#include <fstream>

#include "core/cp_als.hpp"
#include "core/cp_model.hpp"
#include "exec/mttkrp_plan.hpp"
#include "io/tensor_io.hpp"
#include "sim/fmri.hpp"
#include "util/parallel.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace dmtk;

namespace {

/// Adds i.i.d. Gaussian noise at relative Frobenius level `rel`. Chunks
/// draw from their own seeded streams, so the result is independent of
/// the thread count.
void add_noise(Tensor& X, double rel, std::uint64_t seed) {
  const double sigma =
      rel * X.norm() / std::sqrt(static_cast<double>(X.numel()));
  constexpr index_t kChunk = index_t{1} << 18;
  const index_t chunks = (X.numel() + kChunk - 1) / kChunk;
  double* x = X.data();
  parallel_for_blocked(0, chunks, 0, [&](index_t c) {
    Rng rng(seed * 0x9e3779b97f4a7c15ULL + static_cast<std::uint64_t>(c));
    const index_t end = std::min(X.numel(), (c + 1) * kChunk);
    for (index_t i = c * kChunk; i < end; ++i) x[i] += sigma * rng.normal();
  });
}

/// The planted model with every entry scaled by (1 + 0.1 N(0,1)): a warm
/// start a few sweeps from the planted-noise floor.
Ktensor perturbed(const Ktensor& truth, std::uint64_t seed) {
  Ktensor k = truth;
  Rng rng(seed);
  for (Matrix& U : k.factors) {
    for (index_t i = 0; i < U.rows() * U.cols(); ++i) {
      U.data()[i] *= 1.0 + 0.1 * rng.normal();
    }
  }
  return k;
}

/// Reference MTTKRP of every mode for the initial factors, from a 1-thread
/// plan: the team's results must match a different partition.
template <typename T>
void write_mttkrp_refs(const TensorT<T>& X, const KtensorT<T>& K,
                       const fs::path& dir) {
  ExecContext ctx(1);
  for (index_t n = 0; n < X.order(); ++n) {
    MttkrpPlanT<T> plan(ctx, X.dims(), K.rank(), n);
    MatrixT<T> M(X.dim(n), K.rank());
    plan.execute(X, K.factors, M);
    io::write_matrix(dir / ("ref_m" + std::to_string(n) + ".dmat"),
                     matrix_cast<double>(M));
  }
}

template <typename T>
void write_serve_refs(const TensorT<T>& X, const std::string& tag,
                      index_t rank, std::ofstream& refs) {
  // What the server computes for a default-seeded decompose (1 sweep) and
  // mttkrp (factor seed 7) on one worker thread.
  ExecContext ctx(1);
  CpAlsOptionsT<T> o;
  o.rank = rank;
  o.max_iters = 1;
  o.tol = 0.0;
  o.exec = &ctx;
  refs << "fit." << tag << ' ' << cp_als(X, o).final_fit << '\n';
  Rng rng(7);
  const KtensorT<T> F = KtensorT<T>::random(X.dims(), rank, rng);
  for (index_t n = 0; n < X.order(); ++n) {
    MttkrpPlanT<T> plan(ctx, X.dims(), rank, n);
    MatrixT<T> M(X.dim(n), rank);
    plan.execute(X, F.factors, M);
    refs << "norm." << tag << ".m" << n << ' ' << M.norm() << '\n';
  }
}

Tensor planted(const std::vector<index_t>& dims, index_t rank, double noise,
               std::uint64_t seed, Ktensor* truth_out = nullptr) {
  Rng rng(seed);
  const Ktensor truth = Ktensor::random(dims, rank, rng);
  Tensor X = truth.full();
  add_noise(X, noise, seed + 1);
  if (truth_out != nullptr) *truth_out = truth;
  return X;
}

}  // namespace

void generate(const Spec& s, std::uint64_t seed, const fs::path& dir) {
  fs::create_directories(dir);
  std::ofstream refs(dir / "refs.txt");
  refs.precision(17);
  switch (s.kind) {
    case Kind::Cube3F64: {
      Ktensor truth;
      const Tensor X = planted(s.dims, s.rank, s.noise, seed, &truth);
      const Ktensor init = perturbed(truth, seed + 2);
      io::write_tensor(dir / "x.dten", X);
      io::write_ktensor(dir / "init.dkt", init);
      write_mttkrp_refs(X, init, dir);
      break;
    }
    case Kind::Fmri4F32: {
      sim::FmriOptions fo;
      fo.time_steps = s.dims[0];
      fo.subjects = s.dims[1];
      fo.regions = s.regions;
      fo.components = s.rank;
      fo.noise_level = s.noise;
      fo.seed = seed;
      const sim::FmriData d = sim::make_fmri_tensor(fo);
      const TensorF X = tensor_cast<float>(d.tensor);
      const KtensorF init = ktensor_cast<float>(perturbed(d.truth, seed + 2));
      io::write_tensor(dir / "x.dten", X);
      io::write_ktensor(dir / "init.dkt", init);
      write_mttkrp_refs(X, init, dir);
      break;
    }
    case Kind::ServeMix: {
      const Tensor C = planted(s.serve_cube, s.rank, s.noise, seed);
      const TensorF H =
          tensor_cast<float>(planted(s.serve_hyper, s.rank, s.noise, seed + 3));
      io::write_tensor(dir / "cube.dten", C);
      io::write_tensor(dir / "hyper.dten", H);
      write_serve_refs(C, "cube", s.rank, refs);
      write_serve_refs(H, "hyper", s.rank, refs);
      break;
    }
  }
}

}  // namespace perfbench
