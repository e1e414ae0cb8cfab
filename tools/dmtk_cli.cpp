/// \file dmtk_cli.cpp
/// Command-line front end for the library, so a pipeline can use dmtk
/// without writing C++:
///
///   dmtk generate  --dims 100x80x60 --rank 5 --noise 0.05 --out x.dten
///   dmtk generate  --dims 100x80x60 --rank 5 --precision float --out x.dten
///   dmtk generate  --dims 500x400x300 --density 1e-4 --out x.tns  (sparse)
///   dmtk fmri      --time 225 --subjects 59 --regions 200 --out x.dten
///   dmtk info      x.dten            (or x.tns)
///   dmtk decompose x.dten --rank 10 [--nn] [--sweep dimtree] --out model.dktn
///   dmtk decompose x.dten --rank 10 --precision float   (fp32 CP-ALS)
///   dmtk decompose x.tns  --rank 10 --sweep csf       (sparse, CSF plan)
///   dmtk tucker    x.dten --ranks 8x8x8 --out-prefix model
///   dmtk export    model.dktn --out-prefix factors   (CSV per factor)
///
/// Sparse tensors travel as FROSTT-style .tns text files; the `.tns`
/// extension selects the sparse path everywhere. Dense tensors carry their
/// payload precision in the file (f64 or f32); `--precision` selects the
/// compute (and, for generate, storage) scalar type.
///
/// Numeric arguments are parsed STRICTLY (util/parse.hpp): a malformed
/// value (`--rank abc`, `--dims 10x-3x7`, `--density 2`) is a usage error
/// (exit 1) with a message naming the flag, never a silent zero or wrap.
///
/// Every command accepts only its own flags; an unknown one (`--itters`) is
/// a usage error naming it. `decompose` hands its flags to a DecomposeJob
/// (job/decompose_job.hpp), the same one the server runs.
///
/// Exit code 0 on success, 1 on usage errors, 2 on runtime failures.

#include <climits>
#include <csignal>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <optional>
#include <set>
#include <string>
#include <variant>
#include <vector>

#include "dmtk.hpp"
#include "serve/client.hpp"
#include "serve/server.hpp"
#include "util/parse.hpp"

namespace {

using namespace dmtk;

[[noreturn]] void usage() {
  std::fprintf(
      stderr,
      "usage: dmtk <command> [args]\n"
      "  generate  --dims AxBxC [--rank R] [--noise f] [--seed s] --out F\n"
      "            [--precision double|float]  (fp32 writes an f32 payload)\n"
      "            [--density f | --nnz n]  (sparse: uniform-random nonzeros\n"
      "             written as FROSTT-style .tns text; --rank/--noise/\n"
      "             --precision are dense-only)\n"
      "  fmri      [--time T] [--subjects S] [--regions R] [--rank C]\n"
      "            [--noise f] [--seed s] [--linearize] --out F\n"
      "  info      <tensor.dten | tensor.tns>\n"
      "  info      --cpu\n"
      "            (prints the CPU, the detected SIMD ladder, the hardware\n"
      "             level, and the active level with its source:\n"
      "             hardware or DMTK_SIMD)\n"
      "  decompose <tensor.dten> --rank R [--nn]\n"
      "            [--precision double|float]\n"
      "            [--sweep permode|dimtree|auto] [--levels n]\n"
      "            [--method reference|reorder|1-step-seq|1-step|2-step|\n"
      "                      acc64|auto]\n"
      "            [--iters n] [--tol f] [--seed s] [--threads t]\n"
      "            [--out model.dktn]\n"
      "            [--checkpoint F [--checkpoint-every n] [--resume]]\n"
      "            (--checkpoint writes a crash-safe sweep checkpoint every\n"
      "             n sweeps (atomic rename + CRC); --resume restarts an\n"
      "             interrupted run from it, bit-identical to uninterrupted)\n"
      "            (--sweep dimtree shares partial MTTKRPs across modes;\n"
      "             --levels caps the tree depth, 0 = full tree; auto picks\n"
      "             dimtree unless --method names a kernel, which pins\n"
      "             permode; --precision float runs the whole ALS\n"
      "             pipeline in fp32 — half the memory bandwidth, fit\n"
      "             accurate to ~1e-4; --method acc64 (with\n"
      "             --precision float, per-mode sweep) keeps fp32 storage\n"
      "             but sums every MTTKRP entry in fp64, recovering the\n"
      "             fp64 fit floor at fp32 storage cost — slower per sweep:\n"
      "             the fp64 loop skips the blocked kernels)\n"
      "  decompose <tensor.tns> --rank R [--sweep csf|coo|auto]\n"
      "            [--precision double|float]\n"
      "            [--iters n] [--tol f] [--seed s] [--threads t]\n"
      "            [--out model.dktn]\n"
      "            [--checkpoint F [--checkpoint-every n] [--resume]]\n"
      "            (sparse CP-ALS through the plan layer; auto = csf; both\n"
      "             precisions accumulate in fp64 — fp32 halves the bytes\n"
      "             streamed per nonzero and rounds once per output)\n"
      "  tucker    <tensor.dten> --ranks AxBxC [--out-prefix P]\n"
      "  export    <model.dktn> --out-prefix P\n"
      "  serve     --socket S [--workers n] [--threads t] [--queue-depth n]\n"
      "            [--queue-timeout-ms n] [--batch-window-ms n]\n"
      "            [--max-batch n] [--cache-entries n] [--cache-mb n]\n"
      "            (resident decomposition server on a Unix socket:\n"
      "             newline-delimited JSON requests, per-worker plan cache,\n"
      "             shared tensor cache, bounded job queue, same-shape\n"
      "             request batching; --cache-entries and --cache-mb bound\n"
      "             each plan cache and the tensor cache, 0 entries\n"
      "             disables both)\n"
      "  client    --socket S [--timeout-ms n] [--retries n]\n"
      "            [--retry-base-ms n] <action>\n"
      "            (--retries re-runs the request on connection failures\n"
      "             and busy rejections, exponential backoff + jitter)\n"
      "            actions: stats | health | shutdown | info <tensor>\n"
      "              | decompose <tensor> [--rank R] [--iters n] [--tol f]\n"
      "                [--seed s] [--sweep sch] [--method m] [--levels n]\n"
      "                [--precision double|float] [--out F] [--cold]\n"
      "                [--inline | --no-inline]\n"
      "              | mttkrp <tensor> --mode n [--rank R] [--seed s]\n"
      "                [--precision double|float] [--out F]\n"
      "              | --json '<raw request line>'\n"
      "            (prints the server's one-line JSON response; exit 0 on\n"
      "             ok, 2 on connection failure, 3 on a server error)\n");
  std::exit(1);
}

/// Usage error naming the offending flag/value; exit 1, like usage().
[[noreturn]] void usage_error(const std::string& msg) {
  std::fprintf(stderr, "error: %s\n", msg.c_str());
  std::exit(1);
}

/// Parse "4x5x6" into extents; usage error on any malformed or
/// nonpositive field.
std::vector<index_t> parse_dims_or_die(const char* flag,
                                       const std::string& s) {
  const auto dims = parse_extents(s);
  if (!dims) {
    usage_error(std::string("--") + flag + " expects positive extents like " +
                "100x80x60, got '" + s + "'");
  }
  return *dims;
}

using Flags = std::map<std::string, std::string>;

/// The flags one command accepts: `value` flags consume the next token,
/// `toggle` flags take none.
struct FlagSet {
  std::set<std::string> value;
  std::set<std::string> toggle;
};

/// Parse `--flag value` / `--toggle` pairs plus up to `max_positional`
/// bare arguments. A flag outside `allowed` is a usage error naming it —
/// a typo (`--itters 1000`) must not silently run with the default.
Flags parse_flags(int argc, char** argv, const FlagSet& allowed,
                  std::vector<std::string>* positional,
                  std::size_t max_positional = 1) {
  Flags flags;
  for (int i = 2; i < argc; ++i) {
    const std::string a = argv[i];
    if (a.rfind("--", 0) != 0) {
      if (positional->size() == max_positional) usage();
      positional->push_back(a);
      continue;
    }
    const std::string key = a.substr(2);
    if (allowed.toggle.contains(key)) {
      flags.insert_or_assign(key, std::string("1"));
    } else if (!allowed.value.contains(key)) {
      usage_error("unknown flag '" + a + "' for `dmtk " + argv[1] + "`");
    } else if (i + 1 < argc) {
      flags.insert_or_assign(key, std::string(argv[++i]));
    } else {
      usage_error(a + " expects a value");
    }
  }
  return flags;
}

/// The usual shape: flags plus at most one positional (empty if none).
Flags parse_flags(int argc, char** argv, const FlagSet& allowed,
                  std::string* positional) {
  std::vector<std::string> pos;
  Flags flags = parse_flags(argc, argv, allowed, &pos);
  *positional = pos.empty() ? std::string() : pos.front();
  return flags;
}

/// Strict integer flag: default when absent, usage error on a malformed
/// value or one outside [min, max].
long long flag_int(const Flags& f, const char* k, long long def,
                   long long min, long long max = LLONG_MAX) {
  auto it = f.find(k);
  if (it == f.end()) return def;
  const auto v = parse_ll(it->second);
  if (!v) {
    usage_error(std::string("--") + k + " expects an integer, got '" +
                it->second + "'");
  }
  if (*v < min) {
    usage_error(std::string("--") + k + " must be >= " + std::to_string(min) +
                ", got " + it->second);
  }
  if (*v > max) {
    usage_error(std::string("--") + k + " must be <= " + std::to_string(max) +
                ", got " + it->second);
  }
  return *v;
}

/// A flag stored in an int: the strict parse, capped at INT_MAX so a large
/// value is a usage error instead of a silent wrap.
int flag_i32(const Flags& f, const char* k, int def, int min) {
  return static_cast<int>(flag_int(f, k, def, min, INT_MAX));
}

/// Strict floating flag: default when absent, usage error on a malformed
/// value or one below `min`.
double flag_double(const Flags& f, const char* k, double def, double min) {
  auto it = f.find(k);
  if (it == f.end()) return def;
  const auto v = parse_f64(it->second);
  if (!v) {
    usage_error(std::string("--") + k + " expects a number, got '" +
                it->second + "'");
  }
  if (*v < min) {
    usage_error(std::string("--") + k + " must be >= " + std::to_string(min) +
                ", got " + it->second);
  }
  return *v;
}

std::string flag_str(const Flags& f, const char* k, const char* def = "") {
  auto it = f.find(k);
  return it == f.end() ? def : it->second;
}

/// --precision: double (default) or float; usage error otherwise.
bool flag_wants_f32(const Flags& f) {
  const std::string p = flag_str(f, "precision", "double");
  if (p == "double" || p == "fp64" || p == "f64") return false;
  if (p == "float" || p == "fp32" || p == "f32" || p == "single") return true;
  usage_error("--precision expects double|float, got '" + p + "'");
}

int cmd_generate(int argc, char** argv) {
  static const FlagSet kFlags{
      {"dims", "rank", "noise", "seed", "out", "precision", "density", "nnz"},
      {}};
  std::string pos;
  const Flags flags = parse_flags(argc, argv, kFlags, &pos);
  const std::string out = flag_str(flags, "out");
  const std::string dims_s = flag_str(flags, "dims");
  if (out.empty() || dims_s.empty()) usage();
  const std::vector<index_t> dims = parse_dims_or_die("dims", dims_s);
  const auto rank = static_cast<index_t>(flag_int(flags, "rank", 5, 1));
  const double noise = flag_double(flags, "noise", 0.0, 0.0);
  Rng rng(static_cast<std::uint64_t>(flag_int(flags, "seed", 7, 0)));

  // Sparse output is selected consistently by BOTH signals — the sparse
  // generator flags and the .tns extension — so `generate` can never write
  // a payload the rest of the CLI's extension dispatch cannot read back.
  const bool sparse_requested =
      flags.count("density") != 0 || flags.count("nnz") != 0;
  if (sparse_requested != is_sparse_tensor_path(out)) {
    std::fprintf(stderr,
                 sparse_requested
                     ? "--density/--nnz write FROSTT .tns text; use a .tns "
                       "output path\n"
                     : "writing a .tns sparse tensor needs --density or "
                       "--nnz\n");
    return 1;
  }
  if (sparse_requested) {
    // Sparse branch: uniform-random coordinates and values, written as a
    // FROSTT-style .tns text file (the sparse decompose path's input).
    if (flags.count("density") != 0 && flags.count("nnz") != 0) {
      std::fprintf(stderr, "--density and --nnz are mutually exclusive\n");
      return 1;
    }
    for (const char* dense_only : {"rank", "noise", "precision"}) {
      if (flags.count(dense_only) != 0) {
        std::fprintf(stderr,
                     "--%s is dense-only (the .tns text format stores "
                     "unstructured double nonzeros)\n",
                     dense_only);
        return 1;
      }
    }
    sparse::SparseTensor probe(dims);
    const index_t numel = probe.numel();
    index_t nnz;
    if (flags.count("nnz") != 0) {
      nnz = static_cast<index_t>(flag_int(flags, "nnz", 0, 1));
    } else {
      const double density = flag_double(flags, "density", 0.0, 0.0);
      if (density <= 0.0 || density > 1.0) {
        std::fprintf(stderr, "--density must be in (0, 1]\n");
        return 1;
      }
      nnz = static_cast<index_t>(density * static_cast<double>(numel) + 0.5);
    }
    if (nnz < 1) {
      std::fprintf(stderr, "sparse generate: need at least one nonzero\n");
      return 1;
    }
    const sparse::SparseTensor S = sparse::SparseTensor::random(dims, nnz,
                                                                rng);
    io::write_tns(out, S);
    std::printf(
        "wrote %s: order %lld, %lld nonzeros of %lld positions "
        "(density %.3g)\n",
        out.c_str(), static_cast<long long>(S.order()),
        static_cast<long long>(S.nnz()), static_cast<long long>(numel),
        static_cast<double>(S.nnz()) / static_cast<double>(numel));
    return 0;
  }

  const bool f32 = flag_wants_f32(flags);
  Ktensor truth = Ktensor::random(dims, rank, rng);
  Tensor X = truth.full();
  if (noise > 0.0) {
    const double sigma =
        noise * X.norm() / std::sqrt(static_cast<double>(X.numel()));
    Rng nrng = rng.split();
    for (index_t l = 0; l < X.numel(); ++l) X[l] += sigma * nrng.normal();
  }
  if (f32) {
    io::write_tensor(out, tensor_cast<float>(X));
  } else {
    io::write_tensor(out, X);
  }
  std::printf("wrote %s: order %lld, %lld entries, rank-%lld signal (%s)\n",
              out.c_str(), static_cast<long long>(X.order()),
              static_cast<long long>(X.numel()),
              static_cast<long long>(rank), f32 ? "f32" : "f64");
  return 0;
}

int cmd_fmri(int argc, char** argv) {
  static const FlagSet kFlags{
      {"time", "subjects", "regions", "rank", "noise", "seed", "out"},
      {"linearize"}};
  std::string pos;
  const Flags flags = parse_flags(argc, argv, kFlags, &pos);
  const std::string out = flag_str(flags, "out");
  if (out.empty()) usage();
  sim::FmriOptions fo;
  fo.time_steps = static_cast<index_t>(flag_int(flags, "time", 225, 1));
  fo.subjects = static_cast<index_t>(flag_int(flags, "subjects", 59, 1));
  fo.regions = static_cast<index_t>(flag_int(flags, "regions", 200, 1));
  fo.components = static_cast<index_t>(flag_int(flags, "rank", 10, 1));
  fo.noise_level = flag_double(flags, "noise", 0.05, 0.0);
  fo.seed = static_cast<std::uint64_t>(flag_int(flags, "seed", 7, 0));
  const sim::FmriData data = sim::make_fmri_tensor(fo);
  if (flags.count("linearize") != 0) {
    io::write_tensor(out, sim::symmetrize_linearize(data.tensor));
  } else {
    io::write_tensor(out, data.tensor);
  }
  std::printf("wrote %s\n", out.c_str());
  return 0;
}

/// `info --cpu`: the dispatch picture on this machine — detected ladder,
/// hardware level, and the active level with its source.
int cmd_info_cpu() {
  std::printf("cpu: %s\n", blas::cpu_brand().c_str());
  std::printf("simd ladder:");
  for (blas::SimdLevel lvl : blas::supported_simd_levels()) {
    std::printf(" %s", std::string(blas::to_string(lvl)).c_str());
  }
  std::printf("\n");
  const std::string hw(blas::to_string(blas::hardware_simd_level()));
  std::printf("hardware level: %s\n", hw.c_str());
  std::printf("active level: %s (%s)\n",
              std::string(blas::to_string(blas::simd_level())).c_str(),
              blas::simd_env_override() ? "DMTK_SIMD" : "hardware");
  return 0;
}

int cmd_info(int argc, char** argv) {
  static const FlagSet kFlags{{}, {"cpu"}};
  std::string pos;
  const Flags flags = parse_flags(argc, argv, kFlags, &pos);
  if (flags.count("cpu") != 0) {
    if (!pos.empty()) usage_error("info --cpu takes no tensor path");
    return cmd_info_cpu();
  }
  if (pos.empty()) usage();
  if (is_sparse_tensor_path(pos)) {
    const sparse::SparseTensor S = io::read_tns(pos);
    std::printf("%s: sparse, order %lld, dims", pos.c_str(),
                static_cast<long long>(S.order()));
    for (index_t d : S.dims()) {
      std::printf(" %lld", static_cast<long long>(d));
    }
    std::printf(", %lld nnz of %lld (density %.3g), ||X|| = %.6g\n",
                static_cast<long long>(S.nnz()),
                static_cast<long long>(S.numel()),
                static_cast<double>(S.nnz()) /
                    static_cast<double>(S.numel()),
                std::sqrt(S.norm_squared()));
    return 0;
  }
  const io::ScalarKind kind = io::tensor_scalar_kind(pos);
  const Tensor X = io::read_tensor(pos);
  const double bytes_per =
      kind == io::ScalarKind::F32 ? sizeof(float) : sizeof(double);
  std::printf("%s: order %lld, dims", pos.c_str(),
              static_cast<long long>(X.order()));
  for (index_t d : X.dims()) std::printf(" %lld", static_cast<long long>(d));
  std::printf(", %lld entries (%s, %.1f MB), ||X|| = %.6g\n",
              static_cast<long long>(X.numel()),
              kind == io::ScalarKind::F32 ? "f32" : "f64",
              static_cast<double>(X.numel()) * bytes_per / 1e6, X.norm());
  return 0;
}

/// Density from which a sparse decompose prints the advisory that the
/// dense kernels are expected to be faster.
constexpr double kSparseCrossoverDensity = 0.10;

/// `dmtk decompose`: flags -> DecomposeSpec -> DecomposeJob -> one report
/// line. The job owns every rule; its rejections are usage errors (exit 1)
/// and anything thrown while running is a runtime failure (exit 2).
int cmd_decompose(int argc, char** argv) {
  static const FlagSet kFlags{
      {"rank", "iters", "tol", "seed", "threads", "precision", "sweep",
       "method", "levels", "out", "checkpoint", "checkpoint-every"},
      {"nn", "resume"}};
  std::string pos;
  const Flags flags = parse_flags(argc, argv, kFlags, &pos);
  if (pos.empty()) usage();
  DecomposeSpec spec;
  spec.tensor = pos;
  spec.f32 = flag_wants_f32(flags);
  spec.nn = flags.count("nn") != 0;
  spec.rank = static_cast<index_t>(flag_int(flags, "rank", spec.rank, 1));
  spec.iters = flag_i32(flags, "iters", spec.iters, 1);
  spec.tol = flag_double(flags, "tol", spec.tol, 0.0);
  spec.seed = static_cast<std::uint64_t>(
      flag_int(flags, "seed", static_cast<long long>(spec.seed), 0));
  spec.levels = flag_i32(flags, "levels", spec.levels, 0);
  spec.checkpoint = flag_str(flags, "checkpoint");
  spec.checkpoint_every =
      flag_i32(flags, "checkpoint-every", spec.checkpoint_every, 1);
  spec.resume = flags.count("resume") != 0;
  const std::string sweep = flag_str(flags, "sweep", "auto");
  const auto scheme = parse_sweep_scheme(sweep);
  if (!scheme) usage_error("--sweep: unknown sweep scheme '" + sweep + "'");
  spec.sweep = *scheme;
  const std::string method = flag_str(flags, "method", "auto");
  const auto m = parse_mttkrp_method(method);
  if (!m) usage_error("--method: unknown MTTKRP method '" + method + "'");
  spec.method = *m;

  std::optional<DecomposeJob> job;
  try {
    job.emplace(std::move(spec));
  } catch (const std::invalid_argument& e) {
    usage_error(e.what());
  }
  const DecomposeSpec& s = job->spec();
  const ExecContext ctx(flag_i32(flags, "threads", 0, 0));
  const DecomposeOutcome r = job->run(ctx);

  const char* driver =
      job->sparse() ? "sparse cp_als" : (s.nn ? "cp_nnhals" : "cp_als");
  const char* precision =
      !s.f32 ? ""
             : (s.method == MttkrpMethod::Acc64 ? ", fp32+acc64" : ", fp32");
  const std::string nnz =
      job->sparse() ? "nnz " + std::to_string(r.nnz) + ", " : "";
  std::printf("%s[%s sweep%s]: rank %lld, %sfit %.6f, %d sweeps (%s), "
              "%.2f s\n",
              driver, std::string(to_string(r.scheme)).c_str(), precision,
              static_cast<long long>(s.rank), nnz.c_str(), r.fit,
              r.iterations, to_string(r.status), r.exec_ms / 1e3);
  if (job->sparse()) {
    // Advisory only: .tns input asked for the sparse path, but above the
    // crossover density the dense kernels are expected to win.
    const double numel = std::visit(
        [](const auto& K) {
          double n = 1.0;
          for (const auto& U : K.factors) n *= static_cast<double>(U.rows());
          return n;
        },
        r.model);
    const double density = static_cast<double>(r.nnz) / numel;
    if (density >= kSparseCrossoverDensity) {
      std::fprintf(stderr,
                   "note: density %.3g is at or above the dense/sparse "
                   "crossover %.3g — a dense (.dten) decomposition of this "
                   "tensor is expected to be faster\n",
                   density, kSparseCrossoverDensity);
    }
  }
  if (r.resumed_sweeps > 0) {
    std::printf("resumed from checkpoint at sweep %d\n", r.resumed_sweeps);
  }
  const std::string out = flag_str(flags, "out");
  if (!out.empty()) {
    r.write_model(out);
    std::printf("wrote %s\n", out.c_str());
  }
  return 0;
}

int cmd_tucker(int argc, char** argv) {
  static const FlagSet kFlags{{"ranks", "out-prefix"}, {}};
  std::string pos;
  const Flags flags = parse_flags(argc, argv, kFlags, &pos);
  const std::string ranks_s = flag_str(flags, "ranks");
  if (pos.empty() || ranks_s.empty()) usage();
  const Tensor X = io::read_tensor(pos);
  const std::vector<index_t> ranks = parse_dims_or_die("ranks", ranks_s);
  WallTimer t;
  const TuckerModel m = st_hosvd(X, ranks);
  std::printf("st_hosvd: rel-error %.3e, %.2f s\n",
              tucker_relative_error(X, m), t.seconds());
  const std::string prefix = flag_str(flags, "out-prefix");
  if (!prefix.empty()) {
    io::write_tensor(prefix + "_core.dten", m.core);
    for (std::size_t k = 0; k < m.factors.size(); ++k) {
      io::write_matrix(prefix + "_factor" + std::to_string(k) + ".dmat",
                       m.factors[k]);
    }
    std::printf("wrote %s_core.dten + %zu factors\n", prefix.c_str(),
                m.factors.size());
  }
  return 0;
}

/// The running server, for the signal handlers: request_stop() is one
/// atomic store, the only thing a handler may safely do.
serve::Server* g_server = nullptr;

void serve_signal_handler(int /*sig*/) {
  if (g_server != nullptr) g_server->request_stop();
}

int cmd_serve(int argc, char** argv) {
  static const FlagSet kFlags{
      {"socket", "workers", "threads", "queue-depth", "queue-timeout-ms",
       "batch-window-ms", "max-batch", "cache-entries", "cache-mb"},
      {}};
  std::string pos;
  const Flags flags = parse_flags(argc, argv, kFlags, &pos);
  if (!pos.empty()) usage();
  serve::ServeOptions so;
  so.socket = flag_str(flags, "socket");
  if (so.socket.empty()) usage_error("serve needs --socket <path>");
  so.workers = flag_i32(flags, "workers", 1, 1);
  so.threads = flag_i32(flags, "threads", 0, 0);
  so.queue_depth =
      static_cast<std::size_t>(flag_int(flags, "queue-depth", 64, 1));
  so.queue_timeout_ms = flag_i32(flags, "queue-timeout-ms", 30000, 0);
  so.batch_window_ms = flag_i32(flags, "batch-window-ms", 0, 0);
  so.max_batch = static_cast<std::size_t>(flag_int(flags, "max-batch", 16, 1));
  so.cache_entries =
      static_cast<std::size_t>(flag_int(flags, "cache-entries", 32, 0));
  // MiB -> bytes: cap the MiB count so the shift cannot overflow size_t.
  constexpr auto kMaxCacheMb = static_cast<long long>(SIZE_MAX >> 20);
  so.cache_bytes = static_cast<std::size_t>(
                       flag_int(flags, "cache-mb", 256, 0, kMaxCacheMb))
                   << 20;

  serve::Server server(so);
  server.start();
  g_server = &server;
  std::signal(SIGINT, serve_signal_handler);
  std::signal(SIGTERM, serve_signal_handler);
  std::printf("dmtk serve: listening on %s (%d worker%s)\n",
              so.socket.c_str(), std::max(1, so.workers),
              so.workers == 1 ? "" : "s");
  std::fflush(stdout);  // scripts wait for this line before connecting
  server.wait();
  server.stop();
  g_server = nullptr;
  std::printf("dmtk serve: shut down\n");
  return 0;
}

int cmd_client(int argc, char** argv) {
  static const FlagSet kFlags{
      {"socket", "timeout-ms", "retries", "retry-base-ms", "json", "rank",
       "seed", "precision", "out", "iters", "tol", "sweep", "method",
       "levels", "mode"},
      {"cold", "inline", "no-inline"}};
  // Two positionals: the action word and an optional tensor path.
  std::vector<std::string> pos;
  const Flags flags = parse_flags(argc, argv, kFlags, &pos, 2);
  const std::string action = pos.empty() ? std::string() : pos[0];
  const std::string tensor = pos.size() < 2 ? std::string() : pos[1];
  const std::string socket = flag_str(flags, "socket");
  if (socket.empty()) usage_error("client needs --socket <path>");
  const int timeout_ms = flag_i32(flags, "timeout-ms", 5000, 0);
  const std::string raw = flag_str(flags, "json");
  if (!raw.empty() && !action.empty()) {
    usage_error("--json replaces the action word; give one or the other");
  }
  if (raw.empty() && action.empty()) usage();

  std::string line = raw;
  if (line.empty()) {
    serve::Json req;
    if (action == "stats" || action == "shutdown" || action == "health") {
      req.set("type", serve::Json(action));
    } else if (action == "info" || action == "decompose" ||
               action == "mttkrp") {
      if (tensor.empty()) {
        usage_error("client " + action + " needs a tensor path");
      }
      req.set("type", serve::Json(action));
      req.set("tensor", serve::Json(tensor));
      if (action != "info") {
        // Only forward flags the user actually gave: the server owns the
        // defaults, and its strict validation names any bad value.
        if (flags.count("rank") != 0) {
          req.set("rank", serve::Json(flag_int(flags, "rank", 10, 1)));
        }
        if (flags.count("seed") != 0) {
          req.set("seed", serve::Json(flag_int(flags, "seed", 42, 0)));
        }
        if (flags.count("precision") != 0) {
          req.set("precision",
                  serve::Json(flag_wants_f32(flags) ? "float" : "double"));
        }
        if (flags.count("out") != 0) {
          req.set("out", serve::Json(flag_str(flags, "out")));
        }
      }
      if (action == "decompose") {
        if (flags.count("iters") != 0) {
          req.set("iters", serve::Json(flag_int(flags, "iters", 100, 1)));
        }
        if (flags.count("tol") != 0) {
          req.set("tol", serve::Json(flag_double(flags, "tol", 1e-6, 0.0)));
        }
        if (flags.count("sweep") != 0) {
          req.set("sweep", serve::Json(flag_str(flags, "sweep")));
        }
        if (flags.count("method") != 0) {
          req.set("method", serve::Json(flag_str(flags, "method")));
        }
        if (flags.count("levels") != 0) {
          req.set("levels", serve::Json(flag_int(flags, "levels", 0, 0)));
        }
        if (flags.count("cold") != 0) req.set("cold", serve::Json(true));
        if (flags.count("inline") != 0) {
          req.set("inline_model", serve::Json(true));
        }
        if (flags.count("no-inline") != 0) {
          req.set("inline_model", serve::Json(false));
        }
      } else if (action == "mttkrp") {
        if (flags.count("mode") == 0) {
          usage_error("client mttkrp needs --mode <n>");
        }
        req.set("mode", serve::Json(flag_int(flags, "mode", 0, 0)));
      }
    } else {
      usage_error("unknown client action '" + action +
                  "' (stats|health|shutdown|info|decompose|mttkrp|--json)");
    }
    line = req.dump();
  }

  const int retries = flag_i32(flags, "retries", 0, 0);
  std::string resp;
  if (retries > 0) {
    serve::RetryPolicy pol;
    pol.retries = retries;
    pol.base_ms = flag_i32(flags, "retry-base-ms", 100, 1);
    pol.connect_timeout_ms = timeout_ms;
    // ClientError after the last attempt -> main's handler, exit 2.
    resp = serve::request_with_retry(socket, line, pol);
  } else {
    serve::Client cli;
    cli.connect(socket, timeout_ms);  // ClientError -> main's handler, exit 2
    cli.send_line(line);
    const auto r = cli.recv_line();
    if (!r) {
      std::fprintf(stderr, "error: server closed the connection\n");
      return 2;
    }
    resp = *r;
  }
  std::printf("%s\n", resp.c_str());
  const serve::Json j = serve::Json::parse(resp);
  const serve::Json* ok = j.find("ok");
  return (ok != nullptr && ok->is_bool() && ok->as_bool()) ? 0 : 3;
}

int cmd_export(int argc, char** argv) {
  static const FlagSet kFlags{{"out-prefix"}, {}};
  std::string pos;
  const Flags flags = parse_flags(argc, argv, kFlags, &pos);
  const std::string prefix = flag_str(flags, "out-prefix");
  if (pos.empty() || prefix.empty()) usage();
  const Ktensor K = io::read_ktensor(pos);
  for (std::size_t n = 0; n < K.factors.size(); ++n) {
    const std::string path = prefix + "_mode" + std::to_string(n) + ".csv";
    io::export_csv(path, K.factors[n]);
    std::printf("wrote %s (%lld x %lld)\n", path.c_str(),
                static_cast<long long>(K.factors[n].rows()),
                static_cast<long long>(K.factors[n].cols()));
  }
  return 0;
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string cmd = argv[1];
  try {
    if (cmd == "generate") return cmd_generate(argc, argv);
    if (cmd == "fmri") return cmd_fmri(argc, argv);
    if (cmd == "info") return cmd_info(argc, argv);
    if (cmd == "decompose") return cmd_decompose(argc, argv);
    if (cmd == "tucker") return cmd_tucker(argc, argv);
    if (cmd == "export") return cmd_export(argc, argv);
    if (cmd == "serve") return cmd_serve(argc, argv);
    if (cmd == "client") return cmd_client(argc, argv);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "error: %s\n", e.what());
    return 2;
  }
  usage();
}
