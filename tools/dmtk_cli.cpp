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

#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <iostream>
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
      "  info      --cpu [--wisdom F]\n"
      "            (prints the detected SIMD ladder, the chosen default\n"
      "             dispatch level, the active level, and whether a tuned\n"
      "             wisdom profile is loaded)\n"
      "  tune      [--quick] [--out F] [--json] [--threads t] [--trials n]\n"
      "            (measures this machine: SIMD level x precision GEMM\n"
      "             sweep, cache-blocking descent, dimtree-vs-permode,\n"
      "             two-step side, dense/sparse crossover; writes a per-CPU\n"
      "             wisdom profile, default dmtk_wisdom.json, that\n"
      "             decompose/serve load via --wisdom or DMTK_WISDOM;\n"
      "             --quick shrinks every probe to a seconds-long smoke,\n"
      "             --json prints the full measurement report)\n"
      "  decompose <tensor.dten> --rank R [--nn] [--wisdom F]\n"
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
      "             dimtree for 4-way-and-up tensors; --precision float\n"
      "             runs the whole ALS pipeline in fp32 — half the memory\n"
      "             bandwidth, fit accurate to ~1e-4; --method acc64 (with\n"
      "             --precision float, per-mode sweep) keeps fp32 storage\n"
      "             but sums every MTTKRP entry in fp64, recovering the\n"
      "             fp64 fit floor at fp32 storage cost — slower per sweep:\n"
      "             the fp64 loop skips the blocked kernels)\n"
      "            (--wisdom loads a tuned profile STRICTLY: a missing,\n"
      "             corrupt, or other-CPU profile aborts the run; the\n"
      "             DMTK_WISDOM env autoloads leniently instead)\n"
      "  decompose <tensor.tns> --rank R [--sweep csf|coo|auto] [--wisdom F]\n"
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
      "            [--wisdom F]  (strict: a bad profile fails startup;\n"
      "             health/stats report the loaded profile path)\n"
      "            (resident decomposition server on a Unix socket:\n"
      "             newline-delimited JSON requests, per-worker plan cache,\n"
      "             bounded job queue, same-shape request batching)\n"
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
/// value or one below `min`.
long long flag_int(const Flags& f, const char* k, long long def,
                   long long min) {
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
  return *v;
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

/// --wisdom F: STRICT tuned-profile load — a missing, corrupt, or
/// other-CPU profile aborts (exit 2) with the reason. The DMTK_WISDOM env
/// autoload stays lenient (warn + ignore); an explicit flag must not be.
void flag_load_wisdom(const Flags& f) {
  const std::string path = flag_str(f, "wisdom");
  if (path.empty()) return;
  std::string why;
  if (!tune::load_wisdom(path, &why)) {
    std::fprintf(stderr, "error: --wisdom %s: %s\n", path.c_str(),
                 why.c_str());
    std::exit(2);
  }
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
/// hardware level, the active level with its source, and wisdom status.
int cmd_info_cpu(const Flags& flags) {
  flag_load_wisdom(flags);
  std::printf("cpu: %s\n", tune::cpu_brand().c_str());
  std::printf("simd ladder:");
  for (blas::SimdLevel lvl : blas::supported_simd_levels()) {
    std::printf(" %s", std::string(blas::to_string(lvl)).c_str());
  }
  std::printf("\n");
  const std::string hw(blas::to_string(blas::hardware_simd_level()));
  std::printf("hardware level: %s\n", hw.c_str());
  // One snapshot, branched on directly — wisdom() copies the profile out
  // under the registry lock (and performs the DMTK_WISDOM autoload, which
  // may move the level), so `p` stays valid whatever happens afterwards.
  const std::optional<tune::WisdomProfile> p = tune::wisdom();
  std::printf("active level: %s (%s)\n",
              std::string(blas::to_string(blas::simd_level())).c_str(),
              blas::simd_env_override() ? "DMTK_SIMD"
              : p                       ? "wisdom"
                                        : "hardware");
  if (p) {
    const std::string src = tune::wisdom_source();
    std::printf(
        "wisdom: loaded%s%s\n", src.empty() ? "" : " from ", src.c_str());
    std::printf(
        "  best f64 %s (%.2f GF/s tuned vs %.2f default), best f32 %s\n",
        std::string(blas::to_string(p->best_simd_f64)).c_str(),
        p->tuned_gflops_f64, p->default_gflops_f64,
        std::string(blas::to_string(p->best_simd_f32)).c_str());
    std::printf("  blocking MCxKCxNC %lldx%lldx%lld, dimtree min-order %lld "
                "levels %d, two-step %s, sparse crossover %.3g\n",
                static_cast<long long>(p->blocking.mc),
                static_cast<long long>(p->blocking.kc),
                static_cast<long long>(p->blocking.nc),
                static_cast<long long>(p->dimtree_min_order),
                p->dimtree_levels,
                std::string(tune::to_string(p->twostep)).c_str(),
                p->sparse_crossover);
  } else {
    std::printf("wisdom: none (run `dmtk tune --out F`, then --wisdom F or "
                "DMTK_WISDOM=F)\n");
  }
  return 0;
}

int cmd_info(int argc, char** argv) {
  static const FlagSet kFlags{{"wisdom"}, {"cpu"}};
  std::string pos;
  const Flags flags = parse_flags(argc, argv, kFlags, &pos);
  if (flags.count("cpu") != 0) {
    if (!pos.empty()) usage_error("info --cpu takes no tensor path");
    return cmd_info_cpu(flags);
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

/// `dmtk tune`: run the measurement pass (src/tune/tuner.hpp) and persist
/// the wisdom profile for --wisdom / DMTK_WISDOM.
int cmd_tune(int argc, char** argv) {
  static const FlagSet kFlags{{"out", "threads", "trials"},
                              {"quick", "json"}};
  std::string pos;
  const Flags flags = parse_flags(argc, argv, kFlags, &pos);
  if (!pos.empty()) usage();
  tune::TuneOptions to;
  to.quick = flags.count("quick") != 0;
  to.threads = static_cast<int>(flag_int(flags, "threads", 0, 0));
  to.trials = static_cast<int>(flag_int(flags, "trials", 0, 0));
  to.log = &std::cout;
  const std::string out = flag_str(flags, "out", "dmtk_wisdom.json");

  const tune::TuneReport rep = tune::run_tune(to);
  tune::save_wisdom(out, rep.profile);
  std::printf("wrote %s (best f64 %s, %.2f GF/s tuned vs %.2f default)\n",
              out.c_str(),
              std::string(blas::to_string(rep.profile.best_simd_f64)).c_str(),
              rep.profile.tuned_gflops_f64, rep.profile.default_gflops_f64);
  if (flags.count("json") != 0) {
    std::printf("%s\n", tune::report_to_json(rep).c_str());
  }
  return 0;
}

/// `dmtk decompose`: flags -> DecomposeSpec -> DecomposeJob -> one report
/// line. The job owns every rule; its rejections are usage errors (exit 1)
/// and anything thrown while running is a runtime failure (exit 2).
int cmd_decompose(int argc, char** argv) {
  static const FlagSet kFlags{
      {"rank", "iters", "tol", "seed", "threads", "precision", "sweep",
       "method", "levels", "out", "wisdom", "checkpoint", "checkpoint-every"},
      {"nn", "resume"}};
  std::string pos;
  const Flags flags = parse_flags(argc, argv, kFlags, &pos);
  if (pos.empty()) usage();
  DecomposeSpec spec;
  spec.tensor = pos;
  spec.f32 = flag_wants_f32(flags);
  spec.nn = flags.count("nn") != 0;
  spec.rank = static_cast<index_t>(flag_int(flags, "rank", spec.rank, 1));
  spec.iters = static_cast<int>(flag_int(flags, "iters", spec.iters, 1));
  spec.tol = flag_double(flags, "tol", spec.tol, 0.0);
  spec.seed = static_cast<std::uint64_t>(
      flag_int(flags, "seed", static_cast<long long>(spec.seed), 0));
  spec.levels = static_cast<int>(flag_int(flags, "levels", spec.levels, 0));
  spec.checkpoint = flag_str(flags, "checkpoint");
  spec.checkpoint_every = static_cast<int>(
      flag_int(flags, "checkpoint-every", spec.checkpoint_every, 1));
  spec.resume = flags.count("resume") != 0;
  const std::string sweep = flag_str(flags, "sweep", "auto");
  const auto scheme = parse_sweep_scheme(sweep);
  if (!scheme) usage_error("--sweep: unknown sweep scheme '" + sweep + "'");
  spec.sweep = *scheme;
  const std::string method = flag_str(flags, "method", "auto");
  const auto m = parse_mttkrp_method(method);
  if (!m) usage_error("--method: unknown MTTKRP method '" + method + "'");
  spec.method = *m;

  flag_load_wisdom(flags);  // before the job resolves Auto against it
  std::optional<DecomposeJob> job;
  try {
    job.emplace(std::move(spec));
  } catch (const std::invalid_argument& e) {
    usage_error(e.what());
  }
  const DecomposeSpec& s = job->spec();
  const ExecContext ctx(static_cast<int>(flag_int(flags, "threads", 0, 0)));
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
    // measured crossover the dense kernels are expected to win.
    const double numel = std::visit(
        [](const auto& K) {
          double n = 1.0;
          for (const auto& U : K.factors) n *= static_cast<double>(U.rows());
          return n;
        },
        r.model);
    const double density = static_cast<double>(r.nnz) / numel;
    if (density >= tune::wisdom_sparse_crossover()) {
      std::fprintf(stderr,
                   "note: density %.3g is at or above the %s dense/sparse "
                   "crossover %.3g — a dense (.dten) decomposition of this "
                   "tensor is expected to be faster\n",
                   density, tune::wisdom_loaded() ? "tuned" : "default",
                   tune::wisdom_sparse_crossover());
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
       "batch-window-ms", "max-batch", "cache-entries", "cache-mb", "wisdom"},
      {}};
  std::string pos;
  const Flags flags = parse_flags(argc, argv, kFlags, &pos);
  if (!pos.empty()) usage();
  serve::ServeOptions so;
  so.socket = flag_str(flags, "socket");
  if (so.socket.empty()) usage_error("serve needs --socket <path>");
  so.workers = static_cast<int>(flag_int(flags, "workers", 1, 1));
  so.threads = static_cast<int>(flag_int(flags, "threads", 0, 0));
  so.queue_depth =
      static_cast<std::size_t>(flag_int(flags, "queue-depth", 64, 1));
  so.queue_timeout_ms =
      static_cast<int>(flag_int(flags, "queue-timeout-ms", 30000, 0));
  so.batch_window_ms =
      static_cast<int>(flag_int(flags, "batch-window-ms", 0, 0));
  so.max_batch = static_cast<std::size_t>(flag_int(flags, "max-batch", 16, 1));
  so.cache_entries =
      static_cast<std::size_t>(flag_int(flags, "cache-entries", 32, 0));
  so.cache_bytes =
      static_cast<std::size_t>(flag_int(flags, "cache-mb", 256, 0)) << 20;
  so.wisdom = flag_str(flags, "wisdom");

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
  const int timeout_ms =
      static_cast<int>(flag_int(flags, "timeout-ms", 5000, 0));
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

  const int retries = static_cast<int>(flag_int(flags, "retries", 0, 0));
  std::string resp;
  if (retries > 0) {
    serve::RetryPolicy pol;
    pol.retries = retries;
    pol.base_ms =
        static_cast<int>(flag_int(flags, "retry-base-ms", 100, 1));
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
    if (cmd == "tune") return cmd_tune(argc, argv);
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
