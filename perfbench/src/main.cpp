/// \file main.cpp
/// \brief perfbench: dmtk's end-to-end and per-layer benchmark binary.
///
///   perfbench gen --workload W --seed S --dir D [--toy]
///   perfbench run --workload W --seed S --dir D --seconds T --trace 0|1
///                 [--toy] [--chrome PATH]
///
/// `gen` writes the workload's inputs; `run` reads them, measures for about
/// T seconds, checks every operation's output and prints, as its last
/// line, {"correct","attempted","failed","metrics"}: the end-to-end
/// metrics untraced (--trace 0), the per-layer metrics traced (--trace 1).

#include <omp.h>

#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common.hpp"

using namespace perfbench;

namespace {

[[noreturn]] void usage() {
  std::fprintf(stderr,
               "usage: perfbench gen|run --workload W --seed S --dir D "
               "[--seconds T] [--trace 0|1] [--toy] [--chrome PATH]\n");
  std::exit(1);
}

void print_result(const Result& res) {
  std::string out = "{\"correct\": ";
  out += res.failed == 0 ? "true" : "false";
  out += ", \"attempted\": " + std::to_string(res.attempted) +
         ", \"failed\": " + std::to_string(res.failed) + ", \"metrics\": {";
  char buf[256];
  for (std::size_t i = 0; i < res.metrics.size(); ++i) {
    const Metric& m = res.metrics[i];
    const double v = std::isfinite(m.value) ? m.value : 0.0;
    std::snprintf(buf, sizeof buf, "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                  i == 0 ? "" : ", ", m.name.c_str(), v, m.unit.c_str());
    out += buf;
  }
  out += "}}";
  std::printf("%s\n", out.c_str());
}

void print_table(const Result& res) {
  for (const Metric& m : res.metrics) {
    // Rates over bytes derived from array sizes, not from counters.
    const bool computed = m.name.find("krp_gbps") != std::string::npos ||
                          m.name.find("tensor_gbps") != std::string::npos;
    std::printf("  %-34s %14.6g %-8s%s\n", m.name.c_str(), m.value,
                m.unit.c_str(), computed ? " (computed bytes)" : "");
  }
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) usage();
  const std::string cmd = argv[1];
  std::string workload, dir, chrome;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  int trace = 0;
  bool toy = false;
  for (int i = 2; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) usage();
      return argv[++i];
    };
    if (arg == "--workload") workload = value();
    else if (arg == "--dir") dir = value();
    else if (arg == "--seed") seed = std::strtoull(value().c_str(), nullptr, 10);
    else if (arg == "--seconds") seconds = std::atof(value().c_str());
    else if (arg == "--trace") trace = std::atoi(value().c_str());
    else if (arg == "--chrome") chrome = value();
    else if (arg == "--toy") toy = true;
    else usage();
  }
  Kind kind;
  if (!parse_kind(workload, &kind) || dir.empty() || seconds <= 0.0 ||
      (trace != 0 && trace != 1)) {
    usage();
  }

  try {
    RunArgs a;
    a.spec = make_spec(kind, toy);
    a.dir = dir;
    a.seconds = seconds;
    a.seed = seed;
    a.threads = omp_get_num_procs();
    if (cmd == "gen") {
      generate(a.spec, seed, a.dir);
      return 0;
    }
    if (cmd != "run") usage();

    Result res;
    Trace tr(trace == 1);
    if (kind == Kind::ServeMix) {
      run_serve_mix(a, trace == 1, res, tr);
    } else {
      run_batch(a, trace == 1, res, tr);
    }
    if (trace == 0) {
      res.add("ok_frac",
              static_cast<double>(res.attempted - res.failed) /
                  static_cast<double>(std::max(1L, res.attempted)),
              "frac");
    } else {
      tr.print_rollup();
      if (!chrome.empty()) tr.write_chrome(chrome);
    }
    std::printf("%s: %ld operations, %ld failed\n", a.spec.name, res.attempted,
                res.failed);
    print_table(res);
    print_result(res);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench: %s\n", e.what());
    return 2;
  }
  return 0;
}
