#pragma once
/// \file common.hpp
/// \brief Shared pieces of the benchmark: workload specs, metric
/// collection, order statistics, timed windows and the span recorder.

#include <sched.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <filesystem>
#include <map>
#include <string>
#include <vector>

#include "core/matrix.hpp"
#include "core/tensor.hpp"
#include "exec/exec_context.hpp"
#include "util/common.hpp"
#include "util/mutex.hpp"
#include "util/rng.hpp"

namespace perfbench {

using dmtk::index_t;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

inline double seconds_since(Clock::time_point t0) {
  return std::chrono::duration<double>(Clock::now() - t0).count();
}

// ---------------------------------------------------------------------------
// Workloads
// ---------------------------------------------------------------------------

enum class Kind { Cube3F64, Fmri4F32, ServeMix };

/// Everything a workload's generator and runner agree on. `toy` shrinks
/// every extent so the self-check runs every workload in seconds.
struct Spec {
  Kind kind = Kind::Cube3F64;
  const char* name = "";
  std::vector<index_t> dims;  ///< batch: the decomposed tensor
  index_t rank = 1;
  double noise = 0.0;         ///< relative Frobenius noise of the input
  bool f32 = false;           ///< tensor stored in fp32
  int sweeps_per_call = 1;    ///< fixed sweep count of one timed cp_als call
  /// Planted-noise floor for the fit (0 = checked against a reference
  /// only). The fit of the planted model is about 1 - noise.
  double fit_floor = 0.0;
  index_t regions = 0;        ///< fmri4-f32: simulated brain regions
  // serve-mix: the two served files (f64 cube, f32 4-way).
  std::vector<index_t> serve_cube, serve_hyper;
};

bool parse_kind(const std::string& name, Kind* out);
Spec make_spec(Kind kind, bool toy);

// ---------------------------------------------------------------------------
// Metrics and order statistics
// ---------------------------------------------------------------------------

struct Metric {
  std::string name;
  double value = 0.0;
  std::string unit;
};

/// What one run reports: operations attempted and failed (wrong result,
/// busy, timeout or error — never fatal) plus named metrics.
struct Result {
  std::vector<Metric> metrics;
  long attempted = 0;
  long failed = 0;

  void add(std::string name, double value, std::string unit) {
    metrics.push_back({std::move(name), value, std::move(unit)});
  }
  void op(bool ok) {
    ++attempted;
    if (!ok) ++failed;
  }
};

/// Nearest-rank quantile (q in [0, 1]) of a sample; 0 for an empty one.
inline double quantile(std::vector<double> v, double q) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const auto n = static_cast<double>(v.size());
  const auto rank = static_cast<std::size_t>(std::ceil(q * n));
  return v[std::min(v.size() - 1, rank == 0 ? 0 : rank - 1)];
}

inline double median_of(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  std::vector<double> s(v);
  std::sort(s.begin(), s.end());
  const std::size_t n = s.size();
  return n % 2 == 1 ? s[n / 2] : 0.5 * (s[n / 2 - 1] + s[n / 2]);
}

/// Fisher-Yates shuffle from a seeded stream.
template <typename V>
void shuffle(V& v, dmtk::Rng& rng) {
  for (std::size_t i = v.size(); i > 1; --i) {
    std::swap(v[i - 1], v[rng.below(i)]);
  }
}

/// Prints a sample's size and spread: min / p10 / p25 / median / p90 / max.
inline void describe(const char* what, const std::vector<double>& v,
                     const char* unit) {
  std::printf("  %-22s n=%-4zu min %.6g  p10 %.6g  p25 %.6g  p50 %.6g  "
              "p90 %.6g  max %.6g %s\n",
              what, v.size(), quantile(v, 0.0), quantile(v, 0.1),
              quantile(v, 0.25), quantile(v, 0.5), quantile(v, 0.9),
              quantile(v, 1.0), unit);
}

/// Steal ticks (10 ms) of all CPUs so far: time the hypervisor ran other
/// guests while the CPUs of this system wanted to run (/proc/stat; 0 if
/// unreadable). A 4-thread team stalls whenever any of its CPUs is
/// descheduled, so on a shared host 10% steal can make team timings 1.5x
/// slower: such samples measure the neighbours, not dmtk.
std::uint64_t steal_ticks();

/// Timings of one operation, each with the host steal ticks that accrued
/// while it ran.
struct Timings {
  std::vector<double> all;
  std::vector<std::uint64_t> steal;

  void add(double v, std::uint64_t steal_ticks) {
    all.push_back(v);
    steal.push_back(steal_ticks);
  }
  [[nodiscard]] std::size_t clean() const {
    return static_cast<std::size_t>(
        std::count(steal.begin(), steal.end(), std::uint64_t{0}));
  }
  /// The samples the metrics use, the ones the host disturbed least:
  /// every sample that ran without steal, and at least the half with the
  /// fewest steal ticks.
  [[nodiscard]] std::vector<double> use() const {
    std::vector<std::size_t> order(all.size());
    for (std::size_t i = 0; i < order.size(); ++i) order[i] = i;
    std::stable_sort(order.begin(), order.end(),
                     [&](std::size_t a, std::size_t b) {
                       return steal[a] < steal[b];
                     });
    order.resize(std::max((all.size() + 1) / 2, clean()));
    std::vector<double> v;
    for (const std::size_t i : order) v.push_back(all[i]);
    return v;
  }
  [[nodiscard]] double median() const { return median_of(use()); }
  /// Operations per second of operation time (1 / mean of use()).
  [[nodiscard]] double per_second() const {
    const std::vector<double> v = use();
    double sum = 0.0;
    for (const double x : v) sum += x;
    return sum > 0.0 ? static_cast<double>(v.size()) / sum : 0.0;
  }
};

inline void describe(const char* what, const Timings& t, const char* unit) {
  const std::vector<double> v = t.use();
  describe(what, v, unit);
  std::printf("  %-22s %zu of %zu ran without host steal; the metrics use "
              "the %zu least disturbed\n",
              "", t.clean(), t.all.size(), v.size());
}

/// Relative difference |a - b| / max(|b|, tiny).
inline double rel_diff(double a, double b) {
  return std::abs(a - b) / std::max(std::abs(b), 1e-300);
}

/// Calls `fn()` until `seconds` have passed and at least `min_calls` ran.
template <typename F>
void run_window(double seconds, int min_calls, F&& fn) {
  const auto t0 = Clock::now();
  for (int calls = 0; calls < min_calls || seconds_since(t0) < seconds;
       ++calls) {
    fn();
  }
}

/// Peak resident memory of this process so far (VmHWM).
double peak_rss_mb();

/// Pins the calling thread to the k-th CPU it may run on (k modulo their
/// count) while it lives, then restores its affinity. 1-thread timings
/// rotate through the CPUs with it: on a shared host a CPU whose sibling
/// hyperthread is idle runs single-threaded code up to 30% faster, and a
/// thread left where it started made whole runs fast or slow at random.
class PinnedTo {
 public:
  explicit PinnedTo(std::size_t k);
  ~PinnedTo();
  PinnedTo(const PinnedTo&) = delete;
  PinnedTo& operator=(const PinnedTo&) = delete;

 private:
  cpu_set_t old_;
  bool pinned_ = false;
};

// ---------------------------------------------------------------------------
// Span recorder
// ---------------------------------------------------------------------------

/// In-memory spans recorded by the benchmark around the public calls of
/// each layer. A span has a name ("<layer>.<what>"), start, end, the span
/// open on the same thread when it began (its parent), and a request id
/// shared by every span of one request. Disabled, a Scope costs one
/// branch. Output: Chrome trace-event JSON and a self-time rollup per
/// layer.
class Trace {
 public:
  explicit Trace(bool enabled) : enabled_(enabled), t0_(Clock::now()) {}
  Trace(const Trace&) = delete;
  Trace& operator=(const Trace&) = delete;

  /// Toggled only while no other thread records (between phases).
  void set_enabled(bool on) { enabled_ = on; }
  [[nodiscard]] double now_us() const { return seconds_since(t0_) * 1e6; }

  class Scope {
   public:
    Scope(Trace& tr, const char* name, std::uint64_t req = 0)
        : tr_(tr.enabled_ ? &tr : nullptr),
          id_(tr_ != nullptr ? tr_->open(name, req) : -1) {}
    ~Scope() {
      if (tr_ != nullptr) tr_->close(id_);
    }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;
    [[nodiscard]] int id() const { return id_; }

   private:
    Trace* tr_;
    int id_;
  };

  /// The innermost span open on the calling thread (-1 if none).
  [[nodiscard]] int current() const;

  /// Makes `parent` (a span open on another thread) the parent of the
  /// spans this thread opens while the Adopt lives.
  class Adopt {
   public:
    explicit Adopt(int parent);
    ~Adopt();
    Adopt(const Adopt&) = delete;
    Adopt& operator=(const Adopt&) = delete;

   private:
    bool pushed_;
  };

  /// A span whose interval was measured elsewhere (a server phase taken
  /// from a response's timings), attached under `parent`.
  void add(const char* name, double t0_us, double t1_us, int parent,
           std::uint64_t req);

  void write_chrome(const fs::path& path) const;
  void print_rollup() const;

 private:
  struct Span {
    std::string name;
    double t0 = 0.0, t1 = 0.0;  ///< microseconds since the recorder began
    int parent = -1;
    std::uint64_t req = 0;
    int tid = 0;
  };

  int open(const char* name, std::uint64_t req);
  void close(int id);

  bool enabled_;
  Clock::time_point t0_;
  mutable dmtk::Mutex mu_;
  std::vector<Span> spans_ DMTK_GUARDED_BY(mu_);
};

// ---------------------------------------------------------------------------
// Phases
// ---------------------------------------------------------------------------

/// Set-ups per run; setup_s is their median.
constexpr int kSetups = 5;

struct RunArgs {
  Spec spec;
  fs::path dir;            ///< the generated inputs
  double seconds = 10.0;   ///< measured time of the run
  std::uint64_t seed = 1;  ///< request mix and mode order
  int threads = 1;         ///< the full team (the machine's cores)
};

/// Machine roofs measured in the same run as the layer metrics.
struct Roofs {
  double stream_gbps_1t = 0.0;  ///< read bandwidth, arrays >= 4x LLC
  double stream_gbps = 0.0;     ///< same, full team
  double peak_f64_1t = 0.0;     ///< in-tree square GEMM, GFLOP/s
  double peak_f32_1t = 0.0;
  [[nodiscard]] double peak_1t(bool f32) const {
    return f32 ? peak_f32_1t : peak_f64_1t;
  }
};

/// Untraced end-to-end figures the layer metrics are put against.
struct EndToEnd {
  double sweep_s = 0.0;
  double sweep_s_1t = 0.0;
};

void generate(const Spec& spec, std::uint64_t seed, const fs::path& dir);
Roofs measure_roofs(Result& res, Trace& tr, int threads);
void run_batch(const RunArgs& a, bool traced, Result& res, Trace& tr);
void run_serve_mix(const RunArgs& a, bool traced, Result& res, Trace& tr);
/// serve.* layer metrics for a batch workload: its own tensor file served
/// by one full-team worker.
void measure_served(const RunArgs& a, const fs::path& file, Result& res,
                    Trace& tr);
/// The generator's scalar references ("<key> <value>" lines).
std::map<std::string, double> read_refs(const fs::path& path);

/// Per-layer metrics of the blas/core/exec/io/util layers on one tensor:
/// `factors` are the model the calls use, `plan` the sweep plan the
/// workload runs (built here when null), `file` the tensor's file.
template <typename T>
void measure_layers(const Roofs& roofs, const EndToEnd& e2e,
                    const dmtk::TensorT<T>& X,
                    const std::vector<dmtk::MatrixT<T>>& factors,
                    const dmtk::ExecContext& ctx, const fs::path& file,
                    Result& res, Trace& tr);

}  // namespace perfbench
