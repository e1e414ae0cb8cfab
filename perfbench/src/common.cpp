#include "common.hpp"

#include <atomic>
#include <fstream>
#include <map>

namespace perfbench {

bool parse_kind(const std::string& name, Kind* out) {
  static const std::map<std::string, Kind> kinds = {
      {"cube3-f64", Kind::Cube3F64},
      {"fmri4-f32", Kind::Fmri4F32},
      {"serve-mix", Kind::ServeMix}};
  const auto it = kinds.find(name);
  if (it == kinds.end()) return false;
  *out = it->second;
  return true;
}

Spec make_spec(Kind kind, bool toy) {
  Spec s;
  s.kind = kind;
  switch (kind) {
    case Kind::Cube3F64:
      // The paper's synthetic 3-way kernel at 179 MB (out of a 105 MB L3).
      s.name = "cube3-f64";
      s.dims = toy ? std::vector<index_t>{24, 24, 24}
                   : std::vector<index_t>{282, 282, 282};
      s.rank = toy ? 5 : 25;
      s.noise = 0.1;
      s.sweeps_per_call = 1;
      s.fit_floor = 1.0 - 1.5 * s.noise;
      break;
    case Kind::Fmri4F32:
      // The paper's application tensor, time x subjects x regions^2.
      s.name = "fmri4-f32";
      s.regions = toy ? 10 : 60;
      s.dims = {toy ? 30 : 225, toy ? 8 : 59, s.regions, s.regions};
      s.rank = toy ? 4 : 10;
      s.noise = 0.05;
      s.f32 = true;
      s.sweeps_per_call = 1;
      s.fit_floor = 1.0 - 1.5 * s.noise;
      break;
    case Kind::ServeMix:
      s.name = "serve-mix";
      s.serve_cube = toy ? std::vector<index_t>{12, 12, 12}
                         : std::vector<index_t>{91, 91, 91};
      s.serve_hyper = toy ? std::vector<index_t>{6, 6, 6, 6}
                          : std::vector<index_t>{40, 40, 40, 40};
      s.dims = s.serve_cube;
      s.rank = toy ? 4 : 16;
      s.noise = 0.1;
      s.sweeps_per_call = 10;
      break;
  }
  return s;
}

std::uint64_t steal_ticks() {
  std::ifstream in("/proc/stat");
  std::string cpu;
  std::uint64_t v[8] = {};  // user nice system idle iowait irq softirq steal
  in >> cpu;
  for (std::uint64_t& x : v) in >> x;
  return in ? v[7] : 0;
}

std::map<std::string, double> read_refs(const fs::path& path) {
  std::map<std::string, double> refs;
  std::ifstream in(path);
  std::string key;
  double value = 0.0;
  while (in >> key >> value) refs[key] = value;
  return refs;
}

double peak_rss_mb() {
  // VmHWM, not getrusage's ru_maxrss: the latter survives exec and so
  // would report the launching process's peak when it was larger.
  std::ifstream in("/proc/self/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kib = 0.0;
      in >> kib;
      return kib / 1024.0;
    }
  }
  return 0.0;
}

PinnedTo::PinnedTo(std::size_t k) {
  CPU_ZERO(&old_);
  if (sched_getaffinity(0, sizeof old_, &old_) != 0) return;
  std::vector<int> cpus;
  for (int c = 0; c < CPU_SETSIZE; ++c) {
    if (CPU_ISSET(c, &old_)) cpus.push_back(c);
  }
  if (cpus.empty()) return;
  cpu_set_t one;
  CPU_ZERO(&one);
  CPU_SET(cpus[k % cpus.size()], &one);
  pinned_ = sched_setaffinity(0, sizeof one, &one) == 0;
}

PinnedTo::~PinnedTo() {
  if (pinned_) sched_setaffinity(0, sizeof old_, &old_);
}

namespace {

thread_local std::vector<int> t_open;  // ids of this thread's open spans
thread_local int t_tid = -1;
std::atomic<int> g_next_tid{0};

int this_tid() {
  if (t_tid < 0) t_tid = g_next_tid.fetch_add(1);
  return t_tid;
}

}  // namespace

int Trace::current() const { return t_open.empty() ? -1 : t_open.back(); }

Trace::Adopt::Adopt(int parent) : pushed_(parent >= 0) {
  if (pushed_) t_open.push_back(parent);
}

Trace::Adopt::~Adopt() {
  if (pushed_) t_open.pop_back();
}

int Trace::open(const char* name, std::uint64_t req) {
  Span s;
  s.name = name;
  s.t0 = now_us();
  s.parent = t_open.empty() ? -1 : t_open.back();
  s.req = req;
  s.tid = this_tid();
  int id = 0;
  {
    dmtk::LockGuard lk(mu_);
    id = static_cast<int>(spans_.size());
    spans_.push_back(std::move(s));
  }
  t_open.push_back(id);
  return id;
}

void Trace::close(int id) {
  const double t1 = now_us();
  if (!t_open.empty() && t_open.back() == id) t_open.pop_back();
  dmtk::LockGuard lk(mu_);
  spans_[static_cast<std::size_t>(id)].t1 = t1;
}

void Trace::add(const char* name, double t0_us, double t1_us, int parent,
                std::uint64_t req) {
  if (!enabled_) return;
  Span s;
  s.name = name;
  s.t0 = t0_us;
  s.t1 = std::max(t0_us, t1_us);
  s.parent = parent;
  s.req = req;
  s.tid = this_tid();
  dmtk::LockGuard lk(mu_);
  spans_.push_back(std::move(s));
}

void Trace::write_chrome(const fs::path& path) const {
  std::ofstream out(path);
  out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[";
  dmtk::LockGuard lk(mu_);
  char buf[512];
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::snprintf(buf, sizeof buf,
                  "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":%d,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                  "\"parent\":%d,\"req\":%llu}}",
                  i == 0 ? "" : ",", s.name.c_str(), s.tid, s.t0, s.t1 - s.t0,
                  i, s.parent, static_cast<unsigned long long>(s.req));
    out << buf;
  }
  out << "\n]}\n";
}

void Trace::print_rollup() const {
  dmtk::LockGuard lk(mu_);
  // Self time: a span's duration minus the part of it its children cover
  // (children on other threads may overlap, so their union is taken).
  std::vector<std::vector<std::pair<double, double>>> kids(spans_.size());
  for (const Span& s : spans_) {
    if (s.parent >= 0) {
      kids[static_cast<std::size_t>(s.parent)].emplace_back(s.t0, s.t1);
    }
  }
  std::vector<double> child(spans_.size(), 0.0);
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    auto& iv = kids[i];
    std::sort(iv.begin(), iv.end());
    double end = -1e300;
    for (const auto& [a, b] : iv) {
      const double from = std::max(a, end);
      if (b > from) child[i] += b - from;
      end = std::max(end, b);
    }
  }
  struct Row {
    long spans = 0;
    double total_us = 0.0, self_us = 0.0;
  };
  std::map<std::string, Row> rows;
  double all_self = 0.0;
  for (std::size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    const std::string layer = s.name.substr(0, s.name.find('.'));
    const double dur = s.t1 - s.t0;
    const double self = std::max(0.0, dur - child[i]);
    Row& r = rows[layer];
    ++r.spans;
    r.total_us += dur;
    r.self_us += self;
    all_self += self;
  }
  std::printf("trace rollup: self time per layer (%zu spans)\n",
              spans_.size());
  std::printf("  %-10s %8s %12s %12s %7s\n", "layer", "spans", "total_ms",
              "self_ms", "self%");
  for (const auto& [layer, r] : rows) {
    std::printf("  %-10s %8ld %12.3f %12.3f %6.1f%%\n", layer.c_str(), r.spans,
                r.total_us / 1e3, r.self_us / 1e3,
                all_self > 0 ? 100.0 * r.self_us / all_self : 0.0);
  }
}

}  // namespace perfbench
