#include "tune/wisdom.hpp"

#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <optional>
#include <stdexcept>
#include <string>

#include "io/checked_io.hpp"
// dmtk-lint: allow(layering): serve/json.hpp is the in-tree JSON codec
// (standard headers only, no server code); wisdom profiles are JSON.
#include "serve/json.hpp"
#include "util/mutex.hpp"

namespace dmtk::tune {

namespace {

struct Registry {
  Mutex mu;
  std::optional<WisdomProfile> profile DMTK_GUARDED_BY(mu);
  std::string source DMTK_GUARDED_BY(mu);
  bool env_checked DMTK_GUARDED_BY(mu) = false;
};

Registry& registry() {
  static Registry r;
  return r;
}

/// Apply the profile's process-global side effects. Caller holds the lock.
void install_locked(Registry& r, const WisdomProfile& p,
                    const std::string& source) DMTK_REQUIRES(r.mu) {
  r.profile = p;
  r.source = source;
  blas::set_gemm_blocking(p.blocking);
  // DMTK_SIMD is the explicit override: a profile never beats it.
  if (!blas::simd_env_override()) {
    blas::set_simd_level(p.best_simd_f64);
  }
}

/// DMTK_WISDOM autoload, once. Lenient: a bad path or mismatched profile
/// warns and is ignored (the explicit --wisdom flag path is strict).
/// Caller holds the lock.
void env_autoload_locked(Registry& r) DMTK_REQUIRES(r.mu) {
  if (r.env_checked) return;
  r.env_checked = true;
  const char* env = std::getenv("DMTK_WISDOM");
  if (env == nullptr || *env == '\0' || r.profile.has_value()) return;
  try {
    WisdomProfile p = read_wisdom_file(env);
    std::string why;
    if (!profile_matches_cpu(p, &why)) {
      std::fprintf(stderr,
                   "dmtk: DMTK_WISDOM=%s ignored: %s\n", env, why.c_str());
      return;
    }
    install_locked(r, p, env);
  } catch (const std::exception& e) {
    std::fprintf(stderr, "dmtk: DMTK_WISDOM=%s ignored: %s\n", env, e.what());
  }
}

serve::Json level_name(blas::SimdLevel lvl) {
  return serve::Json(std::string(blas::to_string(lvl)));
}

blas::SimdLevel parse_level_or_throw(const serve::Json& j,
                                     const char* field) {
  const auto lvl = blas::parse_simd_level(j.as_string());
  if (!lvl) {
    throw std::runtime_error(std::string("wisdom: unknown SIMD level \"") +
                             j.as_string() + "\" in " + field);
  }
  return *lvl;
}

const serve::Json& member_or_throw(const serve::Json& obj, const char* key) {
  const serve::Json* m = obj.find(key);
  if (m == nullptr) {
    throw std::runtime_error(std::string("wisdom: missing field \"") + key +
                             "\"");
  }
  return *m;
}

index_t int_field(const serve::Json& obj, const char* key) {
  return static_cast<index_t>(member_or_throw(obj, key).as_number());
}

}  // namespace

std::string_view to_string(TwoStepPref p) {
  switch (p) {
    case TwoStepPref::Heuristic: return "heuristic";
    case TwoStepPref::Left: return "left";
    case TwoStepPref::Right: return "right";
  }
  return "?";
}

std::optional<TwoStepPref> parse_twostep_pref(std::string_view name) {
  if (name == "heuristic" || name == "auto") return TwoStepPref::Heuristic;
  if (name == "left") return TwoStepPref::Left;
  if (name == "right") return TwoStepPref::Right;
  return std::nullopt;
}

std::string cpu_brand() {
  // "model name : ..." from /proc/cpuinfo — stable per machine, human
  // readable, and available without cpuid plumbing. Absent (non-Linux,
  // restricted /proc) degrades to "unknown"; the SIMD ladder still keys.
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    const auto colon = line.find(':');
    if (colon == std::string::npos) continue;
    if (line.compare(0, 10, "model name") == 0) {
      std::string v = line.substr(colon + 1);
      const auto first = v.find_first_not_of(" \t");
      return first == std::string::npos ? "unknown" : v.substr(first);
    }
  }
  return "unknown";
}

std::string cpu_ladder() {
  return std::string(blas::to_string(blas::hardware_simd_level()));
}

bool profile_matches_cpu(const WisdomProfile& p, std::string* why) {
  if (p.cpu_ladder != cpu_ladder()) {
    if (why != nullptr) {
      *why = "profile tuned for SIMD ladder \"" + p.cpu_ladder +
             "\" but this CPU has \"" + cpu_ladder() + "\"";
    }
    return false;
  }
  if (p.cpu_brand != cpu_brand()) {
    if (why != nullptr) {
      *why = "profile tuned for CPU \"" + p.cpu_brand + "\" but this is \"" +
             cpu_brand() + "\"";
    }
    return false;
  }
  return true;
}

std::string profile_to_json(const WisdomProfile& p) {
  serve::Json::Object o;
  o["format"] = serve::Json("dmtk-wisdom-v1");
  o["cpu_brand"] = serve::Json(p.cpu_brand);
  o["cpu_ladder"] = serve::Json(p.cpu_ladder);
  o["best_simd_f64"] = level_name(p.best_simd_f64);
  o["best_simd_f32"] = level_name(p.best_simd_f32);
  serve::Json::Object blk;
  blk["mc"] = serve::Json(p.blocking.mc);
  blk["kc"] = serve::Json(p.blocking.kc);
  blk["nc"] = serve::Json(p.blocking.nc);
  o["blocking"] = serve::Json(std::move(blk));
  o["dimtree_levels"] = serve::Json(p.dimtree_levels);
  o["dimtree_min_order"] = serve::Json(p.dimtree_min_order);
  o["twostep"] = serve::Json(std::string(to_string(p.twostep)));
  o["sparse_crossover"] = serve::Json(p.sparse_crossover);
  o["created"] = serve::Json(p.created);
  o["tune_threads"] = serve::Json(p.tune_threads);
  o["quick"] = serve::Json(p.quick);
  o["default_gflops_f64"] = serve::Json(p.default_gflops_f64);
  o["tuned_gflops_f64"] = serve::Json(p.tuned_gflops_f64);
  serve::Json::Array levels;
  for (const LevelGflops& lg : p.levels) {
    serve::Json::Object e;
    e["level"] = level_name(lg.level);
    e["f64_gflops"] = serve::Json(lg.f64_gflops);
    e["f32_gflops"] = serve::Json(lg.f32_gflops);
    levels.push_back(serve::Json(std::move(e)));
  }
  o["levels"] = serve::Json(std::move(levels));
  return serve::Json(std::move(o)).dump();
}

WisdomProfile profile_from_json(std::string_view text) {
  const serve::Json j = serve::Json::parse(text);
  const serve::Json* fmt = j.find("format");
  if (fmt == nullptr || !fmt->is_string() ||
      fmt->as_string() != "dmtk-wisdom-v1") {
    throw std::runtime_error("wisdom: not a dmtk-wisdom-v1 profile");
  }
  WisdomProfile p;
  p.cpu_brand = member_or_throw(j, "cpu_brand").as_string();
  p.cpu_ladder = member_or_throw(j, "cpu_ladder").as_string();
  p.best_simd_f64 =
      parse_level_or_throw(member_or_throw(j, "best_simd_f64"),
                           "best_simd_f64");
  p.best_simd_f32 =
      parse_level_or_throw(member_or_throw(j, "best_simd_f32"),
                           "best_simd_f32");
  const serve::Json& blk = member_or_throw(j, "blocking");
  p.blocking.mc = int_field(blk, "mc");
  p.blocking.kc = int_field(blk, "kc");
  p.blocking.nc = int_field(blk, "nc");
  if (p.blocking.mc < 1 || p.blocking.kc < 1 || p.blocking.nc < 1) {
    throw std::runtime_error("wisdom: non-positive blocking");
  }
  p.dimtree_levels = static_cast<int>(int_field(j, "dimtree_levels"));
  p.dimtree_min_order = int_field(j, "dimtree_min_order");
  if (p.dimtree_levels < 0 || p.dimtree_min_order < 2) {
    throw std::runtime_error("wisdom: bad dimtree fields");
  }
  const auto pref =
      parse_twostep_pref(member_or_throw(j, "twostep").as_string());
  if (!pref) {
    throw std::runtime_error("wisdom: unknown twostep preference");
  }
  p.twostep = *pref;
  p.sparse_crossover = member_or_throw(j, "sparse_crossover").as_number();
  if (!(p.sparse_crossover >= 0.0 && p.sparse_crossover <= 1.0)) {
    throw std::runtime_error("wisdom: sparse_crossover outside [0, 1]");
  }
  if (const serve::Json* c = j.find("created"); c && c->is_string()) {
    p.created = c->as_string();
  }
  if (const serve::Json* t = j.find("tune_threads"); t && t->is_number()) {
    p.tune_threads = static_cast<int>(t->as_number());
  }
  if (const serve::Json* q = j.find("quick"); q && q->is_bool()) {
    p.quick = q->as_bool();
  }
  if (const serve::Json* g = j.find("default_gflops_f64");
      g && g->is_number()) {
    p.default_gflops_f64 = g->as_number();
  }
  if (const serve::Json* g = j.find("tuned_gflops_f64"); g && g->is_number()) {
    p.tuned_gflops_f64 = g->as_number();
  }
  if (const serve::Json* ls = j.find("levels"); ls && ls->is_array()) {
    for (const serve::Json& e : ls->as_array()) {
      LevelGflops lg;
      lg.level = parse_level_or_throw(member_or_throw(e, "level"), "levels");
      lg.f64_gflops = member_or_throw(e, "f64_gflops").as_number();
      lg.f32_gflops = member_or_throw(e, "f32_gflops").as_number();
      p.levels.push_back(lg);
    }
  }
  return p;
}

void save_wisdom(const std::string& path, const WisdomProfile& p) {
  io::FileWriter w(path, io::FileWriter::Footer::Crc32);
  w.write_text(profile_to_json(p));
  w.write_text("\n");
  w.commit();
}

WisdomProfile read_wisdom_file(const std::string& path) {
  io::FileReader r(path);
  std::string text(static_cast<std::size_t>(r.payload_size()), '\0');
  r.read_bytes(text.data(), text.size());
  r.verify();
  return profile_from_json(text);
}

bool load_wisdom(const std::string& path, std::string* error) {
  try {
    WisdomProfile p = read_wisdom_file(path);
    std::string why;
    if (!profile_matches_cpu(p, &why)) {
      if (error != nullptr) *error = why;
      return false;
    }
    Registry& r = registry();
    LockGuard lock(r.mu);
    r.env_checked = true;  // explicit load supersedes the env autoload
    install_locked(r, p, path);
    return true;
  } catch (const std::exception& e) {
    if (error != nullptr) *error = e.what();
    return false;
  }
}

void apply_wisdom(const WisdomProfile& p, const std::string& source) {
  Registry& r = registry();
  LockGuard lock(r.mu);
  r.env_checked = true;
  install_locked(r, p, source);
}

void clear_wisdom() {
  Registry& r = registry();
  LockGuard lock(r.mu);
  r.profile.reset();
  r.source.clear();
  r.env_checked = true;  // do not resurrect the env profile after a clear
  blas::set_gemm_blocking(blas::GemmBlocking{});
  if (!blas::simd_env_override()) {
    blas::set_simd_level(blas::default_simd_level());
  }
}

std::optional<WisdomProfile> wisdom() {
  Registry& r = registry();
  LockGuard lock(r.mu);
  env_autoload_locked(r);
  // Snapshot, never a pointer: the guarded optional may be reset or
  // reassigned the instant the lock drops (see the header comment).
  return r.profile;
}

bool wisdom_loaded() {
  Registry& r = registry();
  LockGuard lock(r.mu);
  env_autoload_locked(r);
  return r.profile.has_value();
}

std::string wisdom_source() {
  Registry& r = registry();
  LockGuard lock(r.mu);
  env_autoload_locked(r);
  return r.source;
}

// The consult functions read their single field under the lock instead of
// going through wisdom() — one field copied, not the whole profile (these
// run at plan construction, sometimes per plan per request in the server).

index_t auto_dimtree_min_order() {
  Registry& r = registry();
  LockGuard lock(r.mu);
  env_autoload_locked(r);
  return r.profile ? r.profile->dimtree_min_order : kDefaultDimtreeMinOrder;
}

int wisdom_dimtree_levels() {
  Registry& r = registry();
  LockGuard lock(r.mu);
  env_autoload_locked(r);
  return r.profile ? r.profile->dimtree_levels : kDefaultDimtreeLevels;
}

TwoStepPref wisdom_twostep() {
  Registry& r = registry();
  LockGuard lock(r.mu);
  env_autoload_locked(r);
  return r.profile ? r.profile->twostep : TwoStepPref::Heuristic;
}

double wisdom_sparse_crossover() {
  Registry& r = registry();
  LockGuard lock(r.mu);
  env_autoload_locked(r);
  return r.profile ? r.profile->sparse_crossover : kDefaultSparseCrossover;
}

}  // namespace dmtk::tune
