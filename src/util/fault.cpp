#include "util/fault.hpp"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <iterator>
#include <map>
#include <mutex>

#include "util/mutex.hpp"

namespace dmtk::fault {
namespace {

/// splitmix64 — tiny, seedable, and good enough for failure scheduling.
/// (std::mt19937_64 would work too; this keeps per-site state at 8 bytes
/// and the draw sequence trivially documentable.)
struct SplitMix64 {
  std::uint64_t state;
  std::uint64_t next() noexcept {
    std::uint64_t z = (state += 0x9E3779B97F4A7C15ull);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, 1): top 53 bits, the double-mantissa trick.
  double next_unit() noexcept {
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
  }
};

struct Site {
  double rate = 0.0;
  SplitMix64 rng{0};
  std::uint64_t max_triggers = 0;  ///< 0 = unlimited
  std::uint64_t triggers = 0;
};

struct Registry {
  Mutex mu;
  std::map<std::string, Site, std::less<>> sites
      DMTK_GUARDED_BY(mu);  ///< name-sorted
};

Registry& registry() {
  static Registry r;
  return r;
}

/// The compiled-in site table. Every DMTK_FAULT_POINT / should_fail site
/// name in the dmtk sources MUST be listed here, name-sorted;
/// tools/dmtk_lint.py parses this array (rule `fault-site`) and fails CI
/// on any call site whose name is absent, so the fault.hpp "sites
/// compiled into dmtk today" doc and this table cannot drift from the
/// code. Test-only sites (the "t.*" names arm()ed by the unit tests) are
/// deliberately not known: arming is open-world, compiling a point in is
/// not.
constexpr std::string_view kKnownSites[] = {
    "arena.alloc",    // exec/exec_context.hpp WorkspaceArena::reserve_bytes
    "io.read.short",  // io/checked_io.cpp     FileReader::read_some
    "io.write",       // io/checked_io.cpp     FileWriter::flush_buffer
    "serve.accept",   // serve/server.cpp      accept loop
    "serve.worker",   // serve/server.cpp      worker batch
};

/// Armed-site count, mirrored outside the lock for the fast path.
///
/// Memory-ordering contract (audited under TSan; the TSan CI job covers
/// the fault suite): every access to this counter is RELAXED, and that is
/// sufficient because the counter is strictly advisory. any_armed() is a
/// hint that lets unarmed processes skip the registry lock — the
/// authoritative armed/unarmed decision is always made by should_fail()
/// under r.mu, so a stale read here can only cause (a) one extra lock
/// acquisition, or (b) a *just*-armed site being skipped by a concurrently
/// running fault point, which is indistinguishable from the fault point
/// having run a moment before arm() and therefore not an ordering bug.
/// Nothing is published THROUGH this atomic: all site state (rates, RNGs,
/// trigger counts) is transferred via r.mu's acquire/release, never via
/// g_armed. Relaxed is exactly as strong as the protocol needs — promoting
/// these to acq_rel would document an edge (data published through the
/// counter) that does not exist.
///
/// The per-site trigger counters are NOT atomics: they are mutated and
/// read only under r.mu (should_fail, trigger_count, counters), so their
/// ordering comes from the mutex.
std::atomic<int> g_armed{0};

/// arm() without the env-load hook — callable from inside the env load
/// itself (the public arm() would re-enter the call_once and deadlock).
void arm_impl(std::string_view site, double rate, std::uint64_t seed,
              std::uint64_t max_triggers) {
  Registry& r = registry();
  LockGuard lock(r.mu);
  auto [it, inserted] = r.sites.insert_or_assign(
      std::string(site), Site{rate, SplitMix64{seed}, max_triggers, 0});
  (void)it;
  if (inserted) g_armed.fetch_add(1, std::memory_order_relaxed);
}

void arm_spec_impl(std::string_view spec) {
  // site:rate[:seed[:count]][,...]
  std::size_t pos = 0;
  while (pos <= spec.size()) {
    std::size_t end = spec.find(',', pos);
    if (end == std::string_view::npos) end = spec.size();
    std::string_view entry = spec.substr(pos, end - pos);
    pos = end + 1;
    if (entry.empty()) {
      if (end == spec.size()) break;
      continue;
    }

    std::vector<std::string> fields;
    std::size_t fpos = 0;
    while (fpos <= entry.size()) {
      std::size_t fend = entry.find(':', fpos);
      if (fend == std::string_view::npos) fend = entry.size();
      fields.emplace_back(entry.substr(fpos, fend - fpos));
      if (fend == entry.size()) break;
      fpos = fend + 1;
    }
    if (fields.size() < 2 || fields.size() > 4 || fields[0].empty())
      throw std::invalid_argument(
          "fault spec entry must be site:rate[:seed[:count]], got '" +
          std::string(entry) + "'");

    const auto parse_f64 = [&](const std::string& s, const char* what) {
      std::size_t used = 0;
      double v = 0.0;
      try {
        v = std::stod(s, &used);
      } catch (const std::exception&) {
        used = 0;
      }
      if (used != s.size() || !(v >= 0.0))
        throw std::invalid_argument("bad fault " + std::string(what) + " '" +
                                    s + "' in '" + std::string(entry) + "'");
      return v;
    };
    const auto parse_u64 = [&](const std::string& s, const char* what) {
      std::size_t used = 0;
      std::uint64_t v = 0;
      try {
        v = std::stoull(s, &used);
      } catch (const std::exception&) {
        used = 0;
      }
      if (used != s.size())
        throw std::invalid_argument("bad fault " + std::string(what) + " '" +
                                    s + "' in '" + std::string(entry) + "'");
      return v;
    };

    const double rate = parse_f64(fields[1], "rate");
    const std::uint64_t seed =
        fields.size() >= 3 ? parse_u64(fields[2], "seed") : 0;
    const std::uint64_t count =
        fields.size() >= 4 ? parse_u64(fields[3], "count") : 0;
    arm_impl(fields[0], rate, seed, count);
    if (end == spec.size()) break;
  }
}

std::once_flag g_env_once;

void load_env_spec() {
  const char* spec = std::getenv("DMTK_FAULTS");
  if (spec == nullptr || *spec == '\0') return;
  try {
    arm_spec_impl(spec);
  } catch (const std::invalid_argument& e) {
    // A typo'd spec must not be silently ignored (the operator believes
    // faults are armed): fail loudly instead of running fault-free.
    std::fprintf(stderr, "dmtk: bad DMTK_FAULTS spec: %s\n", e.what());
    std::abort();
  }
}

void ensure_env_loaded() { std::call_once(g_env_once, load_env_spec); }

}  // namespace

bool any_armed() noexcept {
  ensure_env_loaded();
  return g_armed.load(std::memory_order_relaxed) > 0;
}

bool should_fail(std::string_view site) {
  if (!any_armed()) return false;
  Registry& r = registry();
  LockGuard lock(r.mu);
  auto it = r.sites.find(site);
  if (it == r.sites.end()) return false;
  Site& s = it->second;
  if (s.max_triggers != 0 && s.triggers >= s.max_triggers) return false;
  if (s.rng.next_unit() >= s.rate) return false;
  ++s.triggers;
  return true;
}

void fail_point(std::string_view site) {
  if (should_fail(site)) throw InjectedFault(std::string(site));
}

void arm(std::string_view site, double rate, std::uint64_t seed,
         std::uint64_t max_triggers) {
  ensure_env_loaded();
  arm_impl(site, rate, seed, max_triggers);
}

void disarm(std::string_view site) {
  ensure_env_loaded();
  Registry& r = registry();
  LockGuard lock(r.mu);
  auto it = r.sites.find(site);
  if (it == r.sites.end()) return;
  r.sites.erase(it);
  g_armed.fetch_sub(1, std::memory_order_relaxed);
}

void disarm_all() {
  ensure_env_loaded();
  Registry& r = registry();
  LockGuard lock(r.mu);
  g_armed.fetch_sub(static_cast<int>(r.sites.size()),
                    std::memory_order_relaxed);
  r.sites.clear();
}

std::uint64_t trigger_count(std::string_view site) {
  if (!any_armed()) return 0;
  Registry& r = registry();
  LockGuard lock(r.mu);
  auto it = r.sites.find(site);
  return it == r.sites.end() ? 0 : it->second.triggers;
}

std::vector<std::pair<std::string, std::uint64_t>> counters() {
  ensure_env_loaded();
  Registry& r = registry();
  LockGuard lock(r.mu);
  std::vector<std::pair<std::string, std::uint64_t>> out;
  out.reserve(r.sites.size());
  for (const auto& [name, site] : r.sites) out.emplace_back(name, site.triggers);
  return out;
}

void arm_from_spec(std::string_view spec) {
  ensure_env_loaded();
  arm_spec_impl(spec);
}

const std::vector<std::string_view>& known_sites() {
  static const std::vector<std::string_view> sites(std::begin(kKnownSites),
                                                   std::end(kKnownSites));
  return sites;
}

bool is_known_site(std::string_view site) noexcept {
  return std::binary_search(std::begin(kKnownSites), std::end(kKnownSites),
                            site);
}

}  // namespace dmtk::fault
