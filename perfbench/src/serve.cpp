/// \file serve.cpp
/// \brief serve-mix: an in-process serve::Server (2 workers x 1 thread)
/// driven in a closed loop by 2 client connections, plus the served-request
/// layer metrics every traced run reports.

#include <cstdio>
#include <functional>
#include <memory>
#include <optional>
#include <thread>

#include "common.hpp"
#include "core/cp_als.hpp"
#include "core/cp_model.hpp"
#include "io/tensor_io.hpp"
#include "serve/client.hpp"
#include "serve/json.hpp"
#include "serve/server.hpp"
#include "util/rng.hpp"

namespace perfbench {

using namespace dmtk;
using serve::Json;

namespace {

// serve-mix's server and load: 2 workers x 1 thread, 2 closed-loop clients.
constexpr int kWorkers = 2;
constexpr int kClients = 2;

/// One served file: path, precision and the references of its requests.
struct Served {
  std::string path;
  bool f32 = false;
  index_t order = 0;
  double fit = 0.0;                ///< decompose final_fit
  std::vector<double> norms;       ///< mttkrp norm per mode
  bool checked = true;             ///< false: only `ok` is checked
};

struct Reply {
  const Served* file = nullptr;
  bool ok = false;
  bool decompose = false;
  std::uint64_t steal = 0;  ///< host steal ticks during the round trip
  double rt_ms = 0.0;   ///< client-observed round trip
  double queue = 0.0, read = 0.0, plan = 0.0, exec = 0.0, total = 0.0;
};

Json make_request(const Served& f, bool decompose, index_t mode, index_t rank,
                  std::uint64_t id) {
  Json r;
  r.set("type", Json(decompose ? "decompose" : "mttkrp"));
  r.set("id", Json(id));
  r.set("tensor", Json(f.path));
  r.set("rank", Json(rank));
  if (f.f32) r.set("precision", Json("float"));
  if (decompose) {
    r.set("iters", Json(1));
    r.set("tol", Json(0.0));
    r.set("inline_model", Json(false));
  } else {
    r.set("mode", Json(mode));
  }
  return r;
}

double number(const Json& j, const char* key) {
  const Json* v = j.find(key);
  return v != nullptr && v->is_number() ? v->as_number() : 0.0;
}

/// Sends one request and waits for its response. A response that is not
/// ok (busy, timeout, error) or whose result differs from the reference
/// is a failed operation; neither aborts the run. With tracing on, the
/// request gets a span and the server's phases (from timings_ms) become
/// child spans laid out inside the round trip.
Reply roundtrip(serve::Client& c, const Served& f, bool decompose,
                index_t mode, index_t rank, std::uint64_t id, Trace& tr) {
  Reply r;
  r.file = &f;
  r.decompose = decompose;
  Trace::Scope span(tr, "serve.request", id);
  const double t0_us = tr.now_us();
  const std::uint64_t steal0 = steal_ticks();
  const auto t0 = Clock::now();
  Json resp;
  try {
    resp = c.roundtrip(make_request(f, decompose, mode, rank, id));
  } catch (const std::exception& e) {
    std::fprintf(stderr, "request %llu: %s\n",
                 static_cast<unsigned long long>(id), e.what());
    return r;
  }
  r.rt_ms = seconds_since(t0) * 1e3;
  r.steal = steal_ticks() - steal0;
  const Json* ok = resp.find("ok");
  if (ok == nullptr || !ok->is_bool() || !ok->as_bool()) return r;
  if (!f.checked) {
    r.ok = true;
  } else if (decompose) {
    const double tol = f.f32 ? 1e-6 : 1e-9;
    r.ok = rel_diff(number(resp, "final_fit"), f.fit) <= tol;
  } else {
    const double tol = f.f32 ? 1e-4 : 1e-9;
    r.ok = rel_diff(number(resp, "norm"),
                    f.norms[static_cast<std::size_t>(mode)]) <= tol;
  }
  if (const Json* t = resp.find("timings_ms")) {
    r.queue = number(*t, "queue");
    r.read = number(*t, "read");
    r.plan = number(*t, "plan");
    r.exec = number(*t, "exec");
    r.total = number(*t, "total");
  }
  double at = t0_us + 0.5 * (r.rt_ms - r.total) * 1e3;  // wire split evenly
  for (const auto& [name, ms] :
       {std::pair{"serve.queue", r.queue}, std::pair{"io.served_read", r.read},
        std::pair{"serve.plan", r.plan}, std::pair{"core.served_exec", r.exec}}) {
    tr.add(name, at, at + ms * 1e3, span.id(), id);
    at += ms * 1e3;
  }
  return r;
}

Json plain_request(serve::Client& c, const char* type) {
  Json r;
  r.set("type", Json(type));
  return c.roundtrip(r);
}

/// serve.* layer metrics from a set of replies and the server's stats.
void add_serve_metrics(const std::vector<Reply>& replies, const Json& stats,
                       Result& res) {
  std::vector<double> queue, read, plan, exec, wire;
  for (const Reply& r : replies) {
    queue.push_back(r.queue);
    read.push_back(r.read);
    exec.push_back(r.exec);
    wire.push_back(r.rt_ms - r.total);
    if (r.decompose) plan.push_back(r.plan);  // mttkrp builds no plan
  }
  res.add("serve.queue_ms_p50", median_of(queue), "ms");
  res.add("serve.read_ms_p50", median_of(read), "ms");
  res.add("serve.plan_ms_p50", median_of(plan), "ms");
  res.add("serve.exec_ms_p50", median_of(exec), "ms");
  res.add("serve.wire_ms_p50", median_of(wire), "ms");
  const Json* cache = stats.find("cache");
  res.add("serve.cache_hit_frac",
          cache != nullptr ? number(*cache, "hit_rate") : 0.0, "frac");
  // Mean jobs per executed batch: coalesced batches plus single jobs.
  const Json* q = stats.find("queue");
  const double admitted = q != nullptr ? number(*q, "admitted") : 0.0;
  const double batches = q != nullptr ? number(*q, "batches") : 0.0;
  const double batched = q != nullptr ? number(*q, "batched_jobs") : 0.0;
  const double executed = batches + admitted - batched;
  res.add("serve.batch_mean", executed > 0 ? admitted / executed : 0.0,
          "jobs");
}

/// A started server with one connected client per closed-loop caller.
struct Rig {
  std::unique_ptr<serve::Server> server;
  std::vector<serve::Client> clients;

  Rig(const fs::path& socket, int workers, int threads, int nclients) {
    serve::ServeOptions so;
    so.socket = socket.string();
    so.workers = workers;
    so.threads = threads;
    server = std::make_unique<serve::Server>(so);
    server->start();
    clients.resize(static_cast<std::size_t>(nclients));
    for (serve::Client& c : clients) c.connect(so.socket);
  }
  Rig(const Rig&) = delete;
  Rig& operator=(const Rig&) = delete;
  ~Rig() {
    for (serve::Client& c : clients) c.close();
    server->stop();
  }
};

/// Runs fn(client index) on one thread per client and joins them all; the
/// clients' spans nest under the caller's open span.
void on_each_client(Rig& rig, Trace& tr,
                    const std::function<void(std::size_t)>& fn) {
  const int parent = tr.current();
  std::vector<std::thread> ts;
  for (std::size_t i = 0; i < rig.clients.size(); ++i) {
    ts.emplace_back([&fn, parent, i] {
      const Trace::Adopt adopt(parent);
      fn(i);
    });
  }
  for (std::thread& t : ts) t.join();
}

/// The replies of one closed-loop window and its wall time, from the first
/// request sent to the last reply received.
struct Window {
  std::vector<Reply> replies;
  double seconds = 0.0;
};

Window closed_loop(Rig& rig, const std::vector<Served>& files, index_t rank,
                   double seconds, std::uint64_t seed, std::uint64_t id_base,
                   Trace& tr) {
  std::vector<std::vector<Reply>> per(rig.clients.size());
  const auto t0 = Clock::now();
  on_each_client(rig, tr, [&](std::size_t c) {
    // The 3:1 decompose:mttkrp mix, two cube requests to each 4-way one,
    // dealt in shuffled rounds of 12 so every stretch of the window has
    // the same composition. The 2:1 file split keeps the median inside
    // the cube requests' latency mode and p90 inside the 4-way ones';
    // at 1:1 the median sat on the gap between them and jumped by 20%.
    Rng rng(seed * 7919u + c);
    std::vector<std::pair<std::size_t, bool>> round;  // (file, decompose)
    std::uint64_t id = id_base + c * 1000000u;
    while (seconds_since(t0) < seconds) {
      if (round.empty()) {
        for (std::size_t i = 0; i < files.size(); ++i) {
          for (int k = 0; k < (i == 0 ? 8 : 4); ++k) {
            round.emplace_back(i, k % 4 < 3);
          }
        }
        shuffle(round, rng);
      }
      const Served& f = files[round.back().first];
      const bool decompose = round.back().second;
      round.pop_back();
      const auto mode = static_cast<index_t>(
          rng.below(static_cast<std::uint64_t>(f.order)));
      per[c].push_back(
          roundtrip(rig.clients[c], f, decompose, mode, rank, ++id, tr));
    }
  });
  Window w;
  w.seconds = seconds_since(t0);
  for (const auto& v : per) w.replies.insert(w.replies.end(), v.begin(), v.end());
  return w;
}

void count(const std::vector<Reply>& replies, Result& res) {
  for (const Reply& r : replies) res.op(r.ok);
}

Timings latencies(const std::vector<Reply>& replies) {
  Timings ms;
  for (const Reply& r : replies) ms.add(r.rt_ms, r.steal);
  return ms;
}

}  // namespace

void run_serve_mix(const RunArgs& a, bool traced, Result& res, Trace& tr) {
  const Spec& s = a.spec;
  const auto refs = read_refs(a.dir / "refs.txt");
  std::vector<Served> files(2);
  files[0] = {(a.dir / "cube.dten").string(), false,
              static_cast<index_t>(s.serve_cube.size()), refs.at("fit.cube"),
              {}};
  files[1] = {(a.dir / "hyper.dten").string(), true,
              static_cast<index_t>(s.serve_hyper.size()), refs.at("fit.hyper"),
              {}};
  for (Served& f : files) {
    const std::string tag = f.f32 ? "hyper" : "cube";
    for (index_t n = 0; n < f.order; ++n) {
      f.norms.push_back(refs.at("norm." + tag + ".m" + std::to_string(n)));
    }
  }

  // Set-up: server start plus the first request of every key from each
  // client. The first set-up's server serves the timed window; the other
  // set-ups run after it (untraced runs only, for setup_s). So
  // peak_rss_mb is that of one served run: every restart leaves the
  // exited workers' glibc arenas behind, and five restarts moved the peak
  // by 25% between runs.
  std::unique_ptr<Rig> rig;
  const auto set_up = [&](int i) {
    rig.reset();
    Trace::Scope span(tr, "bench.setup");
    const auto t0 = Clock::now();
    rig = std::make_unique<Rig>(a.dir / (std::to_string(i) + ".sock"),
                                kWorkers, 1, kClients);
    std::vector<std::vector<Reply>> warm(rig->clients.size());
    on_each_client(*rig, tr, [&](std::size_t c) {
      std::uint64_t id = 900000000u + c * 1000u;
      for (const Served& f : files) {
        for (index_t n = -1; n < f.order; ++n) {  // -1: decompose
          warm[c].push_back(roundtrip(rig->clients[c], f, n < 0,
                                      std::max<index_t>(n, 0), s.rank, ++id,
                                      tr));
        }
      }
    });
    const double sec = seconds_since(t0);
    for (const auto& w : warm) count(w, res);
    return sec;
  };
  std::vector<double> setups{set_up(0)};

  // The served cube's decomposition in-process, at the team and at one
  // thread: what a served decompose computes, without IO, queueing or
  // the wire.
  const Tensor X = io::read_tensor_as<double>(files[0].path);
  CpAlsOptions o;
  o.rank = s.rank;
  o.max_iters = s.sweeps_per_call;
  o.tol = 0.0;
  ExecContext ctx1(1);
  CpAlsSweepPlan plan1(ctx1, X.dims(), s.rank);
  ExecContext ctx(a.threads);
  CpAlsSweepPlan plan(ctx, X.dims(), s.rank);
  (void)cp_als(X, o, plan);  // warm-up call
  std::vector<double> fits;
  const auto sweeps = [&](CpAlsSweepPlan& p, double seconds,
                          Timings& per_sweep) {
    run_window(seconds, 1, [&] {
      Trace::Scope span(tr, "core.cp_als", per_sweep.all.size() + 1);
      // 1-thread calls rotate through the CPUs; team calls use them all.
      std::optional<PinnedTo> pin;
      if (p.context().threads() == 1) pin.emplace(per_sweep.all.size());
      const std::uint64_t steal0 = steal_ticks();
      const auto t0 = Clock::now();
      fits.push_back(cp_als(X, o, p).final_fit);
      per_sweep.add(seconds_since(t0) / s.sweeps_per_call,
                    steal_ticks() - steal0);
    });
  };

  // Five cycles of requests, team sweeps and 1-thread sweeps, so each
  // metric samples the whole window rather than one slice of it.
  struct Samples {
    std::vector<Reply> replies;
    double window_s = 0.0;  ///< summed wall time of the request windows
    Timings team, one;
  };
  const auto measure = [&](double seconds, bool with_one, std::uint64_t salt) {
    Samples sm;
    for (int cycle = 0; cycle < 5; ++cycle) {
      const Window w = closed_loop(*rig, files, s.rank, 0.1 * seconds,
                                   a.seed * 16 + salt + cycle,
                                   (salt * 16 + cycle) * 10000000u, tr);
      sm.replies.insert(sm.replies.end(), w.replies.begin(), w.replies.end());
      sm.window_s += w.seconds;
      sweeps(plan, 0.04 * seconds, sm.team);
      if (with_one) sweeps(plan1, 0.06 * seconds, sm.one);
    }
    return sm;
  };

  const double T_ = a.seconds;
  double overhead = 0.0;
  Samples sm;
  if (!traced) {
    sm = measure(T_, true, 0);
  } else {
    tr.set_enabled(false);
    sm = measure(0.5 * T_, true, 0);
    tr.set_enabled(true);
    const Samples st = measure(0.25 * T_, false, 1);
    count(st.replies, res);
    overhead = 0.5 * (latencies(st.replies).median() /
                          latencies(sm.replies).median() +
                      st.team.median() / sm.team.median()) -
               1.0;
    add_serve_metrics(st.replies, plain_request(rig->clients[0], "stats"),
                      res);
  }
  rig.reset();
  double peak_mb = 0.0;
  if (!traced) {
    peak_mb = peak_rss_mb();
    for (int i = 1; i < kSetups; ++i) setups.push_back(set_up(i));
    rig.reset();
  }
  count(sm.replies, res);
  for (const double f : fits) res.op(rel_diff(f, fits.front()) <= 1e-9);
  const Timings ms = latencies(sm.replies);
  std::printf("serve-mix: 2 workers x 1 thread, 2 closed-loop clients, "
              "rank %lld\n",
              static_cast<long long>(s.rank));
  describe("request ms", ms, "ms");
  for (const Served& f : files) {
    for (const bool dec : {true, false}) {
      std::vector<double> cls;
      for (const Reply& r : sm.replies) {
        if (r.decompose == dec && r.file == &f) cls.push_back(r.rt_ms);
      }
      const std::string what = std::string(dec ? "  decompose " : "  mttkrp ") +
                               (f.f32 ? "f32 4-way" : "f64 cube");
      describe(what.c_str(), cls, "ms");
    }
  }
  describe("sweep s (team)", sm.team, "s");
  describe("sweep s (1 thread)", sm.one, "s");
  describe("setup s", setups, "s");

  EndToEnd e2e;
  e2e.sweep_s = sm.team.median();
  e2e.sweep_s_1t = sm.one.median();
  if (!traced) {
    res.add("sweep_s", e2e.sweep_s, "s");
    res.add("sweep_s_1t", e2e.sweep_s_1t, "s");
    const std::vector<double> used = ms.use();
    res.add("req_ms_p50", quantile(used, 0.5), "ms");
    res.add("req_ms_p90", quantile(used, 0.9), "ms");
    // Throughput: correct replies per second of request-window wall time.
    const auto ok = std::count_if(sm.replies.begin(), sm.replies.end(),
                                  [](const Reply& r) { return r.ok; });
    res.add("req_per_s", static_cast<double>(ok) / sm.window_s, "1/s");
    res.add("setup_s", median_of(setups), "s");
    res.add("peak_rss_mb", peak_mb, "MB");
    return;
  }
  const Roofs roofs = measure_roofs(res, tr, a.threads);
  Rng rng(o.seed);
  const Ktensor model = Ktensor::random(X.dims(), s.rank, rng);
  measure_layers<double>(roofs, e2e, X, model.factors, ctx, files[0].path,
                         res, tr);
  res.add("trace.overhead_frac", overhead, "frac");
}

void measure_served(const RunArgs& a, const fs::path& file, Result& res,
                    Trace& tr) {
  // The batch workload's own file served four times by one full-team
  // worker: decompose (plan miss), decompose (hit), two mttkrp.
  const Spec& s = a.spec;
  Served f{file.string(), s.f32, static_cast<index_t>(s.dims.size()), 0.0,
           {}, false};
  Rig rig(a.dir / "layer.sock", 1, a.threads, 1);
  std::vector<Reply> replies;
  for (int i = 0; i < 4; ++i) {
    const bool decompose = i < 2;
    replies.push_back(roundtrip(rig.clients[0], f, decompose, i % 2, s.rank,
                                800000000u + static_cast<std::uint64_t>(i),
                                tr));
  }
  count(replies, res);
  add_serve_metrics(replies, plain_request(rig.clients[0], "stats"), res);
}

}  // namespace perfbench
