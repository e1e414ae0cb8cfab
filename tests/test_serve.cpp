/// Socket-level tests for the decomposition server: an in-process Server
/// on a temp-dir Unix socket, driven through serve::Client. Covers the
/// golden-output contract (a served decompose returns byte-identical
/// model payloads to the direct cp_als call), batched requests matching
/// the same requests sent alone, the malformed-request table (strict
/// validation, connection stays usable), a multi-client mixed-shape
/// stress run, and admission control.

#include <gtest/gtest.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/cp_als.hpp"
#include "core/cp_model.hpp"
#include "core/mttkrp.hpp"
#include "core/tensor.hpp"
#include "io/tensor_io.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "sparse/sparse_tensor.hpp"
#include "util/rng.hpp"
#include "util/stats.hpp"

namespace dmtk::serve {
namespace {

namespace fs = std::filesystem;

/// Temp dir + running server, torn down per test. Unix socket paths are
/// length-limited (~108 bytes), so the fixture anchors under /tmp.
class ServeTest : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/dmtk_serve_XXXXXX";
    ASSERT_NE(mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }

  void TearDown() override {
    server_.reset();
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  void start(ServeOptions opts) {
    opts.socket = (fs::path(dir_) / "dmtk.sock").string();
    socket_ = opts.socket;
    server_ = std::make_unique<Server>(opts);
    server_->start();
  }

  /// Write a random dense tensor and return its path.
  std::string make_dense(const std::string& name, std::vector<index_t> dims,
                         std::uint64_t seed = 11) {
    Rng rng(seed);
    const Tensor X = Tensor::random_uniform(std::move(dims), rng);
    const std::string path = (fs::path(dir_) / name).string();
    io::write_tensor(path, X);
    return path;
  }

  std::string make_sparse(const std::string& name, std::vector<index_t> dims,
                          index_t nnz, std::uint64_t seed = 13) {
    Rng rng(seed);
    const auto S = sparse::SparseTensor::random(std::move(dims), nnz, rng);
    const std::string path = (fs::path(dir_) / name).string();
    io::write_tns(path, S);
    return path;
  }

  Json roundtrip(const Json& req) {
    Client c;
    c.connect(socket_);
    return c.roundtrip(req);
  }

  std::string dir_;
  std::string socket_;
  std::unique_ptr<Server> server_;
};

Json decompose_req(const std::string& tensor, index_t rank, int iters,
                   std::uint64_t seed) {
  Json r;
  r.set("type", Json("decompose"));
  r.set("tensor", Json(tensor));
  r.set("rank", Json(rank));
  r.set("iters", Json(iters));
  r.set("tol", Json(0.0));  // fixed sweep count: golden runs must agree
  r.set("seed", Json(seed));
  return r;
}

// ---------------------------------------------------------------------------
// Golden output: served decompose == direct cp_als, byte for byte
// ---------------------------------------------------------------------------

TEST_F(ServeTest, DecomposeMatchesDirectCpAlsExactly) {
  ServeOptions so;
  so.workers = 1;
  so.threads = 1;
  start(so);
  const std::string tensor = make_dense("cube.dten", {12, 10, 8});

  const Json resp = roundtrip(decompose_req(tensor, 3, 4, 99));
  ASSERT_NE(resp.find("ok"), nullptr) << resp.dump();
  ASSERT_TRUE(resp.find("ok")->as_bool()) << resp.dump();
  ASSERT_NE(resp.find("model"), nullptr);

  CpAlsOptions o;
  o.rank = 3;
  o.max_iters = 4;
  o.tol = 0.0;
  o.seed = 99;
  o.threads = 1;
  const CpAlsResult direct = cp_als(io::read_tensor(tensor), o);

  EXPECT_EQ(resp.find("model")->dump(),
            ktensor_to_json(direct.model).dump());
  EXPECT_EQ(resp.find("iterations")->as_number(), direct.iterations);
  EXPECT_EQ(resp.find("final_fit")->as_number(), direct.final_fit);

  // And the repeat — now on the resident tensor — is byte-identical too.
  const Json again = roundtrip(decompose_req(tensor, 3, 4, 99));
  EXPECT_EQ(again.find("model")->dump(), resp.find("model")->dump());
}

TEST_F(ServeTest, ModelFileMatchesTheBatchCli) {
  ServeOptions so;
  so.workers = 1;
  so.threads = 1;
  start(so);
  const std::string tensor = make_dense("cube.dten", {12, 10, 8});
  const std::string served_out = (fs::path(dir_) / "served.dktn").string();

  Json req = decompose_req(tensor, 3, 4, 99);
  req.set("out", Json(served_out));
  req.set("inline_model", Json(false));
  const Json resp = roundtrip(req);
  ASSERT_TRUE(resp.find("ok")->as_bool()) << resp.dump();
  EXPECT_EQ(resp.find("model"), nullptr);  // inline_model false

  CpAlsOptions o;
  o.rank = 3;
  o.max_iters = 4;
  o.tol = 0.0;
  o.seed = 99;
  o.threads = 1;
  const CpAlsResult direct = cp_als(io::read_tensor(tensor), o);
  const std::string direct_out = (fs::path(dir_) / "direct.dktn").string();
  io::write_ktensor(direct_out, direct.model);

  std::ifstream a(served_out, std::ios::binary);
  std::ifstream b(direct_out, std::ios::binary);
  const std::string ab((std::istreambuf_iterator<char>(a)),
                       std::istreambuf_iterator<char>());
  const std::string bb((std::istreambuf_iterator<char>(b)),
                       std::istreambuf_iterator<char>());
  ASSERT_FALSE(ab.empty());
  EXPECT_EQ(ab, bb);
}

TEST_F(ServeTest, FloatDecomposeMatchesDirectFloatCpAls) {
  ServeOptions so;
  so.workers = 1;
  so.threads = 1;
  start(so);
  const std::string tensor = make_dense("cube.dten", {12, 10, 8});

  Json req = decompose_req(tensor, 3, 4, 99);
  req.set("precision", Json("float"));
  const Json resp = roundtrip(req);
  ASSERT_TRUE(resp.find("ok")->as_bool()) << resp.dump();
  EXPECT_EQ(resp.find("precision")->as_string(), "float");

  CpAlsOptionsF o;
  o.rank = 3;
  o.max_iters = 4;
  o.tol = 0.0;
  o.seed = 99;
  o.threads = 1;
  const CpAlsResultF direct = cp_als(io::read_tensor_as<float>(tensor), o);
  EXPECT_EQ(resp.find("model")->dump(),
            ktensor_to_json(direct.model).dump());
}

// ---------------------------------------------------------------------------
// Cold requests and the warm path
// ---------------------------------------------------------------------------

TEST_F(ServeTest, ColdRequestsBypassTheCache) {
  ServeOptions so;
  so.workers = 1;
  so.threads = 1;
  start(so);
  const std::string tensor = make_dense("cube.dten", {12, 10, 8});

  Json warm = decompose_req(tensor, 3, 2, 1);
  roundtrip(warm);

  Json cold = decompose_req(tensor, 3, 2, 1);
  cold.set("cold", Json(true));
  const Json resp = roundtrip(cold);
  ASSERT_TRUE(resp.find("ok")->as_bool()) << resp.dump();
  EXPECT_EQ(resp.find("batch")->find("size")->as_number(), 1.0);

  // The cold request read its file itself: the warm one's read is the
  // tensor cache's only lookup.
  Json stats_req;
  stats_req.set("type", Json("stats"));
  const Json stats = roundtrip(stats_req);
  const Json* tensors = stats.find("tensors");
  ASSERT_NE(tensors, nullptr) << stats.dump();
  EXPECT_EQ(tensors->find("misses")->as_number(), 1.0);
  EXPECT_EQ(tensors->find("hits")->as_number(), 0.0);
}

// The serving claim: a resident server amortizes context and read set-up,
// so a decompose on the warm context and the resident tensor beats the
// cold path (a checked read and a fresh ExecContext per request, the batch
// CLI's cost).
// Cold and warm requests alternate on one connection, each pair swapping
// which goes first, so host load during the test lands on both sides. The
// comparison is the server's own service time (read + plan + exec): the
// queue hand-off and the wire run the same code on both paths, and under
// `ctest -j` their scheduling delays swamp the set-up a round trip would
// otherwise show.
TEST_F(ServeTest, WarmCacheBeatsColdStartAtTheMedian) {
  ServeOptions so;
  so.workers = 1;
  so.threads = 1;
  start(so);
  const std::string tensor = make_dense("cube.dten", {48, 48, 48});
  auto request = [&](bool cold) {
    Json r = decompose_req(tensor, 32, 1, 5);
    r.set("sweep", Json("permode"));
    r.set("inline_model", Json(false));
    if (cold) r.set("cold", Json(true));
    return r;
  };
  const Json warm_req = request(false);
  const Json cold_req = request(true);

  Client c;
  c.connect(socket_);
  const Json first = c.roundtrip(warm_req);
  ASSERT_TRUE(first.find("ok")->as_bool()) << first.dump();

  constexpr int kPairs = 24;
  std::vector<double> cold_ms;
  std::vector<double> warm_ms;
  for (int pair = 0; pair < kPairs; ++pair) {
    for (const bool cold : {pair % 2 == 0, pair % 2 != 0}) {
      const Json resp = c.roundtrip(cold ? cold_req : warm_req);
      ASSERT_TRUE(resp.find("ok")->as_bool()) << resp.dump();
      const Json* t = resp.find("timings_ms");
      ASSERT_NE(t, nullptr) << resp.dump();
      (cold ? cold_ms : warm_ms)
          .push_back(t->find("read")->as_number() +
                     t->find("plan")->as_number() +
                     t->find("exec")->as_number());
    }
  }
  const double cold_p50 = median(cold_ms);
  const double warm_p50 = median(warm_ms);
  std::printf("decompose service p50: cold %.3f ms, warm %.3f ms\n", cold_p50,
              warm_p50);
  EXPECT_LT(warm_p50, cold_p50);
}

// ---------------------------------------------------------------------------
// Malformed requests: strict validation, connection survives
// ---------------------------------------------------------------------------

Json mttkrp_req(const std::string& tensor, index_t rank, index_t mode,
                std::uint64_t seed, bool f32 = false) {
  Json r;
  r.set("type", Json("mttkrp"));
  r.set("tensor", Json(tensor));
  r.set("rank", Json(rank));
  r.set("mode", Json(mode));
  r.set("seed", Json(seed));
  if (f32) r.set("precision", Json("float"));
  return r;
}

/// ‖mttkrp(X, F, mode)‖ for the factor draw a served mttkrp of `seed`
/// makes.
template <typename T>
double direct_mttkrp_norm(const TensorT<T>& X, index_t rank, index_t mode,
                          std::uint64_t seed) {
  Rng rng(seed);
  const KtensorT<T> F = KtensorT<T>::random(X.dims(), rank, rng);
  return mttkrp(X, std::span<const MatrixT<T>>(F.factors), mode).norm();
}

// The served product is the direct MTTKRP on the same factor draw, in
// every mode of a 3-way f64 and a 4-way f32 tensor: the plan's 1-step
// (external modes) and 2-step (internal modes) kernels both serve.
TEST_F(ServeTest, MttkrpTimesOperandSetUpAsPlanNotRead) {
  ServeOptions so;
  so.workers = 1;
  so.threads = 1;
  start(so);
  const std::string cube = make_dense("m.dten", {40, 30, 20}, 5);
  const std::string four = make_dense("h.dten", {9, 8, 7, 6}, 6);

  const Tensor X = io::read_tensor(cube);
  const TensorF Y = io::read_tensor_as<float>(four);
  Client c;
  c.connect(socket_);
  const auto check = [&](const Json& resp, double want, double rel) {
    ASSERT_TRUE(resp.find("ok")->as_bool()) << resp.dump();
    EXPECT_EQ(resp.find("batch")->find("size")->as_number(), 1.0);
    EXPECT_NEAR(resp.find("norm")->as_number(), want, rel * want)
        << resp.dump();
    // "read" is the tensor read (a cache lookup once resident); the
    // factor draw and plan construction are "plan", the plan's execute
    // is "exec", and the phases fit inside "total".
    const Json* t = resp.find("timings_ms");
    ASSERT_NE(t, nullptr) << resp.dump();
    const double read = t->find("read")->as_number();
    const double plan = t->find("plan")->as_number();
    const double exec = t->find("exec")->as_number();
    EXPECT_GT(read, 0.0) << resp.dump();
    EXPECT_GT(plan, 0.0) << resp.dump();
    EXPECT_LE(read + plan + exec, t->find("total")->as_number())
        << resp.dump();
  };
  for (index_t n = 0; n < 3; ++n) {
    check(c.roundtrip(mttkrp_req(cube, 4, n, 3 + n)),
          direct_mttkrp_norm(X, 4, n, 3 + n), 1e-12);
  }
  for (index_t n = 0; n < 4; ++n) {
    const Json resp = c.roundtrip(mttkrp_req(four, 3, n, 9 + n, true));
    EXPECT_EQ(resp.find("precision")->as_string(), "float");
    check(resp, direct_mttkrp_norm(Y, 3, n, 9 + n), 1e-5);
  }

  // One read per file and precision; every other request was a hit.
  Json stats_req;
  stats_req.set("type", Json("stats"));
  const Json stats = c.roundtrip(stats_req);
  const Json* tensors = stats.find("tensors");
  ASSERT_NE(tensors, nullptr) << stats.dump();
  EXPECT_EQ(tensors->find("misses")->as_number(), 2.0);
  EXPECT_EQ(tensors->find("hits")->as_number(), 5.0);
  EXPECT_EQ(tensors->find("entries")->as_number(), 2.0);
}

// A file rewritten in place (dmtk's writer renames a temp file over it) is
// read again: the served product follows the new content.
TEST_F(ServeTest, RewrittenTensorFileIsReadAgain) {
  ServeOptions so;
  so.workers = 1;
  so.threads = 1;
  start(so);
  const std::string path = make_dense("m.dten", {10, 9, 8}, 1);
  Client c;
  c.connect(socket_);
  const Json before = c.roundtrip(mttkrp_req(path, 3, 0, 7));
  ASSERT_TRUE(before.find("ok")->as_bool()) << before.dump();
  EXPECT_EQ(before.find("norm")->as_number(),
            c.roundtrip(mttkrp_req(path, 3, 0, 7)).find("norm")->as_number());

  make_dense("m.dten", {10, 9, 8}, 2);
  const Json after = c.roundtrip(mttkrp_req(path, 3, 0, 7));
  ASSERT_TRUE(after.find("ok")->as_bool()) << after.dump();
  EXPECT_NE(after.find("norm")->as_number(), before.find("norm")->as_number());
  EXPECT_NEAR(after.find("norm")->as_number(),
              direct_mttkrp_norm(io::read_tensor(path), 3, 0, 7),
              1e-12 * after.find("norm")->as_number());

  Json stats_req;
  stats_req.set("type", Json("stats"));
  const Json stats = c.roundtrip(stats_req);
  const Json* tensors = stats.find("tensors");
  ASSERT_NE(tensors, nullptr) << stats.dump();
  EXPECT_EQ(tensors->find("misses")->as_number(), 2.0);
  EXPECT_EQ(tensors->find("hits")->as_number(), 1.0);
}

// Two workers, two connections, one resident file: decompose and mttkrp
// requests race through the shared tensor cache (the TSan job's target)
// and every answer matches the direct computation.
TEST_F(ServeTest, TwoWorkersShareOneResidentTensor) {
  ServeOptions so;
  so.workers = 2;
  so.threads = 1;
  start(so);
  const std::string path = make_dense("shared.dten", {14, 12, 10}, 4);
  const Tensor X = io::read_tensor(path);
  CpAlsOptions o;
  o.rank = 3;
  o.max_iters = 2;
  o.tol = 0.0;
  o.seed = 5;
  o.threads = 1;
  const double fit = cp_als(X, o).final_fit;
  std::vector<double> norms;
  for (index_t n = 0; n < 3; ++n) {
    norms.push_back(direct_mttkrp_norm(X, 3, n, 7));
  }

  constexpr int kClients = 2;
  constexpr int kRequestsEach = 12;
  std::vector<std::thread> clients;
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      Client c;
      c.connect(socket_);
      for (int r = 0; r < kRequestsEach; ++r) {
        if ((r + t) % 2 == 0) {
          Json req = decompose_req(path, 3, 2, 5);
          req.set("inline_model", Json(false));
          const Json resp = c.roundtrip(req);
          ASSERT_TRUE(resp.find("ok")->as_bool()) << resp.dump();
          EXPECT_EQ(resp.find("final_fit")->as_number(), fit);
        } else {
          const index_t mode = r % 3;
          const Json resp = c.roundtrip(mttkrp_req(path, 3, mode, 7));
          ASSERT_TRUE(resp.find("ok")->as_bool()) << resp.dump();
          EXPECT_NEAR(resp.find("norm")->as_number(),
                      norms[static_cast<std::size_t>(mode)],
                      1e-12 * norms[static_cast<std::size_t>(mode)]);
        }
      }
    });
  }
  for (std::thread& t : clients) t.join();

  // Both workers may miss on the first, concurrent requests; every later
  // request is a hit on the one entry.
  Json stats_req;
  stats_req.set("type", Json("stats"));
  const Json stats = roundtrip(stats_req);
  const Json* tensors = stats.find("tensors");
  ASSERT_NE(tensors, nullptr) << stats.dump();
  const double misses = tensors->find("misses")->as_number();
  EXPECT_GE(misses, 1.0);
  EXPECT_LE(misses, 2.0);
  EXPECT_EQ(tensors->find("hits")->as_number() + misses,
            kClients * kRequestsEach);
  EXPECT_EQ(tensors->find("entries")->as_number(), 1.0);
  EXPECT_EQ(tensors->find("bytes")->as_number(),
            static_cast<double>(X.numel() * sizeof(double)));
}

// Same-key mttkrps that coalesce into one batch (one plan, executed per
// member) return norms bitwise equal to the same requests sent alone.
TEST_F(ServeTest, CoalescedMttkrpsMatchTheSameRequestsSentAlone) {
  ServeOptions so;
  so.workers = 1;
  so.threads = 1;
  // The worker lingers this long after its first pop, so pipelined
  // requests of one key are queued by the time it extracts them; the
  // margin absorbs a reader thread descheduled under `ctest -j`.
  so.batch_window_ms = 1000;
  start(so);
  const std::string path = make_dense("b.dten", {20, 16, 12}, 8);
  constexpr int kRequests = 4;
  const auto request = [&](int i) {
    Json r = mttkrp_req(path, 5, 1, 100 + static_cast<std::uint64_t>(i));
    r.set("id", Json(i));
    return r;
  };

  std::vector<double> batched(kRequests);
  double largest_batch = 0.0;
  {
    Client c;
    c.connect(socket_);
    for (int i = 0; i < kRequests; ++i) c.send_line(request(i).dump());
    for (int i = 0; i < kRequests; ++i) {
      const auto line = c.recv_line();
      ASSERT_TRUE(line.has_value());
      const Json r = Json::parse(*line);
      ASSERT_TRUE(r.find("ok")->as_bool()) << *line;
      const double size = r.find("batch")->find("size")->as_number();
      largest_batch = std::max(largest_batch, size);
      EXPECT_LT(r.find("batch")->find("index")->as_number(), size);
      batched[static_cast<std::size_t>(r.find("id")->as_number())] =
          r.find("norm")->as_number();
    }
  }
  EXPECT_GT(largest_batch, 1.0);

  // Alone: a fresh server without the window, one request at a time.
  so.batch_window_ms = 0;
  server_.reset();
  start(so);
  Client c;
  c.connect(socket_);
  for (int i = 0; i < kRequests; ++i) {
    const Json alone = c.roundtrip(request(i));
    ASSERT_TRUE(alone.find("ok")->as_bool()) << alone.dump();
    EXPECT_EQ(alone.find("batch")->find("size")->as_number(), 1.0);
    EXPECT_EQ(alone.find("norm")->as_number(),
              batched[static_cast<std::size_t>(i)])
        << "request " << i;
  }
}

// Same-key decomposes that coalesce into one batch (one plan, every member
// run through it) return models bitwise equal to the same requests sent
// alone.
TEST_F(ServeTest, CoalescedDecomposesMatchTheSameRequestsSentAlone) {
  ServeOptions so;
  so.workers = 1;
  so.threads = 1;
  // As in the mttkrp test above: the window holds the worker until every
  // pipelined request is queued.
  so.batch_window_ms = 1000;
  start(so);
  const std::string path = make_dense("d.dten", {14, 12, 10}, 9);
  constexpr int kRequests = 4;
  const auto request = [&](int i) {
    Json r = decompose_req(path, 3, 3, 200 + static_cast<std::uint64_t>(i));
    r.set("id", Json(i));
    return r;
  };

  std::vector<std::string> batched(kRequests);
  double largest_batch = 0.0;
  {
    Client c;
    c.connect(socket_);
    for (int i = 0; i < kRequests; ++i) c.send_line(request(i).dump());
    for (int i = 0; i < kRequests; ++i) {
      const auto line = c.recv_line();
      ASSERT_TRUE(line.has_value());
      const Json r = Json::parse(*line);
      ASSERT_TRUE(r.find("ok")->as_bool()) << *line;
      largest_batch =
          std::max(largest_batch, r.find("batch")->find("size")->as_number());
      batched[static_cast<std::size_t>(r.find("id")->as_number())] =
          r.find("model")->dump();
    }
  }
  EXPECT_GT(largest_batch, 1.0);

  so.batch_window_ms = 0;
  server_.reset();
  start(so);
  Client c;
  c.connect(socket_);
  for (int i = 0; i < kRequests; ++i) {
    const Json alone = c.roundtrip(request(i));
    ASSERT_TRUE(alone.find("ok")->as_bool()) << alone.dump();
    EXPECT_EQ(alone.find("batch")->find("size")->as_number(), 1.0);
    EXPECT_EQ(alone.find("model")->dump(), batched[static_cast<std::size_t>(i)])
        << "request " << i;
  }
}

TEST_F(ServeTest, MalformedRequestTable) {
  ServeOptions so;
  so.workers = 1;
  start(so);
  const std::string tensor = make_dense("cube.dten", {6, 5, 4});

  struct Case {
    const char* line;
    const char* code;
  };
  const Case cases[] = {
      {"this is not json", "invalid_request"},
      {"[1,2,3]", "invalid_request"},  // not an object
      {R"({"id":1})", "invalid_request"},  // no type
      {R"({"type":"frobnicate"})", "invalid_request"},
      {R"({"type":"decompose"})", "invalid_request"},  // no tensor
      {R"({"type":"decompose","tensor":7})", "invalid_request"},
      {R"({"type":"decompose","tensor":"x.dten","rank":0})",
       "invalid_request"},
      {R"({"type":"decompose","tensor":"x.dten","rank":2.5})",
       "invalid_request"},
      {R"({"type":"decompose","tensor":"x.dten","itters":5})",
       "invalid_request"},  // unknown field (typo) is an error, not a default
      {R"({"type":"decompose","tensor":"x.dten","precision":"f16"})",
       "invalid_request"},
      {R"({"type":"decompose","tensor":"x.dten","precision":"f32"})",
       "invalid_request"},  // one spelling: "float"
      {R"({"type":"decompose","tensor":"x.dten","levels":1})",
       "invalid_request"},  // the tree-depth cap is gone
      {R"({"type":"decompose","tensor":"x.dten","sweep":"bogus"})",
       "invalid_request"},
      {R"({"type":"decompose","tensor":"/nonexistent/x.dten"})", "io_error"},
      {R"({"type":"mttkrp","tensor":"x.dten"})",
       "invalid_request"},  // mode required
      {R"({"type":"stats","tensor":"x.dten"})",
       "invalid_request"},  // stats takes no tensor
  };

  // One connection for the whole table: a rejected request must leave the
  // stream usable for the next one.
  Client c;
  c.connect(socket_);
  int i = 0;
  for (const Case& tc : cases) {
    Json req;
    try {
      req = Json::parse(tc.line);
    } catch (const JsonError&) {
      // Raw malformed line: send as-is.
      c.send_line(tc.line);
      const auto resp = c.recv_line();
      ASSERT_TRUE(resp.has_value()) << "case " << i;
      const Json r = Json::parse(*resp);
      EXPECT_FALSE(r.find("ok")->as_bool()) << *resp;
      EXPECT_EQ(r.find("error")->find("code")->as_string(), tc.code)
          << "case " << i << ": " << *resp;
      ++i;
      continue;
    }
    const Json r = c.roundtrip(req);
    EXPECT_FALSE(r.find("ok")->as_bool()) << r.dump();
    EXPECT_EQ(r.find("error")->find("code")->as_string(), tc.code)
        << "case " << i << ": " << r.dump();
    ++i;
  }

  // The connection still serves a good request afterwards.
  const Json ok = c.roundtrip(decompose_req(tensor, 2, 1, 5));
  EXPECT_TRUE(ok.find("ok")->as_bool()) << ok.dump();
}

TEST_F(ServeTest, SparseFloatDecomposeRunsThroughTheBypassPath) {
  ServeOptions so;
  start(so);
  const std::string tns = make_sparse("s.tns", {8, 7, 6}, 30);
  Json req = decompose_req(tns, 2, 2, 1);
  req.set("precision", Json("float"));
  const Json resp = roundtrip(req);
  ASSERT_TRUE(resp.find("ok")->as_bool()) << resp.dump();
  EXPECT_EQ(resp.find("precision")->as_string(), "float");
  EXPECT_EQ(resp.find("batch")->find("size")->as_number(), 1.0);
  EXPECT_EQ(resp.find("scheme")->as_string(), "csf");
  EXPECT_TRUE(std::isfinite(resp.find("final_fit")->as_number()))
      << resp.dump();
}

TEST_F(ServeTest, IdIsEchoedVerbatim) {
  ServeOptions so;
  start(so);
  Json req;
  req.set("type", Json("stats"));
  Json id;
  id.set("client", Json("t7"));
  id.set("n", Json(3));
  req.set("id", id);
  const Json resp = roundtrip(req);
  ASSERT_NE(resp.find("id"), nullptr);
  EXPECT_EQ(*resp.find("id"), id);
}

// ---------------------------------------------------------------------------
// Info + sparse decompose through the wire
// ---------------------------------------------------------------------------

TEST_F(ServeTest, InfoReportsDenseAndSparse) {
  ServeOptions so;
  start(so);
  const std::string dense = make_dense("cube.dten", {6, 5, 4});
  const std::string tns = make_sparse("s.tns", {8, 7, 6}, 30);

  Json dreq;
  dreq.set("type", Json("info"));
  dreq.set("tensor", Json(dense));
  const Json dresp = roundtrip(dreq);
  ASSERT_TRUE(dresp.find("ok")->as_bool()) << dresp.dump();
  EXPECT_EQ(dresp.find("kind")->as_string(), "dense");
  EXPECT_EQ(dresp.find("numel")->as_number(), 120.0);

  Json sreq;
  sreq.set("type", Json("info"));
  sreq.set("tensor", Json(tns));
  const Json sresp = roundtrip(sreq);
  ASSERT_TRUE(sresp.find("ok")->as_bool()) << sresp.dump();
  EXPECT_EQ(sresp.find("kind")->as_string(), "sparse");
  EXPECT_EQ(sresp.find("nnz")->as_number(), 30.0);
}

TEST_F(ServeTest, SparseDecomposeRunsAndBypassesTheCache) {
  ServeOptions so;
  so.workers = 1;
  start(so);
  const std::string tns = make_sparse("s.tns", {8, 7, 6}, 40);
  const Json resp = roundtrip(decompose_req(tns, 2, 3, 1));
  ASSERT_TRUE(resp.find("ok")->as_bool()) << resp.dump();
  EXPECT_EQ(resp.find("batch")->find("size")->as_number(), 1.0);
  EXPECT_EQ(resp.find("scheme")->as_string(), "csf");
}

// ---------------------------------------------------------------------------
// Concurrency: mixed-shape stress, admission control
// ---------------------------------------------------------------------------

TEST_F(ServeTest, EightClientStressMixedShapes) {
  ServeOptions so;
  so.workers = 2;
  so.threads = 1;
  so.queue_depth = 256;
  start(so);

  const std::vector<std::string> tensors = {
      make_dense("a.dten", {12, 10, 8}, 1),
      make_dense("b.dten", {9, 9, 9}, 2),
      make_sparse("c.tns", {10, 9, 8}, 50, 3),
  };

  constexpr int kClients = 8;
  constexpr int kRequestsEach = 6;
  std::atomic<int> ok_count{0};
  std::atomic<int> busy_count{0};
  std::vector<std::thread> clients;
  clients.reserve(kClients);
  for (int t = 0; t < kClients; ++t) {
    clients.emplace_back([&, t] {
      Client c;
      c.connect(socket_);
      for (int r = 0; r < kRequestsEach; ++r) {
        const std::string& tensor = tensors[(t + r) % tensors.size()];
        const Json resp = c.roundtrip(decompose_req(tensor, 2, 2, 17));
        const Json* ok = resp.find("ok");
        ASSERT_NE(ok, nullptr);
        if (ok->as_bool()) {
          ok_count.fetch_add(1);
        } else {
          // The only acceptable failure under load is admission control.
          EXPECT_EQ(resp.find("error")->find("code")->as_string(), "busy")
              << resp.dump();
          busy_count.fetch_add(1);
        }
      }
    });
  }
  for (auto& c : clients) c.join();

  EXPECT_EQ(ok_count.load() + busy_count.load(), kClients * kRequestsEach);
  EXPECT_GT(ok_count.load(), 0);

  // Repeated dense files across 48 requests on 2 workers must warm the
  // tensor cache.
  Json stats_req;
  stats_req.set("type", Json("stats"));
  const Json stats = roundtrip(stats_req);
  EXPECT_GT(stats.find("tensors")->find("hits")->as_number(), 0.0)
      << stats.dump();
}

TEST_F(ServeTest, FullQueueRejectsAsBusy) {
  ServeOptions so;
  so.workers = 1;
  so.threads = 1;
  so.queue_depth = 1;
  // A batching window long enough to hold the worker while we overfill
  // the one-slot queue deterministically.
  so.batch_window_ms = 300;
  start(so);
  const std::string tensor = make_dense("cube.dten", {12, 10, 8});

  Client c;
  c.connect(socket_);
  // First request occupies the worker (sleeping in its batch window);
  // second sits in the queue; third must be rejected.
  c.send_line(decompose_req(tensor, 2, 1, 1).dump());
  std::this_thread::sleep_for(std::chrono::milliseconds(100));
  c.send_line(decompose_req(tensor, 2, 1, 2).dump());
  std::this_thread::sleep_for(std::chrono::milliseconds(50));
  c.send_line(decompose_req(tensor, 2, 1, 3).dump());

  int ok = 0;
  int busy = 0;
  for (int i = 0; i < 3; ++i) {
    const auto line = c.recv_line();
    ASSERT_TRUE(line.has_value());
    const Json r = Json::parse(*line);
    if (r.find("ok")->as_bool()) {
      ++ok;
    } else {
      EXPECT_EQ(r.find("error")->find("code")->as_string(), "busy") << *line;
      ++busy;
    }
  }
  EXPECT_EQ(ok, 2);
  EXPECT_EQ(busy, 1);
}

TEST_F(ServeTest, ShutdownRequestStopsTheServer) {
  ServeOptions so;
  start(so);
  Json req;
  req.set("type", Json("shutdown"));
  const Json resp = roundtrip(req);
  EXPECT_TRUE(resp.find("ok")->as_bool());
  server_->wait();  // returns promptly because the request stopped it
  server_->stop();
  EXPECT_FALSE(fs::exists(socket_));  // socket file cleaned up
}

}  // namespace
}  // namespace dmtk::serve
