/// \file test_serve_faults.cpp
/// \brief Self-healing server behavior under injected faults: worker
/// batch isolation, a failed plan build failing only its own request,
/// accept-path drops with client retry, and the health probe that reports
/// all of it.

#include <gtest/gtest.h>
#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <filesystem>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/tensor.hpp"
#include "io/tensor_io.hpp"
#include "serve/client.hpp"
#include "serve/protocol.hpp"
#include "serve/server.hpp"
#include "util/fault.hpp"
#include "util/rng.hpp"

namespace dmtk::serve {
namespace {

namespace fs = std::filesystem;

class ServeFaultTest : public ::testing::Test {
 protected:
  void SetUp() override {
    fault::disarm_all();
    char tmpl[] = "/tmp/dmtk_servef_XXXXXX";
    ASSERT_NE(mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }

  void TearDown() override {
    fault::disarm_all();
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

  std::string make_dense(const std::string& name, std::vector<index_t> dims,
                         std::uint64_t seed = 11) {
    Rng rng(seed);
    const Tensor X = Tensor::random_uniform(std::move(dims), rng);
    const std::string path = (fs::path(dir_) / name).string();
    io::write_tensor(path, X);
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

Json decompose_req(const std::string& tensor, index_t rank, int iters) {
  Json r;
  r.set("type", Json("decompose"));
  r.set("tensor", Json(tensor));
  r.set("rank", Json(rank));
  r.set("iters", Json(iters));
  r.set("tol", Json(0.0));
  return r;
}

const std::string& error_code(const Json& resp) {
  const Json* err = resp.find("error");
  EXPECT_NE(err, nullptr) << resp.dump();
  const Json* code = err->find("code");
  EXPECT_NE(code, nullptr) << resp.dump();
  return code->as_string();
}

// ---------------------------------------------------------------------------
// Worker isolation: an exception escaping batch processing fails the jobs,
// never the worker.
// ---------------------------------------------------------------------------

TEST_F(ServeFaultTest, WorkerFaultYieldsInternalErrorAndWorkerSurvives) {
  ServeOptions so;
  so.workers = 1;
  so.threads = 1;
  start(so);
  const std::string tensor = make_dense("w.dten", {8, 7, 6});

  fault::arm("serve.worker", 1.0, 5, /*max_triggers=*/1);
  const Json failed = roundtrip(decompose_req(tensor, 3, 2));
  ASSERT_FALSE(failed.find("ok")->as_bool()) << failed.dump();
  EXPECT_EQ(error_code(failed), "internal");
  const Json* msg = failed.find("error")->find("message");
  ASSERT_NE(msg, nullptr);
  EXPECT_NE(msg->as_string().find("injected fault"), std::string::npos);

  // The fault budget is spent: the SAME worker must now serve this.
  const Json ok = roundtrip(decompose_req(tensor, 3, 2));
  EXPECT_TRUE(ok.find("ok")->as_bool()) << ok.dump();

  // And the backstop counted exactly one batch failure.
  Json health;
  health.set("type", Json("health"));
  const Json h = roundtrip(health);
  ASSERT_TRUE(h.find("ok")->as_bool()) << h.dump();
  EXPECT_EQ(h.find("self_healing")->find("worker_failures")->as_number(),
            1.0);
  EXPECT_EQ(h.find("faults")->find("serve.worker")->as_number(), 1.0);
}

// ---------------------------------------------------------------------------
// Plan build: a failed construction fails that request only, for both
// request types.
// ---------------------------------------------------------------------------

TEST_F(ServeFaultTest, ArenaFaultFailsOneRequestAndTheNextSucceeds) {
  ServeOptions so;
  so.workers = 1;
  so.threads = 1;
  start(so);
  const std::string small = make_dense("a.dten", {9, 8, 7});
  // Larger than `small`, so its mttkrp plan must grow the worker's arena
  // past what the decomposes left it.
  const std::string large = make_dense("b.dten", {30, 28, 26}, 12);
  Json health;
  health.set("type", Json("health"));

  // One arena failure: the decompose's plan build throws and the request
  // gets a structured error; the worker survives and builds again.
  fault::arm("arena.alloc", 1.0, 5, /*max_triggers=*/1);
  const Json failed = roundtrip(decompose_req(small, 3, 2));
  ASSERT_FALSE(failed.find("ok")->as_bool()) << failed.dump();
  EXPECT_EQ(error_code(failed), "internal");
  EXPECT_EQ(roundtrip(health).find("faults")->find("arena.alloc")->as_number(),
            1.0);
  const Json again = roundtrip(decompose_req(small, 3, 2));
  EXPECT_TRUE(again.find("ok")->as_bool()) << again.dump();

  // The same for an mttkrp.
  fault::arm("arena.alloc", 1.0, 5, /*max_triggers=*/1);
  Json mttkrp;
  mttkrp.set("type", Json("mttkrp"));
  mttkrp.set("tensor", Json(large));
  mttkrp.set("rank", Json(8));
  mttkrp.set("mode", Json(1));
  const Json mfailed = roundtrip(mttkrp);
  ASSERT_FALSE(mfailed.find("ok")->as_bool()) << mfailed.dump();
  EXPECT_EQ(error_code(mfailed), "internal");
  EXPECT_EQ(roundtrip(health).find("faults")->find("arena.alloc")->as_number(),
            1.0);
  const Json mok = roundtrip(mttkrp);
  EXPECT_TRUE(mok.find("ok")->as_bool()) << mok.dump();
}

// ---------------------------------------------------------------------------
// Health probe shape
// ---------------------------------------------------------------------------

TEST_F(ServeFaultTest, HealthReportsShapeAndEchoesId) {
  ServeOptions so;
  so.workers = 2;
  so.threads = 1;
  start(so);

  Json req;
  req.set("type", Json("health"));
  req.set("id", Json(42));
  const Json h = roundtrip(req);
  ASSERT_TRUE(h.find("ok")->as_bool()) << h.dump();
  EXPECT_EQ(h.find("type")->as_string(), "health");
  EXPECT_EQ(h.find("id")->as_number(), 42.0);
  EXPECT_GE(h.find("uptime_s")->as_number(), 0.0);
  EXPECT_EQ(h.find("workers")->as_number(), 2.0);
  ASSERT_NE(h.find("queue"), nullptr);
  EXPECT_GE(h.find("queue")->find("capacity")->as_number(), 1.0);
  const Json* heal = h.find("self_healing");
  ASSERT_NE(heal, nullptr);
  EXPECT_EQ(heal->find("worker_failures")->as_number(), 0.0);
  EXPECT_EQ(heal->find("accept_faults")->as_number(), 0.0);
  // No faults armed: an empty object, not null.
  ASSERT_NE(h.find("faults"), nullptr);
  EXPECT_TRUE(h.find("faults")->is_object());

  // Health is strict like the rest of the protocol.
  Json bad;
  bad.set("type", Json("health"));
  bad.set("tensor", Json("nope"));
  const Json rej = roundtrip(bad);
  ASSERT_FALSE(rej.find("ok")->as_bool());
  EXPECT_EQ(error_code(rej), "invalid_request");
}

// ---------------------------------------------------------------------------
// Accept faults: dropped connections are counted; the retry client rides
// through them.
// ---------------------------------------------------------------------------

TEST_F(ServeFaultTest, ClientRetryRidesThroughAcceptFaults) {
  ServeOptions so;
  so.workers = 1;
  so.threads = 1;
  start(so);
  const std::string tensor = make_dense("r.dten", {8, 6, 5});

  // The first TWO accepted connections are dropped on the floor; the
  // retry policy must carry the request through to the third.
  fault::arm("serve.accept", 1.0, 5, /*max_triggers=*/2);
  RetryPolicy pol;
  pol.retries = 4;
  pol.base_ms = 10;
  pol.jitter_seed = 7;
  const std::string line = decompose_req(tensor, 3, 2).dump();
  const Json resp = Json::parse(request_with_retry(socket_, line, pol));
  ASSERT_NE(resp.find("ok"), nullptr) << resp.dump();
  EXPECT_TRUE(resp.find("ok")->as_bool()) << resp.dump();

  Json health;
  health.set("type", Json("health"));
  const Json h = roundtrip(health);
  EXPECT_EQ(h.find("self_healing")->find("accept_faults")->as_number(), 2.0);
}

TEST_F(ServeFaultTest, RetryGivesUpAfterBudgetWithTransportError) {
  ServeOptions so;
  so.workers = 1;
  so.threads = 1;
  start(so);
  const std::string tensor = make_dense("g.dten", {6, 5, 4});

  // Every accept drops the connection: all attempts fail, and the last
  // transport error propagates.
  fault::arm("serve.accept", 1.0, 5);
  RetryPolicy pol;
  pol.retries = 2;
  pol.base_ms = 5;
  const std::string line = decompose_req(tensor, 2, 1).dump();
  EXPECT_THROW((void)request_with_retry(socket_, line, pol), ClientError);
}

// ---------------------------------------------------------------------------
// Retry on busy: a full queue clears and the retry lands.
// ---------------------------------------------------------------------------

TEST_F(ServeFaultTest, RetryRidesThroughBusyRejections) {
  ServeOptions so;
  so.workers = 1;
  so.threads = 1;
  so.queue_depth = 1;
  so.max_batch = 1;
  start(so);
  const std::string tensor = make_dense("b.dten", {16, 14, 12});

  // Saturate: several slow decomposes racing one queue slot. Some drivers
  // will be rejected busy; with retry they must ALL complete eventually.
  const std::string line = decompose_req(tensor, 6, 30).dump();
  std::vector<std::thread> drivers;
  std::atomic<int> oks{0};
  for (int i = 0; i < 4; ++i) {
    drivers.emplace_back([&, i] {
      RetryPolicy pol;
      pol.retries = 50;
      pol.base_ms = 20;
      pol.max_backoff_ms = 50;  // stay frequent: the queue drains in ms
      pol.jitter_seed = static_cast<std::uint64_t>(i);
      const Json resp = Json::parse(request_with_retry(socket_, line, pol));
      const Json* ok = resp.find("ok");
      if (ok != nullptr && ok->is_bool() && ok->as_bool()) {
        oks.fetch_add(1);
      }
    });
  }
  for (auto& t : drivers) t.join();
  EXPECT_EQ(oks.load(), 4);
}

}  // namespace
}  // namespace dmtk::serve
