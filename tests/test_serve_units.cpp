/// Unit tests for the serve building blocks: the protocol JSON value
/// (strict parse, deterministic dump), the batch key's canonical string,
/// the shared tensor cache (file identity, LRU and byte budget, precision
/// split, eviction under a holder, disabled mode), the bounded job queue
/// (admission control, same-key extraction, graceful drain), and the
/// start-up oversubscription check. The socket-level behavior is covered
/// by test_serve.cpp; these run single-threaded against the components.

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "core/tensor.hpp"
#include "io/tensor_io.hpp"
#include "serve/job_queue.hpp"
#include "serve/json.hpp"
#include "serve/server.hpp"
#include "serve/tensor_cache.hpp"
#include "util/rng.hpp"

namespace dmtk::serve {
namespace {

// ---------------------------------------------------------------------------
// Json
// ---------------------------------------------------------------------------

TEST(ServeJson, ParsesScalars) {
  EXPECT_TRUE(Json::parse("null").is_null());
  EXPECT_TRUE(Json::parse("true").as_bool());
  EXPECT_FALSE(Json::parse("false").as_bool());
  EXPECT_EQ(Json::parse("42").as_number(), 42.0);
  EXPECT_EQ(Json::parse("-3.5e2").as_number(), -350.0);
  EXPECT_EQ(Json::parse("\"hi\\n\\u0041\"").as_string(), "hi\nA");
}

TEST(ServeJson, RoundTripsNestedValues) {
  const std::string text =
      R"({"a":[1,2.5,true,null],"b":{"c":"x","d":-7},"e":""})";
  const Json j = Json::parse(text);
  EXPECT_EQ(j.dump(), text);  // keys already sorted, integrals undecorated
  EXPECT_EQ(Json::parse(j.dump()), j);
}

TEST(ServeJson, DumpSortsKeysAndEscapes) {
  Json j;
  j.set("zeta", Json(1));
  j.set("alpha", Json("tab\there"));
  EXPECT_EQ(j.dump(), "{\"alpha\":\"tab\\there\",\"zeta\":1}");
}

TEST(ServeJson, DoublesRoundTripBitExactly) {
  const double v = 0.1 + 0.2;  // not representable prettily
  Json j;
  j.set("x", Json(v));
  const Json back = Json::parse(j.dump());
  EXPECT_EQ(back.find("x")->as_number(), v);
}

TEST(ServeJson, RejectsMalformedInput) {
  const char* bad[] = {
      "",           "{",       "[1,]",     "{\"a\":}",    "nul",
      "01",         "1 2",     "\"\\q\"",  "{\"a\":1,}",  "[1 2]",
      "{\"a\" 1}",  "+1",      "\"\x01\"", "{1:2}",       "tru",
  };
  for (const char* t : bad) {
    EXPECT_THROW(Json::parse(t), JsonError) << "input: " << t;
  }
}

TEST(ServeJson, RejectsDuplicateKeysAndDeepNesting) {
  EXPECT_THROW(Json::parse(R"({"a":1,"a":2})"), JsonError);
  std::string deep;
  for (int i = 0; i < Json::kMaxDepth + 1; ++i) deep += '[';
  deep += "1";
  for (int i = 0; i < Json::kMaxDepth + 1; ++i) deep += ']';
  EXPECT_THROW(Json::parse(deep), JsonError);
}

TEST(ServeJson, FindIsNullSafeOnNonObjects) {
  EXPECT_EQ(Json(3).find("a"), nullptr);
  Json obj;
  obj.set("a", Json(1));
  EXPECT_EQ(obj.find("missing"), nullptr);
  ASSERT_NE(obj.find("a"), nullptr);
  EXPECT_EQ(obj.find("a")->as_number(), 1.0);
}

// ---------------------------------------------------------------------------
// PlanKey
// ---------------------------------------------------------------------------

PlanKey key_for(std::vector<index_t> dims, index_t rank, bool f32 = false) {
  PlanKey k;
  k.dims = std::move(dims);
  k.rank = rank;
  k.scheme = SweepScheme::PerMode;
  k.f32 = f32;
  return k;
}

TEST(ServePlanKey, KeyStringIsCanonical) {
  const PlanKey k = key_for({6, 5, 4}, 2);
  EXPECT_EQ(k.to_string(),
            "dims=6x5x4|rank=2|scheme=permode|method=auto|prec=f64");
  EXPECT_EQ(key_for({6, 5, 4}, 2, true).to_string(),
            "dims=6x5x4|rank=2|scheme=permode|method=auto|prec=f32");
}

// ---------------------------------------------------------------------------
// TensorCache
// ---------------------------------------------------------------------------

namespace fs = std::filesystem;

class ServeTensorCache : public ::testing::Test {
 protected:
  void SetUp() override {
    char tmpl[] = "/tmp/dmtk_tcache_XXXXXX";
    ASSERT_NE(mkdtemp(tmpl), nullptr);
    dir_ = tmpl;
  }
  void TearDown() override {
    std::error_code ec;
    fs::remove_all(dir_, ec);
  }

  /// Write a random f64 tensor to `name` and return its path.
  std::string write(const std::string& name, std::vector<index_t> dims,
                    std::uint64_t seed) {
    Rng rng(seed);
    const std::string path = (fs::path(dir_) / name).string();
    io::write_tensor(path, Tensor::random_uniform(std::move(dims), rng));
    return path;
  }

  static constexpr std::size_t kBig = std::size_t{1} << 30;
  std::string dir_;
};

TEST_F(ServeTensorCache, RepeatIsAHitOnTheSameTensor) {
  const std::string p = write("a.dten", {6, 5, 4}, 1);
  TensorCache cache(8, kBig);
  const auto first = cache.get<double>(p);
  const auto second = cache.get<double>(p);
  EXPECT_EQ(first.get(), second.get());  // resident, not re-read
  EXPECT_EQ(first->max_abs_diff(io::read_tensor(p)), 0.0);
  const TensorCacheStats s = cache.stats();
  EXPECT_EQ(s.hits, 1u);
  EXPECT_EQ(s.misses, 1u);
  EXPECT_EQ(s.entries, 1u);
  EXPECT_EQ(s.bytes, 6u * 5 * 4 * sizeof(double));
  EXPECT_EQ(s.max_bytes, kBig);
}

TEST_F(ServeTensorCache, RewrittenFileMissesAndServesTheNewContent) {
  const std::string p = write("a.dten", {6, 5, 4}, 1);
  TensorCache cache(8, kBig);
  const auto before = cache.get<double>(p);
  write("a.dten", {6, 5, 4}, 2);  // temp + rename: a new inode
  const auto after = cache.get<double>(p);
  EXPECT_NE(before.get(), after.get());
  EXPECT_EQ(after->max_abs_diff(io::read_tensor(p)), 0.0);
  EXPECT_GT(after->max_abs_diff(*before), 0.0);
  EXPECT_EQ(cache.stats().misses, 2u);
  EXPECT_EQ(cache.stats().hits, 0u);
}

TEST_F(ServeTensorCache, ByteBudgetEvictsLeastRecentlyUsed) {
  const std::string a = write("a.dten", {10, 10, 10}, 1);
  const std::string b = write("b.dten", {10, 10, 10}, 2);
  const std::string c = write("c.dten", {10, 10, 10}, 3);
  constexpr std::size_t kOne = 1000 * sizeof(double);
  TensorCache cache(8, 2 * kOne);  // room for two
  (void)cache.get<double>(a);
  (void)cache.get<double>(b);
  (void)cache.get<double>(a);  // a is now MRU, b is LRU
  (void)cache.get<double>(c);  // evicts b
  TensorCacheStats s = cache.stats();
  EXPECT_EQ(s.evictions, 1u);
  EXPECT_EQ(s.entries, 2u);
  EXPECT_EQ(s.bytes, 2 * kOne);
  (void)cache.get<double>(a);  // still resident
  EXPECT_EQ(cache.stats().hits, s.hits + 1);
  (void)cache.get<double>(b);  // was evicted: a miss
  EXPECT_EQ(cache.stats().misses, s.misses + 1);
}

TEST_F(ServeTensorCache, OverBudgetTensorIsServedButNotKept) {
  const std::string p = write("a.dten", {10, 10, 10}, 1);
  TensorCache cache(8, 100);  // smaller than the tensor
  const auto X = cache.get<double>(p);
  EXPECT_EQ(X->numel(), 1000);
  EXPECT_EQ(X->max_abs_diff(io::read_tensor(p)), 0.0);
  const TensorCacheStats s = cache.stats();
  EXPECT_EQ(s.entries, 0u);
  EXPECT_EQ(s.bytes, 0u);
  EXPECT_EQ(s.evictions, 0u);
  (void)cache.get<double>(p);
  EXPECT_EQ(cache.stats().misses, 2u);
}

TEST_F(ServeTensorCache, PrecisionSplitsTheKey) {
  const std::string p = write("a.dten", {6, 5, 4}, 1);
  TensorCache cache(8, kBig);
  const auto d = cache.get<double>(p);
  const auto f = cache.get<float>(p);
  EXPECT_EQ(f->max_abs_diff(io::read_tensor_as<float>(p)), 0.0);
  const TensorCacheStats s = cache.stats();
  EXPECT_EQ(s.entries, 2u);
  EXPECT_EQ(s.misses, 2u);
  EXPECT_EQ(s.bytes, 120u * (sizeof(double) + sizeof(float)));
  (void)cache.get<float>(p);
  EXPECT_EQ(cache.stats().hits, 1u);
}

TEST_F(ServeTensorCache, EvictedEntryStaysValidForItsHolder) {
  const std::string a = write("a.dten", {10, 10, 10}, 1);
  const std::string b = write("b.dten", {10, 10, 10}, 2);
  TensorCache cache(1, kBig);  // one entry: b's insert evicts a
  const auto held = cache.get<double>(a);
  (void)cache.get<double>(b);
  EXPECT_EQ(cache.stats().evictions, 1u);
  EXPECT_EQ(held->max_abs_diff(io::read_tensor(a)), 0.0);
  EXPECT_EQ(held->norm_squared(), io::read_tensor(a).norm_squared());
}

TEST_F(ServeTensorCache, ZeroEntriesBypasses) {
  const std::string p = write("a.dten", {6, 5, 4}, 1);
  TensorCache cache(0, kBig);
  const auto first = cache.get<double>(p);
  const auto second = cache.get<double>(p);
  EXPECT_NE(first.get(), second.get());  // read twice
  EXPECT_EQ(second->max_abs_diff(io::read_tensor(p)), 0.0);
  const TensorCacheStats s = cache.stats();
  EXPECT_EQ(s.hits, 0u);
  EXPECT_EQ(s.misses, 0u);
  EXPECT_EQ(s.entries, 0u);
}

TEST_F(ServeTensorCache, MissingFileThrowsIoError) {
  TensorCache cache(8, kBig);
  EXPECT_THROW((void)cache.get<double>((fs::path(dir_) / "no.dten").string()),
               io::IoError);
  EXPECT_EQ(cache.stats().entries, 0u);
}

// ---------------------------------------------------------------------------
// Start-up oversubscription check
// ---------------------------------------------------------------------------

TEST(ServeOversubscription, WarnsOnlyWhenWorkersTimesThreadsExceedCores) {
  EXPECT_TRUE(oversubscription_warning(1, 4, 4).empty());
  EXPECT_TRUE(oversubscription_warning(2, 2, 4).empty());
  EXPECT_TRUE(oversubscription_warning(4, 1, 4).empty());
  EXPECT_TRUE(oversubscription_warning(8, 8, 0).empty());  // unknown cores
  const std::string w = oversubscription_warning(2, 4, 4);
  EXPECT_NE(w.find("2 worker(s) x 4 thread(s) = 8 threads on 4 core(s)"),
            std::string::npos)
      << w;
  EXPECT_FALSE(oversubscription_warning(5, 1, 4).empty());
}

// ---------------------------------------------------------------------------
// JobQueue
// ---------------------------------------------------------------------------

TEST(ServeJobQueue, RejectsWhenFull) {
  JobQueue<int> q(2);
  EXPECT_TRUE(q.try_push(1, "k"));
  EXPECT_TRUE(q.try_push(2, "k"));
  EXPECT_FALSE(q.try_push(3, "k"));
  const JobQueueStats s = q.stats();
  EXPECT_EQ(s.admitted, 2u);
  EXPECT_EQ(s.rejected_busy, 1u);
  EXPECT_EQ(s.depth, 2u);
  EXPECT_EQ(s.capacity, 2u);
}

TEST(ServeJobQueue, ExtractMatchingPreservesFifoAmongMatches) {
  JobQueue<int> q(8);
  ASSERT_TRUE(q.try_push(1, "a"));
  ASSERT_TRUE(q.try_push(2, "b"));
  ASSERT_TRUE(q.try_push(3, "a"));
  ASSERT_TRUE(q.try_push(4, "a"));

  std::vector<JobQueue<int>::Item> batch;
  EXPECT_EQ(q.extract_matching("a", 2, batch), 2u);
  ASSERT_EQ(batch.size(), 2u);
  EXPECT_EQ(batch[0].job, 1);
  EXPECT_EQ(batch[1].job, 3);

  // The non-matching job and the over-max one are still queued, in order.
  auto i1 = q.pop();
  auto i2 = q.pop();
  ASSERT_TRUE(i1 && i2);
  EXPECT_EQ(i1->job, 2);
  EXPECT_EQ(i2->job, 4);
}

TEST(ServeJobQueue, EmptyKeyNeverMatches) {
  JobQueue<int> q(8);
  ASSERT_TRUE(q.try_push(1, ""));
  std::vector<JobQueue<int>::Item> batch;
  EXPECT_EQ(q.extract_matching("", 4, batch), 0u);
  EXPECT_TRUE(batch.empty());
  EXPECT_EQ(q.stats().depth, 1u);
}

TEST(ServeJobQueue, StopDrainsThenSignalsExit) {
  JobQueue<int> q(8);
  ASSERT_TRUE(q.try_push(1, ""));
  q.stop();
  EXPECT_FALSE(q.try_push(2, ""));  // stopped reads as busy
  auto drained = q.pop();
  ASSERT_TRUE(drained.has_value());
  EXPECT_EQ(drained->job, 1);
  EXPECT_FALSE(q.pop().has_value());  // stopped and empty: worker exits
}

TEST(ServeJobQueue, StopWakesBlockedConsumer) {
  JobQueue<int> q(8);
  std::thread consumer([&] { EXPECT_FALSE(q.pop().has_value()); });
  q.stop();
  consumer.join();
}

}  // namespace
}  // namespace dmtk::serve
