// Serving-layer coverage for the approximate tier: the kApproxKnn verb
// end-to-end (single and sharded), the degradation-ladder placement —
// "retry -> approximate-with-quality-bound -> exact-scan -> shed", where the
// approximate rung engages only for requests that opted in via a quality
// knob — the answer-quality cache identity, the approx_* metrics, and the
// approx_info() introspection snapshot.

#include <memory>
#include <string>

#include <gtest/gtest.h>

#include "io/fault_env.h"
#include "io/mem_env.h"
#include "querylog/corpus_generator.h"
#include "service/s2_server.h"

namespace s2::service {
namespace {

using std::chrono::microseconds;

constexpr size_t kNumSeries = 48;
constexpr size_t kDays = 128;

ts::Corpus MakeCorpus(uint64_t seed = 23) {
  qlog::CorpusSpec spec;
  spec.num_series = kNumSeries;
  spec.n_days = kDays;
  spec.seed = seed;
  auto corpus = qlog::GenerateCorpus(spec);
  EXPECT_TRUE(corpus.ok());
  return std::move(corpus).ValueOrDie();
}

std::unique_ptr<S2Server> MakeRamServer(size_t cache_capacity = 64,
                                        size_t shards = 1) {
  core::S2Engine::Options options;
  options.index.budget_c = 8;
  S2Server::Options server_options;
  server_options.scheduler.threads = 2;
  server_options.cache_capacity = cache_capacity;
  server_options.shards = shards;
  auto server = S2Server::Build(MakeCorpus(), options, server_options);
  EXPECT_TRUE(server.ok()) << server.status().ToString();
  return std::move(server).ValueOrDie();
}

QueryRequest ApproxKnn(ts::SeriesId id, size_t k = 5) {
  QueryRequest request;
  request.kind = RequestKind::kApproxKnn;
  request.id = id;
  request.k = k;
  return request;
}

uint64_t CounterValue(S2Server& server, const std::string& name) {
  return server.metrics().counter(name)->value();
}

TEST(ApproxServerTest, ApproxKnnEndToEnd) {
  auto server = MakeRamServer();
  QueryResponse response = server->Execute(ApproxKnn(0));
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_TRUE(response.approximate);
  EXPECT_FALSE(response.degraded);
  ASSERT_EQ(response.neighbors.size(), 5u);
  EXPECT_EQ(response.quality.population, kNumSeries - 1);
  EXPECT_GT(response.quality.candidates, 0u);
  EXPECT_EQ(CounterValue(*server, "approx_queries"), 1u);
  EXPECT_EQ(CounterValue(*server, "approx_degraded"), 0u);
}

TEST(ApproxServerTest, FullBudgetRequestMatchesExactVerb) {
  auto server = MakeRamServer(/*cache_capacity=*/0);
  QueryRequest exact;
  exact.kind = RequestKind::kSimilarTo;
  exact.id = 7;
  exact.k = 5;
  QueryResponse exact_response = server->Execute(exact);
  ASSERT_TRUE(exact_response.status.ok());

  QueryRequest full = ApproxKnn(7);
  full.max_candidates = kNumSeries;  // >= population: degenerate-exact.
  QueryResponse response = server->Execute(full);
  ASSERT_TRUE(response.status.ok());
  EXPECT_TRUE(response.quality.guaranteed_exact);
  EXPECT_EQ(response.quality.epsilon, 0.0);
  ASSERT_EQ(response.neighbors.size(), exact_response.neighbors.size());
  for (size_t i = 0; i < response.neighbors.size(); ++i) {
    EXPECT_EQ(response.neighbors[i].id, exact_response.neighbors[i].id);
    EXPECT_EQ(response.neighbors[i].distance,
              exact_response.neighbors[i].distance);
  }
  EXPECT_GE(CounterValue(*server, "approx_guaranteed_exact"), 1u);
}

TEST(ApproxServerTest, ShardedServerAnswersApproxKnn) {
  auto single = MakeRamServer(/*cache_capacity=*/0);
  auto sharded = MakeRamServer(/*cache_capacity=*/0, /*shards=*/4);
  ASSERT_EQ(sharded->sharded().num_shards(), 4u);
  for (ts::SeriesId id : {0u, 13u, 40u}) {
    QueryResponse a = single->Execute(ApproxKnn(id));
    QueryResponse b = sharded->Execute(ApproxKnn(id));
    ASSERT_TRUE(a.status.ok());
    ASSERT_TRUE(b.status.ok()) << b.status.ToString();
    EXPECT_TRUE(b.approximate);
    ASSERT_EQ(a.neighbors.size(), b.neighbors.size());
    for (size_t i = 0; i < a.neighbors.size(); ++i) {
      EXPECT_EQ(a.neighbors[i].id, b.neighbors[i].id);
      EXPECT_EQ(a.neighbors[i].distance, b.neighbors[i].distance);
    }
    EXPECT_EQ(a.quality.guaranteed_exact, b.quality.guaranteed_exact);
    EXPECT_EQ(a.quality.epsilon, b.quality.epsilon);
    EXPECT_EQ(a.quality.candidates, b.quality.candidates);
  }
}

TEST(ApproxServerTest, BadIdsPassThroughAsCallerErrors) {
  auto server = MakeRamServer();
  QueryResponse response = server->Execute(ApproxKnn(kNumSeries + 1000));
  EXPECT_FALSE(response.status.ok());
  EXPECT_FALSE(response.degraded);
  EXPECT_EQ(server->breaker().trip_count(), 0u);
}

// --- Cache identity ----------------------------------------------------------

TEST(ApproxServerTest, ApproximateAnswersNeverServeExactRequests) {
  auto server = MakeRamServer(/*cache_capacity=*/64);
  // Prime the cache with an approximate answer for (id=3, k=5)...
  QueryResponse first = server->Execute(ApproxKnn(3));
  ASSERT_TRUE(first.status.ok());
  EXPECT_FALSE(first.cache_hit);
  // ...then ask for the *exact* verb with the same id/k: must miss.
  QueryRequest exact;
  exact.kind = RequestKind::kSimilarTo;
  exact.id = 3;
  exact.k = 5;
  QueryResponse second = server->Execute(exact);
  ASSERT_TRUE(second.status.ok());
  EXPECT_FALSE(second.cache_hit);
  EXPECT_FALSE(second.approximate);
}

TEST(ApproxServerTest, SameKnobsHitDifferentKnobsMiss) {
  auto server = MakeRamServer(/*cache_capacity=*/64);
  QueryRequest request = ApproxKnn(5);
  request.recall_target = 0.95;
  QueryResponse first = server->Execute(request);
  ASSERT_TRUE(first.status.ok());
  EXPECT_FALSE(first.cache_hit);

  // Identical knobs: served from cache, quality metadata intact.
  QueryResponse repeat = server->Execute(request);
  ASSERT_TRUE(repeat.status.ok());
  EXPECT_TRUE(repeat.cache_hit);
  EXPECT_TRUE(repeat.approximate);
  EXPECT_EQ(repeat.quality.candidates, first.quality.candidates);

  // Different knobs shape a different candidate set: own cache identity.
  QueryRequest different = request;
  different.max_candidates = 16;
  QueryResponse miss = server->Execute(different);
  ASSERT_TRUE(miss.status.ok());
  EXPECT_FALSE(miss.cache_hit);
}

// --- Degradation ladder ------------------------------------------------------

struct FaultyFixture {
  io::MemEnv base;
  io::FaultInjectingEnv fault_env{&base, io::FaultPlan{}};
  std::unique_ptr<S2Server> server;
};

std::unique_ptr<FaultyFixture> MakeFaultyFixture(bool degrade_to_approx) {
  auto fx = std::make_unique<FaultyFixture>();
  core::S2Engine::Options options;
  options.index.budget_c = 8;
  options.disk_store_path = "store.bin";
  options.env = &fx->fault_env;
  options.retry.max_attempts = 2;
  options.retry.base_backoff = microseconds(1);
  options.retry.max_backoff = microseconds(4);
  S2Server::Options server_options;
  server_options.scheduler.threads = 2;
  server_options.cache_capacity = 0;
  server_options.breaker.failure_threshold = 1u << 20;  // Never trips.
  server_options.degrade_to_approx = degrade_to_approx;
  auto server = S2Server::Build(MakeCorpus(), options, server_options);
  EXPECT_TRUE(server.ok()) << server.status().ToString();
  fx->server = std::move(server).ValueOrDie();
  return fx;
}

TEST(ApproxServerTest, KnobbedRequestsDegradeThroughApproxTier) {
  auto fx = MakeFaultyFixture(/*degrade_to_approx=*/true);
  io::FaultPlan plan;
  plan.read_fault_rate = 1.0;  // Every disk read fails; retries exhaust.
  fx->fault_env.set_plan(plan);

  QueryRequest request;
  request.kind = RequestKind::kSimilarTo;
  request.id = 0;
  request.k = 5;
  request.recall_target = 0.95;  // The opt-in knob.
  QueryResponse response = fx->server->Execute(request);
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_TRUE(response.degraded);
  EXPECT_TRUE(response.approximate);
  ASSERT_EQ(response.neighbors.size(), 5u);
  EXPECT_GT(response.quality.candidates, 0u);
  EXPECT_GE(CounterValue(*fx->server, "approx_degraded"), 1u);
  EXPECT_GE(CounterValue(*fx->server, "server_degraded"), 1u);
}

TEST(ApproxServerTest, KnobFreeRequestsStillGetTheExactScanFallback) {
  auto fx = MakeFaultyFixture(/*degrade_to_approx=*/true);
  auto expected = fx->server->engine().SimilarToExact(0, 5);
  ASSERT_TRUE(expected.ok());
  io::FaultPlan plan;
  plan.read_fault_rate = 1.0;
  fx->fault_env.set_plan(plan);

  QueryRequest request;
  request.kind = RequestKind::kSimilarTo;
  request.id = 0;
  request.k = 5;  // No quality knobs: the caller asked for exact answers.
  QueryResponse response = fx->server->Execute(request);
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_TRUE(response.degraded);
  EXPECT_FALSE(response.approximate);
  ASSERT_EQ(response.neighbors.size(), expected->size());
  for (size_t i = 0; i < expected->size(); ++i) {
    EXPECT_EQ(response.neighbors[i].id, (*expected)[i].id);
    EXPECT_DOUBLE_EQ(response.neighbors[i].distance, (*expected)[i].distance);
  }
  EXPECT_EQ(CounterValue(*fx->server, "approx_degraded"), 0u);
}

TEST(ApproxServerTest, ApproxRungCanBeDisabled) {
  auto fx = MakeFaultyFixture(/*degrade_to_approx=*/false);
  io::FaultPlan plan;
  plan.read_fault_rate = 1.0;
  fx->fault_env.set_plan(plan);

  QueryRequest request;
  request.kind = RequestKind::kSimilarTo;
  request.id = 0;
  request.k = 5;
  request.recall_target = 0.95;  // Knob set, but the rung is switched off.
  QueryResponse response = fx->server->Execute(request);
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_TRUE(response.degraded);
  EXPECT_FALSE(response.approximate);
  EXPECT_EQ(CounterValue(*fx->server, "approx_degraded"), 0u);
}

// --- Introspection -----------------------------------------------------------

TEST(ApproxServerTest, ApproxInfoSnapshot) {
  auto server = MakeRamServer();
  S2Server::ApproxInfo info = server->approx_info();
  EXPECT_TRUE(info.enabled);
  EXPECT_GT(info.summary_dims, 0u);
  EXPECT_GT(info.summary_cells, 0u);
  EXPECT_GT(info.summary_bytes, 0u);
  EXPECT_EQ(info.indexed_series, kNumSeries);
  EXPECT_NE(info.config_fingerprint, 0u);

  auto sharded = MakeRamServer(/*cache_capacity=*/0, /*shards=*/4);
  S2Server::ApproxInfo sharded_info = sharded->approx_info();
  EXPECT_TRUE(sharded_info.enabled);
  EXPECT_EQ(sharded_info.indexed_series, kNumSeries);
  // The global config is shared verbatim by every shard.
  EXPECT_EQ(sharded_info.config_fingerprint, info.config_fingerprint);
}

TEST(ApproxServerTest, MetricsSnapshotNamesTheApproxCounters) {
  auto server = MakeRamServer();
  (void)server->Execute(ApproxKnn(0));
  const std::string text = server->MetricsText();
  EXPECT_NE(text.find("approx_queries"), std::string::npos);
  EXPECT_NE(text.find("approx_guaranteed_exact"), std::string::npos);
  EXPECT_NE(text.find("approx_degraded"), std::string::npos);
  EXPECT_NE(text.find("server_requests_approx_knn"), std::string::npos);
}

}  // namespace
}  // namespace s2::service
