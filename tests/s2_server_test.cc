#include "service/s2_server.h"

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "diag/check.h"
#include "querylog/corpus_generator.h"

namespace s2::service {
namespace {

shard::ShardedEngine MakeEngine(size_t num_shards = 1) {
  qlog::CorpusSpec spec;
  spec.num_series = 96;
  spec.n_days = 256;
  spec.seed = 11;
  auto corpus = qlog::GenerateCorpus(spec);
  EXPECT_TRUE(corpus.ok());
  shard::ShardedEngine::Options options;
  options.num_shards = num_shards;
  options.engine.index.budget_c = 8;
  auto engine =
      shard::ShardedEngine::Build(std::move(corpus).ValueOrDie(), options);
  EXPECT_TRUE(engine.ok());
  return std::move(engine).ValueOrDie();
}

std::unique_ptr<S2Server> MakeServer(size_t threads = 4,
                                     size_t cache_capacity = 256,
                                     size_t queue_capacity = 256,
                                     size_t num_shards = 1) {
  S2Server::Options options;
  options.scheduler.threads = threads;
  options.scheduler.queue_capacity = queue_capacity;
  options.cache_capacity = cache_capacity;
  return S2Server::Create(MakeEngine(num_shards), options);
}

std::vector<diag::CheckFailure>* g_failures = nullptr;

void RecordFailure(const diag::CheckFailure& failure) {
  g_failures->push_back(failure);
}

QueryRequest Request(RequestKind kind, ts::SeriesId id, size_t k = 5) {
  QueryRequest request;
  request.kind = kind;
  request.id = id;
  request.k = k;
  return request;
}

TEST(S2ServerTest, ExecuteMatchesDirectEngineCalls) {
  auto server = MakeServer();
  const auto& engine = server->engine();
  for (ts::SeriesId id = 0; id < 10; ++id) {
    QueryResponse response = server->Execute(Request(RequestKind::kSimilarTo, id));
    ASSERT_TRUE(response.status.ok());
    auto direct = engine.SimilarTo(id, 5);
    ASSERT_TRUE(direct.ok());
    ASSERT_EQ(response.neighbors.size(), direct->size());
    for (size_t i = 0; i < direct->size(); ++i) {
      EXPECT_EQ(response.neighbors[i].id, (*direct)[i].id);
      EXPECT_DOUBLE_EQ(response.neighbors[i].distance, (*direct)[i].distance);
    }
  }
}

TEST(S2ServerTest, AllRequestKindsSucceed) {
  auto server = MakeServer();
  for (RequestKind kind :
       {RequestKind::kSimilarTo, RequestKind::kSimilarToDtw,
        RequestKind::kPeriodsOf, RequestKind::kBurstsOf,
        RequestKind::kQueryByBurst}) {
    QueryResponse response = server->Execute(Request(kind, 3));
    EXPECT_TRUE(response.status.ok()) << RequestKindToString(kind) << ": "
                                      << response.status.ToString();
  }
}

TEST(S2ServerTest, BadIdPropagatesEngineError) {
  auto server = MakeServer();
  QueryResponse response =
      server->Execute(Request(RequestKind::kSimilarTo, 1u << 20));
  EXPECT_EQ(response.status.code(), StatusCode::kNotFound);
}

TEST(S2ServerTest, CacheHitBypassesEngineEntirely) {
  auto server = MakeServer();
  const QueryRequest request = Request(RequestKind::kSimilarTo, 1);

  QueryResponse cold = server->Execute(request);
  ASSERT_TRUE(cold.status.ok());
  EXPECT_FALSE(cold.cache_hit);

  // A cache hit must not touch the VP-tree or the sequence store: the
  // engine-call counter and the store's read counter stay frozen.
  const uint64_t engine_calls =
      server->metrics().counter("server_engine_calls")->value();
  const uint64_t store_reads = server->engine().source()->read_count();
  QueryResponse warm = server->Execute(request);
  ASSERT_TRUE(warm.status.ok());
  EXPECT_TRUE(warm.cache_hit);
  EXPECT_EQ(server->metrics().counter("server_engine_calls")->value(),
            engine_calls);
  EXPECT_EQ(server->engine().source()->read_count(), store_reads);
  ASSERT_EQ(warm.neighbors.size(), cold.neighbors.size());
  for (size_t i = 0; i < warm.neighbors.size(); ++i) {
    EXPECT_EQ(warm.neighbors[i].id, cold.neighbors[i].id);
  }
  EXPECT_EQ(server->cache().hits(), 1u);
}

TEST(S2ServerTest, AddSeriesInvalidatesCache) {
  auto server = MakeServer();
  const QueryRequest request = Request(RequestKind::kSimilarTo, 0);
  ASSERT_TRUE(server->Execute(request).status.ok());
  ASSERT_TRUE(server->Execute(request).cache_hit);

  const size_t n = server->engine().corpus().at(0).size();
  Rng rng(123);
  ts::TimeSeries fresh;
  fresh.name = "freshly added";
  fresh.values.reserve(n);
  for (size_t i = 0; i < n; ++i) fresh.values.push_back(rng.Uniform(0.0, 50.0));
  auto id = server->AddSeries(std::move(fresh));
  ASSERT_TRUE(id.ok());

  QueryResponse after = server->Execute(request);
  EXPECT_FALSE(after.cache_hit);  // invalidated, recomputed
  EXPECT_TRUE(after.status.ok());
  EXPECT_EQ(server->metrics().counter("cache_invalidations")->value(), 1u);
  // The new series is queryable.
  EXPECT_TRUE(server->Execute(Request(RequestKind::kSimilarTo, *id)).status.ok());
}

TEST(S2ServerTest, ConcurrentSubmissionsMatchSingleThreadedGroundTruth) {
  // Window sized to hold every submission: this test checks correctness of
  // concurrent answers, not backpressure.
  auto server =
      MakeServer(/*threads=*/4, /*cache_capacity=*/0, /*queue_capacity=*/4096);
  const auto& engine = server->engine();
  const size_t corpus_size = engine.corpus().size();

  // Ground truth, computed single-threaded before any concurrency.
  std::vector<std::vector<index::Neighbor>> expected(corpus_size);
  for (ts::SeriesId id = 0; id < corpus_size; ++id) {
    auto direct = engine.SimilarTo(id, 5);
    ASSERT_TRUE(direct.ok());
    expected[id] = std::move(direct).value();
  }

  constexpr int kRounds = 4;
  std::vector<RequestTicket> tickets;
  tickets.reserve(corpus_size * kRounds);
  std::vector<ts::SeriesId> ids;
  for (int round = 0; round < kRounds; ++round) {
    for (ts::SeriesId id = 0; id < corpus_size; ++id) {
      auto ticket = server->Submit(Request(RequestKind::kSimilarTo, id));
      ASSERT_TRUE(ticket.ok());
      tickets.push_back(std::move(*ticket));
      ids.push_back(id);
    }
  }
  for (size_t i = 0; i < tickets.size(); ++i) {
    QueryResponse response = tickets[i].Get();
    ASSERT_TRUE(response.status.ok());
    const std::vector<index::Neighbor>& truth = expected[ids[i]];
    ASSERT_EQ(response.neighbors.size(), truth.size());
    for (size_t j = 0; j < truth.size(); ++j) {
      EXPECT_EQ(response.neighbors[j].id, truth[j].id);
      EXPECT_DOUBLE_EQ(response.neighbors[j].distance, truth[j].distance);
    }
  }
}

TEST(S2ServerTest, ConcurrentMixedKindsAndIngestStayCoherent) {
  auto server = MakeServer(/*threads=*/4, /*cache_capacity=*/128);
  const size_t n = server->engine().corpus().at(0).size();

  std::atomic<bool> stop{false};
  std::thread writer([&] {
    Rng rng(7);
    for (int i = 0; i < 5 && !stop.load(); ++i) {
      ts::TimeSeries series;
      series.name = "ingest " + std::to_string(i);
      for (size_t j = 0; j < n; ++j) {
        series.values.push_back(rng.Uniform(0.0, 20.0));
      }
      ASSERT_TRUE(server->AddSeries(std::move(series)).ok());
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  });

  const RequestKind kinds[] = {RequestKind::kSimilarTo, RequestKind::kPeriodsOf,
                               RequestKind::kBurstsOf,
                               RequestKind::kQueryByBurst};
  std::vector<RequestTicket> tickets;
  for (int i = 0; i < 200; ++i) {
    auto ticket = server->Submit(
        Request(kinds[i % 4], static_cast<ts::SeriesId>(i % 50)));
    ASSERT_TRUE(ticket.ok());
    tickets.push_back(std::move(*ticket));
  }
  for (RequestTicket& ticket : tickets) {
    EXPECT_TRUE(ticket.Get().status.ok());
  }
  stop.store(true);
  writer.join();
  server->Shutdown();
}

TEST(S2ServerTest, MetricsTextSnapshotContainsServingCounters) {
  auto server = MakeServer();
  auto ticket = server->Submit(Request(RequestKind::kSimilarTo, 2));
  ASSERT_TRUE(ticket.ok());
  ASSERT_TRUE(ticket->Get().status.ok());
  const std::string text = server->MetricsText();
  EXPECT_NE(text.find("server_accepted 1"), std::string::npos) << text;
  EXPECT_NE(text.find("server_completed 1"), std::string::npos) << text;
  EXPECT_NE(text.find("server_latency_p95_us"), std::string::npos) << text;
  EXPECT_NE(text.find("cache_misses 1"), std::string::npos) << text;
}

TEST(S2ServerTest, EngineAccessorFailsACheckOnAMultiShardServer) {
  std::vector<diag::CheckFailure> failures;
  g_failures = &failures;
  const diag::CheckFailureHandler previous =
      diag::SetCheckFailureHandler(&RecordFailure);

  auto one = MakeServer(/*threads=*/1, /*cache_capacity=*/0,
                        /*queue_capacity=*/16, /*num_shards=*/1);
  EXPECT_EQ(&one->engine(), &one->sharded().shard(0));
  EXPECT_TRUE(failures.empty());

  auto four = MakeServer(/*threads=*/1, /*cache_capacity=*/0,
                         /*queue_capacity=*/16, /*num_shards=*/4);
  ASSERT_EQ(four->sharded().num_shards(), 4u);
  // With a handler that returns, the accessor still hands back a live
  // engine (shard 0) rather than dereferencing nothing.
  EXPECT_EQ(&four->engine(), &four->sharded().shard(0));
  ASSERT_EQ(failures.size(), 1u);
  EXPECT_EQ(failures[0].condition, "engine_.num_shards() == 1");
  EXPECT_FALSE(failures[0].is_dcheck);

  diag::SetCheckFailureHandler(previous);
  g_failures = nullptr;
}

}  // namespace
}  // namespace s2::service
