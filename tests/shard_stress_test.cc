// Concurrency stress for the sharded serving path, designed to run under
// S2_SANITIZE=thread (tools/verify_all.sh sharding profile): many reader
// threads hammer every query verb through S2Server::Execute while a writer
// thread keeps appending series. TSan proves the documented contract — the
// shared radius is the only cross-thread state inside a scatter, and the
// server's shared_mutex serializes AddSeries against the fan-out.

#include <atomic>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "querylog/corpus_generator.h"
#include "service/s2_server.h"
#include "shard/sharded_engine.h"

namespace s2::shard {
namespace {

constexpr size_t kNumSeries = 40;
constexpr size_t kDays = 64;

ts::Corpus MakeCorpus(uint64_t seed) {
  qlog::CorpusSpec spec;
  spec.num_series = kNumSeries;
  spec.n_days = kDays;
  spec.seed = seed;
  auto corpus = qlog::GenerateCorpus(spec);
  EXPECT_TRUE(corpus.ok());
  return std::move(corpus).ValueOrDie();
}

core::S2Engine::Options EngineOptions() {
  core::S2Engine::Options options;
  options.index.budget_c = 8;
  options.index.leaf_size = 4;
  return options;
}

TEST(ShardStressTest, ConcurrentQueriesOverShardsAreRaceFree) {
  // Pure read concurrency: every verb, all shards, no writer. Any data race
  // inside the scatter (shared radius, stats vectors, engine state) is
  // TSan-visible here without writer noise.
  ShardedEngine::Options options;
  options.num_shards = 4;
  options.engine = EngineOptions();
  auto built = ShardedEngine::Build(MakeCorpus(3), options);
  ASSERT_TRUE(built.ok());
  const ShardedEngine& engine = *built;

  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int t = 0; t < 4; ++t) {
    threads.emplace_back([&engine, &failures, t] {
      for (int i = 0; i < 12; ++i) {
        const auto id = static_cast<ts::SeriesId>((t * 7 + i) % kNumSeries);
        if (!engine.SimilarTo(id, 5).ok()) failures.fetch_add(1);
        if (!engine.QueryByBurst(id, 5, core::BurstHorizon::kLongTerm).ok()) {
          failures.fetch_add(1);
        }
        if (i % 4 == 0 && !engine.SimilarToDtw(id, 3).ok()) {
          failures.fetch_add(1);
        }
        if (!engine.FindPeriods(id).ok()) failures.fetch_add(1);
      }
    });
  }
  for (std::thread& thread : threads) thread.join();
  EXPECT_EQ(failures.load(), 0);
}

TEST(ShardStressTest, MixedAddSeriesAndQueryWorkloadStaysConsistent) {
  service::S2Server::Options server_options;
  server_options.scheduler.threads = 3;
  server_options.cache_capacity = 64;
  server_options.shards = 4;
  auto server = service::S2Server::Build(MakeCorpus(17), EngineOptions(),
                                         server_options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  service::S2Server& srv = **server;

  qlog::CorpusSpec spec;
  spec.num_series = kNumSeries;
  spec.n_days = kDays;
  spec.seed = 17;
  auto extra = qlog::GenerateQueries(spec, 10);
  ASSERT_TRUE(extra.ok());

  std::atomic<bool> stop{false};
  std::atomic<int> bad_responses{0};

  // Readers: every verb, synchronous Execute (exercises the shared lock,
  // the cache, and the scatter pool from several threads at once).
  std::vector<std::thread> readers;
  for (int t = 0; t < 3; ++t) {
    readers.emplace_back([&srv, &stop, &bad_responses, t] {
      const service::RequestKind kinds[] = {
          service::RequestKind::kSimilarTo, service::RequestKind::kSimilarToDtw,
          service::RequestKind::kPeriodsOf, service::RequestKind::kBurstsOf,
          service::RequestKind::kQueryByBurst};
      int i = 0;
      while (!stop.load(std::memory_order_relaxed)) {
        service::QueryRequest request;
        request.kind = kinds[(t + i) % 5];
        // Only query the initial ids: they exist regardless of how many
        // appends have landed, so every response must be OK.
        request.id = static_cast<ts::SeriesId>((t * 11 + i) % kNumSeries);
        request.k = 4;
        service::QueryResponse response = srv.Execute(request);
        if (!response.status.ok()) bad_responses.fetch_add(1);
        ++i;
      }
    });
  }

  // Writer: appends all ten extra series, interleaved with the readers.
  std::thread writer([&srv, &extra, &bad_responses] {
    for (const ts::TimeSeries& series : *extra) {
      auto id = srv.AddSeries(series);
      if (!id.ok()) bad_responses.fetch_add(1);
      std::this_thread::yield();
    }
  });
  writer.join();
  stop.store(true);
  for (std::thread& reader : readers) reader.join();

  EXPECT_EQ(bad_responses.load(), 0);
  ASSERT_EQ(srv.sharded().num_shards(), 4u);
  EXPECT_EQ(srv.sharded().size(), kNumSeries + 10);
  EXPECT_TRUE(srv.sharded().ValidateInvariants().ok());
  // New ids are queryable after the writer finishes.
  service::QueryRequest request;
  request.kind = service::RequestKind::kSimilarTo;
  request.id = kNumSeries + 9;
  request.k = 4;
  EXPECT_TRUE(srv.Execute(request).status.ok());
}

TEST(ShardStressTest, ConcurrentSubmitTicketsAllComplete) {
  service::S2Server::Options server_options;
  server_options.scheduler.threads = 2;
  server_options.scheduler.queue_capacity = 512;
  server_options.shards = 3;
  auto server = service::S2Server::Build(MakeCorpus(29), EngineOptions(),
                                         server_options);
  ASSERT_TRUE(server.ok());
  std::vector<service::RequestTicket> tickets;
  for (int i = 0; i < 60; ++i) {
    service::QueryRequest request;
    request.kind = (i % 2 == 0) ? service::RequestKind::kSimilarTo
                                : service::RequestKind::kQueryByBurst;
    request.id = static_cast<ts::SeriesId>(i % kNumSeries);
    request.k = 5;
    auto ticket = (*server)->Submit(request);
    ASSERT_TRUE(ticket.ok());  // Capacity 512 admits everything.
    tickets.push_back(std::move(*ticket));
  }
  for (service::RequestTicket& ticket : tickets) {
    service::QueryResponse response = ticket.Get();
    EXPECT_TRUE(response.status.ok()) << response.status.ToString();
  }
}

}  // namespace
}  // namespace s2::shard
