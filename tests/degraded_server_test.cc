// End-to-end degradation ladder: S2Server over a disk-resident engine whose
// filesystem injects faults. Exercises all three rungs — engine-level retry,
// exact-scan fallback with the `degraded` flag, and circuit-breaker load
// shedding — plus the resilience counters they export.

#include <chrono>
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
using std::chrono::milliseconds;

constexpr size_t kNumSeries = 48;

struct Fixture {
  io::MemEnv base;
  io::FaultInjectingEnv fault_env{&base, io::FaultPlan{}};
  std::unique_ptr<S2Server> server;
};

// Builds a one-shard disk-resident engine through `fault_env` (no faults
// planned yet, so the build is clean), then wraps it in a server. Cache is
// disabled so every Execute reaches the engine and hence the faulty disk.
std::unique_ptr<Fixture> MakeFixture(
    resilience::CircuitBreaker::Options breaker = {},
    bool degrade_on_failure = true) {
  auto fx = std::make_unique<Fixture>();
  qlog::CorpusSpec spec;
  spec.num_series = kNumSeries;
  spec.n_days = 128;
  spec.seed = 23;
  auto corpus = qlog::GenerateCorpus(spec);
  EXPECT_TRUE(corpus.ok());
  shard::ShardedEngine::Options options;
  options.num_shards = 1;
  options.engine.disk_store_path = "store.bin";
  options.engine.env = &fx->fault_env;
  options.engine.retry.max_attempts = 4;
  options.engine.retry.base_backoff = microseconds(1);
  options.engine.retry.max_backoff = microseconds(8);
  auto engine =
      shard::ShardedEngine::Build(std::move(corpus).ValueOrDie(), options);
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  S2Server::Options server_options;
  server_options.scheduler.threads = 2;
  server_options.cache_capacity = 0;
  server_options.breaker = breaker;
  server_options.degrade_on_failure = degrade_on_failure;
  fx->server = S2Server::Create(std::move(engine).ValueOrDie(), server_options);
  return fx;
}

resilience::CircuitBreaker::Options NeverTrips() {
  resilience::CircuitBreaker::Options options;
  options.failure_threshold = 1u << 20;
  return options;
}

QueryRequest SimilarTo(ts::SeriesId id, size_t k = 5) {
  QueryRequest request;
  request.kind = RequestKind::kSimilarTo;
  request.id = id;
  request.k = k;
  return request;
}

uint64_t CounterValue(S2Server& server, const std::string& name) {
  return server.metrics().counter(name)->value();
}

TEST(DegradedServerTest, TransientFaultRateYieldsOnlyGoodAnswers) {
  auto fx = MakeFixture(NeverTrips());
  io::FaultPlan plan;
  plan.read_fault_rate = 0.01;  // The acceptance-criteria rate.
  plan.seed = 7;
  fx->fault_env.set_plan(plan);
  size_t degraded = 0;
  for (int round = 0; round < 4; ++round) {
    for (ts::SeriesId id = 0; id < kNumSeries; ++id) {
      QueryResponse response = fx->server->Execute(SimilarTo(id));
      // Every answer must be a real answer: retried, or degraded to the
      // exact scan — never an error surfaced to the caller.
      ASSERT_TRUE(response.status.ok()) << response.status.ToString();
      EXPECT_FALSE(response.neighbors.empty());
      if (response.degraded) ++degraded;
    }
  }
  // At a 1% per-read rate over ~200 multi-read requests, some faults fired.
  EXPECT_GT(CounterValue(*fx->server, "server_retry_attempts") + degraded, 0u);
  EXPECT_EQ(CounterValue(*fx->server, "server_shed"), 0u);
}

TEST(DegradedServerTest, ExhaustedRetriesDegradeToExactScan) {
  auto fx = MakeFixture(NeverTrips());
  // Capture the ground truth before the disk goes bad.
  auto expected = fx->server->engine().SimilarToExact(0, 5);
  ASSERT_TRUE(expected.ok());
  io::FaultPlan plan;
  plan.read_fault_rate = 1.0;  // Every read fails; retries must exhaust.
  fx->fault_env.set_plan(plan);
  QueryResponse response = fx->server->Execute(SimilarTo(0));
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_TRUE(response.degraded);
  ASSERT_EQ(response.neighbors.size(), expected->size());
  for (size_t i = 0; i < expected->size(); ++i) {
    EXPECT_EQ(response.neighbors[i].id, (*expected)[i].id);
    EXPECT_DOUBLE_EQ(response.neighbors[i].distance, (*expected)[i].distance);
  }
  EXPECT_GE(CounterValue(*fx->server, "server_degraded"), 1u);
  EXPECT_GE(CounterValue(*fx->server, "server_retry_giveups"), 1u);
}

TEST(DegradedServerTest, DtwRequestsDegradeToo) {
  auto fx = MakeFixture(NeverTrips());
  io::FaultPlan plan;
  plan.read_fault_rate = 1.0;
  fx->fault_env.set_plan(plan);
  QueryRequest request = SimilarTo(1);
  request.kind = RequestKind::kSimilarToDtw;
  QueryResponse response = fx->server->Execute(request);
  ASSERT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_TRUE(response.degraded);
  EXPECT_FALSE(response.neighbors.empty());
}

TEST(DegradedServerTest, CallerErrorsPassThroughUndegraded) {
  auto fx = MakeFixture(NeverTrips());
  io::FaultPlan plan;
  plan.read_fault_rate = 1.0;
  fx->fault_env.set_plan(plan);
  QueryResponse response = fx->server->Execute(SimilarTo(kNumSeries + 1000));
  // A bad series id is the caller's fault, not infrastructure: no fallback,
  // no degraded flag, and the breaker must not count it as a failure.
  EXPECT_FALSE(response.status.ok());
  EXPECT_FALSE(response.degraded);
  EXPECT_EQ(CounterValue(*fx->server, "server_degraded"), 0u);
  EXPECT_EQ(fx->server->breaker().trip_count(), 0u);
}

TEST(DegradedServerTest, DegradationCanBeDisabled) {
  auto fx = MakeFixture(NeverTrips(), /*degrade_on_failure=*/false);
  io::FaultPlan plan;
  plan.read_fault_rate = 1.0;
  fx->fault_env.set_plan(plan);
  QueryResponse response = fx->server->Execute(SimilarTo(0));
  EXPECT_FALSE(response.status.ok());
  EXPECT_FALSE(response.degraded);
  EXPECT_EQ(CounterValue(*fx->server, "server_degraded"), 0u);
}

TEST(DegradedServerTest, SustainedFailureTripsBreakerAndSheds) {
  resilience::CircuitBreaker::Options breaker;
  breaker.failure_threshold = 3;
  breaker.cooldown = milliseconds(60'000);  // Stays open for the whole test.
  auto fx = MakeFixture(breaker);
  io::FaultPlan plan;
  plan.read_fault_rate = 1.0;
  fx->fault_env.set_plan(plan);
  // The first three requests fail on the primary path (tripping the
  // breaker) but are still answered via the exact-scan fallback.
  for (ts::SeriesId id = 0; id < 3; ++id) {
    QueryResponse response = fx->server->Execute(SimilarTo(id));
    ASSERT_TRUE(response.status.ok());
    EXPECT_TRUE(response.degraded);
  }
  EXPECT_EQ(fx->server->breaker().state(),
            resilience::CircuitBreaker::State::kOpen);
  // While open, requests are shed fast with Unavailable — no retries, no
  // disk traffic piling onto the failing device.
  const uint64_t reads_before = fx->fault_env.read_ops();
  QueryResponse shed = fx->server->Execute(SimilarTo(4));
  EXPECT_EQ(shed.status.code(), StatusCode::kUnavailable);
  EXPECT_EQ(fx->fault_env.read_ops(), reads_before);
  EXPECT_GE(CounterValue(*fx->server, "server_shed"), 1u);
  EXPECT_EQ(CounterValue(*fx->server, "server_breaker_trips"), 1u);
}

TEST(DegradedServerTest, CallerErrorProbeDoesNotWedgeTheBreaker) {
  resilience::CircuitBreaker::Options breaker;
  breaker.failure_threshold = 3;
  breaker.cooldown = milliseconds(0);  // Probe on the very next request.
  auto fx = MakeFixture(breaker);
  io::FaultPlan plan;
  plan.read_fault_rate = 1.0;
  fx->fault_env.set_plan(plan);
  for (ts::SeriesId id = 0; id < 3; ++id) {
    (void)fx->server->Execute(SimilarTo(id));
  }
  ASSERT_EQ(fx->server->breaker().state(),
            resilience::CircuitBreaker::State::kOpen);
  // The disk heals, and the half-open probe happens to be a request that
  // fails with a caller error (unknown id). That outcome must release the
  // probe slot...
  fx->fault_env.set_plan(io::FaultPlan{});
  QueryResponse probe = fx->server->Execute(SimilarTo(kNumSeries + 1000));
  EXPECT_FALSE(probe.status.ok());
  EXPECT_NE(probe.status.code(), StatusCode::kUnavailable);
  // ...so real traffic flows again instead of being shed forever.
  QueryResponse after = fx->server->Execute(SimilarTo(0));
  EXPECT_TRUE(after.status.ok()) << after.status.ToString();
  EXPECT_EQ(CounterValue(*fx->server, "server_shed"), 0u);
}

// --- Sharded fault isolation -------------------------------------------------
//
// One shard's filesystem going bad must degrade the request through the same
// server ladder — not fail the whole fan-out, and not mark the healthy
// shards' work lost. The fixture builds a 4-shard disk-resident server where
// shard 2 (and only shard 2) reads through a FaultInjectingEnv.

struct ShardedFixture {
  io::MemEnv healthy;
  io::MemEnv faulty_base;
  io::FaultInjectingEnv fault_env{&faulty_base, io::FaultPlan{}};
  std::unique_ptr<S2Server> server;
};

std::unique_ptr<ShardedFixture> MakeShardedFixture(
    resilience::CircuitBreaker::Options breaker = NeverTrips()) {
  auto fx = std::make_unique<ShardedFixture>();
  qlog::CorpusSpec spec;
  spec.num_series = kNumSeries;
  spec.n_days = 128;
  spec.seed = 23;
  auto corpus = qlog::GenerateCorpus(spec);
  EXPECT_TRUE(corpus.ok());
  core::S2Engine::Options options;
  options.disk_store_path = "store.bin";
  options.env = &fx->healthy;
  options.retry.max_attempts = 4;
  options.retry.base_backoff = microseconds(1);
  options.retry.max_backoff = microseconds(8);
  S2Server::Options server_options;
  server_options.scheduler.threads = 2;
  server_options.cache_capacity = 0;
  server_options.breaker = breaker;
  server_options.shards = 4;
  server_options.shard_envs = {&fx->healthy, &fx->healthy, &fx->fault_env,
                               &fx->healthy};
  auto server =
      S2Server::Build(std::move(corpus).ValueOrDie(), options, server_options);
  EXPECT_TRUE(server.ok()) << server.status().ToString();
  fx->server = std::move(server).ValueOrDie();
  return fx;
}

TEST(DegradedServerTest, OneFaultyShardDegradesInsteadOfFailingTheFanOut) {
  auto fx = MakeShardedFixture();
  ASSERT_EQ(fx->server->sharded().num_shards(), 4u);
  // Ground truth from the still-healthy disk (exact scan is RAM-only, but
  // capture it before the faults for clarity).
  auto expected = fx->server->sharded().SimilarToExact(0, 5);
  ASSERT_TRUE(expected.ok());
  io::FaultPlan plan;
  plan.read_fault_rate = 1.0;  // Shard 2's every read fails; retries exhaust.
  fx->fault_env.set_plan(plan);
  for (ts::SeriesId id = 0; id < 8; ++id) {
    QueryResponse response = fx->server->Execute(SimilarTo(id));
    // The scatter hits all four shards; shard 2's failure must surface as a
    // degraded-but-correct answer, exactly like the one-shard ladder.
    ASSERT_TRUE(response.status.ok()) << response.status.ToString();
    EXPECT_TRUE(response.degraded);
    EXPECT_FALSE(response.neighbors.empty());
  }
  QueryResponse response = fx->server->Execute(SimilarTo(0));
  ASSERT_TRUE(response.status.ok());
  ASSERT_EQ(response.neighbors.size(), expected->size());
  for (size_t i = 0; i < expected->size(); ++i) {
    EXPECT_EQ(response.neighbors[i].id, (*expected)[i].id);
    EXPECT_DOUBLE_EQ(response.neighbors[i].distance, (*expected)[i].distance);
  }
  EXPECT_GE(CounterValue(*fx->server, "server_degraded"), 9u);
  EXPECT_GE(CounterValue(*fx->server, "server_retry_giveups"), 1u);
}

TEST(DegradedServerTest, OwnerRoutedVerbsOnHealthyShardsIgnoreTheFaultyOne) {
  auto fx = MakeShardedFixture();
  io::FaultPlan plan;
  plan.read_fault_rate = 1.0;
  fx->fault_env.set_plan(plan);
  // Periods and bursts route to the owner shard alone. For a series owned by
  // a healthy shard they never touch shard 2's disk (they run on RAM
  // structures anyway) and must succeed undegraded.
  QueryRequest request;
  request.kind = RequestKind::kPeriodsOf;
  request.id = 0;  // Round-robin: shard 0.
  QueryResponse response = fx->server->Execute(request);
  EXPECT_TRUE(response.status.ok()) << response.status.ToString();
  EXPECT_FALSE(response.degraded);
  request.kind = RequestKind::kBurstsOf;
  response = fx->server->Execute(request);
  EXPECT_TRUE(response.status.ok());
  EXPECT_FALSE(response.degraded);
}

TEST(DegradedServerTest, ShardedSustainedFailureStillTripsTheBreaker) {
  resilience::CircuitBreaker::Options breaker;
  breaker.failure_threshold = 3;
  breaker.cooldown = milliseconds(60'000);
  auto fx = MakeShardedFixture(breaker);
  io::FaultPlan plan;
  plan.read_fault_rate = 1.0;
  fx->fault_env.set_plan(plan);
  for (ts::SeriesId id = 0; id < 3; ++id) {
    QueryResponse response = fx->server->Execute(SimilarTo(id));
    ASSERT_TRUE(response.status.ok());
    EXPECT_TRUE(response.degraded);
  }
  // Rung 3 is topology-independent: the persistent one-shard failure counts
  // as primary-path failure and trips the same breaker.
  EXPECT_EQ(fx->server->breaker().state(),
            resilience::CircuitBreaker::State::kOpen);
  QueryResponse shed = fx->server->Execute(SimilarTo(4));
  EXPECT_EQ(shed.status.code(), StatusCode::kUnavailable);
  EXPECT_GE(CounterValue(*fx->server, "server_shed"), 1u);
}

TEST(DegradedServerTest, MetricsSnapshotNamesTheResilienceCounters) {
  auto fx = MakeFixture(NeverTrips());
  const std::string text = fx->server->MetricsText();
  EXPECT_NE(text.find("server_degraded"), std::string::npos);
  EXPECT_NE(text.find("server_shed"), std::string::npos);
  EXPECT_NE(text.find("server_retry_attempts"), std::string::npos);
  EXPECT_NE(text.find("server_retry_giveups"), std::string::npos);
  EXPECT_NE(text.find("server_breaker_trips"), std::string::npos);
}

}  // namespace
}  // namespace s2::service
