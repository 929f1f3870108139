// Serving-layer behavior of standing queries: the subscribe/unsubscribe/
// poll-alerts/ack verbs' validation and metrics contract, monitor-WAL
// durability across restarts, owner-routing on sharded servers, and the
// lock discipline under concurrent appends + polls (the TSan target).

#include "service/s2_server.h"

#include <atomic>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "io/mem_env.h"
#include "monitor/subscription.h"
#include "querylog/corpus_generator.h"

namespace s2::service {
namespace {

constexpr size_t kNumSeries = 24;
constexpr size_t kDays = 64;

ts::Corpus MakeCorpus() {
  qlog::CorpusSpec spec;
  spec.num_series = kNumSeries;
  spec.n_days = kDays;
  spec.seed = 808;
  auto corpus = qlog::GenerateCorpus(spec);
  EXPECT_TRUE(corpus.ok());
  return std::move(corpus).ValueOrDie();
}

core::S2Engine::Options EngineOptions() {
  core::S2Engine::Options options;
  return options;
}

std::unique_ptr<S2Server> MakeServer(S2Server::Options options) {
  options.scheduler.threads = 1;
  auto server = S2Server::Build(MakeCorpus(), EngineOptions(), options);
  EXPECT_TRUE(server.ok()) << server.status().ToString();
  return std::move(server).ValueOrDie();
}

monitor::Subscription BurstSub(ts::SeriesId series) {
  monitor::Subscription sub;
  sub.kind = monitor::SubscriptionKind::kBurstThreshold;
  sub.series = series;
  sub.burst.window = 4;
  sub.burst.enter_ratio = 1.3;
  sub.burst.exit_ratio = 1.1;
  return sub;
}

TEST(MonitorServerTest, SubscribeAssignsDenseIdsAndValidates) {
  std::unique_ptr<S2Server> server = MakeServer({});

  auto first = server->Subscribe(BurstSub(0));
  ASSERT_TRUE(first.ok()) << first.status().ToString();
  EXPECT_EQ(*first, 0u);
  auto second = server->Subscribe(BurstSub(5));
  ASSERT_TRUE(second.ok());
  EXPECT_EQ(*second, 1u);
  EXPECT_EQ(server->metrics().counter("monitor_subscriptions")->value(), 2u);
  EXPECT_EQ(server->monitor_info().active_subscriptions, 2u);

  // Invalid registrations burn no id and change nothing.
  EXPECT_FALSE(server->Subscribe(BurstSub(kNumSeries + 3)).ok());
  monitor::Subscription bad = BurstSub(0);
  bad.burst.window = 0;
  EXPECT_FALSE(server->Subscribe(bad).ok());
  EXPECT_EQ(server->monitor_info().active_subscriptions, 2u);
  auto third = server->Subscribe(BurstSub(1));
  ASSERT_TRUE(third.ok());
  EXPECT_EQ(*third, 2u);

  EXPECT_EQ(server->Unsubscribe(99).code(), StatusCode::kNotFound);
  ASSERT_TRUE(server->Unsubscribe(*second).ok());
  EXPECT_EQ(server->metrics().counter("monitor_unsubscribes")->value(), 1u);
  EXPECT_EQ(server->monitor_info().active_subscriptions, 2u);
}

TEST(MonitorServerTest, AlertsFlowThroughPollAndAckWithMetrics) {
  std::unique_ptr<S2Server> server = MakeServer({});
  ASSERT_TRUE(server->Subscribe(BurstSub(0)).ok());

  // Unwatched series evaluate nothing; watched flat appends fire nothing.
  ASSERT_TRUE(server->AppendPoint(9, 5.0).ok());
  EXPECT_TRUE(server->PollAlerts(100).empty());

  // A hot tail (well above the generated corpus' few-hundred daily counts)
  // crosses enter_ratio: the burst-begin alert flows out.
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(server->AppendPoint(0, 5000.0).ok());
  }
  const std::vector<monitor::Alert> alerts = server->PollAlerts(100);
  ASSERT_FALSE(alerts.empty());
  EXPECT_EQ(alerts.front().kind, monitor::AlertKind::kBurstBegin);
  EXPECT_EQ(alerts.front().series, 0u);
  EXPECT_EQ(alerts.front().seq, 0u);

  auto& metrics = server->metrics();
  EXPECT_GE(metrics.counter("monitor_alerts_fired")->value(), 1u);
  EXPECT_GE(metrics.counter("monitor_alerts_delivered")->value(), 1u);
  EXPECT_EQ(metrics.counter("monitor_alerts_dropped")->value(), 0u);
  // Every append on the watched series recorded an evaluation sample.
  EXPECT_GE(metrics.histogram("monitor_eval_latency")->count(), 4u);

  ASSERT_TRUE(server->AckAlerts(alerts.back().seq).ok());
  const auto info = server->monitor_info();
  EXPECT_EQ(info.queue_depth, 0u);
  EXPECT_TRUE(info.any_acked);
  EXPECT_EQ(info.acked_upto, alerts.back().seq);
  EXPECT_TRUE(server->PollAlerts(100).empty());
}

TEST(MonitorServerTest, ShardedServerRoutesSubscriptionsToOwners) {
  S2Server::Options options;
  options.shards = 3;
  std::unique_ptr<S2Server> server = MakeServer(options);
  ASSERT_EQ(server->sharded().num_shards(), 3u);

  // Series 0..2 land on three different shards (round-robin placement); the
  // registrations must follow their owners.
  for (ts::SeriesId id = 0; id < 3; ++id) {
    ASSERT_TRUE(server->Subscribe(BurstSub(id)).ok());
  }
  EXPECT_EQ(server->monitor_info().active_subscriptions, 3u);
  for (size_t s = 0; s < server->sharded().num_shards(); ++s) {
    EXPECT_EQ(server->sharded().shard(s).monitor_registry().size(), 1u)
        << "shard " << s;
  }

  // Alerts report the global id regardless of which shard evaluated.
  for (int i = 0; i < 4; ++i) {
    ASSERT_TRUE(server->AppendPoint(2, 5000.0).ok());
  }
  const std::vector<monitor::Alert> alerts = server->PollAlerts(100);
  ASSERT_FALSE(alerts.empty());
  EXPECT_EQ(alerts.front().series, 2u);

  ASSERT_TRUE(server->Unsubscribe(2).ok());
  EXPECT_EQ(server->monitor_info().active_subscriptions, 2u);
  ASSERT_TRUE(server->sharded().ValidateInvariants().ok());
}

TEST(MonitorServerTest, MonitorWalPersistsSubscriptionsAndAcksAcrossRestart) {
  io::MemEnv wal_env;
  S2Server::Options options;
  options.wal_path = "server.wal";
  options.wal_env = &wal_env;

  uint64_t acked_upto = 0;
  {
    std::unique_ptr<S2Server> server = MakeServer(options);
    EXPECT_TRUE(server->monitor_info().wal_enabled);
    ASSERT_TRUE(server->Subscribe(BurstSub(0)).ok());
    for (int i = 0; i < 4; ++i) {
      ASSERT_TRUE(server->AppendPoint(0, 5000.0).ok());
    }
    const std::vector<monitor::Alert> alerts = server->PollAlerts(100);
    ASSERT_FALSE(alerts.empty());
    acked_upto = alerts.back().seq;
    ASSERT_TRUE(server->AckAlerts(acked_upto).ok());
  }

  std::unique_ptr<S2Server> revived = MakeServer(options);
  const auto info = revived->monitor_info();
  EXPECT_TRUE(info.wal_enabled);
  EXPECT_EQ(info.replayed_ops, 2u);  // The subscribe and the ack.
  EXPECT_EQ(info.active_subscriptions, 1u);
  // Replay re-fired the same alerts, and the replayed ack retired exactly
  // the acknowledged range again.
  EXPECT_TRUE(info.any_acked);
  EXPECT_EQ(info.acked_upto, acked_upto);
  EXPECT_EQ(info.queue_depth, 0u);
}

TEST(MonitorServerTest, ConcurrentAppendsPollsAndAcksAreRaceFree) {
  // The TSan target: the append path (writer lock, queue pushes) races
  // consumers (lock-free polls, acking, info snapshots) and a subscriber.
  S2Server::Options options;
  options.shards = 2;
  std::unique_ptr<S2Server> server = MakeServer(options);
  for (ts::SeriesId id = 0; id < 4; ++id) {
    ASSERT_TRUE(server->Subscribe(BurstSub(id)).ok());
  }

  std::atomic<bool> done{false};
  std::thread appender([&] {
    for (int i = 0; i < 300; ++i) {
      const auto id = static_cast<ts::SeriesId>(i % 4);
      const double value = (i / 8) % 2 == 0 ? 5000.0 : 1.0;
      ASSERT_TRUE(server->AppendPoint(id, value).ok());
    }
    done.store(true, std::memory_order_release);
  });
  std::thread consumer([&] {
    uint64_t last_acked = 0;
    while (!done.load(std::memory_order_acquire)) {
      const std::vector<monitor::Alert> alerts = server->PollAlerts(8);
      if (!alerts.empty() && alerts.back().seq > last_acked) {
        last_acked = alerts.back().seq;
        ASSERT_TRUE(server->AckAlerts(last_acked).ok());
      }
      (void)server->monitor_info();
      std::this_thread::yield();
    }
  });
  appender.join();
  consumer.join();

  const auto info = server->monitor_info();
  EXPECT_GT(info.alerts_fired, 0u);
  EXPECT_EQ(info.active_subscriptions, 4u);
  ASSERT_TRUE(server->sharded().ValidateInvariants().ok());
}

}  // namespace
}  // namespace s2::service
