// The acceptance bar for s2::monitor (ISSUE 6): the fired alert stream —
// ids, kinds, sequence numbers, trigger values — must be bit-identical
// across shard counts {1,2,3,8} and survive a crash-point sweep:
// subscriptions registered before the crash re-arm with their exact
// hysteresis state after WAL replay, and exactly the acknowledged alerts'
// sequence range stays retired.

#include <functional>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.h"
#include "core/s2_engine.h"
#include "io/fault_env.h"
#include "io/mem_env.h"
#include "monitor/subscription.h"
#include "querylog/corpus_generator.h"
#include "service/s2_server.h"

namespace s2::monitor {
namespace {

constexpr size_t kNumSeries = 24;
constexpr size_t kDays = 64;
constexpr uint64_t kSeed = 515;

ts::Corpus MakeCorpus() {
  qlog::CorpusSpec spec;
  spec.num_series = kNumSeries;
  spec.n_days = kDays;
  spec.seed = kSeed;
  auto corpus = qlog::GenerateCorpus(spec);
  EXPECT_TRUE(corpus.ok()) << corpus.status().ToString();
  return std::move(corpus).ValueOrDie();
}

core::S2Engine::Options EngineOptions() {
  core::S2Engine::Options options;
  return options;
}

service::S2Server::Options ServerOptions(size_t shards) {
  service::S2Server::Options options;
  options.scheduler.threads = 1;
  options.cache_capacity = 0;
  options.shards = shards;
  return options;
}

/// Registers the standing mix every equivalence run watches: two burst
/// subscriptions, one periodicity tracker and one similarity watch whose
/// query is another series' raw row. Returns the assigned ids (0..3).
void SetupSubscriptions(service::S2Server* server, const ts::Corpus& corpus) {
  Subscription burst0;
  burst0.kind = SubscriptionKind::kBurstThreshold;
  burst0.series = 0;
  burst0.burst.window = 4;
  burst0.burst.enter_ratio = 1.3;
  burst0.burst.exit_ratio = 1.1;
  auto id = server->Subscribe(burst0);
  ASSERT_TRUE(id.ok()) << id.status().ToString();
  EXPECT_EQ(*id, 0u);

  Subscription burst5;
  burst5.kind = SubscriptionKind::kBurstThreshold;
  burst5.series = 5;
  burst5.burst.window = 6;
  burst5.burst.enter_ratio = 1.5;
  burst5.burst.exit_ratio = 1.2;
  id = server->Subscribe(burst5);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*id, 1u);

  Subscription periodic;
  periodic.kind = SubscriptionKind::kPeriodicityChange;
  periodic.series = 3;
  id = server->Subscribe(periodic);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*id, 2u);

  // The query is the watched series' own current row: distance 0 arms the
  // watch silently inside the ball, and the first appends that reshape the
  // window push it out — a guaranteed kSimilarityLeave.
  Subscription similar;
  similar.kind = SubscriptionKind::kSimilarityWatch;
  similar.series = 7;
  similar.similarity.query = corpus.at(7).values;
  similar.similarity.radius = 2.0;
  id = server->Subscribe(similar);
  ASSERT_TRUE(id.ok());
  EXPECT_EQ(*id, 3u);
}

/// The deterministic append schedule: the four watched series take turns,
/// with the amplitude regime flipping every 16 steps so moving averages
/// (and standardized rows) swing across every subscription's thresholds.
void DriveAppends(service::S2Server* server) {
  Rng rng(kSeed + 1);
  const ts::SeriesId targets[] = {0, 5, 3, 7};
  for (size_t step = 0; step < 96; ++step) {
    const ts::SeriesId id = targets[step % 4];
    const bool hot = (step / 16) % 2 == 1;
    // The generated corpus' daily counts sit in the low hundreds; the hot
    // regime has to clear them by an order of magnitude to move 4-to-6-day
    // moving averages across the enter ratios.
    const double value =
        hot ? rng.Uniform(3000.0, 5000.0) : rng.Uniform(0.0, 10.0);
    ASSERT_TRUE(server->AppendPoint(id, value).ok()) << "step " << step;
  }
}

void ExpectSameAlerts(const std::vector<Alert>& want,
                      const std::vector<Alert>& got, const std::string& what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  for (size_t i = 0; i < want.size(); ++i) {
    const std::string where = what + " alert " + std::to_string(i);
    EXPECT_EQ(want[i].seq, got[i].seq) << where;
    EXPECT_EQ(want[i].subscription, got[i].subscription) << where;
    EXPECT_EQ(want[i].kind, got[i].kind) << where;
    EXPECT_EQ(want[i].series, got[i].series) << where;
    EXPECT_EQ(want[i].day, got[i].day) << where;
    EXPECT_EQ(want[i].bin, got[i].bin) << where;
    EXPECT_EQ(want[i].value, got[i].value) << where;
    EXPECT_EQ(want[i].threshold, got[i].threshold) << where;
  }
}

TEST(MonitorEquivalenceTest, AlertStreamIsBitIdenticalAcrossShardCounts) {
  std::vector<Alert> reference;
  for (const size_t shards : {1u, 2u, 3u, 8u}) {
    const ts::Corpus corpus = MakeCorpus();
    auto server = service::S2Server::Build(MakeCorpus(), EngineOptions(),
                                           ServerOptions(shards));
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    SetupSubscriptions(server->get(), corpus);
    DriveAppends(server->get());

    const std::vector<Alert> alerts = (*server)->PollAlerts(10000);
    ASSERT_FALSE(alerts.empty()) << "schedule fired nothing at " << shards;
    const auto info = (*server)->monitor_info();
    EXPECT_EQ(info.active_subscriptions, 4u);
    EXPECT_EQ(info.next_seq, alerts.back().seq + 1);
    EXPECT_EQ(info.alerts_dropped, 0u);

    if (shards == 1) {
      reference = alerts;
      // The mix must actually exercise more than one subscription kind.
      bool burst = false, similarity = false;
      for (const Alert& alert : alerts) {
        burst |= alert.kind == AlertKind::kBurstBegin ||
                 alert.kind == AlertKind::kBurstEnd;
        similarity |= alert.kind == AlertKind::kSimilarityEnter ||
                      alert.kind == AlertKind::kSimilarityLeave;
      }
      EXPECT_TRUE(burst) << "no burst transitions fired";
      EXPECT_TRUE(similarity) << "no similarity transitions fired";
    } else {
      ExpectSameAlerts(reference, alerts,
                       "shards " + std::to_string(shards));
    }
  }
}

// --- Crash-point sweep -----------------------------------------------------

/// The fixed verb schedule of the crash sweep. Executes verbs in order,
/// stopping at the first failure (the crash), and returns how many were
/// acknowledged — a shadow run replays exactly that prefix. Appends drive
/// series 0 across its burst thresholds twice, with the acknowledgement
/// landing between the two transition pairs so replay must re-fire the
/// unacked suffix and keep the acked range retired. ("Transition pairs":
/// each hot/cold swing fires a begin and an end.)
size_t DriveCrashSchedule(service::S2Server* server, const ts::Corpus& corpus,
                          size_t max_verbs) {
  size_t done = 0;
  // The prefix gate comes BEFORE the verb runs: a shadow replaying N verbs
  // must not execute (and silently discard) verb N+1.
  const auto verb = [&](const std::function<Status()>& fn) {
    if (done >= max_verbs || !fn().ok()) return false;
    ++done;
    return true;
  };

  Subscription burst;
  burst.kind = SubscriptionKind::kBurstThreshold;
  burst.series = 0;
  burst.burst.window = 4;
  burst.burst.enter_ratio = 1.25;
  burst.burst.exit_ratio = 1.1;
  if (!verb([&] { return server->Subscribe(burst).status(); })) return done;

  for (const double value : {2000.0, 2500.0, 2200.0}) {
    if (!verb([&] { return server->AppendPoint(0, value); })) return done;
  }

  Subscription similar;
  similar.kind = SubscriptionKind::kSimilarityWatch;
  similar.series = 7;
  similar.similarity.query = corpus.at(11).values;
  similar.similarity.radius = 9.0;
  if (!verb([&] { return server->Subscribe(similar).status(); })) return done;

  for (const double value : {1.0, 2.0, 1.0, 3.0}) {
    if (!verb([&] { return server->AppendPoint(0, value); })) return done;
  }

  if (!verb([&] {
        const std::vector<Alert> polled = server->PollAlerts(1000);
        return server->AckAlerts(polled.empty() ? 0 : polled.back().seq);
      })) {
    return done;
  }

  for (const double value : {1800.0, 2600.0}) {
    if (!verb([&] { return server->AppendPoint(0, value); })) return done;
  }
  return done;
}
constexpr size_t kCrashScheduleVerbs = 12;

std::vector<SubscriptionRegistry::Entry> Registrations(
    const service::S2Server& server) {
  return server.engine().monitor_registry().List();
}

TEST(MonitorEquivalenceTest, CrashSweepRearmsSubscriptionsAndKeepsAckedRange) {
  // Ops 1-2 are the monitor WAL's header write+sync, 3-4 the stream WAL's;
  // every verb below (subscribe, append, ack) is one logged record = one
  // write + one sync, so ops 5..28 sweep a crash into every verb.
  const ts::Corpus corpus = MakeCorpus();
  for (uint64_t crash_at = 5; crash_at <= 28; ++crash_at) {
    io::MemEnv base;
    io::FaultPlan plan;
    plan.crash_at_op = crash_at;
    io::FaultInjectingEnv wal_env(&base, plan);

    service::S2Server::Options wal_options = ServerOptions(1);
    wal_options.wal_path = "monitor_sweep.wal";
    wal_options.wal_env = &wal_env;

    size_t acknowledged = 0;
    {
      auto server = service::S2Server::Build(MakeCorpus(), EngineOptions(),
                                             wal_options);
      ASSERT_TRUE(server.ok()) << server.status().ToString();
      acknowledged =
          DriveCrashSchedule(server->get(), corpus, kCrashScheduleVerbs);
    }
    ASSERT_TRUE(wal_env.crashed()) << "crash_at " << crash_at;
    ASSERT_LT(acknowledged, kCrashScheduleVerbs) << "crash_at " << crash_at;
    wal_env.ClearCrash();

    auto revived = service::S2Server::Build(MakeCorpus(), EngineOptions(),
                                            wal_options);
    ASSERT_TRUE(revived.ok())
        << "crash_at " << crash_at << ": " << revived.status().ToString();

    // The shadow: a WAL-less server fed exactly the acknowledged prefix.
    auto shadow = service::S2Server::Build(MakeCorpus(), EngineOptions(),
                                           ServerOptions(1));
    ASSERT_TRUE(shadow.ok());
    ASSERT_EQ(DriveCrashSchedule(shadow->get(), corpus, acknowledged),
              acknowledged);

    const std::string what = "crash_at " + std::to_string(crash_at);
    const auto want = (*shadow)->monitor_info();
    const auto got = (*revived)->monitor_info();
    EXPECT_EQ(want.active_subscriptions, got.active_subscriptions) << what;
    EXPECT_EQ(want.next_seq, got.next_seq) << what;
    EXPECT_EQ(want.queue_depth, got.queue_depth) << what;
    EXPECT_EQ(want.any_acked, got.any_acked) << what;
    EXPECT_EQ(want.acked_upto, got.acked_upto) << what;
    EXPECT_EQ(want.alerts_fired, got.alerts_fired) << what;

    // Re-armed means *identical hysteresis state*, not just the same count:
    // every surviving subscription carries the engaged flag and tracked bin
    // it had at the crash.
    const auto want_subs = Registrations(**shadow);
    const auto got_subs = Registrations(**revived);
    ASSERT_EQ(want_subs.size(), got_subs.size()) << what;
    for (size_t i = 0; i < want_subs.size(); ++i) {
      EXPECT_EQ(want_subs[i].sub.id, got_subs[i].sub.id) << what;
      EXPECT_EQ(want_subs[i].sub.kind, got_subs[i].sub.kind) << what;
      EXPECT_EQ(want_subs[i].sub.series, got_subs[i].sub.series) << what;
      EXPECT_EQ(want_subs[i].engaged, got_subs[i].engaged) << what;
      EXPECT_EQ(want_subs[i].bin, got_subs[i].bin) << what;
    }

    // The unacknowledged suffix of the alert stream re-fires with the same
    // sequence numbers; the acknowledged range stays retired.
    ExpectSameAlerts((*shadow)->PollAlerts(1000), (*revived)->PollAlerts(1000),
                     what);
  }

  // Sanity: the full schedule (no crash) fires on both sides of the ack, so
  // the sweep genuinely covers "acked range retired, suffix re-fired".
  auto full = service::S2Server::Build(MakeCorpus(), EngineOptions(),
                                       ServerOptions(1));
  ASSERT_TRUE(full.ok());
  ASSERT_EQ(DriveCrashSchedule(full->get(), corpus, kCrashScheduleVerbs),
            kCrashScheduleVerbs);
  const auto info = (*full)->monitor_info();
  EXPECT_TRUE(info.any_acked);
  EXPECT_GT(info.alerts_fired, info.alerts_acked);
  EXPECT_GT(info.queue_depth, 0u);
}

}  // namespace
}  // namespace s2::monitor
