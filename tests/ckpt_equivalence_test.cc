// The acceptance bar for s2::ckpt at the serving layer: recovery from
// snapshot + WAL tail must equal a full-WAL replay of the same history —
// same corpus bytes, same standing-query hysteresis state, same alert
// queue, same subscription-id counter — at shard counts {1,2,3}, RAM- and
// disk-resident, and even when the checkpoint was written under a
// different shard count than the recovery. A MemEnv crash sweep over the checkpoint commit path proves
// every write/sync/rename boundary leaves a recoverable family.

#include <cstdio>
#include <filesystem>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "ckpt/checkpoint_store.h"
#include "io/fault_env.h"
#include "io/mem_env.h"
#include "monitor/subscription.h"
#include "querylog/corpus_generator.h"
#include "service/s2_server.h"
#include "shard/sharded_engine.h"
#include "fuzz_util.h"

namespace s2::service {
namespace {

constexpr size_t kNumSeries = 18;
constexpr size_t kDays = 64;

ts::Corpus MakeCorpus() {
  qlog::CorpusSpec spec;
  spec.num_series = kNumSeries;
  spec.n_days = kDays;
  spec.seed = 811;
  auto corpus = qlog::GenerateCorpus(spec);
  EXPECT_TRUE(corpus.ok()) << corpus.status().ToString();
  return std::move(corpus).ValueOrDie();
}

core::S2Engine::Options EngineOptions() {
  core::S2Engine::Options options;
  options.index.budget_c = 8;
  options.index.leaf_size = 4;
  return options;
}

S2Server::Options ServerOptions(io::Env* env, const std::string& wal,
                                size_t shards) {
  S2Server::Options options;
  options.scheduler.threads = 1;
  options.compaction_threshold = 0;
  options.shards = shards;
  options.wal_path = wal;
  options.wal_env = env;
  options.checkpoint_enabled = true;
  // Keep the full history on disk so a full-replay reference can still be
  // built after the checkpoint; GC behavior has its own tests.
  options.checkpoint_gc = false;
  options.wal_rotate_bytes = 256;
  return options;
}

std::unique_ptr<S2Server> MustBuild(const S2Server::Options& options) {
  auto server = S2Server::Build(MakeCorpus(), EngineOptions(), options);
  EXPECT_TRUE(server.ok()) << server.status().ToString();
  return std::move(server).ValueOrDie();
}

std::unique_ptr<S2Server> MustRecover(const S2Server::Options& options) {
  auto server = S2Server::Recover(MakeCorpus(), EngineOptions(), options);
  EXPECT_TRUE(server.ok()) << server.status().ToString();
  return std::move(server).ValueOrDie();
}

const ts::TimeSeries& SeriesOf(S2Server* server, ts::SeriesId id) {
  return *server->sharded().Series(id).value();
}

std::vector<monitor::SubscriptionRegistry::Entry> EntriesOf(S2Server* server) {
  return server->sharded().ListSubscriptions();
}

/// The interleaved workload: subscriptions of all three kinds, appends
/// that cross burst thresholds, a durable ack, a compaction, and (when
/// `checkpoint_midway`) a coordinated checkpoint in the middle — so the
/// recovered state mixes snapshot-carried and tail-replayed verbs.
void DriveWorkload(S2Server* server, bool checkpoint_midway) {
  monitor::Subscription burst;
  burst.kind = monitor::SubscriptionKind::kBurstThreshold;
  burst.series = 0;
  burst.burst.window = 7;
  burst.burst.enter_ratio = 1.3;
  burst.burst.exit_ratio = 1.1;
  ASSERT_TRUE(server->Subscribe(burst).ok());
  monitor::Subscription period;
  period.kind = monitor::SubscriptionKind::kPeriodicityChange;
  period.series = 1;
  ASSERT_TRUE(server->Subscribe(period).ok());
  monitor::Subscription watch;
  watch.kind = monitor::SubscriptionKind::kSimilarityWatch;
  watch.series = 2;
  watch.similarity.radius = 1.0;
  watch.similarity.query = SeriesOf(server, 2).values;
  ASSERT_TRUE(server->Subscribe(watch).ok());

  // Hot streak on the burst-watched series: fires kBurstBegin, later ends.
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(server->AppendPoint(0, 5000.0 + 10 * i).ok());
    ASSERT_TRUE(server->AppendPoint(1, 3.0 * ((i % 7) == 0)).ok());
    ASSERT_TRUE(server->AppendPoint(2, 40.0 + i).ok());
    ASSERT_TRUE(server->AppendPoint(static_cast<ts::SeriesId>(3 + i % 5),
                                    7.0 + 0.25 * i)
                    .ok());
  }
  // Ack the fired prefix durably (acks are monitor-WAL verbs; delivery
  // itself is not, so the workload never Polls — both replays must agree
  // on every queue counter).
  const uint64_t fired = server->monitor_info().next_seq;
  if (fired > 2) ASSERT_TRUE(server->AckAlerts(fired - 2).ok());
  ASSERT_TRUE(server->Compact().ok());

  if (checkpoint_midway) {
    const Status checkpointed = server->Checkpoint();
    ASSERT_TRUE(checkpointed.ok()) << checkpointed.ToString();
  }

  // Tail verbs past the anchor: a fourth subscription, the streak's end,
  // and a retirement.
  monitor::Subscription late;
  late.kind = monitor::SubscriptionKind::kBurstThreshold;
  late.series = 3;
  late.burst.window = 5;
  late.burst.enter_ratio = 1.2;
  late.burst.exit_ratio = 1.05;
  auto late_id = server->Subscribe(late);
  ASSERT_TRUE(late_id.ok());
  for (int i = 0; i < 10; ++i) {
    ASSERT_TRUE(server->AppendPoint(0, 1.0).ok());
    ASSERT_TRUE(server->AppendPoint(3, i < 5 ? 900.0 : 1.0).ok());
    ASSERT_TRUE(server->AppendPoint(2, 40.0 - i).ok());
  }
  ASSERT_TRUE(server->Unsubscribe(2).ok());  // The similarity watch.
}

/// Recovered-vs-reference equality. Corpus, registry, queue and counter
/// state are bitwise; derived features are additionally compared through
/// Euclidean k-NN.
void ExpectSameState(S2Server* want, S2Server* got) {
  for (ts::SeriesId id = 0; id < kNumSeries; ++id) {
    const ts::TimeSeries& a = SeriesOf(want, id);
    const ts::TimeSeries& b = SeriesOf(got, id);
    EXPECT_EQ(a.name, b.name) << "id " << id;
    EXPECT_EQ(a.start_day, b.start_day) << "id " << id;
    EXPECT_EQ(a.values, b.values) << "id " << id;
  }
  const auto want_entries = EntriesOf(want);
  const auto got_entries = EntriesOf(got);
  ASSERT_EQ(want_entries.size(), got_entries.size());
  for (size_t i = 0; i < want_entries.size(); ++i) {
    const auto& a = want_entries[i];
    const auto& b = got_entries[i];
    EXPECT_EQ(a.sub.id, b.sub.id);
    EXPECT_EQ(a.sub.kind, b.sub.kind);
    EXPECT_EQ(a.sub.series, b.sub.series);
    EXPECT_EQ(a.sub.burst.window, b.sub.burst.window);
    EXPECT_EQ(a.sub.similarity.query, b.sub.similarity.query);
    EXPECT_EQ(a.engaged, b.engaged) << "sub " << a.sub.id;
    EXPECT_EQ(a.bin, b.bin) << "sub " << a.sub.id;
  }
  const auto want_info = want->monitor_info();
  const auto got_info = got->monitor_info();
  EXPECT_EQ(want_info.active_subscriptions, got_info.active_subscriptions);
  EXPECT_EQ(want_info.queue_depth, got_info.queue_depth);
  EXPECT_EQ(want_info.next_seq, got_info.next_seq);
  EXPECT_EQ(want_info.acked_upto, got_info.acked_upto);
  EXPECT_EQ(want_info.any_acked, got_info.any_acked);
  EXPECT_EQ(want_info.alerts_fired, got_info.alerts_fired);
  EXPECT_EQ(want_info.alerts_dropped, got_info.alerts_dropped);
  EXPECT_EQ(want_info.alerts_acked, got_info.alerts_acked);

  // The un-acked queue drains identically.
  const auto want_alerts = want->PollAlerts(1000);
  const auto got_alerts = got->PollAlerts(1000);
  ASSERT_EQ(want_alerts.size(), got_alerts.size());
  for (size_t i = 0; i < want_alerts.size(); ++i) {
    EXPECT_EQ(want_alerts[i].seq, got_alerts[i].seq);
    EXPECT_EQ(want_alerts[i].subscription, got_alerts[i].subscription);
    EXPECT_EQ(want_alerts[i].kind, got_alerts[i].kind);
    EXPECT_EQ(want_alerts[i].series, got_alerts[i].series);
    EXPECT_EQ(want_alerts[i].day, got_alerts[i].day);
    EXPECT_EQ(want_alerts[i].value, got_alerts[i].value);
    EXPECT_EQ(want_alerts[i].threshold, got_alerts[i].threshold);
  }

  // The id counter recovered too: the next subscription gets the same id.
  monitor::Subscription probe;
  probe.kind = monitor::SubscriptionKind::kPeriodicityChange;
  probe.series = 5;
  auto want_id = want->Subscribe(probe);
  auto got_id = got->Subscribe(probe);
  ASSERT_TRUE(want_id.ok() && got_id.ok());
  EXPECT_EQ(*want_id, *got_id);

  // Euclidean k-NN over the recovered features.
  for (ts::SeriesId id = 0; id < kNumSeries; id += 5) {
    QueryRequest request;
    request.kind = RequestKind::kSimilarTo;
    request.id = id;
    request.k = 5;
    const auto want_response = want->Execute(request);
    const auto got_response = got->Execute(request);
    ASSERT_TRUE(want_response.status.ok() && got_response.status.ok());
    ASSERT_EQ(want_response.neighbors.size(), got_response.neighbors.size());
    for (size_t i = 0; i < want_response.neighbors.size(); ++i) {
      EXPECT_EQ(want_response.neighbors[i].id, got_response.neighbors[i].id);
      EXPECT_EQ(want_response.neighbors[i].distance,
                got_response.neighbors[i].distance)
          << "id " << id << " rank " << i;
    }
  }
}

struct Topology {
  size_t shards;
  bool on_disk;
};

class CkptEquivalenceTest : public ::testing::TestWithParam<Topology> {};

TEST_P(CkptEquivalenceTest, SnapshotPlusTailEqualsFullReplay) {
  const Topology topo = GetParam();
  io::MemEnv mem;
  std::string wal = "ckpt_eq/wal";
  io::Env* env = &mem;
  std::filesystem::path dir;
  if (topo.on_disk) {
    dir = std::filesystem::temp_directory_path() /
          ("s2_ckpt_eq_" + std::to_string(topo.shards));
    std::filesystem::remove_all(dir);
    std::filesystem::create_directories(dir);
    wal = (dir / "wal").string();
    env = nullptr;  // io::Env::Default()
  }
  const S2Server::Options options = ServerOptions(env, wal, topo.shards);

  uint64_t total_appends = 0;
  uint64_t anchor = 0;
  {
    std::unique_ptr<S2Server> live = MustBuild(options);
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
    DriveWorkload(live.get(), /*checkpoint_midway=*/true);
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
    total_appends = live->stream_info().append_count;
    anchor = live->checkpoint_info().anchor_appends;
    EXPECT_GT(anchor, 0u);
    EXPECT_LT(anchor, total_appends);
    live->Shutdown();
  }

  // Recovery loads the snapshot and replays only the tail...
  std::unique_ptr<S2Server> recovered = MustRecover(options);
  EXPECT_TRUE(recovered->checkpoint_info().recovered_from_checkpoint);
  EXPECT_FALSE(recovered->checkpoint_info().recovered_from_fallback);
  EXPECT_EQ(recovered->checkpoint_info().recovery_anchor_appends, anchor);
  EXPECT_EQ(recovered->stream_info().replayed_records, total_appends - anchor);

  // ...while the reference replays the whole log from scratch.
  S2Server::Options full = options;
  full.checkpoint_enabled = false;
  std::unique_ptr<S2Server> replayed = MustBuild(full);
  EXPECT_EQ(replayed->stream_info().replayed_records, total_appends);

  ExpectSameState(replayed.get(), recovered.get());
  if (topo.on_disk) std::filesystem::remove_all(dir);
}

INSTANTIATE_TEST_SUITE_P(
    Topologies, CkptEquivalenceTest,
    ::testing::Values(Topology{1, false}, Topology{2, false},
                      Topology{3, false}, Topology{1, true}, Topology{2, true},
                      Topology{3, true}),
    [](const ::testing::TestParamInfo<Topology>& info) {
      return "shards" + std::to_string(info.param.shards) +
             (info.param.on_disk ? "_disk" : "_ram");
    });

TEST(CkptRecoveryTest, CheckpointWrittenAtOneShardCountRecoversAtAnother) {
  // The snapshot stores the corpus in global id order, so the same
  // checkpoint family must recover bit-identically under any topology —
  // the per-shard checksum cross-check simply doesn't apply.
  io::MemEnv env;
  S2Server::Options at2 = ServerOptions(&env, "xtopo/wal", 2);
  {
    std::unique_ptr<S2Server> live = MustBuild(at2);
    DriveWorkload(live.get(), /*checkpoint_midway=*/true);
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
    live->Shutdown();
  }
  S2Server::Options full = at2;
  full.checkpoint_enabled = false;
  std::unique_ptr<S2Server> reference = MustBuild(full);
  for (size_t shards : {1u, 3u}) {
    SCOPED_TRACE("recover at " + std::to_string(shards) + " shards");
    S2Server::Options other = at2;
    other.shards = shards;
    std::unique_ptr<S2Server> recovered = MustRecover(other);
    EXPECT_TRUE(recovered->checkpoint_info().recovered_from_checkpoint);
    // PollAlerts/Subscribe probes in ExpectSameState mutate the reference,
    // so rebuild it per topology.
    std::unique_ptr<S2Server> fresh = MustBuild(full);
    ExpectSameState(fresh.get(), recovered.get());
  }
  (void)reference;
}

TEST(CkptRecoveryTest, CorruptNewestSnapshotFallsBackOneGeneration) {
  io::MemEnv env;
  const S2Server::Options options = ServerOptions(&env, "fb/wal", 1);
  {
    std::unique_ptr<S2Server> live = MustBuild(options);
    DriveWorkload(live.get(), /*checkpoint_midway=*/true);
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
    // A second checkpoint: generation 2 current, generation 1 fallback.
    ASSERT_TRUE(live->Checkpoint().ok());
    for (int i = 0; i < 4; ++i) ASSERT_TRUE(live->AppendPoint(1, 2.0).ok());
    live->Shutdown();
  }
  // Damage generation 2's snapshot payload.
  {
    auto file = env.Open("fb/wal.ckpt.2", io::OpenMode::kReadWrite);
    ASSERT_TRUE(file.ok()) << file.status().ToString();
    char byte = 0;
    ASSERT_TRUE((*file)->ReadAt(&byte, 1, 80).ok());
    byte ^= 0x5a;
    ASSERT_TRUE((*file)->WriteAt(&byte, 1, 80).ok());
  }
  std::unique_ptr<S2Server> recovered = MustRecover(options);
  EXPECT_TRUE(recovered->checkpoint_info().recovered_from_checkpoint);
  EXPECT_TRUE(recovered->checkpoint_info().recovered_from_fallback);

  S2Server::Options full = options;
  full.checkpoint_enabled = false;
  std::unique_ptr<S2Server> replayed = MustBuild(full);
  ExpectSameState(replayed.get(), recovered.get());
}

TEST(CkptRecoveryTest, CheckpointCommitSurvivesACrashAtEveryBoundary) {
  // Store-level crash sweep: generation A committed cleanly, generation B
  // attempted under a crash plan. After "reboot" the family must load as
  // exactly A or B — never torn, never unloadable.
  const auto make_snapshot = [](uint32_t tag) {
    ckpt::EngineSnapshot snapshot;
    snapshot.anchor_appends = 10 * tag;
    snapshot.next_subscription_id = tag;
    ts::TimeSeries series;
    series.name = "s";
    series.start_day = static_cast<int32_t>(tag);
    series.values = {1.0 * tag, 2.0 * tag};
    snapshot.corpus.push_back(std::move(series));
    return snapshot;
  };
  fuzz::CrashSweep(
      [&](io::Env* env) {
        ckpt::CheckpointStore store(env, "sweep/base");
        ASSERT_TRUE(store.Commit(make_snapshot(1), 1, {}, {{0, 0}}, {{0, 0}},
                                 nullptr)
                        .ok());
      },
      [&](io::Env* env) {
        ckpt::CheckpointStore store(env, "sweep/base");
        return store.Commit(make_snapshot(2), 1, {}, {{0, 0}}, {{0, 0}},
                            nullptr);
      },
      [&](io::Env* env, bool definitely_b) {
        ckpt::CheckpointStore store(env, "sweep/base");
        auto loaded = store.Load();
        ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
        const uint64_t anchor = loaded->snapshot.anchor_appends;
        if (definitely_b) {
          EXPECT_EQ(anchor, 20u);
        } else {
          EXPECT_TRUE(anchor == 10 || anchor == 20) << anchor;
        }
        // GC after the crash must leave the loadable generation intact.
        ASSERT_TRUE(store.GarbageCollectSnapshots(loaded->manifest).ok());
        auto again = store.Load();
        ASSERT_TRUE(again.ok()) << again.status().ToString();
        EXPECT_EQ(again->snapshot.anchor_appends, anchor);
      });
}

}  // namespace
}  // namespace s2::service
