// The acceptance bar for s2::stream: after ANY interleaving of appends and
// queries, every query verb must answer exactly as a
// batch-rebuilt engine over the same final data — at shard counts
// {1,2,3,8}, RAM- and disk-resident — and replaying the WAL after a
// simulated crash
// must lose no acknowledged append.
//
// Appends are window slides (drop the oldest day, append the new one), so
// the corpus stays rectangular and "the same final data" is well-defined at
// every step: a shadow copy of the series, slid in lockstep, is rebuilt
// into a fresh batch engine at each checkpoint. Equality is bitwise
// (EXPECT_EQ on doubles) on purpose: a streamed engine answers through the
// same distance code over the same rows, so exact agreement is the bar —
// same ids, same distances, same periods, same burst intervals and scores.

#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "burst/burst_detector.h"
#include "burst/burst_table.h"
#include "common/rng.h"
#include "core/s2_engine.h"
#include "io/fault_env.h"
#include "io/mem_env.h"
#include "querylog/corpus_generator.h"
#include "service/s2_server.h"
#include "shard/sharded_engine.h"

namespace s2::stream {
namespace {

constexpr size_t kNumSeries = 48;
constexpr size_t kDays = 128;
constexpr size_t kK = 7;
constexpr uint64_t kSeed = 614;

ts::Corpus MakeCorpus(uint64_t seed = kSeed) {
  qlog::CorpusSpec spec;
  spec.num_series = kNumSeries;
  spec.n_days = kDays;
  spec.seed = seed;
  auto corpus = qlog::GenerateCorpus(spec);
  EXPECT_TRUE(corpus.ok()) << corpus.status().ToString();
  return std::move(corpus).ValueOrDie();
}

core::S2Engine::Options EngineOptions() {
  core::S2Engine::Options options;
  return options;
}

/// The corpus as plain series, for shadowing the stream's slides.
std::vector<ts::TimeSeries> Snapshot(const ts::Corpus& corpus) {
  std::vector<ts::TimeSeries> series;
  series.reserve(corpus.size());
  for (ts::SeriesId id = 0; id < corpus.size(); ++id) series.push_back(corpus.at(id));
  return series;
}

void SlideShadow(ts::TimeSeries* series, double value) {
  series->values.erase(series->values.begin());
  series->values.push_back(value);
  ++series->start_day;
}

core::S2Engine BatchRebuild(const std::vector<ts::TimeSeries>& shadow) {
  ts::Corpus corpus;
  for (const ts::TimeSeries& series : shadow) corpus.Add(series);
  auto engine = core::S2Engine::Build(std::move(corpus), EngineOptions());
  EXPECT_TRUE(engine.ok()) << engine.status().ToString();
  return std::move(engine).ValueOrDie();
}

void ExpectSameNeighbors(const std::vector<index::Neighbor>& want,
                         const std::vector<index::Neighbor>& got,
                         const std::string& what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].id, got[i].id) << what << " rank " << i;
    EXPECT_EQ(want[i].distance, got[i].distance) << what << " rank " << i;
  }
}

/// Compares every query verb of `streamed` (any engine-shaped callable set)
/// against the batch engine. `Streamed` is either core::S2Engine or
/// shard::ShardedEngine — both expose the same verb signatures.
template <typename Streamed>
void ExpectAllVerbsEqual(const core::S2Engine& batch, const Streamed& streamed,
                         const std::string& what) {
  for (ts::SeriesId id = 0; id < kNumSeries; id += 7) {
    const std::string where = what + " id " + std::to_string(id);

    auto want_knn = batch.SimilarTo(id, kK);
    auto got_knn = streamed.SimilarTo(id, kK);
    ASSERT_TRUE(want_knn.ok()) << where;
    ASSERT_TRUE(got_knn.ok()) << where << ": " << got_knn.status().ToString();
    ExpectSameNeighbors(*want_knn, *got_knn, where + " knn");

    auto want_dtw = batch.SimilarToDtw(id, kK);
    auto got_dtw = streamed.SimilarToDtw(id, kK);
    ASSERT_TRUE(want_dtw.ok()) << where;
    ASSERT_TRUE(got_dtw.ok()) << where << ": " << got_dtw.status().ToString();
    ExpectSameNeighbors(*want_dtw, *got_dtw, where + " dtw");

    auto want_periods = batch.FindPeriods(id);
    auto got_periods = streamed.FindPeriods(id);
    ASSERT_TRUE(want_periods.ok() && got_periods.ok()) << where;
    ASSERT_EQ(want_periods->size(), got_periods->size()) << where << " periods";
    for (size_t i = 0; i < want_periods->size(); ++i) {
      EXPECT_EQ((*want_periods)[i].period, (*got_periods)[i].period) << where;
      EXPECT_EQ((*want_periods)[i].power, (*got_periods)[i].power) << where;
    }

    for (const auto horizon :
         {core::BurstHorizon::kLongTerm, core::BurstHorizon::kShortTerm}) {
      auto want_bursts = batch.BurstsOf(id, horizon);
      auto got_bursts = streamed.BurstsOf(id, horizon);
      ASSERT_TRUE(want_bursts.ok() && got_bursts.ok()) << where;
      ASSERT_EQ(want_bursts->size(), got_bursts->size()) << where << " bursts";
      for (size_t i = 0; i < want_bursts->size(); ++i) {
        EXPECT_EQ((*want_bursts)[i].start, (*got_bursts)[i].start) << where;
        EXPECT_EQ((*want_bursts)[i].end, (*got_bursts)[i].end) << where;
        EXPECT_EQ((*want_bursts)[i].avg_value, (*got_bursts)[i].avg_value)
            << where;
      }
    }

    auto want_qbb = batch.QueryByBurst(id, kK, core::BurstHorizon::kLongTerm);
    auto got_qbb = streamed.QueryByBurst(id, kK, core::BurstHorizon::kLongTerm);
    ASSERT_TRUE(want_qbb.ok() && got_qbb.ok()) << where;
    ASSERT_EQ(want_qbb->size(), got_qbb->size()) << where << " qbb";
    for (size_t i = 0; i < want_qbb->size(); ++i) {
      EXPECT_EQ((*want_qbb)[i].series_id, (*got_qbb)[i].series_id) << where;
      EXPECT_EQ((*want_qbb)[i].bsim, (*got_qbb)[i].bsim) << where;
    }
  }
}

/// Drives a deterministic sequence of appends through `apply`, shadowing
/// every slide, and checks all verbs against a batch rebuild at periodic
/// checkpoints.
template <typename AppendFn, typename Streamed>
void RunInterleaving(std::vector<ts::TimeSeries> shadow, const AppendFn& apply,
                     const Streamed& streamed, const std::string& what) {
  Rng rng(kSeed + 99);
  for (size_t step = 0; step < 60; ++step) {
    const auto id = static_cast<ts::SeriesId>((step * 13) % kNumSeries);
    const double value = rng.Uniform(0.0, 40.0);
    ASSERT_TRUE(apply(id, value).ok()) << what << " step " << step;
    SlideShadow(&shadow[id], value);
    if (step % 20 == 19) {
      const core::S2Engine batch = BatchRebuild(shadow);
      ExpectAllVerbsEqual(batch, streamed,
                          what + " step " + std::to_string(step));
    }
  }
}

TEST(StreamEquivalenceTest, SingleEngineRamMatchesBatchRebuild) {
  auto engine = core::S2Engine::Build(MakeCorpus(), EngineOptions());
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  RunInterleaving(
      Snapshot(engine->corpus()),
      [&](ts::SeriesId id, double v) { return engine->AppendPoint(id, v); },
      *engine, "single-ram");
  ASSERT_TRUE(engine->ValidateInvariants().ok());
}

TEST(StreamEquivalenceTest, SingleEngineDiskMatchesBatchRebuild) {
  io::MemEnv env;
  core::S2Engine::Options options = EngineOptions();
  options.disk_store_path = "stream_store.bin";
  options.env = &env;
  auto engine = core::S2Engine::Build(MakeCorpus(), options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();
  RunInterleaving(
      Snapshot(engine->corpus()),
      [&](ts::SeriesId id, double v) { return engine->AppendPoint(id, v); },
      *engine, "single-disk");
  ASSERT_TRUE(engine->ValidateInvariants().ok());
}

TEST(StreamEquivalenceTest, ShardedRamMatchesBatchRebuild) {
  for (const size_t shards : {1u, 2u, 3u, 8u}) {
    shard::ShardedEngine::Options options;
    options.num_shards = shards;
    options.engine = EngineOptions();
    auto sharded = shard::ShardedEngine::Build(MakeCorpus(), options);
    ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
    auto engine = core::S2Engine::Build(MakeCorpus(), EngineOptions());
    ASSERT_TRUE(engine.ok());
    RunInterleaving(
        Snapshot(engine->corpus()),
        [&](ts::SeriesId id, double v) { return sharded->AppendPoint(id, v); },
        *sharded, "sharded-" + std::to_string(shards));
    ASSERT_TRUE(sharded->ValidateInvariants().ok());
    EXPECT_GT(sharded->TotalAppendCount(), 0u);
  }
}

TEST(StreamEquivalenceTest, ShardedDiskMatchesBatchRebuild) {
  for (const size_t shards : {2u, 3u}) {
    io::MemEnv env;
    shard::ShardedEngine::Options options;
    options.num_shards = shards;
    options.engine = EngineOptions();
    options.engine.disk_store_path = "stream_store.bin";
    options.engine.env = &env;
    auto sharded = shard::ShardedEngine::Build(MakeCorpus(), options);
    ASSERT_TRUE(sharded.ok()) << sharded.status().ToString();
    RunInterleaving(
        Snapshot(MakeCorpus()),
        [&](ts::SeriesId id, double v) { return sharded->AppendPoint(id, v); },
        *sharded, "sharded-disk-" + std::to_string(shards));
    ASSERT_TRUE(sharded->ValidateInvariants().ok());
  }
}

// --- Burst tables across long slide sequences --------------------------------

/// Every burst-table record of series `id`, in ascending start date.
std::vector<burst::BurstRegion> TableRegionsOf(const burst::BurstTable& table,
                                               ts::SeriesId id) {
  const burst::BurstRegion everything{std::numeric_limits<int32_t>::min(),
                                      std::numeric_limits<int32_t>::max(), 0.0};
  std::vector<burst::BurstRegion> regions;
  for (const burst::BurstRecord& record : table.FindOverlapping(everything)) {
    if (record.series_id == id) regions.push_back(record.region());
  }
  return regions;
}

void ExpectSameRegions(const std::vector<burst::BurstRegion>& want,
                       const std::vector<burst::BurstRegion>& got,
                       const std::string& what) {
  ASSERT_EQ(want.size(), got.size()) << what;
  for (size_t i = 0; i < want.size(); ++i) {
    EXPECT_EQ(want[i].start, got[i].start) << what << " region " << i;
    EXPECT_EQ(want[i].end, got[i].end) << what << " region " << i;
    EXPECT_EQ(want[i].avg_value, got[i].avg_value) << what << " region " << i;
  }
}

/// Slides series 0 of a six-series engine `slides` times (a seasonal signal
/// with a spike every 37 days) and checks, every 10 slides, that both
/// horizons' burst tables hold exactly what a batch detector finds on the
/// slid window, shifted to absolute days, while the records of the five
/// series that never slide stay as built.
void ExpectBurstTablesTrackTheBatchDetector(
    const burst::BurstDetector::Options& long_burst,
    const burst::BurstDetector::Options& short_burst, size_t slides) {
  qlog::CorpusSpec spec;
  spec.num_series = 6;
  spec.n_days = 256;
  spec.seed = kSeed + 5;
  auto corpus = qlog::GenerateCorpus(spec);
  ASSERT_TRUE(corpus.ok()) << corpus.status().ToString();
  ts::TimeSeries shadow = corpus->at(0);
  core::S2Engine::Options options = EngineOptions();
  options.long_burst = long_burst;
  options.short_burst = short_burst;
  auto engine = core::S2Engine::Build(std::move(corpus).ValueOrDie(), options);
  ASSERT_TRUE(engine.ok()) << engine.status().ToString();

  const core::BurstHorizon horizons[] = {core::BurstHorizon::kLongTerm,
                                         core::BurstHorizon::kShortTerm};
  std::vector<std::vector<burst::BurstRegion>> built;
  for (const core::BurstHorizon horizon : horizons) {
    for (ts::SeriesId id = 1; id < spec.num_series; ++id) {
      built.push_back(TableRegionsOf(engine->burst_table(horizon), id));
    }
  }

  size_t slid_regions = 0;  // Keeps the comparisons from passing vacuously.
  Rng rng(kSeed + 6);
  for (size_t step = 0; step < slides; ++step) {
    const double phase = 2.0 * M_PI * static_cast<double>(step) / 16.0;
    double value = 10.0 + 4.0 * std::sin(phase) + rng.Normal(0.0, 0.5);
    if (step % 37 == 0) value += 15.0;
    ASSERT_TRUE(engine->AppendPoint(0, value).ok()) << "slide " << step;
    SlideShadow(&shadow, value);
    if (step % 10 != 9) continue;

    size_t other = 0;
    for (const core::BurstHorizon horizon : horizons) {
      const std::string what =
          "slide " + std::to_string(step) + " horizon " +
          std::to_string(static_cast<int>(horizon));
      const burst::BurstDetector batch(
          horizon == core::BurstHorizon::kLongTerm ? long_burst : short_burst);
      auto want = batch.Detect(shadow.values);
      ASSERT_TRUE(want.ok()) << what;
      for (burst::BurstRegion& region : *want) {
        region.start += shadow.start_day;
        region.end += shadow.start_day;
      }
      slid_regions += want->size();
      const burst::BurstTable& table = engine->burst_table(horizon);
      ExpectSameRegions(*want, TableRegionsOf(table, 0), what + " table");
      auto answered = engine->BurstsOf(0, horizon);
      ASSERT_TRUE(answered.ok()) << what;
      ExpectSameRegions(*want, *answered, what + " BurstsOf");
      for (ts::SeriesId id = 1; id < spec.num_series; ++id) {
        ExpectSameRegions(built[other++], TableRegionsOf(table, id),
                          what + " unslid id " + std::to_string(id));
      }
      EXPECT_TRUE(table.Validate().ok()) << what;
    }
  }
  EXPECT_GT(slid_regions, 0u);
}

TEST(StreamEquivalenceTest, BurstTablesTrackTheBatchDetectorAcrossManySlides) {
  // The detectors' pruning knobs on: a minimum height and a minimum length.
  const burst::BurstDetector::Options long_burst{30, 1.5, true, 0.5, 2};
  const burst::BurstDetector::Options short_burst{7, 1.5, true, 0.5, 2};
  ExpectBurstTablesTrackTheBatchDetector(long_burst, short_burst, 300);
}

TEST(StreamEquivalenceTest, UnstandardizedBurstTablesTrackTheBatchDetector) {
  // Raw-count detection with the paper's verbatim knobs: no minimum height,
  // one-day bursts kept.
  const burst::BurstDetector::Options long_burst{30, 1.5, false, 0.0, 1};
  const burst::BurstDetector::Options short_burst{7, 1.5, false, 0.0, 1};
  ExpectBurstTablesTrackTheBatchDetector(long_burst, short_burst, 150);
}

// --- WAL crash-recovery ----------------------------------------------------

service::S2Server::Options WalServerOptions(io::Env* wal_env) {
  service::S2Server::Options options;
  options.scheduler.threads = 1;
  options.cache_capacity = 0;
  options.wal_path = "stream.wal";
  options.wal_env = wal_env;
  return options;
}

TEST(StreamEquivalenceTest, WalReplayAfterCleanCrashLosesNoAcknowledgedAppend) {
  io::MemEnv wal_env;
  std::vector<ts::TimeSeries> shadow = Snapshot(MakeCorpus());

  {
    auto server = service::S2Server::Build(MakeCorpus(), EngineOptions(),
                                           WalServerOptions(&wal_env));
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    Rng rng(kSeed + 5);
    for (size_t step = 0; step < 30; ++step) {
      const auto id = static_cast<ts::SeriesId>((step * 11) % kNumSeries);
      const double value = rng.Uniform(0.0, 40.0);
      ASSERT_TRUE((*server)->AppendPoint(id, value).ok());
      SlideShadow(&shadow[id], value);
    }
    // Crash: everything unsynced dies. With sync_every == 1 every
    // acknowledged append was synced, so nothing acknowledged is lost.
    ASSERT_TRUE(wal_env.DropUnsynced().ok());
  }

  auto revived = service::S2Server::Build(MakeCorpus(), EngineOptions(),
                                          WalServerOptions(&wal_env));
  ASSERT_TRUE(revived.ok()) << revived.status().ToString();
  const auto info = (*revived)->stream_info();
  EXPECT_TRUE(info.wal_enabled);
  EXPECT_EQ(info.replayed_records, 30u);

  const core::S2Engine batch = BatchRebuild(shadow);
  ExpectAllVerbsEqual(batch, (*revived)->engine(), "wal-replay");
}

TEST(StreamEquivalenceTest, CrashPointSweepKeepsExactlyTheAcknowledgedPrefix) {
  // Crash the WAL at every mutating-op index that can land inside the append
  // sequence (ops 1-2 are the monitor WAL's header write+sync, 3-4 the
  // stream WAL's; each append is one write + one sync). Whatever was
  // acknowledged before the crash must replay; nothing else may.
  for (uint64_t crash_at = 5; crash_at <= 14; ++crash_at) {
    io::MemEnv base;
    io::FaultPlan plan;
    plan.crash_at_op = crash_at;
    io::FaultInjectingEnv wal_env(&base, plan);

    std::vector<ts::TimeSeries> shadow = Snapshot(MakeCorpus());
    size_t acknowledged = 0;
    {
      auto server = service::S2Server::Build(MakeCorpus(), EngineOptions(),
                                             WalServerOptions(&wal_env));
      ASSERT_TRUE(server.ok()) << server.status().ToString();
      Rng rng(kSeed + 6);
      for (size_t step = 0; step < 8; ++step) {
        const auto id = static_cast<ts::SeriesId>((step * 11) % kNumSeries);
        const double value = rng.Uniform(0.0, 40.0);
        if ((*server)->AppendPoint(id, value).ok()) {
          SlideShadow(&shadow[id], value);
          ++acknowledged;
        } else {
          break;  // Crashed mid-append: not acknowledged, not in the shadow.
        }
      }
    }
    ASSERT_TRUE(wal_env.crashed()) << "crash_at " << crash_at;
    wal_env.ClearCrash();

    auto revived = service::S2Server::Build(MakeCorpus(), EngineOptions(),
                                            WalServerOptions(&wal_env));
    ASSERT_TRUE(revived.ok()) << revived.status().ToString();
    EXPECT_EQ((*revived)->stream_info().replayed_records, acknowledged)
        << "crash_at " << crash_at;

    const core::S2Engine batch = BatchRebuild(shadow);
    ExpectAllVerbsEqual(batch, (*revived)->engine(),
                        "crash_at " + std::to_string(crash_at));
  }
}

}  // namespace
}  // namespace s2::stream
