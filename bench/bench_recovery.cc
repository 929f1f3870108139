// Recovery-time benchmark: what checkpoints buy at restart.
//
//   ./build/bench/bench_recovery [--series 128] [--days 64]
//                                [--appends 2000] [--interval 500]
//                                [--json BENCH_recovery.json]
//
// One table: recovery wall time and replayed-record count as the appended
// history grows 1x / 3x / 10x, with and without periodic checkpoints
// (one coordinated checkpoint every `--interval` acknowledged appends,
// segment + snapshot GC on). Full replay grows linearly with history;
// checkpointed recovery replays only the WAL tail past the last anchor,
// so its replayed-record count — and with it the replay component of the
// restart — stays bounded by the checkpoint interval no matter how much
// history accumulates. The acceptance bar printed at the bottom is exactly
// that: at every scale the checkpointed recovery replays <= interval
// records.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "core/s2_engine.h"
#include "io/mem_env.h"
#include "monitor/subscription.h"
#include "querylog/corpus_generator.h"
#include "service/s2_server.h"
#include "stream/wal.h"

using namespace s2;

namespace {

ts::Corpus MakeCorpus(size_t series, size_t days) {
  qlog::CorpusSpec spec;
  spec.num_series = series;
  spec.n_days = days;
  spec.seed = 20040613;  // SIGMOD'04.
  auto corpus = qlog::GenerateCorpus(spec);
  if (!corpus.ok()) {
    std::fprintf(stderr, "corpus generation failed: %s\n",
                 corpus.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(corpus).ValueOrDie();
}

core::S2Engine::Options EngineOptions() {
  core::S2Engine::Options options;
  return options;
}

struct Row {
  size_t appends = 0;
  const char* mode = "";
  double recover_ms = 0.0;
  uint64_t replayed = 0;
  uint64_t anchor = 0;
};

Row RunOne(size_t series, size_t days, size_t appends, size_t interval,
           bool checkpoints) {
  io::MemEnv env;
  service::S2Server::Options options;
  options.scheduler.threads = 1;
  options.cache_capacity = 0;
  options.wal_path = "recovery.wal";
  options.wal_env = &env;
  if (checkpoints) {
    options.checkpoint_enabled = true;
    options.checkpoint_gc = true;
    options.wal_rotate_bytes = 64 * stream::Wal::kRecordBytes;
  }

  // Live phase: subscribe a pair of standing queries (so the checkpoint
  // carries registry + queue state, like a real deployment), then append.
  // Checkpoints are taken synchronously every `interval` appends to keep
  // the measured restart deterministic.
  {
    auto server = service::S2Server::Build(MakeCorpus(series, days),
                                           EngineOptions(), options);
    if (!server.ok()) {
      std::fprintf(stderr, "server build failed: %s\n",
                   server.status().ToString().c_str());
      std::exit(1);
    }
    monitor::Subscription burst;
    burst.kind = monitor::SubscriptionKind::kBurstThreshold;
    burst.series = 0;
    burst.burst.window = 7;
    burst.burst.enter_ratio = 1.5;
    burst.burst.exit_ratio = 1.1;
    (void)(*server)->Subscribe(burst);
    monitor::Subscription period;
    period.kind = monitor::SubscriptionKind::kPeriodicityChange;
    period.series = 1;
    (void)(*server)->Subscribe(period);

    Rng rng(17);
    for (size_t i = 0; i < appends; ++i) {
      const auto id = static_cast<ts::SeriesId>(i % series);
      const Status status =
          (*server)->AppendPoint(id, 50.0 + rng.Normal(0.0, 4.0));
      if (!status.ok()) {
        std::fprintf(stderr, "append failed: %s\n", status.ToString().c_str());
        std::exit(1);
      }
      if (checkpoints && (i + 1) % interval == 0) {
        const Status ckpt = (*server)->Checkpoint();
        if (!ckpt.ok()) {
          std::fprintf(stderr, "checkpoint failed: %s\n",
                       ckpt.ToString().c_str());
          std::exit(1);
        }
      }
    }
    (*server)->Shutdown();
  }

  // Restart phase: the measured quantity.
  bench::Timer timer;
  auto revived = service::S2Server::Recover(MakeCorpus(series, days),
                                            EngineOptions(), options);
  const double recover_ms = timer.Seconds() * 1e3;
  if (!revived.ok()) {
    std::fprintf(stderr, "recovery failed: %s\n",
                 revived.status().ToString().c_str());
    std::exit(1);
  }

  Row row;
  row.appends = appends;
  row.mode = checkpoints ? "checkpointed" : "full-replay";
  row.recover_ms = recover_ms;
  row.replayed = (*revived)->stream_info().replayed_records;
  row.anchor = (*revived)->checkpoint_info().recovery_anchor_appends;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const size_t series = bench::ArgSize(argc, argv, "--series", 128);
  const size_t days = bench::ArgSize(argc, argv, "--days", 64);
  const size_t appends = bench::ArgSize(argc, argv, "--appends", 2000);
  // Deliberately not a divisor of the append counts, so every checkpointed
  // run also exercises a non-empty tail replay past the last anchor.
  const size_t interval = bench::ArgSize(argc, argv, "--interval", 512);
  const std::string json_path =
      bench::ArgString(argc, argv, "--json", "BENCH_recovery.json");

  bench::PrintHeader(
      "Recovery time vs appended history: full replay vs checkpointed");
  std::printf("  %-8s %-14s %12s %12s %10s\n", "scale", "mode", "recover_ms",
              "replayed", "anchor");

  bool bounded = true;
  bench::Json rows = bench::Json::Array();
  for (size_t scale : {1, 3, 10}) {
    for (bool checkpoints : {false, true}) {
      const Row row =
          RunOne(series, days, scale * appends, interval, checkpoints);
      const std::string label = std::to_string(scale) + "x";
      std::printf("  %-8s %-14s %12.1f %12llu %10llu\n", label.c_str(),
                  row.mode, row.recover_ms,
                  static_cast<unsigned long long>(row.replayed),
                  static_cast<unsigned long long>(row.anchor));
      if (checkpoints) bounded = bounded && row.replayed <= interval;
      rows.Push(bench::Json::Object()
                    .Add("scale", static_cast<uint64_t>(scale))
                    .Add("appends", static_cast<uint64_t>(row.appends))
                    .Add("mode", row.mode)
                    .Add("recover_ms", row.recover_ms)
                    .Add("replayed_records", row.replayed)
                    .Add("anchor", row.anchor));
    }
  }
  std::printf(
      "\n  acceptance bar (checkpointed replay <= interval at every "
      "scale): %s\n",
      bounded ? "PASS" : "FAIL");

  bench::WriteJsonFile(
      json_path,
      bench::Json::Object()
          .Add("bench", "bench_recovery")
          .Add("spec",
               bench::Json::Object()
                   .Add("series", static_cast<uint64_t>(series))
                   .Add("days", static_cast<uint64_t>(days))
                   .Add("appends", static_cast<uint64_t>(appends))
                   .Add("interval", static_cast<uint64_t>(interval)))
          .Add("rows", std::move(rows))
          .Add("bounded_replay",
               bench::Json::String(bounded ? "PASS" : "FAIL")));
  return bounded ? 0 : 1;
}
