// Standing-query overhead benchmark: what a population of subscriptions
// costs the append path, per subscription kind.
//
//   ./build/bench/bench_monitor [--series 1024] [--days 256]
//                               [--appends 2000] [--watched 64]
//                               [--json BENCH_monitor.json]
//
// Every append to a watched series evaluates its subscriptions inline
// (DESIGN.md §9): burst and similarity subscriptions are O(window)/O(n)
// arithmetic, a periodicity subscription prices a full periodogram (one
// FFT) per append. The bench appends round-robin over `--watched` watched
// series — the worst case where every append pays evaluation — and prints
// appends/s against the unwatched baseline, plus the fired/dropped alert
// accounting. Results also land in a machine-readable JSON file so the
// perf trajectory across PRs has a recorded baseline.

#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "core/s2_engine.h"
#include "monitor/subscription.h"
#include "querylog/corpus_generator.h"
#include "service/s2_server.h"

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

struct MonitorRow {
  const char* config = "";
  double appends_per_s = 0.0;
  double avg_us = 0.0;
  uint64_t evaluations = 0;
  uint64_t alerts_fired = 0;
  uint64_t alerts_dropped = 0;
};

enum class Mix { kNone, kBurst, kPeriod, kSimilarity, kMixed };

monitor::Subscription MakeSub(Mix mix, size_t ordinal, ts::SeriesId series,
                              const ts::Corpus& corpus) {
  monitor::Subscription sub;
  sub.series = series;
  Mix kind = mix;
  if (mix == Mix::kMixed) {
    const Mix kinds[] = {Mix::kBurst, Mix::kPeriod, Mix::kSimilarity};
    kind = kinds[ordinal % 3];
  }
  switch (kind) {
    case Mix::kBurst:
      sub.kind = monitor::SubscriptionKind::kBurstThreshold;
      sub.burst.window = 7;
      sub.burst.enter_ratio = 1.5;
      sub.burst.exit_ratio = 1.2;
      break;
    case Mix::kPeriod:
      sub.kind = monitor::SubscriptionKind::kPeriodicityChange;
      break;
    case Mix::kSimilarity:
      sub.kind = monitor::SubscriptionKind::kSimilarityWatch;
      sub.similarity.query = corpus.at(series).values;
      sub.similarity.radius = 2.0;
      break;
    default:
      break;
  }
  return sub;
}

MonitorRow RunAppends(const char* config, Mix mix, size_t series, size_t days,
                      size_t appends, size_t watched) {
  core::S2Engine::Options engine_options;

  service::S2Server::Options server_options;
  server_options.scheduler.threads = 1;
  server_options.cache_capacity = 0;

  const ts::Corpus corpus = MakeCorpus(series, days);
  auto server = service::S2Server::Build(MakeCorpus(series, days),
                                         engine_options, server_options);
  if (!server.ok()) {
    std::fprintf(stderr, "server build failed: %s\n",
                 server.status().ToString().c_str());
    std::exit(1);
  }

  if (mix != Mix::kNone) {
    for (size_t i = 0; i < watched; ++i) {
      const auto id = static_cast<ts::SeriesId>(i % series);
      const auto sub = server->get()->Subscribe(MakeSub(mix, i, id, corpus));
      if (!sub.ok()) {
        std::fprintf(stderr, "subscribe failed: %s\n",
                     sub.status().ToString().c_str());
        std::exit(1);
      }
    }
  }

  // Round-robin over the *watched* prefix: every append evaluates (the
  // kNone baseline appends to the same ids, paying zero evaluation).
  Rng rng(13);
  MonitorRow row;
  row.config = config;
  bench::Timer timer;
  for (size_t i = 0; i < appends; ++i) {
    const auto id = static_cast<ts::SeriesId>(i % std::max<size_t>(watched, 1));
    // Alternating hot/cold regimes so thresholds actually cross and alert
    // pushes land inside the measured interval.
    const bool hot = (i / 64) % 2 == 1;
    const double value =
        hot ? rng.Uniform(3000.0, 5000.0) : rng.Uniform(0.0, 40.0);
    const Status status = server->get()->AppendPoint(id, value);
    if (!status.ok()) {
      std::fprintf(stderr, "append failed: %s\n", status.ToString().c_str());
      std::exit(1);
    }
  }
  const double elapsed = timer.Seconds();
  row.appends_per_s = elapsed > 0 ? static_cast<double>(appends) / elapsed : 0;
  row.avg_us = elapsed * 1e6 / static_cast<double>(appends);

  const auto info = server->get()->monitor_info();
  row.evaluations = server->get()->alerts().stats().evaluations;
  row.alerts_fired = info.alerts_fired;
  row.alerts_dropped = info.alerts_dropped;
  return row;
}

}  // namespace

int main(int argc, char** argv) {
  const size_t series = bench::ArgSize(argc, argv, "--series", 1024);
  const size_t days = bench::ArgSize(argc, argv, "--days", 256);
  const size_t appends = bench::ArgSize(argc, argv, "--appends", 2000);
  const size_t watched = bench::ArgSize(argc, argv, "--watched", 64);
  const std::string json_path =
      bench::ArgString(argc, argv, "--json", "BENCH_monitor.json");

  std::printf("bench_monitor: series=%zu days=%zu appends=%zu watched=%zu\n",
              series, days, appends, watched);

  bench::PrintHeader(
      "Append throughput vs standing-subscription mix (worst case: every "
      "append watched)");
  std::printf("  %-16s %12s %10s %12s %10s %10s\n", "config", "appends/s",
              "avg_us", "evaluations", "fired", "dropped");

  const struct {
    const char* name;
    Mix mix;
  } configs[] = {
      {"none", Mix::kNone},         {"burst", Mix::kBurst},
      {"period", Mix::kPeriod},     {"similarity", Mix::kSimilarity},
      {"mixed", Mix::kMixed},
  };

  bench::Json rows = bench::Json::Array();
  for (const auto& config : configs) {
    const MonitorRow row =
        RunAppends(config.name, config.mix, series, days, appends, watched);
    std::printf("  %-16s %12.1f %10.1f %12llu %10llu %10llu\n", row.config,
                row.appends_per_s, row.avg_us,
                static_cast<unsigned long long>(row.evaluations),
                static_cast<unsigned long long>(row.alerts_fired),
                static_cast<unsigned long long>(row.alerts_dropped));
    rows.Push(bench::Json::Object()
                  .Add("config", row.config)
                  .Add("appends_per_s", row.appends_per_s)
                  .Add("avg_us", row.avg_us)
                  .Add("evaluations", row.evaluations)
                  .Add("alerts_fired", row.alerts_fired)
                  .Add("alerts_dropped", row.alerts_dropped));
  }

  bench::WriteJsonFile(
      json_path,
      bench::Json::Object()
          .Add("bench", "bench_monitor")
          .Add("spec", bench::Json::Object()
                           .Add("series", static_cast<uint64_t>(series))
                           .Add("days", static_cast<uint64_t>(days))
                           .Add("appends", static_cast<uint64_t>(appends))
                           .Add("watched", static_cast<uint64_t>(watched)))
          .Add("append_throughput", std::move(rows)));
  return 0;
}
