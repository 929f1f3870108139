// Streaming-ingestion benchmark: sustained append cost across corpus sizes
// and the cost a non-empty delta tier adds to queries.
//
//   ./build/bench/bench_stream [--series 1024,4096,16384] [--days 256]
//                              [--appends 2000] [--repeats 5]
//                              [--requests 200] [--k 10] [--delta 64]
//
// Two tables:
//  1. Per-append cost at every corpus size in `--series`, with and without
//     a WAL (MemEnv-backed, sync-every-append). One server per size and
//     configuration runs `--repeats` consecutive batches of `--appends`
//     appends; the table gives the median and quartiles over the batches of
//     wall time and of the appending thread's CPU time per append, which
//     covers AppendPoint plus the amortized foreground Compact.
//  2. Query latency with the delta tier holding `--delta` fresh series vs
//     the same engine right after compaction, at the first listed size. The
//     acceptance bar from the streaming work is a delta/compacted ratio
//     <= 2.0 for every verb; the table prints that ratio explicitly.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "core/s2_engine.h"
#include "io/mem_env.h"
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

struct AppendRow {
  const char* config = "";
  size_t series = 0;
  bench::Spread wall_us;  // Per append, over the repeats.
  bench::Spread cpu_us;
  uint64_t compactions = 0;
};

AppendRow RunAppends(const char* config, size_t series, size_t days,
                     size_t appends, size_t repeats, bool wal) {
  core::S2Engine::Options engine_options;
  engine_options.index.budget_c = 16;

  io::MemEnv wal_env;
  service::S2Server::Options server_options;
  server_options.scheduler.threads = 1;
  server_options.cache_capacity = 0;
  // Compact in the foreground every 256 appends so the delta stays bounded
  // and its compaction cost lands inside the measured interval — this is
  // the sustained rate, not the burst rate into an ever-growing delta.
  server_options.compaction_threshold = 0;
  if (wal) {
    server_options.wal_path = "bench.wal";
    server_options.wal_env = &wal_env;
  }
  auto server = service::S2Server::Build(MakeCorpus(series, days),
                                         engine_options, server_options);
  if (!server.ok()) {
    std::fprintf(stderr, "server build failed: %s\n",
                 server.status().ToString().c_str());
    std::exit(1);
  }

  Rng rng(13);
  AppendRow row;
  row.config = config;
  row.series = series;
  std::vector<double> wall_us;
  std::vector<double> cpu_us;
  size_t i = 0;
  for (size_t r = 0; r < repeats; ++r) {
    bench::Timer timer;
    const double cpu_start = bench::ThreadCpuSeconds();
    for (size_t batch_end = i + appends; i < batch_end; ++i) {
      const auto id = static_cast<ts::SeriesId>(i % series);
      const Status status = (*server)->AppendPoint(id, rng.Uniform(0.0, 40.0));
      if (!status.ok()) {
        std::fprintf(stderr, "append failed: %s\n", status.ToString().c_str());
        std::exit(1);
      }
      if ((i + 1) % 256 == 0) {
        const Status compacted = (*server)->Compact();
        if (!compacted.ok()) {
          std::fprintf(stderr, "compact failed: %s\n",
                       compacted.ToString().c_str());
          std::exit(1);
        }
      }
    }
    const double n = static_cast<double>(appends);
    cpu_us.push_back((bench::ThreadCpuSeconds() - cpu_start) * 1e6 / n);
    wall_us.push_back(timer.Seconds() * 1e6 / n);
  }
  row.wall_us = bench::Quartiles(std::move(wall_us));
  row.cpu_us = bench::Quartiles(std::move(cpu_us));
  row.compactions = (*server)->stream_info().compaction_count;
  return row;
}

std::vector<size_t> ParseSizes(const std::string& list) {
  std::vector<size_t> sizes;
  size_t pos = 0;
  while (pos < list.size()) {
    size_t comma = list.find(',', pos);
    if (comma == std::string::npos) comma = list.size();
    sizes.push_back(static_cast<size_t>(std::stoull(list.substr(pos, comma - pos))));
    pos = comma + 1;
  }
  return sizes;
}

struct LatencyRow {
  const char* verb = "";
  double delta_us = 0.0;
  double compacted_us = 0.0;
  double ratio() const {
    return compacted_us > 0 ? delta_us / compacted_us : 0.0;
  }
};

double MeasureVerb(const core::S2Engine& engine, service::RequestKind kind,
                   size_t requests, size_t k, size_t series) {
  Rng rng(29);
  bench::Timer timer;
  for (size_t i = 0; i < requests; ++i) {
    const auto id = static_cast<ts::SeriesId>(
        rng.Uniform(0.0, static_cast<double>(series)));
    Status status = Status::OK();
    switch (kind) {
      case service::RequestKind::kSimilarTo:
        status = engine.SimilarTo(id, k).status();
        break;
      case service::RequestKind::kSimilarToDtw:
        status = engine.SimilarToDtw(id, k).status();
        break;
      default:
        status = engine.QueryByBurst(id, k, core::BurstHorizon::kLongTerm)
                     .status();
        break;
    }
    if (!status.ok()) {
      std::fprintf(stderr, "query failed: %s\n", status.ToString().c_str());
      std::exit(1);
    }
  }
  return timer.Seconds() * 1e6 / static_cast<double>(requests);
}

std::vector<LatencyRow> RunDeltaVsCompacted(size_t series, size_t days,
                                            size_t requests, size_t k,
                                            size_t delta) {
  core::S2Engine::Options options;
  options.index.budget_c = 16;
  auto engine = core::S2Engine::Build(MakeCorpus(series, days), options);
  if (!engine.ok()) {
    std::fprintf(stderr, "engine build failed: %s\n",
                 engine.status().ToString().c_str());
    std::exit(1);
  }
  // Slide `delta` distinct series so the delta tier holds that many entries.
  Rng rng(31);
  for (size_t i = 0; i < delta; ++i) {
    const auto id = static_cast<ts::SeriesId>((i * 7) % series);
    const Status status = engine->AppendPoint(id, rng.Uniform(0.0, 40.0));
    if (!status.ok()) {
      std::fprintf(stderr, "append failed: %s\n", status.ToString().c_str());
      std::exit(1);
    }
  }

  const service::RequestKind kinds[] = {service::RequestKind::kSimilarTo,
                                        service::RequestKind::kSimilarToDtw,
                                        service::RequestKind::kQueryByBurst};
  const char* names[] = {"SimilarTo", "SimilarToDtw", "QueryByBurst"};
  std::vector<LatencyRow> rows(3);
  for (size_t i = 0; i < 3; ++i) {
    rows[i].verb = names[i];
    rows[i].delta_us = MeasureVerb(*engine, kinds[i], requests, k, series);
  }
  const Status compacted = engine->Compact();
  if (!compacted.ok()) {
    std::fprintf(stderr, "compact failed: %s\n", compacted.ToString().c_str());
    std::exit(1);
  }
  for (size_t i = 0; i < 3; ++i) {
    rows[i].compacted_us = MeasureVerb(*engine, kinds[i], requests, k, series);
  }
  return rows;
}

}  // namespace

int main(int argc, char** argv) {
  const std::string series_list = bench::ArgString(argc, argv, "--series", "1024");
  const std::vector<size_t> sizes = ParseSizes(series_list);
  const size_t days = bench::ArgSize(argc, argv, "--days", 256);
  const size_t appends = bench::ArgSize(argc, argv, "--appends", 2000);
  const size_t repeats = bench::ArgSize(argc, argv, "--repeats", 5);
  const size_t requests = bench::ArgSize(argc, argv, "--requests", 200);
  const size_t k = bench::ArgSize(argc, argv, "--k", 10);
  const size_t delta = bench::ArgSize(argc, argv, "--delta", 64);
  const std::string json_path =
      bench::ArgString(argc, argv, "--json", "BENCH_stream.json");
  if (sizes.empty() || appends == 0 || repeats == 0) {
    std::fprintf(stderr, "bench_stream: --series, --appends and --repeats "
                         "must be non-empty and positive\n");
    return 1;
  }
  const size_t series = sizes.front();

  std::printf("bench_stream: series=%s days=%zu appends=%zu repeats=%zu "
              "requests=%zu k=%zu delta=%zu\n",
              series_list.c_str(), days,
              appends, repeats, requests, k, delta);

  bench::PrintHeader(
      "Per-append cost (compact every 256): median [p25, p75] over repeats");
  std::printf("  %8s %-16s %26s %26s %12s\n", "series", "config",
              "wall_us/append", "thread_cpu_us/append", "compactions");
  const struct {
    const char* name;
    bool wal;
  } configs[] = {
      {"exact", false},
      {"exact+wal", true},
  };
  bench::Json append_rows = bench::Json::Array();
  for (const size_t size : sizes) {
    for (const auto& config : configs) {
      const AppendRow row =
          RunAppends(config.name, size, days, appends, repeats, config.wal);
      std::printf("  %8zu %-16s %8.1f [%7.1f, %7.1f] %8.1f [%7.1f, %7.1f] %12llu\n",
                  row.series, row.config, row.wall_us.median, row.wall_us.p25,
                  row.wall_us.p75, row.cpu_us.median, row.cpu_us.p25,
                  row.cpu_us.p75,
                  static_cast<unsigned long long>(row.compactions));
      append_rows.Push(bench::Json::Object()
                           .Add("series", static_cast<uint64_t>(row.series))
                           .Add("config", row.config)
                           .Add("wall_us", bench::SpreadJson(row.wall_us))
                           .Add("thread_cpu_us", bench::SpreadJson(row.cpu_us))
                           .Add("compactions", row.compactions));
    }
  }

  bench::PrintHeader("Query latency: delta tier populated vs compacted");
  std::printf("  %-16s %12s %14s %10s\n", "verb", "delta_us", "compacted_us",
              "ratio");
  bool within_bar = true;
  bench::Json latency_rows = bench::Json::Array();
  for (const LatencyRow& row :
       RunDeltaVsCompacted(series, days, requests, k, delta)) {
    std::printf("  %-16s %12.1f %14.1f %9.2fx\n", row.verb, row.delta_us,
                row.compacted_us, row.ratio());
    within_bar = within_bar && row.ratio() <= 2.0;
    latency_rows.Push(bench::Json::Object()
                          .Add("verb", row.verb)
                          .Add("delta_us", row.delta_us)
                          .Add("compacted_us", row.compacted_us)
                          .Add("ratio", row.ratio()));
  }
  std::printf("\n  acceptance bar (every verb within 2.0x of compacted): %s\n",
              within_bar ? "PASS" : "FAIL");

  bench::WriteJsonFile(
      json_path,
      bench::Json::Object()
          .Add("bench", "bench_stream")
          .Add("spec", bench::Json::Object()
                           .Add("series", series_list.c_str())
                           .Add("days", static_cast<uint64_t>(days))
                           .Add("appends", static_cast<uint64_t>(appends))
                           .Add("repeats", static_cast<uint64_t>(repeats))
                           .Add("requests", static_cast<uint64_t>(requests))
                           .Add("k", static_cast<uint64_t>(k))
                           .Add("delta", static_cast<uint64_t>(delta)))
          .Add("append_cost", std::move(append_rows))
          .Add("delta_vs_compacted_series", static_cast<uint64_t>(series))
          .Add("delta_vs_compacted", std::move(latency_rows))
          .Add("within_2x_bar", bench::Json::String(within_bar ? "PASS"
                                                               : "FAIL")));
  return 0;
}
