// Streaming-ingestion benchmark: sustained append cost across corpus sizes.
//
//   ./build/bench/bench_stream [--series 1024,4096,16384] [--days 256]
//                              [--appends 2000] [--repeats 5]
//
// Per-append cost at every corpus size in `--series`, with and without a
// WAL (MemEnv-backed, sync-every-append). One server per size and
// configuration runs `--repeats` consecutive batches of `--appends`
// appends; the table gives the median and quartiles over the batches of
// wall time and of the appending thread's CPU time per append.

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
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
};

AppendRow RunAppends(const char* config, size_t series, size_t days,
                     size_t appends, size_t repeats, bool wal) {
  core::S2Engine::Options engine_options;

  io::MemEnv wal_env;
  service::S2Server::Options server_options;
  server_options.scheduler.threads = 1;
  server_options.cache_capacity = 0;
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
    }
    const double n = static_cast<double>(appends);
    cpu_us.push_back((bench::ThreadCpuSeconds() - cpu_start) * 1e6 / n);
    wall_us.push_back(timer.Seconds() * 1e6 / n);
  }
  row.wall_us = bench::Quartiles(std::move(wall_us));
  row.cpu_us = bench::Quartiles(std::move(cpu_us));
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

}  // namespace

int main(int argc, char** argv) {
  const std::string series_list = bench::ArgString(argc, argv, "--series", "1024");
  const std::vector<size_t> sizes = ParseSizes(series_list);
  const size_t days = bench::ArgSize(argc, argv, "--days", 256);
  const size_t appends = bench::ArgSize(argc, argv, "--appends", 2000);
  const size_t repeats = bench::ArgSize(argc, argv, "--repeats", 5);
  const std::string json_path =
      bench::ArgString(argc, argv, "--json", "BENCH_stream.json");
  if (sizes.empty() || appends == 0 || repeats == 0) {
    std::fprintf(stderr, "bench_stream: --series, --appends and --repeats "
                         "must be non-empty and positive\n");
    return 1;
  }

  std::printf("bench_stream: series=%s days=%zu appends=%zu repeats=%zu\n",
              series_list.c_str(), days, appends, repeats);

  bench::PrintHeader("Per-append cost: median [p25, p75] over repeats");
  std::printf("  %8s %-16s %26s %26s\n", "series", "config",
              "wall_us/append", "thread_cpu_us/append");
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
      std::printf("  %8zu %-16s %8.1f [%7.1f, %7.1f] %8.1f [%7.1f, %7.1f]\n",
                  row.series, row.config, row.wall_us.median, row.wall_us.p25,
                  row.wall_us.p75, row.cpu_us.median, row.cpu_us.p25,
                  row.cpu_us.p75);
      append_rows.Push(bench::Json::Object()
                           .Add("series", static_cast<uint64_t>(row.series))
                           .Add("config", row.config)
                           .Add("wall_us", bench::SpreadJson(row.wall_us))
                           .Add("thread_cpu_us", bench::SpreadJson(row.cpu_us)));
    }
  }

  bench::WriteJsonFile(
      json_path,
      bench::Json::Object()
          .Add("bench", "bench_stream")
          .Add("spec", bench::Json::Object()
                           .Add("series", series_list.c_str())
                           .Add("days", static_cast<uint64_t>(days))
                           .Add("appends", static_cast<uint64_t>(appends))
                           .Add("repeats", static_cast<uint64_t>(repeats)))
          .Add("append_cost", std::move(append_rows)));
  return 0;
}
