// Sharded-engine benchmark: build time and query throughput of
// shard::ShardedEngine at 1/2/4/8 shards, RAM-resident and disk-resident
// (MemEnv-backed store files), plus the scatter-gather instrumentation the
// server exports (fan-out width, cross-shard prune hits, per-shard latency).
//
//   ./build/bench/bench_shard [--series 2048] [--days 512] [--requests 200]
//                             [--k 10] [--shards-max 8]
//
// Reading the numbers: shard speedups come from running per-shard builds and
// searches on separate cores. On a machine with few hardware threads the
// scatter runs (mostly) sequentially and sharding can only show its
// *overheads* (task dispatch, merge, slightly weaker per-shard pruning) —
// the table prints hardware_concurrency so a flat QPS column on a 1-2 core
// box is read as expected behaviour, not as a defect. The cross-shard prune
// column shows the shared radius doing its job regardless of parallelism:
// those are candidate evaluations a naive independent-shard design would
// have paid for.

#include <cstdio>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "io/mem_env.h"
#include "querylog/corpus_generator.h"
#include "shard/sharded_engine.h"

using namespace s2;

namespace {

struct Row {
  size_t shards = 0;
  double build_s = 0.0;
  double qps = 0.0;
  double avg_fanout = 0.0;
  double avg_prunes = 0.0;
  uint64_t shard_p50_us = 0;
  uint64_t shard_max_us = 0;
};

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

Row RunConfig(size_t shards, size_t series, size_t days, size_t requests,
              size_t k, io::Env* env, const std::string& store_path) {
  Row row;
  row.shards = shards;

  shard::ShardedEngine::Options options;
  options.num_shards = shards;
  if (env != nullptr) {
    options.engine.env = env;
    options.engine.disk_store_path = store_path;
  }
  bench::Timer build_timer;
  auto built = shard::ShardedEngine::Build(MakeCorpus(series, days), options);
  if (!built.ok()) {
    std::fprintf(stderr, "build failed: %s\n", built.status().ToString().c_str());
    std::exit(1);
  }
  row.build_s = build_timer.Seconds();
  const shard::ShardedEngine& engine = *built;

  Rng rng(7);
  std::vector<ts::SeriesId> ids;
  ids.reserve(requests);
  for (size_t i = 0; i < requests; ++i) {
    ids.push_back(static_cast<ts::SeriesId>(
        rng.Uniform(0.0, static_cast<double>(series))));
  }

  uint64_t fanout = 0;
  uint64_t prunes = 0;
  std::vector<uint64_t> latencies;
  bench::Timer query_timer;
  for (ts::SeriesId id : ids) {
    shard::ShardedEngine::QueryStats stats;
    auto result = engine.SimilarTo(id, k, &stats);
    if (!result.ok()) {
      std::fprintf(stderr, "query failed: %s\n",
                   result.status().ToString().c_str());
      std::exit(1);
    }
    fanout += stats.fanout;
    prunes += stats.shared_radius_prunes;
    for (const auto& lat : stats.shard_latencies) {
      latencies.push_back(static_cast<uint64_t>(lat.count()));
    }
  }
  const double elapsed = query_timer.Seconds();
  row.qps = elapsed > 0 ? static_cast<double>(requests) / elapsed : 0.0;
  row.avg_fanout = static_cast<double>(fanout) / static_cast<double>(requests);
  row.avg_prunes = static_cast<double>(prunes) / static_cast<double>(requests);
  if (!latencies.empty()) {
    std::sort(latencies.begin(), latencies.end());
    row.shard_p50_us = latencies[latencies.size() / 2];
    row.shard_max_us = latencies.back();
  }
  return row;
}

void PrintTable(const char* title, const std::vector<Row>& rows) {
  bench::PrintHeader(title);
  std::printf("  %7s %10s %10s %8s %12s %12s %12s\n", "shards", "build_s",
              "qps", "fanout", "prunes/q", "shard_p50us", "shard_maxus");
  for (const Row& row : rows) {
    std::printf("  %7zu %10.3f %10.1f %8.1f %12.2f %12llu %12llu\n",
                row.shards, row.build_s, row.qps, row.avg_fanout,
                row.avg_prunes,
                static_cast<unsigned long long>(row.shard_p50_us),
                static_cast<unsigned long long>(row.shard_max_us));
  }
}

bench::Json JsonRows(const std::vector<Row>& rows) {
  bench::Json array = bench::Json::Array();
  for (const Row& row : rows) {
    array.Push(bench::Json::Object()
                   .Add("shards", static_cast<uint64_t>(row.shards))
                   .Add("build_s", row.build_s)
                   .Add("qps", row.qps)
                   .Add("avg_fanout", row.avg_fanout)
                   .Add("avg_prunes", row.avg_prunes)
                   .Add("shard_p50_us", row.shard_p50_us)
                   .Add("shard_max_us", row.shard_max_us));
  }
  return array;
}

}  // namespace

int main(int argc, char** argv) {
  const size_t series = bench::ArgSize(argc, argv, "--series", 2048);
  const size_t days = bench::ArgSize(argc, argv, "--days", 512);
  const size_t requests = bench::ArgSize(argc, argv, "--requests", 200);
  const size_t k = bench::ArgSize(argc, argv, "--k", 10);
  const size_t shards_max = bench::ArgSize(argc, argv, "--shards-max", 8);
  const std::string json_path =
      bench::ArgString(argc, argv, "--json", "BENCH_shard.json");

  std::printf("bench_shard: series=%zu days=%zu requests=%zu k=%zu "
              "hardware_concurrency=%u\n",
              series, days, requests, k,
              std::thread::hardware_concurrency());

  std::vector<size_t> shard_counts;
  for (size_t n = 1; n <= shards_max; n *= 2) shard_counts.push_back(n);

  std::vector<Row> ram;
  for (size_t n : shard_counts) {
    ram.push_back(RunConfig(n, series, days, requests, k, nullptr, ""));
  }
  PrintTable("RAM-resident: SimilarTo scatter-gather", ram);

  std::vector<Row> disk;
  for (size_t n : shard_counts) {
    io::MemEnv env;  // Fresh filesystem per configuration.
    disk.push_back(RunConfig(n, series, days, requests, k, &env, "bench.bin"));
  }
  PrintTable("Disk-resident (MemEnv store files): SimilarTo scatter-gather",
             disk);

  bench::WriteJsonFile(
      json_path,
      bench::Json::Object()
          .Add("bench", "bench_shard")
          .Add("spec",
               bench::Json::Object()
                   .Add("series", static_cast<uint64_t>(series))
                   .Add("days", static_cast<uint64_t>(days))
                   .Add("requests", static_cast<uint64_t>(requests))
                   .Add("k", static_cast<uint64_t>(k))
                   .Add("shards_max", static_cast<uint64_t>(shards_max))
                   .Add("hardware_threads",
                        static_cast<uint64_t>(
                            std::thread::hardware_concurrency())))
          .Add("ram_resident", JsonRows(ram))
          .Add("disk_resident", JsonRows(disk)));
  return 0;
}
