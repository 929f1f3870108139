// Serving-layer benchmark: aggregate throughput and latency percentiles of
// the s2::service stack (thread pool + scheduler + result cache) over a
// synthetic hot-key workload, at 1/2/4/8 worker threads, with and without
// the result cache.
//
//   ./build/bench/bench_service [--series 4096] [--days 512] [--requests 1000]
//                               [--k 10] [--hot 64] [--io-delay-ms 20]
//                               [--io-requests 240]
//
// Two sections:
//   1. RAM-resident: every request is pure CPU (VP-tree search + verify).
//      Thread scaling here is bounded by the machine's hardware threads.
//   2. Emulated disk-resident deployment: each engine call additionally
//      blocks for --io-delay-ms, modeling the paper's DBMS configuration
//      where verification fetches sequences "from the disk" (a 2004-era kNN
//      query performs tens of random reads). Worker threads overlap that
//      blocked time, which is precisely what a serving layer buys on top of
//      the index — throughput scales with threads even on few cores.
//
// The workload is hot-key skewed: 80% of requests hammer a small hot set
// (cacheable), the rest draws uniformly from the whole corpus — mirroring
// real query-log traffic where a few head queries dominate.

#include <chrono>
#include <cstdio>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "core/s2_engine.h"
#include "querylog/corpus_generator.h"
#include "service/result_cache.h"
#include "service/scheduler.h"

using namespace s2;

namespace {

struct RunResult {
  double qps = 0.0;
  uint64_t p50 = 0, p95 = 0, p99 = 0;
  uint64_t cache_hits = 0;
  uint64_t engine_calls = 0;
};

// Pre-generated request stream: ids drawn from a hot set with probability
// `hot_fraction`, uniform otherwise.
std::vector<ts::SeriesId> MakeWorkload(size_t requests, size_t corpus_size,
                                       size_t hot_keys, double hot_fraction,
                                       uint64_t seed) {
  Rng rng(seed);
  std::vector<ts::SeriesId> ids;
  ids.reserve(requests);
  for (size_t i = 0; i < requests; ++i) {
    const double limit = hot_fraction > 0 && rng.Bernoulli(hot_fraction)
                             ? static_cast<double>(hot_keys)
                             : static_cast<double>(corpus_size);
    ids.push_back(static_cast<ts::SeriesId>(rng.Uniform(0.0, limit)));
  }
  return ids;
}

// One serving configuration over a shared read-only engine (the engine's
// const read paths are reentrant — see the contract in s2_engine.h — so all
// configurations reuse one index build).
RunResult RunOnce(const core::S2Engine& engine,
                  const std::vector<ts::SeriesId>& ids, size_t threads,
                  size_t cache_capacity, size_t k, size_t io_delay_ms) {
  service::MetricsRegistry metrics;
  std::optional<service::ResultCache> cache;
  if (cache_capacity > 0) cache.emplace(cache_capacity, &metrics);
  service::Counter* engine_calls = metrics.counter("bench_engine_calls");

  service::Scheduler::Options options;
  options.threads = threads;
  options.queue_capacity = ids.size() + 1;  // Size the window to the run.
  service::Scheduler scheduler(
      options,
      [&](const service::QueryRequest& request) {
        service::CacheKey key;
        key.kind = request.kind;
        key.id = request.id;
        key.k = request.k;
        if (cache) {
          if (auto hit = cache->Lookup(key)) return *hit;
        }
        engine_calls->Increment();
        service::QueryResponse response;
        auto neighbors = engine.SimilarTo(request.id, request.k);
        if (neighbors.ok()) {
          response.neighbors = std::move(neighbors).value();
        } else {
          response.status = neighbors.status();
        }
        if (io_delay_ms > 0) {
          // Emulated DBMS/disk round trip of the verification phase.
          std::this_thread::sleep_for(std::chrono::milliseconds(io_delay_ms));
        }
        if (cache && response.status.ok()) cache->Insert(key, response);
        return response;
      },
      &metrics);

  std::vector<service::RequestTicket> tickets;
  tickets.reserve(ids.size());
  bench::Timer timer;
  for (ts::SeriesId id : ids) {
    service::QueryRequest request;
    request.kind = service::RequestKind::kSimilarTo;
    request.id = id;
    request.k = k;
    auto ticket = scheduler.Submit(request);
    if (ticket.ok()) tickets.push_back(std::move(*ticket));
  }
  for (auto& ticket : tickets) ticket.Get();
  RunResult result;
  result.qps = static_cast<double>(tickets.size()) / timer.Seconds();
  const auto* hist = metrics.histogram("server_latency");
  result.p50 = hist->Percentile(50);
  result.p95 = hist->Percentile(95);
  result.p99 = hist->Percentile(99);
  result.cache_hits = cache ? cache->hits() : 0;
  result.engine_calls = engine_calls->value();
  scheduler.Shutdown();
  return result;
}

void PrintRow(size_t threads, size_t cache_capacity, const RunResult& r) {
  std::printf("  %-8zu %-8s %10.0f %10llu %10llu %10llu %12llu %12llu\n",
              threads, cache_capacity == 0 ? "off" : "on", r.qps,
              static_cast<unsigned long long>(r.p50),
              static_cast<unsigned long long>(r.p95),
              static_cast<unsigned long long>(r.p99),
              static_cast<unsigned long long>(r.cache_hits),
              static_cast<unsigned long long>(r.engine_calls));
}

bench::Json JsonRow(size_t threads, size_t cache_capacity, const RunResult& r) {
  return bench::Json::Object()
      .Add("threads", static_cast<uint64_t>(threads))
      .Add("cache", cache_capacity == 0 ? "off" : "on")
      .Add("qps", r.qps)
      .Add("p50_us", r.p50)
      .Add("p95_us", r.p95)
      .Add("p99_us", r.p99)
      .Add("cache_hits", r.cache_hits)
      .Add("engine_calls", r.engine_calls);
}

core::S2Engine BuildEngine(size_t num_series, size_t n_days) {
  qlog::CorpusSpec spec;
  spec.num_series = num_series;
  spec.n_days = n_days;
  spec.seed = 404;
  auto corpus = qlog::GenerateCorpus(spec);
  if (!corpus.ok()) {
    std::fprintf(stderr, "corpus: %s\n", corpus.status().ToString().c_str());
    std::exit(1);
  }
  core::S2Engine::Options options;
  auto engine = core::S2Engine::Build(std::move(corpus).ValueOrDie(), options);
  if (!engine.ok()) {
    std::fprintf(stderr, "engine: %s\n", engine.status().ToString().c_str());
    std::exit(1);
  }
  return std::move(engine).ValueOrDie();
}

}  // namespace

int main(int argc, char** argv) {
  const size_t num_series = bench::ArgSize(argc, argv, "--series", 4096);
  const size_t n_days = bench::ArgSize(argc, argv, "--days", 512);
  const size_t requests = bench::ArgSize(argc, argv, "--requests", 1000);
  const size_t k = bench::ArgSize(argc, argv, "--k", 10);
  const size_t hot_keys = bench::ArgSize(argc, argv, "--hot", 64);
  const size_t io_delay_ms = bench::ArgSize(argc, argv, "--io-delay-ms", 20);
  const size_t io_requests = bench::ArgSize(argc, argv, "--io-requests", 240);
  const std::string json_path =
      bench::ArgString(argc, argv, "--json", "BENCH_service.json");
  const size_t threads_list[] = {1, 2, 4, 8};

  const core::S2Engine engine = BuildEngine(num_series, n_days);

  bench::PrintHeader(
      "Serving layer: throughput & latency vs threads and cache\n(corpus " +
      std::to_string(num_series) + " series x " + std::to_string(n_days) +
      " days, " + std::to_string(requests) +
      " SimilarTo requests, 80% traffic on " + std::to_string(hot_keys) +
      " hot keys, " +
      std::to_string(std::thread::hardware_concurrency()) +
      " hardware thread(s))");

  const std::vector<ts::SeriesId> workload =
      MakeWorkload(requests, num_series, hot_keys, 0.8, 99);

  std::printf("\n-- Section 1: RAM-resident (pure CPU per request) --\n");
  std::printf("  %-8s %-8s %10s %10s %10s %10s %12s %12s\n", "threads",
              "cache", "qps", "p50(us)", "p95(us)", "p99(us)", "cache hits",
              "engine calls");
  double cpu_qps_1 = 0.0, cpu_qps_4 = 0.0;
  bench::Json ram_rows = bench::Json::Array();
  for (size_t cache_capacity : {size_t{0}, size_t{1024}}) {
    for (size_t threads : threads_list) {
      RunResult r =
          RunOnce(engine, workload, threads, cache_capacity, k, /*delay=*/0);
      PrintRow(threads, cache_capacity, r);
      ram_rows.Push(JsonRow(threads, cache_capacity, r));
      if (cache_capacity == 0 && threads == 1) cpu_qps_1 = r.qps;
      if (cache_capacity == 0 && threads == 4) cpu_qps_4 = r.qps;
    }
  }

  std::printf(
      "\n-- Section 2: emulated disk-resident deployment "
      "(+%zu ms blocking I/O per engine call, %zu requests) --\n",
      io_delay_ms, io_requests);
  std::printf("  %-8s %-8s %10s %10s %10s %10s %12s %12s\n", "threads",
              "cache", "qps", "p50(us)", "p95(us)", "p99(us)", "cache hits",
              "engine calls");
  const std::vector<ts::SeriesId> io_workload =
      MakeWorkload(io_requests, num_series, hot_keys, 0.8, 77);
  double io_qps_1 = 0.0, io_qps_4 = 0.0;
  bench::Json disk_rows = bench::Json::Array();
  for (size_t threads : threads_list) {
    RunResult r = RunOnce(engine, io_workload, threads, /*cache=*/0, k,
                          io_delay_ms);
    PrintRow(threads, 0, r);
    disk_rows.Push(JsonRow(threads, 0, r));
    if (threads == 1) io_qps_1 = r.qps;
    if (threads == 4) io_qps_4 = r.qps;
  }
  // With the cache on, hot keys skip both the search CPU and the emulated
  // I/O stall — the two effects compound.
  for (size_t threads : threads_list) {
    RunResult r = RunOnce(engine, io_workload, threads, /*cache=*/1024, k,
                          io_delay_ms);
    PrintRow(threads, 1024, r);
    disk_rows.Push(JsonRow(threads, 1024, r));
  }

  std::printf("\n  speedup 4 threads vs 1, RAM-resident (cache off):  %.2fx\n",
              cpu_qps_4 / cpu_qps_1);
  std::printf("  speedup 4 threads vs 1, disk-resident (cache off): %.2fx\n",
              io_qps_4 / io_qps_1);
  std::printf(
      "  (RAM-resident scaling is bounded by hardware threads; the\n"
      "   disk-resident section shows the scheduler overlapping blocked\n"
      "   time. cache-on rows: engine calls < requests proves hot-key hits\n"
      "   skip the VP-tree and sequence store entirely)\n");

  bench::WriteJsonFile(
      json_path,
      bench::Json::Object()
          .Add("bench", "bench_service")
          .Add("spec",
               bench::Json::Object()
                   .Add("series", static_cast<uint64_t>(num_series))
                   .Add("days", static_cast<uint64_t>(n_days))
                   .Add("requests", static_cast<uint64_t>(requests))
                   .Add("k", static_cast<uint64_t>(k))
                   .Add("hot_keys", static_cast<uint64_t>(hot_keys))
                   .Add("io_delay_ms", static_cast<uint64_t>(io_delay_ms))
                   .Add("io_requests", static_cast<uint64_t>(io_requests))
                   .Add("hardware_threads",
                        static_cast<uint64_t>(
                            std::thread::hardware_concurrency())))
          .Add("ram_resident", std::move(ram_rows))
          .Add("disk_resident", std::move(disk_rows))
          .Add("speedup_4v1_ram", cpu_qps_4 / cpu_qps_1)
          .Add("speedup_4v1_disk", io_qps_4 / io_qps_1));
  return 0;
}
