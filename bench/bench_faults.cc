// Fault-injection benchmark: serving-path latency and availability under
// transient disk faults, with and without the degradation ladder.
//
//   ./build/bench/bench_faults [--series 512] [--days 256] [--requests 400]
//                              [--k 10]
//
// Section 1 sweeps the per-read transient-fault rate (0%, 0.1%, 1%, 5%)
// against a disk-resident engine on an in-memory fault-injecting
// filesystem, once with graceful degradation on (retry -> exact-scan
// fallback) and once with it off (failures surface to the caller). Reported
// per row: success rate (non-error answers), degraded-answer fraction,
// retry counters and latency percentiles.
//
// Section 2 takes the disk fully down (100% fault rate) with a small
// circuit breaker and compares the latency of degraded answers (full retry
// ladder + exact scan) against shed requests once the breaker opens — the
// "fail fast" payoff.

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <memory>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "io/fault_env.h"
#include "io/mem_env.h"
#include "querylog/corpus_generator.h"
#include "service/s2_server.h"
#include "shard/sharded_engine.h"

using namespace s2;

namespace {

struct Config {
  size_t series = 512;
  size_t days = 256;
  size_t requests = 400;
  size_t k = 10;
};

struct Row {
  double fault_rate = 0.0;
  size_t ok_primary = 0;
  size_t ok_degraded = 0;
  size_t errors = 0;
  uint64_t retries = 0;
  uint64_t giveups = 0;
  std::vector<uint64_t> latencies_us;
};

uint64_t Percentile(std::vector<uint64_t> v, double p) {
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  const size_t i = static_cast<size_t>(p * static_cast<double>(v.size() - 1));
  return v[i];
}

struct Deployment {
  io::MemEnv base;
  std::unique_ptr<io::FaultInjectingEnv> env;
  std::unique_ptr<service::S2Server> server;
};

// Builds a disk-resident engine through a (currently fault-free) injecting
// env and wraps it in a server with the result cache off, so every request
// exercises the disk path.
std::unique_ptr<Deployment> MakeDeployment(const Config& config, bool degrade,
                                           resilience::CircuitBreaker::Options breaker) {
  auto d = std::make_unique<Deployment>();
  d->env = std::make_unique<io::FaultInjectingEnv>(&d->base, io::FaultPlan{});
  qlog::CorpusSpec spec;
  spec.num_series = config.series;
  spec.n_days = config.days;
  spec.seed = 97;
  auto corpus = qlog::GenerateCorpus(spec);
  if (!corpus.ok()) {
    std::fprintf(stderr, "corpus: %s\n", corpus.status().ToString().c_str());
    return nullptr;
  }
  shard::ShardedEngine::Options options;
  options.num_shards = 1;
  options.engine.index.budget_c = 8;
  options.engine.disk_store_path = "store.bin";
  options.engine.env = d->env.get();
  options.engine.retry.base_backoff = std::chrono::microseconds(20);
  options.engine.retry.max_backoff = std::chrono::microseconds(200);
  auto engine =
      shard::ShardedEngine::Build(std::move(corpus).ValueOrDie(), options);
  if (!engine.ok()) {
    std::fprintf(stderr, "engine: %s\n", engine.status().ToString().c_str());
    return nullptr;
  }
  service::S2Server::Options server_options;
  server_options.scheduler.threads = 2;
  server_options.cache_capacity = 0;
  server_options.breaker = breaker;
  server_options.degrade_on_failure = degrade;
  d->server =
      service::S2Server::Create(std::move(engine).ValueOrDie(), server_options);
  return d;
}

Row RunRow(Deployment& d, const Config& config, double fault_rate) {
  io::FaultPlan plan;
  plan.read_fault_rate = fault_rate;
  plan.seed = 1234;
  d.env->set_plan(plan);
  const uint64_t retries_before =
      d.server->metrics().counter("server_retry_attempts")->value();
  const uint64_t giveups_before =
      d.server->metrics().counter("server_retry_giveups")->value();
  Row row;
  row.fault_rate = fault_rate;
  for (size_t i = 0; i < config.requests; ++i) {
    service::QueryRequest request;
    request.kind = service::RequestKind::kSimilarTo;
    request.id = static_cast<ts::SeriesId>(i % config.series);
    request.k = config.k;
    const auto start = std::chrono::steady_clock::now();
    service::QueryResponse response = d.server->Execute(request);
    const auto elapsed = std::chrono::steady_clock::now() - start;
    row.latencies_us.push_back(static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(elapsed).count()));
    if (!response.status.ok()) {
      ++row.errors;
    } else if (response.degraded) {
      ++row.ok_degraded;
    } else {
      ++row.ok_primary;
    }
  }
  row.retries =
      d.server->metrics().counter("server_retry_attempts")->value() -
      retries_before;
  row.giveups =
      d.server->metrics().counter("server_retry_giveups")->value() -
      giveups_before;
  return row;
}

void PrintRow(const Row& row, size_t requests) {
  const double success =
      100.0 * static_cast<double>(requests - row.errors) /
      static_cast<double>(requests);
  const double degraded =
      100.0 * static_cast<double>(row.ok_degraded) / static_cast<double>(requests);
  std::printf(
      "  %5.1f%% | %7.2f%% | %8.2f%% | %7llu | %7llu | %6llu | %6llu | %6llu\n",
      100.0 * row.fault_rate, success, degraded,
      static_cast<unsigned long long>(row.retries),
      static_cast<unsigned long long>(row.giveups),
      static_cast<unsigned long long>(Percentile(row.latencies_us, 0.50)),
      static_cast<unsigned long long>(Percentile(row.latencies_us, 0.95)),
      static_cast<unsigned long long>(Percentile(row.latencies_us, 0.99)));
}

bench::Json JsonRow(const Row& row, size_t requests) {
  const double success = 100.0 * static_cast<double>(requests - row.errors) /
                         static_cast<double>(requests);
  const double degraded = 100.0 * static_cast<double>(row.ok_degraded) /
                          static_cast<double>(requests);
  return bench::Json::Object()
      .Add("fault_rate", row.fault_rate)
      .Add("success_pct", success)
      .Add("degraded_pct", degraded)
      .Add("retries", row.retries)
      .Add("giveups", row.giveups)
      .Add("p50_us", Percentile(row.latencies_us, 0.50))
      .Add("p95_us", Percentile(row.latencies_us, 0.95))
      .Add("p99_us", Percentile(row.latencies_us, 0.99));
}

resilience::CircuitBreaker::Options HugeThreshold() {
  resilience::CircuitBreaker::Options breaker;
  breaker.failure_threshold = 1u << 30;  // Sections 1 rows never shed.
  return breaker;
}

}  // namespace

int main(int argc, char** argv) {
  Config config;
  for (int i = 1; i + 1 < argc; i += 2) {
    if (!std::strcmp(argv[i], "--series")) config.series = std::stoul(argv[i + 1]);
    if (!std::strcmp(argv[i], "--days")) config.days = std::stoul(argv[i + 1]);
    if (!std::strcmp(argv[i], "--requests"))
      config.requests = std::stoul(argv[i + 1]);
    if (!std::strcmp(argv[i], "--k")) config.k = std::stoul(argv[i + 1]);
  }
  const std::string json_path =
      bench::ArgString(argc, argv, "--json", "BENCH_faults.json");
  const std::vector<double> rates = {0.0, 0.001, 0.01, 0.05};

  std::printf("== bench_faults: %zu series x %zu days, %zu requests/row ==\n\n",
              config.series, config.days, config.requests);

  bench::Json ladder_on = bench::Json::Array();
  bench::Json ladder_off = bench::Json::Array();
  for (const bool degrade : {true, false}) {
    auto d = MakeDeployment(config, degrade, HugeThreshold());
    if (!d) return 1;
    std::printf("-- degradation ladder %s --\n", degrade ? "ON" : "OFF");
    std::printf(
        "  fault  | success  | degraded  | retries | giveups |    p50 |    "
        "p95 |    p99 (us)\n");
    for (const double rate : rates) {
      const Row row = RunRow(*d, config, rate);
      PrintRow(row, config.requests);
      (degrade ? ladder_on : ladder_off).Push(JsonRow(row, config.requests));
    }
    std::printf("\n");
  }

  // Section 2: disk fully down; breaker turns retry storms into fast sheds.
  resilience::CircuitBreaker::Options small_breaker;
  small_breaker.failure_threshold = 5;
  small_breaker.cooldown = std::chrono::milliseconds(60'000);
  auto d = MakeDeployment(config, /*degrade=*/true, small_breaker);
  if (!d) return 1;
  io::FaultPlan outage;
  outage.read_fault_rate = 1.0;
  d->env->set_plan(outage);
  std::vector<uint64_t> degraded_us, shed_us;
  for (size_t i = 0; i < config.requests; ++i) {
    service::QueryRequest request;
    request.kind = service::RequestKind::kSimilarTo;
    request.id = static_cast<ts::SeriesId>(i % config.series);
    request.k = config.k;
    const auto start = std::chrono::steady_clock::now();
    service::QueryResponse response = d->server->Execute(request);
    const auto elapsed = std::chrono::steady_clock::now() - start;
    const uint64_t us = static_cast<uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(elapsed).count());
    if (response.status.code() == StatusCode::kUnavailable) {
      shed_us.push_back(us);
    } else if (response.status.ok() && response.degraded) {
      degraded_us.push_back(us);
    }
  }
  std::printf("-- total outage (100%% fault rate), breaker threshold 5 --\n");
  std::printf("  degraded answers: %5zu  p50 %6llu us  p99 %6llu us\n",
              degraded_us.size(),
              static_cast<unsigned long long>(Percentile(degraded_us, 0.50)),
              static_cast<unsigned long long>(Percentile(degraded_us, 0.99)));
  std::printf("  shed (breaker):   %5zu  p50 %6llu us  p99 %6llu us\n",
              shed_us.size(),
              static_cast<unsigned long long>(Percentile(shed_us, 0.50)),
              static_cast<unsigned long long>(Percentile(shed_us, 0.99)));

  bench::WriteJsonFile(
      json_path,
      bench::Json::Object()
          .Add("bench", "bench_faults")
          .Add("spec",
               bench::Json::Object()
                   .Add("series", static_cast<uint64_t>(config.series))
                   .Add("days", static_cast<uint64_t>(config.days))
                   .Add("requests", static_cast<uint64_t>(config.requests))
                   .Add("k", static_cast<uint64_t>(config.k)))
          .Add("ladder_on", std::move(ladder_on))
          .Add("ladder_off", std::move(ladder_off))
          .Add("outage",
               bench::Json::Object()
                   .Add("degraded_answers",
                        static_cast<uint64_t>(degraded_us.size()))
                   .Add("degraded_p50_us", Percentile(degraded_us, 0.50))
                   .Add("degraded_p99_us", Percentile(degraded_us, 0.99))
                   .Add("shed", static_cast<uint64_t>(shed_us.size()))
                   .Add("shed_p50_us", Percentile(shed_us, 0.50))
                   .Add("shed_p99_us", Percentile(shed_us, 0.99))));
  return 0;
}
