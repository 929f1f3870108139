// Google-benchmark microbenchmarks for the performance-critical kernels:
// FFT, bound computation, B+-tree operations and burst detection. On top
// of the normal console run, a reporter shim records every run into
// BENCH_micro.json through the bench::Json emitter (override the path
// with --json <path>).

#include <benchmark/benchmark.h>

#include <cmath>
#include <numbers>
#include <string>

#include "bench/bench_util.h"
#include "burst/burst_detector.h"
#include "common/rng.h"
#include "dsp/fft.h"
#include "dsp/stats.h"
#include "repr/bounds.h"
#include "repr/compressed.h"
#include "repr/half_spectrum.h"
#include "storage/bptree.h"

namespace s2 {
namespace {

std::vector<double> RandomSeries(size_t n, uint64_t seed) {
  Rng rng(seed);
  std::vector<double> x(n);
  for (size_t i = 0; i < n; ++i) {
    x[i] = std::sin(2.0 * std::numbers::pi * static_cast<double>(i) / 7.0) +
           rng.Normal(0, 0.5);
  }
  return dsp::Standardize(x);
}

void BM_FftPowerOfTwo(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const std::vector<double> x = RandomSeries(n, 1);
  for (auto _ : state) {
    auto spectrum = dsp::ForwardDft(x);
    benchmark::DoNotOptimize(spectrum);
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) *
                          static_cast<int64_t>(n));
}
BENCHMARK(BM_FftPowerOfTwo)->Arg(256)->Arg(1024)->Arg(4096)->Arg(16384);

void BM_FftBluestein(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const std::vector<double> x = RandomSeries(n, 2);
  for (auto _ : state) {
    auto spectrum = dsp::ForwardDft(x);
    benchmark::DoNotOptimize(spectrum);
  }
}
BENCHMARK(BM_FftBluestein)->Arg(365)->Arg(1000)->Arg(1096);

void BM_DirectDft(benchmark::State& state) {
  const size_t n = static_cast<size_t>(state.range(0));
  const std::vector<double> x = RandomSeries(n, 3);
  for (auto _ : state) {
    auto spectrum = dsp::ForwardDftDirect(x);
    benchmark::DoNotOptimize(spectrum);
  }
}
BENCHMARK(BM_DirectDft)->Arg(256)->Arg(1024);

void BM_ComputeBounds(benchmark::State& state) {
  const size_t c = static_cast<size_t>(state.range(0));
  const std::vector<double> a = RandomSeries(1024, 4);
  const std::vector<double> b = RandomSeries(1024, 5);
  auto query = repr::HalfSpectrum::FromSeries(a);
  auto target = repr::HalfSpectrum::FromSeries(b);
  auto compressed = repr::CompressedSpectrum::Compress(
      *target, repr::ReprKind::kBestKError, c);
  const repr::QuerySpectrum prepared(*query);  // Per query, not per object.
  for (auto _ : state) {
    auto bounds = repr::ComputeBounds(prepared, *compressed,
                                      repr::BoundMethod::kBestMinError);
    benchmark::DoNotOptimize(bounds);
  }
}
BENCHMARK(BM_ComputeBounds)->Arg(8)->Arg(16)->Arg(32);

void BM_EuclideanEarlyAbandon(benchmark::State& state) {
  const std::vector<double> a = RandomSeries(1024, 6);
  const std::vector<double> b = RandomSeries(1024, 7);
  for (auto _ : state) {
    const double d = dsp::EuclideanEarlyAbandon(a, b, 1.0);  // Abandons early.
    benchmark::DoNotOptimize(d);
  }
}
BENCHMARK(BM_EuclideanEarlyAbandon);

void BM_BPlusTreeInsert(benchmark::State& state) {
  Rng rng(8);
  for (auto _ : state) {
    state.PauseTiming();
    storage::BPlusTree<int32_t, uint32_t> tree;
    state.ResumeTiming();
    for (uint32_t i = 0; i < 10000; ++i) {
      tree.Insert(static_cast<int32_t>(rng.UniformInt(0, 100000)), i);
    }
    benchmark::DoNotOptimize(tree.size());
  }
  state.SetItemsProcessed(static_cast<int64_t>(state.iterations()) * 10000);
}
BENCHMARK(BM_BPlusTreeInsert);

void BM_BPlusTreeScan(benchmark::State& state) {
  Rng rng(9);
  storage::BPlusTree<int32_t, uint32_t> tree;
  for (uint32_t i = 0; i < 100000; ++i) {
    tree.Insert(static_cast<int32_t>(rng.UniformInt(0, 1000000)), i);
  }
  for (auto _ : state) {
    size_t count = 0;
    tree.Scan(400000, 600000, [&count](int32_t, uint32_t) {
      ++count;
      return true;
    });
    benchmark::DoNotOptimize(count);
  }
}
BENCHMARK(BM_BPlusTreeScan);

void BM_BurstDetection(benchmark::State& state) {
  const std::vector<double> x = RandomSeries(1024, 10);
  const burst::BurstDetector detector = burst::BurstDetector::LongTerm();
  for (auto _ : state) {
    auto regions = detector.Detect(x);
    benchmark::DoNotOptimize(regions);
  }
}
BENCHMARK(BM_BurstDetection);

// Console output as usual, plus one bench::Json row per finished run.
class JsonTeeReporter : public benchmark::ConsoleReporter {
 public:
  JsonTeeReporter() : rows_(bench::Json::Array()) {}

  void ReportRuns(const std::vector<Run>& reports) override {
    for (const Run& run : reports) {
      if (run.error_occurred) continue;
      bench::Json row = bench::Json::Object()
                            .Add("name", bench::Json::String(run.benchmark_name()))
                            .Add("iterations", static_cast<uint64_t>(run.iterations))
                            .Add("real_ns", run.GetAdjustedRealTime())
                            .Add("cpu_ns", run.GetAdjustedCPUTime());
      const auto items = run.counters.find("items_per_second");
      if (items != run.counters.end()) {
        row.Add("items_per_second", static_cast<double>(items->second));
      }
      rows_.Push(std::move(row));
    }
    ConsoleReporter::ReportRuns(reports);
  }

  bench::Json TakeRows() { return std::move(rows_); }

 private:
  bench::Json rows_;
};

}  // namespace
}  // namespace s2

int main(int argc, char** argv) {
  const std::string json_path =
      s2::bench::ArgString(argc, argv, "--json", "BENCH_micro.json");
  benchmark::Initialize(&argc, argv);
  s2::JsonTeeReporter reporter;
  benchmark::RunSpecifiedBenchmarks(&reporter);
  s2::bench::WriteJsonFile(json_path,
                           s2::bench::Json::Object()
                               .Add("bench", "bench_micro")
                               .Add("rows", reporter.TakeRows()));
  return 0;
}
