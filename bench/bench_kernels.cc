// Kernel baselines for the simd layer (DESIGN.md §12): times every backend
// compiled into this binary against the scalar reference on the hot
// distance/DSP kernels, prints a speedup table, and records the rows in
// BENCH_kernels.json so the perf trajectory of the vectorized paths is
// tracked alongside the serving benches. Correctness is not re-checked
// here — tests/simd_kernel_test.cc proves every backend bit-identical —
// but each measurement folds its kernel results into a checksum so the
// compiler cannot discard the work.

#include <cstdio>
#include <limits>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "common/rng.h"
#include "simd/kernels.h"
#include "simd/simd.h"

namespace s2 {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// One timed kernel: runs `fn(reps)` (which must consume its results into a
// sink) and returns the best-of-3 seconds per rep.
template <typename Fn>
double TimeBest(size_t reps, Fn&& fn) {
  double best = kInf;
  for (int trial = 0; trial < 3; ++trial) {
    bench::Timer timer;
    fn(reps);
    best = std::min(best, timer.Seconds() / static_cast<double>(reps));
  }
  return best;
}

struct KernelCase {
  const char* name;
  // Seconds per call of this kernel from `table` at length n.
  double (*run)(const simd::KernelTable& table, size_t n, size_t reps);
};

volatile double g_sink = 0.0;

// Shared inputs, sized for the largest n and reused across backends so
// every backend reads identical memory. Slot 2 is the lower envelope,
// slot 3 the upper (lower + nonnegative gap).
std::vector<double>& Buf(int which, size_t n) {
  static std::vector<double> bufs[4];
  std::vector<double>& b = bufs[which];
  if (b.size() < n) {
    Rng rng(1000 + which);
    b.resize(n);
    for (double& v : b) v = rng.Normal(0.0, 1.0);
    if (which == 3) {
      const std::vector<double>& lo = Buf(2, n);
      for (size_t i = 0; i < n; ++i) b[i] = lo[i] + std::abs(b[i]);
    }
  }
  return b;
}

double RunSumSqDiff(const simd::KernelTable& t, size_t n, size_t reps) {
  const double* a = Buf(0, n).data();
  const double* b = Buf(1, n).data();
  return TimeBest(reps, [&](size_t r) {
    double acc = 0.0;
    for (size_t i = 0; i < r; ++i) acc += t.sum_sq_diff(a, b, n);
    g_sink = acc;
  });
}

double RunSumSqDiffAbandon(const simd::KernelTable& t, size_t n, size_t reps) {
  const double* a = Buf(0, n).data();
  const double* b = Buf(1, n).data();
  return TimeBest(reps, [&](size_t r) {
    double acc = 0.0;
    // Infinite limit: the kernel scans every element, so this measures the
    // full-distance throughput the index verification path sees on
    // accepted candidates (the worst case; abandons only get cheaper).
    for (size_t i = 0; i < r; ++i) acc += t.sum_sq_diff_abandon(a, b, n, kInf);
    g_sink = acc;
  });
}

double RunLbKeogh(const simd::KernelTable& t, size_t n, size_t reps) {
  const double* lo = Buf(2, n).data();
  const double* hi = Buf(3, n).data();
  const double* c = Buf(0, n).data();
  return TimeBest(reps, [&](size_t r) {
    double acc = 0.0;
    for (size_t i = 0; i < r; ++i)
      acc += t.lb_keogh_sq_abandon(lo, hi, c, n, kInf);
    g_sink = acc;
  });
}

double RunStandardize(const simd::KernelTable& t, size_t n, size_t reps) {
  const double* x = Buf(0, n).data();
  static std::vector<double> out;
  if (out.size() < n) out.resize(n);
  return TimeBest(reps, [&](size_t r) {
    for (size_t i = 0; i < r; ++i) t.standardize(x, n, 0.1, 1.7, out.data());
    g_sink = out[n - 1];
  });
}

double RunSum(const simd::KernelTable& t, size_t n, size_t reps) {
  const double* x = Buf(0, n).data();
  return TimeBest(reps, [&](size_t r) {
    double acc = 0.0;
    for (size_t i = 0; i < r; ++i) acc += t.sum(x, n);
    g_sink = acc;
  });
}

const KernelCase kCases[] = {
    {"sum", RunSum},
    {"sum_sq_diff", RunSumSqDiff},
    {"euclidean_early_abandon", RunSumSqDiffAbandon},
    {"lb_keogh", RunLbKeogh},
    {"standardize", RunStandardize},
};

}  // namespace
}  // namespace s2

int main(int argc, char** argv) {
  using namespace s2;
  const std::string json_path =
      bench::ArgString(argc, argv, "--json", "BENCH_kernels.json");
  const size_t max_reps = bench::ArgSize(argc, argv, "--reps", 200000);

  const std::vector<simd::Isa> isas = simd::AvailableIsas();
  bench::PrintHeader("simd kernel baselines: scalar vs " +
                     std::to_string(isas.size() - 1) +
                     " vectorized backend(s), ns per call");

  bench::Json rows = bench::Json::Array();
  bool speedup_bar_met = true;
  for (const KernelCase& kc : kCases) {
    std::printf("\n%s\n", kc.name);
    std::printf("  %8s", "n");
    for (simd::Isa isa : isas) std::printf(" %14s", simd::IsaName(isa));
    std::printf(" %10s\n", "speedup");
    for (size_t n : {64u, 128u, 256u, 512u, 1024u, 4096u}) {
      const size_t reps = std::max<size_t>(1000, max_reps * 64 / n);
      double scalar_ns = 0.0;
      std::printf("  %8zu", n);
      bench::Json row = bench::Json::Object();
      row.Add("kernel", kc.name).Add("n", static_cast<uint64_t>(n));
      double best_speedup = 1.0;
      for (simd::Isa isa : isas) {
        const double ns = kc.run(*simd::TableFor(isa), n, reps) * 1e9;
        if (isa == simd::Isa::kScalar) scalar_ns = ns;
        std::printf(" %12.1fns", ns);
        row.Add(std::string(simd::IsaName(isa)) + "_ns", ns);
        best_speedup = std::max(best_speedup, scalar_ns / ns);
      }
      std::printf(" %9.2fx\n", best_speedup);
      row.Add("speedup_best", best_speedup);
      rows.Push(std::move(row));
      // The ISSUE acceptance bar: >= 2x on the early-abandon Euclidean and
      // LB_Keogh kernels at window >= 128 when a vector backend exists.
      if (isas.size() > 1 && n >= 128 &&
          (std::string(kc.name) == "euclidean_early_abandon" ||
           std::string(kc.name) == "lb_keogh")) {
        if (best_speedup < 2.0) speedup_bar_met = false;
      }
    }
  }

  bench::Json available = bench::Json::Array();
  for (simd::Isa isa : isas) available.Push(bench::Json::String(simd::IsaName(isa)));
  bench::WriteJsonFile(
      json_path,
      bench::Json::Object()
          .Add("bench", "bench_kernels")
          .Add("contract",
               "all backends bit-identical (tests/simd_kernel_test.cc); "
               "rows record ns/call, best-of-3")
          .Add("backends", std::move(available))
          .Add("active_default", simd::IsaName(simd::ActiveIsa()))
          .Add("rows", std::move(rows))
          .Add("speedup_2x_bar",
               bench::Json::String(isas.size() == 1   ? "SKIP (scalar only)"
                                   : speedup_bar_met ? "PASS"
                                                     : "MISS")));
  std::printf("\n  2x speedup bar (abandon kernels, n >= 128): %s\n",
              isas.size() == 1 ? "SKIP" : speedup_bar_met ? "PASS" : "MISS");
  return 0;
}
