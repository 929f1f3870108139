// Section 8 future work, realized: exact k-NN under dynamic time warping.
// The library search (dtw::DtwKnnSearch) seeds its radius with the exact
// Euclidean k-th distance (DTW <= ED), filters with LB_Keogh and runs the
// early-abandoning band DP on the rest, several candidates at once in the
// SIMD lanes of simd::DtwLanes. This bench prices it against a plain
// banded-DTW scan (one scalar DP per row) and measures the paper's own
// proposal — the compressed representations' linear-cost upper bounds — as
// a seed.
//
//   ./build/bench/bench_dtw [--db 2048] [--days 512] [--queries 20]
//                           [--repeats 5] [--s2bench-db 16384]
//                           [--json BENCH_dtw.json]
//
// Configurations: `--db` x `--days` (corpus seed 81) at w = 8 and 32 with
// k = 1, and the s2bench similarity geometry: `--s2bench-db` (2^14) x 256,
// w = 16, k = 10, corpus seed 2004. Held-out queries. For each:
//  1. thread CPU per query of the plain scan (every row's full banded DP,
//     computed here) and of the library search: median [p25, p75] over
//     `--repeats` passes over the queries. The bench fails unless both
//     return the same k distances, bit for bit;
//  2. the library's work per query: DPs run, lane-DP steps, lane occupancy
//     (DP rows / (steps x lanes)), LB_Keogh bounds, DP skip share;
//  3. per query, the k-th compressed BestMinError upper bound
//     (repr::ComputeBounds over best-k-error features, budget 16), the k-th
//     Euclidean distance (the library's seed) and the true k-th DTW.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "bench/bench_util.h"
#include "dsp/stats.h"
#include "dtw/dtw.h"
#include "dtw/dtw_search.h"
#include "index/knn.h"
#include "querylog/corpus_generator.h"
#include "repr/bounds.h"
#include "repr/compressed.h"
#include "repr/half_spectrum.h"
#include "simd/simd.h"

namespace s2 {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

struct Config {
  std::string label;
  size_t db;
  size_t days;
  uint64_t corpus_seed;
  size_t window;
  size_t k;
};

// k-th smallest of `values` (+inf when there are fewer than k).
double KthSmallest(std::vector<double> values, size_t k) {
  if (values.size() < k) return kInf;
  std::nth_element(values.begin(), values.begin() + (k - 1), values.end());
  return values[k - 1];
}

// The plain scan: every row's complete banded DP, no pruning.
std::vector<index::Neighbor> PlainScan(const std::vector<std::vector<double>>& rows,
                                       const std::vector<double>& query,
                                       size_t window, size_t k,
                                       std::vector<double>* scratch) {
  index::BestList best(k);
  for (ts::SeriesId id = 0; id < rows.size(); ++id) {
    best.Offer(id, std::sqrt(*dtw::DtwDistanceEarlyAbandonSq(rows[id], query,
                                                             window, kInf,
                                                             scratch)));
  }
  return std::move(best).Take();
}

bool SameDistances(const std::vector<index::Neighbor>& a,
                   const std::vector<index::Neighbor>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].distance != b[i].distance) return false;
  }
  return true;
}

}  // namespace
}  // namespace s2

int main(int argc, char** argv) {
  using namespace s2;
  const size_t db = bench::ArgSize(argc, argv, "--db", 2048);
  const size_t n_days = bench::ArgSize(argc, argv, "--days", 512);
  const size_t n_queries = bench::ArgSize(argc, argv, "--queries", 20);
  const size_t repeats = bench::ArgSize(argc, argv, "--repeats", 5);
  const size_t s2bench_db = bench::ArgSize(argc, argv, "--s2bench-db", 16384);
  const std::string json_path =
      bench::ArgString(argc, argv, "--json", "BENCH_dtw.json");
  if (db == 0 || n_days == 0 || n_queries == 0 || repeats == 0 ||
      s2bench_db == 0) {
    std::fprintf(stderr, "bench_dtw: every size flag must be > 0\n");
    return 1;
  }

  const std::vector<Config> configs = {
      {"paper scale", db, n_days, 81, 8, 1},
      {"paper scale", db, n_days, 81, 32, 1},
      {"s2bench similarity", s2bench_db, 256, 2004, 16, 10},
  };

  bench::PrintHeader(
      "Section 8 extension: exact DTW k-NN, Euclidean seed + LB_Keogh + "
      "band DP, vs a plain banded scan");
  std::printf("queries = %zu, repeats = %zu, simd = %s, hardware threads = %u\n",
              n_queries, repeats, simd::IsaName(simd::ActiveIsa()),
              std::thread::hardware_concurrency());

  bench::Json json_configs = bench::Json::Array();
  for (const Config& config : configs) {
    qlog::CorpusSpec spec;
    spec.num_series = config.db;
    spec.n_days = config.days;
    spec.seed = config.corpus_seed;
    auto corpus = qlog::GenerateCorpus(spec);
    auto held_out = qlog::GenerateQueries(spec, n_queries);
    if (!corpus.ok() || !held_out.ok()) return 1;
    const auto rows = bench::StandardizedRows(*corpus);
    std::vector<std::vector<double>> queries;
    for (const auto& q : *held_out) queries.push_back(dsp::Standardize(q.values));
    const double q_count = static_cast<double>(queries.size());

    std::printf("\n%s: %zu series x %zu days, corpus seed %llu, w = %zu, k = %zu\n",
                config.label.c_str(), config.db, config.days,
                static_cast<unsigned long long>(config.corpus_seed),
                config.window, config.k);

    // 1. Thread CPU per query, both paths, over the repeats.
    std::vector<std::vector<index::Neighbor>> truth(queries.size());
    std::vector<double> scan_ms;
    std::vector<double> search_ms;
    dtw::DtwKnnSearch::SearchStats totals;
    const dtw::DtwKnnSearch search({config.window});
    std::vector<double> scratch;
    for (size_t r = 0; r < repeats; ++r) {
      double start = bench::ThreadCpuSeconds();
      for (size_t q = 0; q < queries.size(); ++q) {
        truth[q] = PlainScan(rows, queries[q], config.window, config.k, &scratch);
      }
      scan_ms.push_back((bench::ThreadCpuSeconds() - start) * 1e3 / q_count);

      start = bench::ThreadCpuSeconds();
      for (size_t q = 0; q < queries.size(); ++q) {
        dtw::DtwKnnSearch::SearchStats stats;
        auto got = search.Search(queries[q], config.k, rows, nullptr, &stats);
        if (!got.ok() || !SameDistances(*got, truth[q])) {
          std::fprintf(stderr, "bench_dtw: search disagrees with the scan on "
                               "query %zu\n", q);
          return 1;
        }
        if (r == 0) {
          totals.dtw_computed += stats.dtw_computed;
          totals.dp_steps += stats.dp_steps;
          totals.dp_rows += stats.dp_rows;
          totals.lb_keogh_computed += stats.lb_keogh_computed;
          totals.lb_keogh_skips += stats.lb_keogh_skips;
        }
      }
      search_ms.push_back((bench::ThreadCpuSeconds() - start) * 1e3 / q_count);
    }
    const bench::Spread scan = bench::Quartiles(scan_ms);
    const bench::Spread searched = bench::Quartiles(search_ms);
    const double dtw_per_query = static_cast<double>(totals.dtw_computed) / q_count;
    const double steps_per_query = static_cast<double>(totals.dp_steps) / q_count;
    const double occupancy =
        totals.dp_steps == 0
            ? 0.0
            : static_cast<double>(totals.dp_rows) /
                  (static_cast<double>(totals.dp_steps) *
                   static_cast<double>(simd::DtwLanes::kLanes));
    const double lbk_per_query =
        static_cast<double>(totals.lb_keogh_computed) / q_count;
    const double skip = 1.0 - dtw_per_query / static_cast<double>(rows.size());
    std::printf("  %-22s %10s %10s %10s\n", "thread CPU ms/query", "median",
                "p25", "p75");
    std::printf("  %-22s %10.2f %10.2f %10.2f\n", "plain banded scan",
                scan.median, scan.p25, scan.p75);
    std::printf("  %-22s %10.2f %10.2f %10.2f   (%.1fx faster)\n",
                "library search", searched.median, searched.p25, searched.p75,
                scan.median / searched.median);
    std::printf("  work per query: %.1f DPs in %.0f steps of %zu lanes "
                "(%.1f%% of lane-rows busy), %.1f LB_Keogh, DP skipped for "
                "%.1f%% of rows\n",
                dtw_per_query, steps_per_query, simd::DtwLanes::kLanes,
                100.0 * occupancy, lbk_per_query, 100.0 * skip);

    // 3. The seeds, per query: k-th compressed upper bound, k-th ED, k-th DTW.
    std::vector<repr::CompressedSpectrum> features;
    features.reserve(rows.size());
    for (const auto& row : rows) {
      auto spectrum = repr::HalfSpectrum::FromSeries(row);
      if (!spectrum.ok()) return 1;
      auto feature = repr::CompressedSpectrum::Compress(
          *spectrum, repr::ReprKind::kBestKError, 16);
      if (!feature.ok()) return 1;
      features.push_back(std::move(feature).ValueOrDie());
    }
    bench::Json json_seeds = bench::Json::Array();
    std::vector<double> ub_over_dtw;
    std::vector<double> ed_over_dtw;
    for (size_t q = 0; q < queries.size(); ++q) {
      auto spectrum = repr::HalfSpectrum::FromSeries(queries[q]);
      if (!spectrum.ok()) return 1;
      const repr::QuerySpectrum prepared(*spectrum);
      std::vector<double> ubs;
      std::vector<double> eds;
      for (size_t id = 0; id < rows.size(); ++id) {
        auto bounds = repr::ComputeBounds(prepared, features[id],
                                          repr::BoundMethod::kBestMinError);
        if (!bounds.ok()) return 1;
        ubs.push_back(bounds->upper);
        eds.push_back(std::sqrt(simd::SumSqDiff(queries[q].data(),
                                                rows[id].data(),
                                                queries[q].size())));
      }
      const double ub = KthSmallest(std::move(ubs), config.k);
      const double ed = KthSmallest(std::move(eds), config.k);
      const double kth_dtw = truth[q].back().distance;
      ub_over_dtw.push_back(ub / kth_dtw);
      ed_over_dtw.push_back(ed / kth_dtw);
      json_seeds.Push(bench::Json::Object()
                          .Add("kth_compressed_ub", ub)
                          .Add("kth_ed", ed)
                          .Add("kth_dtw", kth_dtw));
    }
    const bench::Spread ub_ratio = bench::Quartiles(ub_over_dtw);
    const bench::Spread ed_ratio = bench::Quartiles(ed_over_dtw);
    std::printf("  seed / true k-th DTW: compressed UB %.2f [%.2f, %.2f], "
                "Euclidean %.2f [%.2f, %.2f]\n",
                ub_ratio.median, ub_ratio.p25, ub_ratio.p75, ed_ratio.median,
                ed_ratio.p25, ed_ratio.p75);

    json_configs.Push(
        bench::Json::Object()
            .Add("label", config.label.c_str())
            .Add("db", static_cast<uint64_t>(config.db))
            .Add("days", static_cast<uint64_t>(config.days))
            .Add("corpus_seed", static_cast<uint64_t>(config.corpus_seed))
            .Add("window", static_cast<uint64_t>(config.window))
            .Add("k", static_cast<uint64_t>(config.k))
            .Add("scan_thread_cpu_ms", bench::SpreadJson(scan))
            .Add("search_thread_cpu_ms", bench::SpreadJson(searched))
            .Add("dtw_per_query", dtw_per_query)
            .Add("dp_steps_per_query", steps_per_query)
            .Add("lane_occupancy", occupancy)
            .Add("lb_keogh_per_query", lbk_per_query)
            .Add("dp_skip_ratio", skip)
            .Add("compressed_ub_over_kth_dtw", bench::SpreadJson(ub_ratio))
            .Add("ed_over_kth_dtw", bench::SpreadJson(ed_ratio))
            .Add("seeds_per_query", std::move(json_seeds)));
  }

  std::printf(
      "\nReading: the exact Euclidean k-th distance is a tighter DTW seed than "
      "the k-th compressed upper bound and costs one SIMD pass per row; every "
      "search returned the scan's k distances bit for bit.\n");
  bench::WriteJsonFile(
      json_path,
      bench::Json::Object()
          .Add("bench", "bench_dtw")
          .Add("host", bench::Json::Object()
                           .Add("simd", simd::IsaName(simd::ActiveIsa()))
                           .Add("hardware_threads",
                                static_cast<uint64_t>(
                                    std::thread::hardware_concurrency())))
          .Add("dtw_lanes", static_cast<uint64_t>(simd::DtwLanes::kLanes))
          .Add("queries", static_cast<uint64_t>(n_queries))
          .Add("repeats", static_cast<uint64_t>(repeats))
          .Add("configs", std::move(json_configs)));
  return 0;
}
