// Reproduces paper Figure 22: pruning power. For a set of held-out queries,
// measure the average fraction F of database objects whose full sequence
// must be examined to find the exact 1-NN, using only the compressed
// bounds: compute LB/UB for every object, drop objects with LB > SUB
// (smallest upper bound), then fetch survivors in ascending-LB order with
// the best-so-far early stop. No index structure is involved — this
// isolates the quality of the distance bounds, as in the paper.

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <vector>

#include "bench/bench_util.h"
#include "dsp/stats.h"
#include "querylog/corpus_generator.h"
#include "repr/bounds.h"
#include "repr/compressed.h"
#include "repr/half_spectrum.h"

namespace s2 {
namespace {

struct MethodSpec {
  repr::BoundMethod method;
  repr::ReprKind kind;
  const char* label;
};

// Average fraction of objects examined over all queries.
double FractionExamined(const std::vector<std::vector<double>>& rows,
                        const std::vector<repr::HalfSpectrum>& spectra,
                        const std::vector<std::vector<double>>& queries,
                        const MethodSpec& spec, size_t c, size_t db_size) {
  // Pre-compress the database once per (method, budget).
  std::vector<repr::CompressedSpectrum> compressed;
  compressed.reserve(db_size);
  for (size_t i = 0; i < db_size; ++i) {
    auto rep = repr::CompressedSpectrum::Compress(spectra[i], spec.kind, c);
    if (!rep.ok()) return std::nan("");
    compressed.push_back(std::move(rep).ValueOrDie());
  }

  double fraction_sum = 0.0;
  for (const auto& query : queries) {
    auto query_spectrum = repr::HalfSpectrum::FromSeries(query);
    if (!query_spectrum.ok()) return std::nan("");
    const repr::QuerySpectrum prepared(*query_spectrum);

    struct Entry {
      uint32_t id;
      double lb;
      double ub;
    };
    std::vector<Entry> entries;
    entries.reserve(db_size);
    double sub = std::numeric_limits<double>::infinity();
    for (uint32_t id = 0; id < db_size; ++id) {
      auto bounds =
          repr::ComputeBounds(prepared, compressed[id], spec.method);
      if (!bounds.ok()) return std::nan("");
      entries.push_back({id, bounds->lower, bounds->upper});
      sub = std::min(sub, bounds->upper);
    }
    // SUB filter (skipped implicitly for GEMINI where all UB are infinite).
    std::erase_if(entries, [sub](const Entry& e) { return e.lb > sub; });
    std::sort(entries.begin(), entries.end(),
              [](const Entry& a, const Entry& b) { return a.lb < b.lb; });

    size_t examined = 0;
    double best = std::numeric_limits<double>::infinity();
    for (const Entry& entry : entries) {
      if (entry.lb > best) break;
      ++examined;
      const double dist = dsp::EuclideanEarlyAbandon(
          query, rows[entry.id],
          std::isinf(best) ? std::numeric_limits<double>::infinity()
                           : best * best);
      best = std::min(best, dist);
    }
    fraction_sum += static_cast<double>(examined) / static_cast<double>(db_size);
  }
  return fraction_sum / static_cast<double>(queries.size());
}

}  // namespace
}  // namespace s2

int main(int argc, char** argv) {
  using namespace s2;
  const size_t max_db = bench::ArgSize(argc, argv, "--db", 32768);
  const size_t n_days = bench::ArgSize(argc, argv, "--days", 1024);
  const size_t n_queries = bench::ArgSize(argc, argv, "--queries", 100);
  const std::string json_path =
      bench::ArgString(argc, argv, "--json", "BENCH_pruning.json");
  bench::Json json_rows = bench::Json::Array();

  bench::PrintHeader(
      "Figure 22: fraction of database objects examined for exact 1-NN (" +
      std::to_string(n_queries) + " held-out queries)");

  qlog::CorpusSpec spec;
  spec.num_series = max_db;
  spec.n_days = n_days;
  spec.seed = 22;
  std::printf("generating corpus of %zu x %zu ...\n", max_db, n_days);
  auto corpus = qlog::GenerateCorpus(spec);
  if (!corpus.ok()) return 1;
  const auto rows = bench::StandardizedRows(*corpus);
  auto held_out = qlog::GenerateQueries(spec, n_queries);
  if (!held_out.ok()) return 1;
  std::vector<std::vector<double>> queries;
  for (const auto& q : *held_out) {
    queries.push_back(dsp::Standardize(q.values));
  }

  std::printf("computing spectra ...\n");
  std::vector<repr::HalfSpectrum> spectra;
  spectra.reserve(rows.size());
  for (const auto& row : rows) {
    auto s = repr::HalfSpectrum::FromSeries(row);
    if (!s.ok()) return 1;
    spectra.push_back(std::move(s).ValueOrDie());
  }

  const MethodSpec methods[] = {
      {repr::BoundMethod::kGemini, repr::ReprKind::kFirstKMiddle, "GEMINI"},
      {repr::BoundMethod::kWang, repr::ReprKind::kFirstKError, "Wang"},
      {repr::BoundMethod::kBestMinError, repr::ReprKind::kBestKError,
       "BestMinError"},
  };

  std::printf("\n%10s %6s %12s %12s %14s\n", "db size", "c", "GEMINI", "Wang",
              "BestMinError");
  for (size_t db_size : {max_db / 4, max_db / 2, max_db}) {
    for (size_t c : {8u, 16u, 32u}) {
      double fractions[3] = {0, 0, 0};
      for (int m = 0; m < 3; ++m) {
        fractions[m] =
            FractionExamined(rows, spectra, queries, methods[m], c, db_size);
      }
      std::printf("%10zu %6zu %12.4f %12.4f %14.4f   (-%.1f%% vs next best)\n",
                  db_size, c, fractions[0], fractions[1], fractions[2],
                  100.0 * (std::min(fractions[0], fractions[1]) - fractions[2]) /
                      std::min(fractions[0], fractions[1]));
      json_rows.Push(bench::Json::Object()
                         .Add("db", static_cast<uint64_t>(db_size))
                         .Add("budget_c", static_cast<uint64_t>(c))
                         .Add("fraction_gemini", fractions[0])
                         .Add("fraction_wang", fractions[1])
                         .Add("fraction_best_min_error", fractions[2]));
    }
  }
  std::printf(
      "\nExpected shape (paper): BestMinError examines the smallest fraction "
      "(10-35%% fewer objects than the next best method), even though it "
      "uses fewer coefficients for the same memory.\n");
  bench::WriteJsonFile(json_path,
                       bench::Json::Object()
                           .Add("bench", "bench_pruning")
                           .Add("queries", static_cast<uint64_t>(n_queries))
                           .Add("days", static_cast<uint64_t>(n_days))
                           .Add("rows", std::move(json_rows)));
  return 0;
}
