// Quickstart: build an S2 engine over a small synthetic query-log corpus,
// then run the three headline operations of the paper — similarity search,
// period discovery and burst detection / query-by-burst — for one query.
//
// Build & run:
//   cmake -B build -G Ninja && cmake --build build
//   ./build/examples/quickstart

#include <cstdio>

#include "common/rng.h"
#include "core/s2_engine.h"
#include "querylog/archetypes.h"
#include "querylog/corpus_generator.h"
#include "querylog/synthesizer.h"
#include "timeseries/calendar.h"

using namespace s2;

int main() {
  // 1. Assemble a corpus: a few named archetypes (the queries the paper
  //    discusses) plus 200 randomized background queries, 512 days each.
  Rng rng(1);
  ts::Corpus corpus;
  for (auto archetype : {qlog::MakeCinema(), qlog::MakeEaster(), qlog::MakeElvis(),
                         qlog::MakeFullMoon(), qlog::MakeNordstrom(),
                         qlog::MakeHalloween(), qlog::MakeChristmas()}) {
    auto series = qlog::Synthesize(archetype, 0, 512, &rng);
    if (series.ok()) corpus.Add(std::move(series).ValueOrDie());
  }
  qlog::CorpusSpec spec;
  spec.num_series = 200;
  spec.n_days = 512;
  auto filler = qlog::GenerateCorpus(spec);
  if (!filler.ok()) return 1;
  for (const auto& series : filler->series()) corpus.Add(series);

  // 2. Build the engine: standardization, the spectral summary that bounds
  //    similarity search, periodogram analysis and burst tables, in one call.
  core::S2Engine::Options options;
  auto engine = core::S2Engine::Build(std::move(corpus), options);
  if (!engine.ok()) {
    std::printf("build failed: %s\n", engine.status().ToString().c_str());
    return 1;
  }

  // 3. Similarity search: which queries have demand most like "cinema"?
  const ts::SeriesId cinema = *engine->FindByName("cinema");
  auto neighbors = engine->SimilarTo(cinema, 5);
  if (neighbors.ok()) {
    std::printf("queries similar to 'cinema':\n");
    for (const auto& n : *neighbors) {
      std::printf("  %-20s distance %.2f\n",
                  engine->corpus().at(n.id).name.c_str(), n.distance);
    }
  }

  // 4. Period discovery: the weekly habit shows up as P = 7 days.
  auto periods = engine->FindPeriods(cinema);
  if (periods.ok()) {
    std::printf("\nsignificant periods of 'cinema':\n");
    for (const auto& p : *periods) {
      std::printf("  period %.2f days (power %.2f)\n", p.period, p.power);
    }
  }

  // 5. Bursts and query-by-burst: what else bursts when "easter" does?
  const ts::SeriesId easter = *engine->FindByName("easter");
  auto bursts = engine->BurstsOf(easter, core::BurstHorizon::kLongTerm);
  if (bursts.ok()) {
    std::printf("\nbursts of 'easter':\n");
    for (const auto& b : *bursts) {
      std::printf("  [%s .. %s] avg height %.2f\n",
                  ts::FormatDayIndex(b.start).c_str(),
                  ts::FormatDayIndex(b.end).c_str(), b.avg_value);
    }
  }
  auto matches = engine->QueryByBurst(easter, 5, core::BurstHorizon::kLongTerm);
  if (matches.ok()) {
    std::printf("\nqueries bursting when 'easter' bursts:\n");
    for (const auto& m : *matches) {
      std::printf("  %-20s BSim %.3f\n",
                  engine->corpus().at(m.series_id).name.c_str(), m.bsim);
    }
  }
  return 0;
}
