// Reproduces paper Figure 19: 'query-by-burst' discovery. The paper shows
// three example retrievals: "world trade center" -> "pentagon attack" /
// "nostradamus prediction"; "hurricane" -> "www.nhc.noaa.gov" / "tropical
// storm"; "christmas" -> "gingerbread men" / "rudolph the red nosed
// reindeer". We synthesize a corpus with the same correlation structure
// (co-bursting query families around shared events) plus background series
// and verify that query-by-burst surfaces the intended partners.

#include <cstdio>

#include "bench/bench_util.h"
#include "burst/burst_table.h"
#include "core/s2_engine.h"
#include "common/rng.h"
#include "querylog/archetypes.h"
#include "querylog/corpus_generator.h"
#include "querylog/synthesizer.h"
#include "timeseries/calendar.h"

namespace s2 {
namespace {

// A co-bursting variant of an existing event archetype: same event days,
// slightly different amplitudes/decays (other queries about the same news).
qlog::QueryArchetype CoBurst(const qlog::QueryArchetype& base,
                             const std::string& name, double scale, Rng* rng) {
  qlog::QueryArchetype a = base;
  a.name = name;
  a.base_rate = base.base_rate * rng->Uniform(0.4, 1.6);
  for (auto& event : a.events) {
    event.amplitude *= scale * rng->Uniform(0.8, 1.2);
    event.decay_days *= rng->Uniform(0.8, 1.3);
  }
  for (auto& annual : a.annual_bursts) {
    annual.amplitude *= scale * rng->Uniform(0.8, 1.2);
    annual.width_days *= rng->Uniform(0.9, 1.2);
  }
  return a;
}

}  // namespace
}  // namespace s2

int main() {
  using namespace s2;
  bench::PrintHeader(
      "Figure 19: query-by-burst over a 3-year corpus (2000-2002)");

  Rng rng(919);
  const size_t n_days = 1024;
  ts::Corpus corpus;
  auto add = [&](const qlog::QueryArchetype& archetype) {
    auto series = qlog::Synthesize(archetype, 0, n_days, &rng);
    if (series.ok()) corpus.Add(std::move(series).ValueOrDie());
  };

  // Example 1: the 9/11 cluster.
  const int32_t sep11 = ts::DateToDayIndex({2001, 9, 11});
  const auto wtc = qlog::MakeWorldTradeCenter(sep11);
  add(wtc);
  add(CoBurst(wtc, "pentagon attack", 0.8, &rng));
  add(CoBurst(wtc, "nostradamus prediction", 0.5, &rng));

  // Example 2: the hurricane-season cluster.
  const auto hurricane = qlog::MakeHurricane();
  add(hurricane);
  add(CoBurst(hurricane, "www.nhc.noaa.gov", 0.9, &rng));
  add(CoBurst(hurricane, "tropical storm", 1.1, &rng));

  // Example 3: the Christmas cluster.
  const auto christmas = qlog::MakeChristmas();
  add(christmas);
  add(CoBurst(christmas, "gingerbread men", 0.7, &rng));
  add(CoBurst(christmas, "rudolph the red nosed reindeer", 0.9, &rng));

  // Background: unrelated series that must NOT surface.
  qlog::CorpusSpec filler_spec;
  filler_spec.num_series = 400;
  filler_spec.n_days = n_days;
  filler_spec.seed = 920;
  auto filler = qlog::GenerateCorpus(filler_spec);
  if (filler.ok()) {
    for (const auto& series : filler->series()) corpus.Add(series);
  }

  core::S2Engine::Options options;
  // Practical prominence guard (see BurstDetector::Options::min_avg_value):
  // suppresses the noise micro-bursts of flat weekly series that would
  // otherwise pollute BSim rankings.
  options.long_burst.min_avg_value = 0.5;
  options.long_burst.min_length = 5;
  options.short_burst.min_avg_value = 0.5;
  auto engine = core::S2Engine::Build(std::move(corpus), options);
  if (!engine.ok()) {
    std::printf("engine build failed: %s\n", engine.status().ToString().c_str());
    return 1;
  }

  for (const char* query :
       {"world trade center", "hurricane", "christmas"}) {
    auto id = engine->FindByName(query);
    if (!id.ok()) {
      std::printf("\nquery = %s: %s\n", query, id.status().ToString().c_str());
      continue;
    }
    std::printf("\nquery = %s\n", query);
    auto bursts = engine->BurstsOf(*id, core::BurstHorizon::kLongTerm);
    if (!bursts.ok()) {
      std::printf("  burst detection failed: %s\n",
                  bursts.status().ToString().c_str());
    }
    if (bursts.ok()) {
      std::printf("  query bursts:");
      for (const auto& b : *bursts) {
        std::printf(" [%s..%s]", ts::FormatDayIndex(b.start).c_str(),
                    ts::FormatDayIndex(b.end).c_str());
      }
      std::printf("\n");
    }
    auto matches = engine->QueryByBurst(*id, 5, core::BurstHorizon::kLongTerm);
    if (!matches.ok()) continue;
    int rank = 1;
    for (const auto& match : *matches) {
      std::printf("  %d. %-36s BSim = %.3f\n", rank,
                  engine->corpus().at(match.series_id).name.c_str(), match.bsim);
      ++rank;
    }
    std::printf("  burst records scanned via B+-tree: %zu of %zu\n",
                engine->burst_table(core::BurstHorizon::kLongTerm).last_scanned(),
                engine->burst_table(core::BurstHorizon::kLongTerm).size());
  }

  std::printf(
      "\nExpected shape (paper): each query's co-bursting partners rank at "
      "the top; unrelated background series score near zero. This type of "
      "search is especially useful for non-periodic bursty sequences.\n");
  return 0;
}
