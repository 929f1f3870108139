// Burst exploration over a multi-year corpus: detect bursts for every
// query, store them in the relational burst table, then interactively walk
// "query-by-burst" chains — the paper's important-news-discovery use case
// ("world trade center" -> "pentagon attack", Section 6 / Figure 19).
//
//   ./build/examples/burst_explorer

#include <cstdio>

#include "common/rng.h"
#include "core/s2_engine.h"
#include "querylog/archetypes.h"
#include "querylog/corpus_generator.h"
#include "querylog/synthesizer.h"
#include "timeseries/calendar.h"

using namespace s2;

namespace {

void Explore(const core::S2Engine& engine, const char* query, int depth) {
  auto id = engine.FindByName(query);
  if (!id.ok()) return;
  std::printf("\n[%d] %s\n", depth, query);
  auto bursts = engine.BurstsOf(*id, core::BurstHorizon::kLongTerm);
  if (bursts.ok()) {
    for (const auto& b : *bursts) {
      std::printf("     burst [%s .. %s] height %+.2f\n",
                  ts::FormatDayIndex(b.start).c_str(),
                  ts::FormatDayIndex(b.end).c_str(), b.avg_value);
    }
  }
  auto matches = engine.QueryByBurst(*id, 3, core::BurstHorizon::kLongTerm);
  if (!matches.ok()) return;
  for (const auto& m : *matches) {
    std::printf("     -> co-bursting: %-32s BSim %.3f\n",
                engine.corpus().at(m.series_id).name.c_str(), m.bsim);
  }
  // Follow the strongest edge one level down.
  if (depth < 2 && !matches->empty()) {
    Explore(engine, engine.corpus().at(matches->front().series_id).name.c_str(),
            depth + 1);
  }
}

}  // namespace

int main() {
  Rng rng(2001);
  const size_t n_days = 1096;  // 2000-2002.
  ts::Corpus corpus;
  auto add = [&](const qlog::QueryArchetype& a) {
    auto series = qlog::Synthesize(a, 0, n_days, &rng);
    if (series.ok()) corpus.Add(std::move(series).ValueOrDie());
  };

  // A news cluster around one shared event.
  const int32_t event = ts::DateToDayIndex({2001, 9, 11});
  auto wtc = qlog::MakeWorldTradeCenter(event);
  add(wtc);
  auto pentagon = wtc;
  pentagon.name = "pentagon attack";
  pentagon.events[0].amplitude *= 0.8;
  add(pentagon);
  auto nostradamus = wtc;
  nostradamus.name = "nostradamus prediction";
  nostradamus.events[0].amplitude *= 0.5;
  nostradamus.events[0].decay_days = 10;
  add(nostradamus);

  // Seasonal clusters.
  add(qlog::MakeChristmas());
  add(qlog::MakeHalloween());
  add(qlog::MakeEaster());
  add(qlog::MakeFlowers());

  // Background.
  qlog::CorpusSpec spec;
  spec.num_series = 300;
  spec.n_days = n_days;
  spec.seed = 7;
  auto filler = qlog::GenerateCorpus(spec);
  if (filler.ok()) {
    for (const auto& series : filler->series()) corpus.Add(series);
  }

  core::S2Engine::Options options;
  options.long_burst.min_avg_value = 0.5;  // Suppress noise micro-bursts.
  options.long_burst.min_length = 5;
  auto engine = core::S2Engine::Build(std::move(corpus), options);
  if (!engine.ok()) {
    std::printf("build failed: %s\n", engine.status().ToString().c_str());
    return 1;
  }
  std::printf("burst store: %zu records, %zu bytes (vs %zu KiB of raw data)\n",
              engine->burst_table(core::BurstHorizon::kLongTerm).size(),
              engine->burst_table(core::BurstHorizon::kLongTerm).StorageBytes(),
              engine->corpus().size() * n_days * sizeof(double) / 1024);

  Explore(*engine, "world trade center", 0);
  Explore(*engine, "christmas", 0);
  Explore(*engine, "flowers", 0);
  return 0;
}
