// End-to-end pipeline from *raw* search-engine log records to the mining
// engine — the paper's full data path: "Using the query logs, we build a
// time series for each query word or phrase where the elements of the time
// series are the number of times that a query is issued on a day."
//
//   raw (timestamp, query) records
//     -> LogAggregator (streaming daily aggregation, volume cutoff)
//     -> Corpus -> persisted to disk (corpus_io)
//     -> reloaded -> S2Engine (similarity / periods / bursts)
//
//   ./build/examples/log_pipeline

#include <cstdio>
#include <filesystem>

#include "common/rng.h"
#include "core/s2_engine.h"
#include "querylog/archetypes.h"
#include "querylog/corpus_generator.h"
#include "querylog/log_aggregator.h"
#include "storage/corpus_io.h"
#include "timeseries/calendar.h"

using namespace s2;

int main() {
  Rng rng(314);
  const size_t n_days = 512;

  // 1. Produce a raw log stream for a handful of queries. A real deployment
  //    would feed its own log tail into the aggregator instead.
  qlog::LogAggregator aggregator;
  uint64_t total_records = 0;
  for (const auto& archetype :
       {qlog::MakeCinema(), qlog::MakeEaster(), qlog::MakeFullMoon(),
        qlog::MakeNordstrom(), qlog::MakeHalloween()}) {
    auto log = qlog::GenerateLog(archetype, 0, n_days, &rng);
    if (!log.ok()) {
      std::printf("log generation failed: %s\n", log.status().ToString().c_str());
      return 1;
    }
    total_records += log->size();
    if (auto status = aggregator.AddAll(*log); !status.ok()) {
      std::printf("aggregation failed: %s\n", status.ToString().c_str());
      return 1;
    }
  }
  // A low-volume query that the cutoff should drop.
  qlog::QueryArchetype rare;
  rare.name = "obscure query";
  rare.base_rate = 0.2;
  auto rare_log = qlog::GenerateLog(rare, 0, n_days, &rng);
  if (rare_log.ok()) {
    total_records += rare_log->size();
    (void)aggregator.AddAll(*rare_log);
  }

  std::printf("aggregated %llu raw records into %zu distinct queries\n",
              static_cast<unsigned long long>(total_records),
              aggregator.num_queries());

  // 2. Materialize the daily-count corpus with a volume cutoff (the S2 tool
  //    works on the top sequences by volume), persist it, reload it.
  auto corpus = aggregator.BuildCorpus(0, static_cast<int32_t>(n_days) - 1,
                                       /*min_total_count=*/1000);
  if (!corpus.ok()) return 1;
  std::printf("corpus after volume cutoff: %zu series of %zu days\n",
              corpus->size(), corpus->at(0).size());

  const std::string path =
      (std::filesystem::temp_directory_path() / "s2_pipeline_corpus.bin").string();
  if (auto status = storage::WriteCorpus(path, *corpus); !status.ok()) return 1;
  auto reloaded = storage::ReadCorpus(path);
  if (!reloaded.ok()) return 1;
  std::printf("corpus persisted to %s and reloaded\n", path.c_str());

  // 3. Mine it.
  core::S2Engine::Options options;
  auto engine = core::S2Engine::Build(std::move(*reloaded), options);
  if (!engine.ok()) {
    std::printf("engine build failed: %s\n", engine.status().ToString().c_str());
    return 1;
  }

  for (const char* name : {"cinema", "full moon"}) {
    auto id = engine->FindByName(name);
    if (!id.ok()) continue;
    auto periods = engine->FindPeriods(*id);
    if (!periods.ok() || periods->empty()) continue;
    std::printf("'%s': dominant period %.2f days\n", name,
                periods->front().period);
  }
  auto halloween = engine->FindByName("halloween");
  if (halloween.ok()) {
    auto bursts = engine->BurstsOf(*halloween, core::BurstHorizon::kLongTerm);
    if (bursts.ok() && !bursts->empty()) {
      std::printf("'halloween': first burst [%s .. %s]\n",
                  ts::FormatDayIndex(bursts->front().start).c_str(),
                  ts::FormatDayIndex(bursts->front().end).c_str());
    }
  }
  std::remove(path.c_str());
  return 0;
}
