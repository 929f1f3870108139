// Semantic similarity through demand patterns (the paper's "recommendation"
// use case, Section 1): queries with similar request curves are often
// semantically related. This example builds a 10,000-series corpus with
// labelled families (weekly / monthly / seasonal / event / aperiodic) and
// measures how often a query's nearest neighbors come from its own family —
// a quantitative version of the paper's anecdotal examples.
//
//   ./build/examples/similar_queries [corpus_size] [k]

#include <cstdio>
#include <cstdlib>
#include <map>
#include <string>

#include "core/s2_engine.h"
#include "dsp/stats.h"
#include "querylog/corpus_generator.h"

using namespace s2;

namespace {

std::string FamilyOf(const std::string& name) {
  const size_t underscore = name.find('_');
  return underscore == std::string::npos ? name : name.substr(0, underscore);
}

}  // namespace

int main(int argc, char** argv) {
  const size_t corpus_size = argc > 1 ? std::strtoul(argv[1], nullptr, 10) : 10000;
  const size_t k = argc > 2 ? std::strtoul(argv[2], nullptr, 10) : 10;

  qlog::CorpusSpec spec;
  spec.num_series = corpus_size;
  spec.n_days = 1024;
  spec.seed = 2024;
  std::printf("generating %zu series of %zu days ...\n", spec.num_series,
              spec.n_days);
  auto corpus = qlog::GenerateCorpus(spec);
  if (!corpus.ok()) return 1;

  core::S2Engine::Options options;
  std::printf("building engine (summary over best-energy DFT coordinates) ...\n");
  auto engine = core::S2Engine::Build(std::move(*corpus), options);
  if (!engine.ok()) {
    std::printf("build failed: %s\n", engine.status().ToString().c_str());
    return 1;
  }
  std::printf("summary holds %zu series in %zu KiB of envelopes\n",
              engine->summary()->size(),
              engine->summary()->SummaryBytes() / 1024);

  // For a sample of queries, check the family purity of the k-NN lists.
  std::map<std::string, std::pair<size_t, size_t>> by_family;  // hits, total
  const size_t sample = std::min<size_t>(200, engine->corpus().size());
  index::VpTreeIndex::SearchStats totals;
  for (ts::SeriesId id = 0; id < sample; ++id) {
    index::VpTreeIndex::SearchStats stats;
    auto neighbors = engine->SimilarTo(id, k, &stats);
    if (!neighbors.ok()) continue;
    totals.full_retrievals += stats.full_retrievals;
    totals.bound_computations += stats.bound_computations;
    const std::string family = FamilyOf(engine->corpus().at(id).name);
    auto& [hits, total] = by_family[family];
    for (const auto& n : *neighbors) {
      hits += FamilyOf(engine->corpus().at(n.id).name) == family ? 1 : 0;
      ++total;
    }
  }

  std::printf("\nfamily purity of %zu-NN lists (%zu sampled queries):\n", k, sample);
  for (const auto& [family, counts] : by_family) {
    std::printf("  %-12s %5.1f%%  (%zu/%zu neighbors from the same family)\n",
                family.c_str(),
                100.0 * static_cast<double>(counts.first) /
                    static_cast<double>(counts.second),
                counts.first, counts.second);
  }
  std::printf(
      "\nsearch effort: %.1f exact distances per query (of %zu series)\n",
      static_cast<double>(totals.full_retrievals) / static_cast<double>(sample),
      engine->corpus().size());

  // Show one concrete recommendation list.
  std::printf("\nexample: neighbors of '%s':\n",
              engine->corpus().at(0).name.c_str());
  auto neighbors = engine->SimilarTo(0, k);
  if (neighbors.ok()) {
    for (const auto& n : *neighbors) {
      std::printf("  %-22s distance %.2f\n",
                  engine->corpus().at(n.id).name.c_str(), n.distance);
    }
  }
  return 0;
}
