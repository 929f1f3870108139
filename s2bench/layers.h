// Layer-by-layer repeats of sampled requests in a traced run: each repeat
// calls one layer's public entry point inside a span and accumulates that
// layer's work counts.
#ifndef S2BENCH_LAYERS_H_
#define S2BENCH_LAYERS_H_

#include <cstdint>
#include <vector>

#include "common.h"
#include "core/s2_engine.h"

namespace s2bench {

/// Work counts summed over the sampled requests of one run.
struct LayerCounts {
  double shard_fanout = 0, shard_prunes = 0;
  std::vector<double> shard_slowest_ms, shard_gather_ms;
  double nodes = 0, bounds = 0, surviving = 0, retrievals = 0;
  double rows = 0, abandons = 0, candidates = 0, verified = 0;
  double upper = 0, lbk = 0, lbk_skips = 0, dtw = 0;
  double period_hits = 0, records_scanned = 0;
  size_t knn_samples = 0, approx_samples = 0, dtw_samples = 0;
  size_t period_samples = 0, qbb_samples = 0;

  void Add(const LayerCounts& o);
};

inline constexpr size_t kK = 10;
inline constexpr size_t kMaxCandidates = 512;

/// Exact kNN of series `id` on one engine: the VP-tree search with its
/// statistics, then the plain scan the index has to beat.
void TraceExactEngine(const s2::core::S2Engine& engine, uint32_t id,
                      uint64_t req, int64_t parent, Tracer* tr, LayerCounts* lc);

/// Approximate kNN of series `id` on one engine, phase by phase.
void TraceApproxEngine(const s2::core::S2Engine& engine, uint32_t id,
                       uint64_t req, int64_t parent, Tracer* tr, LayerCounts* lc);

/// Fills the index, approx and dtw layer metrics from the spans and counts.
void FillSearchLayers(const Tracer& tr, const LayerCounts& lc, RunResult* r);

/// Sum of `name`'s CPU per request (ms), one figure per request.
std::vector<double> CpuMsPerRequest(const Tracer& tr, const std::string& name);

inline double Per(double total, size_t n) {
  return n == 0 ? 0.0 : total / static_cast<double>(n);
}

}  // namespace s2bench

#endif  // S2BENCH_LAYERS_H_
