#include "layers.h"

#include <map>

namespace s2bench {

void LayerCounts::Add(const LayerCounts& o) {
  shard_fanout += o.shard_fanout;
  shard_prunes += o.shard_prunes;
  shard_slowest_ms.insert(shard_slowest_ms.end(), o.shard_slowest_ms.begin(),
                          o.shard_slowest_ms.end());
  shard_gather_ms.insert(shard_gather_ms.end(), o.shard_gather_ms.begin(),
                         o.shard_gather_ms.end());
  nodes += o.nodes;
  bounds += o.bounds;
  surviving += o.surviving;
  retrievals += o.retrievals;
  rows += o.rows;
  abandons += o.abandons;
  candidates += o.candidates;
  verified += o.verified;
  upper += o.upper;
  lbk += o.lbk;
  lbk_skips += o.lbk_skips;
  dtw += o.dtw;
  period_hits += o.period_hits;
  records_scanned += o.records_scanned;
  knn_samples += o.knn_samples;
  approx_samples += o.approx_samples;
  dtw_samples += o.dtw_samples;
  period_samples += o.period_samples;
  qbb_samples += o.qbb_samples;
}

void TraceExactEngine(const s2::core::S2Engine& engine, uint32_t id,
                      uint64_t req, int64_t parent, Tracer* tr, LayerCounts* lc) {
  const std::vector<double>& z = engine.standardized(id);
  {
    Scope search(tr, "index.search", req, parent);
    s2::index::VpTreeIndex::SearchStats st;
    Scope one(tr, "index.search.shard", req, search.index());
    (void)engine.SimilarToStandardized(z, kK, id, &st);
    lc->nodes += static_cast<double>(st.nodes_visited);
    lc->bounds += static_cast<double>(st.bound_computations);
    lc->surviving += static_cast<double>(st.candidates_surviving);
    lc->retrievals += static_cast<double>(st.full_retrievals);
  }
  {
    Scope scan(tr, "index.scan", req, parent);
    Scope one(tr, "index.scan.shard", req, scan.index());
    (void)engine.SimilarToStandardizedExact(z, kK, id);
  }
  ++lc->knn_samples;
}

void TraceApproxEngine(const s2::core::S2Engine& engine, uint32_t id,
                       uint64_t req, int64_t parent, Tracer* tr, LayerCounts* lc) {
  const std::vector<double>& z = engine.standardized(id);
  Scope knn(tr, "approx.knn", req, parent);
  std::vector<double> proj;
  {
    Scope s(tr, "approx.project", req, knn.index());
    proj = engine.ApproxProject(z).value();
  }
  s2::approx::QueryParams params;
  params.k = kK;
  params.max_candidates = kMaxCandidates;
  const size_t c = s2::approx::ResolveCandidates(
      params, engine.corpus().size() - 1, engine.options().approx.summary);
  s2::approx::ScanStats st;
  std::vector<s2::approx::SummaryIndex::Candidate> cands;
  {
    Scope s(tr, "approx.candidates", req, knn.index());
    cands = engine.ApproxCandidates(proj, c, id, &st).value();
  }
  {
    Scope s(tr, "approx.verify", req, knn.index());
    (void)engine.ApproxVerify(z, cands, kK, &st, nullptr);
  }
  lc->rows += static_cast<double>(st.rows_scanned);
  lc->abandons += static_cast<double>(st.summary_abandons);
  lc->candidates += static_cast<double>(st.candidates);
  lc->verified += static_cast<double>(st.verified);
  ++lc->approx_samples;
}

std::vector<double> CpuMsPerRequest(const Tracer& tr, const std::string& name) {
  std::map<uint64_t, double> sum;
  for (const Span& s : tr.spans()) {
    if (s.name == name) sum[s.request] += 1e3 * s.cpu;
  }
  std::vector<double> out;
  for (const auto& [req, v] : sum) out.push_back(v);
  return out;
}

void FillSearchLayers(const Tracer& tr, const LayerCounts& lc, RunResult* r) {
  auto& L = r->layers;
  L["shard.fanout"] = Per(lc.shard_fanout, lc.knn_samples);
  L["shard.shared_radius_prunes"] = Per(lc.shard_prunes, lc.knn_samples);
  L["shard.slowest_ms"] = Percentile(lc.shard_slowest_ms, 50);
  L["shard.gather_ms"] = Percentile(lc.shard_gather_ms, 50);
  L["index.search_cpu_ms"] = Percentile(CpuMsPerRequest(tr, "index.search.shard"), 50);
  L["index.scan_cpu_ms"] = Percentile(CpuMsPerRequest(tr, "index.scan.shard"), 50);
  L["index.nodes_visited"] = Per(lc.nodes, lc.knn_samples);
  L["index.bound_computations"] = Per(lc.bounds, lc.knn_samples);
  L["index.candidates_surviving"] = Per(lc.surviving, lc.knn_samples);
  L["index.full_retrievals"] = Per(lc.retrievals, lc.knn_samples);
  L["index.fetch_yield"] = lc.retrievals > 0 ? static_cast<double>(kK * lc.knn_samples) / lc.retrievals : 0.0;
  L["approx.scan_cpu_ms"] = Percentile(CpuMsPerRequest(tr, "approx.candidates"), 50);
  L["approx.verify_cpu_ms"] = Percentile(CpuMsPerRequest(tr, "approx.verify"), 50);
  L["approx.rows_scanned"] = Per(lc.rows, lc.approx_samples);
  L["approx.summary_abandons"] = Per(lc.abandons, lc.approx_samples);
  L["approx.candidates"] = Per(lc.candidates, lc.approx_samples);
  L["approx.verified"] = Per(lc.verified, lc.approx_samples);
  L["dtw.search_cpu_ms"] = Percentile(CpuMsPerRequest(tr, "dtw.search.shard"), 50);
  L["dtw.upper_bounds"] = Per(lc.upper, lc.dtw_samples);
  L["dtw.lb_keogh"] = Per(lc.lbk, lc.dtw_samples);
  L["dtw.lb_keogh_skips"] = Per(lc.lbk_skips, lc.dtw_samples);
  L["dtw.dtw_computed"] = Per(lc.dtw, lc.dtw_samples);
  L["dtw.skip_ratio"] = lc.lbk > 0 ? lc.lbk_skips / lc.lbk : 0.0;
  L["period.find_cpu_us"] = 1e3 * Percentile(tr.CpuMs("period.find"), 50);
  L["period.hits"] = Per(lc.period_hits, lc.period_samples);
  L["burst.bursts_of_cpu_us"] = 1e3 * Percentile(tr.CpuMs("burst.bursts_of"), 50);
  L["burst.qbb_cpu_us"] = 1e3 * Percentile(tr.CpuMs("burst.qbb"), 50);
  L["burst.records_scanned"] = Per(lc.records_scanned, lc.qbb_samples);
}

}  // namespace s2bench
