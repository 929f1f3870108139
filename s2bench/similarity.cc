// Workload `similarity`: 2^14 series x 256 days over two shards, result cache
// off, one closed-loop client asking fixed rounds of exact kNN, approximate
// kNN and DTW kNN over pre-drawn uniform ids. Every request does its search,
// so the time goes to shard, index, approx, dtw and the simd kernels.
#include <array>
#include <cstdio>

#include "checks.h"
#include "layers.h"
#include "querylog/corpus_generator.h"
#include "serve.h"

namespace s2bench {

namespace {

using s2::service::QueryRequest;
using s2::service::RequestKind;

constexpr uint32_t kSeries = 1u << 14;
constexpr size_t kDays = 256;
constexpr size_t kShards = 2;
// DTW kNN has a long cost tail (mean CPU about 2.4x the median), more than
// the ~80 DTW requests a run can afford average out, so DTW requests cycle
// through a fixed panel of query ids and a round is one pass over it: every
// run does identical DTW work. Exact and approximate ids are fresh uniform
// draws from the workload seed in every round.
constexpr size_t kPanel = 16;
constexpr uint64_t kPanelSeed = 16;
// The corpus is fixed too: its make-up moves every per-request cost, and
// one corpus keeps runs with different seeds comparable.
constexpr uint64_t kCorpusSeed = 2004;
// A unit is exact, approximate, exact, approximate, DTW; a round is one
// unit per panel id.
constexpr size_t kUnitSize = 5;
constexpr size_t kMaxRounds = 256;
constexpr size_t kDtwChecks = 4;
// Traced run: the requests of every kSampleEvery-th unit are repeated layer
// by layer.
constexpr size_t kSampleEvery = 4;

/// One pre-drawn request.
struct Planned {
  RequestKind kind = RequestKind::kSimilarTo;
  uint32_t id = 0;
};

QueryRequest Request(RequestKind kind, uint32_t id) {
  QueryRequest q;
  q.kind = kind;
  q.id = id;
  q.k = kK;
  if (kind == RequestKind::kApproxKnn) q.max_candidates = kMaxCandidates;
  return q;
}

/// Repeats one exact-kNN request layer by layer: the sharded scatter-gather
/// with its QueryStats, then each shard's index search and plain scan.
void TraceExact(const s2::service::S2Server& server, uint32_t id, uint64_t req,
                int64_t parent, Tracer* tr, LayerCounts* lc) {
  const auto& sharded = server.sharded();
  s2::shard::ShardedEngine::QueryStats qs;
  double wall = 0.0;
  {
    Scope s(tr, "shard.similar_to", req, parent);
    const double t0 = WallSeconds();
    (void)sharded.SimilarTo(id, kK, &qs);
    wall = 1e3 * (WallSeconds() - t0);
  }
  double slowest = 0.0;
  for (const auto& l : qs.shard_latencies) {
    slowest = std::max(slowest, 1e-3 * static_cast<double>(l.count()));
  }
  lc->shard_fanout += static_cast<double>(qs.fanout);
  lc->shard_prunes += static_cast<double>(qs.shared_radius_prunes);
  lc->shard_slowest_ms.push_back(slowest);
  lc->shard_gather_ms.push_back(std::max(0.0, wall - slowest));

  const auto placement = sharded.PlacementOf(id).value();
  const std::vector<double>& z =
      sharded.shard(placement.shard).standardized(placement.local);
  {
    Scope search(tr, "index.search", req, parent);
    s2::index::SharedRadius shared;
    for (size_t s = 0; s < sharded.num_shards(); ++s) {
      const uint32_t exclude =
          s == placement.shard ? placement.local : s2::ts::kInvalidSeriesId;
      s2::index::VpTreeIndex::SearchStats st;
      Scope one(tr, "index.search.shard", req, search.index());
      (void)sharded.shard(s).SimilarToStandardized(z, kK, exclude, &st, &shared);
      lc->nodes += static_cast<double>(st.nodes_visited);
      lc->bounds += static_cast<double>(st.bound_computations);
      lc->surviving += static_cast<double>(st.candidates_surviving);
      lc->retrievals += static_cast<double>(st.full_retrievals);
    }
  }
  {
    Scope scan(tr, "index.scan", req, parent);
    for (size_t s = 0; s < sharded.num_shards(); ++s) {
      const uint32_t exclude =
          s == placement.shard ? placement.local : s2::ts::kInvalidSeriesId;
      Scope one(tr, "index.scan.shard", req, scan.index());
      (void)sharded.shard(s).SimilarToStandardizedExact(z, kK, exclude);
    }
  }
  ++lc->knn_samples;
}

/// Repeats one approximate-kNN request phase by phase on each shard:
/// project on the owner, rank candidates per shard, merge, verify per shard
/// under one shared radius (the sharded engine's own sequence).
void TraceApprox(const s2::service::S2Server& server, uint32_t id, uint64_t req,
                 int64_t parent, Tracer* tr, LayerCounts* lc) {
  using Candidate = s2::approx::SummaryIndex::Candidate;
  const auto& sharded = server.sharded();
  const auto placement = sharded.PlacementOf(id).value();
  const auto& owner = sharded.shard(placement.shard);
  const std::vector<double>& z = owner.standardized(placement.local);
  Scope knn(tr, "approx.knn", req, parent);
  std::vector<double> proj;
  {
    Scope s(tr, "approx.project", req, knn.index());
    proj = owner.ApproxProject(z).value();
  }
  s2::approx::QueryParams params;
  params.k = kK;
  params.max_candidates = kMaxCandidates;
  const size_t c = s2::approx::ResolveCandidates(
      params, sharded.size() - 1, owner.options().approx.summary);
  const size_t n = sharded.num_shards();
  std::vector<s2::approx::ScanStats> stats(n);
  std::vector<Candidate> merged;
  for (size_t s = 0; s < n; ++s) {
    Scope one(tr, "approx.candidates", req, knn.index());
    auto local = sharded.shard(s)
                     .ApproxCandidates(proj, c,
                                       s == placement.shard
                                           ? placement.local
                                           : s2::ts::kInvalidSeriesId,
                                       &stats[s])
                     .value();
    for (Candidate& cand : local) cand.id = sharded.GlobalId(s, cand.id);
    merged.insert(merged.end(), local.begin(), local.end());
  }
  std::sort(merged.begin(), merged.end(), [](const Candidate& a, const Candidate& b) {
    return a.lb_sq != b.lb_sq ? a.lb_sq < b.lb_sq : a.id < b.id;
  });
  if (merged.size() > c) merged.resize(c);
  std::vector<std::vector<Candidate>> per_shard(n);
  for (const Candidate& cand : merged) {
    const auto p = sharded.PlacementOf(cand.id).value();
    per_shard[p.shard].push_back({cand.lb_sq, p.local});
  }
  s2::index::SharedRadius shared;
  for (size_t s = 0; s < n; ++s) {
    Scope one(tr, "approx.verify", req, knn.index());
    (void)sharded.shard(s).ApproxVerify(z, per_shard[s], kK, &stats[s], &shared);
  }
  for (const auto& st : stats) {
    lc->rows += static_cast<double>(st.rows_scanned);
    lc->abandons += static_cast<double>(st.summary_abandons);
    lc->candidates += static_cast<double>(st.candidates);
    lc->verified += static_cast<double>(st.verified);
  }
  ++lc->approx_samples;
}

/// Repeats one DTW-kNN request on each shard with its search statistics.
void TraceDtw(const s2::service::S2Server& server, uint32_t id, uint64_t req,
              int64_t parent, Tracer* tr, LayerCounts* lc) {
  const auto& sharded = server.sharded();
  const auto placement = sharded.PlacementOf(id).value();
  const std::vector<double>& z =
      sharded.shard(placement.shard).standardized(placement.local);
  Scope search(tr, "dtw.search", req, parent);
  s2::index::SharedRadius shared;
  for (size_t s = 0; s < sharded.num_shards(); ++s) {
    const uint32_t exclude =
        s == placement.shard ? placement.local : s2::ts::kInvalidSeriesId;
    s2::dtw::DtwKnnSearch::SearchStats st;
    Scope one(tr, "dtw.search.shard", req, search.index());
    (void)sharded.shard(s).SimilarToDtwStandardized(z, kK, exclude, &st, &shared);
    lc->upper += static_cast<double>(st.upper_bounds_computed);
    lc->lbk += static_cast<double>(st.lb_keogh_computed);
    lc->lbk_skips += static_cast<double>(st.lb_keogh_skips);
    lc->dtw += static_cast<double>(st.dtw_computed);
  }
  ++lc->dtw_samples;
}

}  // namespace

RunResult RunSimilarity(const RunConfig& cfg) {
  RunResult r;
  Tracer tracer(cfg.trace);

  // --- Inputs ---------------------------------------------------------------
  s2::qlog::CorpusSpec spec;
  spec.num_series = kSeries;
  spec.n_days = kDays;
  spec.seed = kCorpusSeed;
  s2::ts::Corpus corpus = s2::qlog::GenerateCorpus(spec).value();

  Rows ref;
  ref.len = kDays;
  ref.data.resize(static_cast<size_t>(kSeries) * kDays);
  for (uint32_t i = 0; i < kSeries; ++i) ref.Set(i, ZNormalize(corpus.at(i).values));

  Draw panel_draw(kPanelSeed);
  std::vector<uint32_t> panel(kPanel);
  for (uint32_t& id : panel) id = panel_draw.Below(kSeries);
  Draw draw(SubSeed(cfg.seed, 2));
  const auto draw_unit = [&](size_t t, std::vector<Planned>* out) {
    out->push_back({RequestKind::kSimilarTo, draw.Below(kSeries)});
    out->push_back({RequestKind::kApproxKnn, draw.Below(kSeries)});
    out->push_back({RequestKind::kSimilarTo, draw.Below(kSeries)});
    out->push_back({RequestKind::kApproxKnn, draw.Below(kSeries)});
    out->push_back({RequestKind::kSimilarToDtw, panel[t % kPanel]});
  };
  std::vector<Planned> warmup;
  std::vector<Planned> plan;
  for (size_t t = 0; t < kPanel; ++t) draw_unit(t, &warmup);
  for (size_t t = 0; t < kPanel * kMaxRounds; ++t) draw_unit(t, &plan);
  const size_t round_requests = kPanel * kUnitSize;

  // Answer and sample buffers are sized and touched before the memory
  // baseline, so the baseline-to-peak difference is the server's own.
  std::vector<std::array<s2::index::Neighbor, kK>> answers(plan.size());
  std::vector<uint8_t> counts(plan.size());
  std::vector<s2::approx::QualityBound> bounds(plan.size());
  std::vector<double> cpu(plan.size()), wall(plan.size());
  std::vector<double> queue_ms(plan.size()), exec_ms(plan.size());
  LayerCounts lc;

  const double rss_before = RssMb();

  // --- Set-up (timed on the process CPU clock) ------------------------------
  s2::core::S2Engine::Options engine_options;
  s2::service::S2Server::Options options;
  options.shards = kShards;
  options.cache_capacity = 0;
  options.scheduler.threads = 1;
  const double setup_c0 = ProcessCpuSeconds();
  auto built = s2::service::S2Server::Build(std::move(corpus), engine_options, options);
  const double setup_s = ProcessCpuSeconds() - setup_c0;
  if (!built.ok()) {
    r.Fail("S2Server::Build: " + built.status().ToString());
    return r;
  }
  std::unique_ptr<s2::service::S2Server> server = std::move(built).value();

  // --- Warm-up: one round ---------------------------------------------------
  for (const Planned& q : warmup) (void)Serve(server.get(), Request(q.kind, q.id));

  // --- Timed phase: whole rounds until the time is up -----------------------
  size_t done = 0;
  uint64_t failed = 0;
  const auto phase_us0 = ProcessUserSys();
  const double phase_c0 = ProcessCpuSeconds();
  const double phase_t0 = WallSeconds();
  while (done + round_requests <= plan.size() &&
         (done % round_requests != 0 || WallSeconds() - phase_t0 < cfg.seconds)) {
    const Planned& q = plan[done];
    const bool sample = tracer.enabled() && (done / kUnitSize) % kSampleEvery == 0;
    Scope root(&tracer, "request", done, -1);
    Served s;
    {
      Scope call(&tracer, "service.call", done, root.index());
      s = Serve(server.get(), Request(q.kind, q.id));
    }
    if (!s.ok) ++failed;
    const double exec = 1e-3 * static_cast<double>(s.response.latency.count());
    queue_ms[done] = s.wall_ms - exec;
    exec_ms[done] = exec;
    cpu[done] = s.cpu_ms;
    wall[done] = s.wall_ms;
    const auto& nb = s.response.neighbors;
    std::copy_n(nb.begin(), std::min(nb.size(), kK), answers[done].begin());
    counts[done] = static_cast<uint8_t>(std::min<size_t>(nb.size(), 255));
    bounds[done] = s.response.quality;
    if (sample) {
      if (q.kind == RequestKind::kSimilarTo) {
        TraceExact(*server, q.id, done, root.index(), &tracer, &lc);
      } else if (q.kind == RequestKind::kApproxKnn) {
        TraceApprox(*server, q.id, done, root.index(), &tracer, &lc);
      } else {
        TraceDtw(*server, q.id, done, root.index(), &tracer, &lc);
      }
    }
    ++done;
  }
  const double phase_wall = WallSeconds() - phase_t0;
  const double phase_cpu = ProcessCpuSeconds() - phase_c0;
  ReportUserSys(&r, phase_us0);
  const double mem_mb = HwmMb() - rss_before;
  r.attempted = done;
  r.failed = failed;
  queue_ms.resize(done);
  exec_ms.resize(done);

  // --- Checks (after the timed phase) ---------------------------------------
  // Every exact and approximate answer against the brute-force scan; DTW on
  // a fixed sample (the first panel ids) against the naive banded scan.
  const size_t window = engine_options.dtw_window;
  std::vector<std::string> errors(done);
  std::vector<double> recall(done, -1.0);
  std::vector<size_t> dtw_checked;
  for (size_t i = 0; i < done && dtw_checked.size() < kDtwChecks; ++i) {
    if (plan[i].kind == RequestKind::kSimilarToDtw) dtw_checked.push_back(i);
  }
  ParallelFor(done, [&](size_t i) {
    const Planned& q = plan[i];
    const bool dtw = q.kind == RequestKind::kSimilarToDtw;
    if (dtw && std::find(dtw_checked.begin(), dtw_checked.end(), i) == dtw_checked.end()) {
      return;
    }
    std::vector<s2::index::Neighbor> got(answers[i].begin(),
                                         answers[i].begin() + std::min<size_t>(counts[i], kK));
    std::string e;
    if (counts[i] > kK) {
      e = "more than k neighbours";
    } else if (dtw) {
      e = CheckExactKnn(got, BruteForceDtwKnn(ref, ref.row(q.id), kK, window, q.id), q.id,
                        [&](uint32_t id) { return BandedDtw(ref.row(q.id), ref.row(id), kDays, window); });
    } else {
      const auto truth = BruteForceKnn(ref, ref.row(q.id), kK, q.id);
      const auto dist = [&](uint32_t id) { return Euclidean(ref.row(q.id), ref.row(id), kDays); };
      e = q.kind == RequestKind::kSimilarTo
              ? CheckExactKnn(got, truth, q.id, dist)
              : CheckApproxKnn(got, bounds[i], truth, q.id, dist, &recall[i]);
    }
    if (!e.empty()) {
      errors[i] = std::string(s2::service::RequestKindToString(q.kind)) + " of " +
                  std::to_string(q.id) + ": " + e;
    }
  });
  for (const std::string& e : errors) {
    if (!e.empty()) r.Fail(e);
  }

  // --- Metrics --------------------------------------------------------------
  std::vector<double> cpu_exact, cpu_approx, cpu_dtw, wall_exact, wall_approx, wall_dtw;
  std::vector<double> approx_recall;
  size_t certified = 0;
  for (size_t i = 0; i < done; ++i) {
    switch (plan[i].kind) {
      case RequestKind::kSimilarTo:
        cpu_exact.push_back(cpu[i]);
        wall_exact.push_back(wall[i]);
        break;
      case RequestKind::kApproxKnn:
        cpu_approx.push_back(cpu[i]);
        wall_approx.push_back(wall[i]);
        approx_recall.push_back(recall[i]);
        certified += bounds[i].guaranteed_exact ? 1 : 0;
        break;
      default:
        cpu_dtw.push_back(cpu[i]);
        wall_dtw.push_back(wall[i]);
        break;
    }
  }
  r.report["checks.exact_knn"] = static_cast<double>(cpu_exact.size());
  r.report["checks.approx_knn"] = static_cast<double>(cpu_approx.size());
  r.report["checks.dtw_knn"] = static_cast<double>(dtw_checked.size());

  r.end_to_end["setup_s"] = setup_s;
  r.end_to_end["mem_mb"] = mem_mb;
  r.end_to_end["cpu_per_op_ms"] = 1e3 * phase_cpu / static_cast<double>(std::max<size_t>(done, 1));
  r.report["ops_per_s"] = (static_cast<double>(done) / phase_wall);
  r.report["knn_ms"] = (Percentile(wall_exact, 50));
  r.end_to_end["aknn_recall"] = Mean(approx_recall);

  r.report["rounds"] = static_cast<double>(done / round_requests);
  r.report["phase_wall_s"] = phase_wall;
  r.report["knn_cpu_ms"] = Percentile(cpu_exact, 50);
  r.report["aknn_cpu_ms"] = Percentile(cpu_approx, 50);
  r.report["dtw_cpu_ms"] = Percentile(cpu_dtw, 50);
  ReportPercentiles(&r, "cpu.knn", cpu_exact);
  ReportPercentiles(&r, "cpu.aknn", cpu_approx);
  ReportPercentiles(&r, "cpu.dtw", cpu_dtw);
  ReportPercentiles(&r, "wall.knn", wall_exact);
  ReportPercentiles(&r, "wall.aknn", wall_approx);
  ReportPercentiles(&r, "wall.dtw", wall_dtw);
  if (PercentileSupported(cpu_exact.size(), 99)) {
    r.report["knn_cpu_p99_ms"] = Percentile(cpu_exact, 99);
  }
  if (PercentileSupported(cpu_approx.size(), 99)) {
    r.report["aknn_cpu_p99_ms"] = Percentile(cpu_approx, 99);
  }

  // Layer metrics (meaningful in the traced run; idle layers read 0).
  auto& L = r.layers;
  L["service.queue_wait_ms"] = Percentile(queue_ms, 50);
  L["service.exec_ms"] = Percentile(exec_ms, 50);
  const double hits = static_cast<double>(server->cache().hits());
  const double misses = static_cast<double>(server->cache().misses());
  L["service.cache_hit_ratio"] = hits + misses > 0 ? hits / (hits + misses) : 0.0;
  L["approx.certified_ratio"] = cpu_approx.empty() ? 0.0 : static_cast<double>(certified) / static_cast<double>(cpu_approx.size());
  L["approx.summary_bytes"] = static_cast<double>(server->approx_info().summary_bytes);
  FillSearchLayers(tracer, lc, &r);
  double table_records = 0.0;
  for (size_t s = 0; s < server->sharded().num_shards(); ++s) {
    for (auto h : {s2::core::BurstHorizon::kLongTerm, s2::core::BurstHorizon::kShortTerm}) {
      table_records += static_cast<double>(server->sharded().shard(s).burst_table(h).size());
    }
  }
  L["burst.table_records"] = table_records;

  if (tracer.enabled() && !tracer.Write(cfg.trace_path)) {
    std::fprintf(stderr, "s2bench: could not write %s\n", cfg.trace_path.c_str());
  }
  server->Shutdown();
  return r;
}

}  // namespace s2bench
