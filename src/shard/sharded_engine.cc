#include "shard/sharded_engine.h"

#include <algorithm>
#include <latch>
#include <string>
#include <thread>
#include <utility>

#include "diag/check.h"
#include "diag/validate.h"
#include "dsp/stats.h"

namespace s2::shard {

namespace {

using Clock = std::chrono::steady_clock;

/// Gather phase for similarity verbs: per-shard answers already carry
/// *global* ids and exact distances for every candidate that can still
/// reach the global top-k, so sorting the union by (distance, id) and
/// truncating to k yields the exact global answer. The id tiebreak makes
/// the merge deterministic under any shard layout.
std::vector<index::Neighbor> MergeNeighbors(
    std::vector<std::vector<index::Neighbor>> locals, size_t k) {
  std::vector<index::Neighbor> merged;
  size_t total = 0;
  for (const auto& part : locals) total += part.size();
  merged.reserve(total);
  for (auto& part : locals) {
    merged.insert(merged.end(), part.begin(), part.end());
  }
  std::sort(merged.begin(), merged.end(), index::NeighborLess);
  if (merged.size() > k) merged.resize(k);
  return merged;
}

/// Gather phase for query-by-burst, using the burst table's own order:
/// descending BSim, ascending id. k == 0 keeps every positive match,
/// matching BurstTable::QueryByBurst.
std::vector<burst::BurstMatch> MergeBurstMatches(
    std::vector<std::vector<burst::BurstMatch>> locals, size_t k) {
  std::vector<burst::BurstMatch> merged;
  for (auto& part : locals) {
    merged.insert(merged.end(), part.begin(), part.end());
  }
  std::sort(merged.begin(), merged.end(),
            [](const burst::BurstMatch& a, const burst::BurstMatch& b) {
              if (a.bsim != b.bsim) return a.bsim > b.bsim;
              return a.series_id < b.series_id;
            });
  if (k > 0 && merged.size() > k) merged.resize(k);
  return merged;
}

}  // namespace

Result<ShardedEngine> ShardedEngine::Build(ts::Corpus corpus,
                                           const Options& options) {
  if (corpus.empty()) {
    return Status::InvalidArgument("ShardedEngine: empty corpus");
  }
  size_t n = options.num_shards;
  if (n == 0) n = std::thread::hardware_concurrency();
  if (n == 0) n = 1;
  n = std::min(n, corpus.size());

  // Train ONE summary configuration on the FULL corpus before partitioning:
  // coordinate ranks and quantization breakpoints become a pure function of
  // the corpus, never of the shard layout, which is what makes the
  // approximate tier's candidate sets and quality bounds bit-identical
  // across shard counts. Every shard engine adopts this config verbatim. A
  // single shard trains on the same rows in the same order itself, so it
  // skips this copy of the standardized corpus.
  core::S2Engine::Options engine_options = options.engine;
  if (n > 1 && engine_options.approx.preset_config == nullptr) {
    std::vector<std::vector<double>> standardized;
    standardized.reserve(corpus.size());
    for (const ts::TimeSeries& series : corpus.series()) {
      standardized.push_back(dsp::Standardize(series.values));
    }
    S2_ASSIGN_OR_RETURN(
        approx::SummaryConfig config,
        approx::SummaryConfig::Train(standardized,
                                     engine_options.approx.summary));
    engine_options.approx.preset_config =
        std::make_shared<const approx::SummaryConfig>(std::move(config));
  }

  ShardedEngine engine;
  // ScatterGather runs shard 0 on the calling thread, so the pool needs one
  // worker per other shard, and none for a single shard.
  if (n > 1) engine.pool_ = std::make_unique<exec::ThreadPool>(n - 1);
  engine.local_to_global_.resize(n);
  engine.placements_.reserve(corpus.size());

  // Round-robin split. Each series moves into its slice (the engines own
  // their slices), so the corpus is never held twice.
  std::vector<ts::Corpus> slices(n);
  for (ts::SeriesId g = 0; g < corpus.size(); ++g) {
    const auto shard_idx = static_cast<uint32_t>(g % n);
    const ts::SeriesId local = slices[shard_idx].Add(std::move(corpus.at(g)));
    engine.placements_.push_back({shard_idx, local});
    engine.local_to_global_[shard_idx].push_back(g);
  }

  // Shard builds are independent; shard 0 builds on the calling thread, so a one-shard build starts no thread.
  engine.shards_.resize(n);
  std::vector<Status> statuses(n);
  engine.ScatterGather(
      [&](size_t s) {
        core::S2Engine::Options shard_options = engine_options;
        if (!shard_options.disk_store_path.empty()) {
          shard_options.disk_store_path += ".shard" + std::to_string(s);
        }
        if (s < options.shard_envs.size() && options.shard_envs[s] != nullptr) {
          shard_options.env = options.shard_envs[s];
        }
        auto built = core::S2Engine::Build(std::move(slices[s]), shard_options);
        if (built.ok()) {
          engine.shards_[s] =
              std::make_unique<core::S2Engine>(std::move(built).ValueOrDie());
        } else {
          statuses[s] = built.status();
        }
      },
      nullptr);
  for (const Status& status : statuses) S2_RETURN_NOT_OK(status);

  S2_DCHECK_OK(engine.ValidateInvariants());
  return engine;
}

void ShardedEngine::ScatterGather(const std::function<void(size_t)>& fn,
                                  QueryStats* stats) const {
  const size_t n = shards_.size();
  if (stats != nullptr) {
    stats->fanout = n;
    stats->shard_latencies.assign(n, std::chrono::microseconds{0});
  }
  auto timed = [&fn, stats](size_t s) {
    const Clock::time_point start = Clock::now();
    fn(s);
    if (stats != nullptr) {
      // Distinct vector elements per shard: no synchronization needed.
      stats->shard_latencies[s] = std::chrono::duration_cast<std::chrono::microseconds>(
          Clock::now() - start);
    }
  };
  if (n == 1) {
    timed(0);
    return;
  }
  std::latch done(static_cast<ptrdiff_t>(n - 1));
  for (size_t s = 1; s < n; ++s) {
    auto task = [&timed, &done, s] {
      timed(s);
      done.count_down();
    };
    // The pool only rejects during shutdown (engine teardown); the inline
    // fallback keeps the latch sound either way.
    if (!pool_->Submit(task)) task();
  }
  timed(0);
  done.wait();
}

Result<ShardedEngine::Placement> ShardedEngine::PlacementOf(ts::SeriesId id) const {
  if (id >= placements_.size()) {
    return Status::NotFound("ShardedEngine: bad series id");
  }
  return placements_[id];
}

Result<ts::SeriesId> ShardedEngine::FindByName(std::string_view name) const {
  // Cheap per-shard hash lookups; duplicates across shards resolve to the
  // smallest global id (the single-engine catalog keeps the first insert).
  ts::SeriesId best = ts::kInvalidSeriesId;
  for (size_t s = 0; s < shards_.size(); ++s) {
    auto local = shards_[s]->FindByName(name);
    if (!local.ok()) continue;
    const ts::SeriesId global = GlobalId(s, *local);
    if (best == ts::kInvalidSeriesId || global < best) best = global;
  }
  if (best == ts::kInvalidSeriesId) {
    return Status::NotFound("ShardedEngine: no series named '" +
                            std::string(name) + "'");
  }
  return best;
}

Result<ts::SeriesId> ShardedEngine::AddSeries(ts::TimeSeries series) {
  // Least-loaded routing, ties to the lowest shard id: the strict `<` scan
  // from index 0 never replaces the target on an equal load, so the
  // placement of any AddSeries sequence is a pure function of the sequence
  // itself — never of map iteration order or timing. Starting from a
  // round-robin layout this reproduces round-robin, so shard balance is an
  // invariant, not an accident. Pinned by the placement-determinism
  // regression test in shard_equivalence_test.cc; don't "fix" the tie-break
  // without updating it.
  size_t target = 0;
  for (size_t s = 1; s < shards_.size(); ++s) {
    if (shards_[s]->corpus().size() < shards_[target]->corpus().size()) {
      target = s;
    }
  }
  S2_ASSIGN_OR_RETURN(ts::SeriesId local,
                      shards_[target]->AddSeries(std::move(series)));
  const auto global = static_cast<ts::SeriesId>(placements_.size());
  placements_.push_back({static_cast<uint32_t>(target), local});
  local_to_global_[target].push_back(global);
  S2_DCHECK_OK(ValidateInvariants());
  return global;
}

Status ShardedEngine::AppendPoint(ts::SeriesId id, double value) {
  S2_ASSIGN_OR_RETURN(Placement p, PlacementOf(id));
  return shards_[p.shard]->AppendPoint(p.local, value);
}

uint64_t ShardedEngine::TotalAppendCount() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) total += shard->append_count();
  return total;
}

Result<const ts::TimeSeries*> ShardedEngine::Series(ts::SeriesId id) const {
  S2_ASSIGN_OR_RETURN(Placement p, PlacementOf(id));
  return shards_[p.shard]->corpus().Get(p.local);
}

Status ShardedEngine::Subscribe(monitor::Subscription sub) {
  S2_ASSIGN_OR_RETURN(Placement p, PlacementOf(sub.series));
  const monitor::SubscriptionId sid = sub.id;
  // The shard registry keys on the local id; the subscription itself keeps
  // the global id, which is what its alerts report.
  S2_RETURN_NOT_OK(shards_[p.shard]->Subscribe(p.local, std::move(sub)));
  sub_shard_.emplace(sid, p.shard);
  return Status::OK();
}

Status ShardedEngine::RestoreSubscription(monitor::Subscription sub,
                                          bool engaged, uint32_t bin) {
  S2_ASSIGN_OR_RETURN(Placement p, PlacementOf(sub.series));
  const monitor::SubscriptionId sid = sub.id;
  S2_RETURN_NOT_OK(
      shards_[p.shard]->RestoreSubscription(p.local, std::move(sub), engaged,
                                            bin));
  sub_shard_.emplace(sid, p.shard);
  return Status::OK();
}

Status ShardedEngine::Unsubscribe(monitor::SubscriptionId id) {
  auto it = sub_shard_.find(id);
  if (it == sub_shard_.end()) {
    return Status::NotFound("ShardedEngine: no such subscription");
  }
  S2_RETURN_NOT_OK(shards_[it->second]->Unsubscribe(id));
  sub_shard_.erase(it);
  return Status::OK();
}

void ShardedEngine::set_alert_queue(monitor::AlertQueue* queue) {
  for (const auto& shard : shards_) shard->set_alert_queue(queue);
}

size_t ShardedEngine::ActiveSubscriptionCount() const {
  size_t total = 0;
  for (const auto& shard : shards_) total += shard->monitor_registry().size();
  return total;
}

std::vector<monitor::SubscriptionRegistry::Entry>
ShardedEngine::ListSubscriptions() const {
  std::vector<monitor::SubscriptionRegistry::Entry> all;
  for (const auto& shard : shards_) {
    std::vector<monitor::SubscriptionRegistry::Entry> entries =
        shard->monitor_registry().List();
    all.insert(all.end(), std::make_move_iterator(entries.begin()),
               std::make_move_iterator(entries.end()));
  }
  std::sort(all.begin(), all.end(),
            [](const monitor::SubscriptionRegistry::Entry& a,
               const monitor::SubscriptionRegistry::Entry& b) {
              return a.sub.id < b.sub.id;
            });
  return all;
}

Result<std::vector<index::Neighbor>> ShardedEngine::SimilarTo(
    ts::SeriesId id, size_t k, QueryStats* stats) const {
  S2_ASSIGN_OR_RETURN(Placement p, PlacementOf(id));
  const std::vector<double>& z = shards_[p.shard]->standardized(p.local);

  const size_t n = shards_.size();
  index::SharedRadius shared;
  std::vector<std::vector<index::Neighbor>> locals(n);
  std::vector<Status> statuses(n);
  std::vector<index::VpTreeIndex::SearchStats> search_stats(n);
  ScatterGather(
      [&](size_t s) {
        auto result = shards_[s]->SimilarToStandardized(
            z, k, s == p.shard ? p.local : ts::kInvalidSeriesId,
            &search_stats[s], &shared);
        if (result.ok()) {
          locals[s] = std::move(result).ValueOrDie();
          for (index::Neighbor& nb : locals[s]) nb.id = GlobalId(s, nb.id);
        } else {
          statuses[s] = result.status();
        }
      },
      stats);
  for (const Status& status : statuses) S2_RETURN_NOT_OK(status);
  if (stats != nullptr) {
    for (const auto& ss : search_stats) {
      stats->shared_radius_prunes += ss.shared_radius_prunes;
    }
  }
  return MergeNeighbors(std::move(locals), k);
}

Result<std::vector<index::Neighbor>> ShardedEngine::SimilarToSeries(
    const std::vector<double>& raw_values, size_t k, QueryStats* stats) const {
  // Standardize ONCE at the top — per-shard standardization would diverge
  // bitwise from the single-engine answer.
  const std::vector<double> z = dsp::Standardize(raw_values);

  const size_t n = shards_.size();
  index::SharedRadius shared;
  std::vector<std::vector<index::Neighbor>> locals(n);
  std::vector<Status> statuses(n);
  std::vector<index::VpTreeIndex::SearchStats> search_stats(n);
  ScatterGather(
      [&](size_t s) {
        auto result = shards_[s]->SimilarToStandardized(
            z, k, ts::kInvalidSeriesId, &search_stats[s], &shared);
        if (result.ok()) {
          locals[s] = std::move(result).ValueOrDie();
          for (index::Neighbor& nb : locals[s]) nb.id = GlobalId(s, nb.id);
        } else {
          statuses[s] = result.status();
        }
      },
      stats);
  for (const Status& status : statuses) S2_RETURN_NOT_OK(status);
  if (stats != nullptr) {
    for (const auto& ss : search_stats) {
      stats->shared_radius_prunes += ss.shared_radius_prunes;
    }
  }
  return MergeNeighbors(std::move(locals), k);
}

Result<std::vector<index::Neighbor>> ShardedEngine::SimilarToDtw(
    ts::SeriesId id, size_t k, QueryStats* stats) const {
  S2_ASSIGN_OR_RETURN(Placement p, PlacementOf(id));
  const std::vector<double>& z = shards_[p.shard]->standardized(p.local);

  const size_t n = shards_.size();
  index::SharedRadius shared;
  std::vector<std::vector<index::Neighbor>> locals(n);
  std::vector<Status> statuses(n);
  std::vector<dtw::DtwKnnSearch::SearchStats> search_stats(n);
  ScatterGather(
      [&](size_t s) {
        auto result = shards_[s]->SimilarToDtwStandardized(
            z, k, s == p.shard ? p.local : ts::kInvalidSeriesId,
            &search_stats[s], &shared);
        if (result.ok()) {
          locals[s] = std::move(result).ValueOrDie();
          for (index::Neighbor& nb : locals[s]) nb.id = GlobalId(s, nb.id);
        } else {
          statuses[s] = result.status();
        }
      },
      stats);
  for (const Status& status : statuses) S2_RETURN_NOT_OK(status);
  if (stats != nullptr) {
    for (const auto& ss : search_stats) {
      stats->shared_radius_prunes += ss.shared_radius_skips;
    }
  }
  return MergeNeighbors(std::move(locals), k);
}

Result<std::vector<index::Neighbor>> ShardedEngine::SimilarToExact(
    ts::SeriesId id, size_t k) const {
  S2_ASSIGN_OR_RETURN(Placement p, PlacementOf(id));
  const std::vector<double>& z = shards_[p.shard]->standardized(p.local);
  const size_t n = shards_.size();
  std::vector<std::vector<index::Neighbor>> locals(n);
  std::vector<Status> statuses(n);
  ScatterGather(
      [&](size_t s) {
        auto result = shards_[s]->SimilarToStandardizedExact(
            z, k, s == p.shard ? p.local : ts::kInvalidSeriesId);
        if (result.ok()) {
          locals[s] = std::move(result).ValueOrDie();
          for (index::Neighbor& nb : locals[s]) nb.id = GlobalId(s, nb.id);
        } else {
          statuses[s] = result.status();
        }
      },
      nullptr);
  for (const Status& status : statuses) S2_RETURN_NOT_OK(status);
  return MergeNeighbors(std::move(locals), k);
}

Result<std::vector<index::Neighbor>> ShardedEngine::SimilarToSeriesExact(
    const std::vector<double>& raw_values, size_t k) const {
  const std::vector<double> z = dsp::Standardize(raw_values);
  const size_t n = shards_.size();
  std::vector<std::vector<index::Neighbor>> locals(n);
  std::vector<Status> statuses(n);
  ScatterGather(
      [&](size_t s) {
        auto result =
            shards_[s]->SimilarToStandardizedExact(z, k, ts::kInvalidSeriesId);
        if (result.ok()) {
          locals[s] = std::move(result).ValueOrDie();
          for (index::Neighbor& nb : locals[s]) nb.id = GlobalId(s, nb.id);
        } else {
          statuses[s] = result.status();
        }
      },
      nullptr);
  for (const Status& status : statuses) S2_RETURN_NOT_OK(status);
  return MergeNeighbors(std::move(locals), k);
}

Result<std::vector<index::Neighbor>> ShardedEngine::SimilarToDtwExact(
    ts::SeriesId id, size_t k) const {
  S2_ASSIGN_OR_RETURN(Placement p, PlacementOf(id));
  const std::vector<double>& z = shards_[p.shard]->standardized(p.local);
  const size_t n = shards_.size();
  std::vector<std::vector<index::Neighbor>> locals(n);
  std::vector<Status> statuses(n);
  ScatterGather(
      [&](size_t s) {
        auto result = shards_[s]->SimilarToDtwStandardizedExact(
            z, k, s == p.shard ? p.local : ts::kInvalidSeriesId);
        if (result.ok()) {
          locals[s] = std::move(result).ValueOrDie();
          for (index::Neighbor& nb : locals[s]) nb.id = GlobalId(s, nb.id);
        } else {
          statuses[s] = result.status();
        }
      },
      nullptr);
  for (const Status& status : statuses) S2_RETURN_NOT_OK(status);
  return MergeNeighbors(std::move(locals), k);
}

Result<core::S2Engine::ApproxAnswer> ShardedEngine::ApproxKnn(
    ts::SeriesId id, const approx::QueryParams& params, QueryStats* stats,
    approx::ScanStats* scan_stats) const {
  S2_ASSIGN_OR_RETURN(Placement p, PlacementOf(id));
  const std::vector<double>& z = shards_[p.shard]->standardized(p.local);
  // Project ONCE on the owner; every shard shares the same global config
  // (Build trains it pre-partition), so the projection is shard-invariant.
  S2_ASSIGN_OR_RETURN(std::vector<double> proj,
                      shards_[p.shard]->ApproxProject(z));

  // Same population convention as the single engine: the query excluded.
  const size_t population = placements_.size() - 1;
  const size_t c = approx::ResolveCandidates(
      params, population, shards_[p.shard]->options().approx.summary);

  // Phase 1: every shard ranks its own slice's top-C candidates. The merge
  // keeps the global top-C by (lb_sq, global id) — exact, because any
  // global top-C member is by definition also in its own shard's top-C.
  const size_t n = shards_.size();
  std::vector<std::vector<approx::SummaryIndex::Candidate>> cand_locals(n);
  std::vector<Status> statuses(n);
  std::vector<approx::ScanStats> scan_locals(n);
  ScatterGather(
      [&](size_t s) {
        auto result = shards_[s]->ApproxCandidates(
            proj, c, s == p.shard ? p.local : ts::kInvalidSeriesId,
            &scan_locals[s]);
        if (result.ok()) {
          cand_locals[s] = std::move(result).ValueOrDie();
          for (approx::SummaryIndex::Candidate& cand : cand_locals[s]) {
            cand.id = GlobalId(s, cand.id);
          }
        } else {
          statuses[s] = result.status();
        }
      },
      stats);
  for (const Status& status : statuses) S2_RETURN_NOT_OK(status);

  std::vector<approx::SummaryIndex::Candidate> merged;
  for (const auto& part : cand_locals) {
    merged.insert(merged.end(), part.begin(), part.end());
  }
  std::sort(merged.begin(), merged.end(),
            [](const approx::SummaryIndex::Candidate& a,
               const approx::SummaryIndex::Candidate& b) {
              if (a.lb_sq != b.lb_sq) return a.lb_sq < b.lb_sq;
              return a.id < b.id;
            });
  if (merged.size() > c) merged.resize(c);

  // Phase 2: verify each candidate on the shard that owns its row, under
  // one shared radius. Regrouping the globally sorted list preserves the
  // ascending (lb_sq, id) order each verifier's break condition relies on.
  std::vector<std::vector<approx::SummaryIndex::Candidate>> per_shard(n);
  for (const approx::SummaryIndex::Candidate& cand : merged) {
    const Placement owner = placements_[cand.id];
    per_shard[owner.shard].push_back({cand.lb_sq, owner.local});
  }
  index::SharedRadius shared;
  std::vector<std::vector<index::Neighbor>> locals(n);
  ScatterGather(
      [&](size_t s) {
        auto result = shards_[s]->ApproxVerify(z, per_shard[s], params.k,
                                               &scan_locals[s], &shared);
        if (result.ok()) {
          locals[s] = std::move(result).ValueOrDie();
          for (index::Neighbor& nb : locals[s]) nb.id = GlobalId(s, nb.id);
        } else {
          statuses[s] = result.status();
        }
      },
      nullptr);
  for (const Status& status : statuses) S2_RETURN_NOT_OK(status);
  if (scan_stats != nullptr) {
    for (const approx::ScanStats& local : scan_locals) {
      scan_stats->rows_scanned += local.rows_scanned;
      scan_stats->summary_abandons += local.summary_abandons;
      scan_stats->candidates += local.candidates;
      scan_stats->verified += local.verified;
    }
  }

  core::S2Engine::ApproxAnswer answer;
  answer.neighbors = MergeNeighbors(std::move(locals), params.k);
  const double worst_lb_sq = merged.empty() ? 0.0 : merged.back().lb_sq;
  answer.bound = approx::BoundFromVerification(
      worst_lb_sq, merged.size(), population, answer.neighbors, params.k);
  return answer;
}

Result<std::vector<period::PeriodHit>> ShardedEngine::FindPeriods(
    ts::SeriesId id) const {
  S2_ASSIGN_OR_RETURN(Placement p, PlacementOf(id));
  return shards_[p.shard]->FindPeriods(p.local);
}

Result<std::vector<burst::BurstRegion>> ShardedEngine::BurstsOf(
    ts::SeriesId id, core::BurstHorizon horizon) const {
  S2_ASSIGN_OR_RETURN(Placement p, PlacementOf(id));
  return shards_[p.shard]->BurstsOf(p.local, horizon);
}

Result<std::vector<burst::BurstMatch>> ShardedEngine::QueryByBurst(
    ts::SeriesId id, size_t k, core::BurstHorizon horizon,
    QueryStats* stats) const {
  S2_ASSIGN_OR_RETURN(Placement p, PlacementOf(id));
  // The owner computes the query's burst regions (absolute days, exactly
  // the single-engine detection); every shard then scans its own burst
  // table, with the query series excluded only where it lives.
  S2_ASSIGN_OR_RETURN(std::vector<burst::BurstRegion> regions,
                      shards_[p.shard]->BurstsOf(p.local, horizon));
  const size_t n = shards_.size();
  std::vector<std::vector<burst::BurstMatch>> locals(n);
  ScatterGather(
      [&](size_t s) {
        locals[s] = shards_[s]->burst_table(horizon).QueryByBurst(
            regions, k, s == p.shard ? p.local : ts::kInvalidSeriesId);
        for (burst::BurstMatch& m : locals[s]) {
          m.series_id = GlobalId(s, m.series_id);
        }
      },
      stats);
  return MergeBurstMatches(std::move(locals), k);
}

Result<std::vector<burst::BurstMatch>> ShardedEngine::QueryByBurstSeries(
    const ts::TimeSeries& series, size_t k, core::BurstHorizon horizon,
    QueryStats* stats) const {
  // Each shard re-detects the query's bursts itself (deterministic and
  // cheap next to the table scan), then queries its own slice.
  const size_t n = shards_.size();
  std::vector<std::vector<burst::BurstMatch>> locals(n);
  std::vector<Status> statuses(n);
  ScatterGather(
      [&](size_t s) {
        auto result = shards_[s]->QueryByBurstSeries(series, k, horizon);
        if (result.ok()) {
          locals[s] = std::move(result).ValueOrDie();
          for (burst::BurstMatch& m : locals[s]) {
            m.series_id = GlobalId(s, m.series_id);
          }
        } else {
          statuses[s] = result.status();
        }
      },
      stats);
  for (const Status& status : statuses) S2_RETURN_NOT_OK(status);
  return MergeBurstMatches(std::move(locals), k);
}

uint64_t ShardedEngine::TotalRetryCount() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    if (shard->retry_source() != nullptr) {
      total += shard->retry_source()->retry_count();
    }
  }
  return total;
}

uint64_t ShardedEngine::TotalGiveupCount() const {
  uint64_t total = 0;
  for (const auto& shard : shards_) {
    if (shard->retry_source() != nullptr) {
      total += shard->retry_source()->giveup_count();
    }
  }
  return total;
}

Status ShardedEngine::ValidateInvariants() const {
  for (const auto& shard : shards_) {
    S2_RETURN_NOT_OK(shard->ValidateInvariants());
  }

  diag::Validator v("ShardedEngine");
  v.Check(!shards_.empty()) << "no shards";
  v.Check(local_to_global_.size() == shards_.size())
      << "local_to_global covers " << local_to_global_.size() << " shards of "
      << shards_.size();
  size_t total = 0;
  for (size_t s = 0; s < shards_.size(); ++s) {
    total += shards_[s]->corpus().size();
    if (s < local_to_global_.size()) {
      v.Check(local_to_global_[s].size() == shards_[s]->corpus().size())
          << "shard " << s << " maps " << local_to_global_[s].size()
          << " locals but holds " << shards_[s]->corpus().size() << " series";
    }
  }
  v.Check(placements_.size() == total)
      << "placement map covers " << placements_.size() << " ids but shards hold "
      << total << " series";
  for (ts::SeriesId g = 0; g < placements_.size(); ++g) {
    const Placement& p = placements_[g];
    if (p.shard >= local_to_global_.size() ||
        p.local >= local_to_global_[p.shard].size()) {
      v.Check(false) << "global id " << g << " placed out of range (shard "
                     << p.shard << ", local " << p.local << ")";
      continue;
    }
    v.Check(local_to_global_[p.shard][p.local] == g)
        << "placement maps disagree for global id " << g;
  }
  // Every shard must run the SAME summary configuration — the approximate
  // tier's shard-count invisibility depends on it.
  const uint64_t fingerprint = shards_[0]->summary()->config().Fingerprint();
  for (size_t s = 1; s < shards_.size(); ++s) {
    v.Check(shards_[s]->summary()->config().Fingerprint() == fingerprint)
        << "shard " << s << " runs a different summary config than shard 0";
  }
  size_t subs = 0;
  for (const auto& shard : shards_) subs += shard->monitor_registry().size();
  v.Check(sub_shard_.size() == subs)
      << "subscription routing map tracks " << sub_shard_.size()
      << " subscriptions but shard registries hold " << subs;
  for (const auto& [sub_id, shard] : sub_shard_) {
    v.Check(shard < shards_.size() &&
            shards_[shard]->monitor_registry().Contains(sub_id))
        << "subscription " << sub_id << " routed to shard " << shard
        << " which does not hold it";
  }
  return v.ToStatus();
}

}  // namespace s2::shard
