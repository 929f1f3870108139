#include "core/s2_engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <limits>
#include <utility>

#include "diag/check.h"
#include "diag/validate.h"
#include "dsp/stats.h"
#include "dtw/dtw.h"
#include "simd/simd.h"

namespace s2::core {

Result<S2Engine> S2Engine::Build(ts::Corpus corpus, const Options& options) {
  if (corpus.empty()) return Status::InvalidArgument("S2Engine: empty corpus");
  const size_t length = corpus.at(0).size();
  for (const ts::TimeSeries& series : corpus.series()) {
    if (series.size() != length) {
      return Status::InvalidArgument("S2Engine: all series must share one length");
    }
  }

  if (!options.simd.empty()) {
    S2_RETURN_NOT_OK(simd::Configure(options.simd));
  }

  S2Engine engine;
  engine.options_ = options;
  engine.long_detector_ = burst::BurstDetector(options.long_burst);
  engine.short_detector_ = burst::BurstDetector(options.short_burst);
  engine.period_detector_ = period::PeriodDetector(options.period);

  // Standardize all sequences (the paper's preprocessing for both
  // similarity and burst features).
  engine.standardized_.reserve(corpus.size());
  for (const ts::TimeSeries& series : corpus.series()) {
    engine.standardized_.push_back(dsp::Standardize(series.values));
  }

  // Name catalog. Later duplicates keep their id unreachable by name, which
  // matches a real log where query strings are unique.
  for (ts::SeriesId id = 0; id < corpus.size(); ++id) {
    engine.by_name_.emplace(corpus.at(id).name, id);
  }

  // Similarity index over the standardized data.
  S2_ASSIGN_OR_RETURN(index::VpTreeIndex built,
                      index::VpTreeIndex::Build(engine.standardized_, options.index));
  engine.index_ = std::make_unique<index::VpTreeIndex>(std::move(built));

  // Verification source: RAM or disk.
  if (options.disk_store_path.empty()) {
    S2_ASSIGN_OR_RETURN(auto source,
                        storage::InMemorySequenceSource::Create(engine.standardized_));
    engine.mem_source_ = source.get();
    engine.source_ = std::move(source);
  } else {
    S2_ASSIGN_OR_RETURN(auto source,
                        storage::DiskSequenceStore::Create(options.disk_store_path,
                                                           engine.standardized_,
                                                           options.env));
    // Disk reads can fail transiently (EINTR, injected faults); wrap them in
    // the retry decorator so one blip does not abort a whole query.
    engine.disk_source_ = source.get();
    auto retrying = std::make_unique<resilience::RetryingSequenceSource>(
        std::move(source), options.retry);
    engine.retry_source_ = retrying.get();
    engine.source_ = std::move(retrying);
  }

  // Burst stores for both horizons.
  for (ts::SeriesId id = 0; id < corpus.size(); ++id) {
    const ts::TimeSeries& series = corpus.at(id);
    S2_ASSIGN_OR_RETURN(std::vector<burst::BurstRegion> long_regions,
                        engine.long_detector_.Detect(series.values));
    engine.long_bursts_.Insert(id, long_regions, series.start_day);
    S2_ASSIGN_OR_RETURN(std::vector<burst::BurstRegion> short_regions,
                        engine.short_detector_.Detect(series.values));
    engine.short_bursts_.Insert(id, short_regions, series.start_day);
  }

  // Approximate tier: adopt the preset config (sharded engines train one on
  // the full corpus before partitioning) or train on this corpus.
  if (options.approx.enabled) {
    approx::SummaryConfig config;
    if (options.approx.preset_config != nullptr) {
      config = *options.approx.preset_config;
    } else {
      S2_ASSIGN_OR_RETURN(config,
                          approx::SummaryConfig::Train(engine.standardized_,
                                                       options.approx.summary));
    }
    S2_ASSIGN_OR_RETURN(approx::SummaryIndex summary,
                        approx::SummaryIndex::Build(std::move(config),
                                                    engine.standardized_));
    engine.summary_ = std::make_unique<approx::SummaryIndex>(std::move(summary));
  }

  engine.corpus_ = std::move(corpus);
  S2_DCHECK_OK(engine.ValidateInvariants());
  return engine;
}

Status S2Engine::ValidateInvariants() const {
  S2_RETURN_NOT_OK(index_->Validate());
  if (delta_ != nullptr) S2_RETURN_NOT_OK(delta_->Validate());
  S2_RETURN_NOT_OK(long_bursts_.Validate());
  S2_RETURN_NOT_OK(short_bursts_.Validate());

  diag::Validator v("S2Engine");
  v.Check(corpus_.size() == standardized_.size())
      << "corpus holds " << corpus_.size() << " series but "
      << standardized_.size() << " standardized rows exist";
  // Every series lives in exactly one index tier; the tiers partition the
  // corpus (delta membership disjointness is enforced by AppendPoint, which
  // removes from one tier before inserting into the other).
  const size_t in_delta = delta_ == nullptr ? 0 : delta_->size();
  v.Check(index_->size() + in_delta == corpus_.size())
      << "index tiers hold " << index_->size() << " main + " << in_delta
      << " delta objects for a corpus of " << corpus_.size();
  const size_t length = standardized_.empty() ? 0 : standardized_.front().size();
  for (size_t id = 0; id < standardized_.size(); ++id) {
    v.Check(standardized_[id].size() == length)
        << "standardized row " << id << " has length "
        << standardized_[id].size() << ", expected " << length;
  }
  for (const auto& [name, id] : by_name_) {
    v.Check(id < corpus_.size())
        << "catalog name '" << name << "' maps to out-of-range id " << id;
  }
  v.Check(source_ != nullptr && source_->num_series() == corpus_.size())
      << "sequence source holds "
      << (source_ == nullptr ? 0 : source_->num_series())
      << " series for a corpus of " << corpus_.size();
  if (summary_ != nullptr) {
    S2_RETURN_NOT_OK(summary_->Validate());
    v.Check(summary_->size() == corpus_.size())
        << "summary index holds " << summary_->size()
        << " envelopes for a corpus of " << corpus_.size();
  }
  return v.ToStatus();
}

Result<ts::SeriesId> S2Engine::FindByName(std::string_view name) const {
  const auto it = by_name_.find(std::string(name));
  if (it == by_name_.end()) {
    return Status::NotFound("S2Engine: no series named '" + std::string(name) + "'");
  }
  return it->second;
}

Result<ts::SeriesId> S2Engine::AddSeries(ts::TimeSeries series) {
  if (mem_source_ == nullptr) {
    return Status::InvalidArgument(
        "S2Engine::AddSeries: only supported for RAM-resident engines");
  }
  if (series.size() != standardized_.front().size()) {
    return Status::InvalidArgument("S2Engine::AddSeries: series length mismatch");
  }
  std::vector<double> z = dsp::Standardize(series.values);
  S2_ASSIGN_OR_RETURN(ts::SeriesId id, mem_source_->Append(z));
  S2_RETURN_NOT_OK(index_->Insert(id, z, mem_source_));

  S2_ASSIGN_OR_RETURN(std::vector<burst::BurstRegion> long_regions,
                      long_detector_.Detect(series.values));
  long_bursts_.Insert(id, long_regions, series.start_day);
  S2_ASSIGN_OR_RETURN(std::vector<burst::BurstRegion> short_regions,
                      short_detector_.Detect(series.values));
  short_bursts_.Insert(id, short_regions, series.start_day);

  if (summary_ != nullptr) S2_RETURN_NOT_OK(summary_->Append(z));

  standardized_.push_back(std::move(z));
  by_name_.emplace(series.name, id);
  corpus_.Add(std::move(series));
  S2_DCHECK_OK(ValidateInvariants());
  return id;
}

Status S2Engine::AppendPoint(ts::SeriesId id, double value) {
  if (id >= corpus_.size()) return Status::NotFound("S2Engine: bad series id");
  if (!std::isfinite(value)) {
    return Status::InvalidArgument("S2Engine::AppendPoint: value must be finite");
  }
  ts::TimeSeries& series = corpus_.at(id);

  // Stage the slid window; nothing is mutated until the fallible steps pass.
  std::vector<double> values(series.values.begin() + 1, series.values.end());
  values.push_back(value);
  std::vector<double> z = dsp::Standardize(values);
  // Pinned for tombstone routing: the row the series is currently indexed
  // under, which the store is about to forget.
  const std::vector<double> old_z = standardized_[id];

  // 1. Stored row first — the index mutations below route against it.
  if (mem_source_ != nullptr) {
    S2_RETURN_NOT_OK(mem_source_->Update(id, z));
  } else {
    S2_RETURN_NOT_OK(disk_source_->UpdateRecord(id, z));
  }

  // 2. Move the series into the delta tier under its new row. The old
  // entry must leave its tier entirely: a tombstoned vantage with a stale
  // compressed repr routes but never advertises bounds, so it can never
  // tighten a pruning radius against the data it no longer describes.
  if (delta_ == nullptr) {
    S2_ASSIGN_OR_RETURN(stream::DeltaIndex created,
                        stream::DeltaIndex::Create(
                            options_.index, static_cast<uint32_t>(z.size())));
    delta_ = std::make_unique<stream::DeltaIndex>(std::move(created));
  }
  if (delta_->Contains(id)) {
    S2_RETURN_NOT_OK(delta_->Remove(id, &old_z));
  } else {
    S2_RETURN_NOT_OK(index_->Remove(id, &old_z));
  }
  const Status inserted = delta_->Insert(id, z, source_.get());
  if (!inserted.ok()) {
    // A routing read failed (disk engines under persistent faults). Roll the
    // series back to its pre-append state: revert the stored row, re-index
    // the old row in the delta. If even that fails the series stays
    // unindexed — degraded but never wrong — until WAL replay rebuilds.
    Status rollback = mem_source_ != nullptr
                          ? mem_source_->Update(id, old_z)
                          : disk_source_->UpdateRecord(id, old_z);
    if (rollback.ok()) rollback = delta_->Insert(id, old_z, source_.get());
    (void)rollback;
    return inserted;
  }

  // 3. Commit the window; every fallible index step is behind us.
  series.values = std::move(values);
  series.start_day += 1;
  standardized_[id] = std::move(z);
  // Re-summarize under the frozen config. The envelope is widened to
  // contain the new projection, so summary pruning stays sound even when
  // the slid window leaves its training-time cell. The rollback path above
  // returns before this point, leaving the summary consistent with the
  // (unchanged) standardized row.
  if (summary_ != nullptr) {
    S2_RETURN_NOT_OK(summary_->Update(id, standardized_[id]));
  }

  // 4. Derived state: burst rows of both horizons.
  S2_RETURN_NOT_OK(RefreshDerivedState(id));

  ++appends_;

  // 5. Standing subscriptions on this series — O(active subscriptions on
  // id), one hash probe when there are none. Evaluation reads only the
  // committed window and standardized row, so the fired alert stream cannot
  // depend on which shard this engine happens to be.
  if (registry_.CountOn(id) > 0) {
    const auto eval_start = std::chrono::steady_clock::now();
    monitor::EvalContext ctx;
    ctx.raw = &series.values;
    ctx.z = &standardized_[id];
    ctx.start_day = series.start_day;
    ctx.detector = &period_detector_;
    std::vector<monitor::Alert> fired;
    S2_RETURN_NOT_OK(registry_.Evaluate(id, ctx, &fired));
    if (alert_queue_ != nullptr) {
      alert_queue_->Push(std::move(fired));
      alert_queue_->RecordEval(static_cast<uint64_t>(
          std::chrono::duration_cast<std::chrono::microseconds>(
              std::chrono::steady_clock::now() - eval_start)
              .count()));
    }
  }

  S2_DCHECK_OK(ValidateInvariants());
  return Status::OK();
}

Status S2Engine::Subscribe(ts::SeriesId key, monitor::Subscription sub) {
  if (key >= corpus_.size()) {
    return Status::NotFound("S2Engine::Subscribe: bad series id");
  }
  const ts::TimeSeries& series = corpus_.at(key);
  monitor::EvalContext ctx;
  ctx.raw = &series.values;
  ctx.z = &standardized_[key];
  ctx.start_day = series.start_day;
  ctx.detector = &period_detector_;
  return registry_.Subscribe(key, std::move(sub), ctx);
}

Status S2Engine::RestoreSubscription(ts::SeriesId key,
                                     monitor::Subscription sub, bool engaged,
                                     uint32_t bin) {
  if (key >= corpus_.size()) {
    return Status::NotFound("S2Engine::RestoreSubscription: bad series id");
  }
  const ts::TimeSeries& series = corpus_.at(key);
  monitor::EvalContext ctx;
  ctx.raw = &series.values;
  ctx.z = &standardized_[key];
  ctx.start_day = series.start_day;
  ctx.detector = &period_detector_;
  return registry_.Restore(key, std::move(sub), engaged, bin, ctx);
}

Status S2Engine::Unsubscribe(monitor::SubscriptionId id) {
  return registry_.Unsubscribe(id);
}

Status S2Engine::RefreshDerivedState(ts::SeriesId id) {
  const ts::TimeSeries& series = corpus_.at(id);
  S2_ASSIGN_OR_RETURN(std::vector<burst::BurstRegion> long_regions,
                      long_detector_.Detect(series.values));
  long_bursts_.EraseSeries(id);
  long_bursts_.Insert(id, long_regions, series.start_day);
  S2_ASSIGN_OR_RETURN(std::vector<burst::BurstRegion> short_regions,
                      short_detector_.Detect(series.values));
  short_bursts_.EraseSeries(id);
  short_bursts_.Insert(id, short_regions, series.start_day);
  return Status::OK();
}

Status S2Engine::Compact() {
  if (delta_ == nullptr || delta_->size() == 0) return Status::OK();
  // Per-series move keeps the tiers a partition of the corpus even if an
  // insert fails midway (disk routing reads are fallible): a series is in
  // both tiers only between its two statements, which no reader can observe
  // under the writer lock.
  for (ts::SeriesId id : delta_->MemberIds()) {
    S2_RETURN_NOT_OK(index_->Insert(id, standardized_[id], source_.get()));
    S2_RETURN_NOT_OK(delta_->Remove(id, &standardized_[id]));
  }
  // Reset the delta tree outright, dropping its accumulated tombstones.
  S2_RETURN_NOT_OK(delta_->Clear());
  ++compactions_;
  S2_DCHECK_OK(ValidateInvariants());
  return Status::OK();
}

Result<std::vector<index::Neighbor>> S2Engine::SearchIndexBoth(
    const std::vector<double>& z, size_t k,
    index::VpTreeIndex::SearchStats* stats, index::SharedRadius* shared) const {
  if (delta_ == nullptr || delta_->size() == 0) {
    return index_->Search(z, k, source_.get(), stats, shared);
  }
  // The tiers partition the corpus, so this is the scatter-gather argument
  // at tier granularity: each search returns every member of its tier that
  // could be in the global top-k (with exact distances), the shared radius
  // lets each prune against the other's certified bounds, and the merge by
  // (distance, id) is exact. Ids are disjoint across tiers by construction.
  index::SharedRadius local;
  index::SharedRadius* radius = shared != nullptr ? shared : &local;
  S2_ASSIGN_OR_RETURN(std::vector<index::Neighbor> merged,
                      index_->Search(z, k, source_.get(), stats, radius));
  S2_ASSIGN_OR_RETURN(std::vector<index::Neighbor> from_delta,
                      delta_->Search(z, k, source_.get(), stats, radius));
  merged.insert(merged.end(), from_delta.begin(), from_delta.end());
  std::sort(merged.begin(), merged.end(),
            [](const index::Neighbor& a, const index::Neighbor& b) {
              return a.distance != b.distance ? a.distance < b.distance
                                              : a.id < b.id;
            });
  if (merged.size() > k) merged.resize(k);
  return merged;
}

Result<std::vector<index::Neighbor>> S2Engine::SimilarTo(
    ts::SeriesId id, size_t k, index::VpTreeIndex::SearchStats* stats) const {
  if (id >= corpus_.size()) return Status::NotFound("S2Engine: bad series id");
  // Ask for k+1 and drop the series itself (its own nearest neighbor).
  S2_ASSIGN_OR_RETURN(
      std::vector<index::Neighbor> neighbors,
      SearchIndexBoth(standardized_[id], k + 1, stats, nullptr));
  std::erase_if(neighbors, [id](const index::Neighbor& n) { return n.id == id; });
  if (neighbors.size() > k) neighbors.resize(k);
  return neighbors;
}

Result<std::vector<index::Neighbor>> S2Engine::SimilarToSeries(
    const std::vector<double>& raw_values, size_t k,
    index::VpTreeIndex::SearchStats* stats) const {
  const std::vector<double> z = dsp::Standardize(raw_values);
  return SearchIndexBoth(z, k, stats, nullptr);
}

Result<S2Engine::ApproxAnswer> S2Engine::ApproxKnn(
    ts::SeriesId id, const approx::QueryParams& params,
    approx::ScanStats* stats) const {
  if (summary_ == nullptr) {
    return Status::InvalidArgument(
        "S2Engine::ApproxKnn: approximate tier disabled at Build");
  }
  if (id >= corpus_.size()) return Status::NotFound("S2Engine: bad series id");
  S2_ASSIGN_OR_RETURN(std::vector<double> proj, ApproxProject(standardized_[id]));
  // The query itself is excluded from the scan, so the population the
  // candidates are drawn from is one smaller than the corpus — the same
  // convention the sharded gather uses, so bounds agree across topologies.
  const size_t population = summary_->size() - 1;
  const size_t c =
      approx::ResolveCandidates(params, population, options_.approx.summary);
  std::vector<approx::SummaryIndex::Candidate> candidates =
      summary_->Candidates(proj, c, id, stats);
  S2_ASSIGN_OR_RETURN(
      std::vector<index::Neighbor> neighbors,
      ApproxVerify(standardized_[id], candidates, params.k, stats, nullptr));
  // Canonical answer order — identical to the sharded gather's merge.
  std::sort(neighbors.begin(), neighbors.end(),
            [](const index::Neighbor& a, const index::Neighbor& b) {
              return a.distance != b.distance ? a.distance < b.distance
                                              : a.id < b.id;
            });
  const double worst_lb_sq = candidates.empty() ? 0.0 : candidates.back().lb_sq;
  ApproxAnswer answer;
  answer.bound = approx::BoundFromVerification(worst_lb_sq, candidates.size(),
                                               population, neighbors, params.k);
  answer.neighbors = std::move(neighbors);
  return answer;
}

Result<std::vector<double>> S2Engine::ApproxProject(
    const std::vector<double>& z) const {
  if (summary_ == nullptr) {
    return Status::InvalidArgument(
        "S2Engine::ApproxProject: approximate tier disabled at Build");
  }
  std::vector<double> proj;
  S2_RETURN_NOT_OK(summary_->config().Project(z, &proj));
  return proj;
}

Result<std::vector<approx::SummaryIndex::Candidate>> S2Engine::ApproxCandidates(
    const std::vector<double>& proj, size_t c, ts::SeriesId exclude,
    approx::ScanStats* stats) const {
  if (summary_ == nullptr) {
    return Status::InvalidArgument(
        "S2Engine::ApproxCandidates: approximate tier disabled at Build");
  }
  return summary_->Candidates(proj, c, exclude, stats);
}

Result<std::vector<index::Neighbor>> S2Engine::ApproxVerify(
    const std::vector<double>& z,
    const std::vector<approx::SummaryIndex::Candidate>& candidates, size_t k,
    approx::ScanStats* stats, index::SharedRadius* shared) const {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  index::BestList best(k);
  // Same loop shape as the VP-tree verification pass, in the squared
  // domain: candidates arrive ascending by (lb_sq, id), so once the local
  // list is full and a lower bound clears the local threshold nothing after
  // it can either. The shared radius only prunes (never terminates) —
  // another shard's tighter answer says "skip this one", not "stop".
  for (const approx::SummaryIndex::Candidate& candidate : candidates) {
    if (candidate.id >= standardized_.size()) {
      return Status::InvalidArgument(
          "S2Engine::ApproxVerify: candidate id out of range");
    }
    const double local = best.Threshold();
    double threshold = local;
    if (shared != nullptr) threshold = std::min(threshold, shared->load());
    const double local_sq = std::isinf(local) ? kInf : local * local;
    const double threshold_sq = std::isinf(threshold) ? kInf : threshold * threshold;
    if (best.Full() && candidate.lb_sq > local_sq) break;
    if (candidate.lb_sq > threshold_sq) continue;
    const std::vector<double>& row = standardized_[candidate.id];
    const double dist_sq = dsp::SquaredEuclideanEarlyAbandon(
        z.data(), row.data(), std::min(z.size(), row.size()), threshold_sq);
    if (dist_sq <= threshold_sq) {
      if (stats != nullptr) ++stats->verified;
      best.Offer(candidate.id, std::sqrt(dist_sq));
      if (shared != nullptr && best.Full()) shared->Tighten(best.Threshold());
    }
  }
  return std::move(best).Take();
}

namespace {

// Exact Euclidean k-NN by linear scan over RAM-resident rows; `exclude`
// drops the query series itself. Cannot touch disk, cannot fail.
std::vector<index::Neighbor> ExactScan(
    const std::vector<std::vector<double>>& rows,
    const std::vector<double>& query, size_t k, ts::SeriesId exclude) {
  index::BestList best(k);
  for (ts::SeriesId id = 0; id < rows.size(); ++id) {
    if (id == exclude) continue;
    const std::vector<double>& row = rows[id];
    const size_t n = std::min(row.size(), query.size());
    double sum = 0.0;
    for (size_t i = 0; i < n; ++i) {
      const double d = row[i] - query[i];
      sum += d * d;
    }
    best.Offer(id, std::sqrt(sum));
  }
  return std::move(best).Take();
}

}  // namespace

Result<std::vector<index::Neighbor>> S2Engine::SimilarToExact(
    ts::SeriesId id, size_t k) const {
  if (id >= corpus_.size()) return Status::NotFound("S2Engine: bad series id");
  return ExactScan(standardized_, standardized_[id], k, id);
}

Result<std::vector<index::Neighbor>> S2Engine::SimilarToSeriesExact(
    const std::vector<double>& raw_values, size_t k) const {
  const std::vector<double> z = dsp::Standardize(raw_values);
  return ExactScan(standardized_, z, k, ts::kInvalidSeriesId);
}

Result<std::vector<index::Neighbor>> S2Engine::SimilarToDtwExact(
    ts::SeriesId id, size_t k) const {
  if (id >= corpus_.size()) return Status::NotFound("S2Engine: bad series id");
  return SimilarToDtwStandardizedExact(standardized_[id], k, id);
}

Result<std::vector<index::Neighbor>> S2Engine::SimilarToDtw(
    ts::SeriesId id, size_t k, dtw::DtwKnnSearch::SearchStats* stats) const {
  if (id >= corpus_.size()) return Status::NotFound("S2Engine: bad series id");
  return SimilarToDtwStandardized(standardized_[id], k, id, stats);
}

Result<std::vector<index::Neighbor>> S2Engine::SimilarToStandardized(
    const std::vector<double>& z, size_t k, ts::SeriesId exclude,
    index::VpTreeIndex::SearchStats* stats, index::SharedRadius* shared) const {
  const bool drop_self = exclude != ts::kInvalidSeriesId;
  S2_ASSIGN_OR_RETURN(
      std::vector<index::Neighbor> neighbors,
      SearchIndexBoth(z, drop_self ? k + 1 : k, stats, shared));
  if (drop_self) {
    std::erase_if(neighbors,
                  [exclude](const index::Neighbor& n) { return n.id == exclude; });
    if (neighbors.size() > k) neighbors.resize(k);
  }
  return neighbors;
}

Result<std::vector<index::Neighbor>> S2Engine::SimilarToDtwStandardized(
    const std::vector<double>& z, size_t k, ts::SeriesId exclude,
    dtw::DtwKnnSearch::SearchStats* stats, index::SharedRadius* shared) const {
  const bool drop_self = exclude != ts::kInvalidSeriesId;
  S2_ASSIGN_OR_RETURN(std::vector<index::Neighbor> neighbors,
                      dtw::DtwKnnSearch({options_.dtw_window})
                          .Search(z, drop_self ? k + 1 : k, standardized_,
                                  retry_source_, stats, shared));
  if (drop_self) {
    std::erase_if(neighbors,
                  [exclude](const index::Neighbor& n) { return n.id == exclude; });
    if (neighbors.size() > k) neighbors.resize(k);
  }
  return neighbors;
}

Result<std::vector<index::Neighbor>> S2Engine::SimilarToStandardizedExact(
    const std::vector<double>& z, size_t k, ts::SeriesId exclude) const {
  return ExactScan(standardized_, z, k, exclude);
}

Result<std::vector<index::Neighbor>> S2Engine::SimilarToDtwStandardizedExact(
    const std::vector<double>& z, size_t k, ts::SeriesId exclude) const {
  index::BestList best(k);
  for (ts::SeriesId other = 0; other < standardized_.size(); ++other) {
    if (other == exclude) continue;
    S2_ASSIGN_OR_RETURN(double d,
                        dtw::DtwDistanceEarlyAbandon(z, standardized_[other],
                                                     options_.dtw_window,
                                                     best.Threshold()));
    best.Offer(other, d);
  }
  return std::move(best).Take();
}

Result<std::vector<period::PeriodHit>> S2Engine::FindPeriods(ts::SeriesId id) const {
  if (id >= corpus_.size()) return Status::NotFound("S2Engine: bad series id");
  return period_detector_.Detect(corpus_.at(id).values);
}

Result<std::vector<burst::BurstRegion>> S2Engine::BurstsOf(
    ts::SeriesId id, BurstHorizon horizon) const {
  if (id >= corpus_.size()) return Status::NotFound("S2Engine: bad series id");
  const ts::TimeSeries& series = corpus_.at(id);
  S2_ASSIGN_OR_RETURN(std::vector<burst::BurstRegion> regions,
                      DetectorFor(horizon).Detect(series.values));
  for (burst::BurstRegion& region : regions) {
    region.start += series.start_day;
    region.end += series.start_day;
  }
  return regions;
}

Result<std::vector<burst::BurstMatch>> S2Engine::QueryByBurst(
    ts::SeriesId id, size_t k, BurstHorizon horizon) const {
  S2_ASSIGN_OR_RETURN(std::vector<burst::BurstRegion> regions, BurstsOf(id, horizon));
  return burst_table(horizon).QueryByBurst(regions, k, id);
}

Result<std::vector<burst::BurstMatch>> S2Engine::QueryByBurstSeries(
    const ts::TimeSeries& series, size_t k, BurstHorizon horizon) const {
  S2_ASSIGN_OR_RETURN(std::vector<burst::BurstRegion> regions,
                      DetectorFor(horizon).Detect(series.values));
  for (burst::BurstRegion& region : regions) {
    region.start += series.start_day;
    region.end += series.start_day;
  }
  return burst_table(horizon).QueryByBurst(regions, k);
}

}  // namespace s2::core
