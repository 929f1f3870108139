#include "core/s2_engine.h"

#include <algorithm>
#include <chrono>
#include <cmath>
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

  // Disk-resident engines spill the rows to the store exact distances are
  // read from; RAM engines read standardized_ in place.
  if (!options.disk_store_path.empty()) {
    S2_ASSIGN_OR_RETURN(auto source,
                        storage::DiskSequenceStore::Create(options.disk_store_path,
                                                           engine.standardized_,
                                                           options.env));
    // Disk reads can fail transiently (EINTR, injected faults); wrap them in
    // the retry decorator so one blip does not abort a whole query.
    engine.disk_source_ = source.get();
    engine.retry_source_ = std::make_unique<resilience::RetryingSequenceSource>(
        std::move(source), options.retry);
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

  // The summary: adopt the preset config (sharded engines train one on the
  // full corpus before partitioning) or train on this corpus.
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

  engine.corpus_ = std::move(corpus);
  S2_DCHECK_OK(engine.ValidateInvariants());
  return engine;
}

Status S2Engine::ValidateInvariants() const {
  S2_RETURN_NOT_OK(summary_->Validate());
  S2_RETURN_NOT_OK(long_bursts_.Validate());
  S2_RETURN_NOT_OK(short_bursts_.Validate());

  diag::Validator v("S2Engine");
  v.Check(corpus_.size() == standardized_.size())
      << "corpus holds " << corpus_.size() << " series but "
      << standardized_.size() << " standardized rows exist";
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
  if (retry_source_ != nullptr) {
    v.Check(retry_source_->num_series() == corpus_.size())
        << "disk store holds " << retry_source_->num_series()
        << " series for a corpus of " << corpus_.size();
  }
  v.Check(summary_->size() == corpus_.size())
      << "summary index holds " << summary_->size()
      << " envelopes for a corpus of " << corpus_.size();
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
  if (retry_source_ != nullptr) {
    return Status::InvalidArgument(
        "S2Engine::AddSeries: only supported for RAM-resident engines");
  }
  if (series.size() != standardized_.front().size()) {
    return Status::InvalidArgument("S2Engine::AddSeries: series length mismatch");
  }
  // Every fallible step runs before the first mutation.
  S2_ASSIGN_OR_RETURN(std::vector<burst::BurstRegion> long_regions,
                      long_detector_.Detect(series.values));
  S2_ASSIGN_OR_RETURN(std::vector<burst::BurstRegion> short_regions,
                      short_detector_.Detect(series.values));
  std::vector<double> z = dsp::Standardize(series.values);
  S2_RETURN_NOT_OK(summary_->Append(z));

  const auto id = static_cast<ts::SeriesId>(standardized_.size());
  long_bursts_.Insert(id, long_regions, series.start_day);
  short_bursts_.Insert(id, short_regions, series.start_day);
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

  // 1. Standardize the slid window.
  std::vector<double> values(series.values.begin() + 1, series.values.end());
  values.push_back(value);
  std::vector<double> z = dsp::Standardize(values);

  // 2. Store: a disk engine's record write is the one step that can fail on
  // I/O, so it runs before anything in RAM changes.
  if (disk_source_ != nullptr) {
    S2_RETURN_NOT_OK(disk_source_->UpdateRecord(id, z));
  }
  series.values = std::move(values);
  series.start_day += 1;
  standardized_[id] = std::move(z);

  // 3. Summary: re-summarize under the frozen config. The envelope is
  // widened to contain the new projection, so summary pruning stays sound
  // even when the slid window leaves its training-time cell.
  S2_RETURN_NOT_OK(summary_->Update(id, standardized_[id]));

  // 4. Bursts: the burst rows of both horizons.
  S2_RETURN_NOT_OK(RefreshDerivedState(id));

  ++appends_;

  // 5. Monitor: standing subscriptions on this series — O(active
  // subscriptions on id), one hash probe when there are none. Evaluation
  // reads only the committed window and standardized row, so the fired
  // alert stream cannot depend on which shard this engine happens to be.
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

Result<std::vector<index::Neighbor>> S2Engine::SimilarTo(
    ts::SeriesId id, size_t k, index::VpTreeIndex::SearchStats* stats) const {
  if (id >= corpus_.size()) return Status::NotFound("S2Engine: bad series id");
  return SimilarToStandardized(standardized_[id], k, id, stats, nullptr);
}

Result<std::vector<index::Neighbor>> S2Engine::SimilarToSeries(
    const std::vector<double>& raw_values, size_t k,
    index::VpTreeIndex::SearchStats* stats) const {
  return SimilarToStandardized(dsp::Standardize(raw_values), k,
                               ts::kInvalidSeriesId, stats, nullptr);
}

Result<S2Engine::ApproxAnswer> S2Engine::ApproxKnn(
    ts::SeriesId id, const approx::QueryParams& params,
    approx::ScanStats* stats) const {
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
  std::sort(neighbors.begin(), neighbors.end(), index::NeighborLess);
  const double worst_lb_sq = candidates.empty() ? 0.0 : candidates.back().lb_sq;
  ApproxAnswer answer;
  answer.bound = approx::BoundFromVerification(worst_lb_sq, candidates.size(),
                                               population, neighbors, params.k);
  answer.neighbors = std::move(neighbors);
  return answer;
}

Result<std::vector<double>> S2Engine::ApproxProject(
    const std::vector<double>& z) const {
  std::vector<double> proj;
  S2_RETURN_NOT_OK(summary_->config().Project(z, &proj));
  return proj;
}

Result<std::vector<approx::SummaryIndex::Candidate>> S2Engine::ApproxCandidates(
    const std::vector<double>& proj, size_t c, ts::SeriesId exclude,
    approx::ScanStats* stats) const {
  return summary_->Candidates(proj, c, exclude, stats);
}

Result<std::vector<index::Neighbor>> S2Engine::ApproxVerify(
    const std::vector<double>& z,
    const std::vector<approx::SummaryIndex::Candidate>& candidates, size_t k,
    approx::ScanStats* stats, index::SharedRadius* shared) const {
  index::BestList best(k);
  const double slack = summary_->config().BoundSlack();
  // Squared-domain verification: candidates arrive ascending by (lb_sq,
  // id), so once the local list is full and a lower bound clears the local
  // threshold nothing after it can either. The shared radius only prunes
  // (never terminates) — another shard's tighter answer says "skip this
  // one", not "stop".
  for (const approx::SummaryIndex::Candidate& candidate : candidates) {
    if (candidate.id >= standardized_.size()) {
      return Status::InvalidArgument(
          "S2Engine::ApproxVerify: candidate id out of range");
    }
    const double local = best.Threshold();
    double threshold = local;
    if (shared != nullptr) threshold = std::min(threshold, shared->load());
    const double threshold_sq = index::SquaredGate(threshold);
    if (best.Full() && candidate.lb_sq > index::SquaredGate(local + slack)) break;
    if (candidate.lb_sq > index::SquaredGate(threshold + slack)) continue;
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
// drops the query series itself. Cannot touch disk, cannot fail. The
// kernel is the primary path's, so the answer is bitwise identical to it.
std::vector<index::Neighbor> ExactScan(
    const std::vector<std::vector<double>>& rows,
    const std::vector<double>& query, size_t k, ts::SeriesId exclude) {
  index::BestList best(k);
  for (ts::SeriesId id = 0; id < rows.size(); ++id) {
    if (id == exclude) continue;
    const std::vector<double>& row = rows[id];
    best.Offer(id, std::sqrt(simd::SumSqDiff(
                       query.data(), row.data(), std::min(row.size(), query.size()))));
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
  index::VpTreeIndex::SearchStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  std::vector<double> proj;
  S2_RETURN_NOT_OK(summary_->config().Project(z, &proj));
  const double slack = summary_->config().BoundSlack();
  index::BestList best(k);
  std::vector<double> fetched;
  for (ts::SeriesId id = 0; id < standardized_.size(); ++id) {
    if (id == exclude) continue;
    // The radius: min(local k-th, shared radius). Both only shrink, so a
    // row the bound prunes now stays pruned. The bound is tested against
    // the radius widened by its rounding slack, the distance against the
    // radius itself.
    const double local = best.Threshold();
    const double radius = shared == nullptr ? local : std::min(local, shared->load());
    const double prune_sq = index::SquaredGate(radius + slack);
    const double lb_sq = summary_->LowerBoundSq(id, proj.data(), prune_sq);
    ++stats->bound_computations;
    if (lb_sq > prune_sq) {
      if (radius < local && lb_sq <= index::SquaredGate(local + slack)) {
        ++stats->shared_radius_prunes;  // Only the shared radius made the cut.
      }
      continue;
    }
    ++stats->candidates_surviving;
    const double* row = standardized_[id].data();
    if (retry_source_ != nullptr) {
      S2_ASSIGN_OR_RETURN(fetched, retry_source_->Get(id));
      row = fetched.data();
    }
    ++stats->full_retrievals;
    // An abandoned sum exceeds limit_sq by construction, so `<=` admits
    // exactly the complete distances, bitwise equal to simd::SumSqDiff.
    const double limit_sq = index::SquaredGate(radius);
    const double dist_sq =
        dsp::SquaredEuclideanEarlyAbandon(z.data(), row, z.size(), limit_sq);
    if (dist_sq <= limit_sq) {
      best.Offer(id, std::sqrt(dist_sq));
      if (shared != nullptr && best.Full()) shared->Tighten(best.Threshold());
    }
  }
  return std::move(best).Take();
}

Result<std::vector<index::Neighbor>> S2Engine::SimilarToDtwStandardized(
    const std::vector<double>& z, size_t k, ts::SeriesId exclude,
    dtw::DtwKnnSearch::SearchStats* stats, index::SharedRadius* shared) const {
  const bool drop_self = exclude != ts::kInvalidSeriesId;
  S2_ASSIGN_OR_RETURN(std::vector<index::Neighbor> neighbors,
                      dtw::DtwKnnSearch({options_.dtw_window})
                          .Search(z, drop_self ? k + 1 : k, standardized_,
                                  retry_source_.get(), stats, shared));
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
