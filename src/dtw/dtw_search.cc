#include "dtw/dtw_search.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "dtw/dtw.h"
#include "repr/half_spectrum.h"

namespace s2::dtw {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

Result<DtwKnnSearch> DtwKnnSearch::Create(
    std::vector<repr::CompressedSpectrum> features, Options options) {
  for (const auto& feature : features) {
    if (!repr::MethodCompatibleWith(repr::BoundMethod::kBestMinError,
                                    feature.kind()) &&
        !repr::MethodCompatibleWith(repr::BoundMethod::kWang, feature.kind())) {
      return Status::InvalidArgument(
          "DtwKnnSearch: features must support an upper bound (error kinds)");
    }
  }
  return DtwKnnSearch(std::move(features), options);
}

Result<DtwKnnSearch> DtwKnnSearch::BuildFeatures(
    const std::vector<std::vector<double>>& rows, Options options) {
  std::vector<repr::CompressedSpectrum> features;
  features.reserve(rows.size());
  for (const auto& row : rows) {
    S2_ASSIGN_OR_RETURN(repr::HalfSpectrum spectrum,
                        repr::HalfSpectrum::FromSeries(row));
    S2_ASSIGN_OR_RETURN(
        repr::CompressedSpectrum compressed,
        repr::CompressedSpectrum::Compress(spectrum, repr::ReprKind::kBestKError,
                                           options.budget_c));
    features.push_back(std::move(compressed));
  }
  return Create(std::move(features), options);
}

Status DtwKnnSearch::AddFeature(repr::CompressedSpectrum feature) {
  if (!repr::MethodCompatibleWith(repr::BoundMethod::kBestMinError,
                                  feature.kind()) &&
      !repr::MethodCompatibleWith(repr::BoundMethod::kWang, feature.kind())) {
    return Status::InvalidArgument(
        "DtwKnnSearch: feature must support an upper bound (error kinds)");
  }
  features_.push_back(std::move(feature));
  return Status::OK();
}

Status DtwKnnSearch::UpdateFeature(ts::SeriesId id,
                                   repr::CompressedSpectrum feature) {
  if (id >= features_.size()) {
    return Status::NotFound("DtwKnnSearch: id out of range");
  }
  if (!repr::MethodCompatibleWith(repr::BoundMethod::kBestMinError,
                                  feature.kind()) &&
      !repr::MethodCompatibleWith(repr::BoundMethod::kWang, feature.kind())) {
    return Status::InvalidArgument(
        "DtwKnnSearch: feature must support an upper bound (error kinds)");
  }
  features_[id] = std::move(feature);
  return Status::OK();
}

Result<std::vector<index::Neighbor>> DtwKnnSearch::Search(
    const std::vector<double>& query, size_t k, storage::SequenceSource* source,
    SearchStats* stats, index::SharedRadius* shared) const {
  if (k == 0) return Status::InvalidArgument("DtwKnnSearch: k must be > 0");
  if (source == nullptr) {
    return Status::InvalidArgument("DtwKnnSearch: source must not be null");
  }
  if (source->num_series() != features_.size()) {
    return Status::InvalidArgument("DtwKnnSearch: source/features size mismatch");
  }
  if (query.size() != source->series_length()) {
    return Status::InvalidArgument("DtwKnnSearch: query length mismatch");
  }
  SearchStats local_stats;
  if (stats == nullptr) stats = &local_stats;

  // Phase 1: linear-cost Euclidean upper bounds from the compressed
  // features. They upper-bound DTW, so the k-th smallest seeds the radius.
  struct Scored {
    ts::SeriesId id;
    double ub;
  };
  std::vector<Scored> order;
  order.reserve(features_.size());
  index::BestList seed(k);
  if (options_.use_compressed_upper_bounds) {
    S2_ASSIGN_OR_RETURN(repr::HalfSpectrum spectrum,
                        repr::HalfSpectrum::FromSeries(query));
    const repr::QuerySpectrum prepared(spectrum);  // |Q_k| once per query.
    for (ts::SeriesId id = 0; id < features_.size(); ++id) {
      const repr::BoundMethod method =
          repr::MethodCompatibleWith(repr::BoundMethod::kBestMinError,
                                     features_[id].kind())
              ? repr::BoundMethod::kBestMinError
              : repr::BoundMethod::kWang;
      S2_ASSIGN_OR_RETURN(repr::DistanceBounds bounds,
                          repr::ComputeBounds(prepared, features_[id], method));
      ++stats->upper_bounds_computed;
      order.push_back({id, bounds.upper});
      seed.Offer(id, bounds.upper);
    }
    std::sort(order.begin(), order.end(),
              [](const Scored& a, const Scored& b) { return a.ub < b.ub; });
  } else {
    for (ts::SeriesId id = 0; id < features_.size(); ++id) {
      order.push_back({id, kInf});
    }
  }

  // The seed threshold is witnessed by k compressed upper bounds, each of
  // which dominates a real DTW distance in this partition — a sound global
  // bound to publish before any DP has run.
  if (shared != nullptr && std::isfinite(seed.Threshold())) {
    shared->Tighten(seed.Threshold());
  }

  // Phase 2 & 3: envelope once, then cascade per candidate.
  S2_ASSIGN_OR_RETURN(Envelope envelope, ComputeEnvelope(query, options_.window));
  index::BestList best(k);
  double radius = seed.Threshold();  // k-th smallest UB (or +inf).
  for (const Scored& scored : order) {
    const double local = std::min(radius, best.Threshold());
    double current = local;
    if (shared != nullptr) current = std::min(current, shared->load());
    // Gate in the squared domain throughout: LbKeoghSq and the DP both
    // produce squared values whose early-abandoned partials exceed the
    // limit by construction, so `sq <= current_sq` accepts exactly the
    // complete values. Comparing sqrt(sq) against `current` instead can
    // round an abandoned partial down onto the threshold and admit a
    // truncated distance (see dsp::SquaredEuclideanEarlyAbandon).
    const double local_sq = std::isinf(local) ? kInf : local * local;
    const double current_sq = std::isinf(current) ? kInf : current * current;
    S2_ASSIGN_OR_RETURN(std::vector<double> row, source->Get(scored.id));
    if (options_.use_lb_keogh) {
      S2_ASSIGN_OR_RETURN(double lb_sq, LbKeoghSq(envelope, row, current_sq));
      ++stats->lb_keogh_computed;
      if (lb_sq > current_sq) {
        ++stats->lb_keogh_skips;
        if (lb_sq <= local_sq) ++stats->shared_radius_skips;
        continue;
      }
    }
    S2_ASSIGN_OR_RETURN(double dist_sq,
                        DtwDistanceEarlyAbandonSq(row, query, options_.window,
                                                  current_sq));
    ++stats->dtw_computed;
    // An abandoned DP returns a truncated value > current_sq; it must not
    // enter the result list. Dropping any dist_sq > current_sq is safe even
    // while the list is unfilled: the seeded radius certifies that k objects
    // with true DTW <= radius exist globally and the merge only needs
    // distances that can still reach the global top-k.
    if (dist_sq <= current_sq) {
      best.Offer(scored.id, std::sqrt(dist_sq));
      if (shared != nullptr && best.Full()) shared->Tighten(best.Threshold());
    }
  }
  return std::move(best).Take();
}

}  // namespace s2::dtw
