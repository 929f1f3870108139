#include "dtw/dtw_search.h"

#include <algorithm>
#include <cmath>
#include <limits>

#include "dtw/dtw.h"
#include "simd/simd.h"

namespace s2::dtw {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();
}  // namespace

Result<std::vector<index::Neighbor>> DtwKnnSearch::Search(
    const std::vector<double>& query, size_t k,
    const std::vector<std::vector<double>>& rows,
    storage::SequenceSource* source, SearchStats* stats,
    index::SharedRadius* shared) const {
  if (k == 0) return Status::InvalidArgument("DtwKnnSearch: k must be > 0");
  if (query.empty()) return Status::InvalidArgument("DtwKnnSearch: empty query");
  if (source != nullptr && source->num_series() != rows.size()) {
    return Status::InvalidArgument("DtwKnnSearch: source/rows size mismatch");
  }
  SearchStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  const size_t n = query.size();

  // Phase 1: the exact Euclidean distance of every row upper-bounds its
  // DTW, so the k-th smallest seeds the radius.
  index::BestList seed(k);
  for (ts::SeriesId id = 0; id < rows.size(); ++id) {
    if (rows[id].size() != n) {
      return Status::InvalidArgument("DtwKnnSearch: query length mismatch");
    }
    seed.Offer(id, simd::SumSqDiff(query.data(), rows[id].data(), n));
    ++stats->upper_bounds_computed;
  }
  // The blocked SIMD sum and the DP's sequential sum along the identity
  // path round differently (each within ~n ulps of the exact sum), and the
  // radius is gated after a sqrt/square round trip. Widening by 4·n·ε
  // covers both, so a row whose DTW equals its Euclidean distance is never
  // rejected by the seed; widening an upper bound is always sound.
  const double margin = 1.0 + 4.0 * static_cast<double>(n) *
                                  std::numeric_limits<double>::epsilon();
  const double radius = std::sqrt(seed.Threshold() * margin);  // +inf unfilled.

  // The seed is witnessed by k rows of this partition whose DTW is at most
  // their Euclidean distance — a sound global bound to publish before any
  // DP has run.
  if (shared != nullptr && std::isfinite(radius)) shared->Tighten(radius);

  // Phases 2 & 3: envelope once, then cascade per candidate.
  S2_ASSIGN_OR_RETURN(Envelope envelope, ComputeEnvelope(query, options_.window));
  index::BestList best(k);
  std::vector<double> fetched;
  std::vector<double> dp_rows;  // DP scratch reused across candidates.
  for (ts::SeriesId id = 0; id < rows.size(); ++id) {
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
    const std::vector<double>* row = &rows[id];
    if (source != nullptr) {
      S2_ASSIGN_OR_RETURN(fetched, source->Get(id));
      row = &fetched;
    }
    S2_ASSIGN_OR_RETURN(double lb_sq, LbKeoghSq(envelope, *row, current_sq));
    ++stats->lb_keogh_computed;
    if (lb_sq > current_sq) {
      ++stats->lb_keogh_skips;
      if (lb_sq <= local_sq) ++stats->shared_radius_skips;
      continue;
    }
    S2_ASSIGN_OR_RETURN(double dist_sq,
                        DtwDistanceEarlyAbandonSq(*row, query, options_.window,
                                                  current_sq, &dp_rows));
    ++stats->dtw_computed;
    // An abandoned DP returns a truncated value > current_sq; it must not
    // enter the result list. Dropping any dist_sq > current_sq is safe even
    // while the list is unfilled: the seeded radius certifies that k objects
    // with true DTW <= radius exist globally and the merge only needs
    // distances that can still reach the global top-k.
    if (dist_sq <= current_sq) {
      best.Offer(id, std::sqrt(dist_sq));
      if (shared != nullptr && best.Full()) shared->Tighten(best.Threshold());
    }
  }
  return std::move(best).Take();
}

}  // namespace s2::dtw
