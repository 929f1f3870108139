#include "dtw/dtw_search.h"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>

#include "dtw/dtw.h"
#include "simd/simd.h"

namespace s2::dtw {

Result<std::vector<index::Neighbor>> DtwKnnSearch::Search(
    const std::vector<double>& query, size_t k,
    const std::vector<std::vector<double>>& rows,
    storage::SequenceSource* source, SearchStats* stats,
    index::SharedRadius* shared, ts::SeriesId exclude) const {
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
    if (id == exclude) continue;
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

  // Phases 2 & 3: envelope once, then admit candidates in id order into the
  // lanes of one DP, refilling each lane as soon as its candidate finishes.
  S2_ASSIGN_OR_RETURN(Envelope envelope, ComputeEnvelope(query, options_.window));
  index::BestList best(k);
  simd::DtwLanes lanes(query.data(), n, options_.window);
  struct Lane {
    ts::SeriesId id = ts::kInvalidSeriesId;
    double limit_sq = 0.0;
    size_t admitted_at = 0;
    std::vector<double> fetched;  // The row, when read through `source`.
  };
  std::array<Lane, simd::DtwLanes::kLanes> lane;
  ts::SeriesId next = 0;

  // Admits into free lane `l` the next row whose LB_Keogh passes the radius
  // current now, min(local k-th, shared radius); the lane stays free once
  // the rows run out.
  auto admit = [&](size_t l) -> Status {
    for (; next < rows.size(); ++next) {
      const ts::SeriesId id = next;
      if (id == exclude) continue;
      const double local = std::min(radius, best.Threshold());
      double current = local;
      if (shared != nullptr) current = std::min(current, shared->load());
      // Gate in the squared domain throughout: LbKeoghSq and the DP both
      // produce squared values whose early-abandoned partials exceed the
      // limit by construction, so `sq <= current_sq` accepts exactly the
      // complete values. Comparing sqrt(sq) against `current` instead can
      // round an abandoned partial down onto the threshold and admit a
      // truncated distance (see dsp::SquaredEuclideanEarlyAbandon). The gate
      // admits a row tied at the radius (index::SquaredGate).
      const double local_sq = index::SquaredGate(local);
      const double current_sq = index::SquaredGate(current);
      const std::vector<double>* row = &rows[id];
      if (source != nullptr) {
        S2_ASSIGN_OR_RETURN(lane[l].fetched, source->Get(id));
        row = &lane[l].fetched;
      }
      S2_ASSIGN_OR_RETURN(double lb_sq, LbKeoghSq(envelope, *row, current_sq));
      ++stats->lb_keogh_computed;
      if (lb_sq > current_sq) {
        ++stats->lb_keogh_skips;
        if (lb_sq <= local_sq) ++stats->shared_radius_skips;
        continue;
      }
      ++stats->dtw_computed;
      lane[l].id = id;
      lane[l].limit_sq = current_sq;
      lane[l].admitted_at = lanes.steps();
      lanes.Admit(l, row->data(), current_sq);
      ++next;
      break;
    }
    return Status::OK();
  };

  for (size_t l = 0; l < lane.size(); ++l) S2_RETURN_NOT_OK(admit(l));
  while (const uint32_t done = lanes.Run()) {
    // Offer every finished lane first, so the refills see the tightest
    // radius. An abandoned DP returns a truncated value > its limit; it must
    // not enter the result list. Dropping any value > limit is safe even
    // while the list is unfilled: the seeded radius certifies that k objects
    // with true DTW <= radius exist globally and the merge only needs
    // distances that can still reach the global top-k.
    for (size_t l = 0; l < lane.size(); ++l) {
      if ((done >> l & 1) == 0) continue;
      stats->dp_rows += lanes.steps() - lane[l].admitted_at;
      const double dist_sq = lanes.result(l);
      if (dist_sq <= lane[l].limit_sq) {
        best.Offer(lane[l].id, std::sqrt(dist_sq));
        if (shared != nullptr && best.Full()) shared->Tighten(best.Threshold());
      }
    }
    for (size_t l = 0; l < lane.size(); ++l) {
      if ((done >> l & 1) != 0) S2_RETURN_NOT_OK(admit(l));
    }
  }
  stats->dp_steps += lanes.steps();
  return std::move(best).Take();
}

}  // namespace s2::dtw
