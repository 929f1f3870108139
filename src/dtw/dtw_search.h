#ifndef S2_DTW_DTW_SEARCH_H_
#define S2_DTW_DTW_SEARCH_H_

#include <cstddef>
#include <vector>

#include "common/result.h"
#include "index/knn.h"
#include "storage/sequence_store.h"

namespace s2::dtw {

/// Exact k-NN search under windowed DTW, realizing the paper's Section 8
/// proposal: "a similar approach could prove useful in the computation of
/// linear-cost lower and upper bounds for expensive distance measures like
/// dynamic time warping".
///
/// The key observation: with squared point costs, the identity alignment is
/// always admissible, so `DTW(q, t) <= Euclidean(q, t)` — every Euclidean
/// distance is an upper bound on DTW. The search cascade is:
///
///   1. Compute the exact Euclidean distance of every row (one SIMD pass
///      each); seed the best-so-far radius with the k-th smallest *before
///      any DTW is computed*. It is never looser than the compressed upper
///      bounds the paper proposes for this step, and cheaper to get.
///   2. Per candidate, in id order: LB_Keogh with early abandoning — skip
///      the row when it exceeds the radius.
///   3. Otherwise admit the row into a lane of one early-abandoning band DP
///      (simd::DtwLanes), which runs several candidates side by side, each
///      on its own DP row. A candidate takes the radius current at its
///      admission, min(local k-th, shared radius), as its abandon limit and
///      returns exactly what dtw::DtwDistanceEarlyAbandonSq would at that
///      limit. When a lane's candidate completes or abandons, its result is
///      offered and the lane takes the next admitted candidate at once.
///
/// Every skip in (2) avoids an O(n*w) DP. DTW is not a metric, so the
/// VP-tree's triangle pruning does not apply — this is a filtered linear
/// scan, as in Keogh's exact indexing framework the paper cites.
class DtwKnnSearch {
 public:
  struct Options {
    /// Sakoe-Chiba band half-width; 0 = unconstrained.
    size_t window = 16;
  };

  struct SearchStats {
    /// Euclidean distances computed for the seed (each bounds DTW above).
    size_t upper_bounds_computed = 0;
    size_t lb_keogh_computed = 0;
    size_t lb_keogh_skips = 0;  ///< Candidates pruned without running the DP.
    size_t dtw_computed = 0;    ///< Candidates admitted into the DP.
    /// Steps of the lane DP, each one DP row of every lane, and the DP rows
    /// the admitted candidates took: dp_rows / (dp_steps *
    /// simd::DtwLanes::kLanes) is the share of lane-rows kept busy.
    size_t dp_steps = 0;
    size_t dp_rows = 0;
    /// Skips that only succeeded because another partition's published
    /// radius was tighter than this search's local radius (cross-shard
    /// prune hits under scatter-gather).
    size_t shared_radius_skips = 0;
  };

  explicit DtwKnnSearch(Options options) : options_(options) {}

  /// Exact k nearest neighbors of `query` under windowed DTW among `rows`
  /// (one partition's standardized rows, ids = row indices), leaving out
  /// row `exclude` (`ts::kInvalidSeriesId` for none) from the seed and the
  /// cascade alike.
  ///
  /// The seed and, when `source` is null, every candidate are read from
  /// `rows` in place. A non-null `source` must hold the same rows: the
  /// candidates are then fetched through it (disk-resident engines), so its
  /// read faults reach the caller.
  ///
  /// `shared`, when non-null, is a cross-partition pruning radius (see
  /// index::SharedRadius): the cascade additionally abandons against it and
  /// publishes every radius it certifies (seed threshold, tightened best
  /// list). The result is then the subset of the local top-k that can still
  /// reach the global top-k, with exact DTW distances — what the
  /// scatter-gather merge needs.
  Result<std::vector<index::Neighbor>> Search(
      const std::vector<double>& query, size_t k,
      const std::vector<std::vector<double>>& rows,
      storage::SequenceSource* source, SearchStats* stats,
      index::SharedRadius* shared = nullptr,
      ts::SeriesId exclude = ts::kInvalidSeriesId) const;

 private:
  Options options_;
};

}  // namespace s2::dtw

#endif  // S2_DTW_DTW_SEARCH_H_
