#ifndef S2_DTW_DTW_H_
#define S2_DTW_DTW_H_

#include <cstddef>
#include <vector>

#include "common/result.h"

namespace s2::dtw {

/// Dynamic time warping distance (paper Section 8's "expensive distance
/// measure"), with an optional Sakoe-Chiba band constraint.
///
/// `DtwDistance(a, b, w)` returns
///   sqrt( min over monotone alignment paths of sum (a_i - b_j)^2 )
/// where paths may deviate at most `window` steps from the diagonal
/// (window == 0 means the unconstrained full matrix). Defined for
/// equal-length sequences, like the rest of the library. Computed with an
/// O(n * window) band-only dynamic program.
///
/// With squared point costs and the identity path always admissible,
/// `DtwDistance(a, b, w) <= Euclidean(a, b)` for every window — which is
/// what lets the exact Euclidean distance seed the DTW search radius (see
/// dtw_search.h).
Result<double> DtwDistance(const std::vector<double>& a,
                           const std::vector<double>& b, size_t window);

/// Early-abandoning variant: returns early (with a value > `abandon_after`)
/// as soon as every cell of a DP row exceeds `abandon_after`^2, since the
/// final distance can then only be larger. Pass +infinity to disable.
Result<double> DtwDistanceEarlyAbandon(const std::vector<double>& a,
                                       const std::vector<double>& b,
                                       size_t window, double abandon_after);

/// Squared-domain variant for exact gating: abandons once every cell of a
/// DP row exceeds `abandon_sq` and returns that row minimum; otherwise
/// returns the complete squared DTW distance. The result is <= abandon_sq
/// exactly when it is complete, so callers compare `sq <= radius * radius`
/// and only sqrt accepted candidates — immune to the sqrt-rounding hazard
/// described at dsp::SquaredEuclideanEarlyAbandon.
///
/// Every variant runs this one dynamic program: two band rows of 2w+1
/// cells, each cell exactly min(up, up-left, left) + cost, so a complete
/// result is bit-identical to the full-matrix recurrence. `scratch`, when
/// non-null, holds the rows between calls (a search reuses one buffer
/// across its candidates); null allocates them per call.
Result<double> DtwDistanceEarlyAbandonSq(const std::vector<double>& a,
                                         const std::vector<double>& b,
                                         size_t window, double abandon_sq,
                                         std::vector<double>* scratch = nullptr);

/// The Keogh warping envelope of a sequence: for each position i,
///   upper[i] = max(q[i-w .. i+w]),  lower[i] = min(q[i-w .. i+w])
/// (clipped at the edges). Computed in O(n) with monotonic deques.
struct Envelope {
  std::vector<double> upper;
  std::vector<double> lower;
};
Result<Envelope> ComputeEnvelope(const std::vector<double>& q, size_t window);

/// LB_Keogh (Keogh, VLDB 2002): a lower bound on the windowed DTW distance
/// between the enveloped query and `candidate`:
///   sqrt( sum_i (c_i - upper_i)^2 if c_i > upper_i,
///                (lower_i - c_i)^2 if c_i < lower_i, else 0 ).
/// Costs O(n); supports early abandoning via `abandon_after` (+infinity to
/// disable).
Result<double> LbKeogh(const Envelope& query_envelope,
                       const std::vector<double>& candidate,
                       double abandon_after);

/// Squared LB_Keogh with the s2::simd blocked early-abandon contract: the
/// partial sum is checked against `abandon_sq` every 16 elements, and the
/// result is <= abandon_sq exactly when it is the complete squared bound.
/// Vectorized under the active dispatch, bit-identical across backends.
Result<double> LbKeoghSq(const Envelope& query_envelope,
                         const std::vector<double>& candidate,
                         double abandon_sq);

}  // namespace s2::dtw

#endif  // S2_DTW_DTW_H_
