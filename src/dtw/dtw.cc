#include "dtw/dtw.h"

#include <algorithm>
#include <cmath>
#include <deque>
#include <limits>

#include "simd/simd.h"

namespace s2::dtw {

namespace {
constexpr double kInf = std::numeric_limits<double>::infinity();

double Sq(double v) { return v * v; }
}  // namespace

Result<double> DtwDistance(const std::vector<double>& a,
                           const std::vector<double>& b, size_t window) {
  return DtwDistanceEarlyAbandon(a, b, window, kInf);
}

Result<double> DtwDistanceEarlyAbandon(const std::vector<double>& a,
                                       const std::vector<double>& b,
                                       size_t window, double abandon_after) {
  const double abandon_sq =
      std::isinf(abandon_after) ? kInf : abandon_after * abandon_after;
  S2_ASSIGN_OR_RETURN(double sq,
                      DtwDistanceEarlyAbandonSq(a, b, window, abandon_sq));
  return std::sqrt(sq);
}

Result<double> DtwDistanceEarlyAbandonSq(const std::vector<double>& a,
                                         const std::vector<double>& b,
                                         size_t window, double abandon_sq,
                                         std::vector<double>* scratch) {
  if (a.empty() || a.size() != b.size()) {
    return Status::InvalidArgument("DtwDistance: sequences must be equal, non-empty");
  }
  const size_t n = a.size();
  // Half-width clipped to n-1: a wider band admits no further cell.
  const size_t w = window == 0 ? n - 1 : std::min(window, n - 1);
  const size_t width = 2 * w + 1;

  // Two band rows in diagonal coordinates: cell t of row i is (i, i-w+t),
  // so (i-1, j) sits at t+1 and (i-1, j-1) at t of the previous row. Slot
  // `width` is a +inf sentinel for the up-neighbour of the band's last
  // cell; slots a row never writes stay +inf, standing for the cells
  // outside the matrix. The virtual cell (-1, -1) = 0 seeds (0, 0).
  std::vector<double> local;
  std::vector<double>& rows = scratch != nullptr ? *scratch : local;
  rows.assign(2 * (width + 1), kInf);
  double* prev = rows.data();
  double* curr = prev + width + 1;
  prev[w] = 0.0;

  for (size_t i = 0; i < n; ++i) {
    const size_t t_lo = i < w ? w - i : 0;
    const size_t t_hi = std::min(width - 1, n - 1 + w - i);
    const double ai = a[i];
    const double* bj = b.data() + (i + t_lo - w);  // b[j] of cell t_lo.
    double left = kInf;  // Cell (i, j-1), carried in a register.
    double row_min = kInf;
    for (size_t t = t_lo; t <= t_hi; ++t, ++bj) {
      const double cost = Sq(ai - *bj);
      left = std::min(std::min(prev[t + 1], prev[t]), left) + cost;
      curr[t] = left;
      row_min = std::min(row_min, left);
    }
    if (row_min > abandon_sq) {
      // Every continuation can only grow; report a value above the radius.
      return row_min;
    }
    std::swap(prev, curr);
  }
  return prev[w];
}

Result<Envelope> ComputeEnvelope(const std::vector<double>& q, size_t window) {
  if (q.empty()) return Status::InvalidArgument("ComputeEnvelope: empty sequence");
  const size_t n = q.size();
  const size_t w = window == 0 ? n : window;
  Envelope env;
  env.upper.resize(n);
  env.lower.resize(n);

  // Monotonic deques over the sliding window [i-w, i+w].
  std::deque<size_t> max_dq;
  std::deque<size_t> min_dq;
  size_t right = 0;  // First index not yet inserted.
  for (size_t i = 0; i < n; ++i) {
    const size_t lo = i >= w ? i - w : 0;
    const size_t hi = std::min(n - 1, i + w);
    while (right <= hi) {
      while (!max_dq.empty() && q[max_dq.back()] <= q[right]) max_dq.pop_back();
      max_dq.push_back(right);
      while (!min_dq.empty() && q[min_dq.back()] >= q[right]) min_dq.pop_back();
      min_dq.push_back(right);
      ++right;
    }
    while (max_dq.front() < lo) max_dq.pop_front();
    while (min_dq.front() < lo) min_dq.pop_front();
    env.upper[i] = q[max_dq.front()];
    env.lower[i] = q[min_dq.front()];
  }
  return env;
}

Result<double> LbKeogh(const Envelope& query_envelope,
                       const std::vector<double>& candidate,
                       double abandon_after) {
  const double abandon_sq =
      std::isinf(abandon_after) ? kInf : abandon_after * abandon_after;
  S2_ASSIGN_OR_RETURN(double sq,
                      LbKeoghSq(query_envelope, candidate, abandon_sq));
  return std::sqrt(sq);
}

Result<double> LbKeoghSq(const Envelope& query_envelope,
                         const std::vector<double>& candidate,
                         double abandon_sq) {
  const size_t n = candidate.size();
  if (n == 0 || query_envelope.upper.size() != n ||
      query_envelope.lower.size() != n) {
    return Status::InvalidArgument("LbKeogh: shape mismatch");
  }
  return simd::LbKeoghSqAbandon(query_envelope.lower.data(),
                                query_envelope.upper.data(), candidate.data(),
                                n, abandon_sq);
}

}  // namespace s2::dtw
