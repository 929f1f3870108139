#ifndef S2_INDEX_KNN_H_
#define S2_INDEX_KNN_H_

#include <algorithm>
#include <atomic>
#include <cstddef>
#include <limits>
#include <vector>

#include "timeseries/time_series.h"

namespace s2::index {

/// One nearest-neighbor answer.
struct Neighbor {
  ts::SeriesId id = ts::kInvalidSeriesId;
  double distance = 0.0;
};

/// A bounded best-k list ordered by ascending distance.
///
/// Keeps at most `k` neighbors; `Threshold()` is the current k-th distance
/// (the pruning radius), +infinity until the list fills.
class BestList {
 public:
  explicit BestList(size_t k) : k_(k) {}

  /// Offers a candidate; keeps it if it beats the current k-th distance.
  void Offer(ts::SeriesId id, double distance) {
    if (items_.size() == k_ && distance >= Threshold()) return;
    // Insert sorted; lists are tiny (k is small), linear insertion is fine.
    auto it = std::lower_bound(
        items_.begin(), items_.end(), distance,
        [](const Neighbor& n, double d) { return n.distance < d; });
    items_.insert(it, Neighbor{id, distance});
    if (items_.size() > k_) items_.pop_back();
  }

  /// Current pruning radius: k-th best distance, +infinity while unfilled.
  double Threshold() const {
    if (items_.size() < k_) return std::numeric_limits<double>::infinity();
    return items_.back().distance;
  }

  bool Full() const { return items_.size() == k_; }
  const std::vector<Neighbor>& items() const { return items_; }
  std::vector<Neighbor> Take() && { return std::move(items_); }

 private:
  size_t k_;
  std::vector<Neighbor> items_;
};

/// A monotonically shrinking global best-k radius shared by concurrent
/// searches over disjoint partitions of one corpus (the scatter-gather kNN
/// of `s2::shard`, following TSseek's shared-pruning-bound pattern).
///
/// Each partition publishes (`Tighten`) any upper bound it can certify on
/// the *global* k-th nearest distance — its best-list threshold once full,
/// or the DTW search's Euclidean seed — and reads (`load`) the
/// tightest bound published by anyone to prune harder than its local state
/// alone would allow. Soundness: every published value is witnessed by k
/// real objects at that distance or closer, so a candidate provably beyond
/// the shared radius can never be in the global top-k; a stale (larger)
/// read only prunes less. Relaxed ordering is therefore enough — the value
/// is a hint for pruning, never a synchronization edge.
class SharedRadius {
 public:
  SharedRadius() = default;
  SharedRadius(const SharedRadius&) = delete;
  SharedRadius& operator=(const SharedRadius&) = delete;

  /// The tightest radius published so far (+infinity until someone has a
  /// full best-k list).
  double load() const { return radius_.load(std::memory_order_relaxed); }

  /// Publishes `r` if it improves on the current radius (atomic min).
  void Tighten(double r) {
    double current = radius_.load(std::memory_order_relaxed);
    while (r < current && !radius_.compare_exchange_weak(
                              current, r, std::memory_order_relaxed)) {
    }
  }

 private:
  std::atomic<double> radius_{std::numeric_limits<double>::infinity()};
};

}  // namespace s2::index

#endif  // S2_INDEX_KNN_H_
