#ifndef S2_INDEX_MVP_TREE_H_
#define S2_INDEX_MVP_TREE_H_

#include <cstdint>
#include <vector>

#include "common/result.h"
#include "index/knn.h"
#include "index/vp_tree.h"
#include "repr/bounds.h"
#include "repr/compressed.h"
#include "repr/half_spectrum.h"
#include "storage/sequence_store.h"

namespace s2::index {

/// A multi-vantage-point tree over compressed representations — the
/// extension the paper points to in Section 4 ("all possible extensions to
/// the VP-tree, such as the usage of multiple vantage points [Bozkaya &
/// Ozsoyoglu], ... can be implemented on top of the proposed search
/// mechanisms").
///
/// Every internal node holds *two* vantage points: vp1's median distance
/// splits the population in half, and each half is split again by its own
/// median distance to vp2, yielding four children. During search each
/// child's feasible distance window is intersected with the query's [LB, UB]
/// annuli around *both* vantage points, so one node can prune with two
/// triangle-inequality constraints while paying the same two bound
/// computations a two-level VP-tree would spend on three vantage points.
/// Candidate filtering and LB-ordered verification are identical to
/// VpTreeIndex.
class MvpTreeIndex {
 public:
  struct Options {
    repr::ReprKind repr_kind = repr::ReprKind::kBestKError;
    repr::Basis basis = repr::Basis::kFourierHalf;
    repr::BoundMethod method = repr::BoundMethod::kBestMinError;
    size_t budget_c = 16;
    size_t leaf_size = 8;
    /// Vantage candidates probed per split (max-deviation heuristic).
    size_t vantage_candidates = 16;
    size_t deviation_sample = 64;
    /// Visit children ordered by their minimum feasible distance.
    bool guided_traversal = true;
    uint64_t seed = 7;
  };

  using SearchStats = VpTreeIndex::SearchStats;
  using Candidate = VpTreeIndex::Candidate;

  /// Builds the index over standardized `rows` (row index == SeriesId).
  static Result<MvpTreeIndex> Build(const std::vector<std::vector<double>>& rows,
                                    const Options& options);

  /// Exact k-NN search (candidate generation + verification).
  Result<std::vector<Neighbor>> Search(const std::vector<double>& query, size_t k,
                                       storage::SequenceSource* source,
                                       SearchStats* stats) const;

  /// Candidate-generation phase only (for pruning-power experiments).
  Result<std::vector<Candidate>> CollectCandidates(const std::vector<double>& query,
                                                   size_t k,
                                                   SearchStats* stats) const;

  size_t CompressedBytes() const;
  size_t size() const { return num_objects_; }
  const Options& options() const { return options_; }

  /// Structural self-check: child pointers in range, no node reachable
  /// twice, every node reachable, the object census matching `size()`,
  /// leaves childless and internals bucket-free, split radii finite and
  /// non-negative, and no id indexed twice. With a non-null `source`, also
  /// verifies the two-vantage metric invariant with exact distances: each
  /// child's population respects its distance window around vp1 (mu1) and
  /// vp2 (mu2_left / mu2_right). Reports violations as `Status::Corruption`.
  Status Validate(storage::SequenceSource* source = nullptr) const;

 private:
  friend struct MvpTreeTestPeer;  // Corruption injection in validator tests.

  struct Builder;

  struct Entry {
    ts::SeriesId id;
    repr::CompressedSpectrum repr;
  };
  // Children indexed by (side wrt vp1) * 2 + (side wrt vp2): LL, LR, RL, RR.
  struct Node {
    Entry vp1;
    Entry vp2;
    bool has_vp2 = false;
    double mu1 = 0.0;        // Median distance to vp1 over the population.
    double mu2_left = 0.0;   // Median distance to vp2 within the vp1-left half.
    double mu2_right = 0.0;  // ... within the vp1-right half.
    int32_t children[4] = {-1, -1, -1, -1};
    bool leaf = false;
    std::vector<Entry> bucket;
  };

  MvpTreeIndex(Options options, std::vector<Node> nodes, int32_t root,
               size_t num_objects, uint32_t series_length)
      : options_(options),
        nodes_(std::move(nodes)),
        root_(root),
        num_objects_(num_objects),
        series_length_(series_length) {}

  void SearchNode(int32_t node_id, const repr::QuerySpectrum& query,
                  std::vector<Candidate>* candidates, BestList* upper_bounds,
                  SearchStats* stats) const;

  Options options_;
  std::vector<Node> nodes_;
  int32_t root_ = -1;
  size_t num_objects_ = 0;
  uint32_t series_length_ = 0;
};

}  // namespace s2::index

#endif  // S2_INDEX_MVP_TREE_H_
