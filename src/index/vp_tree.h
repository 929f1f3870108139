#ifndef S2_INDEX_VP_TREE_H_
#define S2_INDEX_VP_TREE_H_

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/result.h"
#include "index/knn.h"
#include "repr/bounds.h"
#include "repr/compressed.h"
#include "repr/half_spectrum.h"
#include "storage/sequence_store.h"

namespace s2::index {

/// The paper's customized vantage-point tree (Section 4).
///
/// Construction uses *exact* distances between uncompressed sequences; after
/// a point is chosen as a vantage point (or lands in a leaf) only its
/// compressed spectral representation is kept, which makes the index "very
/// compact in size". Searches therefore work with lower/upper distance
/// *bounds* (Section 3 algorithms) instead of exact distances:
///
/// * a subtree is pruned when the bound window around the vantage point
///   proves it cannot contain anything better than the best-so-far upper
///   bound `sigma_UB`;
/// * traversal is heuristically guided towards the child whose distance
///   region overlaps the query's [LB, UB] annulus the most;
/// * after traversal, candidates with `LB > SUB` (smallest upper bound) are
///   dropped and the survivors are verified against the full sequences, in
///   ascending-LB order with early termination — exactly the paper's
///   `NNSearch` (Figure 11) generalized to k neighbors.
class VpTreeIndex {
 public:
  struct Options {
    /// Representation stored for vantage points and leaf objects.
    repr::ReprKind repr_kind = repr::ReprKind::kBestKError;
    /// Orthonormal decomposition used for features and bounds. The Fourier
    /// half-spectrum is the paper's choice; kOrthonormalReal switches to the
    /// Haar wavelet basis (power-of-two lengths only, error-kinds only).
    repr::Basis basis = repr::Basis::kFourierHalf;
    /// Bounding algorithm used during search.
    repr::BoundMethod method = repr::BoundMethod::kBestMinError;
    /// Memory budget in "first coefficients" units: every representation
    /// occupies the memory of `2*budget_c + 1` doubles (Table 1).
    size_t budget_c = 16;
    /// Section 8 extension: when > 0, ignore `budget_c`/`repr_kind` and give
    /// each object a *variable* number of best coefficients capturing this
    /// energy fraction (kBestKError representation). In (0, 1).
    double energy_fraction = 0.0;
    /// Maximum number of objects in a leaf.
    size_t leaf_size = 8;
    /// How many candidate vantage points are probed at each split; the one
    /// with the highest deviation of distances wins (paper's heuristic).
    size_t vantage_candidates = 16;
    /// Sample size for estimating a candidate's distance deviation.
    size_t deviation_sample = 64;
    /// Enables the "most promising child first" traversal heuristic.
    bool guided_traversal = true;
    /// Seed for the sampling performed during construction.
    uint64_t seed = 7;
  };

  /// Per-search instrumentation.
  struct SearchStats {
    size_t bound_computations = 0;   ///< Compressed objects scored.
    size_t candidates_surviving = 0; ///< Candidates left after the SUB filter.
    size_t full_retrievals = 0;      ///< Sequences fetched for verification.
    size_t nodes_visited = 0;        ///< Tree nodes touched.
    /// Prune decisions (subtree skips, verification skips/stops) that only
    /// succeeded because another partition's published radius was tighter
    /// than this search's local state — cross-shard prune hits.
    size_t shared_radius_prunes = 0;
  };

  /// Builds the index over `rows` (each row a standardized sequence of equal
  /// length; row index == SeriesId). Returns InvalidArgument on ragged or
  /// empty input, or when the budget is infeasible for the sequence length.
  static Result<VpTreeIndex> Build(const std::vector<std::vector<double>>& rows,
                                   const Options& options);

  /// An index over zero sequences of the given length, grown purely through
  /// `Insert` — the delta tier of the streaming (LSM-style) layer starts
  /// here. Searches over an empty index return no neighbors.
  static Result<VpTreeIndex> CreateEmpty(const Options& options,
                                         uint32_t series_length);

  /// Exact k-nearest-neighbor search. `source` provides the full sequences
  /// for the verification phase (RAM or disk); `stats` is optional.
  ///
  /// `shared`, when non-null, is a cross-partition pruning radius (see
  /// SharedRadius in knn.h): the search additionally prunes against it and
  /// publishes every upper bound it certifies on its own k-th distance.
  /// The returned list then contains every object of *this* index that
  /// could still be in the global top-k — a subset of the local top-k, with
  /// exact distances — which is exactly what a scatter-gather merge needs.
  Result<std::vector<Neighbor>> Search(const std::vector<double>& query, size_t k,
                                       storage::SequenceSource* source,
                                       SearchStats* stats,
                                       SharedRadius* shared = nullptr) const;

  /// Candidate-generation phase only: traverses the tree and returns every
  /// unpruned compressed object with its bounds. Exposed for experiments
  /// that study pruning power without verification I/O.
  struct Candidate {
    ts::SeriesId id;
    double lower;
    double upper;
  };
  Result<std::vector<Candidate>> CollectCandidates(const std::vector<double>& query,
                                                   size_t k, SearchStats* stats,
                                                   SharedRadius* shared = nullptr) const;

  /// Dynamic maintenance. The paper notes that dynamic VP-tree extensions
  /// (Fu et al.) "can be implemented on top of the proposed search
  /// mechanisms"; these methods provide them.
  ///
  /// Inserts the standardized sequence `row` under a fresh `id`. Routing
  /// descends by *exact* distance to each vantage point, whose full
  /// representation is fetched from `source` (one random read per level —
  /// the index itself only holds compressed data). A leaf that grows beyond
  /// `2 * leaf_size` is split in place, again using exact distances from
  /// `source`. `source->Get(id)` must already return `row` (register the
  /// sequence with the store before inserting).
  Status Insert(ts::SeriesId id, const std::vector<double>& row,
                storage::SequenceSource* source);

  /// Removes a sequence. Leaf objects are erased outright; vantage points
  /// are tombstoned — kept for routing but excluded from all results — the
  /// standard deletion strategy for metric trees. Returns NotFound for
  /// unknown ids.
  ///
  /// `pinned_row`, when non-null, is copied into the node if the removal
  /// tombstones a vantage point. It must be the row the vantage was indexed
  /// under; later `Insert` routing and `Validate` use the pinned copy
  /// instead of `source->Get(id)`, so the id's row in the store may change
  /// after the removal (the streaming append path removes a series, updates
  /// its stored row, and re-inserts it elsewhere — without the pin, routing
  /// against the *new* row would contradict the medians and subtree
  /// membership built around the old one). Pass null only when the backing
  /// store stays frozen for the tombstone's lifetime. Pinned rows are not
  /// serialized by `Save`; compact tombstones away before saving.
  Status Remove(ts::SeriesId id,
                const std::vector<double>* pinned_row = nullptr);

  /// Number of tombstoned vantage points (candidates for a rebuild when
  /// this grows large).
  size_t num_tombstones() const { return num_tombstones_; }

  /// Serializes the whole index (options, topology, compressed features) so
  /// a later session can `Load` it without re-running the DFT or the
  /// exact-distance construction — the S2 tool's "compressed features are
  /// stored locally" deployment mode. Commits through the crash-safe
  /// generation container (`io::durable`): a crash mid-save leaves the
  /// previous image loadable. `env` defaults to the POSIX filesystem.
  Status Save(const std::string& path, io::Env* env = nullptr) const;

  /// Loads an index previously written by `Save` (newest valid generation;
  /// legacy headerless images load as generation 0).
  static Result<VpTreeIndex> Load(const std::string& path,
                                  io::Env* env = nullptr);

  /// Structural self-check: child pointers in range, no node reachable
  /// twice, every node reachable from the root, object/tombstone counts
  /// matching the per-node census, leaves childless and internals
  /// bucket-free, split radii finite and non-negative, and no id indexed
  /// twice. When `source` is non-null, additionally verifies the metric
  /// invariant with exact distances: every object in a left subtree lies
  /// within its vantage radius, every right-subtree object at or beyond it
  /// (one `Get` per indexed object — expensive, test/debug use). Reports the
  /// exact violations as `Status::Corruption`.
  Status Validate(storage::SequenceSource* source = nullptr) const;

  /// Total bytes of all compressed representations held by the index (the
  /// paper's compact-index size claim), excluding pointer overhead.
  size_t CompressedBytes() const;

  /// Number of indexed sequences.
  size_t size() const { return num_objects_; }

  const Options& options() const { return options_; }

 private:
  friend struct VpTreeTestPeer;  // Corruption injection in validator tests.

  struct Builder;  // Construction helper, defined in vp_tree.cc.

  struct Entry {
    ts::SeriesId id;
    repr::CompressedSpectrum repr;
  };
  struct Node {
    Entry vantage;               // Meaningful for internal nodes.
    double median = 0.0;         // Split radius around the vantage point.
    int32_t left = -1;           // Child node ids; -1 when absent.
    int32_t right = -1;
    bool leaf = false;
    bool vantage_deleted = false;  // Tombstone: route through, never report.
    std::vector<Entry> bucket;   // Leaf objects.
    // Full row the vantage was indexed under, pinned at tombstoning time so
    // routing/validation survive the store's row changing afterwards (see
    // Remove). Empty when no row was pinned. Per-node, not per-id: the same
    // id may be tombstoned again later under a different row.
    std::vector<double> pinned_row;
  };

  VpTreeIndex(Options options, std::vector<Node> nodes, int32_t root,
              size_t num_objects, uint32_t series_length)
      : options_(options),
        nodes_(std::move(nodes)),
        root_(root),
        num_objects_(num_objects),
        series_length_(series_length) {}

  void SearchNode(int32_t node_id, const repr::QuerySpectrum& query,
                  std::vector<Candidate>* candidates, BestList* upper_bounds,
                  SearchStats* stats, SharedRadius* shared) const;

  Result<repr::CompressedSpectrum> CompressRow(const std::vector<double>& row) const;
  Status SplitLeaf(int32_t node_id, storage::SequenceSource* source);
  bool ContainsId(ts::SeriesId id) const;

  Options options_;
  std::vector<Node> nodes_;
  int32_t root_ = -1;
  size_t num_objects_ = 0;
  size_t num_tombstones_ = 0;
  uint32_t series_length_ = 0;
};

}  // namespace s2::index

#endif  // S2_INDEX_VP_TREE_H_
