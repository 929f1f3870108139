#include "index/vp_tree.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <cstring>
#include <memory>
#include <numeric>
#include <unordered_set>

#include "common/rng.h"
#include "diag/validate.h"
#include "io/durable.h"
#include "io/serial.h"
#include "repr/feature_store.h"
#include "repr/row_matrix.h"
#include "dsp/stats.h"
#include "simd/simd.h"

namespace s2::index {

namespace {

// Exact Euclidean distance used during construction (uncompressed data).
double ExactDistance(const double* a, const double* b, size_t n) {
  return std::sqrt(dsp::SquaredEuclidean(a, b, n));
}

double ExactDistance(const std::vector<double>& a, const std::vector<double>& b) {
  const size_t n = a.size() < b.size() ? a.size() : b.size();
  return ExactDistance(a.data(), b.data(), n);
}

}  // namespace

struct VpTreeIndex::Builder {
  // Contiguous SoA copy of the input rows: one allocation, fixed stride,
  // rows the vectorized distance kernel can stream with prefetch.
  const repr::RowMatrix& rows;
  const VpTreeIndex::Options& options;
  const std::vector<repr::HalfSpectrum>& spectra;
  std::vector<VpTreeIndex::Node>* nodes;
  Rng rng;

  Builder(const repr::RowMatrix& r,
          const VpTreeIndex::Options& o,
          const std::vector<repr::HalfSpectrum>& s,
          std::vector<VpTreeIndex::Node>* n)
      : rows(r), options(o), spectra(s), nodes(n), rng(o.seed) {}

  Result<repr::CompressedSpectrum> CompressOf(ts::SeriesId id) {
    if (options.energy_fraction > 0.0) {
      return repr::CompressedSpectrum::CompressToEnergy(spectra[id],
                                                        options.energy_fraction);
    }
    return repr::CompressedSpectrum::Compress(spectra[id], options.repr_kind,
                                              options.budget_c);
  }

  // The paper's vantage-point heuristic: among sampled candidates pick the
  // one with the highest standard deviation of distances to the others ("an
  // analogue of the largest eigenvector in SVD decomposition").
  ts::SeriesId PickVantage(const std::vector<ts::SeriesId>& ids) {
    const size_t n_cands = std::min(options.vantage_candidates, ids.size());
    const size_t n_probe = std::min(options.deviation_sample, ids.size());
    ts::SeriesId best_id = ids.front();
    double best_dev = -1.0;
    for (size_t c = 0; c < n_cands; ++c) {
      const ts::SeriesId cand =
          ids[static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(ids.size()) - 1))];
      std::vector<double> dists;
      dists.reserve(n_probe);
      for (size_t p = 0; p < n_probe; ++p) {
        const ts::SeriesId other =
            ids[static_cast<size_t>(rng.UniformInt(0, static_cast<int64_t>(ids.size()) - 1))];
        if (other == cand) continue;
        dists.push_back(
            ExactDistance(rows.row(cand), rows.row(other), rows.row_length()));
      }
      const double dev = dsp::StdDev(dists);
      if (dev > best_dev) {
        best_dev = dev;
        best_id = cand;
      }
    }
    return best_id;
  }

  Result<int32_t> BuildNode(std::vector<ts::SeriesId> ids) {
    if (ids.size() <= options.leaf_size) {
      VpTreeIndex::Node node;
      node.leaf = true;
      node.bucket.reserve(ids.size());
      for (ts::SeriesId id : ids) {
        S2_ASSIGN_OR_RETURN(repr::CompressedSpectrum compressed, CompressOf(id));
        node.bucket.push_back({id, std::move(compressed)});
      }
      nodes->push_back(std::move(node));
      return static_cast<int32_t>(nodes->size() - 1);
    }

    const ts::SeriesId vp = PickVantage(ids);

    // Exact distances to the vantage point; the vantage point is compressed
    // only after the split is decided.
    struct DistEntry {
      ts::SeriesId id;
      double dist;
    };
    std::vector<DistEntry> entries;
    entries.reserve(ids.size() - 1);
    const double* vp_row = rows.row(vp);
    for (size_t i = 0; i < ids.size(); ++i) {
      const ts::SeriesId id = ids[i];
      if (id == vp) continue;
      if (i + 1 < ids.size()) simd::PrefetchRead(rows.row(ids[i + 1]));
      entries.push_back(
          {id, ExactDistance(vp_row, rows.row(id), rows.row_length())});
    }

    const size_t mid = entries.size() / 2;
    std::nth_element(entries.begin(), entries.begin() + static_cast<ptrdiff_t>(mid),
                     entries.end(),
                     [](const DistEntry& a, const DistEntry& b) {
                       return a.dist < b.dist;
                     });
    const double median = entries[mid].dist;

    std::vector<ts::SeriesId> left_ids;
    std::vector<ts::SeriesId> right_ids;
    left_ids.reserve(mid);
    right_ids.reserve(entries.size() - mid);
    for (size_t i = 0; i < entries.size(); ++i) {
      (i < mid ? left_ids : right_ids).push_back(entries[i].id);
    }

    S2_ASSIGN_OR_RETURN(repr::CompressedSpectrum compressed, CompressOf(vp));

    // Reserve this node's slot before recursing so child ids are stable.
    nodes->push_back(VpTreeIndex::Node{});
    const int32_t node_id = static_cast<int32_t>(nodes->size() - 1);

    int32_t left = -1;
    int32_t right = -1;
    if (!left_ids.empty()) {
      S2_ASSIGN_OR_RETURN(left, BuildNode(std::move(left_ids)));
    }
    if (!right_ids.empty()) {
      S2_ASSIGN_OR_RETURN(right, BuildNode(std::move(right_ids)));
    }

    VpTreeIndex::Node& node = (*nodes)[static_cast<size_t>(node_id)];
    node.leaf = false;
    node.vantage = {vp, std::move(compressed)};
    node.median = median;
    node.left = left;
    node.right = right;
    return node_id;
  }
};

Result<VpTreeIndex> VpTreeIndex::Build(const std::vector<std::vector<double>>& rows,
                                       const Options& options) {
  if (rows.empty()) return Status::InvalidArgument("VpTreeIndex: empty input");
  const size_t length = rows.front().size();
  if (length == 0) return Status::InvalidArgument("VpTreeIndex: empty sequences");
  for (const auto& row : rows) {
    if (row.size() != length) {
      return Status::InvalidArgument("VpTreeIndex: ragged input rows");
    }
  }
  if (options.leaf_size == 0) {
    return Status::InvalidArgument("VpTreeIndex: leaf_size must be > 0");
  }

  std::vector<repr::HalfSpectrum> spectra;
  spectra.reserve(rows.size());
  for (const auto& row : rows) {
    S2_ASSIGN_OR_RETURN(repr::HalfSpectrum spectrum,
                        repr::HalfSpectrum::FromSeriesInBasis(row, options.basis));
    spectra.push_back(std::move(spectrum));
  }

  std::vector<Node> nodes;
  const repr::RowMatrix matrix = repr::RowMatrix::FromRows(rows);
  Builder builder(matrix, options, spectra, &nodes);
  std::vector<ts::SeriesId> ids(rows.size());
  std::iota(ids.begin(), ids.end(), 0u);
  S2_ASSIGN_OR_RETURN(int32_t root, builder.BuildNode(std::move(ids)));

  return VpTreeIndex(options, std::move(nodes), root, rows.size(),
                     static_cast<uint32_t>(length));
}

Result<VpTreeIndex> VpTreeIndex::CreateEmpty(const Options& options,
                                             uint32_t series_length) {
  if (series_length == 0) {
    return Status::InvalidArgument("VpTreeIndex: empty sequences");
  }
  if (options.leaf_size == 0) {
    return Status::InvalidArgument("VpTreeIndex: leaf_size must be > 0");
  }
  return VpTreeIndex(options, {}, /*root=*/-1, /*num_objects=*/0, series_length);
}

void VpTreeIndex::SearchNode(int32_t node_id, const repr::QuerySpectrum& query,
                             std::vector<Candidate>* candidates,
                             BestList* upper_bounds, SearchStats* stats,
                             SharedRadius* shared) const {
  if (node_id < 0) return;
  const Node& node = nodes_[static_cast<size_t>(node_id)];
  ++stats->nodes_visited;

  // Cross-shard pruning: another partition's published radius already
  // upper-bounds the global k-th distance, so every prune below compares
  // against the tighter of it and the local k-th upper bound. Publishing is
  // sound in the other direction too: a full local upper-bound list is
  // witnessed by k real objects of this partition, so its threshold
  // upper-bounds the global k-th distance as well.
  if (node.leaf) {
    for (const Entry& entry : node.bucket) {
      auto bounds = repr::ComputeBounds(query, entry.repr, options_.method);
      if (!bounds.ok()) continue;  // Cannot happen for a well-formed index.
      ++stats->bound_computations;
      candidates->push_back({entry.id, bounds->lower, bounds->upper});
      upper_bounds->Offer(entry.id, bounds->upper);
    }
    if (shared != nullptr && upper_bounds->Full()) {
      shared->Tighten(upper_bounds->Threshold());
    }
    return;
  }

  auto bounds = repr::ComputeBounds(query, node.vantage.repr, options_.method);
  if (!bounds.ok()) return;
  ++stats->bound_computations;
  if (!node.vantage_deleted) {
    candidates->push_back({node.vantage.id, bounds->lower, bounds->upper});
    upper_bounds->Offer(node.vantage.id, bounds->upper);
    if (shared != nullptr && upper_bounds->Full()) {
      shared->Tighten(upper_bounds->Threshold());
    }
  }

  const double lb = bounds->lower;
  const double ub = bounds->upper;
  const double mu = node.median;

  // The annulus heuristic: visit first the child whose distance region
  // overlaps [LB, UB] the most (Section 4.1).
  bool left_first = true;
  if (options_.guided_traversal && std::isfinite(ub)) {
    const double left_overlap = std::max(0.0, std::min(ub, mu) - lb);
    const double right_overlap = std::max(0.0, ub - std::max(lb, mu));
    left_first = left_overlap >= right_overlap;
  }

  // Prune rules (triangle inequality through the vantage point):
  //   every object in the left subtree is within mu of the VP, so its
  //   distance to Q is at least LB - mu; skip left when that exceeds the
  //   best-so-far upper bound. Symmetrically skip right when mu - UB does.
  // With a shared radius the comparison is against the tighter of the local
  // threshold and the cross-partition bound, re-read at visit time because
  // both improve as the traversal proceeds.
  auto visit_subtree = [&](int32_t child, double subtree_lb) {
    const double local = upper_bounds->Threshold();
    double limit = local;
    if (shared != nullptr) limit = std::min(limit, shared->load());
    if (subtree_lb <= limit) {
      SearchNode(child, query, candidates, upper_bounds, stats, shared);
    } else if (subtree_lb <= local) {
      ++stats->shared_radius_prunes;  // Only the shared bound made the cut.
    }
  };
  auto visit_left = [&] { visit_subtree(node.left, lb - mu); };
  auto visit_right = [&] { visit_subtree(node.right, mu - ub); };
  if (left_first) {
    visit_left();
    visit_right();
  } else {
    visit_right();
    visit_left();
  }
}

Result<std::vector<VpTreeIndex::Candidate>> VpTreeIndex::CollectCandidates(
    const std::vector<double>& query, size_t k, SearchStats* stats,
    SharedRadius* shared) const {
  if (query.size() != series_length_) {
    return Status::InvalidArgument("VpTreeIndex: query length mismatch");
  }
  if (k == 0) return Status::InvalidArgument("VpTreeIndex: k must be > 0");
  SearchStats local_stats;
  if (stats == nullptr) stats = &local_stats;

  S2_ASSIGN_OR_RETURN(repr::HalfSpectrum spectrum,
                      repr::HalfSpectrum::FromSeriesInBasis(query, options_.basis));
  std::vector<Candidate> candidates;
  BestList upper_bounds(k);
  // |Q_k| once per search, not once per bounded object.
  const repr::QuerySpectrum prepared(spectrum);
  SearchNode(root_, prepared, &candidates, &upper_bounds, stats, shared);

  // SUB filter: no object whose lower bound exceeds the k-th smallest upper
  // bound can be a k-nearest neighbor — and under scatter-gather, none
  // beyond the shared radius can be in the *global* top-k either.
  double sub = upper_bounds.Threshold();
  if (shared != nullptr) {
    const double remote = shared->load();
    if (remote < sub) {
      sub = remote;
      ++stats->shared_radius_prunes;  // The filter itself got tighter.
    }
  }
  std::erase_if(candidates, [sub](const Candidate& c) { return c.lower > sub; });
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) { return a.lower < b.lower; });
  stats->candidates_surviving = candidates.size();
  return candidates;
}

Result<std::vector<Neighbor>> VpTreeIndex::Search(const std::vector<double>& query,
                                                  size_t k,
                                                  storage::SequenceSource* source,
                                                  SearchStats* stats,
                                                  SharedRadius* shared) const {
  SearchStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  if (source == nullptr) {
    return Status::InvalidArgument("VpTreeIndex: source must not be null");
  }
  S2_ASSIGN_OR_RETURN(std::vector<Candidate> candidates,
                      CollectCandidates(query, k, stats, shared));

  // Verification in ascending lower-bound order with early termination.
  // Under scatter-gather the stop/abandon threshold is additionally clamped
  // to the shared radius; a distance computed against that clamp may be a
  // truncated partial value, so it is only Offered when provably complete
  // (strictly below the clamp used to abandon it).
  BestList best(k);
  for (const Candidate& candidate : candidates) {
    const double local = best.Threshold();
    double threshold = local;
    if (shared != nullptr) threshold = std::min(threshold, shared->load());
    if (best.Full() && candidate.lower > local) break;
    if (candidate.lower > threshold) {
      // Beyond the shared radius: cannot enter the global top-k. Later
      // candidates may still be needed for the *local* exact list when the
      // caller is a plain search, but under shared pruning we only owe the
      // global-plausible subset — skip, do not break (the shared radius is
      // not monotone in candidate.lower order guarantees).
      ++stats->shared_radius_prunes;
      continue;
    }
    S2_ASSIGN_OR_RETURN(std::vector<double> row, source->Get(candidate.id));
    ++stats->full_retrievals;
    const double abandon_sq = std::isinf(threshold)
                                  ? std::numeric_limits<double>::infinity()
                                  : threshold * threshold;
    const double dist_sq = dsp::SquaredEuclideanEarlyAbandon(
        query.data(), row.data(), query.size(), abandon_sq);
    // Gate in the squared domain: the kernel's result is <= abandon_sq
    // exactly when it is the complete squared distance (abandoned partials
    // exceed the limit by construction), so truncated values can never
    // enter — even when `shared` is tighter than the local list. The old
    // sqrt-domain gate (`sqrt(sum) <= threshold`) could round an abandoned
    // partial down onto the threshold and break pruning exactness by an
    // ulp; comparing sums of squares is airtight.
    if (dist_sq <= abandon_sq) {
      best.Offer(candidate.id, std::sqrt(dist_sq));
      if (shared != nullptr && best.Full()) shared->Tighten(best.Threshold());
    }
  }
  return std::move(best).Take();
}

Result<repr::CompressedSpectrum> VpTreeIndex::CompressRow(
    const std::vector<double>& row) const {
  S2_ASSIGN_OR_RETURN(repr::HalfSpectrum spectrum,
                      repr::HalfSpectrum::FromSeriesInBasis(row, options_.basis));
  if (options_.energy_fraction > 0.0) {
    return repr::CompressedSpectrum::CompressToEnergy(spectrum,
                                                      options_.energy_fraction);
  }
  return repr::CompressedSpectrum::Compress(spectrum, options_.repr_kind,
                                            options_.budget_c);
}

bool VpTreeIndex::ContainsId(ts::SeriesId id) const {
  for (const Node& node : nodes_) {
    if (node.leaf) {
      for (const Entry& entry : node.bucket) {
        if (entry.id == id) return true;
      }
    } else if (node.vantage.id == id && !node.vantage_deleted) {
      return true;
    }
  }
  return false;
}

Status VpTreeIndex::Insert(ts::SeriesId id, const std::vector<double>& row,
                           storage::SequenceSource* source) {
  if (row.size() != series_length_) {
    return Status::InvalidArgument("VpTreeIndex::Insert: row length mismatch");
  }
  if (source == nullptr) {
    return Status::InvalidArgument("VpTreeIndex::Insert: source must not be null");
  }
  if (ContainsId(id)) {
    return Status::AlreadyExists("VpTreeIndex::Insert: id already indexed");
  }

  // An empty index (CreateEmpty) grows its first leaf here.
  if (root_ < 0) {
    Node leaf;
    leaf.leaf = true;
    nodes_.push_back(std::move(leaf));
    root_ = static_cast<int32_t>(nodes_.size() - 1);
  }

  // Route by exact distance to each vantage point; the full vantage
  // representations are fetched from the store — except for tombstones with
  // a pinned row, whose store row may have changed since (see Remove).
  int32_t node_id = root_;
  while (!nodes_[static_cast<size_t>(node_id)].leaf) {
    Node& node = nodes_[static_cast<size_t>(node_id)];
    double dist = 0.0;
    if (node.vantage_deleted && !node.pinned_row.empty()) {
      dist = ExactDistance(row, node.pinned_row);
    } else {
      S2_ASSIGN_OR_RETURN(std::vector<double> vantage_row,
                          source->Get(node.vantage.id));
      dist = ExactDistance(row, vantage_row);
    }
    int32_t* child = dist < node.median ? &node.left : &node.right;
    if (*child < 0) {
      // Attach a fresh leaf on the empty side.
      Node leaf;
      leaf.leaf = true;
      nodes_.push_back(std::move(leaf));
      // nodes_ may have reallocated; re-resolve the parent before writing.
      Node& parent = nodes_[static_cast<size_t>(node_id)];
      child = dist < parent.median ? &parent.left : &parent.right;
      *child = static_cast<int32_t>(nodes_.size() - 1);
    }
    node_id = *child;
  }

  S2_ASSIGN_OR_RETURN(repr::CompressedSpectrum compressed, CompressRow(row));
  nodes_[static_cast<size_t>(node_id)].bucket.push_back(
      {id, std::move(compressed)});
  ++num_objects_;

  if (nodes_[static_cast<size_t>(node_id)].bucket.size() > 2 * options_.leaf_size) {
    S2_RETURN_NOT_OK(SplitLeaf(node_id, source));
  }
  return Status::OK();
}

Status VpTreeIndex::SplitLeaf(int32_t node_id, storage::SequenceSource* source) {
  // Fetch the bucket's full rows once.
  std::vector<Entry> bucket = std::move(nodes_[static_cast<size_t>(node_id)].bucket);
  nodes_[static_cast<size_t>(node_id)].bucket.clear();
  std::vector<std::vector<double>> rows;
  rows.reserve(bucket.size());
  for (const Entry& entry : bucket) {
    S2_ASSIGN_OR_RETURN(std::vector<double> full, source->Get(entry.id));
    rows.push_back(std::move(full));
  }

  // Vantage point: the member with the highest deviation of distances to
  // the others (the construction heuristic, computed exactly here since the
  // bucket is small).
  size_t vantage_slot = 0;
  double best_dev = -1.0;
  for (size_t cand = 0; cand < rows.size(); ++cand) {
    std::vector<double> dists;
    dists.reserve(rows.size() - 1);
    for (size_t other = 0; other < rows.size(); ++other) {
      if (other != cand) dists.push_back(ExactDistance(rows[cand], rows[other]));
    }
    const double dev = dsp::StdDev(dists);
    if (dev > best_dev) {
      best_dev = dev;
      vantage_slot = cand;
    }
  }

  struct DistEntry {
    size_t slot;
    double dist;
  };
  std::vector<DistEntry> entries;
  for (size_t i = 0; i < rows.size(); ++i) {
    if (i == vantage_slot) continue;
    entries.push_back({i, ExactDistance(rows[vantage_slot], rows[i])});
  }
  const size_t mid = entries.size() / 2;
  std::nth_element(
      entries.begin(), entries.begin() + static_cast<ptrdiff_t>(mid), entries.end(),
      [](const DistEntry& a, const DistEntry& b) { return a.dist < b.dist; });
  const double median = entries[mid].dist;

  Node left;
  left.leaf = true;
  Node right;
  right.leaf = true;
  for (size_t i = 0; i < entries.size(); ++i) {
    (i < mid ? left : right).bucket.push_back(std::move(bucket[entries[i].slot]));
  }
  nodes_.push_back(std::move(left));
  const int32_t left_id = static_cast<int32_t>(nodes_.size() - 1);
  nodes_.push_back(std::move(right));
  const int32_t right_id = static_cast<int32_t>(nodes_.size() - 1);

  Node& node = nodes_[static_cast<size_t>(node_id)];
  node.leaf = false;
  node.vantage = std::move(bucket[vantage_slot]);
  node.vantage_deleted = false;
  node.pinned_row.clear();
  node.median = median;
  node.left = left_id;
  node.right = right_id;
  return Status::OK();
}

Status VpTreeIndex::Remove(ts::SeriesId id,
                           const std::vector<double>* pinned_row) {
  if (pinned_row != nullptr && pinned_row->size() != series_length_) {
    return Status::InvalidArgument("VpTreeIndex::Remove: pinned row length mismatch");
  }
  for (Node& node : nodes_) {
    if (node.leaf) {
      for (size_t i = 0; i < node.bucket.size(); ++i) {
        if (node.bucket[i].id == id) {
          node.bucket.erase(node.bucket.begin() + static_cast<ptrdiff_t>(i));
          --num_objects_;
          return Status::OK();
        }
      }
    } else if (node.vantage.id == id && !node.vantage_deleted) {
      node.vantage_deleted = true;
      if (pinned_row != nullptr) node.pinned_row = *pinned_row;
      ++num_tombstones_;
      --num_objects_;
      return Status::OK();
    }
  }
  return Status::NotFound("VpTreeIndex::Remove: id not indexed");
}

namespace {

constexpr char kIndexMagic[8] = {'S', '2', 'V', 'P', 'T', 'R', '0', '1'};

template <typename T>
bool PutScalar(io::File* f, T value) {
  return io::WriteScalar(f, value).ok();
}

template <typename T>
bool GetScalar(io::File* f, T* value) {
  return io::ReadScalar(f, value).ok();
}

}  // namespace

Status VpTreeIndex::Save(const std::string& path, io::Env* env) const {
  if (env == nullptr) env = io::Env::Default();
  // Serialize into RAM, then commit the image as one generation: readers of
  // `path` only ever observe a complete index, and a crash mid-save leaves
  // the previous generation in place.
  io::BufferFile buffer;
  io::File* f = &buffer;

  bool ok = io::WriteExact(f, kIndexMagic, sizeof(kIndexMagic)).ok() &&
            PutScalar<uint8_t>(f, static_cast<uint8_t>(options_.repr_kind)) &&
            PutScalar<uint8_t>(f, static_cast<uint8_t>(options_.basis)) &&
            PutScalar<uint8_t>(f, static_cast<uint8_t>(options_.method)) &&
            PutScalar<uint64_t>(f, options_.budget_c) &&
            PutScalar(f, options_.energy_fraction) &&
            PutScalar<uint64_t>(f, options_.leaf_size) &&
            PutScalar<uint8_t>(f, options_.guided_traversal ? 1 : 0) &&
            PutScalar<uint32_t>(f, series_length_) &&
            PutScalar<uint64_t>(f, num_objects_) &&
            PutScalar<uint64_t>(f, num_tombstones_) &&
            PutScalar<int32_t>(f, root_) &&
            PutScalar<uint64_t>(f, nodes_.size());
  if (!ok) return Status::IoError("VpTreeIndex::Save: short write");

  for (const Node& node : nodes_) {
    ok = PutScalar<uint8_t>(f, node.leaf ? 1 : 0) &&
         PutScalar<uint8_t>(f, node.vantage_deleted ? 1 : 0) &&
         PutScalar(f, node.median) && PutScalar(f, node.left) &&
         PutScalar(f, node.right);
    if (!ok) return Status::IoError("VpTreeIndex::Save: short write");
    if (node.leaf) {
      if (!PutScalar<uint64_t>(f, node.bucket.size())) {
        return Status::IoError("VpTreeIndex::Save: short write");
      }
      for (const Entry& entry : node.bucket) {
        if (!PutScalar(f, entry.id)) {
          return Status::IoError("VpTreeIndex::Save: short write");
        }
        S2_RETURN_NOT_OK(repr::WriteFeatureRecord(f, entry.repr));
      }
    } else {
      if (!PutScalar(f, node.vantage.id)) {
        return Status::IoError("VpTreeIndex::Save: short write");
      }
      S2_RETURN_NOT_OK(repr::WriteFeatureRecord(f, node.vantage.repr));
    }
  }
  return io::durable::CommitNext(env, path, std::move(buffer).TakeBytes());
}

Result<VpTreeIndex> VpTreeIndex::Load(const std::string& path, io::Env* env) {
  if (env == nullptr) env = io::Env::Default();
  std::vector<char> bytes;
  S2_RETURN_NOT_OK(io::durable::LoadLatest(env, path, &bytes));
  io::BufferFile buffer(std::move(bytes));
  io::File* f = &buffer;
  const uint64_t file_size = buffer.bytes().size();

  char magic[sizeof(kIndexMagic)];
  uint8_t repr_kind = 0;
  uint8_t basis = 0;
  uint8_t method = 0;
  uint64_t budget_c = 0;
  double energy_fraction = 0.0;
  uint64_t leaf_size = 0;
  uint8_t guided = 0;
  uint32_t series_length = 0;
  uint64_t num_objects = 0;
  uint64_t num_tombstones = 0;
  int32_t root = -1;
  uint64_t node_count = 0;
  bool ok = io::ReadExact(f, magic, sizeof(magic)).ok() &&
            std::memcmp(magic, kIndexMagic, sizeof(kIndexMagic)) == 0 &&
            GetScalar(f, &repr_kind) && GetScalar(f, &basis) &&
            GetScalar(f, &method) && GetScalar(f, &budget_c) &&
            GetScalar(f, &energy_fraction) && GetScalar(f, &leaf_size) &&
            GetScalar(f, &guided) && GetScalar(f, &series_length) &&
            GetScalar(f, &num_objects) && GetScalar(f, &num_tombstones) &&
            GetScalar(f, &root) && GetScalar(f, &node_count);
  if (!ok || repr_kind > 3 || basis > 1 || method > 6) {
    return Status::Corruption("VpTreeIndex::Load: bad header in " + path);
  }
  // Bound the declared node count by the bytes actually present (the
  // smallest node is an empty leaf), so a corrupt header cannot trigger a
  // huge reserve.
  constexpr uint64_t kMinNodeBytes = 2 * sizeof(uint8_t) + sizeof(double) +
                                     2 * sizeof(int32_t) + sizeof(uint64_t);
  constexpr uint64_t kHeaderBytes = sizeof(kIndexMagic) + 3 * sizeof(uint8_t) +
                                    2 * sizeof(uint64_t) + sizeof(double) +
                                    sizeof(uint8_t) + sizeof(uint32_t) +
                                    2 * sizeof(uint64_t) + sizeof(int32_t) +
                                    sizeof(uint64_t);
  if (node_count > (file_size - kHeaderBytes) / kMinNodeBytes ||
      node_count > static_cast<uint64_t>(
                       std::numeric_limits<int32_t>::max())) {
    return Status::Corruption("VpTreeIndex::Load: node count " +
                              std::to_string(node_count) +
                              " exceeds the file size in " + path);
  }

  Options options;
  options.repr_kind = static_cast<repr::ReprKind>(repr_kind);
  options.basis = static_cast<repr::Basis>(basis);
  options.method = static_cast<repr::BoundMethod>(method);
  options.budget_c = static_cast<size_t>(budget_c);
  options.energy_fraction = energy_fraction;
  options.leaf_size = static_cast<size_t>(leaf_size);
  options.guided_traversal = guided != 0;

  std::vector<Node> nodes;
  nodes.reserve(node_count);
  for (uint64_t i = 0; i < node_count; ++i) {
    Node node;
    uint8_t leaf = 0;
    uint8_t deleted = 0;
    if (!GetScalar(f, &leaf) || !GetScalar(f, &deleted) ||
        !GetScalar(f, &node.median) || !GetScalar(f, &node.left) ||
        !GetScalar(f, &node.right)) {
      return Status::Corruption("VpTreeIndex::Load: truncated node");
    }
    node.leaf = leaf != 0;
    node.vantage_deleted = deleted != 0;
    if (node.leaf) {
      uint64_t bucket_size = 0;
      if (!GetScalar(f, &bucket_size) || bucket_size > (1u << 24)) {
        return Status::Corruption("VpTreeIndex::Load: corrupt bucket");
      }
      node.bucket.reserve(bucket_size);
      for (uint64_t b = 0; b < bucket_size; ++b) {
        Entry entry;
        if (!GetScalar(f, &entry.id)) {
          return Status::Corruption("VpTreeIndex::Load: truncated entry");
        }
        S2_ASSIGN_OR_RETURN(entry.repr, repr::ReadFeatureRecord(f));
        node.bucket.push_back(std::move(entry));
      }
    } else {
      if (!GetScalar(f, &node.vantage.id)) {
        return Status::Corruption("VpTreeIndex::Load: truncated vantage");
      }
      S2_ASSIGN_OR_RETURN(node.vantage.repr, repr::ReadFeatureRecord(f));
    }
    nodes.push_back(std::move(node));
  }
  if (root < -1 || root >= static_cast<int32_t>(nodes.size())) {
    return Status::Corruption("VpTreeIndex::Load: root out of range");
  }
  // Child pointers must stay inside the node array: an out-of-range id
  // would be followed blindly by Search/Insert.
  for (size_t i = 0; i < nodes.size(); ++i) {
    const Node& node = nodes[i];
    const int32_t limit = static_cast<int32_t>(nodes.size());
    if (node.left < -1 || node.left >= limit || node.right < -1 ||
        node.right >= limit) {
      return Status::Corruption("VpTreeIndex::Load: node " + std::to_string(i) +
                                " has an out-of-range child in " + path);
    }
  }
  VpTreeIndex index(options, std::move(nodes), root,
                    static_cast<size_t>(num_objects), series_length);
  index.num_tombstones_ = static_cast<size_t>(num_tombstones);
  return index;
}

Status VpTreeIndex::Validate(storage::SequenceSource* source) const {
  diag::Validator v("VpTreeIndex");
  const int32_t limit = static_cast<int32_t>(nodes_.size());
  v.Check(root_ >= -1 && root_ < limit)
      << "root " << root_ << " out of range (have " << limit << " nodes)";
  if (!v.ok()) return v.ToStatus();

  // Reachability walk: every node exactly once, counting objects and
  // tombstones along the way.
  std::vector<uint8_t> visited(nodes_.size(), 0);
  std::unordered_set<ts::SeriesId> seen_ids;
  size_t objects = 0;
  size_t tombstones = 0;
  std::vector<int32_t> stack;
  if (root_ >= 0) stack.push_back(root_);
  while (!stack.empty()) {
    const int32_t id = stack.back();
    stack.pop_back();
    if (id < 0 || id >= limit) {
      v.AddViolation("child pointer " + std::to_string(id) + " out of range");
      continue;
    }
    if (visited[static_cast<size_t>(id)] != 0) {
      v.AddViolation("node " + std::to_string(id) +
                     " reachable twice (cycle or shared child)");
      continue;
    }
    visited[static_cast<size_t>(id)] = 1;
    const Node& node = nodes_[static_cast<size_t>(id)];
    if (node.leaf) {
      v.Check(node.left == -1 && node.right == -1)
          << "leaf node " << id << " has children";
      for (const Entry& entry : node.bucket) {
        ++objects;
        v.Check(seen_ids.insert(entry.id).second)
            << "series " << entry.id << " indexed twice";
      }
    } else {
      v.Check(std::isfinite(node.median) && node.median >= 0.0)
          << "internal node " << id << " has invalid split radius "
          << node.median;
      v.Check(node.bucket.empty())
          << "internal node " << id << " carries a leaf bucket";
      if (node.vantage_deleted) {
        ++tombstones;
        v.Check(node.pinned_row.empty() ||
                node.pinned_row.size() == static_cast<size_t>(series_length_))
            << "node " << id << " pins a row of wrong length "
            << node.pinned_row.size();
      } else {
        ++objects;
        v.Check(node.pinned_row.empty())
            << "live vantage node " << id << " carries a pinned row";
        v.Check(seen_ids.insert(node.vantage.id).second)
            << "series " << node.vantage.id << " indexed twice";
      }
      if (node.left != -1) stack.push_back(node.left);
      if (node.right != -1) stack.push_back(node.right);
    }
  }
  for (size_t i = 0; i < nodes_.size(); ++i) {
    v.Check(visited[i] != 0) << "node " << i << " unreachable from the root";
  }
  v.Check(objects == num_objects_)
      << "census finds " << objects << " objects, index claims " << num_objects_;
  v.Check(tombstones == num_tombstones_)
      << "census finds " << tombstones << " tombstones, index claims "
      << num_tombstones_;

  // Metric invariant, checked with exact distances when full sequences are
  // available: the construction and insertion both route dist < median to
  // the left child, so every left-subtree object lies within the radius and
  // every right-subtree object at (or beyond) it.
  if (source != nullptr && v.ok()) {
    constexpr double kSlack = 1e-9;  // FP noise across distance re-computation.
    for (int32_t id = 0; id < limit; ++id) {
      const Node& node = nodes_[static_cast<size_t>(id)];
      if (node.leaf) continue;
      // Tombstoned vantages with a pinned row are validated against the pin:
      // the store's row for that id may legitimately differ by now.
      std::vector<double> vantage_row;
      if (node.vantage_deleted && !node.pinned_row.empty()) {
        vantage_row = node.pinned_row;
      } else {
        S2_ASSIGN_OR_RETURN(vantage_row, source->Get(node.vantage.id));
      }
      for (int side = 0; side < 2; ++side) {
        const int32_t child = side == 0 ? node.left : node.right;
        if (child == -1) continue;
        // Collect the subtree's object ids.
        std::vector<int32_t> sub{child};
        while (!sub.empty()) {
          const int32_t cur = sub.back();
          sub.pop_back();
          const Node& n = nodes_[static_cast<size_t>(cur)];
          std::vector<ts::SeriesId> ids;
          if (n.leaf) {
            for (const Entry& entry : n.bucket) ids.push_back(entry.id);
          } else {
            if (!n.vantage_deleted) ids.push_back(n.vantage.id);
            if (n.left != -1) sub.push_back(n.left);
            if (n.right != -1) sub.push_back(n.right);
          }
          for (ts::SeriesId object : ids) {
            S2_ASSIGN_OR_RETURN(std::vector<double> row, source->Get(object));
            const double dist = ExactDistance(vantage_row, row);
            if (side == 0) {
              v.Check(dist <= node.median + kSlack)
                  << "series " << object << " sits in the left subtree of node "
                  << id << " but lies " << dist << " from the vantage point"
                  << " (radius " << node.median << ")";
            } else {
              v.Check(dist >= node.median - kSlack)
                  << "series " << object
                  << " sits in the right subtree of node " << id
                  << " but lies " << dist << " from the vantage point"
                  << " (radius " << node.median << ")";
            }
          }
          if (!v.ok()) return v.ToStatus();
        }
      }
    }
  }
  return v.ToStatus();
}

size_t VpTreeIndex::CompressedBytes() const {
  size_t total = 0;
  for (const Node& node : nodes_) {
    if (node.leaf) {
      for (const Entry& entry : node.bucket) total += entry.repr.StorageBytes();
    } else {
      total += node.vantage.repr.StorageBytes();
      total += sizeof(double);  // The split radius.
    }
  }
  return total;
}

}  // namespace s2::index
