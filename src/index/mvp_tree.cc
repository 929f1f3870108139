#include "index/mvp_tree.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <numeric>
#include <unordered_set>

#include "common/rng.h"
#include "diag/validate.h"
#include "dsp/stats.h"
#include "repr/row_matrix.h"
#include "simd/simd.h"

namespace s2::index {

namespace {

double ExactDistance(const double* a, const double* b, size_t n) {
  return std::sqrt(dsp::SquaredEuclidean(a, b, n));
}

double ExactDistance(const std::vector<double>& a, const std::vector<double>& b) {
  const size_t n = a.size() < b.size() ? a.size() : b.size();
  return ExactDistance(a.data(), b.data(), n);
}

}  // namespace

struct MvpTreeIndex::Builder {
  // Contiguous SoA copy of the input rows (see repr::RowMatrix).
  const repr::RowMatrix& rows;
  const Options& options;
  const std::vector<repr::HalfSpectrum>& spectra;
  std::vector<Node>* nodes;
  Rng rng;

  Builder(const repr::RowMatrix& r, const Options& o,
          const std::vector<repr::HalfSpectrum>& s, std::vector<Node>* n)
      : rows(r), options(o), spectra(s), nodes(n), rng(o.seed) {}

  Result<repr::CompressedSpectrum> CompressOf(ts::SeriesId id) {
    return repr::CompressedSpectrum::Compress(spectra[id], options.repr_kind,
                                              options.budget_c);
  }

  ts::SeriesId PickVantage(const std::vector<ts::SeriesId>& ids,
                           ts::SeriesId exclude) {
    const size_t n_cands = std::min(options.vantage_candidates, ids.size());
    const size_t n_probe = std::min(options.deviation_sample, ids.size());
    ts::SeriesId best_id = ids.front() == exclude && ids.size() > 1 ? ids[1]
                                                                    : ids.front();
    double best_dev = -1.0;
    for (size_t c = 0; c < n_cands; ++c) {
      const ts::SeriesId cand = ids[static_cast<size_t>(
          rng.UniformInt(0, static_cast<int64_t>(ids.size()) - 1))];
      if (cand == exclude) continue;
      std::vector<double> dists;
      dists.reserve(n_probe);
      for (size_t p = 0; p < n_probe; ++p) {
        const ts::SeriesId other = ids[static_cast<size_t>(
            rng.UniformInt(0, static_cast<int64_t>(ids.size()) - 1))];
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
    // Two vantage points plus four non-trivial children need a minimum
    // population; below that a leaf is both simpler and faster.
    if (ids.size() <= std::max<size_t>(options.leaf_size, 6)) {
      Node node;
      node.leaf = true;
      node.bucket.reserve(ids.size());
      for (ts::SeriesId id : ids) {
        S2_ASSIGN_OR_RETURN(repr::CompressedSpectrum compressed, CompressOf(id));
        node.bucket.push_back({id, std::move(compressed)});
      }
      nodes->push_back(std::move(node));
      return static_cast<int32_t>(nodes->size() - 1);
    }

    const ts::SeriesId vp1 = PickVantage(ids, ts::kInvalidSeriesId);
    const ts::SeriesId vp2 = PickVantage(ids, vp1);

    struct DistEntry {
      ts::SeriesId id;
      double d1;
      double d2;
    };
    std::vector<DistEntry> entries;
    entries.reserve(ids.size());
    const double* vp1_row = rows.row(vp1);
    const double* vp2_row = rows.row(vp2);
    const size_t len = rows.row_length();
    for (size_t i = 0; i < ids.size(); ++i) {
      const ts::SeriesId id = ids[i];
      if (id == vp1 || id == vp2) continue;
      if (i + 1 < ids.size()) simd::PrefetchRead(rows.row(ids[i + 1]));
      entries.push_back({id, ExactDistance(vp1_row, rows.row(id), len),
                         ExactDistance(vp2_row, rows.row(id), len)});
    }

    // Split by the median distance to vp1...
    const size_t mid1 = entries.size() / 2;
    std::nth_element(entries.begin(), entries.begin() + static_cast<ptrdiff_t>(mid1),
                     entries.end(), [](const DistEntry& a, const DistEntry& b) {
                       return a.d1 < b.d1;
                     });
    const double mu1 = entries[mid1].d1;
    std::vector<DistEntry> half_left(entries.begin(),
                                     entries.begin() + static_cast<ptrdiff_t>(mid1));
    std::vector<DistEntry> half_right(entries.begin() + static_cast<ptrdiff_t>(mid1),
                                      entries.end());

    // ... then split each half by its own median distance to vp2.
    auto split_by_d2 = [](std::vector<DistEntry>* half, double* mu2,
                          std::vector<ts::SeriesId>* near_ids,
                          std::vector<ts::SeriesId>* far_ids) {
      if (half->empty()) {
        *mu2 = 0.0;
        return;
      }
      const size_t mid = half->size() / 2;
      std::nth_element(half->begin(), half->begin() + static_cast<ptrdiff_t>(mid),
                       half->end(), [](const DistEntry& a, const DistEntry& b) {
                         return a.d2 < b.d2;
                       });
      *mu2 = (*half)[mid].d2;
      for (size_t i = 0; i < half->size(); ++i) {
        (i < mid ? near_ids : far_ids)->push_back((*half)[i].id);
      }
    };

    double mu2_left = 0.0;
    double mu2_right = 0.0;
    std::vector<ts::SeriesId> child_ids[4];
    split_by_d2(&half_left, &mu2_left, &child_ids[0], &child_ids[1]);
    split_by_d2(&half_right, &mu2_right, &child_ids[2], &child_ids[3]);

    S2_ASSIGN_OR_RETURN(repr::CompressedSpectrum c1, CompressOf(vp1));
    S2_ASSIGN_OR_RETURN(repr::CompressedSpectrum c2, CompressOf(vp2));

    nodes->push_back(Node{});
    const int32_t node_id = static_cast<int32_t>(nodes->size() - 1);

    int32_t children[4] = {-1, -1, -1, -1};
    for (int c = 0; c < 4; ++c) {
      if (!child_ids[c].empty()) {
        S2_ASSIGN_OR_RETURN(children[c], BuildNode(std::move(child_ids[c])));
      }
    }

    Node& node = (*nodes)[static_cast<size_t>(node_id)];
    node.leaf = false;
    node.vp1 = {vp1, std::move(c1)};
    node.vp2 = {vp2, std::move(c2)};
    node.has_vp2 = vp2 != vp1;
    node.mu1 = mu1;
    node.mu2_left = mu2_left;
    node.mu2_right = mu2_right;
    for (int c = 0; c < 4; ++c) node.children[c] = children[c];
    return node_id;
  }
};

Result<MvpTreeIndex> MvpTreeIndex::Build(const std::vector<std::vector<double>>& rows,
                                         const Options& options) {
  if (rows.empty()) return Status::InvalidArgument("MvpTreeIndex: empty input");
  const size_t length = rows.front().size();
  if (length == 0) return Status::InvalidArgument("MvpTreeIndex: empty sequences");
  for (const auto& row : rows) {
    if (row.size() != length) {
      return Status::InvalidArgument("MvpTreeIndex: ragged input rows");
    }
  }
  if (options.leaf_size == 0) {
    return Status::InvalidArgument("MvpTreeIndex: leaf_size must be > 0");
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

  return MvpTreeIndex(options, std::move(nodes), root, rows.size(),
                      static_cast<uint32_t>(length));
}

void MvpTreeIndex::SearchNode(int32_t node_id, const repr::QuerySpectrum& query,
                              std::vector<Candidate>* candidates,
                              BestList* upper_bounds, SearchStats* stats) const {
  if (node_id < 0) return;
  const Node& node = nodes_[static_cast<size_t>(node_id)];
  ++stats->nodes_visited;

  if (node.leaf) {
    for (const Entry& entry : node.bucket) {
      auto bounds = repr::ComputeBounds(query, entry.repr, options_.method);
      if (!bounds.ok()) continue;
      ++stats->bound_computations;
      candidates->push_back({entry.id, bounds->lower, bounds->upper});
      upper_bounds->Offer(entry.id, bounds->upper);
    }
    return;
  }

  auto b1 = repr::ComputeBounds(query, node.vp1.repr, options_.method);
  if (!b1.ok()) return;
  ++stats->bound_computations;
  candidates->push_back({node.vp1.id, b1->lower, b1->upper});
  upper_bounds->Offer(node.vp1.id, b1->upper);

  double lb2 = 0.0;
  double ub2 = std::numeric_limits<double>::infinity();
  if (node.has_vp2) {
    auto b2 = repr::ComputeBounds(query, node.vp2.repr, options_.method);
    if (b2.ok()) {
      ++stats->bound_computations;
      candidates->push_back({node.vp2.id, b2->lower, b2->upper});
      upper_bounds->Offer(node.vp2.id, b2->upper);
      lb2 = b2->lower;
      ub2 = b2->upper;
    }
  }

  // Minimum feasible distance for each child region, from the triangle
  // inequality through both vantage points:
  //   x in the vp1-near half  => D(Q,x) >= LB1 - mu1
  //   x in the vp1-far half   => D(Q,x) >= mu1 - UB1
  // and analogously for vp2 with the half's own median.
  auto min_feasible = [&](int child) {
    const bool near1 = child < 2;
    const bool near2 = (child & 1) == 0;
    const double mu2 = child < 2 ? node.mu2_left : node.mu2_right;
    double floor1 = near1 ? b1->lower - node.mu1 : node.mu1 - b1->upper;
    double floor2 = node.has_vp2 ? (near2 ? lb2 - mu2 : mu2 - ub2)
                                 : -std::numeric_limits<double>::infinity();
    return std::max({floor1, floor2, 0.0});
  };

  int order[4] = {0, 1, 2, 3};
  if (options_.guided_traversal) {
    std::sort(order, order + 4,
              [&](int a, int b) { return min_feasible(a) < min_feasible(b); });
  }
  for (int c : order) {
    if (node.children[c] < 0) continue;
    if (min_feasible(c) > upper_bounds->Threshold()) continue;
    SearchNode(node.children[c], query, candidates, upper_bounds, stats);
  }
}

Result<std::vector<MvpTreeIndex::Candidate>> MvpTreeIndex::CollectCandidates(
    const std::vector<double>& query, size_t k, SearchStats* stats) const {
  if (query.size() != series_length_) {
    return Status::InvalidArgument("MvpTreeIndex: query length mismatch");
  }
  if (k == 0) return Status::InvalidArgument("MvpTreeIndex: k must be > 0");
  SearchStats local_stats;
  if (stats == nullptr) stats = &local_stats;

  S2_ASSIGN_OR_RETURN(repr::HalfSpectrum spectrum,
                      repr::HalfSpectrum::FromSeriesInBasis(query, options_.basis));
  std::vector<Candidate> candidates;
  BestList upper_bounds(k);
  // |Q_k| once per search, not once per bounded object.
  const repr::QuerySpectrum prepared(spectrum);
  SearchNode(root_, prepared, &candidates, &upper_bounds, stats);

  const double sub = upper_bounds.Threshold();
  std::erase_if(candidates, [sub](const Candidate& c) { return c.lower > sub; });
  std::sort(candidates.begin(), candidates.end(),
            [](const Candidate& a, const Candidate& b) { return a.lower < b.lower; });
  stats->candidates_surviving = candidates.size();
  return candidates;
}

Result<std::vector<Neighbor>> MvpTreeIndex::Search(const std::vector<double>& query,
                                                   size_t k,
                                                   storage::SequenceSource* source,
                                                   SearchStats* stats) const {
  SearchStats local_stats;
  if (stats == nullptr) stats = &local_stats;
  if (source == nullptr) {
    return Status::InvalidArgument("MvpTreeIndex: source must not be null");
  }
  S2_ASSIGN_OR_RETURN(std::vector<Candidate> candidates,
                      CollectCandidates(query, k, stats));

  BestList best(k);
  for (const Candidate& candidate : candidates) {
    if (best.Full() && candidate.lower > best.Threshold()) break;
    S2_ASSIGN_OR_RETURN(std::vector<double> row, source->Get(candidate.id));
    ++stats->full_retrievals;
    const double threshold = best.Threshold();
    const double abandon_sq = std::isinf(threshold)
                                  ? std::numeric_limits<double>::infinity()
                                  : threshold * threshold;
    const double dist_sq = dsp::SquaredEuclideanEarlyAbandon(
        query.data(), row.data(), query.size(), abandon_sq);
    // Squared-domain gate; abandoned partials exceed abandon_sq by
    // construction, so only complete distances reach the list.
    if (dist_sq <= abandon_sq) {
      best.Offer(candidate.id, std::sqrt(dist_sq));
    }
  }
  return std::move(best).Take();
}

Status MvpTreeIndex::Validate(storage::SequenceSource* source) const {
  diag::Validator v("MvpTreeIndex");
  const int32_t limit = static_cast<int32_t>(nodes_.size());
  v.Check(root_ >= -1 && root_ < limit)
      << "root " << root_ << " out of range (have " << limit << " nodes)";
  if (!v.ok()) return v.ToStatus();

  std::vector<uint8_t> visited(nodes_.size(), 0);
  std::unordered_set<ts::SeriesId> seen_ids;
  size_t objects = 0;
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
      for (int c = 0; c < 4; ++c) {
        v.Check(node.children[c] == -1) << "leaf node " << id << " has children";
      }
      for (const Entry& entry : node.bucket) {
        ++objects;
        v.Check(seen_ids.insert(entry.id).second)
            << "series " << entry.id << " indexed twice";
      }
    } else {
      v.Check(std::isfinite(node.mu1) && node.mu1 >= 0.0)
          << "internal node " << id << " has invalid vp1 radius " << node.mu1;
      v.Check(std::isfinite(node.mu2_left) && node.mu2_left >= 0.0 &&
              std::isfinite(node.mu2_right) && node.mu2_right >= 0.0)
          << "internal node " << id << " has invalid vp2 radii";
      v.Check(node.bucket.empty())
          << "internal node " << id << " carries a leaf bucket";
      ++objects;
      v.Check(seen_ids.insert(node.vp1.id).second)
          << "series " << node.vp1.id << " indexed twice";
      if (node.has_vp2) {
        ++objects;
        v.Check(seen_ids.insert(node.vp2.id).second)
            << "series " << node.vp2.id << " indexed twice";
      }
      for (int c = 0; c < 4; ++c) {
        if (node.children[c] != -1) stack.push_back(node.children[c]);
      }
    }
  }
  for (size_t i = 0; i < nodes_.size(); ++i) {
    v.Check(visited[i] != 0) << "node " << i << " unreachable from the root";
  }
  v.Check(objects == num_objects_)
      << "census finds " << objects << " objects, index claims " << num_objects_;

  // Two-vantage metric invariant with exact distances: child c holds the
  // population with d1 on the (c < 2 ? near : far) side of mu1 and d2 on the
  // (c even ? near : far) side of the matching mu2.
  if (source != nullptr && v.ok()) {
    constexpr double kSlack = 1e-9;
    for (int32_t id = 0; id < limit; ++id) {
      const Node& node = nodes_[static_cast<size_t>(id)];
      if (node.leaf) continue;
      S2_ASSIGN_OR_RETURN(std::vector<double> vp1_row, source->Get(node.vp1.id));
      std::vector<double> vp2_row;
      if (node.has_vp2) {
        S2_ASSIGN_OR_RETURN(vp2_row, source->Get(node.vp2.id));
      }
      for (int c = 0; c < 4; ++c) {
        if (node.children[c] == -1) continue;
        const bool near1 = c < 2;
        const bool near2 = (c % 2) == 0;
        const double mu2 = near1 ? node.mu2_left : node.mu2_right;
        std::vector<int32_t> sub{node.children[c]};
        while (!sub.empty()) {
          const int32_t cur = sub.back();
          sub.pop_back();
          const Node& n = nodes_[static_cast<size_t>(cur)];
          std::vector<ts::SeriesId> ids;
          if (n.leaf) {
            for (const Entry& entry : n.bucket) ids.push_back(entry.id);
          } else {
            ids.push_back(n.vp1.id);
            if (n.has_vp2) ids.push_back(n.vp2.id);
            for (int cc = 0; cc < 4; ++cc) {
              if (n.children[cc] != -1) sub.push_back(n.children[cc]);
            }
          }
          for (ts::SeriesId object : ids) {
            S2_ASSIGN_OR_RETURN(std::vector<double> row, source->Get(object));
            const double d1 = ExactDistance(vp1_row, row);
            v.Check(near1 ? d1 <= node.mu1 + kSlack : d1 >= node.mu1 - kSlack)
                << "series " << object << " in child " << c << " of node " << id
                << " violates the vp1 window (d1 " << d1 << ", mu1 "
                << node.mu1 << ")";
            if (node.has_vp2) {
              const double d2 = ExactDistance(vp2_row, row);
              v.Check(near2 ? d2 <= mu2 + kSlack : d2 >= mu2 - kSlack)
                  << "series " << object << " in child " << c << " of node "
                  << id << " violates the vp2 window (d2 " << d2 << ", mu2 "
                  << mu2 << ")";
            }
          }
          if (!v.ok()) return v.ToStatus();
        }
      }
    }
  }
  return v.ToStatus();
}

size_t MvpTreeIndex::CompressedBytes() const {
  size_t total = 0;
  for (const Node& node : nodes_) {
    if (node.leaf) {
      for (const Entry& entry : node.bucket) total += entry.repr.StorageBytes();
    } else {
      total += node.vp1.repr.StorageBytes();
      if (node.has_vp2) total += node.vp2.repr.StorageBytes();
      total += 3 * sizeof(double);
    }
  }
  return total;
}

}  // namespace s2::index
