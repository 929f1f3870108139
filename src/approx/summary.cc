#include "approx/summary.h"

#include <algorithm>
#include <cmath>
#include <cstring>
#include <limits>
#include <queue>
#include <utility>

#include "diag/validate.h"
#include "io/durable.h"
#include "io/serial.h"
#include "repr/half_spectrum.h"
#include "simd/simd.h"

namespace s2::approx {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

// Hard shape ceilings shared by Train and the Load decoder: large enough
// for any sane configuration, small enough that corrupt headers cannot
// trigger pathological allocations or size-arithmetic overflow.
constexpr size_t kMaxDims = 4096;
constexpr size_t kMaxCells = 65536;

constexpr char kSummaryMagic[8] = {'S', '2', 'A', 'P', 'S', 'X', '0', '1'};

template <typename T>
bool PutScalar(io::File* f, T value) {
  return io::WriteScalar(f, value).ok();
}

template <typename T>
bool GetScalar(io::File* f, T* value) {
  return io::ReadScalar(f, value).ok();
}

uint64_t Fnv1a(uint64_t hash, const void* data, size_t n) {
  const auto* bytes = static_cast<const unsigned char*>(data);
  for (size_t i = 0; i < n; ++i) {
    hash ^= bytes[i];
    hash *= 0x100000001b3ull;
  }
  return hash;
}

}  // namespace

Result<SummaryConfig> SummaryConfig::Train(
    const std::vector<std::vector<double>>& standardized,
    const SummaryOptions& options) {
  if (standardized.empty()) {
    return Status::InvalidArgument("SummaryConfig::Train: empty corpus");
  }
  const size_t n = standardized.front().size();
  if (n == 0) {
    return Status::InvalidArgument("SummaryConfig::Train: empty series");
  }
  for (const auto& row : standardized) {
    if (row.size() != n) {
      return Status::InvalidArgument(
          "SummaryConfig::Train: ragged corpus (series lengths differ)");
    }
  }

  // One spectrum per series; kept so the winning coordinates' values can be
  // re-read for breakpoint placement without a second FFT pass.
  std::vector<repr::HalfSpectrum> spectra;
  spectra.reserve(standardized.size());
  for (const auto& row : standardized) {
    S2_ASSIGN_OR_RETURN(repr::HalfSpectrum spectrum,
                        repr::HalfSpectrum::FromSeries(row));
    spectra.push_back(std::move(spectrum));
  }

  // Rank coordinates — a coordinate is one (bin, re|im) component — by
  // total corpus energy, multiplicity-weighted so the ranking matches the
  // coordinates' contribution to true Euclidean distance. Ties break by
  // (bin, part): the selection is a pure function of the corpus.
  const size_t num_bins = spectra.front().num_bins();
  struct Coord {
    double energy;
    uint32_t bin;
    uint8_t part;
  };
  std::vector<Coord> coords;
  coords.reserve(2 * num_bins);
  for (size_t k = 0; k < num_bins; ++k) {
    const double mult = spectra.front().multiplicity(k);
    double energy_re = 0.0;
    double energy_im = 0.0;
    for (const auto& spectrum : spectra) {
      const auto& c = spectrum.coeff(k);
      energy_re += mult * c.real() * c.real();
      energy_im += mult * c.imag() * c.imag();
    }
    coords.push_back({energy_re, static_cast<uint32_t>(k), 0});
    coords.push_back({energy_im, static_cast<uint32_t>(k), 1});
  }
  std::sort(coords.begin(), coords.end(), [](const Coord& a, const Coord& b) {
    if (a.energy != b.energy) return a.energy > b.energy;
    if (a.bin != b.bin) return a.bin < b.bin;
    return a.part < b.part;
  });

  SummaryConfig config;
  config.dims = std::min({options.dims, coords.size(), kMaxDims});
  if (config.dims == 0) {
    return Status::InvalidArgument("SummaryConfig::Train: dims == 0");
  }
  config.cells = std::min(std::max<size_t>(options.cells, 2), kMaxCells);
  config.series_length = static_cast<uint32_t>(n);
  config.bins.reserve(config.dims);
  config.parts.reserve(config.dims);
  config.weights.reserve(config.dims);
  for (size_t d = 0; d < config.dims; ++d) {
    config.bins.push_back(coords[d].bin);
    config.parts.push_back(coords[d].part);
    config.weights.push_back(
        std::sqrt(spectra.front().multiplicity(coords[d].bin)));
  }

  // Equi-depth breakpoints: per dimension, the corpus quantiles of the
  // weighted coordinate values. Duplicate values may collapse cells — the
  // envelope math only needs non-decreasing edges.
  config.edges.resize(config.dims * (config.cells + 1));
  std::vector<double> values(spectra.size());
  for (size_t d = 0; d < config.dims; ++d) {
    for (size_t i = 0; i < spectra.size(); ++i) {
      const auto& c = spectra[i].coeff(config.bins[d]);
      values[i] = config.weights[d] * (config.parts[d] == 0 ? c.real() : c.imag());
    }
    std::sort(values.begin(), values.end());
    double* edges = config.edges.data() + d * (config.cells + 1);
    for (size_t j = 0; j <= config.cells; ++j) {
      edges[j] = values[(j * (values.size() - 1)) / config.cells];
    }
  }
  S2_RETURN_NOT_OK(config.Validate());
  return config;
}

Status SummaryConfig::Project(const std::vector<double>& z,
                              std::vector<double>* out) const {
  if (z.size() != series_length) {
    return Status::InvalidArgument(
        "SummaryConfig::Project: series length mismatch");
  }
  S2_ASSIGN_OR_RETURN(repr::HalfSpectrum spectrum,
                      repr::HalfSpectrum::FromSeries(z));
  out->resize(dims);
  for (size_t d = 0; d < dims; ++d) {
    const auto& c = spectrum.coeff(bins[d]);
    (*out)[d] = weights[d] * (parts[d] == 0 ? c.real() : c.imag());
  }
  return Status::OK();
}

double SummaryConfig::BoundSlack() const {
  const double n = series_length;
  return 4.0 * n * std::sqrt(n) * std::numeric_limits<double>::epsilon();
}

Status SummaryConfig::Validate() const {
  diag::Validator v("SummaryConfig");
  v.Check(dims > 0 && dims <= kMaxDims) << "dims " << dims << " out of range";
  v.Check(cells >= 2 && cells <= kMaxCells)
      << "cells " << cells << " out of range";
  v.Check(series_length > 0) << "series_length == 0";
  v.Check(bins.size() == dims) << "bins size " << bins.size();
  v.Check(parts.size() == dims) << "parts size " << parts.size();
  v.Check(weights.size() == dims) << "weights size " << weights.size();
  v.Check(edges.size() == dims * (cells + 1))
      << "edges size " << edges.size() << " != dims*(cells+1)";
  if (!v.ok()) return v.ToStatus();
  const size_t num_bins = series_length / 2 + 1;
  for (size_t d = 0; d < dims; ++d) {
    v.Check(bins[d] < num_bins)
        << "dim " << d << " bin " << bins[d] << " out of spectrum";
    v.Check(parts[d] <= 1) << "dim " << d << " part " << int{parts[d]};
    v.Check(std::isfinite(weights[d]) && weights[d] > 0.0)
        << "dim " << d << " weight " << weights[d];
    const double* e = edges.data() + d * (cells + 1);
    for (size_t j = 0; j <= cells; ++j) {
      v.Check(std::isfinite(e[j]))
          << "dim " << d << " edge " << j << " not finite";
      if (j > 0) {
        v.Check(e[j - 1] <= e[j]) << "dim " << d << " edges decrease at " << j;
      }
    }
  }
  return v.ToStatus();
}

uint64_t SummaryConfig::Fingerprint() const {
  uint64_t hash = 0xcbf29ce484222325ull;
  const uint64_t dims64 = dims;
  const uint64_t cells64 = cells;
  hash = Fnv1a(hash, &dims64, sizeof(dims64));
  hash = Fnv1a(hash, &cells64, sizeof(cells64));
  hash = Fnv1a(hash, &series_length, sizeof(series_length));
  hash = Fnv1a(hash, bins.data(), bins.size() * sizeof(uint32_t));
  hash = Fnv1a(hash, parts.data(), parts.size() * sizeof(uint8_t));
  hash = Fnv1a(hash, weights.data(), weights.size() * sizeof(double));
  hash = Fnv1a(hash, edges.data(), edges.size() * sizeof(double));
  return hash;
}

size_t ResolveCandidates(const QueryParams& params, size_t population,
                         const SummaryOptions& options) {
  if (population == 0) return 0;
  if (params.max_candidates > 0) {
    return std::min(params.max_candidates, population);
  }
  double fraction = options.default_candidate_fraction;
  const double r0 = std::min(std::max(options.calibrated_recall, 0.0), 0.999);
  const double r = std::min(std::max(params.recall_target, 0.0), 1.0);
  if (r > r0) {
    // Hyperbolic ramp: halving the remaining recall gap doubles the budget;
    // r == 1 saturates to the whole population.
    const double gap = 1.0 - r;
    if (gap <= 1e-9) return population;
    fraction *= (1.0 - r0) / gap;
  }
  const double want = std::ceil(fraction * static_cast<double>(population));
  size_t c = want >= static_cast<double>(population)
                 ? population
                 : static_cast<size_t>(want);
  c = std::max(c, options.min_candidates);
  return std::min(c, population);
}

QualityBound BoundFromVerification(
    double worst_lb_sq, size_t num_candidates, size_t population,
    const std::vector<index::Neighbor>& neighbors, size_t k) {
  QualityBound bound;
  bound.candidates = num_candidates;
  bound.population = population;
  bound.threshold_lb = std::sqrt(std::max(worst_lb_sq, 0.0));
  if (num_candidates >= population) {
    // Full coverage: the verifier saw every series — exact by construction.
    bound.guaranteed_exact = true;
    return bound;
  }
  if (neighbors.size() < k) {
    // Too few candidates to even fill the answer; nothing can be bounded.
    bound.epsilon = kInf;
    return bound;
  }
  const double r = neighbors.back().distance;
  if (r * r < worst_lb_sq) {
    // Every non-candidate provably sits beyond the k-th returned distance.
    bound.guaranteed_exact = true;
    return bound;
  }
  bound.epsilon =
      bound.threshold_lb > 0.0 ? r / bound.threshold_lb - 1.0 : kInf;
  return bound;
}

Result<SummaryIndex> SummaryIndex::Build(
    SummaryConfig config, const std::vector<std::vector<double>>& standardized) {
  S2_RETURN_NOT_OK(config.Validate());
  const size_t n = standardized.size();
  const size_t dims = config.dims;
  SummaryIndex index(std::move(config), repr::RowMatrix(n, dims),
                     repr::RowMatrix(n, dims), 0);
  std::vector<double> proj;
  for (const auto& row : standardized) {
    S2_RETURN_NOT_OK(index.config_.Project(row, &proj));
    index.WriteEnvelope(index.size_, proj);
    ++index.size_;
  }
  return index;
}

Status SummaryIndex::Append(const std::vector<double>& z) {
  std::vector<double> proj;
  S2_RETURN_NOT_OK(config_.Project(z, &proj));
  Reserve(size_ + 1);
  WriteEnvelope(size_, proj);
  ++size_;
  return Status::OK();
}

Status SummaryIndex::Update(ts::SeriesId id, const std::vector<double>& z) {
  if (id >= size_) {
    return Status::InvalidArgument("SummaryIndex::Update: id out of range");
  }
  std::vector<double> proj;
  S2_RETURN_NOT_OK(config_.Project(z, &proj));
  WriteEnvelope(id, proj);
  return Status::OK();
}

void SummaryIndex::WriteEnvelope(size_t slot, const std::vector<double>& proj) {
  double* lo = lower_.mutable_row(slot);
  double* hi = upper_.mutable_row(slot);
  for (size_t d = 0; d < config_.dims; ++d) {
    const double v = proj[d];
    const double* edges = config_.edges.data() + d * (config_.cells + 1);
    // Cell containing v under the frozen breakpoints; out-of-range values
    // clamp to the edge cells and the min/max below widens the envelope to
    // contain them, so post-freeze inserts stay sound.
    size_t cell = static_cast<size_t>(
        std::upper_bound(edges, edges + config_.cells + 1, v) - edges);
    cell = cell > 0 ? cell - 1 : 0;
    if (cell >= config_.cells) cell = config_.cells - 1;
    lo[d] = std::min(edges[cell], v);
    hi[d] = std::max(edges[cell + 1], v);
  }
}

void SummaryIndex::Reserve(size_t needed) {
  if (needed <= lower_.num_rows()) return;
  size_t capacity = std::max<size_t>(lower_.num_rows() * 2, 16);
  capacity = std::max(capacity, needed);
  repr::RowMatrix lower(capacity, config_.dims);
  repr::RowMatrix upper(capacity, config_.dims);
  for (size_t i = 0; i < size_; ++i) {
    std::memcpy(lower.mutable_row(i), lower_.row(i),
                config_.dims * sizeof(double));
    std::memcpy(upper.mutable_row(i), upper_.row(i),
                config_.dims * sizeof(double));
  }
  lower_ = std::move(lower);
  upper_ = std::move(upper);
}

std::vector<SummaryIndex::Candidate> SummaryIndex::Candidates(
    const std::vector<double>& proj, size_t c, ts::SeriesId exclude,
    ScanStats* stats) const {
  std::vector<Candidate> result;
  if (c == 0 || size_ == 0 || proj.size() != config_.dims) return result;

  // Worst-on-top heap ordered lexicographically by (lb_sq, id): the top is
  // the current c-th best, its lb_sq the scan's abandon limit. Ascending-id
  // iteration plus the lexicographic order makes the final set — and
  // therefore the quality threshold — a pure function of the corpus,
  // independent of shard layout.
  auto better = [](const Candidate& a, const Candidate& b) {
    if (a.lb_sq != b.lb_sq) return a.lb_sq < b.lb_sq;
    return a.id < b.id;
  };
  std::priority_queue<Candidate, std::vector<Candidate>, decltype(better)>
      heap(better);

  const size_t dims = config_.dims;
  for (size_t i = 0; i < size_; ++i) {
    if (i == exclude) continue;
    if (i + 1 < size_) {
      simd::PrefetchRead(lower_.row(i + 1));
      simd::PrefetchRead(upper_.row(i + 1));
    }
    const double limit_sq = heap.size() == c ? heap.top().lb_sq : kInf;
    const double lb_sq = simd::LbKeoghSqAbandon(lower_.row(i), upper_.row(i),
                                                proj.data(), dims, limit_sq);
    if (stats != nullptr) ++stats->rows_scanned;
    if (lb_sq > limit_sq) {
      // Abandoned partial (or a complete bound strictly beyond the c-th):
      // cannot enter the set even on an id tie.
      if (stats != nullptr) ++stats->summary_abandons;
      continue;
    }
    const Candidate candidate{lb_sq, static_cast<ts::SeriesId>(i)};
    if (heap.size() < c) {
      heap.push(candidate);
    } else if (better(candidate, heap.top())) {
      heap.pop();
      heap.push(candidate);
    }
  }

  result.reserve(heap.size());
  while (!heap.empty()) {
    result.push_back(heap.top());
    heap.pop();
  }
  std::reverse(result.begin(), result.end());
  if (stats != nullptr) stats->candidates += result.size();
  return result;
}

double SummaryIndex::LowerBoundSq(ts::SeriesId id, const double* proj,
                                  double limit_sq) const {
  return simd::LbKeoghSqAbandon(lower_.row(id), upper_.row(id), proj,
                                config_.dims, limit_sq);
}

size_t SummaryIndex::SummaryBytes() const {
  return 2 * size_ * config_.dims * sizeof(double);
}

Status SummaryIndex::Save(const std::string& path, io::Env* env) const {
  if (env == nullptr) env = io::Env::Default();
  io::BufferFile buffer;
  io::File* f = &buffer;

  bool ok = io::WriteExact(f, kSummaryMagic, sizeof(kSummaryMagic)).ok() &&
            PutScalar<uint64_t>(f, config_.dims) &&
            PutScalar<uint64_t>(f, config_.cells) &&
            PutScalar<uint32_t>(f, config_.series_length) &&
            PutScalar<uint64_t>(f, size_);
  if (!ok) return Status::IoError("SummaryIndex::Save: short write");
  for (size_t d = 0; d < config_.dims; ++d) {
    ok = PutScalar<uint32_t>(f, config_.bins[d]) &&
         PutScalar<uint8_t>(f, config_.parts[d]) &&
         PutScalar(f, config_.weights[d]);
    if (!ok) return Status::IoError("SummaryIndex::Save: short write");
  }
  for (double edge : config_.edges) {
    if (!PutScalar(f, edge)) {
      return Status::IoError("SummaryIndex::Save: short write");
    }
  }
  for (size_t i = 0; i < size_; ++i) {
    ok = io::WriteExact(f, lower_.row(i), config_.dims * sizeof(double)).ok() &&
         io::WriteExact(f, upper_.row(i), config_.dims * sizeof(double)).ok();
    if (!ok) return Status::IoError("SummaryIndex::Save: short write");
  }
  return io::durable::CommitNext(env, path, std::move(buffer).TakeBytes());
}

Result<SummaryIndex> SummaryIndex::Load(const std::string& path, io::Env* env) {
  if (env == nullptr) env = io::Env::Default();
  std::vector<char> bytes;
  S2_RETURN_NOT_OK(io::durable::LoadLatest(env, path, &bytes));
  io::BufferFile buffer(std::move(bytes));
  io::File* f = &buffer;
  const uint64_t file_size = buffer.bytes().size();

  char magic[sizeof(kSummaryMagic)];
  uint64_t dims = 0;
  uint64_t cells = 0;
  uint32_t series_length = 0;
  uint64_t size = 0;
  const bool ok = io::ReadExact(f, magic, sizeof(magic)).ok() &&
                  std::memcmp(magic, kSummaryMagic, sizeof(kSummaryMagic)) == 0 &&
                  GetScalar(f, &dims) && GetScalar(f, &cells) &&
                  GetScalar(f, &series_length) && GetScalar(f, &size);
  if (!ok || dims == 0 || dims > kMaxDims || cells < 2 || cells > kMaxCells ||
      series_length == 0) {
    return Status::Corruption("SummaryIndex::Load: bad header in " + path);
  }
  // Bound every declared count by the bytes actually present before any
  // allocation: a corrupt header must fail cleanly, never reserve wildly.
  constexpr uint64_t kHeaderBytes =
      sizeof(kSummaryMagic) + 2 * sizeof(uint64_t) + sizeof(uint32_t) +
      sizeof(uint64_t);
  const uint64_t coord_bytes =
      dims * (sizeof(uint32_t) + sizeof(uint8_t) + sizeof(double));
  const uint64_t edge_bytes = dims * (cells + 1) * sizeof(double);
  const uint64_t row_bytes = 2 * dims * sizeof(double);
  if (file_size < kHeaderBytes + coord_bytes + edge_bytes ||
      size > (file_size - kHeaderBytes - coord_bytes - edge_bytes) / row_bytes) {
    return Status::Corruption("SummaryIndex::Load: declared sizes exceed " +
                              std::to_string(file_size) + " bytes in " + path);
  }

  SummaryConfig config;
  config.dims = static_cast<size_t>(dims);
  config.cells = static_cast<size_t>(cells);
  config.series_length = series_length;
  config.bins.resize(config.dims);
  config.parts.resize(config.dims);
  config.weights.resize(config.dims);
  for (size_t d = 0; d < config.dims; ++d) {
    if (!GetScalar(f, &config.bins[d]) || !GetScalar(f, &config.parts[d]) ||
        !GetScalar(f, &config.weights[d])) {
      return Status::Corruption("SummaryIndex::Load: truncated coordinates");
    }
  }
  config.edges.resize(config.dims * (config.cells + 1));
  for (double& edge : config.edges) {
    if (!GetScalar(f, &edge)) {
      return Status::Corruption("SummaryIndex::Load: truncated edges");
    }
  }
  if (const Status valid = config.Validate(); !valid.ok()) {
    return Status::Corruption("SummaryIndex::Load: " + valid.ToString());
  }

  repr::RowMatrix lower(static_cast<size_t>(size), config.dims);
  repr::RowMatrix upper(static_cast<size_t>(size), config.dims);
  for (size_t i = 0; i < size; ++i) {
    if (!io::ReadExact(f, lower.mutable_row(i), config.dims * sizeof(double))
             .ok() ||
        !io::ReadExact(f, upper.mutable_row(i), config.dims * sizeof(double))
             .ok()) {
      return Status::Corruption("SummaryIndex::Load: truncated envelopes");
    }
  }
  SummaryIndex index(std::move(config), std::move(lower), std::move(upper),
                     static_cast<size_t>(size));
  if (const Status valid = index.Validate(); !valid.ok()) {
    return Status::Corruption("SummaryIndex::Load: " + valid.ToString());
  }
  return index;
}

Status SummaryIndex::Validate() const {
  S2_RETURN_NOT_OK(config_.Validate());
  diag::Validator v("SummaryIndex");
  v.Check(lower_.num_rows() == upper_.num_rows())
      << "plane row counts differ: " << lower_.num_rows() << " vs "
      << upper_.num_rows();
  v.Check(size_ <= lower_.num_rows())
      << "size " << size_ << " exceeds capacity " << lower_.num_rows();
  v.Check(lower_.row_length() == config_.dims &&
          upper_.row_length() == config_.dims)
      << "plane width != dims";
  if (!v.ok()) return v.ToStatus();
  for (size_t i = 0; i < size_; ++i) {
    const double* lo = lower_.row(i);
    const double* hi = upper_.row(i);
    for (size_t d = 0; d < config_.dims; ++d) {
      v.Check(std::isfinite(lo[d]) && std::isfinite(hi[d]))
          << "row " << i << " dim " << d << " envelope not finite";
      v.Check(lo[d] <= hi[d])
          << "row " << i << " dim " << d << " inverted envelope";
    }
    if (!v.ok()) return v.ToStatus();
  }
  return v.ToStatus();
}

}  // namespace s2::approx
