#ifndef S2_APPROX_SUMMARY_H_
#define S2_APPROX_SUMMARY_H_

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

#include "common/result.h"
#include "index/knn.h"
#include "io/env.h"
#include "repr/row_matrix.h"
#include "timeseries/time_series.h"

namespace s2::approx {

/// # The approximate-first, exact-verify tier (DESIGN.md §13)
///
/// The Lernaean Hydra studies show that at scale, exact similarity search is
/// dominated by a two-phase design: a *summarization index* small enough to
/// scan in microseconds produces a candidate set, and an exact second pass
/// re-ranks only those candidates. This module is that first phase.
///
/// The summary is iSAX-flavored but built on the repr layer the engine
/// already maintains: every standardized series is projected onto the
/// `dims` highest-corpus-energy coordinates of its weighted half spectrum
/// (a coordinate = one (bin, re|im) component scaled by sqrt(multiplicity),
/// so by Parseval the projection-space Euclidean distance lower-bounds the
/// true time-domain distance). Each coordinate is then quantized against
/// per-dimension equi-depth breakpoints (the symbolic "word"); what the scan
/// stores per series is the word's cell envelope `[lo, hi]`, widened to
/// contain the actual value so post-freeze inserts and slid windows stay
/// sound. Envelopes live in two cache-aligned `repr::RowMatrix` planes and
/// are batch-scanned with the vectorized `lb_keogh_sq_abandon` kernel — the
/// per-series summary lower bound is exactly an LB_Keogh against the
/// query's projection.
///
/// Soundness chain (all in the squared domain):
///   lb_sq(q, s) = sum_d gap(q_d, [lo_d, hi_d])^2
///              <= sum_d (q_d - v_d)^2            (v_d in [lo_d, hi_d])
///              <= ||z_q - z_s||^2                 (orthonormal projection)
/// so pruning by `lb_sq` can never lose a true neighbor, and the worst
/// candidate lower bound certifies a per-query quality bound (see
/// `QualityBound`).

/// Tuning knobs for training a summary configuration.
struct SummaryOptions {
  /// Summary coordinates retained per series (clamped to the number of
  /// spectrum components available).
  size_t dims = 16;
  /// Quantization cells per dimension (equi-depth over the training
  /// corpus). More cells = tighter envelopes = better pruning.
  size_t cells = 64;
  /// Candidate-set size as a fraction of the population when the request
  /// sets no explicit knob (see ResolveCandidates).
  double default_candidate_fraction = 0.02;
  /// Floor on the resolved candidate count — tiny corpora just verify
  /// everything.
  size_t min_candidates = 64;
  /// The recall the default fraction is calibrated for; requests asking for
  /// more ramp the candidate count hyperbolically (see ResolveCandidates).
  double calibrated_recall = 0.9;
};

/// A frozen summary configuration: which spectrum coordinates to project
/// onto and where the quantization breakpoints sit. Trained once on a
/// corpus (`Train`), then shared verbatim by every shard — the sharded
/// engine trains on the full corpus *before* partitioning so projections
/// and candidate ranks are bit-identical across shard counts.
struct SummaryConfig {
  /// Projection width (number of retained coordinates).
  size_t dims = 0;
  /// Quantization cells per dimension.
  size_t cells = 0;
  /// Time-domain series length this config was trained for.
  uint32_t series_length = 0;
  /// Per-coordinate half-spectrum bin index (ascending energy rank).
  std::vector<uint32_t> bins;
  /// Per-coordinate component selector: 0 = real part, 1 = imaginary part.
  std::vector<uint8_t> parts;
  /// Per-coordinate weight sqrt(multiplicity(bin)) — makes projection-space
  /// distance a lower bound of the true distance (Parseval).
  std::vector<double> weights;
  /// Per-dimension breakpoints, `dims * (cells + 1)` ascending values:
  /// dimension d owns edges [d*(cells+1), (d+1)*(cells+1)).
  std::vector<double> edges;

  /// Trains a configuration on standardized rows: ranks coordinates by
  /// total corpus energy (ties broken by (bin, part) so the choice is a
  /// pure function of the corpus) and places equi-depth breakpoints at the
  /// per-dimension corpus quantiles.
  static Result<SummaryConfig> Train(
      const std::vector<std::vector<double>>& standardized,
      const SummaryOptions& options);

  /// Projects one standardized series onto the configured coordinates.
  /// `out` is resized to `dims`.
  Status Project(const std::vector<double>& z, std::vector<double>* out) const;

  /// How far, in the distance domain, a computed summary bound of a
  /// standardized row may exceed the row's true distance. A projection is a
  /// normalized FFT coefficient, within O(ε·log n·‖z‖) of exact with
  /// ‖z‖ <= √n, and a bound subtracts two of them, so near-duplicate rows
  /// can see their tight bound round above the distance. The slack,
  /// 4·n·√n·ε, covers that several times over at every length. Prune tests
  /// compare bounds against index::SquaredGate(radius + slack), so a row
  /// tied at the radius is never pruned.
  double BoundSlack() const;

  /// Structural self-check (shape agreement, ascending edges).
  Status Validate() const;

  /// Order-sensitive content fingerprint — equal configs (the cross-shard
  /// and rebuild-determinism contract) have equal fingerprints.
  uint64_t Fingerprint() const;
};

/// Per-scan instrumentation.
struct ScanStats {
  /// Summary rows whose lower bound was evaluated.
  size_t rows_scanned = 0;
  /// Summary rows abandoned mid-bound (partial already above the heap
  /// threshold).
  size_t summary_abandons = 0;
  /// Candidates handed to the exact verifier.
  size_t candidates = 0;
  /// Candidates whose exact distance was fully computed (not pruned by the
  /// shared radius, not early-abandoned).
  size_t verified = 0;
};

/// The per-query answer-quality report of the approximate tier.
///
/// `threshold_lb` is sqrt of the worst (largest) summary lower bound in the
/// final candidate set: every series *outside* the candidate set provably
/// sits at distance >= threshold_lb. Hence:
///   - if the verified k-th distance R < threshold_lb (or the candidate set
///     covered the whole population), the answer is exact: `guaranteed_exact`.
///   - otherwise the true k-th distance is somewhere in
///     [threshold_lb, R], so R/threshold_lb - 1 bounds the observed relative
///     error: `epsilon`.
struct QualityBound {
  /// The returned neighbors are provably the exact top-k (by distance).
  bool guaranteed_exact = false;
  /// Observed epsilon: the k-th returned distance is within (1 + epsilon)
  /// of the true k-th distance. 0 when exact; +infinity when the scan
  /// cannot bound it (e.g. fewer than k candidates).
  double epsilon = 0.0;
  /// Proven lower bound on the distance of any non-candidate.
  double threshold_lb = 0.0;
  /// Candidate-set size that was exactly verified.
  size_t candidates = 0;
  /// Population the candidates were drawn from (query excluded).
  size_t population = 0;
};

/// Per-request quality knobs, resolved to a candidate count by
/// `ResolveCandidates`. Both zero = the configured default fraction.
struct QueryParams {
  size_t k = 10;
  /// Requested recall in (0, 1]; drives the candidate-count ramp. 0 = unset.
  double recall_target = 0.0;
  /// Explicit candidate-set size; takes precedence over recall_target.
  /// >= population degenerates to exact search. 0 = unset.
  size_t max_candidates = 0;
};

/// Maps the request knobs to a candidate count over `population` series.
/// Explicit `max_candidates` wins; otherwise the configured default
/// fraction, ramped hyperbolically for recall targets above the calibration
/// point (halving the recall gap doubles the candidate budget).
size_t ResolveCandidates(const QueryParams& params, size_t population,
                         const SummaryOptions& options);

/// Computes the quality bound after verification. `worst_lb_sq` is the
/// largest summary lower bound (squared) in the verified candidate set;
/// `neighbors` is the merged, (distance, id)-sorted answer. Deterministic:
/// the sharded gather feeds it the same inputs as a single engine.
QualityBound BoundFromVerification(double worst_lb_sq, size_t num_candidates,
                                   size_t population,
                                   const std::vector<index::Neighbor>& neighbors,
                                   size_t k);

/// The summary index itself: one envelope row pair per series, slot == the
/// engine's dense series id. Mutations mirror the engine's write path —
/// `Append` for AddSeries, `Update` for a slid window — under the frozen
/// config, so a rebuild from the same corpus is bit-identical
/// (checkpoint-recovery determinism).
///
/// Thread compatibility matches the engine: `Candidates` is const and safe
/// for concurrent readers; Append/Update are writer calls serialized by the
/// owner.
class SummaryIndex {
 public:
  /// One scan result: the summary lower bound (squared) and the series.
  /// Ordered lexicographically by (lb_sq, id) everywhere — the candidate
  /// ranking is deterministic and shard-invariant.
  struct Candidate {
    double lb_sq = 0.0;
    ts::SeriesId id = ts::kInvalidSeriesId;
  };

  /// Builds envelopes for every row under `config` (row i = series id i).
  static Result<SummaryIndex> Build(
      SummaryConfig config,
      const std::vector<std::vector<double>>& standardized);

  SummaryIndex(SummaryIndex&&) noexcept = default;
  SummaryIndex& operator=(SummaryIndex&&) noexcept = default;

  /// Summarizes one new series as id `size()` (engine AddSeries).
  Status Append(const std::vector<double>& z);

  /// Re-summarizes `id` after its window slid (engine AppendPoint).
  Status Update(ts::SeriesId id, const std::vector<double>& z);

  /// The top-`c` candidates for `proj` (a `Project`ed query) by ascending
  /// (lb_sq, id), scanning ids ascending with the batched LB kernel and
  /// early abandon against the running c-th bound. `exclude` (the query
  /// itself) is skipped. Result is sorted ascending by (lb_sq, id).
  std::vector<Candidate> Candidates(const std::vector<double>& proj, size_t c,
                                    ts::SeriesId exclude,
                                    ScanStats* stats = nullptr) const;

  /// Squared summary lower bound of series `id` against `proj` (a
  /// `Project`ed query of `dims` values), abandoned past `limit_sq` with the
  /// `simd::LbKeoghSqAbandon` contract: the result is <= limit_sq only when
  /// it is the complete bound. The exact k-NN pass prunes with it.
  double LowerBoundSq(ts::SeriesId id, const double* proj, double limit_sq) const;

  size_t size() const { return size_; }
  const SummaryConfig& config() const { return config_; }

  /// Approximate resident bytes of the envelope planes (introspection).
  size_t SummaryBytes() const;

  /// Serializes config + envelopes as one committed generation (same
  /// durable idiom as VpTreeIndex::Save).
  Status Save(const std::string& path, io::Env* env = nullptr) const;

  /// Loads an index written by `Save`; any corruption yields a Status
  /// (callers rebuild from the corpus), never UB.
  static Result<SummaryIndex> Load(const std::string& path,
                                   io::Env* env = nullptr);

  /// Structural self-check: config validity, plane shape agreement,
  /// lo <= hi everywhere, finite envelopes.
  Status Validate() const;

 private:
  SummaryIndex(SummaryConfig config, repr::RowMatrix lower,
               repr::RowMatrix upper, size_t size)
      : config_(std::move(config)),
        lower_(std::move(lower)),
        upper_(std::move(upper)),
        size_(size) {}

  /// Writes the envelope for projection `proj` into slot `slot`.
  void WriteEnvelope(size_t slot, const std::vector<double>& proj);

  /// Grows the envelope planes to hold at least `needed` rows.
  void Reserve(size_t needed);

  SummaryConfig config_;
  /// Envelope planes, row i = series i: per-dimension cell [lo, hi]
  /// widened to contain the series' actual projection value. Capacity may
  /// exceed size_ (amortized growth); rows >= size_ are unused.
  repr::RowMatrix lower_;
  repr::RowMatrix upper_;
  size_t size_ = 0;
};

}  // namespace s2::approx

#endif  // S2_APPROX_SUMMARY_H_
