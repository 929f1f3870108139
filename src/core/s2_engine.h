#ifndef S2_CORE_S2_ENGINE_H_
#define S2_CORE_S2_ENGINE_H_

#include <memory>
#include <string>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "approx/summary.h"
#include "burst/burst_detector.h"
#include "burst/burst_table.h"
#include "common/result.h"
#include "dtw/dtw_search.h"
#include "index/knn.h"
#include "index/vp_tree.h"
#include "monitor/alert_queue.h"
#include "monitor/registry.h"
#include "period/period_detector.h"
#include "resilience/retrying_source.h"
#include "storage/sequence_store.h"
#include "timeseries/time_series.h"

namespace s2::core {

/// Which burst-detection horizon to use (Section 6.1: the paper's database
/// keeps both a 30-day and a 7-day moving-average pass).
enum class BurstHorizon { kLongTerm, kShortTerm };

/// The S2 engine: the library façade corresponding to the paper's S2
/// Similarity Tool (Section 7.5). It ingests a corpus of query-demand
/// series and provides the three headline capabilities:
///
///   * similarity search bounded by compressed spectral features,
///   * automatic discovery of significant periods,
///   * burst detection and query-by-burst over a relational burst store.
///
/// All sequences are standardized at ingest; similarity is Euclidean
/// distance between standardized sequences. Exact k-NN is one pass over the
/// rows in id order: the approximate tier's summary (`approx::SummaryIndex`,
/// the best-energy DFT coordinates with quantized envelopes) lower-bounds
/// each row's distance, and only rows the bound cannot prune have their
/// exact distance computed — the bounds only prune, never approximate. The
/// paper's VP-tree (`index::VpTreeIndex`) measured slower than this scan on
/// RAM-resident shards, so it serves only the figure benches (DESIGN.md,
/// deviation 5).
///
/// ## Reentrancy contract (audited for the `s2::service` layer)
///
/// All `const` member functions — `SimilarTo`, `SimilarToSeries`,
/// `SimilarToDtw`, `FindPeriods`, `BurstsOf`, `QueryByBurst`,
/// `QueryByBurstSeries`, `FindByName` and the accessors — are safe to call
/// concurrently from any number of threads, provided no thread is
/// concurrently calling `AddSeries` (or moving the engine). They keep all
/// search scratch state (best-lists, candidate buffers, DP tables) on the
/// stack; the only shared state they touch is instrumentation:
///
///   * `SequenceSource` read counters (atomic),
///   * `BurstTable::last_scanned()` (atomic; reports "some recent query"),
///   * `DiskSequenceStore` record fetches (positioned `pread`, no shared
///     file-position cursor).
///
/// `AddSeries` is a *writer*: it mutates the summary, both burst tables,
/// the catalog and the standardized rows, and must be externally serialized
/// against all readers (e.g. `service::S2Server` holds a shared_mutex in
/// write mode around it). Per-call `SearchStats` out-params are owned by the
/// caller and need no synchronization.
class S2Engine {
 public:
  struct Options {
    period::PeriodDetector::Options period;
    /// Sakoe-Chiba half-width for SimilarToDtw (Section 8 extension).
    size_t dtw_window = 16;
    burst::BurstDetector::Options long_burst{30, 1.5, true};
    burst::BurstDetector::Options short_burst{7, 1.5, true};
    /// When non-empty, the standardized sequences are spilled to this file
    /// and the exact distances of rows the summary cannot prune are read
    /// from disk (the paper's external-memory configuration); otherwise
    /// everything stays in RAM.
    std::string disk_store_path;
    /// Filesystem the disk store lives in; null means the POSIX
    /// environment. Tests substitute `io::MemEnv` / `io::FaultInjectingEnv`.
    io::Env* env = nullptr;
    /// Retry policy for transient faults on the disk verification path
    /// (disk-resident engines only; see resilience::RetryingSequenceSource).
    resilience::RetryPolicy retry;
    /// The summary (src/approx, DESIGN.md §13): built at Build time (a few
    /// hundred bytes per series), kept current through AddSeries and
    /// AppendPoint, and read by both the exact and the approximate verbs.
    struct ApproxOptions {
      /// Training knobs + candidate-budget defaults.
      approx::SummaryOptions summary;
      /// A pre-trained configuration to adopt instead of training on this
      /// engine's own corpus. The sharded engine trains ONE config on the
      /// full corpus *before* partitioning and installs it here on every
      /// shard, so projections and candidate ranks are bit-identical across
      /// shard counts. Shared and immutable once installed.
      std::shared_ptr<const approx::SummaryConfig> preset_config;
    };
    ApproxOptions approx;
    /// Kernel dispatch override applied at Build: "" leaves the process
    /// default (CPUID + the S2_SIMD environment variable), "off"/"scalar"
    /// force the scalar backend, "sse2"/"avx2"/"neon" pin that backend
    /// (Unavailable if absent). Dispatch is process-global — every backend
    /// is bit-compatible, so flipping it never changes results, only
    /// throughput (see src/simd/simd.h).
    std::string simd;
  };

  /// Ingests `corpus` and builds every derived structure. All series must
  /// share one length.
  static Result<S2Engine> Build(ts::Corpus corpus, const Options& options);

  S2Engine(S2Engine&&) noexcept = default;
  S2Engine& operator=(S2Engine&&) noexcept = default;

  // --- Catalog -------------------------------------------------------------

  /// Resolves a query string to its series id.
  Result<ts::SeriesId> FindByName(std::string_view name) const;

  /// Incrementally ingests one more series: standardizes it, summarizes
  /// it, detects its bursts into both burst stores and registers its name.
  /// Only supported for RAM-resident engines (empty `disk_store_path`); the
  /// series must match the corpus length. Returns the new series id.
  Result<ts::SeriesId> AddSeries(ts::TimeSeries series);

  // --- Streaming ingestion ---------------------------------------------------

  /// Slides one series' window forward by a day: the oldest sample falls off
  /// the front, `value` enters the back, `start_day` advances — the corpus
  /// stays rectangular, so every query verb remains well-defined mid-stream.
  /// All of the series' derived state — stored row, summary envelope, burst
  /// rows of both horizons — is recomputed exactly, so a streamed engine
  /// stays bitwise identical to a batch rebuild over the same data.
  ///
  /// A writer, like `AddSeries`: serialize externally against all readers.
  /// A disk-resident engine writes the stored row first; if that write
  /// fails, the append returns the error with the window unchanged.
  Status AppendPoint(ts::SeriesId id, double value);

  /// A no-op. Exists only for s2bench and goes with the benchmark's next
  /// change.
  Status Compact() { return Status::OK(); }

  // --- Standing queries (s2::monitor) ---------------------------------------

  /// Registers a standing subscription evaluated by every `AppendPoint`
  /// that slides series `key` — the *engine-local* id; `sub.series` is the
  /// id fired alerts report (a sharding layer passes the global id there,
  /// single engines pass the same id twice). Hysteresis state arms
  /// *silently* against the current window — no alert at registration —
  /// which is what lets WAL replay re-arm a logged subscription into the
  /// exact pre-crash state. A writer: serialize like `AddSeries`.
  Status Subscribe(ts::SeriesId key, monitor::Subscription sub);

  /// Registers a subscription with its hysteresis state installed verbatim
  /// instead of armed from the current window — the checkpoint-recovery
  /// path (the snapshot recorded the state at the WAL anchor; re-arming
  /// against the rebuilt window would be wrong mid-transition). A writer.
  Status RestoreSubscription(ts::SeriesId key, monitor::Subscription sub,
                             bool engaged, uint32_t bin);

  /// Removes a standing subscription. A writer.
  Status Unsubscribe(monitor::SubscriptionId id);

  /// Attaches the delivery queue fired alerts are pushed into (not owned;
  /// must outlive the engine or be detached with nullptr). Unset, appends
  /// still advance subscription state but fired alerts are discarded —
  /// shards share their server's queue, standalone engines may run
  /// unmonitored.
  void set_alert_queue(monitor::AlertQueue* queue) { alert_queue_ = queue; }

  const monitor::SubscriptionRegistry& monitor_registry() const {
    return registry_;
  }

  /// Always 0. Exists only for s2bench and goes with the benchmark's next
  /// change.
  size_t delta_size() const { return 0; }
  /// Points appended over this engine's lifetime.
  uint64_t append_count() const { return appends_; }

  /// The ingested corpus.
  const ts::Corpus& corpus() const { return corpus_; }

  /// Standardized values of a series.
  const std::vector<double>& standardized(ts::SeriesId id) const {
    return standardized_[id];
  }

  // --- Similarity ----------------------------------------------------------

  // The exact verbs take `index::VpTreeIndex::SearchStats` only because
  // s2bench reads it; the type goes with the benchmark's next change. The
  // summary-bounded pass fills `bound_computations` (rows bounded),
  // `candidates_surviving` (rows the bound passed), `full_retrievals`
  // (distances started) and `shared_radius_prunes`; `nodes_visited` stays 0.

  /// k nearest neighbors of an indexed series (itself excluded).
  Result<std::vector<index::Neighbor>> SimilarTo(ts::SeriesId id, size_t k,
                                                 index::VpTreeIndex::SearchStats*
                                                     stats = nullptr) const;

  /// k nearest neighbors of an external (raw, unstandardized) sequence.
  Result<std::vector<index::Neighbor>> SimilarToSeries(
      const std::vector<double>& raw_values, size_t k,
      index::VpTreeIndex::SearchStats* stats = nullptr) const;

  /// Degraded-mode answer: exact k-NN by linear scan over the RAM-resident
  /// standardized rows. No summary, no sequence-store I/O — this path cannot
  /// fail on disk faults, which is exactly why the serving layer falls back
  /// to it when a disk engine's reads hit I/O trouble. O(N·len) per query,
  /// but the answer set is identical to `SimilarTo` (both are exact
  /// Euclidean k-NN).
  Result<std::vector<index::Neighbor>> SimilarToExact(ts::SeriesId id,
                                                      size_t k) const;

  /// Degraded-mode counterpart of `SimilarToSeries` (same linear scan).
  Result<std::vector<index::Neighbor>> SimilarToSeriesExact(
      const std::vector<double>& raw_values, size_t k) const;

  /// Degraded-mode counterpart of `SimilarToDtw`: exact windowed-DTW k-NN
  /// by early-abandoning linear scan over the RAM rows — same answers, no
  /// index, no disk.
  Result<std::vector<index::Neighbor>> SimilarToDtwExact(ts::SeriesId id,
                                                         size_t k) const;

  /// k nearest neighbors of an indexed series under *dynamic time warping*
  /// (Section 8 extension): exact windowed-DTW search seeded by the exact
  /// Euclidean k-th distance and filtered by LB_Keogh (dtw::DtwKnnSearch).
  /// RAM-resident engines read their standardized rows in place; disk
  /// engines fetch candidates through the sequence store. Itself excluded.
  Result<std::vector<index::Neighbor>> SimilarToDtw(
      ts::SeriesId id, size_t k,
      dtw::DtwKnnSearch::SearchStats* stats = nullptr) const;

  // --- Sharded-search entry points ------------------------------------------
  //
  // Used by shard::ShardedEngine, whose scatter phase runs one search per
  // shard over the *same* query row. The row arrives already standardized
  // (re-standardizing per shard would drift bitwise from the single-engine
  // answer), `exclude` names a *local* series id to drop from the results
  // (`ts::kInvalidSeriesId` for none — only the shard owning the query
  // series excludes), and `shared` threads the cross-shard pruning radius
  // through the search.

  /// The exact pass: rows in id order, `exclude` skipped, each row's summary
  /// bound tested against min(local k-th, shared radius) widened by the
  /// bound's rounding slack, and the exact distance of every row the bound
  /// passes, offered only when complete.
  /// Disk engines fetch those rows through the retrying store, so a read
  /// fault returns its error (the serving layer's degradation ladder).
  Result<std::vector<index::Neighbor>> SimilarToStandardized(
      const std::vector<double>& z, size_t k,
      ts::SeriesId exclude = ts::kInvalidSeriesId,
      index::VpTreeIndex::SearchStats* stats = nullptr,
      index::SharedRadius* shared = nullptr) const;

  Result<std::vector<index::Neighbor>> SimilarToDtwStandardized(
      const std::vector<double>& z, size_t k,
      ts::SeriesId exclude = ts::kInvalidSeriesId,
      dtw::DtwKnnSearch::SearchStats* stats = nullptr,
      index::SharedRadius* shared = nullptr) const;

  /// Degraded-path counterparts: exact linear scans over the RAM rows with
  /// an explicit local exclusion (no summary, no disk — cannot fail).
  Result<std::vector<index::Neighbor>> SimilarToStandardizedExact(
      const std::vector<double>& z, size_t k,
      ts::SeriesId exclude = ts::kInvalidSeriesId) const;
  Result<std::vector<index::Neighbor>> SimilarToDtwStandardizedExact(
      const std::vector<double>& z, size_t k,
      ts::SeriesId exclude = ts::kInvalidSeriesId) const;

  // --- Approximate search (s2::approx, DESIGN.md §13) ------------------------

  /// An approximate answer plus its per-query quality bound.
  struct ApproxAnswer {
    std::vector<index::Neighbor> neighbors;
    approx::QualityBound bound;
  };

  /// Approximate k-NN of an indexed series (itself excluded): summary scan
  /// -> candidate set -> exact verification with the early-abandon kernel,
  /// reporting a per-query quality bound. RAM-only end to end (envelope
  /// planes + standardized rows) — this path cannot hit disk faults, which
  /// is why the serving layer's degradation ladder may route to it.
  /// `params.max_candidates >= corpus size` degenerates to the exact answer
  /// bit-for-bit.
  Result<ApproxAnswer> ApproxKnn(ts::SeriesId id,
                                 const approx::QueryParams& params,
                                 approx::ScanStats* stats = nullptr) const;

  // Sharded entry points (same pattern as the exact counterparts below):
  // the owner projects the query ONCE, every shard ranks its own slice's
  // candidates under the shared global config, and verification runs where
  // the rows live under one shared radius.

  /// Projects a standardized row under the engine's summary configuration.
  Result<std::vector<double>> ApproxProject(const std::vector<double>& z) const;

  /// This engine's top-`c` candidates for a projected query, ascending
  /// (lb_sq, id); `exclude` names a local id to skip.
  Result<std::vector<approx::SummaryIndex::Candidate>> ApproxCandidates(
      const std::vector<double>& proj, size_t c,
      ts::SeriesId exclude = ts::kInvalidSeriesId,
      approx::ScanStats* stats = nullptr) const;

  /// Exactly verifies `candidates` (ascending (lb_sq, id)) against the RAM
  /// rows under `shared`, returning the best `k` with exact distances.
  Result<std::vector<index::Neighbor>> ApproxVerify(
      const std::vector<double>& z,
      const std::vector<approx::SummaryIndex::Candidate>& candidates, size_t k,
      approx::ScanStats* stats = nullptr,
      index::SharedRadius* shared = nullptr) const;

  /// The summary index (never null).
  const approx::SummaryIndex* summary() const { return summary_.get(); }

  // --- Periods ---------------------------------------------------------------

  /// Significant periods of an indexed series (descending power).
  Result<std::vector<period::PeriodHit>> FindPeriods(ts::SeriesId id) const;

  // --- Bursts ----------------------------------------------------------------

  /// Precomputed burst triplets of a series (positions are absolute days).
  Result<std::vector<burst::BurstRegion>> BurstsOf(ts::SeriesId id,
                                                   BurstHorizon horizon) const;

  /// Query-by-burst against the corpus burst store, excluding `id` itself.
  Result<std::vector<burst::BurstMatch>> QueryByBurst(ts::SeriesId id, size_t k,
                                                      BurstHorizon horizon) const;

  /// Query-by-burst for an external raw sequence.
  Result<std::vector<burst::BurstMatch>> QueryByBurstSeries(
      const ts::TimeSeries& series, size_t k, BurstHorizon horizon) const;

  // --- Introspection ---------------------------------------------------------

  const burst::BurstTable& burst_table(BurstHorizon horizon) const {
    return horizon == BurstHorizon::kLongTerm ? long_bursts_ : short_bursts_;
  }
  /// The retrying decorator around the disk store; null for RAM-resident
  /// engines, which read their rows in place. Exposes the store's read
  /// counter and the retry/giveup counters.
  const resilience::RetryingSequenceSource* retry_source() const {
    return retry_source_.get();
  }
  const Options& options() const { return options_; }

  /// Cross-structure self-check: validates the summary and both burst
  /// tables, then the engine-level agreement between them: catalog names
  /// resolving to in-range ids, one standardized row of the corpus length
  /// per series, and the summary and disk store populations matching the
  /// corpus. `Build` and `AddSeries` run this under `S2_DCHECK_OK` in
  /// checked builds.
  Status ValidateInvariants() const;

 private:
  S2Engine() = default;

  const burst::BurstDetector& DetectorFor(BurstHorizon horizon) const {
    return horizon == BurstHorizon::kLongTerm ? long_detector_ : short_detector_;
  }

  /// Re-detects both horizons' burst rows of `id` after its window slid.
  /// The corpus row is already current.
  Status RefreshDerivedState(ts::SeriesId id);

  Options options_;
  ts::Corpus corpus_;
  std::vector<std::vector<double>> standardized_;
  // Disk-resident engines only (null in RAM): the retrying decorator that
  // owns the disk store, and a non-owning alias of that store for the
  // append path's in-place record updates.
  std::unique_ptr<resilience::RetryingSequenceSource> retry_source_;
  storage::DiskSequenceStore* disk_source_ = nullptr;
  std::unordered_map<std::string, ts::SeriesId> by_name_;
  // Summary envelopes over standardized_, slot == series id, kept current
  // by AddSeries/AppendPoint under the build-time-frozen config.
  std::unique_ptr<approx::SummaryIndex> summary_;
  burst::BurstDetector long_detector_;
  burst::BurstDetector short_detector_;
  burst::BurstTable long_bursts_;
  burst::BurstTable short_bursts_;
  period::PeriodDetector period_detector_;

  uint64_t appends_ = 0;

  // --- Standing queries ------------------------------------------------------
  // Subscriptions keyed by local series id; mutated only on the writer
  // path, like everything above. The queue is shared infrastructure owned
  // by the serving layer (or a test); null drops fired alerts.
  monitor::SubscriptionRegistry registry_;
  monitor::AlertQueue* alert_queue_ = nullptr;
};

}  // namespace s2::core

#endif  // S2_CORE_S2_ENGINE_H_
