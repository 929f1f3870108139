#ifndef S2_SHARD_SHARDED_ENGINE_H_
#define S2_SHARD_SHARDED_ENGINE_H_

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <string_view>
#include <unordered_map>
#include <vector>

#include "approx/summary.h"
#include "common/result.h"
#include "core/s2_engine.h"
#include "exec/thread_pool.h"
#include "monitor/alert_queue.h"
#include "monitor/subscription.h"
#include "timeseries/time_series.h"

namespace s2::shard {

/// A corpus partitioned across N independent `core::S2Engine` shards with
/// scatter-gather query execution — the horizontal-scaling layer the
/// paper's production setting implies (50M+ distinct query strings do not
/// fit one index build on one core).
///
/// ## Partitioning
///
/// Series are assigned round-robin by global id (`shard = id % N`), so every
/// shard sees a statistically identical slice of the corpus and no shard
/// becomes a hot spot for range-correlated workloads. Global ids are dense
/// and stable; explicit bidirectional maps translate between global ids and
/// per-shard local ids (round-robin arithmetic would suffice at build time,
/// but `AddSeries` routes by load and would break it).
///
/// ## Scatter-gather with a shared pruning radius
///
/// Every similarity verb standardizes (or fetches) the query row ONCE, then
/// searches all shards concurrently: shard 0 on the calling thread, the
/// others on the internal `exec::ThreadPool`. With one shard the whole
/// fan-out runs inline, which is how `service::S2Server` serves a corpus
/// that is not partitioned. The
/// searches share one `index::SharedRadius`: each shard publishes every
/// upper bound it certifies on its own k-th distance and prunes against the
/// tightest bound any shard has published (TSseek's shared-bound pattern).
/// This is exact: a published radius is always witnessed by k real objects,
/// so it upper-bounds the *global* k-th distance, and anything pruned
/// beyond it cannot be a global top-k member. The gather phase merges the
/// per-shard answers by `(distance, global id)` — because per-shard answers
/// carry exact distances for every candidate that can still reach the
/// global top-k, the merged prefix of length k IS the exact global answer,
/// identical to a single engine over the whole corpus.
///
/// Periods and per-series bursts route to the owning shard alone;
/// query-by-burst scatters over the per-shard burst tables and merges by
/// `(bsim desc, global id asc)`, the burst table's own tie order.
///
/// ## Reentrancy contract
///
/// Same shape as `core::S2Engine`: all `const` verbs are safe to call
/// concurrently from any number of threads (the scatter tasks only touch
/// `const` engine state plus the shared atomic radius); `AddSeries` is a
/// writer and must be externally serialized against all readers —
/// `service::S2Server` holds its shared_mutex in write mode around it.
class ShardedEngine {
 public:
  struct Options {
    /// Number of shards; 0 = `std::thread::hardware_concurrency()`. Always
    /// clamped to [1, corpus size].
    size_t num_shards = 0;
    /// Template for every per-shard engine. When `engine.disk_store_path`
    /// is non-empty, shard i stores its slice at
    /// `disk_store_path + ".shard" + i`.
    core::S2Engine::Options engine;
    /// Optional per-shard filesystem override (fault-injection tests: fault
    /// one shard, leave the rest healthy). Shard i uses `shard_envs[i]`
    /// when `i < shard_envs.size()`, else `engine.env`.
    std::vector<io::Env*> shard_envs;
  };

  /// Per-query fan-out instrumentation (the server exports these).
  struct QueryStats {
    /// Shards the query was sent to (1 for owner-routed verbs).
    size_t fanout = 0;
    /// Prune/skip decisions across all shards that only succeeded because
    /// another shard's published radius was tighter than local state.
    size_t shared_radius_prunes = 0;
    /// Wall time of each shard's local search, index-aligned with shards.
    std::vector<std::chrono::microseconds> shard_latencies;
  };

  /// Partitions `corpus` round-robin, moving each series into its shard,
  /// and builds the shard engines in parallel: shard 0 on the calling
  /// thread, the others on the internal pool of N - 1 workers (none for one
  /// shard). Fails if any shard build fails.
  static Result<ShardedEngine> Build(ts::Corpus corpus, const Options& options);

  ShardedEngine(ShardedEngine&&) noexcept = default;
  ShardedEngine& operator=(ShardedEngine&&) noexcept = default;

  // --- Catalog -------------------------------------------------------------

  /// Resolves a name to its *global* id. Duplicate names resolve to the
  /// smallest global id, matching the single-engine first-wins catalog.
  Result<ts::SeriesId> FindByName(std::string_view name) const;

  /// Ingests one more series into the least-loaded shard (smallest corpus,
  /// ties to the lowest shard index — which reproduces round-robin when
  /// starting from a round-robin layout). RAM-resident engines only.
  /// Returns the new *global* id. Writer: serialize externally.
  Result<ts::SeriesId> AddSeries(ts::TimeSeries series);

  /// Total number of series across all shards.
  size_t size() const { return placements_.size(); }

  // --- Streaming (owner-routed, per-shard deltas) --------------------------

  /// Appends one point to the series' owning shard: the window slides on
  /// that shard alone, the series moves into that shard's delta tier, and
  /// every other shard is untouched. Because all similarity verbs already
  /// scatter over every shard and each shard searches its own delta
  /// alongside its main tree, shard-count invisibility is preserved with no
  /// extra plumbing. Writer: serialize externally (same contract as
  /// `AddSeries`).
  Status AppendPoint(ts::SeriesId id, double value);

  /// Merges every shard's delta tier into its main index. Writer.
  Status Compact();

  /// Summed delta-tier sizes / append counts / compaction counts across
  /// shards (the server exports these as stream metrics).
  size_t TotalDeltaSize() const;
  uint64_t TotalAppendCount() const;
  uint64_t TotalCompactionCount() const;

  /// The raw series for a global id (owner shard's corpus row).
  Result<const ts::TimeSeries*> Series(ts::SeriesId id) const;

  // --- Standing queries (owner-routed; see src/monitor) --------------------

  /// Registers `sub` (whose `series` is a *global* id) with the owning
  /// shard under its local id. Fired alerts keep the global id, and all
  /// shards push into one shared delivery queue in the externally
  /// serialized append order — so the alert stream, including its sequence
  /// numbers, is identical to a single engine's over the same appends
  /// (shard-count invisibility, the §7 bar). Writer: serialize externally.
  Status Subscribe(monitor::Subscription sub);

  /// Registers `sub` with its hysteresis state installed verbatim —
  /// checkpoint recovery routing the snapshot's subscriptions back to
  /// their owner shards. Writer.
  Status RestoreSubscription(monitor::Subscription sub, bool engaged,
                             uint32_t bin);

  /// Removes a subscription wherever it lives. Writer.
  Status Unsubscribe(monitor::SubscriptionId id);

  /// Attaches one delivery queue to every shard (not owned; nullptr
  /// detaches). The serving layer owns the queue.
  void set_alert_queue(monitor::AlertQueue* queue);

  /// Active subscriptions across all shards.
  size_t ActiveSubscriptionCount() const;

  /// True when some shard holds subscription `id`.
  bool HasSubscription(monitor::SubscriptionId id) const {
    return sub_shard_.contains(id);
  }

  /// Every shard's subscriptions merged and ordered by subscription id.
  std::vector<monitor::SubscriptionRegistry::Entry> ListSubscriptions() const;

  // --- Similarity (global ids, exact, shard-count invisible) ---------------

  Result<std::vector<index::Neighbor>> SimilarTo(ts::SeriesId id, size_t k,
                                                 QueryStats* stats = nullptr) const;
  Result<std::vector<index::Neighbor>> SimilarToSeries(
      const std::vector<double>& raw_values, size_t k,
      QueryStats* stats = nullptr) const;
  Result<std::vector<index::Neighbor>> SimilarToDtw(
      ts::SeriesId id, size_t k, QueryStats* stats = nullptr) const;

  /// Degraded-path scans (exact, no index, no disk I/O), scatter-gathered
  /// over the shards' RAM rows.
  Result<std::vector<index::Neighbor>> SimilarToExact(ts::SeriesId id,
                                                      size_t k) const;
  Result<std::vector<index::Neighbor>> SimilarToSeriesExact(
      const std::vector<double>& raw_values, size_t k) const;
  Result<std::vector<index::Neighbor>> SimilarToDtwExact(ts::SeriesId id,
                                                         size_t k) const;

  // --- Approximate search (DESIGN.md §13) ----------------------------------

  /// Approximate k-NN with a per-query quality bound, bit-identical to a
  /// single engine over the same corpus at any shard count. Two-phase
  /// scatter: (1) the owner projects the query ONCE under the global config
  /// (trained on the full corpus before partitioning — see Build) and every
  /// shard ranks its own top-C candidates; the gather merges by (lb_sq,
  /// global id) and truncates to the global top-C, which equals the
  /// single-engine candidate set because any global top-C member is also in
  /// its own shard's top-C. (2) Candidates are verified on the shards that
  /// own their rows, under one shared radius; the gather merges by
  /// (distance, global id). The worst merged lower bound is the same
  /// threshold a single engine would certify, so the quality bound is also
  /// topology-invariant.
  Result<core::S2Engine::ApproxAnswer> ApproxKnn(
      ts::SeriesId id, const approx::QueryParams& params,
      QueryStats* stats = nullptr,
      approx::ScanStats* scan_stats = nullptr) const;

  // --- Periods & bursts ----------------------------------------------------

  Result<std::vector<period::PeriodHit>> FindPeriods(ts::SeriesId id) const;
  Result<std::vector<burst::BurstRegion>> BurstsOf(ts::SeriesId id,
                                                   core::BurstHorizon horizon) const;
  Result<std::vector<burst::BurstMatch>> QueryByBurst(
      ts::SeriesId id, size_t k, core::BurstHorizon horizon,
      QueryStats* stats = nullptr) const;
  Result<std::vector<burst::BurstMatch>> QueryByBurstSeries(
      const ts::TimeSeries& series, size_t k, core::BurstHorizon horizon,
      QueryStats* stats = nullptr) const;

  // --- Introspection -------------------------------------------------------

  size_t num_shards() const { return shards_.size(); }
  const core::S2Engine& shard(size_t i) const { return *shards_[i]; }

  /// Which shard owns a global id, and under which local id.
  struct Placement {
    uint32_t shard = 0;
    ts::SeriesId local = ts::kInvalidSeriesId;
  };
  Result<Placement> PlacementOf(ts::SeriesId id) const;

  /// Global id of shard-local series (used when gathering shard answers).
  ts::SeriesId GlobalId(size_t shard, ts::SeriesId local) const {
    return local_to_global_[shard][local];
  }

  /// Summed disk-retry counters across shards (0 for RAM-resident).
  uint64_t TotalRetryCount() const;
  uint64_t TotalGiveupCount() const;

  /// Every shard's own invariants, plus the placement maps: a bijection
  /// between global ids and (shard, local) pairs covering every shard
  /// corpus exactly.
  Status ValidateInvariants() const;

 private:
  ShardedEngine() = default;

  /// Runs `fn(shard_index)` for every shard — shard 0 inline on the calling
  /// thread, the rest on the pool (inline fallback when the pool rejects) —
  /// and waits for all. `fn` must be thread-safe and record its own result;
  /// per-shard wall time lands in `stats->shard_latencies`.
  void ScatterGather(const std::function<void(size_t)>& fn,
                     QueryStats* stats) const;

  std::vector<std::unique_ptr<core::S2Engine>> shards_;
  std::unique_ptr<exec::ThreadPool> pool_;
  std::vector<Placement> placements_;                    // global -> (shard, local)
  std::vector<std::vector<ts::SeriesId>> local_to_global_;
  // Which shard holds each live subscription (Unsubscribe routing).
  std::unordered_map<monitor::SubscriptionId, uint32_t> sub_shard_;
};

}  // namespace s2::shard

#endif  // S2_SHARD_SHARDED_ENGINE_H_
