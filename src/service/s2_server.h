#ifndef S2_SERVICE_S2_SERVER_H_
#define S2_SERVICE_S2_SERVER_H_

#include <atomic>
#include <chrono>
#include <memory>
#include <string>

#include "base/sync.h"
#include "base/thread_annotations.h"
#include "ckpt/checkpoint_store.h"
#include "common/result.h"
#include "core/s2_engine.h"
#include "exec/thread_pool.h"
#include "monitor/alert_queue.h"
#include "monitor/monitor_wal.h"
#include "resilience/circuit_breaker.h"
#include "service/metrics.h"
#include "service/result_cache.h"
#include "service/scheduler.h"
#include "shard/sharded_engine.h"
#include "stream/wal.h"

namespace s2::service {

/// The concurrent query server: wraps a built `shard::ShardedEngine` with a
/// thread pool + scheduler (admission control, deadlines, cancellation), an
/// LRU result cache and a metrics registry — the serving substrate the
/// paper's interactive S2 tool would need at MSN-log scale.
///
/// Concurrency model: query execution takes the engine lock in shared mode
/// (the engine's const read paths are reentrant — see the contracts in
/// s2_engine.h and sharded_engine.h); `AddSeries` takes it exclusively and
/// invalidates every cache entry a new series could change (similarity and
/// query-by-burst; cached periods/bursts of existing series survive) before
/// returning. Cache hits bypass the engine entirely: no lock, no VP-tree
/// traversal, no sequence-store reads.
///
/// There is one topology: the server always runs a `shard::ShardedEngine`
/// (scatter-gather over N shards). A corpus that is not partitioned is a
/// single shard whose fan-out runs inline on the calling thread. The shard
/// count is invisible to callers: same verbs, same answers (the shard
/// layer's equivalence tests prove them bit-identical to one `S2Engine`),
/// and every request reports fan-out metrics (`server_shard_fanout`,
/// `server_shard_latency`, `server_shard_prune_hits`).
///
/// ## Degradation ladder (DESIGN.md §6)
///
/// 1. Transient disk faults retry inside the engine's sequence source
///    (bounded backoff; `server_retry_attempts` / `server_retry_giveups`).
/// 2. When the indexed path still fails on infrastructure trouble (I/O,
///    corruption, exhausted retries), similarity requests are re-answered by
///    the engine's exact RAM scan — same answer set, no disk — with
///    `QueryResponse::degraded` set and `server_degraded` incremented.
///    Degraded answers are never cached.
/// 3. Sustained primary-path failure trips a circuit breaker: while open,
///    requests are shed fast with `Unavailable` (`server_shed`,
///    `server_breaker_trips`) instead of piling retries onto a bad disk;
///    a half-open probe re-tests the primary path after the cooldown.
class S2Server {
 public:
  struct Options {
    Scheduler::Options scheduler;
    /// Result-cache entries; 0 disables caching.
    size_t cache_capacity = 1024;
    /// Circuit breaker over the primary (indexed) execution path.
    resilience::CircuitBreaker::Options breaker;
    /// When false, step 2 of the ladder is disabled: infrastructure
    /// failures surface to the caller instead of degrading.
    bool degrade_on_failure = true;
    /// Ladder rung between the failed indexed path and the exact RAM scan:
    /// a kSimilarTo request that opted into the approximate tier (set
    /// recall_target or max_candidates) is re-answered by the RAM-only
    /// approximate tier first — orders of magnitude cheaper than the exact
    /// scan, with the answer's quality bound attached. Requests that set no
    /// knob never take this rung (they asked for exact answers and get the
    /// exact-scan fallback, bit-identical to before this rung existed).
    bool degrade_to_approx = true;
    /// Shard count of the engine the `Build` and `Recover` factories build:
    /// 1 = one shard over the whole corpus, searched inline on the calling
    /// thread; N > 1 = N shards with scatter-gather execution; 0 = one
    /// shard per hardware thread.
    size_t shards = 1;
    /// Per-shard filesystem overrides, forwarded to
    /// `shard::ShardedEngine::Options::shard_envs`.
    std::vector<io::Env*> shard_envs;

    // --- Streaming ---------------------------------------------------------

    /// When non-empty, `Build` opens (creating or replaying) a write-ahead
    /// log at this path before serving starts: every `AppendPoint` is made
    /// durable in the log *before* it touches the engine, and on restart the
    /// intact log is replayed over the freshly rebuilt engine, so no
    /// acknowledged append is ever lost. Replay assumes the engine was
    /// rebuilt from the same base corpus the log was started against (the
    /// log holds only the appends, not the base data). Empty (default)
    /// disables logging: appends apply directly, with no crash durability.
    std::string wal_path;
    /// Filesystem for the WAL; null = the POSIX filesystem. Fault-injection
    /// tests point this at a `FaultInjectingEnv` to crash the log mid-write.
    io::Env* wal_env = nullptr;
    /// Records per WAL fsync group (see `stream::Wal::Options::sync_every`).
    size_t wal_sync_every = 1;
    /// Delta-tier size (summed across shards) at which an append schedules a
    /// background compaction on the maintenance thread. 0 disables automatic
    /// compaction — call `Compact()` yourself.
    size_t compaction_threshold = 64;

    // --- Checkpointing (s2::ckpt; requires a WAL) ---------------------------

    /// Enables the checkpoint subsystem: `Checkpoint()` becomes callable,
    /// the background checkpointer runs on the maintenance thread when a
    /// threshold below is set, and `Recover` loads the newest checkpoint
    /// instead of replaying the whole WAL. Checkpoint files live next to
    /// the WAL (`<wal_path>.manifest`, `<wal_path>.ckpt.<gen>`).
    bool checkpoint_enabled = false;
    /// Appends since the last checkpoint anchor that trigger a background
    /// checkpoint. 0 disables the append-count trigger.
    uint64_t checkpoint_every_appends = 0;
    /// Data-WAL bytes since the last checkpoint anchor that trigger a
    /// background checkpoint. 0 disables the byte trigger.
    uint64_t checkpoint_every_bytes = 0;
    /// Segment-body byte threshold for WAL rotation (both the data and
    /// monitor logs). 0 keeps the legacy single-file layout — required
    /// to be non-zero for checkpoint GC to ever reclaim log space.
    uint64_t wal_rotate_bytes = 0;
    /// After a successful checkpoint, unlink WAL segments wholly below
    /// the fallback anchor and snapshots of retired generations.
    bool checkpoint_gc = true;

    // --- Standing queries (s2::monitor) -------------------------------------

    /// Capacity of the alert delivery queue: fired-but-unacknowledged
    /// alerts beyond this drop oldest-first with overflow accounting
    /// (`monitor_alerts_dropped`, plus a detectable sequence gap).
    size_t alert_queue_capacity = 1024;
  };

  /// Streaming-state snapshot. Sizes and replay stats are point-in-time
  /// gauges, which the increment-only metrics registry cannot express — the
  /// `stream_*` counters/histograms cover the monotone side.
  struct StreamInfo {
    bool wal_enabled = false;
    /// Intact WAL records applied when the log was opened.
    size_t replayed_records = 0;
    /// Torn tail bytes the open ignored (crash artifacts, overwritten by the
    /// next append).
    uint64_t replay_dropped_bytes = 0;
    /// Wall time of open + replay.
    std::chrono::microseconds replay_time{0};
    /// Series currently living in delta tiers (all shards).
    size_t delta_size = 0;
    uint64_t append_count = 0;
    uint64_t compaction_count = 0;
  };

  /// Standing-query snapshot (point-in-time gauges; the monotone side lives
  /// in the `monitor_*` counters).
  struct MonitorInfo {
    bool wal_enabled = false;
    /// Subscription-lifecycle ops replayed from the monitor WAL at open.
    size_t replayed_ops = 0;
    /// Torn tail bytes the monitor-WAL open ignored.
    uint64_t replay_dropped_bytes = 0;
    size_t active_subscriptions = 0;
    size_t queue_depth = 0;
    uint64_t next_seq = 0;
    /// Highest acknowledged alert sequence; meaningful iff `any_acked`.
    uint64_t acked_upto = 0;
    bool any_acked = false;
    uint64_t alerts_fired = 0;
    uint64_t alerts_dropped = 0;
    uint64_t alerts_delivered = 0;
    uint64_t alerts_acked = 0;
  };

  /// Approximate-tier snapshot (point-in-time gauges; the monotone side
  /// lives in the `approx_*` counters).
  struct ApproxInfo {
    bool enabled = false;
    /// Summary projection width / quantization cells (the global config —
    /// identical on every shard by the ShardedEngine invariant).
    size_t summary_dims = 0;
    size_t summary_cells = 0;
    /// Resident envelope-plane bytes, summed over shards.
    size_t summary_bytes = 0;
    /// Series with live summary envelopes (== corpus size when enabled).
    size_t indexed_series = 0;
    /// Content fingerprint of the shared summary config (rebuild/recovery
    /// determinism checks compare these across runs).
    uint64_t config_fingerprint = 0;
  };

  ApproxInfo approx_info() S2_EXCLUDES(engine_mu_);

  /// Takes ownership of a built engine.
  static std::unique_ptr<S2Server> Create(shard::ShardedEngine engine,
                                          const Options& options);

  /// Builds an engine of `options.shards` shards from a corpus and wraps it
  /// in a server.
  static Result<std::unique_ptr<S2Server>> Build(
      ts::Corpus corpus, const core::S2Engine::Options& engine_options,
      const Options& options);

  /// Crash recovery: loads the newest valid checkpoint next to
  /// `options.wal_path`, rebuilds the engine from its snapshot (corpus,
  /// subscriptions with live hysteresis state, alert queue, id counter),
  /// and replays only the WAL tails past the snapshot's anchors. Falls
  /// back to the previous checkpoint generation when the newest snapshot
  /// is corrupt, and to a full-WAL replay over `corpus` (identical to
  /// `Build`) when no checkpoint is recoverable at all. The result is
  /// bit-identical to a full replay at any shard count — the snapshot
  /// stores global-id order.
  static Result<std::unique_ptr<S2Server>> Recover(
      ts::Corpus corpus, const core::S2Engine::Options& engine_options,
      const Options& options);

  S2Server(const S2Server&) = delete;
  S2Server& operator=(const S2Server&) = delete;

  ~S2Server() { Shutdown(); }

  /// Asynchronous entry point: admits the request to the scheduler.
  /// Unavailable when the in-flight window is full (backpressure).
  Result<RequestTicket> Submit(const QueryRequest& request) {
    return scheduler_->Submit(request);
  }

  /// Synchronous entry point: cache lookup, then engine execution under the
  /// shared lock. Also the handler the scheduler's workers run.
  QueryResponse Execute(const QueryRequest& request) S2_EXCLUDES(engine_mu_);

  /// Ingests one more series (exclusive engine access) and invalidates the
  /// result cache. Fails while requests cannot be drained (never blocks
  /// forever: waits for in-flight readers, new readers queue behind it).
  Result<ts::SeriesId> AddSeries(ts::TimeSeries series) S2_EXCLUDES(engine_mu_);

  /// The append verb: slides series `id`'s window forward by one day with
  /// `value` as the new last sample (exclusive engine access). When a WAL is
  /// configured the append is durably acknowledged *before* it is applied;
  /// a logged append whose apply then fails surfaces the error but stays in
  /// the log, so the next replay re-applies it. The result cache drops every
  /// entry the slide can change (`InvalidateForAppend`), and crossing
  /// `compaction_threshold` schedules a background delta compaction.
  Status AppendPoint(ts::SeriesId id, double value) S2_EXCLUDES(engine_mu_);

  /// Synchronously merges every delta tier into its main index (exclusive
  /// engine access). Compaction moves series between tiers without changing
  /// any answer — the two-tier search is exact — so the cache keeps its
  /// entries. Also the body of the background maintenance task.
  Status Compact() S2_EXCLUDES(engine_mu_);

  /// Opens the WAL at `options.wal_path` and replays it into the engine.
  /// `Build` calls this automatically; call it yourself exactly once before
  /// serving when constructing via `Create` with a `wal_path` set. No-op
  /// when `wal_path` is empty or the log is already open.
  Status OpenWal() S2_EXCLUDES(engine_mu_);

  StreamInfo stream_info() S2_EXCLUDES(engine_mu_);

  // --- Standing queries (subscribe / poll-alerts verbs) ----------------------

  /// Registers a standing subscription (`sub.series` is the public series
  /// id; `sub.id` is assigned here and returned). When a WAL is configured
  /// the registration is durably logged — with the stream position it armed
  /// at — before it is acknowledged, so a crash replays it into exactly the
  /// state it had. Exclusive engine access.
  Result<monitor::SubscriptionId> Subscribe(monitor::Subscription sub)
      S2_EXCLUDES(engine_mu_);

  /// Durably cancels a standing subscription. Exclusive engine access.
  Status Unsubscribe(monitor::SubscriptionId id) S2_EXCLUDES(engine_mu_);

  /// Copies up to `max` pending alerts without retiring them — at-least-once
  /// delivery; call `AckAlerts` with the last consumed sequence number to
  /// retire. Lock-free with respect to the engine (the queue is internally
  /// synchronized), so pollers never stall appends.
  std::vector<monitor::Alert> PollAlerts(size_t max);

  /// Durably acknowledges every alert with seq <= `upto_seq` (logged before
  /// applied, so replay retires exactly the acknowledged range and re-fires
  /// everything after it). Exclusive engine access.
  Status AckAlerts(uint64_t upto_seq) S2_EXCLUDES(engine_mu_);

  MonitorInfo monitor_info() S2_EXCLUDES(engine_mu_);

  /// The alert delivery queue (tests inspect stats directly).
  const monitor::AlertQueue& alerts() const { return alert_queue_; }

  // --- Checkpointing (coordinated snapshot + WAL tail; DESIGN.md §11) -------

  /// Checkpoint-state snapshot (point-in-time gauges; the monotone side
  /// lives in the `checkpoint_*` counters).
  struct CheckpointInfo {
    bool enabled = false;
    /// The last generation this process committed (0 = none yet).
    uint64_t generation = 0;
    /// The last committed checkpoint's anchors.
    uint64_t anchor_appends = 0;
    uint64_t anchor_monitor_ops = 0;
    /// How this server came up: from a checkpoint (vs cold/full replay),
    /// and whether the previous generation had to stand in for a corrupt
    /// newest snapshot.
    bool recovered_from_checkpoint = false;
    bool recovered_from_fallback = false;
    /// Where WAL replay started at recovery (0 on cold starts): the
    /// loaded snapshot's anchors.
    uint64_t recovery_anchor_appends = 0;
    uint64_t recovery_anchor_monitor_ops = 0;
  };

  /// Takes one coordinated checkpoint now: captures the engine image,
  /// registry state, alert queue and WAL anchors atomically under the
  /// writer lock (appends block only for the in-memory copy), then
  /// encodes and commits snapshot + manifest off-lock, then GCs retired
  /// WAL segments and snapshots. Unavailable when one is already in
  /// flight; InvalidArgument without a WAL.
  Status Checkpoint() S2_EXCLUDES(engine_mu_);

  CheckpointInfo checkpoint_info() S2_EXCLUDES(engine_mu_);

  /// Graceful shutdown: drains admitted requests, joins workers, waits out
  /// in-flight background maintenance, then flushes any open WAL fsync
  /// group so a clean restart loses nothing `sync_every > 1` deferred.
  /// Idempotent.
  void Shutdown() S2_EXCLUDES(engine_mu_);

  // Unlocked views of the engine for tests, benches and tools; a caller
  // must not read through them while a writer verb runs.

  /// The engine every verb runs on.
  const shard::ShardedEngine& sharded() const S2_NO_THREAD_SAFETY_ANALYSIS {
    return engine_;
  }
  /// The one shard of a one-shard server. Fails an `S2_CHECK` when the
  /// server runs more than one shard (and then returns shard 0).
  const core::S2Engine& engine() const S2_NO_THREAD_SAFETY_ANALYSIS;

  MetricsRegistry& metrics() { return metrics_; }
  ResultCache& cache() { return cache_; }
  const Scheduler& scheduler() const { return *scheduler_; }
  const resilience::CircuitBreaker& breaker() const { return breaker_; }

  /// Plain-text metrics snapshot (counters + latency percentiles).
  std::string MetricsText() const { return metrics_.TextSnapshot(); }

 private:
  S2Server(shard::ShardedEngine engine, const Options& options);

  /// Runs the request against the engine; fills `response` and exports the
  /// fan-out/latency/prune metrics.
  void Dispatch(const QueryRequest& request, QueryResponse* response)
      S2_REQUIRES_SHARED(engine_mu_);

  /// Step 2 of the ladder: re-answers `request` via the exact RAM fallback.
  /// `primary` is the failed primary-path response (its status is kept when
  /// the request kind has no RAM fallback).
  QueryResponse Degrade(const QueryRequest& request, QueryResponse primary)
      S2_REQUIRES_SHARED(engine_mu_);

  /// Folds the engine-level retry counters and breaker trip count into the
  /// metrics registry (counters are increment-only, so this exports deltas).
  void SyncResilienceMetrics() S2_REQUIRES_SHARED(engine_mu_)
      S2_EXCLUDES(export_mu_);

  /// Schedules the background compaction task when the delta tier has
  /// crossed the threshold and none is already in flight. Caller holds the
  /// exclusive lock — the delta-size snapshot and the inflight-flag
  /// transition form one atomic scheduling step under the same lock every
  /// append holds, which is what makes the handoff below airtight.
  void MaybeScheduleCompaction() S2_REQUIRES(engine_mu_);

  /// The maintenance-thread body: compacts, then re-checks the delta size
  /// *under the engine lock* before clearing the inflight flag — appends
  /// that crossed the threshold while this ran skipped scheduling (the flag
  /// was set), so clearing without the locked re-check would strand their
  /// delta above threshold forever once appends stop (missed wakeup).
  void BackgroundCompaction() S2_EXCLUDES(engine_mu_);

  /// Applies one replayed monitor-WAL op.
  Status ApplyMonitorOp(const monitor::MonitorOp& op)
      S2_REQUIRES(engine_mu_);

  /// Cursor shared between OpenWal and the WAL replay callback: the decoded
  /// monitor ops, how many have been applied, and how many data records
  /// have been replayed (the anchor the next op waits for).
  struct ReplayState {
    const std::vector<monitor::MonitorOp>* ops = nullptr;
    size_t next_op = 0;
    uint64_t applied_appends = 0;
  };

  /// Applies every decoded monitor op anchored at or before `upto`.
  Status ApplyMonitorOpsUpTo(uint64_t upto, ReplayState* state)
      S2_REQUIRES(engine_mu_);

  /// Applies one replayed data-WAL record (monitor ops anchored before it
  /// first, then the append itself). Runs inside stream::Wal::Open's
  /// std::function replay callback, which OpenWal invokes while holding the
  /// writer lock for the whole replay; the type-erased seam hides that
  /// context from the analysis, so it is suppressed here rather than
  /// expressed — the runtime rank checker still sees the lock held.
  Status ReplayWalRecord(const stream::WalRecord& record, ReplayState* state)
      S2_NO_THREAD_SAFETY_ANALYSIS;

  /// Exports delivery-queue counter deltas into the metrics registry and
  /// samples the evaluation-latency histogram.
  void SyncMonitorMetrics() S2_EXCLUDES(export_mu_);

  /// Copies the coordinated image out under the writer lock: syncs the
  /// data WAL first (an open fsync group's records count as durable only
  /// after the flush, and the anchor must never exceed the durable
  /// count), then reads both anchors and every piece of restorable state
  /// at that single stream position.
  Status CaptureSnapshot(ckpt::EngineSnapshot* snapshot,
                         std::vector<uint64_t>* shard_checksums,
                         std::vector<ckpt::SegmentMeta>* data_segments,
                         std::vector<ckpt::SegmentMeta>* monitor_segments)
      S2_EXCLUDES(engine_mu_);

  /// The checkpoint body `Checkpoint` and the background task share;
  /// assumes the in-flight guard is held by the caller.
  Status DoCheckpoint() S2_EXCLUDES(engine_mu_);

  /// Schedules a background checkpoint when an append/byte threshold has
  /// been crossed and none is in flight. Caller holds the exclusive lock
  /// (same scheduling discipline as MaybeScheduleCompaction).
  void MaybeScheduleCheckpoint() S2_REQUIRES(engine_mu_);

  /// The maintenance-thread checkpoint task: runs DoCheckpoint, counts
  /// failures, releases the in-flight guard.
  void BackgroundCheckpoint() S2_EXCLUDES(engine_mu_);

  /// Installs a loaded snapshot into a freshly built server (registry
  /// state, alert queue, id counter, recovery anchors) before OpenWal
  /// replays the tail.
  Status RestoreFromSnapshot(const ckpt::CheckpointStore::Loaded& loaded)
      S2_EXCLUDES(engine_mu_);

  Options options_;
  MetricsRegistry metrics_;
  ResultCache cache_;
  resilience::CircuitBreaker breaker_;
  sync::SharedMutex engine_mu_{sync::LockRank::kEngineState,
                               "service::S2Server::engine"};
  shard::ShardedEngine engine_ S2_GUARDED_BY(engine_mu_);
  Counter* engine_calls_ = nullptr;  ///< Executions that reached the engine.
  Counter* degraded_ = nullptr;      ///< Requests answered by the fallback.
  Counter* shed_ = nullptr;          ///< Requests rejected while open.
  // Fan-out metrics.
  Counter* shard_fanout_ = nullptr;      ///< Shard searches issued, total.
  Counter* shard_prune_hits_ = nullptr;  ///< Cross-shard prune decisions.
  LatencyHistogram* shard_latency_ = nullptr;  ///< Per-shard search time.
  // Approximate-tier metrics (DESIGN.md §13).
  Counter* approx_queries_ = nullptr;     ///< Approximate answers produced.
  Counter* approx_guaranteed_ = nullptr;  ///< ...whose bound proved exactness.
  Counter* approx_degraded_ = nullptr;    ///< kSimilarTo degraded via approx.
  LatencyHistogram* approx_candidates_ = nullptr;  ///< Candidate-set sizes.
  Counter* retry_attempts_ = nullptr;
  Counter* retry_giveups_ = nullptr;
  Counter* breaker_trips_ = nullptr;
  // Streaming metrics.
  Counter* stream_appends_ = nullptr;          ///< Acknowledged + applied appends.
  Counter* stream_compactions_ = nullptr;      ///< Completed delta merges.
  Counter* stream_compacted_series_ = nullptr; ///< Series moved delta -> main.
  Counter* stream_replay_records_ = nullptr;   ///< WAL records applied at open.
  LatencyHistogram* stream_append_latency_ = nullptr;
  LatencyHistogram* stream_compaction_latency_ = nullptr;
  // Standing-query metrics.
  Counter* monitor_subscribes_ = nullptr;       ///< Acknowledged registrations.
  Counter* monitor_unsubscribes_ = nullptr;     ///< Acknowledged cancellations.
  Counter* monitor_alerts_fired_ = nullptr;     ///< Alerts pushed to the queue.
  Counter* monitor_alerts_dropped_ = nullptr;   ///< Overflow-dropped alerts.
  Counter* monitor_alerts_delivered_ = nullptr; ///< Alerts handed to pollers.
  LatencyHistogram* monitor_eval_latency_ = nullptr;  ///< Per-append eval time.
  // Replay observability (satellite of the recovery work: these existed
  // only as StreamInfo/MonitorInfo gauges before).
  Counter* stream_replay_dropped_ = nullptr;   ///< Torn data-WAL bytes ignored.
  Counter* monitor_replay_ops_ = nullptr;      ///< Monitor ops replayed at open.
  Counter* monitor_replay_dropped_ = nullptr;  ///< Torn monitor-WAL bytes.
  // Checkpoint metrics.
  Counter* checkpoint_count_ = nullptr;        ///< Committed checkpoints.
  Counter* checkpoint_failures_ = nullptr;     ///< Failed checkpoint attempts.
  Counter* checkpoint_gc_segments_ = nullptr;  ///< WAL segments unlinked by GC.
  Counter* checkpoint_gc_snapshots_ = nullptr; ///< Snapshot files unlinked.
  LatencyHistogram* checkpoint_latency_ = nullptr;  ///< End-to-end commit time.
  /// Guards the exported_* snapshots.
  sync::Mutex export_mu_{sync::LockRank::kMetricsExport,
                         "service::S2Server::export"};
  uint64_t exported_retries_ S2_GUARDED_BY(export_mu_) = 0;
  uint64_t exported_giveups_ S2_GUARDED_BY(export_mu_) = 0;
  uint64_t exported_trips_ S2_GUARDED_BY(export_mu_) = 0;
  uint64_t exported_fired_ S2_GUARDED_BY(export_mu_) = 0;
  uint64_t exported_dropped_ S2_GUARDED_BY(export_mu_) = 0;
  uint64_t exported_delivered_ S2_GUARDED_BY(export_mu_) = 0;
  uint64_t exported_evals_ S2_GUARDED_BY(export_mu_) = 0;
  // Streaming state. The WAL and replay stats are written once under the
  // exclusive lock in OpenWal; the maintenance pool runs at most one
  // compaction at a time, gated by the inflight flag.
  std::unique_ptr<stream::Wal> wal_ S2_GUARDED_BY(engine_mu_);
  size_t replayed_records_ S2_GUARDED_BY(engine_mu_) = 0;
  uint64_t replay_dropped_bytes_ S2_GUARDED_BY(engine_mu_) = 0;
  std::chrono::microseconds replay_time_ S2_GUARDED_BY(engine_mu_){0};
  // Standing-query state. The delivery queue is internally synchronized
  // (producers: the append path on any shard; consumers: poll/ack verbs);
  // everything else here mutates only under the exclusive engine lock.
  monitor::AlertQueue alert_queue_;
  std::unique_ptr<monitor::MonitorWal> monitor_wal_ S2_GUARDED_BY(engine_mu_);
  monitor::SubscriptionId next_subscription_id_ S2_GUARDED_BY(engine_mu_) = 0;
  size_t replayed_monitor_ops_ S2_GUARDED_BY(engine_mu_) = 0;
  uint64_t monitor_replay_dropped_bytes_ S2_GUARDED_BY(engine_mu_) = 0;
  // Checkpoint state. `Recover` seeds the recovery_* anchors before
  // OpenWal so tail replay starts at the snapshot's stream position; the
  // in-flight flag single-files checkpoints exactly like compactions.
  std::unique_ptr<ckpt::CheckpointStore> checkpoint_store_;
  uint64_t recovery_anchor_appends_ S2_GUARDED_BY(engine_mu_) = 0;
  uint64_t recovery_anchor_monitor_ops_ S2_GUARDED_BY(engine_mu_) = 0;
  bool recovered_from_checkpoint_ S2_GUARDED_BY(engine_mu_) = false;
  bool recovered_from_fallback_ S2_GUARDED_BY(engine_mu_) = false;
  /// The data-WAL record count at the last committed checkpoint anchor
  /// (or recovery anchor), the baseline the scheduling thresholds measure
  /// from.
  uint64_t last_checkpoint_records_ S2_GUARDED_BY(engine_mu_) = 0;
  uint64_t last_checkpoint_generation_ S2_GUARDED_BY(engine_mu_) = 0;
  uint64_t last_checkpoint_anchor_appends_ S2_GUARDED_BY(engine_mu_) = 0;
  uint64_t last_checkpoint_anchor_monitor_ops_ S2_GUARDED_BY(engine_mu_) = 0;
  std::unique_ptr<exec::ThreadPool> maintenance_;
  std::atomic<bool> compaction_inflight_{false};
  std::atomic<bool> checkpoint_inflight_{false};
  std::unique_ptr<Scheduler> scheduler_;
};

}  // namespace s2::service

#endif  // S2_SERVICE_S2_SERVER_H_
