#include "service/s2_server.h"

#include <bit>
#include <cmath>
#include <limits>
#include <string>
#include <utility>
#include <vector>

#include "diag/check.h"

namespace s2::service {

namespace {

using Clock = std::chrono::steady_clock;

std::chrono::microseconds Since(Clock::time_point start) {
  return std::chrono::duration_cast<std::chrono::microseconds>(Clock::now() -
                                                               start);
}

CacheKey KeyFor(const QueryRequest& request) {
  CacheKey key;
  key.kind = request.kind;
  key.id = request.id;
  key.k = request.k;
  key.horizon = (request.kind == RequestKind::kBurstsOf ||
                 request.kind == RequestKind::kQueryByBurst)
                    ? static_cast<int>(request.horizon)
                    : 0;
  if (request.kind == RequestKind::kApproxKnn) {
    // Approximate answers live under their own cache identity: the quality
    // tier keeps them from ever serving an exact request, and the knobs are
    // folded into param_hash because different knobs produce different
    // candidate sets — different answers.
    key.quality = AnswerQuality::kApproximate;
    uint64_t h = 1469598103934665603ull;
    const auto mix = [&h](uint64_t v) {
      h ^= v;
      h *= 1099511628211ull;
    };
    mix(std::bit_cast<uint64_t>(request.recall_target));
    mix(static_cast<uint64_t>(request.max_candidates));
    key.param_hash = h;
  }
  return key;
}

/// Copies a Result's payload into the response or records its error.
template <typename T>
void Fill(Result<T> result, T* payload, QueryResponse* response) {
  if (result.ok()) {
    *payload = std::move(result).value();
  } else {
    response->status = result.status();
  }
}

/// Failures of the serving substrate (disk, retries exhausted, corrupted
/// bytes) — the conditions the degradation ladder exists for. Caller errors
/// (NotFound, InvalidArgument, OutOfRange...) pass through untouched:
/// degrading those would mask real bugs in the request.
bool IsInfrastructureFailure(const Status& status) {
  switch (status.code()) {
    case StatusCode::kIoError:
    case StatusCode::kIoTransient:
    case StatusCode::kUnavailable:
    case StatusCode::kCorruption:
      return true;
    default:
      return false;
  }
}

Result<shard::ShardedEngine> BuildEngine(
    ts::Corpus corpus, const core::S2Engine::Options& engine_options,
    const S2Server::Options& options) {
  shard::ShardedEngine::Options shard_options;
  shard_options.num_shards = options.shards;
  shard_options.engine = engine_options;
  shard_options.shard_envs = options.shard_envs;
  return shard::ShardedEngine::Build(std::move(corpus), shard_options);
}

}  // namespace

std::unique_ptr<S2Server> S2Server::Create(shard::ShardedEngine engine,
                                           const Options& options) {
  return std::unique_ptr<S2Server>(new S2Server(std::move(engine), options));
}

Result<std::unique_ptr<S2Server>> S2Server::Build(
    ts::Corpus corpus, const core::S2Engine::Options& engine_options,
    const Options& options) {
  S2_ASSIGN_OR_RETURN(shard::ShardedEngine engine,
                      BuildEngine(std::move(corpus), engine_options, options));
  std::unique_ptr<S2Server> server = Create(std::move(engine), options);
  S2_RETURN_NOT_OK(server->OpenWal());
  return server;
}

Result<std::unique_ptr<S2Server>> S2Server::Recover(
    ts::Corpus corpus, const core::S2Engine::Options& engine_options,
    const Options& options) {
  if (options.wal_path.empty() || !options.checkpoint_enabled) {
    return Build(std::move(corpus), engine_options, options);
  }
  ckpt::CheckpointStore store(options.wal_env, options.wal_path);
  Result<ckpt::CheckpointStore::Loaded> loaded = store.Load();
  if (!loaded.ok()) {
    // NotFound: cold start, nothing checkpointed yet. Corruption: no
    // recorded generation validates — the full WAL over the base corpus
    // is the last resort (it only exists while GC has not reclaimed the
    // early segments; past that the open surfaces the corruption).
    return Build(std::move(corpus), engine_options, options);
  }
  ckpt::CheckpointStore::Loaded checkpoint = std::move(loaded).value();

  // Rebuild the engine from the snapshot's corpus image (global id
  // order, so any shard count maps it identically to a full replay).
  ts::Corpus image;
  for (ts::TimeSeries& series : checkpoint.snapshot.corpus) {
    image.Add(std::move(series));
  }
  S2_ASSIGN_OR_RETURN(shard::ShardedEngine engine,
                      BuildEngine(std::move(image), engine_options, options));

  // Cross-check the rebuilt corpus against the manifest's recorded
  // per-shard checksums when the topology matches (a different shard
  // count relocates series between shards, so the per-shard sums are
  // incomparable — the snapshot's own container checksum already vouched
  // for the bytes). The manifest records the *current* generation's
  // checksums, so the check also doesn't apply when recovery fell back
  // to the previous snapshot (only its container checksum vouches for it).
  // A mismatch means the snapshot and manifest disagree about the data;
  // fall back to the full-replay path rather than serve an image of
  // unknown pedigree.
  const ckpt::Manifest& manifest = checkpoint.manifest;
  if (!checkpoint.from_fallback &&
      engine.num_shards() == manifest.shard_count &&
      manifest.shard_checksums.size() == manifest.shard_count) {
    for (size_t s = 0; s < manifest.shard_count; ++s) {
      if (ckpt::CheckpointStore::CorpusChecksum(
              engine.shard(s).corpus().series()) !=
          manifest.shard_checksums[s]) {
        return Build(std::move(corpus), engine_options, options);
      }
    }
  }

  std::unique_ptr<S2Server> server = Create(std::move(engine), options);
  S2_RETURN_NOT_OK(server->RestoreFromSnapshot(checkpoint));
  S2_RETURN_NOT_OK(server->OpenWal());
  return server;
}

Status S2Server::RestoreFromSnapshot(
    const ckpt::CheckpointStore::Loaded& loaded) {
  sync::WriterMutexLock lock(&engine_mu_);
  // Subscriptions restore in id order — the order they registered in,
  // which (ids being assigned under the writer lock) is also per-series
  // evaluation order. The hysteresis state installs verbatim; no silent
  // re-arming against the rebuilt window.
  for (const monitor::SubscriptionRegistry::Entry& entry :
       loaded.snapshot.subscriptions) {
    S2_RETURN_NOT_OK(
        engine_.RestoreSubscription(entry.sub, entry.engaged, entry.bin));
  }
  alert_queue_.Restore(loaded.snapshot.alerts);
  next_subscription_id_ = loaded.snapshot.next_subscription_id;
  recovery_anchor_appends_ = loaded.snapshot.anchor_appends;
  recovery_anchor_monitor_ops_ = loaded.snapshot.anchor_monitor_ops;
  recovered_from_checkpoint_ = true;
  recovered_from_fallback_ = loaded.from_fallback;
  last_checkpoint_records_ = loaded.snapshot.anchor_appends;
  last_checkpoint_generation_ = loaded.from_fallback
                                    ? loaded.manifest.prev.generation
                                    : loaded.manifest.current.generation;
  last_checkpoint_anchor_appends_ = loaded.snapshot.anchor_appends;
  last_checkpoint_anchor_monitor_ops_ = loaded.snapshot.anchor_monitor_ops;
  return Status::OK();
}

S2Server::S2Server(shard::ShardedEngine engine, const Options& options)
    : options_(options),
      cache_(options.cache_capacity, &metrics_),
      breaker_(options.breaker),
      engine_(std::move(engine)),
      engine_calls_(metrics_.counter("server_engine_calls")),
      degraded_(metrics_.counter("server_degraded")),
      shed_(metrics_.counter("server_shed")),
      shard_fanout_(metrics_.counter("server_shard_fanout")),
      shard_prune_hits_(metrics_.counter("server_shard_prune_hits")),
      shard_latency_(metrics_.histogram("server_shard_latency")),
      approx_queries_(metrics_.counter("approx_queries")),
      approx_guaranteed_(metrics_.counter("approx_guaranteed_exact")),
      approx_degraded_(metrics_.counter("approx_degraded")),
      approx_candidates_(metrics_.histogram("approx_candidates")),
      retry_attempts_(metrics_.counter("server_retry_attempts")),
      retry_giveups_(metrics_.counter("server_retry_giveups")),
      breaker_trips_(metrics_.counter("server_breaker_trips")),
      stream_appends_(metrics_.counter("stream_appends")),
      stream_compactions_(metrics_.counter("stream_compactions")),
      stream_compacted_series_(metrics_.counter("stream_compacted_series")),
      stream_replay_records_(metrics_.counter("stream_replay_records")),
      stream_append_latency_(metrics_.histogram("stream_append_latency")),
      stream_compaction_latency_(metrics_.histogram("stream_compaction_latency")),
      monitor_subscribes_(metrics_.counter("monitor_subscriptions")),
      monitor_unsubscribes_(metrics_.counter("monitor_unsubscribes")),
      monitor_alerts_fired_(metrics_.counter("monitor_alerts_fired")),
      monitor_alerts_dropped_(metrics_.counter("monitor_alerts_dropped")),
      monitor_alerts_delivered_(metrics_.counter("monitor_alerts_delivered")),
      monitor_eval_latency_(metrics_.histogram("monitor_eval_latency")),
      stream_replay_dropped_(metrics_.counter("stream_replay_dropped_bytes")),
      monitor_replay_ops_(metrics_.counter("monitor_replay_ops")),
      monitor_replay_dropped_(
          metrics_.counter("monitor_replay_dropped_bytes")),
      checkpoint_count_(metrics_.counter("checkpoint_count")),
      checkpoint_failures_(metrics_.counter("checkpoint_failures")),
      checkpoint_gc_segments_(metrics_.counter("checkpoint_gc_segments")),
      checkpoint_gc_snapshots_(metrics_.counter("checkpoint_gc_snapshots")),
      checkpoint_latency_(metrics_.histogram("checkpoint_latency")),
      alert_queue_(monitor::AlertQueue::Options{options.alert_queue_capacity}) {
  // Every shard pushes fired alerts into the one server-owned queue;
  // appends are serialized by the writer lock, so sequence numbers are
  // assigned in a shard-count-invisible order.
  engine_.set_alert_queue(&alert_queue_);
  // Checkpoints live next to the WAL and require one.
  if (options.checkpoint_enabled && !options.wal_path.empty()) {
    checkpoint_store_ = std::make_unique<ckpt::CheckpointStore>(
        options.wal_env, options.wal_path);
  }
  // One dedicated maintenance thread keeps compaction and checkpointing
  // off the query workers (both take the writer lock at least briefly;
  // running them on a scheduler worker would stall a serving slot).
  if (options.compaction_threshold > 0 || checkpoint_store_ != nullptr) {
    maintenance_ = std::make_unique<exec::ThreadPool>(1);
  }
  // The scheduler is built last: its workers may call Execute (via the
  // handler) as soon as requests arrive, so everything above must be live.
  scheduler_ = std::make_unique<Scheduler>(
      options.scheduler,
      [this](const QueryRequest& request) { return Execute(request); },
      &metrics_);
}

void S2Server::Dispatch(const QueryRequest& request, QueryResponse* response) {
  shard::ShardedEngine::QueryStats stats;
  switch (request.kind) {
    case RequestKind::kSimilarTo:
      Fill(engine_.SimilarTo(request.id, request.k, &stats),
           &response->neighbors, response);
      break;
    case RequestKind::kSimilarToDtw:
      Fill(engine_.SimilarToDtw(request.id, request.k, &stats),
           &response->neighbors, response);
      break;
    case RequestKind::kPeriodsOf:
      Fill(engine_.FindPeriods(request.id), &response->periods, response);
      stats.fanout = 1;  // Owner-routed.
      break;
    case RequestKind::kBurstsOf:
      Fill(engine_.BurstsOf(request.id, request.horizon), &response->bursts,
           response);
      stats.fanout = 1;  // Owner-routed.
      break;
    case RequestKind::kQueryByBurst:
      Fill(engine_.QueryByBurst(request.id, request.k, request.horizon, &stats),
           &response->burst_matches, response);
      break;
    case RequestKind::kApproxKnn: {
      approx::QueryParams params;
      params.k = request.k;
      params.recall_target = request.recall_target;
      params.max_candidates = request.max_candidates;
      auto result = engine_.ApproxKnn(request.id, params, &stats);
      if (result.ok()) {
        core::S2Engine::ApproxAnswer answer = std::move(result).ValueOrDie();
        response->neighbors = std::move(answer.neighbors);
        response->quality = answer.bound;
        response->approximate = true;
        approx_queries_->Increment();
        if (answer.bound.guaranteed_exact) approx_guaranteed_->Increment();
        approx_candidates_->Record(answer.bound.candidates);
      } else {
        response->status = result.status();
      }
      break;
    }
  }
  shard_fanout_->Increment(stats.fanout);
  shard_prune_hits_->Increment(stats.shared_radius_prunes);
  for (const std::chrono::microseconds& lat : stats.shard_latencies) {
    shard_latency_->Record(static_cast<uint64_t>(lat.count()));
  }
}

QueryResponse S2Server::Execute(const QueryRequest& request) {
  QueryResponse response;
  const CacheKey key = KeyFor(request);
  if (std::optional<QueryResponse> hit = cache_.Lookup(key)) {
    return *std::move(hit);
  }

  // Ladder step 3: while the breaker is open, shed fast instead of queueing
  // more work onto a known-bad primary path. Cache hits (above) still serve.
  if (!breaker_.AllowRequest()) {
    shed_->Increment();
    response.status =
        Status::Unavailable("S2Server: circuit open, request shed");
    return response;
  }

  {
    sync::ReaderMutexLock lock(&engine_mu_);
    engine_calls_->Increment();
    Dispatch(request, &response);
    if (response.status.ok()) {
      breaker_.RecordSuccess();
      // Insert before releasing the shared lock: inserting after release
      // could race an AddSeries invalidation and re-publish a stale answer.
      cache_.Insert(key, response);
    } else if (IsInfrastructureFailure(response.status)) {
      breaker_.RecordFailure();
      if (options_.degrade_on_failure) {
        // Ladder step 2, still under the shared lock (the fallback reads the
        // engine's RAM rows). Degraded answers are exact but bypass the
        // index, so they are deliberately not cached: the next request
        // probes the primary path again.
        response = Degrade(request, std::move(response));
      }
    } else {
      // Caller errors (NotFound, InvalidArgument...) say nothing bad about
      // the serving substrate, but the breaker must still hear the outcome:
      // if this request was the half-open probe, staying silent would leak
      // the probe slot and shed all future traffic forever.
      breaker_.RecordNonFailure();
    }
    SyncResilienceMetrics();
  }
  return response;
}

QueryResponse S2Server::Degrade(const QueryRequest& request,
                                QueryResponse primary) {
  QueryResponse fallback;
  switch (request.kind) {
    case RequestKind::kSimilarTo:
      // Ladder rung 2a: a request that opted into the approximate tier (by
      // setting a quality knob) is re-answered there first — RAM-only like
      // the exact scan but orders of magnitude cheaper, with the quality
      // bound attached. Knob-free requests skip straight to the exact scan:
      // they asked for exact answers and degradation must not change that.
      if (options_.degrade_to_approx &&
          (request.recall_target > 0.0 || request.max_candidates > 0)) {
        approx::QueryParams params;
        params.k = request.k;
        params.recall_target = request.recall_target;
        params.max_candidates = request.max_candidates;
        auto result = engine_.ApproxKnn(request.id, params);
        if (result.ok()) {
          core::S2Engine::ApproxAnswer answer = std::move(result).ValueOrDie();
          fallback.neighbors = std::move(answer.neighbors);
          fallback.quality = answer.bound;
          fallback.approximate = true;
          fallback.degraded = true;
          degraded_->Increment();
          approx_queries_->Increment();
          approx_degraded_->Increment();
          if (answer.bound.guaranteed_exact) approx_guaranteed_->Increment();
          approx_candidates_->Record(answer.bound.candidates);
          return fallback;
        }
        // The approximate tier is disabled or unusable: fall through to the
        // exact RAM scan, rung 2b.
      }
      Fill(engine_.SimilarToExact(request.id, request.k), &fallback.neighbors,
           &fallback);
      break;
    case RequestKind::kSimilarToDtw:
      Fill(engine_.SimilarToDtwExact(request.id, request.k),
           &fallback.neighbors, &fallback);
      break;
    default:
      // Periods and bursts already run purely on RAM structures; an
      // infrastructure failure there has no cheaper path to fall back to.
      return primary;
  }
  if (!fallback.status.ok()) return primary;
  fallback.degraded = true;
  degraded_->Increment();
  return fallback;
}

void S2Server::SyncResilienceMetrics() {
  // Read the source counters before taking export_mu_: the breaker's mutex
  // (kCircuitBreaker) ranks below kMetricsExport, so the locks must be
  // sequential, not nested — same shape as SyncMonitorMetrics.
  const uint64_t retries = engine_.TotalRetryCount();
  const uint64_t giveups = engine_.TotalGiveupCount();
  const uint64_t trips = breaker_.trip_count();
  sync::MutexLock lock(&export_mu_);
  retry_attempts_->Increment(retries - exported_retries_);
  retry_giveups_->Increment(giveups - exported_giveups_);
  exported_retries_ = retries;
  exported_giveups_ = giveups;
  breaker_trips_->Increment(trips - exported_trips_);
  exported_trips_ = trips;
}

Result<ts::SeriesId> S2Server::AddSeries(ts::TimeSeries series) {
  sync::WriterMutexLock lock(&engine_mu_);
  // The engine routes to its least-loaded shard itself.
  S2_ASSIGN_OR_RETURN(const ts::SeriesId id,
                      engine_.AddSeries(std::move(series)));
  // Checked builds re-validate the whole engine while no reader can observe
  // it (we still hold the writer lock).
  S2_DCHECK_OK(engine_.ValidateInvariants());
  // Invalidate while still holding the writer lock: a reader admitted after
  // us must not see a stale answer re-inserted for the old corpus. Only the
  // answers a new series can change are dropped — cached periods/bursts of
  // existing series are untouched by an append and survive.
  cache_.InvalidateCrossSeries();
  return id;
}

Status S2Server::ApplyMonitorOpsUpTo(uint64_t upto, ReplayState* state) {
  const std::vector<monitor::MonitorOp>& ops = *state->ops;
  while (state->next_op < ops.size() && ops[state->next_op].anchor <= upto) {
    S2_RETURN_NOT_OK(ApplyMonitorOp(ops[state->next_op]));
    ++state->next_op;
  }
  return Status::OK();
}

Status S2Server::ReplayWalRecord(const stream::WalRecord& record,
                                 ReplayState* state) {
  // OpenWal holds the writer lock across the whole replay; see the header
  // for why this function opts out of the static analysis.
  S2_RETURN_NOT_OK(ApplyMonitorOpsUpTo(state->applied_appends, state));
  S2_RETURN_NOT_OK(engine_.AppendPoint(record.series_id, record.value));
  ++state->applied_appends;
  return Status::OK();
}

Status S2Server::OpenWal() {
  if (options_.wal_path.empty()) return Status::OK();
  const Clock::time_point start = Clock::now();
  sync::WriterMutexLock lock(&engine_mu_);
  // Checked under the lock (it used to be a pre-lock fast path): two racing
  // OpenWal calls must not both observe "no WAL yet" and replay twice.
  if (wal_ != nullptr) return Status::OK();

  // Subscription-lifecycle ops are decoded first, then merged into the
  // append replay below by their stream anchor: an op logged after N
  // acknowledged appends re-applies after exactly N replayed appends. A
  // replayed subscription therefore arms against the very window it
  // originally armed against and the re-fired alert stream — sequence
  // numbers included — reproduces the pre-crash run; replayed acks then
  // retire exactly the acknowledged range (monitor_equivalence_test pins
  // this with a crash-point sweep).
  std::vector<monitor::MonitorOp> ops;
  monitor::MonitorWal::ReplayInfo monitor_replay;
  monitor::MonitorWal::Options monitor_options;
  monitor_options.rotate_bytes = options_.wal_rotate_bytes;
  monitor_options.replay_from = recovery_anchor_monitor_ops_;
  S2_ASSIGN_OR_RETURN(
      monitor_wal_,
      monitor::MonitorWal::Open(options_.wal_env,
                                options_.wal_path + ".monitor", &ops,
                                &monitor_replay, monitor_options));
  ReplayState state;
  state.ops = &ops;
  // Checkpoint recovery: the snapshot already holds everything at or
  // before the anchors, so the WALs deliver only their tails and the
  // replay cursor starts at the anchor (monitor ops are merged by
  // absolute append position either way).
  state.applied_appends = recovery_anchor_appends_;

  stream::Wal::Options wal_options;
  wal_options.sync_every = options_.wal_sync_every;
  wal_options.rotate_bytes = options_.wal_rotate_bytes;
  wal_options.replay_from = recovery_anchor_appends_;
  stream::Wal::ReplayInfo info;
  S2_ASSIGN_OR_RETURN(
      wal_, stream::Wal::Open(
                options_.wal_env, options_.wal_path,
                [this, &state](const stream::WalRecord& record) {
                  return ReplayWalRecord(record, &state);
                },
                &info, wal_options));
  // Ops anchored past the last intact append (their appends tore off, or
  // none followed) re-arm against the final replayed window.
  S2_RETURN_NOT_OK(
      ApplyMonitorOpsUpTo(std::numeric_limits<uint64_t>::max(), &state));
  replayed_monitor_ops_ = ops.size();
  monitor_replay_dropped_bytes_ = monitor_replay.dropped_bytes;

  replayed_records_ = info.records;
  replay_dropped_bytes_ = info.dropped_bytes;
  replay_time_ = Since(start);
  stream_replay_records_->Increment(info.records);
  stream_replay_dropped_->Increment(info.dropped_bytes);
  monitor_replay_ops_->Increment(ops.size());
  monitor_replay_dropped_->Increment(monitor_replay.dropped_bytes);
  SyncMonitorMetrics();
  // Replay mutated the engine; any entries cached before this call (Create +
  // manual OpenWal usage) are stale for the replayed series.
  if (info.records > 0) cache_.Invalidate();
  return Status::OK();
}

Status S2Server::ApplyMonitorOp(const monitor::MonitorOp& op) {
  switch (op.op) {
    case monitor::MonitorOp::Kind::kSubscribe:
      S2_RETURN_NOT_OK(engine_.Subscribe(op.sub));
      if (op.sub.id >= next_subscription_id_) {
        next_subscription_id_ = op.sub.id + 1;
      }
      return Status::OK();
    case monitor::MonitorOp::Kind::kUnsubscribe:
      return engine_.Unsubscribe(op.sub.id);
    case monitor::MonitorOp::Kind::kAck:
      alert_queue_.Ack(op.ack_upto);
      return Status::OK();
  }
  return Status::Corruption("S2Server: unknown monitor op");
}

Result<monitor::SubscriptionId> S2Server::Subscribe(monitor::Subscription sub) {
  sync::WriterMutexLock lock(&engine_mu_);
  sub.id = next_subscription_id_;
  monitor::MonitorOp op;
  op.op = monitor::MonitorOp::Kind::kSubscribe;
  op.anchor = wal_ != nullptr ? wal_->record_count() : 0;
  op.sub = sub;
  // Apply first (registration is in-memory and validates everything), log
  // second: a caller error never reaches the log, and a log failure rolls
  // the registration back — the subscription is only acknowledged once it
  // is both armed and durable.
  S2_RETURN_NOT_OK(engine_.Subscribe(sub));
  if (monitor_wal_ != nullptr) {
    const Status logged = monitor_wal_->Append(op);
    if (!logged.ok()) {
      (void)engine_.Unsubscribe(sub.id);
      return logged;
    }
  }
  ++next_subscription_id_;
  monitor_subscribes_->Increment();
  return sub.id;
}

Status S2Server::Unsubscribe(monitor::SubscriptionId id) {
  sync::WriterMutexLock lock(&engine_mu_);
  // Validate before logging, like AppendPoint: a cancellation of an unknown
  // id must not poison the log for every future replay.
  if (!engine_.HasSubscription(id)) {
    return Status::NotFound("S2Server: no subscription with id " +
                            std::to_string(id));
  }
  if (monitor_wal_ != nullptr) {
    monitor::MonitorOp op;
    op.op = monitor::MonitorOp::Kind::kUnsubscribe;
    op.anchor = wal_ != nullptr ? wal_->record_count() : 0;
    op.sub.id = id;
    S2_RETURN_NOT_OK(monitor_wal_->Append(op));
  }
  S2_RETURN_NOT_OK(engine_.Unsubscribe(id));
  monitor_unsubscribes_->Increment();
  return Status::OK();
}

std::vector<monitor::Alert> S2Server::PollAlerts(size_t max) {
  std::vector<monitor::Alert> alerts = alert_queue_.Poll(max);
  SyncMonitorMetrics();
  return alerts;
}

Status S2Server::AckAlerts(uint64_t upto_seq) {
  sync::WriterMutexLock lock(&engine_mu_);
  if (monitor_wal_ != nullptr) {
    monitor::MonitorOp op;
    op.op = monitor::MonitorOp::Kind::kAck;
    op.anchor = wal_ != nullptr ? wal_->record_count() : 0;
    op.ack_upto = upto_seq;
    S2_RETURN_NOT_OK(monitor_wal_->Append(op));
  }
  alert_queue_.Ack(upto_seq);
  return Status::OK();
}

void S2Server::SyncMonitorMetrics() {
  const monitor::AlertQueue::Stats stats = alert_queue_.stats();
  sync::MutexLock lock(&export_mu_);
  monitor_alerts_fired_->Increment(stats.fired - exported_fired_);
  monitor_alerts_dropped_->Increment(stats.dropped - exported_dropped_);
  monitor_alerts_delivered_->Increment(stats.delivered - exported_delivered_);
  exported_fired_ = stats.fired;
  exported_dropped_ = stats.dropped;
  exported_delivered_ = stats.delivered;
  if (stats.evaluations > exported_evals_) {
    // One sample per sync keeps the histogram a sample of evaluation cost
    // rather than a full census; the append path syncs after every append,
    // so under serial appends it is a census anyway.
    monitor_eval_latency_->Record(stats.last_eval_micros);
    exported_evals_ = stats.evaluations;
  }
}

S2Server::MonitorInfo S2Server::monitor_info() {
  sync::ReaderMutexLock lock(&engine_mu_);
  MonitorInfo info;
  info.wal_enabled = monitor_wal_ != nullptr;
  info.replayed_ops = replayed_monitor_ops_;
  info.replay_dropped_bytes = monitor_replay_dropped_bytes_;
  info.active_subscriptions = engine_.ActiveSubscriptionCount();
  const monitor::AlertQueue::Stats stats = alert_queue_.stats();
  info.queue_depth = stats.depth;
  info.next_seq = stats.next_seq;
  info.acked_upto = stats.acked_upto;
  info.any_acked = stats.any_acked;
  info.alerts_fired = stats.fired;
  info.alerts_dropped = stats.dropped;
  info.alerts_delivered = stats.delivered;
  info.alerts_acked = stats.acked;
  return info;
}

Status S2Server::AppendPoint(ts::SeriesId id, double value) {
  const Clock::time_point start = Clock::now();
  sync::WriterMutexLock lock(&engine_mu_);
  // Validate before logging: a caller error (bad id, non-finite value) must
  // not leave a poison record in the WAL that every future replay trips on.
  if (!std::isfinite(value)) {
    return Status::InvalidArgument("S2Server: appended value must be finite");
  }
  if (id >= engine_.size()) {
    return Status::NotFound("S2Server: no series with id " + std::to_string(id));
  }
  if (wal_ != nullptr) {
    // Durable acknowledgement first. On error the log is unchanged (WAL
    // contract) and the engine was never touched — the caller may retry.
    S2_RETURN_NOT_OK(wal_->Append({id, value}));
  }
  const Status applied = engine_.AppendPoint(id, value);
  // Even a failed apply may have moved state (the engine's rollback is
  // best-effort on disk faults), so drop the affected cache entries either
  // way — while still holding the writer lock, for the same reason as
  // AddSeries.
  cache_.InvalidateForAppend(id);
  S2_RETURN_NOT_OK(applied);
  stream_appends_->Increment();
  stream_append_latency_->Record(static_cast<uint64_t>(Since(start).count()));
  SyncMonitorMetrics();
  MaybeScheduleCompaction();
  MaybeScheduleCheckpoint();
  return Status::OK();
}

Status S2Server::Compact() {
  const Clock::time_point start = Clock::now();
  sync::WriterMutexLock lock(&engine_mu_);
  const size_t before = engine_.TotalDeltaSize();
  if (before == 0) return Status::OK();
  S2_RETURN_NOT_OK(engine_.Compact());
  // No cache invalidation: compaction moves series between tiers without
  // changing any answer (the two-tier search is exact).
  stream_compactions_->Increment();
  stream_compacted_series_->Increment(before - engine_.TotalDeltaSize());
  stream_compaction_latency_->Record(
      static_cast<uint64_t>(Since(start).count()));
  return Status::OK();
}

void S2Server::MaybeScheduleCompaction() {
  if (maintenance_ == nullptr || options_.compaction_threshold == 0) return;
  // The caller holds the exclusive engine lock, so this delta-size snapshot
  // and the inflight-flag transition are one atomic scheduling step — no
  // append can interleave between the check and the claim.
  if (engine_.TotalDeltaSize() < options_.compaction_threshold) return;
  // At most one background compaction in flight. Appends that cross the
  // threshold while one runs skip scheduling here; BackgroundCompaction's
  // locked re-check before releasing the flag picks their delta up.
  if (compaction_inflight_.exchange(true, std::memory_order_acq_rel)) return;
  const bool submitted =
      maintenance_->Submit([this] { BackgroundCompaction(); });
  if (!submitted) {
    compaction_inflight_.store(false, std::memory_order_release);
  }
}

void S2Server::BackgroundCompaction() {
  for (;;) {
    // Errors are not fatal to serving: the delta tier keeps answering
    // queries exactly; the next threshold crossing retries the merge.
    const Status status = Compact();
    // Release the flag only after re-reading the delta size under the same
    // lock appends take their snapshot under. Every threshold-crossing
    // append now either observes the flag cleared (and schedules) or has
    // its delta observed by this re-check (and compacted by the next lap) —
    // previously the flag was cleared unlocked after Compact(), and a burst
    // whose final appends landed mid-compaction left the delta above
    // threshold forever once appends stopped.
    sync::WriterMutexLock lock(&engine_mu_);
    if (!status.ok() ||
        engine_.TotalDeltaSize() < options_.compaction_threshold) {
      compaction_inflight_.store(false, std::memory_order_release);
      return;
    }
  }
}

Status S2Server::CaptureSnapshot(
    ckpt::EngineSnapshot* snapshot, std::vector<uint64_t>* shard_checksums,
    std::vector<ckpt::SegmentMeta>* data_segments,
    std::vector<ckpt::SegmentMeta>* monitor_segments) {
  sync::WriterMutexLock lock(&engine_mu_);
  if (wal_ == nullptr) {
    return Status::InvalidArgument(
        "S2Server: checkpointing requires an open WAL");
  }
  // Flush the open fsync group first: with `sync_every > 1`
  // `record_count()` includes records whose durability is still pending,
  // and a snapshot anchored past the durable point would make recovery
  // demand WAL records that never hit disk.
  S2_RETURN_NOT_OK(wal_->Sync());
  snapshot->anchor_appends = wal_->record_count();
  snapshot->anchor_monitor_ops =
      monitor_wal_ != nullptr ? monitor_wal_->record_count() : 0;
  snapshot->next_subscription_id = next_subscription_id_;
  const size_t n = engine_.size();
  snapshot->corpus.reserve(n);
  for (size_t id = 0; id < n; ++id) {
    S2_ASSIGN_OR_RETURN(const ts::TimeSeries* series,
                        engine_.Series(static_cast<ts::SeriesId>(id)));
    snapshot->corpus.push_back(*series);
  }
  snapshot->subscriptions = engine_.ListSubscriptions();
  for (size_t s = 0; s < engine_.num_shards(); ++s) {
    shard_checksums->push_back(ckpt::CheckpointStore::CorpusChecksum(
        engine_.shard(s).corpus().series()));
  }
  snapshot->alerts = alert_queue_.Snapshot();
  for (const io::walseg::SegmentInfo& seg : wal_->segments()) {
    data_segments->push_back(ckpt::SegmentMeta{seg.seq, seg.base_records});
  }
  if (monitor_wal_ != nullptr) {
    for (const io::walseg::SegmentInfo& seg : monitor_wal_->segments()) {
      monitor_segments->push_back(
          ckpt::SegmentMeta{seg.seq, seg.base_records});
    }
  }
  return Status::OK();
}

Status S2Server::DoCheckpoint() {
  const Clock::time_point start = Clock::now();
  ckpt::EngineSnapshot snapshot;
  std::vector<uint64_t> shard_checksums;
  std::vector<ckpt::SegmentMeta> data_segments;
  std::vector<ckpt::SegmentMeta> monitor_segments;
  S2_RETURN_NOT_OK(CaptureSnapshot(&snapshot, &shard_checksums,
                                   &data_segments, &monitor_segments));
  // Encode + commit off-lock: serialization and the two fsync'd renames
  // are the expensive part, and appends continue meanwhile (only this
  // maintenance thread removes segments, so the captured lists stay a
  // valid point-in-time prefix of the live state).
  // CaptureSnapshot records one checksum per shard.
  const uint64_t shard_count = shard_checksums.size();
  ckpt::Manifest manifest;
  S2_RETURN_NOT_OK(checkpoint_store_->Commit(
      snapshot, shard_count, std::move(shard_checksums),
      std::move(data_segments), std::move(monitor_segments), &manifest));

  // Both recorded generations must stay replayable: GC only below the
  // *fallback* anchor (the older of the two).
  const uint64_t safe_appends = manifest.has_prev
                                    ? manifest.prev.anchor_appends
                                    : manifest.current.anchor_appends;
  const uint64_t safe_monitor_ops = manifest.has_prev
                                        ? manifest.prev.anchor_monitor_ops
                                        : manifest.current.anchor_monitor_ops;
  {
    sync::WriterMutexLock lock(&engine_mu_);
    last_checkpoint_records_ = snapshot.anchor_appends;
    last_checkpoint_generation_ = manifest.current.generation;
    last_checkpoint_anchor_appends_ = snapshot.anchor_appends;
    last_checkpoint_anchor_monitor_ops_ = snapshot.anchor_monitor_ops;
    if (options_.checkpoint_gc && wal_ != nullptr) {
      S2_ASSIGN_OR_RETURN(size_t removed,
                          wal_->RemoveObsoleteSegments(safe_appends));
      checkpoint_gc_segments_->Increment(removed);
      if (monitor_wal_ != nullptr) {
        S2_ASSIGN_OR_RETURN(
            size_t monitor_removed,
            monitor_wal_->RemoveObsoleteSegments(safe_monitor_ops));
        checkpoint_gc_segments_->Increment(monitor_removed);
      }
    }
  }
  if (options_.checkpoint_gc) {
    S2_ASSIGN_OR_RETURN(size_t snapshots_removed,
                        checkpoint_store_->GarbageCollectSnapshots(manifest));
    checkpoint_gc_snapshots_->Increment(snapshots_removed);
  }
  checkpoint_count_->Increment();
  checkpoint_latency_->Record(static_cast<uint64_t>(Since(start).count()));
  return Status::OK();
}

Status S2Server::Checkpoint() {
  if (checkpoint_store_ == nullptr) {
    return Status::InvalidArgument(
        "S2Server: checkpointing is not enabled (checkpoint_enabled + "
        "wal_path)");
  }
  if (checkpoint_inflight_.exchange(true, std::memory_order_acq_rel)) {
    return Status::Unavailable("S2Server: checkpoint already in flight");
  }
  const Status status = DoCheckpoint();
  if (!status.ok()) checkpoint_failures_->Increment();
  checkpoint_inflight_.store(false, std::memory_order_release);
  return status;
}

void S2Server::MaybeScheduleCheckpoint() {
  if (maintenance_ == nullptr || checkpoint_store_ == nullptr ||
      wal_ == nullptr) {
    return;
  }
  // Caller holds the exclusive lock: the records-since-anchor snapshot
  // and the inflight transition form one atomic scheduling step.
  const uint64_t since = wal_->record_count() - last_checkpoint_records_;
  const bool due =
      (options_.checkpoint_every_appends > 0 &&
       since >= options_.checkpoint_every_appends) ||
      (options_.checkpoint_every_bytes > 0 &&
       since * stream::Wal::kRecordBytes >= options_.checkpoint_every_bytes);
  if (!due) return;
  if (checkpoint_inflight_.exchange(true, std::memory_order_acq_rel)) return;
  const bool submitted =
      maintenance_->Submit([this] { BackgroundCheckpoint(); });
  if (!submitted) {
    checkpoint_inflight_.store(false, std::memory_order_release);
  }
}

void S2Server::BackgroundCheckpoint() {
  // Errors are not fatal to serving: the WAL still covers everything, and
  // the next threshold crossing retries. The counter is the observable.
  const Status status = DoCheckpoint();
  if (!status.ok()) checkpoint_failures_->Increment();
  checkpoint_inflight_.store(false, std::memory_order_release);
}

S2Server::CheckpointInfo S2Server::checkpoint_info() {
  sync::ReaderMutexLock lock(&engine_mu_);
  CheckpointInfo info;
  info.enabled = checkpoint_store_ != nullptr;
  info.generation = last_checkpoint_generation_;
  info.anchor_appends = last_checkpoint_anchor_appends_;
  info.anchor_monitor_ops = last_checkpoint_anchor_monitor_ops_;
  info.recovered_from_checkpoint = recovered_from_checkpoint_;
  info.recovered_from_fallback = recovered_from_fallback_;
  info.recovery_anchor_appends = recovery_anchor_appends_;
  info.recovery_anchor_monitor_ops = recovery_anchor_monitor_ops_;
  return info;
}

void S2Server::Shutdown() {
  scheduler_->Shutdown();
  if (maintenance_ != nullptr) maintenance_->Shutdown();
  // Flush an open WAL fsync group: with `wal_sync_every > 1` the last
  // `< sync_every` acknowledged appends are not yet durable, and a clean
  // shutdown must not lose what only a crash may.
  sync::WriterMutexLock lock(&engine_mu_);
  if (wal_ != nullptr) (void)wal_->Sync();
}

S2Server::ApproxInfo S2Server::approx_info() {
  sync::ReaderMutexLock lock(&engine_mu_);
  ApproxInfo info;
  for (size_t s = 0; s < engine_.num_shards(); ++s) {
    const approx::SummaryIndex* summary = engine_.shard(s).summary();
    if (summary == nullptr) return ApproxInfo{};
    if (s == 0) {
      info.enabled = true;
      info.summary_dims = summary->config().dims;
      info.summary_cells = summary->config().cells;
      info.config_fingerprint = summary->config().Fingerprint();
    }
    info.summary_bytes += summary->SummaryBytes();
    info.indexed_series += summary->size();
  }
  return info;
}

const core::S2Engine& S2Server::engine() const {
  S2_CHECK(engine_.num_shards() == 1)
      << "S2Server::engine() on a server of " << engine_.num_shards()
      << " shards; use sharded()";
  return engine_.shard(0);
}

S2Server::StreamInfo S2Server::stream_info() {
  sync::ReaderMutexLock lock(&engine_mu_);
  StreamInfo info;
  info.wal_enabled = wal_ != nullptr;
  info.replayed_records = replayed_records_;
  info.replay_dropped_bytes = replay_dropped_bytes_;
  info.replay_time = replay_time_;
  info.delta_size = engine_.TotalDeltaSize();
  info.append_count = engine_.TotalAppendCount();
  info.compaction_count = engine_.TotalCompactionCount();
  return info;
}

}  // namespace s2::service
