// Workload `ingest`: 4,096 series generated for more days than the 256-day
// window. The server is built on the first 256 days; the later days are
// streamed day-major (one point per series per day) through AppendPoint with
// the WAL synced on every append, background compaction at the default
// threshold, 256 standing burst subscriptions polled and acknowledged at
// fixed points, a synchronous Checkpoint() at each day boundary and a kNN
// read every 32 appends. A fixed tail of appends follows the last
// checkpoint, then Shutdown and Recover. The write path does the work:
// stream WAL, window slide and feature recompute, burst table rewrite,
// delta moves, monitor evaluation, ckpt and io.
#include <cstdio>
#include <map>

#include "checks.h"
#include "ckpt/checkpoint_store.h"
#include "counting_env.h"
#include "layers.h"
#include "querylog/corpus_generator.h"
#include "serve.h"
#include "stream/wal.h"

namespace s2bench {

namespace {

using s2::core::BurstHorizon;
using s2::service::QueryRequest;
using s2::service::RequestKind;

constexpr uint32_t kSeries = 4096;
constexpr size_t kWindow = 256;
constexpr size_t kExtraDays = 24;       // days generated past the window
// A round is two days: one day of appends takes about as long as a run
// measures, and host conditions moved single-day runs by up to 10%.
constexpr size_t kDaysPerRound = 2;
constexpr size_t kReadEvery = 32;       // appends per kNN read
constexpr size_t kReadOffset = 16;      // reads sit between compactions
// The corpus is fixed: its burst records set the append cost, and one
// corpus keeps runs with different seeds comparable. The workload seed
// draws the order of the series within each day, the subscribed series,
// the read ids and the recovery sample.
constexpr uint64_t kCorpusSeed = 2006;
constexpr size_t kPollEvery = 512;      // appends per alert poll + ack
constexpr size_t kSubscriptions = 256;
constexpr size_t kTail = 256;           // appends after the last checkpoint
constexpr size_t kRecoverySample = 8;
constexpr size_t kWarmupReads = 16;
// Standing burst queries fire when the 3-day average reaches 1.2x the
// window mean and re-arm below 1.1x, so that every day of appends raises
// and retires alerts on a share of the subscribed series.
constexpr uint32_t kAlertWindow = 3;
constexpr double kEnterRatio = 1.2;
constexpr double kExitRatio = 1.1;

/// One read during the phase, as served.
struct Read {
  uint64_t at = 0;             // appends acknowledged before it
  uint32_t id = 0;
  bool approx = false;
  std::vector<s2::index::Neighbor> neighbors;
  s2::approx::QualityBound bound;
  double wall_ms = 0.0;
  double cpu_ms = 0.0;
  double exec_ms = 0.0;        // QueryResponse::latency
};

/// The benchmark's own copy of the windows, slid as it appends.
struct Windows {
  std::vector<std::vector<double>> raw;
  std::vector<int32_t> start_day;
  Rows z;

  void Append(uint32_t id, double v) {
    std::vector<double>& w = raw[id];
    w.erase(w.begin());
    w.push_back(v);
    ++start_day[id];
    z.Set(id, ZNormalize(w));
  }
};

QueryRequest ReadRequest(uint32_t id, bool approx) {
  QueryRequest q;
  q.kind = approx ? RequestKind::kApproxKnn : RequestKind::kSimilarTo;
  q.id = id;
  q.k = kK;
  if (approx) q.max_candidates = kMaxCandidates;
  return q;
}

/// Answers of the fixed recovery sample: exact kNN, periods, bursts.
std::vector<s2::service::QueryResponse> SampleAnswers(
    s2::service::S2Server* server, const std::vector<uint32_t>& ids) {
  std::vector<s2::service::QueryResponse> out;
  for (uint32_t id : ids) {
    for (RequestKind kind : {RequestKind::kSimilarTo, RequestKind::kPeriodsOf,
                             RequestKind::kBurstsOf}) {
      QueryRequest q;
      q.kind = kind;
      q.id = id;
      q.k = kK;
      out.push_back(server->Execute(q));
    }
  }
  return out;
}

std::string CheckSample(const std::vector<s2::service::QueryResponse>& answers,
                        const std::vector<uint32_t>& ids, const Windows& w,
                        const s2::core::S2Engine::Options& eo) {
  for (size_t i = 0; i < ids.size(); ++i) {
    const uint32_t id = ids[i];
    const auto& knn = answers[3 * i];
    const auto& periods = answers[3 * i + 1];
    const auto& bursts = answers[3 * i + 2];
    for (const auto* a : {&knn, &periods, &bursts}) {
      if (!a->status.ok()) return a->status.ToString();
    }
    std::string e = CheckExactKnn(knn.neighbors, BruteForceKnn(w.z, w.z.row(id), kK, id), id,
                                  [&](uint32_t o) { return Euclidean(w.z.row(id), w.z.row(o), kWindow); });
    if (e.empty()) e = CheckPeriods(periods.periods, w.raw[id], eo.period.false_alarm_probability);
    if (e.empty()) {
      e = CheckBursts(bursts.bursts, w.raw[id], w.start_day[id], eo.long_burst.window,
                      eo.long_burst.cutoff_stds);
    }
    if (!e.empty()) return "series " + std::to_string(id) + ": " + e;
  }
  return "";
}

}  // namespace

RunResult RunIngest(const RunConfig& cfg) {
  RunResult r;
  Tracer tracer(cfg.trace);

  // --- Inputs ---------------------------------------------------------------
  s2::qlog::CorpusSpec spec;
  spec.num_series = kSeries;
  spec.n_days = kWindow + kExtraDays;
  spec.seed = kCorpusSeed;
  const s2::ts::Corpus full = s2::qlog::GenerateCorpus(spec).value();
  s2::ts::Corpus base;
  Windows w;
  w.raw.resize(kSeries);
  w.start_day.resize(kSeries);
  w.z.len = kWindow;
  w.z.data.resize(static_cast<size_t>(kSeries) * kWindow);
  std::vector<std::vector<double>> later(kSeries);
  for (uint32_t i = 0; i < kSeries; ++i) {
    const s2::ts::TimeSeries& s = full.at(i);
    s2::ts::TimeSeries head;
    head.name = s.name;
    head.start_day = s.start_day;
    head.values.assign(s.values.begin(), s.values.begin() + kWindow);
    later[i].assign(s.values.begin() + kWindow, s.values.end());
    w.raw[i] = head.values;
    w.start_day[i] = head.start_day;
    w.z.Set(i, ZNormalize(head.values));
    base.Add(std::move(head));
  }
  const Windows w0 = w;  // the base windows, replayed after the phase
  s2::ts::Corpus base_for_recover = base;

  Draw draw(SubSeed(cfg.seed, 2));
  const std::vector<uint32_t> perm = draw.Permutation(kSeries);
  std::vector<std::vector<uint32_t>> order(kExtraDays);
  for (auto& day_order : order) day_order = draw.Permutation(kSeries);
  std::vector<uint32_t> subscribed(perm.begin(), perm.begin() + kSubscriptions);
  std::vector<uint32_t> sample_ids(perm.end() - kRecoverySample, perm.end());
  const size_t max_reads = (kExtraDays * kSeries) / kReadEvery + 1;
  std::vector<uint32_t> read_ids(max_reads);
  for (uint32_t& id : read_ids) id = draw.Below(kSeries);
  std::vector<uint32_t> warm_ids(kWarmupReads);
  for (uint32_t& id : warm_ids) id = draw.Below(kSeries);

  std::vector<Read> reads;
  reads.reserve(max_reads);
  for (size_t i = 0; i < max_reads; ++i) {
    reads.emplace_back();
    reads.back().neighbors.reserve(kK);
  }
  std::vector<s2::monitor::Alert> polled;
  polled.reserve(kExtraDays * kSubscriptions * 2);
  std::vector<double> append_wall(kExtraDays * kSeries);
  const double rss_before = RssMb();

  // --- Set-up ---------------------------------------------------------------
  CountingEnv env(s2::io::Env::Default());
  s2::core::S2Engine::Options engine_options;
  s2::service::S2Server::Options options;
  options.shards = 1;
  options.scheduler.threads = 1;
  options.wal_path = cfg.work_dir + "/data.wal";
  options.wal_env = &env;
  options.wal_sync_every = 1;
  options.checkpoint_enabled = true;
  const double setup_c0 = ProcessCpuSeconds();
  auto built = s2::service::S2Server::Build(std::move(base), engine_options, options);
  const double setup_s = ProcessCpuSeconds() - setup_c0;
  if (!built.ok()) {
    r.Fail("S2Server::Build: " + built.status().ToString());
    return r;
  }
  std::unique_ptr<s2::service::S2Server> server = std::move(built).value();

  std::vector<SubscriptionModel> models;
  std::map<uint32_t, size_t> model_of;  // series -> model index
  for (uint32_t id : subscribed) {
    s2::monitor::Subscription sub;
    sub.kind = s2::monitor::SubscriptionKind::kBurstThreshold;
    sub.burst.window = kAlertWindow;
    sub.burst.enter_ratio = kEnterRatio;
    sub.burst.exit_ratio = kExitRatio;
    sub.series = id;
    auto sid = server->Subscribe(sub);
    if (!sid.ok()) {
      r.Fail("Subscribe: " + sid.status().ToString());
      return r;
    }
    SubscriptionModel m;
    m.id = sid.value();
    m.series = id;
    m.window = sub.burst.window;
    m.enter = sub.burst.enter_ratio;
    m.exit = sub.burst.exit_ratio;
    m.engaged = BurstRatio(w.raw[id], m.window) >= m.enter;  // silent arming
    model_of[id] = models.size();
    models.push_back(m);
  }

  // Traced run only: a twin engine and a twin WAL fed the same appends.
  std::unique_ptr<s2::core::S2Engine> twin;
  std::unique_ptr<s2::stream::Wal> twin_wal;
  if (tracer.enabled()) {
    twin = std::make_unique<s2::core::S2Engine>(
        s2::core::S2Engine::Build(base_for_recover, engine_options).value());
    s2::stream::Wal::Options wal_options;
    wal_options.sync_every = 1;
    twin_wal = s2::stream::Wal::Open(
                   s2::io::Env::Default(), cfg.work_dir + "/twin.wal",
                   [](const s2::stream::WalRecord&) { return s2::Status::OK(); },
                   nullptr, wal_options)
                   .value();
  }

  for (uint32_t id : warm_ids) {
    (void)Serve(server.get(), ReadRequest(id, false));
    (void)Serve(server.get(), ReadRequest(id, true));
  }

  // --- Timed phase: whole rounds of two days until the time is up ----------
  uint64_t acked = 0;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  size_t nreads = 0;
  size_t days = 0;
  uint64_t polled_at = 0;  // appends acknowledged at the last poll
  std::vector<double> poll_ms, ckpt_ms, ckpt_bytes, delta_sizes, overhead_ms;
  LayerCounts lc;
  const auto monitor0 = server->alerts().stats();
  const uint64_t compactions0 = server->stream_info().compaction_count;
  const IoCounts io0 = env.counts();
  const auto phase_us0 = ProcessUserSys();
  const double phase_c0 = ProcessCpuSeconds();
  const double phase_t0 = WallSeconds();
  while (days + kDaysPerRound < kExtraDays &&
         (days % kDaysPerRound != 0 || days == 0 || WallSeconds() - phase_t0 < cfg.seconds)) {
    for (size_t j = 0; j < kSeries; ++j) {
      const uint32_t id = order[days][j];
      const double v = later[id][days];
      const uint64_t n = acked;
      ++attempted;
      const int64_t root = tracer.Open("append", n, -1);
      double server_ms = 0.0;
      {
        Scope s(&tracer, "service.append_point", n, root);
        const double t0 = WallSeconds();
        const s2::Status st = server->AppendPoint(id, v);
        server_ms = 1e3 * (WallSeconds() - t0);
        if (st.ok()) {
          ++acked;
        } else {
          ++failed;
          r.Fail("AppendPoint(" + std::to_string(id) + "): " + st.ToString());
        }
      }
      append_wall[n] = server_ms;
      if (twin != nullptr) {
        double engine_ms = 0.0, wal_ms = 0.0;
        {
          Scope s(&tracer, "stream.engine_append", n, root);
          const double t0 = WallSeconds();
          (void)twin->AppendPoint(id, v);
          engine_ms = 1e3 * (WallSeconds() - t0);
        }
        {
          Scope s(&tracer, "stream.wal_append", n, root);
          const double t0 = WallSeconds();
          (void)twin_wal->Append({id, v});
          wal_ms = 1e3 * (WallSeconds() - t0);
        }
        if (twin->delta_size() >= options.compaction_threshold) {
          Scope s(&tracer, "stream.compact", n, root);
          (void)twin->Compact();
        }
        overhead_ms.push_back(server_ms - engine_ms - wal_ms);
      }
      tracer.Close(root);

      if (j % kReadEvery == kReadOffset) {
        Read& rd = reads[nreads];
        rd.at = acked;
        rd.id = read_ids[nreads];
        rd.approx = nreads % 2 == 1;
        ++attempted;
        const uint64_t req = (1ull << 40) | nreads;
        const int64_t rroot = tracer.Open("request", req, -1);
        Served s;
        {
          Scope call(&tracer, "service.call", req, rroot);
          s = Serve(server.get(), ReadRequest(rd.id, rd.approx));
        }
        if (!s.ok) {
          ++failed;
          r.Fail("read of " + std::to_string(rd.id) + ": " + s.response.status.ToString());
        }
        rd.neighbors = s.response.neighbors;
        rd.bound = s.response.quality;
        rd.wall_ms = s.wall_ms;
        rd.cpu_ms = s.cpu_ms;
        rd.exec_ms = 1e-3 * static_cast<double>(s.response.latency.count());
        if (twin != nullptr) {
          delta_sizes.push_back(static_cast<double>(server->stream_info().delta_size));
          if (rd.approx) {
            TraceApproxEngine(*twin, rd.id, req, rroot, &tracer, &lc);
          } else {
            TraceExactEngine(*twin, rd.id, req, rroot, &tracer, &lc);
          }
        }
        tracer.Close(rroot);
        ++nreads;
      }
      if (j % kPollEvery == kPollEvery - 1) {
        ++attempted;
        const double t0 = WallSeconds();
        Scope s(&tracer, "monitor.poll_ack", acked, -1);
        std::vector<s2::monitor::Alert> got = server->PollAlerts(options.alert_queue_capacity);
        if (!got.empty()) {
          const s2::Status st = server->AckAlerts(got.back().seq);
          if (!st.ok()) {
            ++failed;
            r.Fail("AckAlerts: " + st.ToString());
          }
        }
        polled.insert(polled.end(), got.begin(), got.end());
        polled_at = acked;
        poll_ms.push_back(1e3 * (WallSeconds() - t0));
      }
    }
    ++attempted;
    {
      const uint64_t bytes0 = env.counts().bytes_written;
      const double t0 = WallSeconds();
      Scope s(&tracer, "ckpt.checkpoint", acked, -1);
      const s2::Status st = server->Checkpoint();
      if (!st.ok()) {
        ++failed;
        r.Fail("Checkpoint: " + st.ToString());
      }
      ckpt_ms.push_back(1e3 * (WallSeconds() - t0));
      ckpt_bytes.push_back(static_cast<double>(env.counts().bytes_written - bytes0));
    }
    ++days;
  }
  const double phase_wall = WallSeconds() - phase_t0;
  const double phase_cpu = ProcessCpuSeconds() - phase_c0;
  ReportUserSys(&r, phase_us0);
  const double mem_mb = HwmMb() - rss_before;
  const IoCounts io1 = env.counts();
  const auto monitor1 = server->alerts().stats();
  const uint64_t compactions1 = server->stream_info().compaction_count;
  // Appends run on this thread and background compaction leaves the burst
  // tables alone, so they can be read here without the engine lock.
  const double table_records = static_cast<double>(
      server->engine().burst_table(BurstHorizon::kLongTerm).size() +
      server->engine().burst_table(BurstHorizon::kShortTerm).size());
  const uint64_t phase_appends = acked;
  const double summary_bytes = static_cast<double>(server->approx_info().summary_bytes);
  const double cache_hits = static_cast<double>(server->cache().hits());
  const double cache_misses = static_cast<double>(server->cache().misses());
  const double hit_ratio = cache_hits + cache_misses > 0 ? cache_hits / (cache_hits + cache_misses) : 0.0;
  r.attempted = attempted;
  r.failed = failed;

  // --- Tail, shutdown, recovery ---------------------------------------------
  for (size_t j = 0; j < kTail; ++j) {
    const uint32_t id = order[days][j];
    if (server->AppendPoint(id, later[id][days]).ok()) {
      ++acked;
    } else {
      r.Fail("tail AppendPoint failed");
    }
  }
  const uint64_t append_count = server->stream_info().append_count;
  const std::vector<s2::service::QueryResponse> before = SampleAnswers(server.get(), sample_ids);
  server->Shutdown();
  server.reset();

  double load_ms = 0.0;
  {
    Scope s(&tracer, "ckpt.load", 0, -1);
    const double t0 = WallSeconds();
    s2::ckpt::CheckpointStore store(&env, options.wal_path);
    if (!store.Load().ok()) r.Fail("CheckpointStore::Load failed on the final directory");
    load_ms = 1e3 * (WallSeconds() - t0);
  }
  const double rec_c0 = ProcessCpuSeconds();
  const double rec_t0 = WallSeconds();
  auto recovered = s2::service::S2Server::Recover(std::move(base_for_recover), engine_options, options);
  const double recover_s = WallSeconds() - rec_t0;
  const double recover_cpu_s = ProcessCpuSeconds() - rec_c0;
  if (!recovered.ok()) {
    r.Fail("S2Server::Recover: " + recovered.status().ToString());
    return r;
  }
  server = std::move(recovered).value();
  const auto ckpt_info = server->checkpoint_info();
  const auto stream_after = server->stream_info();
  const std::vector<s2::service::QueryResponse> after = SampleAnswers(server.get(), sample_ids);
  server->Shutdown();

  // --- Checks ---------------------------------------------------------------
  if (append_count != acked) {
    r.Fail("stream_info().append_count " + std::to_string(append_count) +
           " != acknowledged appends " + std::to_string(acked));
  }
  if (std::string e = CheckRecoveryCount(ckpt_info.recovery_anchor_appends,
                                         stream_after.replayed_records, acked);
      !e.empty()) {
    r.Fail(e);
  }
  if (!ckpt_info.recovered_from_checkpoint) r.Fail("Recover did not start from a checkpoint");
  for (size_t i = 0; i < before.size(); ++i) {
    if (Fingerprint(before[i]) != Fingerprint(after[i])) {
      r.Fail("recovered answer " + std::to_string(i) + " differs from the answer before shutdown");
      break;
    }
  }

  // Replay the appends over the base windows; check each read at the point
  // it was served and simulate the standing subscriptions.
  w = w0;
  std::vector<s2::monitor::Alert> expected;
  uint64_t seq = monitor0.next_seq;
  std::vector<double> recall;
  std::vector<double> knn_cpu, knn_wall, aknn_cpu, aknn_wall;
  size_t next_read = 0;
  auto check_reads_at = [&](uint64_t count) {
    while (next_read < nreads && reads[next_read].at == count) {
      const Read& rd = reads[next_read++];
      const auto truth = BruteForceKnn(w.z, w.z.row(rd.id), kK, rd.id);
      const auto dist = [&](uint32_t o) { return Euclidean(w.z.row(rd.id), w.z.row(o), kWindow); };
      std::string e;
      if (rd.approx) {
        double rc = 0.0;
        e = CheckApproxKnn(rd.neighbors, rd.bound, truth, rd.id, dist, &rc);
        recall.push_back(rc);
        aknn_cpu.push_back(rd.cpu_ms);
        aknn_wall.push_back(rd.wall_ms);
      } else {
        e = CheckExactKnn(rd.neighbors, truth, rd.id, dist);
        knn_cpu.push_back(rd.cpu_ms);
        knn_wall.push_back(rd.wall_ms);
      }
      if (!e.empty()) {
        r.Fail(std::string(rd.approx ? "approximate" : "exact") + " kNN of " +
               std::to_string(rd.id) + " after " + std::to_string(rd.at) + " appends: " + e);
      }
    }
  };
  uint64_t count = 0;
  for (size_t d = 0; d <= days; ++d) {
    for (size_t j = 0; j < kSeries && count < acked; ++j) {
      const uint32_t id = order[d][j];
      w.Append(id, later[id][d]);
      ++count;
      const auto it = model_of.find(id);
      if (it != model_of.end() && count <= polled_at) {
        StepSubscription(&models[it->second], w.raw[id],
                         w.start_day[id] + static_cast<int64_t>(kWindow) - 1, &seq,
                         &expected);
      }
      check_reads_at(count);
    }
  }
  if (next_read != nreads) r.Fail("not every read was checked");
  if (std::string e = CheckAlerts(polled, expected, monitor0.next_seq); !e.empty()) r.Fail(e);
  if (std::string e = CheckSample(after, sample_ids, w, engine_options); !e.empty()) {
    r.Fail("recovered sample: " + e);
  }
  r.report["checks.reads"] = static_cast<double>(nreads);
  r.report["checks.alerts"] = static_cast<double>(polled.size());
  r.report["checks.recovery_sample"] = static_cast<double>(3 * sample_ids.size());

  // --- Metrics --------------------------------------------------------------
  const double appends = static_cast<double>(std::max<uint64_t>(phase_appends, 1));
  r.end_to_end["setup_s"] = setup_s;
  r.end_to_end["mem_mb"] = mem_mb;
  r.end_to_end["cpu_per_op_ms"] = 1e3 * phase_cpu / appends;
  r.report["ops_per_s"] = (static_cast<double>(phase_appends) / phase_wall);
  r.report["knn_ms"] = (Percentile(knn_wall, 50));
  r.end_to_end["aknn_recall"] = Mean(recall);

  append_wall.resize(phase_appends);
  r.report["days"] = static_cast<double>(days);
  r.report["phase_wall_s"] = phase_wall;
  r.report["recover_s"] = recover_s;
  r.report["recover_cpu_s"] = recover_cpu_s;
  r.report["write_bytes_per_append"] =
      static_cast<double>(io1.bytes_written - io0.bytes_written) / appends;
  r.report["knn_cpu_ms"] = Percentile(knn_cpu, 50);
  r.report["aknn_cpu_ms"] = Percentile(aknn_cpu, 50);
  ReportPercentiles(&r, "wall.append", append_wall);
  ReportPercentiles(&r, "wall.knn", knn_wall);
  ReportPercentiles(&r, "wall.aknn", aknn_wall);
  ReportPercentiles(&r, "wall.poll_ack", poll_ms);
  ReportPercentiles(&r, "wall.checkpoint", ckpt_ms);

  auto& L = r.layers;
  const double per_k = 1000.0 / appends;
  std::vector<double> read_queue_ms, read_exec_ms;
  size_t certified = 0, approx_reads = 0;
  for (size_t i = 0; i < nreads; ++i) {
    read_queue_ms.push_back(reads[i].wall_ms - reads[i].exec_ms);
    read_exec_ms.push_back(reads[i].exec_ms);
    if (reads[i].approx) {
      ++approx_reads;
      certified += reads[i].bound.guaranteed_exact ? 1 : 0;
    }
  }
  L["service.queue_wait_ms"] = Percentile(read_queue_ms, 50);
  L["service.exec_ms"] = Percentile(read_exec_ms, 50);
  L["service.cache_hit_ratio"] = hit_ratio;
  L["service.append_overhead_ms"] = Percentile(overhead_ms, 50);
  L["approx.certified_ratio"] = approx_reads > 0 ? static_cast<double>(certified) / static_cast<double>(approx_reads) : 0.0;
  L["approx.summary_bytes"] = summary_bytes;
  L["stream.engine_append_cpu_ms"] = Percentile(tracer.CpuMs("stream.engine_append"), 50);
  L["stream.wal_append_ms"] = Percentile(tracer.WallMs("stream.wal_append"), 50);
  L["stream.compact_cpu_ms"] = Percentile(tracer.CpuMs("stream.compact"), 50);
  L["stream.compactions"] = static_cast<double>(compactions1 - compactions0) * per_k;
  L["stream.delta_size"] = Mean(delta_sizes);
  L["monitor.alerts_fired"] = static_cast<double>(monitor1.fired - monitor0.fired) * per_k;
  L["monitor.evaluations"] = static_cast<double>(monitor1.evaluations - monitor0.evaluations) * per_k;
  L["monitor.poll_ack_ms"] = Percentile(poll_ms, 50);
  L["ckpt.checkpoint_ms"] = Percentile(ckpt_ms, 50);
  L["ckpt.snapshot_bytes"] = Percentile(ckpt_bytes, 50);
  L["ckpt.load_ms"] = load_ms;
  L["ckpt.replayed_records"] = static_cast<double>(stream_after.replayed_records);
  L["io.bytes_written"] = static_cast<double>(io1.bytes_written - io0.bytes_written) / appends;
  L["io.syncs"] = static_cast<double>(io1.syncs - io0.syncs) / appends;
  L["io.files_created"] = static_cast<double>(io1.files_created - io0.files_created) / static_cast<double>(std::max<size_t>(days, 1));
  L["io.renames"] = static_cast<double>(io1.renames - io0.renames) / static_cast<double>(std::max<size_t>(days, 1));
  L["burst.table_records"] = table_records;
  FillSearchLayers(tracer, lc, &r);
  if (tracer.enabled() && !tracer.Write(cfg.trace_path)) {
    std::fprintf(stderr, "s2bench: could not write %s\n", cfg.trace_path.c_str());
  }
  return r;
}

}  // namespace s2bench
