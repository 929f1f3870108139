// Workload `interactive`: 4,096 series x 256 days on one shard, result cache
// on with fewer entries than there are distinct requests, two closed-loop
// clients against two server workers. Ids are Zipf-skewed (s = 1), so a head
// of popular series repeats as in query logs; most requests are periods,
// bursts, query-by-burst and approximate kNN; exact kNN, whose miss costs
// milliseconds, is 2%. About 44% of the requests hit the cache and most
// misses cost tens to hundreds of microseconds, so the scheduler hand-off,
// the cache and the engine lock carry a large part of the CPU.
#include <atomic>
#include <cstdio>
#include <map>
#include <thread>

#include "checks.h"
#include "layers.h"
#include "querylog/corpus_generator.h"
#include "serve.h"

namespace s2bench {

namespace {

using s2::core::BurstHorizon;
using s2::service::QueryRequest;
using s2::service::RequestKind;

constexpr uint32_t kSeries = 4096;
constexpr size_t kDays = 256;
constexpr size_t kClients = 2;
constexpr size_t kWorkers = 2;
constexpr size_t kCacheEntries = 512;
constexpr double kZipfS = 1.0;
constexpr size_t kRoundSize = 64;          // requests per client round
constexpr size_t kMaxRounds = 4096;        // per client
constexpr size_t kWarmupRequests = 2048;   // per client, before timing
// Traced run: every kSampleEvery-th request of a client is repeated layer by
// layer.
constexpr size_t kSampleEvery = 8;
// The corpus and the popularity order of its series are fixed: which series
// sit near the head of the Zipf law decides how often their exact kNN, the
// costliest verb, misses the cache, and a seeded order moved the CPU per
// request by 13% between quiet runs. The workload seed draws the request
// streams.
constexpr uint64_t kCorpusSeed = 2005;
constexpr uint64_t kPopularitySeed = 2005;

/// Zipf(s) over ranks 0..n-1 (rank r drawn with weight 1/(r+1)^s).
class Zipf {
 public:
  Zipf(uint32_t n, double s) : cdf_(n) {
    double total = 0.0;
    for (uint32_t r = 0; r < n; ++r) {
      total += 1.0 / std::pow(static_cast<double>(r + 1), s);
      cdf_[r] = total;
    }
    for (double& c : cdf_) c /= total;
  }
  uint32_t Sample(Draw* d) const {
    const double u = d->Unit();
    const auto it = std::upper_bound(cdf_.begin(), cdf_.end(), u);
    return static_cast<uint32_t>(
        std::min<size_t>(static_cast<size_t>(it - cdf_.begin()), cdf_.size() - 1));
  }

 private:
  std::vector<double> cdf_;
};

/// One pre-drawn request.
struct Draft {
  RequestKind kind = RequestKind::kPeriodsOf;
  BurstHorizon horizon = BurstHorizon::kLongTerm;
  uint32_t id = 0;
};

/// The verb mix: share of each request kind.
Draft DrawRequest(Draw* d, const Zipf& zipf, const std::vector<uint32_t>& rank_to_id) {
  Draft q;
  q.id = rank_to_id[zipf.Sample(d)];
  const double u = d->Unit();
  if (u < 0.30) {
    q.kind = RequestKind::kPeriodsOf;
  } else if (u < 0.55) {
    q.kind = RequestKind::kBurstsOf;
  } else if (u < 0.70) {
    q.kind = RequestKind::kQueryByBurst;
  } else if (u < 0.98) {
    q.kind = RequestKind::kApproxKnn;
  } else {
    q.kind = RequestKind::kSimilarTo;
  }
  q.horizon = d->Unit() < 0.6 ? BurstHorizon::kLongTerm : BurstHorizon::kShortTerm;
  return q;
}

QueryRequest ToRequest(const Draft& q) {
  QueryRequest r;
  r.kind = q.kind;
  r.id = q.id;
  r.k = kK;
  r.horizon = q.horizon;
  if (q.kind == RequestKind::kApproxKnn) r.max_candidates = kMaxCandidates;
  return r;
}

/// Cache identity of a request: kind, id and (for burst verbs) horizon.
uint64_t KeyOf(const Draft& q) {
  const bool burst = q.kind == RequestKind::kBurstsOf || q.kind == RequestKind::kQueryByBurst;
  return (static_cast<uint64_t>(q.kind) << 40) |
         (static_cast<uint64_t>(burst ? static_cast<int>(q.horizon) : 0) << 32) | q.id;
}

/// What a client keeps of one request.
struct Record {
  uint64_t fingerprint = 0;
  float wall_ms = 0.0f;
  float exec_ms = 0.0f;
  uint8_t ok = 0;
};

struct Client {
  std::vector<Draft> stream;      // warm-up requests first, then the rounds
  std::vector<Record> records;
  size_t done = 0;                // timed requests completed
  Tracer tracer{false};
  LayerCounts lc;
};

/// Repeats one sampled request layer by layer on the single engine.
void TraceRequest(const s2::core::S2Engine& engine, const Draft& q, uint64_t req,
                  int64_t parent, Tracer* tr, LayerCounts* lc) {
  switch (q.kind) {
    case RequestKind::kPeriodsOf: {
      Scope s(tr, "period.find", req, parent);
      auto hits = engine.FindPeriods(q.id);
      if (hits.ok()) lc->period_hits += static_cast<double>(hits->size());
      ++lc->period_samples;
      break;
    }
    case RequestKind::kBurstsOf: {
      Scope s(tr, "burst.bursts_of", req, parent);
      (void)engine.BurstsOf(q.id, q.horizon);
      break;
    }
    case RequestKind::kQueryByBurst: {
      {
        Scope s(tr, "burst.qbb", req, parent);
        (void)engine.QueryByBurst(q.id, kK, q.horizon);
      }
      // The table keeps the scan count of its latest query; with two
      // clients it may be the other client's concurrent one.
      lc->records_scanned += static_cast<double>(engine.burst_table(q.horizon).last_scanned());
      ++lc->qbb_samples;
      break;
    }
    case RequestKind::kApproxKnn:
      TraceApproxEngine(engine, q.id, req, parent, tr, lc);
      break;
    case RequestKind::kSimilarTo:
      TraceExactEngine(engine, q.id, req, parent, tr, lc);
      break;
    default:
      break;
  }
}

}  // namespace

RunResult RunInteractive(const RunConfig& cfg) {
  RunResult r;

  // --- Inputs ---------------------------------------------------------------
  s2::qlog::CorpusSpec spec;
  spec.num_series = kSeries;
  spec.n_days = kDays;
  spec.seed = kCorpusSeed;
  s2::ts::Corpus corpus = s2::qlog::GenerateCorpus(spec).value();
  std::vector<std::vector<double>> raw(kSeries);
  Rows ref;
  ref.len = kDays;
  ref.data.resize(static_cast<size_t>(kSeries) * kDays);
  for (uint32_t i = 0; i < kSeries; ++i) {
    raw[i] = corpus.at(i).values;
    ref.Set(i, ZNormalize(raw[i]));
  }
  const int32_t start_day = corpus.at(0).start_day;

  Draw popularity(kPopularitySeed);
  const std::vector<uint32_t> rank_to_id = popularity.Permutation(kSeries);
  const Zipf zipf(kSeries, kZipfS);
  std::vector<Client> clients(kClients);
  for (size_t c = 0; c < kClients; ++c) {
    Draw d(SubSeed(cfg.seed, 10 + c));
    clients[c].stream.resize(kWarmupRequests + kMaxRounds * kRoundSize);
    for (Draft& q : clients[c].stream) q = DrawRequest(&d, zipf, rank_to_id);
    clients[c].records.resize(clients[c].stream.size());
    clients[c].tracer = Tracer(cfg.trace);
  }

  const double rss_before = RssMb();

  // --- Set-up ---------------------------------------------------------------
  s2::core::S2Engine::Options engine_options;
  s2::service::S2Server::Options options;
  options.shards = 1;
  options.cache_capacity = kCacheEntries;
  options.scheduler.threads = kWorkers;
  const double setup_c0 = ProcessCpuSeconds();
  auto built = s2::service::S2Server::Build(std::move(corpus), engine_options, options);
  const double setup_s = ProcessCpuSeconds() - setup_c0;
  if (!built.ok()) {
    r.Fail("S2Server::Build: " + built.status().ToString());
    return r;
  }
  std::unique_ptr<s2::service::S2Server> server = std::move(built).value();

  // --- Warm-up and timed phase ----------------------------------------------
  auto serve_one = [&](Client& cl, size_t i, size_t c) {
    const Draft& q = cl.stream[i];
    const uint64_t req = (static_cast<uint64_t>(c) << 40) | i;
    const bool sample = cl.tracer.enabled() && i >= kWarmupRequests && i % kSampleEvery == 0;
    const int64_t root = sample ? cl.tracer.Open("request", req, -1) : -1;
    Served s;
    {
      Scope call(&cl.tracer, "service.call", req, root);
      s = Serve(server.get(), ToRequest(q));
    }
    Record& rec = cl.records[i];
    rec.fingerprint = Fingerprint(s.response);
    rec.wall_ms = static_cast<float>(s.wall_ms);
    rec.exec_ms = static_cast<float>(1e-3 * static_cast<double>(s.response.latency.count()));
    rec.ok = s.ok ? 1 : 0;
    if (sample) TraceRequest(server->engine(), q, req, root, &cl.tracer, &cl.lc);
    cl.tracer.Close(root);
  };

  {
    std::vector<std::thread> threads;
    for (size_t c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        for (size_t i = 0; i < kWarmupRequests; ++i) serve_one(clients[c], i, c);
      });
    }
    for (std::thread& t : threads) t.join();
  }

  const uint64_t hits0 = server->cache().hits();
  const uint64_t misses0 = server->cache().misses();
  std::atomic<bool> go{false};
  const auto phase_us0 = ProcessUserSys();
  const double phase_c0 = ProcessCpuSeconds();
  const double phase_t0 = WallSeconds();
  {
    std::vector<std::thread> threads;
    for (size_t c = 0; c < kClients; ++c) {
      threads.emplace_back([&, c] {
        while (!go.load()) std::this_thread::yield();
        Client& cl = clients[c];
        for (size_t round = 0; round < kMaxRounds; ++round) {
          if (WallSeconds() - phase_t0 >= cfg.seconds) break;
          const size_t base = kWarmupRequests + round * kRoundSize;
          for (size_t i = base; i < base + kRoundSize; ++i) serve_one(cl, i, c);
          cl.done += kRoundSize;
        }
      });
    }
    go.store(true);
    for (std::thread& t : threads) t.join();
  }
  const double phase_wall = WallSeconds() - phase_t0;
  const double phase_cpu = ProcessCpuSeconds() - phase_c0;
  ReportUserSys(&r, phase_us0);
  const double mem_mb = HwmMb() - rss_before;
  const uint64_t hits = server->cache().hits() - hits0;
  const uint64_t misses = server->cache().misses() - misses0;

  uint64_t ops = 0;
  uint64_t failed = 0;
  std::vector<double> wall_by_kind[s2::service::kNumRequestKinds];
  std::vector<double> queue_ms, exec_ms, knn_wall;
  for (const Client& cl : clients) {
    for (size_t i = kWarmupRequests; i < kWarmupRequests + cl.done; ++i) {
      const Record& rec = cl.records[i];
      ++ops;
      if (!rec.ok) ++failed;
      wall_by_kind[static_cast<size_t>(cl.stream[i].kind)].push_back(rec.wall_ms);
      queue_ms.push_back(static_cast<double>(rec.wall_ms) - rec.exec_ms);
      exec_ms.push_back(rec.exec_ms);
    }
  }
  r.attempted = ops;
  r.failed = failed;

  // --- Checks ---------------------------------------------------------------
  // Every answer a key received (warm-up and timed, hits and misses) must be
  // the same, and one fresh answer per key must match the benchmark's own
  // computation.
  std::map<uint64_t, std::pair<Draft, uint64_t>> first;  // key -> draft, fingerprint
  size_t mismatched = 0;
  for (const Client& cl : clients) {
    for (size_t i = 0; i < kWarmupRequests + cl.done; ++i) {
      const Draft& q = cl.stream[i];
      const auto [it, fresh] = first.emplace(KeyOf(q), std::make_pair(q, cl.records[i].fingerprint));
      if (!fresh && it->second.second != cl.records[i].fingerprint) ++mismatched;
    }
  }
  if (mismatched > 0) {
    r.Fail(std::to_string(mismatched) + " cached answers differ from the answer the same request got on its miss");
  }
  std::vector<Draft> keys;
  std::vector<uint64_t> seen;
  for (const auto& [key, entry] : first) {
    keys.push_back(entry.first);
    seen.push_back(entry.second);
  }
  std::vector<s2::service::QueryResponse> answers(keys.size());
  ParallelFor(keys.size(), [&](size_t i) { answers[i] = server->Execute(ToRequest(keys[i])); });
  for (size_t i = 0; i < keys.size(); ++i) {
    if (Fingerprint(answers[i]) != seen[i]) {
      r.Fail(std::string(s2::service::RequestKindToString(keys[i].kind)) + " of " +
             std::to_string(keys[i].id) + " changed after the run");
    }
  }
  std::vector<std::vector<Region>> regions[2];
  for (int h = 0; h < 2; ++h) {
    regions[h].resize(kSeries);
    const size_t window = h == 0 ? engine_options.long_burst.window
                                 : engine_options.short_burst.window;
    const double x = h == 0 ? engine_options.long_burst.cutoff_stds
                            : engine_options.short_burst.cutoff_stds;
    ParallelFor(kSeries, [&](size_t i) {
      std::vector<std::vector<Region>> v;
      Bursts(raw[i], start_day, window, x, &v);
      regions[h][i] = v[0];
    });
  }
  std::vector<std::string> errors(keys.size());
  std::vector<double> recall(keys.size(), -1.0);
  const double p = engine_options.period.false_alarm_probability;
  ParallelFor(keys.size(), [&](size_t i) {
    const Draft& q = keys[i];
    const s2::service::QueryResponse& a = answers[i];
    const int h = q.horizon == BurstHorizon::kLongTerm ? 0 : 1;
    const auto& burst_opts = h == 0 ? engine_options.long_burst : engine_options.short_burst;
    const auto dist = [&](uint32_t id) { return Euclidean(ref.row(q.id), ref.row(id), kDays); };
    std::string e;
    if (!a.status.ok()) {
      e = a.status.ToString();
    } else if (q.kind == RequestKind::kPeriodsOf) {
      e = CheckPeriods(a.periods, raw[q.id], p);
    } else if (q.kind == RequestKind::kBurstsOf) {
      e = CheckBursts(a.bursts, raw[q.id], start_day, burst_opts.window, burst_opts.cutoff_stds);
    } else if (q.kind == RequestKind::kQueryByBurst) {
      e = CheckQueryByBurst(a.burst_matches, regions[h][q.id], regions[h], q.id, kK);
    } else if (q.kind == RequestKind::kApproxKnn) {
      e = CheckApproxKnn(a.neighbors, a.quality, BruteForceKnn(ref, ref.row(q.id), kK, q.id),
                         q.id, dist, &recall[i]);
    } else {
      e = CheckExactKnn(a.neighbors, BruteForceKnn(ref, ref.row(q.id), kK, q.id), q.id, dist);
    }
    if (!e.empty()) {
      errors[i] = std::string(s2::service::RequestKindToString(q.kind)) + " of " +
                  std::to_string(q.id) + ": " + e;
    }
  });
  for (const std::string& e : errors) {
    if (!e.empty()) r.Fail(e);
  }
  std::vector<double> approx_recall;
  for (double v : recall) {
    if (v >= 0.0) approx_recall.push_back(v);
  }
  r.report["checks.distinct_requests"] = static_cast<double>(keys.size());
  r.report["checks.answers_compared"] = static_cast<double>(ops);

  // --- Metrics --------------------------------------------------------------
  knn_wall = wall_by_kind[static_cast<size_t>(RequestKind::kSimilarTo)];
  r.end_to_end["setup_s"] = setup_s;
  r.end_to_end["mem_mb"] = mem_mb;
  r.end_to_end["cpu_per_op_ms"] = 1e3 * phase_cpu / static_cast<double>(std::max<uint64_t>(ops, 1));
  r.report["ops_per_s"] = (static_cast<double>(ops) / phase_wall);
  r.report["knn_ms"] = (Percentile(knn_wall, 50));
  r.end_to_end["aknn_recall"] = Mean(approx_recall);

  r.report["phase_wall_s"] = phase_wall;
  r.report["cache_hit_ratio"] = hits + misses > 0 ? static_cast<double>(hits) / static_cast<double>(hits + misses) : 0.0;
  for (size_t k = 0; k < s2::service::kNumRequestKinds; ++k) {
    if (wall_by_kind[k].empty()) continue;
    ReportPercentiles(&r, "wall." + std::string(s2::service::RequestKindToString(static_cast<RequestKind>(k))),
                      wall_by_kind[k]);
  }

  Tracer tracer(cfg.trace);
  LayerCounts lc;
  for (const Client& cl : clients) {
    tracer.Append(cl.tracer);
    lc.Add(cl.lc);
  }
  auto& L = r.layers;
  L["service.queue_wait_ms"] = Percentile(queue_ms, 50);
  L["service.exec_ms"] = Percentile(exec_ms, 50);
  L["service.cache_hit_ratio"] = r.report["cache_hit_ratio"];
  size_t certified = 0, approx_answers = 0;
  for (size_t i = 0; i < keys.size(); ++i) {
    if (keys[i].kind != RequestKind::kApproxKnn) continue;
    ++approx_answers;
    certified += answers[i].quality.guaranteed_exact ? 1 : 0;
  }
  L["approx.certified_ratio"] = approx_answers > 0 ? static_cast<double>(certified) / static_cast<double>(approx_answers) : 0.0;
  L["approx.summary_bytes"] = static_cast<double>(server->approx_info().summary_bytes);
  L["burst.table_records"] = static_cast<double>(server->engine().burst_table(BurstHorizon::kLongTerm).size() +
                                                  server->engine().burst_table(BurstHorizon::kShortTerm).size());
  FillSearchLayers(tracer, lc, &r);
  if (tracer.enabled() && !tracer.Write(cfg.trace_path)) {
    std::fprintf(stderr, "s2bench: could not write %s\n", cfg.trace_path.c_str());
  }
  server->Shutdown();
  return r;
}

}  // namespace s2bench
