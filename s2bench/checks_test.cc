// The benchmark's own test: every check accepts the program's real answers
// on a small corpus and rejects a corrupted copy of them — a swapped
// neighbour id, a shifted burst end, a perturbed power, a dropped alert and
// a replay count that is off by one. Exit status 0 when all hold.
#include <cstdio>
#include <string>
#include <vector>

#include "checks.h"
#include "core/s2_engine.h"
#include "querylog/corpus_generator.h"
#include "service/s2_server.h"

namespace {

using namespace s2bench;

int failures = 0;

void Expect(bool ok, const std::string& what) {
  std::printf("%s %s\n", ok ? "ok  " : "FAIL", what.c_str());
  if (!ok) ++failures;
}

/// The check must accept the genuine answer and reject the corrupted one.
void ExpectPair(const std::string& genuine, const std::string& corrupted,
                const std::string& what) {
  Expect(genuine.empty(), what + ": accepts the genuine answer" +
                              (genuine.empty() ? "" : " (" + genuine + ")"));
  Expect(!corrupted.empty(), what + ": rejects the corrupted answer" +
                                 (corrupted.empty() ? "" : " (" + corrupted + ")"));
}

}  // namespace

int main() {
  constexpr uint32_t kSeries = 512;
  constexpr size_t kDays = 256;
  s2::qlog::CorpusSpec spec;
  spec.num_series = kSeries;
  spec.n_days = kDays;
  spec.seed = 11;
  s2::ts::Corpus corpus = s2::qlog::GenerateCorpus(spec).value();
  std::vector<std::vector<double>> raw(kSeries);
  Rows rows;
  rows.len = kDays;
  rows.data.resize(kSeries * kDays);
  for (uint32_t i = 0; i < kSeries; ++i) {
    raw[i] = corpus.at(i).values;
    rows.Set(i, ZNormalize(raw[i]));
  }
  s2::core::S2Engine::Options eo;
  s2::core::S2Engine engine = s2::core::S2Engine::Build(corpus, eo).value();
  const auto dist_from = [&](uint32_t q) {
    return [&rows, q](uint32_t id) { return Euclidean(rows.row(q), rows.row(id), kDays); };
  };

  // Exact kNN: swap the ids at ranks 0 and 5.
  {
    const uint32_t q = 3;
    auto got = engine.SimilarTo(q, 10).value();
    const auto truth = BruteForceKnn(rows, rows.row(q), 10, q);
    auto bad = got;
    std::swap(bad[0].id, bad[5].id);
    ExpectPair(CheckExactKnn(got, truth, q, dist_from(q)),
               CheckExactKnn(bad, truth, q, dist_from(q)), "exact kNN, swapped neighbour id");
  }
  // Approximate kNN: replace a neighbour's id by a series outside the answer.
  {
    const uint32_t q = 17;
    s2::approx::QueryParams params;
    params.k = 10;
    params.max_candidates = 64;
    auto ans = engine.ApproxKnn(q, params).value();
    const auto truth = BruteForceKnn(rows, rows.row(q), 10, q);
    auto bad = ans.neighbors;
    bad[2].id = BruteForceKnn(rows, rows.row(q), 200, q).back().id;
    double recall = 0.0;
    ExpectPair(CheckApproxKnn(ans.neighbors, ans.bound, truth, q, dist_from(q), &recall),
               CheckApproxKnn(bad, ans.bound, truth, q, dist_from(q), nullptr),
               "approximate kNN, swapped neighbour id");
  }
  // DTW kNN against the naive banded scan: swap two ids.
  {
    const uint32_t q = 5;
    auto got = engine.SimilarToDtw(q, 5).value();
    const auto truth = BruteForceDtwKnn(rows, rows.row(q), 5, eo.dtw_window, q);
    auto bad = got;
    std::swap(bad[1].id, bad[4].id);
    const auto dtw = [&](uint32_t id) {
      return BandedDtw(rows.row(q), rows.row(id), kDays, eo.dtw_window);
    };
    ExpectPair(CheckExactKnn(got, truth, q, dtw), CheckExactKnn(bad, truth, q, dtw),
               "DTW kNN, swapped neighbour id");
  }
  // Periods: perturb the strongest power.
  {
    uint32_t q = 0;
    while (q < kSeries && engine.FindPeriods(q).value().empty()) ++q;
    auto got = engine.FindPeriods(q).value();
    auto bad = got;
    bad[0].power *= 1.0 + 1e-6;
    const double p = eo.period.false_alarm_probability;
    ExpectPair(CheckPeriods(got, raw[q], p), CheckPeriods(bad, raw[q], p),
               "periods, perturbed power");
  }
  // Bursts: shift the end of the first region by one day.
  {
    const auto& b = eo.long_burst;
    uint32_t q = 0;
    while (q < kSeries && engine.BurstsOf(q, s2::core::BurstHorizon::kLongTerm).value().empty()) ++q;
    auto got = engine.BurstsOf(q, s2::core::BurstHorizon::kLongTerm).value();
    auto bad = got;
    bad[0].end += 1;
    const int32_t start = corpus.at(q).start_day;
    ExpectPair(CheckBursts(got, raw[q], start, b.window, b.cutoff_stds),
               CheckBursts(bad, raw[q], start, b.window, b.cutoff_stds),
               "bursts, shifted burst end");
  }
  // Query-by-burst: perturb the best score.
  {
    const auto& b = eo.long_burst;
    std::vector<std::vector<Region>> regions(kSeries);
    for (uint32_t i = 0; i < kSeries; ++i) {
      std::vector<std::vector<Region>> v;
      Bursts(raw[i], corpus.at(i).start_day, b.window, b.cutoff_stds, &v);
      regions[i] = v[0];
    }
    uint32_t q = 0;
    while (q < kSeries &&
           engine.QueryByBurst(q, 10, s2::core::BurstHorizon::kLongTerm).value().empty()) {
      ++q;
    }
    auto got = engine.QueryByBurst(q, 10, s2::core::BurstHorizon::kLongTerm).value();
    auto bad = got;
    bad[0].bsim *= 1.0 + 1e-6;
    ExpectPair(CheckQueryByBurst(got, regions[q], regions, q, 10),
               CheckQueryByBurst(bad, regions[q], regions, q, 10),
               "query-by-burst, perturbed score");
  }
  // Alerts from a small server: subscriptions on 32 series, 40 days of
  // appends with a surge, polled once; then one alert dropped.
  {
    s2::ts::Corpus small;
    for (uint32_t i = 0; i < 32; ++i) small.Add(corpus.at(i));
    s2::service::S2Server::Options so;
    so.compaction_threshold = 0;
    auto server = s2::service::S2Server::Build(std::move(small), eo, so).value();
    std::vector<SubscriptionModel> models;
    std::vector<std::vector<double>> windows(raw.begin(), raw.begin() + 32);
    std::vector<int32_t> start(32, corpus.at(0).start_day);
    for (uint32_t i = 0; i < 32; ++i) {
      s2::monitor::Subscription sub;
      sub.series = i;
      SubscriptionModel m;
      m.id = server->Subscribe(sub).value();
      m.series = i;
      m.engaged = BurstRatio(windows[i], m.window) >= m.enter;
      models.push_back(m);
    }
    const uint64_t first = server->alerts().stats().next_seq;
    uint64_t seq = first;
    std::vector<s2::monitor::Alert> expected;
    for (int day = 0; day < 40; ++day) {
      for (uint32_t i = 0; i < 32; ++i) {
        const double base = windows[i].back();
        const double v = (day % 20) < 7 ? 3.0 * base + 10.0 : 0.5 * base;
        if (!server->AppendPoint(i, v).ok()) Expect(false, "AppendPoint");
        windows[i].erase(windows[i].begin());
        windows[i].push_back(v);
        ++start[i];
        StepSubscription(&models[i], windows[i], start[i] + static_cast<int64_t>(kDays) - 1,
                         &seq, &expected);
      }
    }
    const auto polled = server->PollAlerts(1 << 20);
    Expect(polled.size() > 2, "the surge fires alerts (" + std::to_string(polled.size()) + ")");
    auto dropped = polled;
    if (dropped.size() > 2) dropped.erase(dropped.begin() + 1);
    ExpectPair(CheckAlerts(polled, expected, first), CheckAlerts(dropped, expected, first),
               "alerts, dropped alert");
    server->Shutdown();
  }
  // Recovery count: a replay count off by one.
  ExpectPair(CheckRecoveryCount(4096, 256, 4352), CheckRecoveryCount(4096, 257, 4352),
             "recovery, replay count off by one");

  std::printf("%s: %d failure(s)\n", failures == 0 ? "PASS" : "FAIL", failures);
  return failures == 0 ? 0 : 1;
}
