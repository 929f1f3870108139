// The S2 Similarity Tool (paper Section 7.5) as an interactive terminal
// program. It offers the same three functionalities as the paper's C# GUI:
//
//   * identification of important periods,
//   * similarity search,
//   * burst detection & query-by-burst,
//
// plus inspection of the best-k reconstruction quality.
//
//   ./build/examples/s2_tool            # interactive shell
//   echo "demo" | ./build/examples/s2_tool   # scripted demo
//   ./build/examples/s2_tool --serve 4  # server mode: 4 worker threads
//   ./build/examples/s2_tool --serve 4 --shards 4   # scatter-gather topology
//
// Commands:
//   list [prefix]          - list query names
//   show <name>            - plot the demand curve
//   similar <name> [k]     - k most similar queries
//   periods <name>         - significant periods
//   bursts <name> [long|short]
//   qbb <name> [k]         - query-by-burst
//   reconstruct <name> [c] - best-k reconstruction quality
//   append <name> <value>  - stream one more day into a series
//   compact                - merge the delta tier into the main index
//   stream                 - streaming-state snapshot (delta size, counters)
//   replay                 - WAL replay stats from startup
//   checkpoint             - take a coordinated checkpoint now
//   recover                - how this process came up (checkpoint/fallback)
//   wal-ls                 - list live WAL segments (data + monitor)
//   subscribe burst <name> [window [enter [exit]]]
//                          - standing burst alert (MA ratio with hysteresis)
//   subscribe period <name>- standing periodicity-change alert
//   subscribe similar <name> [radius]
//                          - drift alert: the series' own current shape is
//                            the query; alerts fire when appends push it out
//                            of (and back into) the ball
//   unsubscribe <id>       - retire a standing subscription
//   subs                   - list active subscriptions + hysteresis state
//   alerts [max]           - poll pending alerts, then ack them (gaps in
//                            seq mark overflow-dropped alerts)
//   monitor                - standing-query state snapshot
//   demo                   - run a scripted tour
//   quit
//
// Server mode (--serve [threads]) dispatches similar/periods/bursts/qbb
// through the s2::service scheduler (thread pool + result cache) and adds:
//   load <n> [k]           - fire n concurrent similar-queries, print qps
//   metrics                - plain-text metrics snapshot
//
// --shards N (implies server mode) partitions the corpus across N engine
// shards answered by scatter-gather — same answers, and `metrics` shows the
// fan-out instrumentation (server_shard_fanout/prune_hits/latency).
//
// --wal PATH arms the write-ahead log: every `append` is durably logged
// before it is applied, and restarting with the same PATH (and the same
// synthetic corpus) replays the log so no acknowledged append is lost —
// `replay` shows what came back.
//
// --ckpt (requires --wal) arms checkpointed recovery: `checkpoint` commits
// a coordinated snapshot so a restart loads it and replays only the WAL
// tail past its anchor. --ckpt-every N checkpoints automatically every N
// appends; --rotate BYTES segments the WALs so retired history can be
// garbage-collected after each checkpoint.

#include <algorithm>
#include <cctype>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.h"
#include "core/s2_engine.h"
#include "monitor/monitor_wal.h"
#include "monitor/registry.h"
#include "monitor/subscription.h"
#include "stream/wal.h"
#include "service/s2_server.h"
#include "shard/sharded_engine.h"
#include "dsp/stats.h"
#include "querylog/archetypes.h"
#include "querylog/corpus_generator.h"
#include "querylog/synthesizer.h"
#include "repr/compressed.h"
#include "repr/half_spectrum.h"
#include "timeseries/calendar.h"

using namespace s2;

namespace {

std::string Spark(const std::vector<double>& values, size_t width = 72) {
  static const char* kLevels[] = {"▁", "▂", "▃", "▄", "▅", "▆", "▇", "█"};
  if (values.empty()) return "";
  width = std::min(width, values.size());
  const size_t bucket = (values.size() + width - 1) / width;
  double lo = values[0], hi = values[0];
  for (double v : values) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  const double span = hi - lo > 0 ? hi - lo : 1;
  std::string out;
  for (size_t s = 0; s < values.size(); s += bucket) {
    double m = values[s];
    for (size_t i = s; i < std::min(values.size(), s + bucket); ++i) {
      m = std::max(m, values[i]);
    }
    out += kLevels[std::min<size_t>(7, static_cast<size_t>((m - lo) / span * 8))];
  }
  return out;
}

class Tool {
 public:
  /// `serving == false` keeps the classic inline mode; otherwise queries
  /// dispatch through the s2::service scheduler. The server may wrap either
  /// topology — every command below is topology-neutral.
  Tool(std::unique_ptr<service::S2Server> server, bool serving,
       std::string wal_path = "")
      : server_(std::move(server)),
        serving_(serving),
        wal_path_(std::move(wal_path)) {}

  void Run() {
    std::string line;
    std::printf("s2> ");
    std::fflush(stdout);
    while (std::getline(std::cin, line)) {
      if (!Dispatch(line)) break;
      std::printf("s2> ");
      std::fflush(stdout);
    }
    std::printf("\n");
  }

  bool Dispatch(const std::string& line) {
    std::istringstream in(line);
    std::string command;
    in >> command;
    if (command.empty()) return true;
    if (command == "quit" || command == "exit") return false;
    if (command == "help") {
      Help();
    } else if (command == "list") {
      std::string prefix;
      in >> prefix;
      List(prefix);
    } else if (command == "show") {
      Show(Rest(in));
    } else if (command == "similar") {
      auto [name, k] = NameAndCount(in, 5);
      Similar(name, k);
    } else if (command == "periods") {
      Periods(Rest(in));
    } else if (command == "bursts") {
      std::string rest = Rest(in);
      core::BurstHorizon horizon = core::BurstHorizon::kLongTerm;
      if (rest.size() > 6 && rest.substr(rest.size() - 6) == " short") {
        horizon = core::BurstHorizon::kShortTerm;
        rest = rest.substr(0, rest.size() - 6);
      } else if (rest.size() > 5 && rest.substr(rest.size() - 5) == " long") {
        rest = rest.substr(0, rest.size() - 5);
      }
      Bursts(rest, horizon);
    } else if (command == "qbb") {
      auto [name, k] = NameAndCount(in, 5);
      QueryByBurst(name, k);
    } else if (command == "aknn") {
      Aknn(Rest(in));
    } else if (command == "approx") {
      ApproxState();
    } else if (command == "reconstruct") {
      auto [name, c] = NameAndCount(in, 16);
      Reconstruct(name, c);
    } else if (command == "append") {
      Append(Rest(in));
    } else if (command == "compact") {
      const Status status = server_->Compact();
      if (!status.ok()) {
        std::printf("  %s\n", status.ToString().c_str());
      } else {
        std::printf("  delta tier merged (%llu compactions total)\n",
                    static_cast<unsigned long long>(
                        server_->stream_info().compaction_count));
      }
    } else if (command == "stream") {
      StreamState();
    } else if (command == "replay") {
      ReplayStats();
    } else if (command == "checkpoint") {
      TakeCheckpoint();
    } else if (command == "recover") {
      RecoveryState();
    } else if (command == "wal-ls") {
      ListWalSegments();
    } else if (command == "subscribe") {
      std::string kind;
      in >> kind;
      Subscribe(kind, Rest(in));
    } else if (command == "unsubscribe") {
      unsigned long long id = 0;
      if (in >> id) {
        const Status status = server_->Unsubscribe(id);
        std::printf("  %s\n", status.ok() ? "unsubscribed"
                                          : status.ToString().c_str());
      } else {
        std::printf("  usage: unsubscribe <id>\n");
      }
    } else if (command == "subs") {
      ListSubscriptions();
    } else if (command == "alerts") {
      size_t max = 20;
      if (!(in >> max)) max = 20;
      Alerts(max);
    } else if (command == "monitor") {
      MonitorState();
    } else if (command == "demo") {
      Demo();
    } else if (serving_ && command == "metrics") {
      std::printf("%s", server_->MetricsText().c_str());
    } else if (serving_ && command == "load") {
      size_t n = 200, k = 10;
      if (!(in >> n)) n = 200;
      if (!(in >> k)) k = 10;
      Load(n, k);
    } else {
      std::printf("unknown command '%s' (try 'help')\n", command.c_str());
    }
    return true;
  }

 private:
  static std::string Rest(std::istringstream& in) {
    std::string rest;
    std::getline(in, rest);
    const size_t start = rest.find_first_not_of(' ');
    return start == std::string::npos ? "" : rest.substr(start);
  }

  // Parses "<multi word name> [count]" — the trailing token is a count only
  // if numeric.
  static std::pair<std::string, size_t> NameAndCount(std::istringstream& in,
                                                     size_t default_count) {
    std::string rest = Rest(in);
    size_t count = default_count;
    const size_t space = rest.find_last_of(' ');
    if (space != std::string::npos) {
      const std::string tail = rest.substr(space + 1);
      char* end = nullptr;
      const unsigned long parsed = std::strtoul(tail.c_str(), &end, 10);
      if (end != tail.c_str() && *end == '\0') {
        count = parsed;
        rest = rest.substr(0, space);
      }
    }
    return {rest, count};
  }

  void Help() {
    std::printf(
        "  list [prefix] | show <name> | similar <name> [k] | periods <name>\n"
        "  bursts <name> [long|short] | qbb <name> [k] | reconstruct <name> [c]\n"
        "  aknn <name> [k] [--recall r] [--candidates c] | approx\n"
        "  append <name> <value> | compact | stream | replay\n"
        "  checkpoint | recover | wal-ls\n"
        "  subscribe burst <name> [window [enter [exit]]]\n"
        "  subscribe period <name> | subscribe similar <name> [radius]\n"
        "  unsubscribe <id> | subs | alerts [max] | monitor\n"
        "  demo | quit\n");
    if (serving_) {
      std::printf("  load <n> [k] | metrics     (server mode)\n");
    }
  }

  void List(const std::string& prefix) {
    size_t shown = 0;
    for (ts::SeriesId id = 0; id < CorpusSize() && shown < 40; ++id) {
      const std::string& name = SeriesAt(id).name;
      if (name.rfind(prefix, 0) == 0) {
        std::printf("  %s\n", name.c_str());
        ++shown;
      }
    }
  }

  void Show(const std::string& name) {
    auto id = FindId(name);
    if (!id.ok()) {
      std::printf("  %s\n", id.status().ToString().c_str());
      return;
    }
    const auto& series = SeriesAt(*id);
    std::printf("  %s  (%zu days from %s)\n", series.name.c_str(), series.size(),
                ts::FormatDayIndex(series.start_day).c_str());
    std::printf("  %s\n", Spark(series.values).c_str());
  }

  void Similar(const std::string& name, size_t k) {
    auto id = FindId(name);
    if (!id.ok()) {
      std::printf("  %s\n", id.status().ToString().c_str());
      return;
    }
    if (serving_) {
      service::QueryRequest request;
      request.kind = service::RequestKind::kSimilarTo;
      request.id = *id;
      request.k = k;
      auto ticket = server_->Submit(request);
      if (!ticket.ok()) {
        std::printf("  %s\n", ticket.status().ToString().c_str());
        return;
      }
      service::QueryResponse response = ticket->Get();
      if (!response.status.ok()) {
        std::printf("  %s\n", response.status.ToString().c_str());
        return;
      }
      for (const auto& n : response.neighbors) {
        std::printf("  %-24s distance %.2f  %s\n",
                    SeriesAt(n.id).name.c_str(), n.distance,
                    Spark(SeriesAt(n.id).values, 48).c_str());
      }
      std::printf("  [%s, %lld us]\n",
                  response.cache_hit ? "cache hit" : "engine",
                  static_cast<long long>(response.latency.count()));
      return;
    }
    index::VpTreeIndex::SearchStats stats;
    auto neighbors = engine().SimilarTo(*id, k, &stats);
    if (!neighbors.ok()) return;
    for (const auto& n : *neighbors) {
      std::printf("  %-24s distance %.2f  %s\n",
                  SeriesAt(n.id).name.c_str(), n.distance,
                  Spark(SeriesAt(n.id).values, 48).c_str());
    }
    std::printf("  [index: %zu bound computations, %zu full fetches]\n",
                stats.bound_computations, stats.full_retrievals);
  }

  // `aknn <name> [k] [--recall r] [--candidates c]` — the approximate-first
  // tier: summary-scan candidates, exactly verified, with the per-query
  // quality bound printed alongside the answer.
  void Aknn(const std::string& rest) {
    std::istringstream tokens(rest);
    std::vector<std::string> words;
    std::string word;
    while (tokens >> word) words.push_back(word);
    double recall = 0.0;
    size_t candidates = 0;
    std::vector<std::string> plain;
    for (size_t i = 0; i < words.size(); ++i) {
      if (words[i] == "--recall" && i + 1 < words.size()) {
        recall = std::strtod(words[++i].c_str(), nullptr);
      } else if (words[i] == "--candidates" && i + 1 < words.size()) {
        candidates = std::strtoul(words[++i].c_str(), nullptr, 10);
      } else {
        plain.push_back(words[i]);
      }
    }
    size_t k = 10;
    if (!plain.empty()) {
      char* end = nullptr;
      const unsigned long parsed = std::strtoul(plain.back().c_str(), &end, 10);
      if (end != plain.back().c_str() && *end == '\0') {
        k = parsed;
        plain.pop_back();
      }
    }
    std::string name;
    for (size_t i = 0; i < plain.size(); ++i) {
      if (i > 0) name += ' ';
      name += plain[i];
    }
    auto id = FindId(name);
    if (!id.ok()) {
      std::printf("  %s\n", id.status().ToString().c_str());
      return;
    }

    std::vector<index::Neighbor> neighbors;
    approx::QualityBound quality;
    if (serving_) {
      service::QueryRequest request;
      request.kind = service::RequestKind::kApproxKnn;
      request.id = *id;
      request.k = k;
      request.recall_target = recall;
      request.max_candidates = candidates;
      auto ticket = server_->Submit(request);
      if (!ticket.ok()) {
        std::printf("  %s\n", ticket.status().ToString().c_str());
        return;
      }
      service::QueryResponse response = ticket->Get();
      if (!response.status.ok()) {
        std::printf("  %s\n", response.status.ToString().c_str());
        return;
      }
      neighbors = std::move(response.neighbors);
      quality = response.quality;
    } else {
      approx::QueryParams params;
      params.k = k;
      params.recall_target = recall;
      params.max_candidates = candidates;
      auto answer = server_->sharded().ApproxKnn(*id, params);
      if (!answer.ok()) {
        std::printf("  %s\n", answer.status().ToString().c_str());
        return;
      }
      neighbors = std::move(answer->neighbors);
      quality = answer->bound;
    }
    for (const auto& n : neighbors) {
      std::printf("  %-24s distance %.2f  %s\n", SeriesAt(n.id).name.c_str(),
                  n.distance, Spark(SeriesAt(n.id).values, 48).c_str());
    }
    if (quality.guaranteed_exact) {
      std::printf("  [exact: verified %zu of %zu candidates]\n",
                  quality.candidates, quality.population);
    } else {
      std::printf(
          "  [approximate: epsilon <= %.4f, non-candidates >= %.2f away, "
          "%zu of %zu verified]\n",
          quality.epsilon, quality.threshold_lb, quality.candidates,
          quality.population);
    }
  }

  // `approx` — the summary-tier introspection snapshot.
  void ApproxState() {
    const service::S2Server::ApproxInfo info = server_->approx_info();
    if (!info.enabled) {
      std::printf("  approximate tier disabled\n");
      return;
    }
    std::printf("  summary: %zu dims x %zu cells over %zu series\n",
                info.summary_dims, info.summary_cells, info.indexed_series);
    std::printf("  envelopes: %.2f MiB resident\n",
                static_cast<double>(info.summary_bytes) / (1024.0 * 1024.0));
    std::printf("  config fingerprint: %016llx\n",
                static_cast<unsigned long long>(info.config_fingerprint));
  }

  // Fires `n` concurrent SimilarTo requests over a hot-key set and prints
  // aggregate throughput — a one-command load generator for the server.
  void Load(size_t n, size_t k) {
    const size_t corpus_size = CorpusSize();
    const auto start = std::chrono::steady_clock::now();
    std::vector<service::RequestTicket> tickets;
    tickets.reserve(n);
    size_t rejected = 0;
    for (size_t i = 0; i < n; ++i) {
      service::QueryRequest request;
      request.kind = service::RequestKind::kSimilarTo;
      request.id = static_cast<ts::SeriesId>(i % std::min<size_t>(corpus_size, 16));
      request.k = k;
      auto ticket = server_->Submit(request);
      if (ticket.ok()) {
        tickets.push_back(std::move(*ticket));
      } else {
        ++rejected;
      }
    }
    size_t ok = 0;
    for (auto& ticket : tickets) {
      if (ticket.Get().status.ok()) ++ok;
    }
    const double seconds =
        std::chrono::duration<double>(std::chrono::steady_clock::now() - start)
            .count();
    std::printf(
        "  %zu ok, %zu rejected (backpressure) in %.3f s  ->  %.0f qps\n", ok,
        rejected, seconds, static_cast<double>(ok) / seconds);
    std::printf("  cache: %llu hits / %llu misses\n",
                static_cast<unsigned long long>(server_->cache().hits()),
                static_cast<unsigned long long>(server_->cache().misses()));
  }

  void Periods(const std::string& name) {
    auto id = FindId(name);
    if (!id.ok()) {
      std::printf("  %s\n", id.status().ToString().c_str());
      return;
    }
    std::vector<period::PeriodHit> periods;
    if (serving_) {
      service::QueryRequest request;
      request.kind = service::RequestKind::kPeriodsOf;
      request.id = *id;
      service::QueryResponse response = server_->Execute(request);
      if (!response.status.ok()) return;
      periods = std::move(response.periods);
    } else {
      auto direct = engine().FindPeriods(*id);
      if (!direct.ok()) return;
      periods = std::move(direct).value();
    }
    if (periods.empty()) {
      std::printf("  no significant periods\n");
      return;
    }
    for (const auto& p : periods) {
      std::printf("  period %8.2f days   power %8.2f\n", p.period, p.power);
    }
  }

  void Bursts(const std::string& name, core::BurstHorizon horizon) {
    auto id = FindId(name);
    if (!id.ok()) {
      std::printf("  %s\n", id.status().ToString().c_str());
      return;
    }
    std::vector<burst::BurstRegion> regions;
    if (serving_) {
      service::QueryRequest request;
      request.kind = service::RequestKind::kBurstsOf;
      request.id = *id;
      request.horizon = horizon;
      service::QueryResponse response = server_->Execute(request);
      if (!response.status.ok()) return;
      regions = std::move(response.bursts);
    } else {
      auto direct = engine().BurstsOf(*id, horizon);
      if (!direct.ok()) return;
      regions = std::move(direct).value();
    }
    if (regions.empty()) {
      std::printf("  no bursts\n");
      return;
    }
    for (const auto& b : regions) {
      std::printf("  [%s .. %s]  height %+.2f  (%d days)\n",
                  ts::FormatDayIndex(b.start).c_str(),
                  ts::FormatDayIndex(b.end).c_str(), b.avg_value, b.length());
    }
  }

  void QueryByBurst(const std::string& name, size_t k) {
    auto id = FindId(name);
    if (!id.ok()) {
      std::printf("  %s\n", id.status().ToString().c_str());
      return;
    }
    std::vector<burst::BurstMatch> matches;
    if (serving_) {
      service::QueryRequest request;
      request.kind = service::RequestKind::kQueryByBurst;
      request.id = *id;
      request.k = k;
      service::QueryResponse response = server_->Execute(request);
      if (!response.status.ok()) return;
      matches = std::move(response.burst_matches);
    } else {
      auto direct = engine().QueryByBurst(*id, k, core::BurstHorizon::kLongTerm);
      if (!direct.ok()) return;
      matches = std::move(direct).value();
    }
    for (const auto& m : matches) {
      std::printf("  %-24s BSim %.3f\n",
                  SeriesAt(m.series_id).name.c_str(), m.bsim);
    }
  }

  void Reconstruct(const std::string& name, size_t c) {
    auto id = FindId(name);
    if (!id.ok()) {
      std::printf("  %s\n", id.status().ToString().c_str());
      return;
    }
    const std::vector<double> z = StandardizedRow(*id);
    auto spectrum = repr::HalfSpectrum::FromSeries(z);
    if (!spectrum.ok()) return;
    auto compressed = repr::CompressedSpectrum::Compress(
        *spectrum, repr::ReprKind::kBestKError, c);
    if (!compressed.ok()) {
      std::printf("  %s\n", compressed.status().ToString().c_str());
      return;
    }
    auto reconstruction = compressed->Reconstruct();
    if (!reconstruction.ok()) return;
    std::printf("  original      %s\n", Spark(z).c_str());
    std::printf("  best-%-2zu       %s   (error %.1f%% of energy)\n",
                compressed->positions().size(), Spark(*reconstruction).c_str(),
                100.0 * compressed->error() / spectrum->Energy());
  }

  // "append <multi word name> <value>" — the trailing token is the value.
  void Append(const std::string& rest) {
    const size_t space = rest.find_last_of(' ');
    if (space == std::string::npos) {
      std::printf("  usage: append <name> <value>\n");
      return;
    }
    const std::string tail = rest.substr(space + 1);
    char* end = nullptr;
    const double value = std::strtod(tail.c_str(), &end);
    if (end == tail.c_str() || *end != '\0') {
      std::printf("  usage: append <name> <value>\n");
      return;
    }
    const std::string name = rest.substr(0, space);
    auto id = FindId(name);
    if (!id.ok()) {
      std::printf("  %s\n", id.status().ToString().c_str());
      return;
    }
    const Status status = server_->AppendPoint(*id, value);
    if (!status.ok()) {
      std::printf("  %s\n", status.ToString().c_str());
      return;
    }
    const auto info = server_->stream_info();
    std::printf("  appended %.2f to '%s'  (delta tier: %zu series%s)\n", value,
                name.c_str(), info.delta_size,
                info.wal_enabled ? ", logged" : "");
  }

  void StreamState() {
    const auto info = server_->stream_info();
    std::printf("  wal          %s\n", info.wal_enabled ? "on" : "off");
    std::printf("  delta size   %zu series\n", info.delta_size);
    std::printf("  appends      %llu\n",
                static_cast<unsigned long long>(info.append_count));
    std::printf("  compactions  %llu\n",
                static_cast<unsigned long long>(info.compaction_count));
  }

  void ReplayStats() {
    const auto info = server_->stream_info();
    if (!info.wal_enabled) {
      std::printf("  no WAL (start with --wal PATH)\n");
      return;
    }
    std::printf("  replayed %zu records (%llu torn tail bytes dropped) in %lld us\n",
                info.replayed_records,
                static_cast<unsigned long long>(info.replay_dropped_bytes),
                static_cast<long long>(info.replay_time.count()));
    const auto minfo = server_->monitor_info();
    if (minfo.wal_enabled) {
      std::printf("  monitor log: %llu ops replayed (%llu bytes dropped)\n",
                  static_cast<unsigned long long>(minfo.replayed_ops),
                  static_cast<unsigned long long>(minfo.replay_dropped_bytes));
    }
  }

  void TakeCheckpoint() {
    const Status status = server_->Checkpoint();
    if (!status.ok()) {
      std::printf("  %s\n", status.ToString().c_str());
      return;
    }
    const auto info = server_->checkpoint_info();
    std::printf(
        "  generation %llu committed  (anchors: %llu appends, %llu monitor "
        "ops)\n",
        static_cast<unsigned long long>(info.generation),
        static_cast<unsigned long long>(info.anchor_appends),
        static_cast<unsigned long long>(info.anchor_monitor_ops));
  }

  void RecoveryState() {
    const auto info = server_->checkpoint_info();
    if (!info.enabled) {
      std::printf("  checkpointing off (start with --wal PATH --ckpt)\n");
      return;
    }
    const char* origin = "cold start / full replay";
    if (info.recovered_from_checkpoint) {
      origin = info.recovered_from_fallback
                   ? "previous checkpoint generation (newest was corrupt)"
                   : "checkpoint";
    }
    std::printf("  came up from     %s\n", origin);
    std::printf("  replay started   append %llu, monitor op %llu\n",
                static_cast<unsigned long long>(info.recovery_anchor_appends),
                static_cast<unsigned long long>(
                    info.recovery_anchor_monitor_ops));
    if (info.generation > 0) {
      std::printf("  last generation  %llu (anchors %llu / %llu)\n",
                  static_cast<unsigned long long>(info.generation),
                  static_cast<unsigned long long>(info.anchor_appends),
                  static_cast<unsigned long long>(info.anchor_monitor_ops));
    } else {
      std::printf("  last generation  (none committed yet)\n");
    }
  }

  void ListWalSegments() {
    if (wal_path_.empty()) {
      std::printf("  no WAL (start with --wal PATH)\n");
      return;
    }
    const auto print = [](const char* label,
                          const Result<std::vector<io::walseg::SegmentInfo>>&
                              segments) {
      if (!segments.ok()) {
        std::printf("  %s: %s\n", label, segments.status().ToString().c_str());
        return;
      }
      std::printf("  %s (%zu segment%s)\n", label, segments->size(),
                  segments->size() == 1 ? "" : "s");
      for (const auto& seg : *segments) {
        std::printf("    seq %-6llu base %-10llu %s\n",
                    static_cast<unsigned long long>(seg.seq),
                    static_cast<unsigned long long>(seg.base_records),
                    seg.path.c_str());
      }
    };
    print("data log", stream::Wal::ListSegments(nullptr, wal_path_));
    print("monitor log",
          monitor::MonitorWal::ListSegments(nullptr, wal_path_ + ".monitor"));
  }

  // Splits "<multi word name> [num [num [num]]]" — trailing numeric tokens
  // (at most `max_numbers`) peel off into `numbers`, front to back.
  static std::string SplitTrailingNumbers(std::string rest, size_t max_numbers,
                                          std::vector<double>* numbers) {
    std::vector<double> tail;
    while (tail.size() < max_numbers) {
      const size_t space = rest.find_last_of(' ');
      if (space == std::string::npos) break;
      const std::string token = rest.substr(space + 1);
      char* end = nullptr;
      const double parsed = std::strtod(token.c_str(), &end);
      if (end == token.c_str() || *end != '\0') break;
      tail.insert(tail.begin(), parsed);
      rest = rest.substr(0, space);
    }
    *numbers = std::move(tail);
    return rest;
  }

  void Subscribe(const std::string& kind, const std::string& rest) {
    monitor::Subscription sub;
    std::vector<double> params;
    std::string name;
    if (kind == "burst") {
      name = SplitTrailingNumbers(rest, 3, &params);
      sub.kind = monitor::SubscriptionKind::kBurstThreshold;
      if (params.size() > 0) sub.burst.window = static_cast<uint32_t>(params[0]);
      if (params.size() > 1) sub.burst.enter_ratio = params[1];
      if (params.size() > 2) sub.burst.exit_ratio = params[2];
    } else if (kind == "period") {
      name = rest;
      sub.kind = monitor::SubscriptionKind::kPeriodicityChange;
    } else if (kind == "similar") {
      name = SplitTrailingNumbers(rest, 1, &params);
      sub.kind = monitor::SubscriptionKind::kSimilarityWatch;
      sub.similarity.radius = params.empty() ? 1.0 : params[0];
    } else {
      std::printf("  usage: subscribe burst|period|similar <name> [params]\n");
      return;
    }
    auto id = FindId(name);
    if (!id.ok()) {
      std::printf("  %s\n", id.status().ToString().c_str());
      return;
    }
    sub.series = *id;
    if (sub.kind == monitor::SubscriptionKind::kSimilarityWatch) {
      // The series' own current shape is the query: the watch arms inside
      // the ball (silently) and alerts when future appends push it out.
      sub.similarity.query = SeriesAt(*id).values;
    }
    auto assigned = server_->Subscribe(sub);
    if (!assigned.ok()) {
      std::printf("  %s\n", assigned.status().ToString().c_str());
      return;
    }
    std::printf("  subscription %llu armed on '%s' (%s)\n",
                static_cast<unsigned long long>(*assigned), name.c_str(),
                kind.c_str());
  }

  void ListSubscriptions() {
    // Every shard's entries (global series ids), merged by subscription id.
    const std::vector<monitor::SubscriptionRegistry::Entry> entries =
        server_->sharded().ListSubscriptions();
    if (entries.empty()) {
      std::printf("  no active subscriptions\n");
      return;
    }
    static const char* kKinds[] = {"burst", "period", "similar"};
    for (const auto& entry : entries) {
      std::printf("  #%-4llu %-8s %-24s %s\n",
                  static_cast<unsigned long long>(entry.sub.id),
                  kKinds[static_cast<uint32_t>(entry.sub.kind)],
                  SeriesAt(entry.sub.series).name.c_str(),
                  entry.engaged ? "engaged" : "armed");
    }
  }

  void Alerts(size_t max) {
    static const char* kAlertKinds[] = {
        "burst-begin",  "burst-end",   "period-gained",   "period-shift",
        "period-lost",  "similar-in",  "similar-out"};
    const std::vector<monitor::Alert> alerts = server_->PollAlerts(max);
    if (alerts.empty()) {
      std::printf("  no pending alerts\n");
      return;
    }
    uint64_t expected = last_seen_seq_set_ ? last_seen_seq_ + 1
                                           : alerts.front().seq;
    for (const auto& alert : alerts) {
      if (alert.seq != expected) {
        std::printf("  ... %llu alert(s) dropped (queue overflow)\n",
                    static_cast<unsigned long long>(alert.seq - expected));
      }
      std::printf("  seq %-5llu #%-3llu %-14s %-20s %s  value %.3f vs %.3f\n",
                  static_cast<unsigned long long>(alert.seq),
                  static_cast<unsigned long long>(alert.subscription),
                  kAlertKinds[static_cast<uint32_t>(alert.kind)],
                  SeriesAt(alert.series).name.c_str(),
                  ts::FormatDayIndex(alert.day).c_str(), alert.value,
                  alert.threshold);
      expected = alert.seq + 1;
    }
    last_seen_seq_ = alerts.back().seq;
    last_seen_seq_set_ = true;
    const Status acked = server_->AckAlerts(last_seen_seq_);
    if (!acked.ok()) {
      std::printf("  ack failed: %s\n", acked.ToString().c_str());
      return;
    }
    std::printf("  acked through seq %llu%s\n",
                static_cast<unsigned long long>(last_seen_seq_),
                server_->monitor_info().wal_enabled ? " (logged)" : "");
  }

  void MonitorState() {
    const auto info = server_->monitor_info();
    std::printf("  wal            %s\n", info.wal_enabled ? "on" : "off");
    std::printf("  subscriptions  %zu\n", info.active_subscriptions);
    std::printf("  queue depth    %zu\n", info.queue_depth);
    std::printf("  alerts fired   %llu  (dropped %llu)\n",
                static_cast<unsigned long long>(info.alerts_fired),
                static_cast<unsigned long long>(info.alerts_dropped));
    if (info.any_acked) {
      std::printf("  acked upto     seq %llu\n",
                  static_cast<unsigned long long>(info.acked_upto));
    } else {
      std::printf("  acked upto     (nothing acked yet)\n");
    }
  }

  void Demo() {
    std::printf("--- show cinema\n");
    Show("cinema");
    std::printf("--- similar cinema\n");
    Similar("cinema", 5);
    std::printf("--- aknn cinema (approximate tier with quality bound)\n");
    Aknn("cinema 5 --recall 0.95");
    std::printf("--- periods cinema\n");
    Periods("cinema");
    std::printf("--- periods full moon\n");
    Periods("full moon");
    std::printf("--- bursts easter\n");
    Bursts("easter", core::BurstHorizon::kLongTerm);
    std::printf("--- qbb christmas\n");
    QueryByBurst("christmas", 5);
    std::printf("--- reconstruct cinema 8\n");
    Reconstruct("cinema", 8);
    std::printf("--- subscribe burst cinema\n");
    Subscribe("burst", "cinema 7 1.3 1.1");
    std::printf("--- append a hot streak, then poll\n");
    for (int i = 0; i < 8; ++i) Dispatch("append cinema 5000");
    Alerts(20);
    std::printf("--- subs\n");
    ListSubscriptions();
  }

  const core::S2Engine& engine() const { return server_->engine(); }

  // Catalog access by global id, the same at any shard count.
  size_t CorpusSize() const { return server_->sharded().size(); }

  Result<ts::SeriesId> FindId(const std::string& name) const {
    return server_->sharded().FindByName(name);
  }

  const ts::TimeSeries& SeriesAt(ts::SeriesId id) const {
    return *server_->sharded().Series(id).value();
  }

  std::vector<double> StandardizedRow(ts::SeriesId id) const {
    const auto placement = server_->sharded().PlacementOf(id);
    return server_->sharded().shard(placement->shard)
        .standardized(placement->local);
  }

  std::unique_ptr<service::S2Server> server_;
  bool serving_;
  /// Startup --wal path; empty disables the wal-ls command.
  std::string wal_path_;
  /// Last alert seq this shell has seen, for cross-poll gap detection.
  uint64_t last_seen_seq_ = 0;
  bool last_seen_seq_set_ = false;
};

}  // namespace

int main(int argc, char** argv) {
  size_t serve_threads = 0;
  size_t shards = 1;
  std::string wal_path;
  bool ckpt = false;
  uint64_t ckpt_every = 0;
  uint64_t rotate_bytes = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strcmp(argv[i], "--serve") == 0) {
      serve_threads = 4;
      if (i + 1 < argc && std::isdigit(static_cast<unsigned char>(argv[i + 1][0]))) {
        serve_threads = std::strtoul(argv[i + 1], nullptr, 10);
      }
    } else if (std::strcmp(argv[i], "--shards") == 0 && i + 1 < argc) {
      shards = std::strtoul(argv[i + 1], nullptr, 10);
      if (shards == 0) shards = 1;
    } else if (std::strcmp(argv[i], "--wal") == 0 && i + 1 < argc) {
      wal_path = argv[++i];
    } else if (std::strcmp(argv[i], "--ckpt") == 0) {
      ckpt = true;
    } else if (std::strcmp(argv[i], "--ckpt-every") == 0 && i + 1 < argc) {
      ckpt_every = std::strtoull(argv[++i], nullptr, 10);
      ckpt = true;
    } else if (std::strcmp(argv[i], "--rotate") == 0 && i + 1 < argc) {
      rotate_bytes = std::strtoull(argv[++i], nullptr, 10);
    }
  }
  // Sharded execution dispatches through the server; force serve mode.
  if (shards > 1 && serve_threads == 0) serve_threads = 4;

  Rng rng(75);
  ts::Corpus corpus;
  for (auto archetype :
       {qlog::MakeCinema(), qlog::MakeEaster(), qlog::MakeElvis(),
        qlog::MakeFullMoon(), qlog::MakeNordstrom(), qlog::MakeHalloween(),
        qlog::MakeChristmas(), qlog::MakeFlowers(), qlog::MakeHurricane()}) {
    auto series = qlog::Synthesize(archetype, 0, 1024, &rng);
    if (series.ok()) corpus.Add(std::move(series).ValueOrDie());
  }
  qlog::CorpusSpec spec;
  spec.num_series = 500;
  spec.n_days = 1024;
  spec.seed = 76;
  auto filler = qlog::GenerateCorpus(spec);
  if (filler.ok()) {
    for (const auto& series : filler->series()) corpus.Add(series);
  }

  const size_t corpus_size = corpus.size();
  core::S2Engine::Options options;
  options.index.budget_c = 16;
  options.long_burst.min_avg_value = 0.5;
  options.long_burst.min_length = 5;
  service::S2Server::Options server_options;
  server_options.scheduler.threads = serve_threads > 0 ? serve_threads : 1;
  server_options.cache_capacity = serve_threads > 0 ? 1024 : 0;
  server_options.shards = shards;
  server_options.wal_path = wal_path;
  server_options.checkpoint_enabled = ckpt;
  server_options.checkpoint_every_appends = ckpt_every;
  server_options.wal_rotate_bytes = rotate_bytes;
  // Recover prefers the newest committed checkpoint + WAL tail; it falls
  // through to a full Build (and full replay) when none exists yet.
  auto server =
      wal_path.empty()
          ? service::S2Server::Build(std::move(corpus), options, server_options)
          : service::S2Server::Recover(std::move(corpus), options,
                                       server_options);
  if (!server.ok()) {
    std::printf("build failed: %s\n", server.status().ToString().c_str());
    return 1;
  }
  size_t compressed_bytes = 0;
  const shard::ShardedEngine& sharded = (*server)->sharded();
  for (size_t s = 0; s < sharded.num_shards(); ++s) {
    compressed_bytes += sharded.shard(s).index().CompressedBytes();
  }
  std::printf(
      "S2 Similarity Tool - %zu queries indexed (%zu KiB compressed "
      "features).\nType 'help' for commands, 'demo' for a tour.\n",
      corpus_size, compressed_bytes / 1024);
  if (serve_threads > 0) {
    std::printf("Server mode: %zu worker threads, result cache on", serve_threads);
    if (shards > 1) std::printf(", %zu shards", shards);
    std::printf(".\n");
  }
  if (!wal_path.empty()) {
    const auto info = (*server)->stream_info();
    std::printf("WAL at %s: replayed %zu records (%llu bytes dropped).\n",
                wal_path.c_str(), info.replayed_records,
                static_cast<unsigned long long>(info.replay_dropped_bytes));
    const auto ckpt_info = (*server)->checkpoint_info();
    if (ckpt_info.recovered_from_checkpoint) {
      std::printf("Recovered from checkpoint%s: replay began at append %llu.\n",
                  ckpt_info.recovered_from_fallback ? " (fallback generation)"
                                                    : "",
                  static_cast<unsigned long long>(
                      ckpt_info.recovery_anchor_appends));
    }
  }
  Tool tool(std::move(server).ValueOrDie(), serve_threads > 0, wal_path);
  tool.Run();
  return 0;
}
