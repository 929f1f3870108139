// s2bench: drives S2Server through its public verbs on one workload, checks
// every answer against the benchmark's own computations, and prints the
// metrics as the last line of standard output.
//
//   s2bench --workload similarity|interactive|ingest --seed N --seconds S
//           --trace 0|1 [--revision REV]
//
// Traces and the ingest workload's WAL go under .bench_out in the working
// directory.
//
// Exit status 0 when every check passed, 1 when one failed, 2 on bad usage.
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <thread>

#include "common.h"
#include "simd/simd.h"

namespace {

using s2bench::RunResult;

// Every run prints all of these, by name and unit: the untraced run the
// end-to-end list, the traced run the per-layer list (a layer a workload
// leaves idle reads 0). The wall-clock figures a user waits on (throughput,
// kNN latency, recovery time) follow the host's steal time too closely to
// gate on; they go on the REPORT line of every run instead.
const std::vector<std::pair<std::string, std::string>> kEndToEnd = {
    {"setup_s", "s"},
    {"mem_mb", "MiB"},
    {"cpu_per_op_ms", "ms"},
    {"aknn_recall", "ratio"},
};

const std::vector<std::pair<std::string, std::string>> kLayers = {
    {"service.queue_wait_ms", "ms"},     {"service.exec_ms", "ms"},
    {"service.cache_hit_ratio", "ratio"}, {"service.append_overhead_ms", "ms"},
    {"shard.fanout", "count"},           {"shard.shared_radius_prunes", "count"},
    {"shard.slowest_ms", "ms"},          {"shard.gather_ms", "ms"},
    {"index.search_cpu_ms", "ms"},       {"index.scan_cpu_ms", "ms"},
    {"index.nodes_visited", "count"},    {"index.bound_computations", "count"},
    {"index.candidates_surviving", "count"}, {"index.full_retrievals", "count"},
    {"index.fetch_yield", "ratio"},      {"approx.scan_cpu_ms", "ms"},
    {"approx.verify_cpu_ms", "ms"},      {"approx.rows_scanned", "count"},
    {"approx.summary_abandons", "count"}, {"approx.candidates", "count"},
    {"approx.verified", "count"},        {"approx.certified_ratio", "ratio"},
    {"approx.summary_bytes", "bytes"},   {"dtw.search_cpu_ms", "ms"},
    {"dtw.upper_bounds", "count"},       {"dtw.lb_keogh", "count"},
    {"dtw.lb_keogh_skips", "count"},     {"dtw.dtw_computed", "count"},
    {"dtw.skip_ratio", "ratio"},         {"period.find_cpu_us", "us"},
    {"period.hits", "count"},            {"burst.bursts_of_cpu_us", "us"},
    {"burst.qbb_cpu_us", "us"},          {"burst.records_scanned", "count"},
    {"burst.table_records", "count"},    {"stream.engine_append_cpu_ms", "ms"},
    {"stream.wal_append_ms", "ms"},      {"stream.compact_cpu_ms", "ms"},
    {"stream.compactions", "per_1k_appends"}, {"stream.delta_size", "count"},
    {"monitor.alerts_fired", "per_1k_appends"},
    {"monitor.evaluations", "per_1k_appends"},
    {"monitor.poll_ack_ms", "ms"},       {"ckpt.checkpoint_ms", "ms"},
    {"ckpt.snapshot_bytes", "bytes"},    {"ckpt.load_ms", "ms"},
    {"ckpt.replayed_records", "count"},  {"io.bytes_written", "bytes"},
    {"io.syncs", "count"},               {"io.files_created", "count"},
    {"io.renames", "count"},
};

#if defined(__clang__)
const std::string kCompiler = std::string("clang ") + __clang_version__;
#else
const std::string kCompiler = std::string("gcc ") + __VERSION__;
#endif

struct CpuTimes {
  double total = 0.0;
  double idle = 0.0;
  double steal = 0.0;
};

CpuTimes ReadProcStat() {
  CpuTimes t;
  std::ifstream in("/proc/stat");
  std::string cpu;
  double v[10] = {0};
  in >> cpu;
  for (double& x : v) in >> x;
  for (double x : v) t.total += x;
  // user nice system idle iowait irq softirq steal guest guest_nice; guest
  // time is already inside user.
  t.total -= v[8] + v[9];
  t.idle = v[3] + v[4];
  t.steal = v[7];
  return t;
}

std::string LoadAverage() {
  std::ifstream in("/proc/loadavg");
  double a = 0, b = 0, c = 0;
  in >> a >> b >> c;
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.2f %.2f %.2f", a, b, c);
  return buf;
}

std::string Quote(const std::string& s) {
  std::string out = "\"";
  for (char c : s) {
    if (c == '"' || c == '\\') {
      out += '\\';
      out += c;
    } else if (static_cast<unsigned char>(c) < 0x20) {
      out += ' ';
    } else {
      out += c;
    }
  }
  return out + "\"";
}

std::string Number(double v) {
  if (!std::isfinite(v)) return "null";
  char buf[40];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

std::string MetricsJson(const std::vector<std::pair<std::string, std::string>>& names,
                        const std::map<std::string, double>& have) {
  std::ostringstream os;
  os << "{";
  bool first = true;
  for (const auto& [name, unit] : names) {
    const auto it = have.find(name);
    const double v = it == have.end() ? 0.0 : it->second;
    os << (first ? "" : ", ") << Quote(name) << ": {\"value\": " << Number(v)
       << ", \"unit\": " << Quote(unit) << "}";
    first = false;
  }
  os << "}";
  return os.str();
}

int Usage(const char* why) {
  std::fprintf(stderr,
               "s2bench: %s\nusage: s2bench --workload similarity|interactive|"
               "ingest --seed N --seconds S --trace 0|1 [--revision REV]\n",
               why);
  return 2;
}

}  // namespace

int main(int argc, char** argv) {
  std::string workload;
  const std::string out_dir = ".bench_out";
  std::string revision = "unknown";
  s2bench::RunConfig cfg;
  bool have_seed = false, have_seconds = false, have_trace = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (i + 1 >= argc) return Usage(("missing value for " + arg).c_str());
    const std::string val = argv[++i];
    char* end = nullptr;
    if (arg == "--workload") {
      workload = val;
    } else if (arg == "--seed") {
      cfg.seed = std::strtoull(val.c_str(), &end, 10);
      have_seed = end != val.c_str() && *end == '\0';
    } else if (arg == "--seconds") {
      cfg.seconds = std::strtod(val.c_str(), &end);
      have_seconds = end != val.c_str() && *end == '\0' && cfg.seconds > 0;
    } else if (arg == "--trace") {
      have_trace = val == "0" || val == "1";
      cfg.trace = val == "1";
    } else if (arg == "--revision") {
      revision = val;
    } else {
      return Usage(("unknown argument " + arg).c_str());
    }
  }
  if (!have_seed || !have_seconds || !have_trace) {
    return Usage("--seed, --seconds and --trace are required");
  }
  RunResult (*run)(const s2bench::RunConfig&) = nullptr;
  if (workload == "similarity") run = s2bench::RunSimilarity;
  if (workload == "interactive") run = s2bench::RunInteractive;
  if (workload == "ingest") run = s2bench::RunIngest;
  if (run == nullptr) return Usage("unknown workload");

  namespace fs = std::filesystem;
  const std::string tag = workload + "-seed" + std::to_string(cfg.seed) +
                          (cfg.trace ? "-traced" : "");
  std::error_code ec;
  fs::create_directories(out_dir, ec);
  cfg.work_dir = out_dir + "/work-" + tag + "-" + std::to_string(getpid());
  fs::remove_all(cfg.work_dir, ec);
  fs::create_directories(cfg.work_dir, ec);
  if (ec) return Usage(("cannot create " + cfg.work_dir).c_str());
  cfg.trace_path = out_dir + "/trace-" + tag + ".jsonl";

  const CpuTimes stat0 = ReadProcStat();
  RunResult r = run(cfg);
  const CpuTimes stat1 = ReadProcStat();
  fs::remove_all(cfg.work_dir, ec);

  const double dt = std::max(1.0, stat1.total - stat0.total);
  std::ostringstream host;
  host << "{\"steal_share\": " << Number((stat1.steal - stat0.steal) / dt)
       << ", \"idle_share\": " << Number((stat1.idle - stat0.idle) / dt)
       << ", \"loadavg\": " << Quote(LoadAverage())
       << ", \"nproc\": " << std::thread::hardware_concurrency()
       << ", \"simd\": " << Quote(s2::simd::IsaName(s2::simd::ActiveIsa()))
       << ", \"compiler\": " << Quote(kCompiler)
       << ", \"build_type\": " << Quote(S2BENCH_BUILD_TYPE)
       << ", \"revision\": " << Quote(revision) << "}";

  std::ostringstream report;
  report << "{";
  bool first = true;
  for (const auto& [k, v] : r.report) {
    report << (first ? "" : ", ") << Quote(k) << ": " << Number(v);
    first = false;
  }
  report << "}";
  std::ostringstream errors;
  errors << "[";
  for (size_t i = 0; i < r.errors.size() && i < 20; ++i) {
    errors << (i ? ", " : "") << Quote(r.errors[i]);
  }
  errors << "]";
  for (size_t i = 0; i < r.errors.size() && i < 20; ++i) {
    std::fprintf(stderr, "s2bench: check failed: %s\n", r.errors[i].c_str());
  }

  // A traced run also shows its own end-to-end numbers, which are not used:
  // their gap to an untraced run's is the tracing overhead.
  std::printf("REPORT {\"workload\": %s, \"seed\": %llu, \"trace\": %d, "
              "\"host\": %s, \"report\": %s, \"errors\": %s, "
              "\"traced_end_to_end\": %s}\n",
              Quote(workload).c_str(), static_cast<unsigned long long>(cfg.seed),
              cfg.trace ? 1 : 0, host.str().c_str(), report.str().c_str(),
              errors.str().c_str(),
              cfg.trace ? MetricsJson(kEndToEnd, r.end_to_end).c_str() : "{}");
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": %s}\n",
              r.correct ? "true" : "false",
              static_cast<unsigned long long>(std::max<uint64_t>(r.attempted, 1)),
              static_cast<unsigned long long>(r.failed),
              cfg.trace ? MetricsJson(kLayers, r.layers).c_str()
                        : MetricsJson(kEndToEnd, r.end_to_end).c_str());
  std::fflush(stdout);
  return r.correct ? 0 : 1;
}
