// Shared plumbing of the S2Server benchmark: clocks, seeded draws, sample
// statistics, the per-run result record and the span recorder.
#ifndef S2BENCH_COMMON_H_
#define S2BENCH_COMMON_H_

#include <sys/resource.h>
#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace s2bench {

// ---------------------------------------------------------------------------
// Clocks. Costs are taken on the process CPU clock (user + system time of all
// threads), which leaves out the time the host takes the vCPUs away; the wall
// clock is kept for what a user waits on directly.

inline double ClockSeconds(clockid_t id) {
  timespec ts{};
  clock_gettime(id, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}
inline double ProcessCpuSeconds() { return ClockSeconds(CLOCK_PROCESS_CPUTIME_ID); }
inline double ThreadCpuSeconds() { return ClockSeconds(CLOCK_THREAD_CPUTIME_ID); }
/// User and system CPU seconds of the process so far.
inline std::pair<double, double> ProcessUserSys() {
  rusage ru{};
  getrusage(RUSAGE_SELF, &ru);
  const auto sec = [](const timeval& tv) {
    return static_cast<double>(tv.tv_sec) + 1e-6 * static_cast<double>(tv.tv_usec);
  };
  return {sec(ru.ru_utime), sec(ru.ru_stime)};
}
inline double WallSeconds() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

// ---------------------------------------------------------------------------
// Seeded draws (splitmix64: portable, so a seed means the same inputs on
// every standard library).

class Draw {
 public:
  explicit Draw(uint64_t seed) : state_(seed) {}
  uint64_t Next() {
    uint64_t z = (state_ += 0x9e3779b97f4a7c15ull);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
  }
  /// Uniform in [0, n).
  uint32_t Below(uint32_t n) {
    return static_cast<uint32_t>((Next() >> 11) % n);
  }
  /// Uniform in [0, 1).
  double Unit() { return static_cast<double>(Next() >> 11) * 0x1.0p-53; }
  /// A permutation of [0, n).
  std::vector<uint32_t> Permutation(uint32_t n) {
    std::vector<uint32_t> p(n);
    for (uint32_t i = 0; i < n; ++i) p[i] = i;
    for (uint32_t i = n; i > 1; --i) std::swap(p[i - 1], p[Below(i)]);
    return p;
  }

 private:
  uint64_t state_;
};

/// Distinct, reproducible sub-seeds of one workload seed.
inline uint64_t SubSeed(uint64_t seed, uint64_t salt) {
  Draw d(seed * 0x2545f4914f6cdd1dull + salt);
  return d.Next();
}

// ---------------------------------------------------------------------------
// Sample statistics.

/// Nearest-rank percentile of `v` (sorted copy); 0 for an empty sample.
inline double Percentile(std::vector<double> v, double p) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const double rank = std::ceil(p / 100.0 * static_cast<double>(v.size()));
  const size_t idx = rank < 1.0 ? 0 : static_cast<size_t>(rank) - 1;
  return v[std::min(idx, v.size() - 1)];
}

/// Whether a percentile has at least ten samples beyond it.
inline bool PercentileSupported(size_t n, double p) {
  return static_cast<double>(n) * (1.0 - p / 100.0) >= 10.0;
}

/// The highest of p99 / p95 / p90 that the sample supports (0 if none).
inline double TailPercentile(size_t n) {
  for (double p : {99.0, 95.0, 90.0}) {
    if (PercentileSupported(n, p)) return p;
  }
  return 0.0;
}

inline double Mean(const std::vector<double>& v) {
  if (v.empty()) return 0.0;
  double s = 0.0;
  for (double x : v) s += x;
  return s / static_cast<double>(v.size());
}

// ---------------------------------------------------------------------------
// Process memory (kB fields of /proc/self/status).

double StatusKb(const char* field);
inline double RssMb() { return StatusKb("VmRSS:") / 1024.0; }
inline double HwmMb() { return StatusKb("VmHWM:") / 1024.0; }

// ---------------------------------------------------------------------------
// Spans. Recorded in memory around every call into a layer's public entry
// point during a traced run and written out when the run ends.

struct Span {
  std::string name;
  uint64_t request = 0;   ///< Request (or append) the span serves.
  int64_t parent = -1;    ///< Index of the enclosing span, -1 at the root.
  double start = 0.0;     ///< Wall seconds.
  double end = 0.0;
  double cpu = 0.0;       ///< CPU seconds of the calling thread inside it.
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}
  bool enabled() const { return enabled_; }

  /// Opens a span; returns its index (or -1 when tracing is off).
  int64_t Open(const std::string& name, uint64_t request, int64_t parent) {
    if (!enabled_) return -1;
    Span s;
    s.name = name;
    s.request = request;
    s.parent = parent;
    s.cpu = -ThreadCpuSeconds();
    s.start = WallSeconds();
    spans_.push_back(std::move(s));
    return static_cast<int64_t>(spans_.size()) - 1;
  }
  void Close(int64_t index) {
    if (index < 0) return;
    Span& s = spans_[static_cast<size_t>(index)];
    s.end = WallSeconds();
    s.cpu += ThreadCpuSeconds();
  }

  const std::vector<Span>& spans() const { return spans_; }

  /// Adds another tracer's spans (another client thread's), keeping their
  /// parent links.
  void Append(const Tracer& other) {
    const int64_t offset = static_cast<int64_t>(spans_.size());
    for (Span s : other.spans_) {
      if (s.parent >= 0) s.parent += offset;
      spans_.push_back(std::move(s));
    }
  }

  /// Wall self time of every span: its duration minus the part of it that
  /// its children cover.
  std::vector<double> SelfTimes() const;

  /// CPU times / wall durations (ms) of the spans called `name`.
  std::vector<double> CpuMs(const std::string& name) const;
  std::vector<double> WallMs(const std::string& name) const;

  /// Writes one JSON object per span to `path`.
  bool Write(const std::string& path) const;

 private:
  bool enabled_;
  std::vector<Span> spans_;
};

/// Scoped span: opens on construction, closes on destruction.
class Scope {
 public:
  Scope(Tracer* t, const std::string& name, uint64_t request, int64_t parent)
      : tracer_(t), index_(t->Open(name, request, parent)) {}
  ~Scope() { tracer_->Close(index_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;
  int64_t index() const { return index_; }

 private:
  Tracer* tracer_;
  int64_t index_;
};

// ---------------------------------------------------------------------------
// The record one workload run hands back to main().

struct RunResult {
  bool correct = true;
  uint64_t attempted = 0;
  uint64_t failed = 0;
  std::vector<std::string> errors;          ///< Failed checks.
  std::map<std::string, double> end_to_end;  ///< Untraced run's metrics.
  std::map<std::string, double> layers;      ///< Traced run's metrics.
  /// Further figures printed beside the metrics: per-operation wall
  /// percentiles, per-verb CPU costs, check counts.
  std::map<std::string, double> report;

  void Fail(const std::string& what) {
    correct = false;
    errors.push_back(what);
  }
};

struct RunConfig {
  uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  std::string work_dir;   ///< Scratch directory (WAL, checkpoints).
  std::string trace_path; ///< Where the spans go when tracing.
};

/// Records the user and system CPU seconds spent since `start` (a
/// ProcessUserSys reading) as `phase_user_s` / `phase_sys_s`.
inline void ReportUserSys(RunResult* r, std::pair<double, double> start) {
  const auto now = ProcessUserSys();
  r->report["phase_user_s"] = now.first - start.first;
  r->report["phase_sys_s"] = now.second - start.second;
}

/// Records percentile figures of `samples` (ms) under `prefix` in the report.
void ReportPercentiles(RunResult* r, const std::string& prefix,
                       const std::vector<double>& samples);

RunResult RunSimilarity(const RunConfig& config);
RunResult RunInteractive(const RunConfig& config);
RunResult RunIngest(const RunConfig& config);

}  // namespace s2bench

#endif  // S2BENCH_COMMON_H_
