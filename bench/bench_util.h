#ifndef S2_BENCH_BENCH_UTIL_H_
#define S2_BENCH_BENCH_UTIL_H_

// Shared helpers for the experiment harnesses: ASCII plotting, small table
// printers, corpus preparation, wall-clock and thread-CPU timing, and the
// median [p25, p75] of repeated measurements. Each bench binary
// reproduces one table/figure of the paper and prints the corresponding
// rows/series to stdout.

#include <time.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "dsp/stats.h"
#include "querylog/corpus_generator.h"
#include "timeseries/calendar.h"
#include "timeseries/time_series.h"

namespace s2::bench {

/// Renders `values` as a one-line unicode sparkline of `width` columns.
inline std::string Sparkline(const std::vector<double>& values, size_t width = 96) {
  static const char* kLevels[] = {" ", "▁", "▂", "▃",
                                  "▄", "▅", "▆", "▇",
                                  "█"};
  if (values.empty()) return "";
  width = std::min(width, values.size());
  const size_t bucket = (values.size() + width - 1) / width;
  double lo = values[0];
  double hi = values[0];
  for (double v : values) {
    lo = std::min(lo, v);
    hi = std::max(hi, v);
  }
  const double span = hi - lo > 0 ? hi - lo : 1.0;
  std::string out;
  for (size_t start = 0; start < values.size(); start += bucket) {
    double max_in_bucket = values[start];
    for (size_t i = start; i < std::min(values.size(), start + bucket); ++i) {
      max_in_bucket = std::max(max_in_bucket, values[i]);
    }
    const int level =
        static_cast<int>(std::round((max_in_bucket - lo) / span * 8.0));
    out += kLevels[std::clamp(level, 0, 8)];
  }
  return out;
}

/// Renders a multi-row ASCII chart (height rows) of `values`, with an
/// optional horizontal `threshold` line drawn as '-'.
inline void PrintAsciiChart(const std::vector<double>& values, size_t height = 12,
                            size_t width = 96, double threshold = NAN) {
  if (values.empty()) return;
  width = std::min(width, values.size());
  const size_t bucket = (values.size() + width - 1) / width;
  std::vector<double> cols;
  for (size_t start = 0; start < values.size(); start += bucket) {
    double m = values[start];
    for (size_t i = start; i < std::min(values.size(), start + bucket); ++i) {
      m = std::max(m, values[i]);
    }
    cols.push_back(m);
  }
  double lo = *std::min_element(cols.begin(), cols.end());
  double hi = *std::max_element(cols.begin(), cols.end());
  if (!std::isnan(threshold)) {
    lo = std::min(lo, threshold);
    hi = std::max(hi, threshold);
  }
  const double span = hi - lo > 0 ? hi - lo : 1.0;
  for (size_t row = 0; row < height; ++row) {
    const double level = hi - span * static_cast<double>(row) / (height - 1);
    std::string line;
    const bool is_threshold_row =
        !std::isnan(threshold) &&
        std::abs(level - threshold) <= span / (2.0 * (height - 1));
    for (double c : cols) {
      if (c >= level) {
        line += "#";
      } else if (is_threshold_row) {
        line += "-";
      } else {
        line += " ";
      }
    }
    std::printf("  %10.3f |%s\n", level, line.c_str());
  }
}

/// Month tick ruler for one year of daily data, aligned to `width` columns.
inline void PrintMonthRuler(size_t n_days, size_t width = 96) {
  std::string ruler(std::min(width, n_days), ' ');
  const char* kMonths = "JFMAMJJASOND";
  for (int m = 0; m < 12; ++m) {
    const size_t day = static_cast<size_t>(m * 30.4);
    const size_t col = day * ruler.size() / n_days;
    if (col < ruler.size()) ruler[col] = kMonths[m];
  }
  std::printf("  %10s |%s|\n", "", ruler.c_str());
}

/// Standardizes every series of a corpus into a row matrix.
inline std::vector<std::vector<double>> StandardizedRows(const ts::Corpus& corpus) {
  std::vector<std::vector<double>> rows;
  rows.reserve(corpus.size());
  for (const auto& series : corpus.series()) {
    rows.push_back(dsp::Standardize(series.values));
  }
  return rows;
}

/// Wall-clock stopwatch.
class Timer {
 public:
  Timer() : start_(std::chrono::steady_clock::now()) {}
  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() - start_)
        .count();
  }
  void Reset() { start_ = std::chrono::steady_clock::now(); }

 private:
  std::chrono::steady_clock::time_point start_;
};

/// CPU time consumed by the calling thread, in seconds.
inline double ThreadCpuSeconds() {
  timespec ts{};
  clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
  return static_cast<double>(ts.tv_sec) + 1e-9 * static_cast<double>(ts.tv_nsec);
}

/// Median and quartiles of repeated measurements.
struct Spread {
  double p25 = 0.0;
  double median = 0.0;
  double p75 = 0.0;
};

/// Quartiles by linear interpolation between order statistics.
inline Spread Quartiles(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  auto at = [&](double q) {
    const double pos = q * static_cast<double>(values.size() - 1);
    const size_t lo = static_cast<size_t>(pos);
    const size_t hi = std::min(lo + 1, values.size() - 1);
    return values[lo] + (pos - static_cast<double>(lo)) * (values[hi] - values[lo]);
  };
  return Spread{at(0.25), at(0.5), at(0.75)};
}

/// Simple "--flag value" argument lookup with a default.
inline size_t ArgSize(int argc, char** argv, const std::string& flag, size_t def) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (flag == argv[i]) return static_cast<size_t>(std::stoull(argv[i + 1]));
  }
  return def;
}

inline bool HasFlag(int argc, char** argv, const std::string& flag) {
  for (int i = 1; i < argc; ++i) {
    if (flag == argv[i]) return true;
  }
  return false;
}

inline void PrintHeader(const std::string& title) {
  std::printf("\n================================================================\n");
  std::printf("%s\n", title.c_str());
  std::printf("================================================================\n");
}

/// Minimal JSON value/object builder for the machine-readable BENCH_*.json
/// result files (ROADMAP: record the perf trajectory, not just stdout
/// tables). Insertion-ordered, no external deps; numbers print with enough
/// precision to round-trip doubles.
class Json {
 public:
  static Json Number(double v) {
    Json j;
    char buffer[32];
    std::snprintf(buffer, sizeof(buffer), "%.17g", v);
    j.repr_ = buffer;
    return j;
  }
  static Json Number(uint64_t v) {
    Json j;
    j.repr_ = std::to_string(v);
    return j;
  }
  static Json String(const std::string& s) {
    std::string escaped;
    escaped.reserve(s.size() + 2);
    escaped.push_back('"');
    for (char c : s) {
      switch (c) {
        case '"': escaped += "\\\""; break;
        case '\\': escaped += "\\\\"; break;
        case '\n': escaped += "\\n"; break;
        default: escaped.push_back(c);
      }
    }
    escaped.push_back('"');
    Json j;
    j.repr_ = std::move(escaped);
    return j;
  }
  static Json Object() {
    Json j;
    j.is_object_ = true;
    return j;
  }
  static Json Array() {
    Json j;
    j.is_array_ = true;
    return j;
  }

  Json& Add(const std::string& key, Json value) {
    members_.emplace_back(key, std::move(value));
    return *this;
  }
  Json& Add(const std::string& key, double v) { return Add(key, Number(v)); }
  Json& Add(const std::string& key, uint64_t v) { return Add(key, Number(v)); }
  Json& Add(const std::string& key, const char* v) {
    return Add(key, String(v));
  }
  Json& Push(Json value) {
    members_.emplace_back("", std::move(value));
    return *this;
  }

  std::string ToString(int indent = 0) const {
    const std::string pad(static_cast<size_t>(indent) * 2, ' ');
    const std::string inner(static_cast<size_t>(indent + 1) * 2, ' ');
    if (!is_object_ && !is_array_) return repr_;
    std::string out = is_object_ ? "{" : "[";
    for (size_t i = 0; i < members_.size(); ++i) {
      out += i == 0 ? "\n" : ",\n";
      out += inner;
      if (is_object_) out += "\"" + members_[i].first + "\": ";
      out += members_[i].second.ToString(indent + 1);
    }
    if (!members_.empty()) out += "\n" + pad;
    out += is_object_ ? "}" : "]";
    return out;
  }

 private:
  std::string repr_;
  bool is_object_ = false;
  bool is_array_ = false;
  std::vector<std::pair<std::string, Json>> members_;
};

/// Writes `json` to `path` (plus a trailing newline); exits on I/O failure
/// like every other bench fatal.
inline Json SpreadJson(const Spread& s) {
  return Json::Object().Add("p25", s.p25).Add("median", s.median).Add("p75", s.p75);
}

inline void WriteJsonFile(const std::string& path, const Json& json) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) {
    std::fprintf(stderr, "cannot write %s\n", path.c_str());
    std::exit(1);
  }
  const std::string text = json.ToString();
  std::fwrite(text.data(), 1, text.size(), f);
  std::fputc('\n', f);
  std::fclose(f);
  std::printf("\n  wrote %s\n", path.c_str());
}

/// "--flag value" string lookup with a default, for JSON output paths.
inline std::string ArgString(int argc, char** argv, const std::string& flag,
                             const std::string& def) {
  for (int i = 1; i + 1 < argc; ++i) {
    if (flag == argv[i]) return argv[i + 1];
  }
  return def;
}

}  // namespace s2::bench

#endif  // S2_BENCH_BENCH_UTIL_H_
