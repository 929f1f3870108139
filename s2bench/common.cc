#include "common.h"

#include <cstdio>
#include <cstring>
#include <fstream>

namespace s2bench {

double StatusKb(const char* field) {
  std::ifstream in("/proc/self/status");
  std::string line;
  const size_t len = std::strlen(field);
  while (std::getline(in, line)) {
    if (line.compare(0, len, field) == 0) {
      return std::strtod(line.c_str() + len, nullptr);
    }
  }
  return 0.0;
}

std::vector<double> Tracer::SelfTimes() const {
  std::vector<std::vector<size_t>> children(spans_.size());
  for (size_t i = 0; i < spans_.size(); ++i) {
    if (spans_[i].parent >= 0) {
      children[static_cast<size_t>(spans_[i].parent)].push_back(i);
    }
  }
  std::vector<double> self(spans_.size(), 0.0);
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    // Union of the children's intervals, clipped to the parent.
    std::vector<std::pair<double, double>> iv;
    for (size_t c : children[i]) {
      iv.emplace_back(std::max(s.start, spans_[c].start),
                      std::min(s.end, spans_[c].end));
    }
    std::sort(iv.begin(), iv.end());
    double covered = 0.0;
    double lo = 0.0;
    double hi = -1.0;
    for (const auto& [a, b] : iv) {
      if (b <= a) continue;
      if (a > hi) {
        if (hi > lo) covered += hi - lo;
        lo = a;
        hi = b;
      } else {
        hi = std::max(hi, b);
      }
    }
    if (hi > lo) covered += hi - lo;
    self[i] = (s.end - s.start) - covered;
  }
  return self;
}

std::vector<double> Tracer::CpuMs(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(1e3 * s.cpu);
  }
  return out;
}

std::vector<double> Tracer::WallMs(const std::string& name) const {
  std::vector<double> out;
  for (const Span& s : spans_) {
    if (s.name == name) out.push_back(1e3 * (s.end - s.start));
  }
  return out;
}

bool Tracer::Write(const std::string& path) const {
  FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) return false;
  const std::vector<double> self = SelfTimes();
  const double t0 = spans_.empty() ? 0.0 : spans_.front().start;
  for (size_t i = 0; i < spans_.size(); ++i) {
    const Span& s = spans_[i];
    std::fprintf(f,
                 "{\"span\":%zu,\"name\":\"%s\",\"request\":%llu,\"parent\":%lld,"
                 "\"start_us\":%.3f,\"end_us\":%.3f,\"self_us\":%.3f,"
                 "\"cpu_us\":%.3f}\n",
                 i, s.name.c_str(), static_cast<unsigned long long>(s.request),
                 static_cast<long long>(s.parent), 1e6 * (s.start - t0),
                 1e6 * (s.end - t0), 1e6 * self[i], 1e6 * s.cpu);
  }
  return std::fclose(f) == 0;
}

void ReportPercentiles(RunResult* r, const std::string& prefix,
                       const std::vector<double>& samples) {
  r->report[prefix + ".count"] = static_cast<double>(samples.size());
  r->report[prefix + ".mean_ms"] = Mean(samples);
  if (PercentileSupported(samples.size(), 50.0)) {
    r->report[prefix + ".p50_ms"] = Percentile(samples, 50.0);
  }
  const double tail = TailPercentile(samples.size());
  if (tail > 0.0) {
    char key[32];
    std::snprintf(key, sizeof(key), ".p%.0f_ms", tail);
    r->report[prefix + key] = Percentile(samples, tail);
  }
}

}  // namespace s2bench
