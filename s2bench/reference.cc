#include "reference.h"

#include <algorithm>
#include <cmath>
#include <limits>

namespace s2bench {

bool Near(double a, double b) {
  const double scale = std::max({1.0, std::fabs(a), std::fabs(b)});
  return std::fabs(a - b) <= kTol * scale;
}

std::vector<double> ZNormalize(const std::vector<double>& x) {
  const size_t n = x.size();
  std::vector<double> z(n, 0.0);
  if (n == 0) return z;
  double mean = 0.0;
  for (double v : x) mean += v;
  mean /= static_cast<double>(n);
  double var = 0.0;
  for (double v : x) var += (v - mean) * (v - mean);
  var /= static_cast<double>(n);
  const double sd = std::sqrt(var);
  if (n < 2 || sd == 0.0) return z;
  for (size_t i = 0; i < n; ++i) z[i] = (x[i] - mean) / sd;
  return z;
}

void Rows::Set(size_t i, const std::vector<double>& z) {
  std::copy(z.begin(), z.end(), row(i));
}

double Euclidean(const double* a, const double* b, size_t n) {
  double s = 0.0;
  for (size_t i = 0; i < n; ++i) {
    const double d = a[i] - b[i];
    s += d * d;
  }
  return std::sqrt(s);
}

namespace {

bool ByDistanceThenId(const Scored& a, const Scored& b) {
  return a.distance != b.distance ? a.distance < b.distance : a.id < b.id;
}

template <typename DistanceFn>
std::vector<Scored> TopK(size_t n, size_t k, uint32_t exclude, DistanceFn fn) {
  std::vector<Scored> all;
  all.reserve(n);
  for (uint32_t i = 0; i < n; ++i) {
    if (i == exclude) continue;
    all.push_back({i, fn(i)});
  }
  const size_t take = std::min(k, all.size());
  std::partial_sort(all.begin(), all.begin() + static_cast<std::ptrdiff_t>(take),
                    all.end(), ByDistanceThenId);
  all.resize(take);
  return all;
}

}  // namespace

std::vector<Scored> BruteForceKnn(const Rows& rows, const double* query,
                                  size_t k, uint32_t exclude) {
  return TopK(rows.size(), k, exclude, [&](uint32_t i) {
    return Euclidean(query, rows.row(i), rows.len);
  });
}

double BandedDtw(const double* a, const double* b, size_t n, size_t window) {
  constexpr double kInf = std::numeric_limits<double>::infinity();
  const size_t w = window == 0 ? n : window;
  // Two rows of the table; every in-band cell is filled, none abandoned.
  // Cells just outside the band are reset to +inf before each row, so a
  // row never reads a value left from two rows back.
  std::vector<double> prev(n, kInf);
  std::vector<double> cur(n, kInf);
  for (size_t i = 0; i < n; ++i) {
    const size_t lo = i >= w ? i - w : 0;
    const size_t hi = std::min(n - 1, i + w);
    for (size_t j = lo > 0 ? lo - 1 : 0; j <= std::min(n - 1, hi + 1); ++j) {
      cur[j] = kInf;
    }
    for (size_t j = lo; j <= hi; ++j) {
      const double d = a[i] - b[j];
      double best = kInf;
      if (i == 0 && j == 0) best = 0.0;
      if (i > 0) best = std::min(best, prev[j]);
      if (j > 0) best = std::min(best, cur[j - 1]);
      if (i > 0 && j > 0) best = std::min(best, prev[j - 1]);
      cur[j] = best + d * d;
    }
    std::swap(prev, cur);
  }
  return std::sqrt(prev[n - 1]);
}

std::vector<Scored> BruteForceDtwKnn(const Rows& rows, const double* query,
                                     size_t k, size_t window, uint32_t exclude) {
  return TopK(rows.size(), k, exclude, [&](uint32_t i) {
    return BandedDtw(query, rows.row(i), rows.len, window);
  });
}

std::vector<double> Periodogram(const std::vector<double>& z) {
  const size_t n = z.size();
  const double norm = 1.0 / std::sqrt(static_cast<double>(n));
  // e^{-2 pi i m / n} for m = 0..n-1; term (k, t) uses m = k * t mod n.
  std::vector<double> cosine(n);
  std::vector<double> sine(n);
  for (size_t m = 0; m < n; ++m) {
    const double angle = -2.0 * M_PI * static_cast<double>(m) / static_cast<double>(n);
    cosine[m] = std::cos(angle);
    sine[m] = std::sin(angle);
  }
  std::vector<double> psd(n / 2 + 1, 0.0);
  for (size_t k = 0; k < psd.size(); ++k) {
    double re = 0.0;
    double im = 0.0;
    for (size_t t = 0; t < n; ++t) {
      const size_t m = (k * t) % n;
      re += z[t] * cosine[m];
      im += z[t] * sine[m];
    }
    re *= norm;
    im *= norm;
    psd[k] = re * re + im * im;
  }
  return psd;
}

double PeriodThreshold(const std::vector<double>& psd, double p) {
  if (psd.size() <= 1) return 0.0;
  double sum = 0.0;
  for (size_t k = 1; k < psd.size(); ++k) sum += psd[k];
  return -(sum / static_cast<double>(psd.size() - 1)) * std::log(p);
}

namespace {

std::vector<Region> Compact(const std::vector<double>& z,
                            const std::vector<bool>& over, int32_t start_day) {
  std::vector<Region> out;
  size_t i = 0;
  while (i < over.size()) {
    if (!over[i]) {
      ++i;
      continue;
    }
    size_t j = i;
    double sum = 0.0;
    while (j < over.size() && over[j]) sum += z[j++];
    const double avg = sum / static_cast<double>(j - i);
    if (avg >= 0.0) {
      out.push_back({start_day + static_cast<int32_t>(i),
                     start_day + static_cast<int32_t>(j - 1), avg});
    }
    i = j;
  }
  return out;
}

}  // namespace

void Bursts(const std::vector<double>& raw, int32_t start_day, size_t window,
            double x_std, std::vector<std::vector<Region>>* variants) {
  variants->clear();
  const std::vector<double> z = ZNormalize(raw);
  const size_t n = z.size();
  std::vector<double> ma(n, 0.0);
  for (size_t i = 0; i < n; ++i) {
    const size_t lo = i + 1 >= window ? i + 1 - window : 0;
    double s = 0.0;
    for (size_t t = lo; t <= i; ++t) s += z[t];
    ma[i] = s / static_cast<double>(i - lo + 1);
  }
  double mean = 0.0;
  for (double v : ma) mean += v;
  mean /= static_cast<double>(n);
  double var = 0.0;
  for (double v : ma) var += (v - mean) * (v - mean);
  const double cutoff = mean + x_std * std::sqrt(var / static_cast<double>(n));

  std::vector<bool> over(n, false);
  std::vector<size_t> tied;
  for (size_t i = 0; i < n; ++i) {
    over[i] = ma[i] > cutoff;
    if (Near(ma[i], cutoff)) tied.push_back(i);
  }
  variants->push_back(Compact(z, over, start_day));
  if (tied.empty() || tied.size() > 4) return;
  for (uint32_t mask = 0; mask < (1u << tied.size()); ++mask) {
    std::vector<bool> alt = over;
    for (size_t b = 0; b < tied.size(); ++b) alt[tied[b]] = (mask >> b) & 1u;
    variants->push_back(Compact(z, alt, start_day));
  }
}

double BSim(const std::vector<Region>& x, const std::vector<Region>& y) {
  double total = 0.0;
  for (const Region& a : x) {
    for (const Region& b : y) {
      const int32_t overlap = std::min(a.end, b.end) - std::max(a.start, b.start) + 1;
      if (overlap <= 0) continue;
      const double ov = static_cast<double>(overlap);
      const double intersect = 0.5 * (ov / (a.end - a.start + 1) +
                                      ov / (b.end - b.start + 1));
      total += intersect / (1.0 + std::fabs(a.avg - b.avg));
    }
  }
  return total;
}

double BurstRatio(const std::vector<double>& raw, size_t w) {
  const size_t n = raw.size();
  double total = 0.0;
  for (double v : raw) total += v;
  double tail = 0.0;
  for (size_t i = n - w; i < n; ++i) tail += raw[i];
  const double base = total / static_cast<double>(n);
  if (!(base > 0.0)) return 0.0;
  return (tail / static_cast<double>(w)) / base;
}

}  // namespace s2bench
