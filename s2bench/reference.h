// The benchmark's own computations, written apart from the library: every
// answer S2Server gives is checked against these. Plain scalar loops, no
// indexes, no kernels shared with the program.
#ifndef S2BENCH_REFERENCE_H_
#define S2BENCH_REFERENCE_H_

#include <cstddef>
#include <cstdint>
#include <vector>

namespace s2bench {

/// Relative agreement used by every check: |a - b| <= kTol * max(1, |a|, |b|).
inline constexpr double kTol = 1e-9;
bool Near(double a, double b);

/// z-normalisation with the population standard deviation; a constant
/// sequence maps to zeros.
std::vector<double> ZNormalize(const std::vector<double>& x);

/// Row-major copy of z-normalised windows.
struct Rows {
  size_t len = 0;
  std::vector<double> data;
  size_t size() const { return len == 0 ? 0 : data.size() / len; }
  const double* row(size_t i) const { return data.data() + i * len; }
  double* row(size_t i) { return data.data() + i * len; }
  void Set(size_t i, const std::vector<double>& z);
};

struct Scored {
  uint32_t id = 0;
  double distance = 0.0;
};

double Euclidean(const double* a, const double* b, size_t n);

/// Exact k nearest rows to `query` by Euclidean distance, `exclude` left
/// out, ordered by (distance, id).
std::vector<Scored> BruteForceKnn(const Rows& rows, const double* query,
                                  size_t k, uint32_t exclude);

/// Banded dynamic time warping: sqrt of the least sum of squared point
/// differences over monotone paths within `window` of the diagonal, by the
/// full O(n * window) table.
double BandedDtw(const double* a, const double* b, size_t n, size_t window);

std::vector<Scored> BruteForceDtwKnn(const Rows& rows, const double* query,
                                     size_t k, size_t window, uint32_t exclude);

/// Periodogram |X(k)|^2 of the normalised DFT X(k) = n^-1/2 sum x e^{-2pi i kn/N}
/// for k = 0..N/2, by the direct O(N^2) sum.
std::vector<double> Periodogram(const std::vector<double>& z);

/// The exponential false-alarm threshold T_p = -mean(P[1..]) ln p.
double PeriodThreshold(const std::vector<double>& psd, double p);

struct Region {
  int32_t start = 0;  ///< Absolute day of the first burst day.
  int32_t end = 0;    ///< Absolute day of the last burst day (inclusive).
  double avg = 0.0;   ///< Mean z-normalised value over the region.
};

/// Moving-average burst detection of the paper: trailing moving average of
/// `window` days over the z-normalised series, cutoff mean + x * std of the
/// average, over-cutoff days compacted into runs (runs with a negative mean
/// dropped, as the library's default minimum height of 0 does). Days whose
/// average lies within kTol of the cutoff are ties: `variants` receives the
/// regions for every way of classifying up to four tied days (the first
/// entry is the plain classification).
void Bursts(const std::vector<double>& raw, int32_t start_day, size_t window,
            double x_std, std::vector<std::vector<Region>>* variants);

/// The paper's burst similarity BSim(X, Y) = sum over overlapping pairs of
/// intersect * 1 / (1 + |avg_x - avg_y|).
double BSim(const std::vector<Region>& x, const std::vector<Region>& y);

/// Standing burst query value: mean of the last `w` raw values over the mean
/// of the whole window (0 for a non-positive baseline).
double BurstRatio(const std::vector<double>& raw, size_t w);

}  // namespace s2bench

#endif  // S2BENCH_REFERENCE_H_
