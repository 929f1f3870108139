#include "checks.h"

#include <algorithm>
#include <cmath>
#include <set>
#include <sstream>

namespace s2bench {

namespace {

std::string Str(const std::ostringstream& os) { return os.str(); }

std::string DistinctIds(const std::vector<s2::index::Neighbor>& got,
                        uint32_t query) {
  std::set<uint32_t> seen;
  for (const s2::index::Neighbor& n : got) {
    if (n.id == query) return "the query itself was returned";
    if (!seen.insert(n.id).second) {
      return "id " + std::to_string(n.id) + " returned twice";
    }
  }
  return "";
}

bool SameRegions(const std::vector<s2::burst::BurstRegion>& got,
                 const std::vector<Region>& want) {
  if (got.size() != want.size()) return false;
  for (size_t i = 0; i < got.size(); ++i) {
    if (got[i].start != want[i].start || got[i].end != want[i].end ||
        !Near(got[i].avg_value, want[i].avg)) {
      return false;
    }
  }
  return true;
}

}  // namespace

std::string CheckExactKnn(const std::vector<s2::index::Neighbor>& got,
                          const std::vector<Scored>& truth, uint32_t query,
                          const DistanceOf& distance_of) {
  std::ostringstream os;
  os.precision(15);
  if (got.size() != truth.size()) {
    os << "returned " << got.size() << " neighbours, expected " << truth.size();
    return Str(os);
  }
  if (std::string e = DistinctIds(got, query); !e.empty()) return e;
  for (size_t i = 0; i < got.size(); ++i) {
    if (!Near(got[i].distance, truth[i].distance)) {
      os << "rank " << i << ": distance " << got[i].distance << " != "
         << truth[i].distance;
      return Str(os);
    }
    if (got[i].id != truth[i].id &&
        !Near(distance_of(got[i].id), truth[i].distance)) {
      os << "rank " << i << ": id " << got[i].id << " != " << truth[i].id
         << " and not a distance tie";
      return Str(os);
    }
  }
  return "";
}

std::string CheckApproxKnn(const std::vector<s2::index::Neighbor>& got,
                           const s2::approx::QualityBound& bound,
                           const std::vector<Scored>& truth, uint32_t query,
                           const DistanceOf& distance_of, double* recall) {
  std::ostringstream os;
  os.precision(15);
  if (got.size() > truth.size()) {
    os << "returned " << got.size() << " neighbours, asked for " << truth.size();
    return Str(os);
  }
  if (std::string e = DistinctIds(got, query); !e.empty()) return e;
  size_t found = 0;
  const double kth = truth.empty() ? 0.0 : truth.back().distance;
  for (size_t i = 0; i < got.size(); ++i) {
    const double real = distance_of(got[i].id);
    if (!Near(got[i].distance, real)) {
      os << "rank " << i << ": id " << got[i].id << " reported at "
         << got[i].distance << ", true distance " << real;
      return Str(os);
    }
    if (got[i].distance < truth[i].distance && !Near(got[i].distance, truth[i].distance)) {
      os << "rank " << i << ": distance " << got[i].distance
         << " below the true rank-" << i << " distance " << truth[i].distance;
      return Str(os);
    }
    if (real <= kth || Near(real, kth)) ++found;
  }
  if (recall != nullptr) {
    *recall = truth.empty() ? 1.0
                            : static_cast<double>(found) /
                                  static_cast<double>(truth.size());
  }
  if (bound.guaranteed_exact) {
    std::string e = CheckExactKnn(got, truth, query, distance_of);
    if (!e.empty()) return "guaranteed_exact answer is not exact: " + e;
  }
  return "";
}

std::string CheckPeriods(const std::vector<s2::period::PeriodHit>& got,
                         const std::vector<double>& raw, double p) {
  const std::vector<double> psd = Periodogram(ZNormalize(raw));
  const double threshold = PeriodThreshold(psd, p);
  const size_t n = raw.size();
  std::set<size_t> must;
  std::set<size_t> may;
  for (size_t k = 1; k < psd.size(); ++k) {
    if (static_cast<double>(n) / static_cast<double>(k) > 0.5 * static_cast<double>(n)) {
      continue;
    }
    if (Near(psd[k], threshold)) {
      may.insert(k);
    } else if (psd[k] > threshold) {
      must.insert(k);
    }
  }
  std::ostringstream os;
  os.precision(15);
  std::set<size_t> reported;
  for (size_t i = 0; i < got.size(); ++i) {
    const s2::period::PeriodHit& hit = got[i];
    if (hit.bin == 0 || hit.bin >= psd.size()) {
      os << "bin " << hit.bin << " out of range";
      return Str(os);
    }
    if (!reported.insert(hit.bin).second) {
      os << "bin " << hit.bin << " reported twice";
      return Str(os);
    }
    if (must.count(hit.bin) == 0 && may.count(hit.bin) == 0) {
      os << "bin " << hit.bin << " (power " << hit.power
         << ") does not clear T_p = " << threshold;
      return Str(os);
    }
    if (!Near(hit.power, psd[hit.bin])) {
      os << "bin " << hit.bin << ": power " << hit.power << " != "
         << psd[hit.bin];
      return Str(os);
    }
    if (i > 0 && hit.power > got[i - 1].power) {
      os << "periods not in descending power at position " << i;
      return Str(os);
    }
  }
  for (size_t k : must) {
    if (reported.count(k) == 0) {
      os << "bin " << k << " (power " << psd[k] << " > T_p = " << threshold
         << ") missing";
      return Str(os);
    }
  }
  return "";
}

std::string CheckBursts(const std::vector<s2::burst::BurstRegion>& got,
                        const std::vector<double>& raw, int32_t start_day,
                        size_t window, double x_std) {
  std::vector<std::vector<Region>> variants;
  Bursts(raw, start_day, window, x_std, &variants);
  for (const std::vector<Region>& want : variants) {
    if (SameRegions(got, want)) return "";
  }
  std::ostringstream os;
  os.precision(15);
  os << "regions differ: got " << got.size() << " [";
  for (const auto& r : got) os << " " << r.start << "-" << r.end;
  os << " ], expected " << variants[0].size() << " [";
  for (const auto& r : variants[0]) os << " " << r.start << "-" << r.end;
  os << " ]";
  return Str(os);
}

std::string CheckQueryByBurst(const std::vector<s2::burst::BurstMatch>& got,
                              const std::vector<Region>& query_regions,
                              const std::vector<std::vector<Region>>& all_regions,
                              uint32_t query, size_t k) {
  std::ostringstream os;
  os.precision(15);
  std::vector<Scored> scores;  // distance field holds the score
  for (uint32_t id = 0; id < all_regions.size(); ++id) {
    if (id == query) continue;
    const double s = BSim(query_regions, all_regions[id]);
    if (s > 0.0) scores.push_back({id, s});
  }
  std::sort(scores.begin(), scores.end(), [](const Scored& a, const Scored& b) {
    return a.distance != b.distance ? a.distance > b.distance : a.id < b.id;
  });
  const size_t want = std::min(k, scores.size());
  if (got.size() != want) {
    os << "returned " << got.size() << " matches, expected " << want;
    return Str(os);
  }
  std::set<uint32_t> seen;
  for (size_t i = 0; i < got.size(); ++i) {
    const uint32_t id = got[i].series_id;
    if (id >= all_regions.size() || id == query || !seen.insert(id).second) {
      os << "match " << i << ": bad or repeated series " << id;
      return Str(os);
    }
    const double real = BSim(query_regions, all_regions[id]);
    if (!Near(got[i].bsim, real)) {
      os << "match " << i << ": series " << id << " scored " << got[i].bsim
         << ", BSim is " << real;
      return Str(os);
    }
    if (i > 0 && got[i].bsim > got[i - 1].bsim) {
      os << "matches not in descending score at position " << i;
      return Str(os);
    }
    if (!Near(got[i].bsim, scores[i].distance)) {
      os << "match " << i << ": score " << got[i].bsim << " but the rank-" << i
         << " BSim is " << scores[i].distance << " (series " << scores[i].id
         << ")";
      return Str(os);
    }
  }
  return "";
}

void StepSubscription(SubscriptionModel* m, const std::vector<double>& window,
                      int64_t day, uint64_t* next_seq,
                      std::vector<s2::monitor::Alert>* out) {
  const double ratio = BurstRatio(window, m->window);
  s2::monitor::Alert a;
  a.subscription = m->id;
  a.series = m->series;
  a.day = day;
  a.value = ratio;
  if (!m->engaged && ratio >= m->enter) {
    m->engaged = true;
    a.kind = s2::monitor::AlertKind::kBurstBegin;
    a.threshold = m->enter;
  } else if (m->engaged && ratio < m->exit) {
    m->engaged = false;
    a.kind = s2::monitor::AlertKind::kBurstEnd;
    a.threshold = m->exit;
  } else {
    return;
  }
  a.seq = (*next_seq)++;
  out->push_back(a);
}

std::string CheckAlerts(const std::vector<s2::monitor::Alert>& polled,
                        const std::vector<s2::monitor::Alert>& expected,
                        uint64_t first_seq) {
  std::ostringstream os;
  os.precision(15);
  for (size_t i = 0; i < polled.size(); ++i) {
    const s2::monitor::Alert& a = polled[i];
    if (a.seq != first_seq + i) {
      os << "alert sequence gap: position " << i << " has seq " << a.seq
         << ", expected " << first_seq + i;
      return Str(os);
    }
    if (i >= expected.size()) {
      os << "unexpected alert seq " << a.seq << " on series " << a.series;
      return Str(os);
    }
    const s2::monitor::Alert& e = expected[i];
    if (a.subscription != e.subscription || a.kind != e.kind ||
        a.series != e.series || a.day != e.day) {
      os << "alert seq " << a.seq << ": subscription/kind/series/day "
         << a.subscription << "/" << static_cast<int>(a.kind) << "/" << a.series
         << "/" << a.day << ", expected " << e.subscription << "/"
         << static_cast<int>(e.kind) << "/" << e.series << "/" << e.day;
      return Str(os);
    }
    if (!Near(a.value, e.value)) {
      os << "alert seq " << a.seq << ": ratio " << a.value << ", recomputed "
         << e.value;
      return Str(os);
    }
    const bool crosses = a.kind == s2::monitor::AlertKind::kBurstBegin
                             ? a.value >= a.threshold
                             : a.value < a.threshold;
    if (!crosses || !Near(a.threshold, e.threshold)) {
      os << "alert seq " << a.seq << ": value " << a.value
         << " does not cross its bound " << a.threshold;
      return Str(os);
    }
  }
  if (polled.size() != expected.size()) {
    os << "polled " << polled.size() << " alerts, expected " << expected.size();
    return Str(os);
  }
  return "";
}

std::string CheckRecoveryCount(uint64_t anchor, uint64_t replayed,
                               uint64_t acknowledged) {
  if (anchor + replayed == acknowledged) return "";
  std::ostringstream os;
  os.precision(15);
  os << "recovery anchor " << anchor << " + replayed " << replayed
     << " != acknowledged appends " << acknowledged;
  return Str(os);
}

}  // namespace s2bench
