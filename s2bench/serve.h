// Client-side helpers shared by the workloads: one closed-loop request
// through S2Server's public Submit/Get verbs, an answer fingerprint, and a
// small parallel loop for the checks that run after the timed phase.
#ifndef S2BENCH_SERVE_H_
#define S2BENCH_SERVE_H_

#include <bit>
#include <cstdint>
#include <thread>
#include <vector>

#include "common.h"
#include "service/s2_server.h"

namespace s2bench {

/// One request as the client saw it.
struct Served {
  s2::service::QueryResponse response;
  bool ok = false;
  double wall_ms = 0.0;  ///< Submit to Get, as the client waits.
  double cpu_ms = 0.0;   ///< Process CPU over the same interval.
};

/// Submits `request` and blocks on its answer. With a single client the
/// process CPU reading covers this request alone: the client is blocked
/// while the worker and shard threads serve it.
inline Served Serve(s2::service::S2Server* server,
                    const s2::service::QueryRequest& request) {
  Served s;
  const double c0 = ProcessCpuSeconds();
  const double t0 = WallSeconds();
  auto ticket = server->Submit(request);
  if (ticket.ok()) {
    s.response = ticket.value().Get();
    s.ok = s.response.status.ok();
  } else {
    s.response.status = ticket.status();
  }
  s.wall_ms = 1e3 * (WallSeconds() - t0);
  s.cpu_ms = 1e3 * (ProcessCpuSeconds() - c0);
  return s;
}

/// FNV-1a over everything an answer carries, so two answers can be compared
/// after the run without keeping them.
inline uint64_t Fingerprint(const s2::service::QueryResponse& r) {
  uint64_t h = 1469598103934665603ull;
  const auto mix = [&h](uint64_t v) {
    h ^= v;
    h *= 1099511628211ull;
  };
  const auto mixd = [&mix](double v) { mix(std::bit_cast<uint64_t>(v)); };
  for (const auto& n : r.neighbors) {
    mix(n.id);
    mixd(n.distance);
  }
  for (const auto& p : r.periods) {
    mix(p.bin);
    mixd(p.power);
    mixd(p.period);
  }
  for (const auto& b : r.bursts) {
    mix(static_cast<uint64_t>(static_cast<int64_t>(b.start)));
    mix(static_cast<uint64_t>(static_cast<int64_t>(b.end)));
    mixd(b.avg_value);
  }
  for (const auto& m : r.burst_matches) {
    mix(m.series_id);
    mixd(m.bsim);
  }
  mix(r.quality.guaranteed_exact ? 1 : 0);
  mixd(r.quality.epsilon);
  mix(r.quality.candidates);
  return h;
}

/// Runs fn(i) for i in [0, n) on up to four threads (checks only; never
/// inside a timed phase).
template <typename Fn>
void ParallelFor(size_t n, Fn fn) {
  const size_t threads = std::min<size_t>(4, std::max<size_t>(1, n));
  std::vector<std::thread> pool;
  for (size_t t = 0; t < threads; ++t) {
    pool.emplace_back([&, t] {
      for (size_t i = t; i < n; i += threads) fn(i);
    });
  }
  for (std::thread& th : pool) th.join();
}

}  // namespace s2bench

#endif  // S2BENCH_SERVE_H_
