// Process-level crash-restart chaos harness for checkpointed recovery.
//
// The sweep re-executes this very test binary as a child process running
// ChaosChildWorkload.ChildWorkload: a deterministic verb schedule
// (subscriptions, appends, durable acks, coordinated checkpoints) against
// a real on-disk server whose I/O runs through a `FaultInjectingEnv` with
// `crash_is_fatal` — at mutating operation K the child `_exit(42)`s
// mid-syscall-sequence, exactly like a SIGKILL at that point. The child
// appends one fsynced byte to an `acked` file after each verb that
// returned OK, so the parent knows the acknowledged prefix precisely.
//
// The parent sweeps K = 1, 2, 3, ... until the child finishes crash-free,
// so every write/sync/rename/unlink boundary in the whole stack — WAL
// record writes, segment rotation, snapshot commit, manifest rename,
// checkpoint GC — is a crash site. After each crash it revives the server
// in-process from the same directory and requires the recovered state to
// equal a WAL-less shadow fed exactly the acknowledged verb prefix (or
// prefix+1 when the crash struck between a verb's durable WAL record and
// its acknowledgement — the unavoidable at-least-once boundary), and that
// recovery replayed only the WAL tail past the checkpoint anchor.

#include <fcntl.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "io/env.h"
#include "io/fault_env.h"
#include "monitor/subscription.h"
#include "querylog/corpus_generator.h"
#include "service/s2_server.h"

namespace s2::service {
namespace {

constexpr size_t kNumSeries = 12;
constexpr size_t kDays = 32;
constexpr int kFirstCheckpointVerb = 14;
constexpr int kSecondCheckpointVerb = 26;
constexpr int kVerbs = 36;

ts::Corpus MakeCorpus() {
  qlog::CorpusSpec spec;
  spec.num_series = kNumSeries;
  spec.n_days = kDays;
  spec.seed = 4242;
  auto corpus = qlog::GenerateCorpus(spec);
  EXPECT_TRUE(corpus.ok()) << corpus.status().ToString();
  return std::move(corpus).ValueOrDie();
}

core::S2Engine::Options EngineOptions() {
  core::S2Engine::Options options;
  return options;
}

S2Server::Options ChaosOptions(io::Env* env, const std::string& dir) {
  S2Server::Options options;
  options.scheduler.threads = 1;
  options.wal_path = dir + "/wal";
  options.wal_env = env;
  options.checkpoint_enabled = true;
  options.checkpoint_gc = true;
  // Small segments so the schedule rotates several times and GC has
  // segments to unlink — both are crash sites the sweep must cover.
  options.wal_rotate_bytes = 256;
  return options;
}

/// Applies verb `verb` of the deterministic schedule. The shadow (`live ==
/// false`) skips checkpoints — they change no logical state.
Status ApplyVerb(S2Server* server, int verb, bool live) {
  monitor::Subscription sub;
  switch (verb) {
    case 0:
      sub.kind = monitor::SubscriptionKind::kBurstThreshold;
      sub.series = 0;
      sub.burst.window = 5;
      sub.burst.enter_ratio = 1.3;
      sub.burst.exit_ratio = 1.1;
      return server->Subscribe(sub).status();
    case 1:
      sub.kind = monitor::SubscriptionKind::kPeriodicityChange;
      sub.series = 1;
      return server->Subscribe(sub).status();
    case 2:
      sub.kind = monitor::SubscriptionKind::kSimilarityWatch;
      sub.series = 2;
      sub.similarity.radius = 1.5;
      sub.similarity.query = server->engine().corpus().at(2).values;
      return server->Subscribe(sub).status();
    case 13: {
      const auto info = server->monitor_info();
      if (info.next_seq == 0) return Status::OK();
      return server->AckAlerts(info.next_seq - 1);
    }
    case kFirstCheckpointVerb:
    case kSecondCheckpointVerb:
      return live ? server->Checkpoint() : Status::OK();
    case 25:
      sub.kind = monitor::SubscriptionKind::kBurstThreshold;
      sub.series = 3;
      sub.burst.window = 5;
      sub.burst.enter_ratio = 1.2;
      sub.burst.exit_ratio = 1.05;
      return server->Subscribe(sub).status();
    case 33: {
      // Retire the periodicity subscription (found by kind+series so the
      // schedule does not depend on absolute id assignment).
      for (const auto& entry : server->engine().monitor_registry().List()) {
        if (entry.sub.kind == monitor::SubscriptionKind::kPeriodicityChange &&
            entry.sub.series == 1) {
          return server->Unsubscribe(entry.sub.id);
        }
      }
      return Status::OK();
    }
    default: {
      // The burst-watched series runs hot until the first checkpoint and
      // cold afterwards; series 3 spikes late to engage the second watch.
      const auto id = static_cast<ts::SeriesId>(verb % 4);
      double value = 10.0 + 0.5 * verb;
      if (id == 0) value = verb < kFirstCheckpointVerb ? 5000.0 + verb : 1.0;
      if (id == 3 && verb > kSecondCheckpointVerb) value = 900.0;
      return server->AppendPoint(id, value);
    }
  }
}

/// Appends among the first `n` verbs of the schedule.
uint64_t CountAppends(uint64_t n) {
  uint64_t appends = 0;
  for (uint64_t verb = 0; verb < n; ++verb) {
    if (verb > 2 && verb != 13 && verb != kFirstCheckpointVerb &&
        verb != kSecondCheckpointVerb && verb != 25 && verb != 33) {
      ++appends;
    }
  }
  return appends;
}

/// A WAL-less server fed exactly the first `n` verbs.
std::unique_ptr<S2Server> BuildShadow(uint64_t n) {
  S2Server::Options options;
  options.scheduler.threads = 1;
  auto server = S2Server::Build(MakeCorpus(), EngineOptions(), options);
  EXPECT_TRUE(server.ok()) << server.status().ToString();
  std::unique_ptr<S2Server> shadow = std::move(server).ValueOrDie();
  for (uint64_t verb = 0; verb < n; ++verb) {
    const Status status =
        ApplyVerb(shadow.get(), static_cast<int>(verb), /*live=*/false);
    EXPECT_TRUE(status.ok()) << "shadow verb " << verb << ": "
                             << status.ToString();
  }
  return shadow;
}

/// Non-mutating bit-level equality: corpus windows, registry entries with
/// hysteresis state, and the alert queue image (polling would perturb the
/// candidates, so the queue is read through its snapshot).
bool StatesEqual(S2Server* a, S2Server* b) {
  for (ts::SeriesId id = 0; id < kNumSeries; ++id) {
    const ts::TimeSeries& x = a->engine().corpus().at(id);
    const ts::TimeSeries& y = b->engine().corpus().at(id);
    if (x.start_day != y.start_day || x.values != y.values) return false;
  }
  const auto xs = a->engine().monitor_registry().List();
  const auto ys = b->engine().monitor_registry().List();
  if (xs.size() != ys.size()) return false;
  for (size_t i = 0; i < xs.size(); ++i) {
    if (xs[i].sub.id != ys[i].sub.id || xs[i].sub.kind != ys[i].sub.kind ||
        xs[i].sub.series != ys[i].sub.series ||
        xs[i].engaged != ys[i].engaged || xs[i].bin != ys[i].bin) {
      return false;
    }
  }
  const auto qa = a->alerts().Snapshot();
  const auto qb = b->alerts().Snapshot();
  if (qa.next_seq != qb.next_seq || qa.fired != qb.fired ||
      qa.dropped != qb.dropped || qa.acked != qb.acked ||
      qa.acked_upto != qb.acked_upto || qa.any_acked != qb.any_acked ||
      qa.queued.size() != qb.queued.size()) {
    return false;
  }
  for (size_t i = 0; i < qa.queued.size(); ++i) {
    if (qa.queued[i].seq != qb.queued[i].seq ||
        qa.queued[i].subscription != qb.queued[i].subscription ||
        qa.queued[i].kind != qb.queued[i].kind ||
        qa.queued[i].series != qb.queued[i].series ||
        qa.queued[i].day != qb.queued[i].day ||
        qa.queued[i].value != qb.queued[i].value) {
      return false;
    }
  }
  return true;
}

std::string AckedPath(const std::string& dir) { return dir + "/acked"; }

void AppendAckByte(const std::string& dir) {
  const int fd = ::open(AckedPath(dir).c_str(),
                        O_WRONLY | O_APPEND | O_CREAT, 0644);
  ASSERT_GE(fd, 0);
  ASSERT_EQ(::write(fd, "k", 1), 1);
  ASSERT_EQ(::fsync(fd), 0);
  ::close(fd);
}

uint64_t AckedCount(const std::string& dir) {
  struct stat st;
  if (::stat(AckedPath(dir).c_str(), &st) != 0) return 0;
  return static_cast<uint64_t>(st.st_size);
}

// The child workload: only meaningful when the parent sweep set the
// environment; under a plain ctest run it skips.
TEST(ChaosChildWorkload, ChildWorkload) {
  const char* dir_env = std::getenv("S2_CHAOS_DIR");
  const char* crash_env = std::getenv("S2_CHAOS_CRASH_AT");
  if (dir_env == nullptr || crash_env == nullptr) {
    GTEST_SKIP() << "chaos child: run via CrashRestartChaosTest";
  }
  const std::string dir = dir_env;
  io::FaultPlan plan;
  plan.crash_at_op = std::strtoull(crash_env, nullptr, 10);
  plan.crash_is_fatal = true;
  plan.count_metadata_ops = true;
  io::FaultInjectingEnv env(io::Env::Default(), plan);

  auto server =
      S2Server::Recover(MakeCorpus(), EngineOptions(), ChaosOptions(&env, dir));
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  for (int verb = 0; verb < kVerbs; ++verb) {
    // A fatal injected crash never returns, so any error here is a real
    // bug in the workload, not an injected fault.
    const Status status = ApplyVerb(server->get(), verb, /*live=*/true);
    ASSERT_TRUE(status.ok()) << "verb " << verb << ": " << status.ToString();
    AppendAckByte(dir);
    ASSERT_FALSE(::testing::Test::HasFatalFailure());
  }
  (*server)->Shutdown();
}

TEST(CrashRestartChaosTest, RecoveryMatchesAckedPrefixAtEveryFaultSite) {
  namespace fs = std::filesystem;
  constexpr uint64_t kMaxOps = 4096;
  const std::string self = "/proc/self/exe";
  bool completed = false;
  for (uint64_t crash_at = 1; crash_at <= kMaxOps && !completed; ++crash_at) {
    SCOPED_TRACE("crash at mutating op " + std::to_string(crash_at));
    const fs::path dir =
        fs::temp_directory_path() /
        ("s2_chaos_" + std::to_string(::getpid()) + "_" +
         std::to_string(crash_at));
    fs::remove_all(dir);
    fs::create_directories(dir);

    const pid_t pid = ::fork();
    ASSERT_GE(pid, 0);
    if (pid == 0) {
      ::setenv("S2_CHAOS_DIR", dir.c_str(), 1);
      ::setenv("S2_CHAOS_CRASH_AT", std::to_string(crash_at).c_str(), 1);
      ::execl(self.c_str(), self.c_str(),
              "--gtest_filter=*ChildWorkload*", "--gtest_brief=1",
              static_cast<char*>(nullptr));
      ::_exit(127);
    }
    int wstatus = 0;
    ASSERT_EQ(::waitpid(pid, &wstatus, 0), pid);
    ASSERT_TRUE(WIFEXITED(wstatus)) << "child did not exit normally";
    const int code = WEXITSTATUS(wstatus);
    ASSERT_TRUE(code == 0 || code == io::kCrashExitCode)
        << "child exit code " << code;
    completed = code == 0;
    const uint64_t acked = AckedCount(dir.string());
    if (completed) {
      ASSERT_EQ(acked, static_cast<uint64_t>(kVerbs));
    }

    // Revive in-process over whatever the crash left on disk.
    auto revived = S2Server::Recover(MakeCorpus(), EngineOptions(),
                                     ChaosOptions(nullptr, dir.string()));
    ASSERT_TRUE(revived.ok()) << revived.status().ToString();

    // The revived server must equal the shadow at the acknowledged prefix
    // — or prefix+1 when the crash hit between a verb's durable WAL
    // record and its acknowledgement byte.
    uint64_t matched_prefix = kVerbs + 1;
    for (uint64_t prefix : {acked, acked + 1}) {
      if (prefix > static_cast<uint64_t>(kVerbs)) break;
      std::unique_ptr<S2Server> shadow = BuildShadow(prefix);
      ASSERT_FALSE(::testing::Test::HasFatalFailure());
      if (StatesEqual(shadow.get(), revived->get())) {
        matched_prefix = prefix;
        break;
      }
      if (completed) break;  // Crash-free runs must match exactly.
    }
    ASSERT_LE(matched_prefix, static_cast<uint64_t>(kVerbs))
        << "revived state matches neither the acked prefix (" << acked
        << ") nor acked+1";

    // Once a checkpoint was acknowledged, recovery must come up from it
    // and replay only the tail past its anchor.
    const auto info = (*revived)->checkpoint_info();
    if (acked > kFirstCheckpointVerb) {
      EXPECT_TRUE(info.recovered_from_checkpoint);
    }
    if (info.recovered_from_checkpoint) {
      EXPECT_EQ((*revived)->stream_info().replayed_records,
                CountAppends(matched_prefix) - info.recovery_anchor_appends);
    }
    fs::remove_all(dir);
  }
  EXPECT_TRUE(completed) << "sweep did not terminate within " << kMaxOps
                         << " mutating ops";
}

}  // namespace
}  // namespace s2::service
