#ifndef S2_BASE_SYNC_H_
#define S2_BASE_SYNC_H_

// Annotated synchronization primitives. Every mutex in the codebase is a
// sync::Mutex or sync::SharedMutex constructed with a LockRank and a name;
// two mechanisms then keep lock discipline honest:
//
//   1. Compile time (Clang): the S2_CAPABILITY / S2_ACQUIRE / S2_RELEASE
//      annotations feed `-Wthread-safety -Werror` (src/CMakeLists.txt), so
//      touching an S2_GUARDED_BY field without the lock is a build break.
//
//   2. Run time (debug / sanitizer builds, i.e. whenever S2_DCHECK is on):
//      a thread-local held-lock stack asserts that ranks strictly increase
//      along every acquisition chain. Any cycle in the lock graph must
//      contain at least one edge that acquires a rank <= one already held,
//      so monotone acquisition makes lock-order deadlock impossible — and a
//      violation reports both acquisition sites through the structured
//      diag::ReportCheckFailure path instead of deadlocking in production
//      weeks later. Release builds compile the checker calls out entirely.
//
// The rank table below is the documented lock hierarchy (DESIGN.md §10
// reproduces it with the nesting chains that pin each value). Gaps are
// deliberate: new locks slot in without renumbering.

#include <condition_variable>
#include <cstddef>
#include <cstdint>
#include <mutex>
#include <shared_mutex>

#include "base/thread_annotations.h"
#include "diag/check.h"

namespace s2::sync {

/// Acquisition order: a thread may only acquire a lock whose rank is
/// STRICTLY GREATER than every lock it already holds. Outermost locks have
/// the smallest ranks.
enum class LockRank : uint32_t {
  /// service::S2Server engine_mu_ (SharedMutex): the outermost lock; held
  /// across whole verbs, and across checkpoint scheduling (→ kThreadPool),
  /// alert pushes (→ kAlertQueue), retry jitter (→ kRetryJitter) and
  /// disk-resident I/O (→ kFaultEnv/kMemEnv).
  kEngineState = 100,
  /// exec::ThreadPool queue mutex. Submit() runs under the exclusive
  /// engine lock when the append path schedules a background checkpoint.
  kThreadPool = 200,
  /// service::ResultCache LRU mutex. Self-contained methods; ranked above
  /// the engine so a future "probe cache while answering" path stays legal.
  kResultCache = 210,
  /// resilience::CircuitBreaker state mutex. Self-contained methods.
  kCircuitBreaker = 220,
  /// monitor::AlertQueue mutex. Push() runs under the exclusive engine
  /// lock on the append/subscribe paths.
  kAlertQueue = 230,
  /// service::S2Server export_mu_ (exported metric snapshots). Taken after
  /// alert_queue_.stats() has returned, never nested inside it.
  kMetricsExport = 240,
  /// resilience::RetryingSequenceSource jitter-RNG mutex; reached from
  /// retried reads under the engine lock.
  kRetryJitter = 300,
  /// io::FaultInjectingEnv plan/counter mutex. MaybeCrashLocked() calls
  /// base_->DropUnsynced() while holding it, so it must rank BELOW the
  /// base MemEnv.
  kFaultEnv = 400,
  /// io::MemEnv filesystem mutex; innermost of the I/O chain.
  kMemEnv = 500,
  /// service::MetricsRegistry map mutex: a leaf. Registration happens at
  /// construction; hot paths use pre-registered lock-free handles.
  kMetricsRegistry = 600,
};

namespace internal {

/// Lock-rank checker entry points. Always compiled (so one libs2_base
/// serves every build type); call sites are gated on S2_DIAG_DCHECK_IS_ON
/// so release builds pay nothing. `mutex_id` is the Mutex address, used to
/// match releases (which may be non-LIFO) to acquisitions.
void RankPushAcquire(const void* mutex_id, uint32_t rank, const char* name,
                     const char* file, int line);
void RankPop(const void* mutex_id);

/// Number of ranked locks the calling thread currently holds (test hook).
std::size_t HeldLockDepth();

}  // namespace internal

class CondVar;

/// Exclusive mutex with a rank and a name. The (file, line) defaults
/// capture the *caller's* acquisition site, which the rank checker reports
/// on violation.
class S2_CAPABILITY("mutex") Mutex {
 public:
  Mutex(LockRank rank, const char* name) : rank_(rank), name_(name) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock(const char* file = __builtin_FILE(),
            int line = __builtin_LINE()) S2_ACQUIRE() {
    (void)file;
    (void)line;
#if S2_DIAG_DCHECK_IS_ON
    // Checked before blocking: an actual inversion may deadlock in lock(),
    // so the report must come first.
    internal::RankPushAcquire(this, static_cast<uint32_t>(rank_), name_,
                              file, line);
#endif
    mu_.lock();
  }

  /// Rank discipline applies to successful tries too: this codebase has no
  /// deadlock-avoidance try-lock idiom, so an out-of-order TryLock is a
  /// hierarchy bug even though it cannot block.
  bool TryLock(const char* file = __builtin_FILE(),
               int line = __builtin_LINE()) S2_TRY_ACQUIRE(true) {
    (void)file;
    (void)line;
    if (!mu_.try_lock()) return false;
#if S2_DIAG_DCHECK_IS_ON
    internal::RankPushAcquire(this, static_cast<uint32_t>(rank_), name_,
                              file, line);
#endif
    return true;
  }

  void Unlock() S2_RELEASE() {
    mu_.unlock();
#if S2_DIAG_DCHECK_IS_ON
    internal::RankPop(this);
#endif
  }

  LockRank rank() const { return rank_; }
  const char* name() const { return name_; }

 private:
  friend class CondVar;
  std::mutex mu_;
  const LockRank rank_;
  const char* const name_;
};

/// RAII exclusive lock (Abseil-style pointer argument).
class S2_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu, const char* file = __builtin_FILE(),
                     int line = __builtin_LINE()) S2_ACQUIRE(mu)
      : mu_(mu) {
    mu_->Lock(file, line);
  }
  ~MutexLock() S2_RELEASE() { mu_->Unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex* const mu_;
};

/// Reader/writer mutex with the same rank discipline. Shared acquisitions
/// participate in rank checking exactly like exclusive ones: taking the
/// same SharedMutex shared twice on one thread is flagged (it can deadlock
/// against a queued writer on writer-priority implementations).
class S2_CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex(LockRank rank, const char* name) : rank_(rank), name_(name) {}
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void Lock(const char* file = __builtin_FILE(),
            int line = __builtin_LINE()) S2_ACQUIRE() {
    (void)file;
    (void)line;
#if S2_DIAG_DCHECK_IS_ON
    internal::RankPushAcquire(this, static_cast<uint32_t>(rank_), name_,
                              file, line);
#endif
    mu_.lock();
  }

  void Unlock() S2_RELEASE() {
    mu_.unlock();
#if S2_DIAG_DCHECK_IS_ON
    internal::RankPop(this);
#endif
  }

  void LockShared(const char* file = __builtin_FILE(),
                  int line = __builtin_LINE()) S2_ACQUIRE_SHARED() {
    (void)file;
    (void)line;
#if S2_DIAG_DCHECK_IS_ON
    internal::RankPushAcquire(this, static_cast<uint32_t>(rank_), name_,
                              file, line);
#endif
    mu_.lock_shared();
  }

  void UnlockShared() S2_RELEASE_SHARED() {
    mu_.unlock_shared();
#if S2_DIAG_DCHECK_IS_ON
    internal::RankPop(this);
#endif
  }

  LockRank rank() const { return rank_; }
  const char* name() const { return name_; }

 private:
  std::shared_mutex mu_;
  const LockRank rank_;
  const char* const name_;
};

/// RAII exclusive (writer) lock on a SharedMutex.
class S2_SCOPED_CAPABILITY WriterMutexLock {
 public:
  explicit WriterMutexLock(SharedMutex* mu,
                           const char* file = __builtin_FILE(),
                           int line = __builtin_LINE()) S2_ACQUIRE(mu)
      : mu_(mu) {
    mu_->Lock(file, line);
  }
  ~WriterMutexLock() S2_RELEASE() { mu_->Unlock(); }
  WriterMutexLock(const WriterMutexLock&) = delete;
  WriterMutexLock& operator=(const WriterMutexLock&) = delete;

 private:
  SharedMutex* const mu_;
};

/// RAII shared (reader) lock on a SharedMutex. The destructor releases a
/// shared capability, which the analysis models as "generic" release on a
/// scoped capability.
class S2_SCOPED_CAPABILITY ReaderMutexLock {
 public:
  explicit ReaderMutexLock(SharedMutex* mu,
                           const char* file = __builtin_FILE(),
                           int line = __builtin_LINE()) S2_ACQUIRE_SHARED(mu)
      : mu_(mu) {
    mu_->LockShared(file, line);
  }
  ~ReaderMutexLock() S2_RELEASE_GENERIC() { mu_->UnlockShared(); }
  ReaderMutexLock(const ReaderMutexLock&) = delete;
  ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;

 private:
  SharedMutex* const mu_;
};

/// Condition variable bound to sync::Mutex. Spurious wakeups happen:
/// callers re-test their predicate in a while loop around Wait(). Keep the
/// predicate test inline in that loop (not in a lambda) — Clang analyzes
/// lambda bodies without the caller's lock set, so a guarded-field read
/// inside a wait predicate lambda is a false positive under -Wthread-safety.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mu` and blocks; re-acquires before returning.
  /// The rank checker keeps `mu` on the held stack across the wait: the
  /// thread is blocked the whole time, and on wakeup it owns the lock
  /// again, so the stack stays truthful at every observable point.
  void Wait(Mutex* mu) S2_REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu->mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace s2::sync

#endif  // S2_BASE_SYNC_H_
