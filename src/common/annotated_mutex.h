#ifndef FIELDREP_COMMON_ANNOTATED_MUTEX_H_
#define FIELDREP_COMMON_ANNOTATED_MUTEX_H_

#include <condition_variable>
#include <mutex>
#include <shared_mutex>

#include "common/lock_rank.h"

/// \file
/// Engine-wide lock vocabulary (DESIGN.md §13). Every mutex in the engine
/// is one of the wrappers below, which layer two checkers over the std
/// primitives:
///
///   1. Clang thread-safety annotations (compile time). Building with
///      clang and -Wthread-safety -Wthread-safety-beta turns unguarded
///      accesses to GUARDED_BY fields and REQUIRES violations into errors
///      (the CI `thread-safety` lane does, as -Werror). Under GCC the
///      macros expand to nothing.
///   2. The runtime lock-rank checker (common/lock_rank.h). Each wrapper
///      is constructed with a LockRank and a name; debug/sanitizer builds
///      abort with both lock names on any acquisition that inverts the
///      documented order. Release builds compile the checks out.
///
/// Raw std::mutex / std::shared_mutex declarations outside this header
/// are rejected by scripts/check_annotations.sh.

// ---------------------------------------------------------------------------
// Clang thread-safety annotation macros (canonical names from the Clang
// "Thread Safety Analysis" documentation; no-ops on other compilers).
// ---------------------------------------------------------------------------

#if defined(__clang__)
#define FIELDREP_TSA(x) __attribute__((x))
#else
#define FIELDREP_TSA(x)
#endif

#define CAPABILITY(x) FIELDREP_TSA(capability(x))
#define SCOPED_CAPABILITY FIELDREP_TSA(scoped_lockable)
#define GUARDED_BY(x) FIELDREP_TSA(guarded_by(x))
#define PT_GUARDED_BY(x) FIELDREP_TSA(pt_guarded_by(x))
#define ACQUIRED_BEFORE(...) FIELDREP_TSA(acquired_before(__VA_ARGS__))
#define ACQUIRED_AFTER(...) FIELDREP_TSA(acquired_after(__VA_ARGS__))
#define REQUIRES(...) FIELDREP_TSA(requires_capability(__VA_ARGS__))
#define REQUIRES_SHARED(...) FIELDREP_TSA(requires_shared_capability(__VA_ARGS__))
#define ACQUIRE(...) FIELDREP_TSA(acquire_capability(__VA_ARGS__))
#define ACQUIRE_SHARED(...) FIELDREP_TSA(acquire_shared_capability(__VA_ARGS__))
#define RELEASE(...) FIELDREP_TSA(release_capability(__VA_ARGS__))
#define RELEASE_SHARED(...) FIELDREP_TSA(release_shared_capability(__VA_ARGS__))
#define RELEASE_GENERIC(...) FIELDREP_TSA(release_generic_capability(__VA_ARGS__))
#define TRY_ACQUIRE(...) FIELDREP_TSA(try_acquire_capability(__VA_ARGS__))
#define TRY_ACQUIRE_SHARED(...) \
  FIELDREP_TSA(try_acquire_shared_capability(__VA_ARGS__))
#define EXCLUDES(...) FIELDREP_TSA(locks_excluded(__VA_ARGS__))
#define ASSERT_CAPABILITY(x) FIELDREP_TSA(assert_capability(x))
#define ASSERT_SHARED_CAPABILITY(x) FIELDREP_TSA(assert_shared_capability(x))
#define RETURN_CAPABILITY(x) FIELDREP_TSA(lock_returned(x))
#define NO_THREAD_SAFETY_ANALYSIS FIELDREP_TSA(no_thread_safety_analysis)

namespace fieldrep {

/// Condition variable usable with the annotated lock types below (their
/// guards are BasicLockable, so waits route unlock/relock through the rank
/// checker and keep the per-thread held stack truthful across the wait).
using CondVar = std::condition_variable_any;

// ---------------------------------------------------------------------------
// Mutex wrappers
// ---------------------------------------------------------------------------

/// std::mutex with a rank and a name. Satisfies Lockable.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex(LockRank rank, const char* name) : rank_(rank), name_(name) {}
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ACQUIRE() {
    lock_rank::OnAcquire(this, rank_, name_, /*blocking=*/true);
    mu_.lock();
  }
  bool try_lock() TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
    lock_rank::OnAcquire(this, rank_, name_, /*blocking=*/false);
    return true;
  }
  void unlock() RELEASE() {
    // Pop the rank entry first: the instant mu_.unlock() returns, a
    // waiter may acquire and destroy this mutex (RunBatch's stack-owned
    // batch state does), so `this` must not be touched afterwards.
    lock_rank::OnRelease(this, name_);
    mu_.unlock();
  }

  LockRank rank() const { return rank_; }
  const char* name() const { return name_; }

 private:
  std::mutex mu_;
  const LockRank rank_;
  const char* const name_;
};

/// std::shared_mutex with a rank and a name. Shared acquisitions are
/// rank-checked like exclusive ones (a reader blocking behind a writer
/// deadlocks all the same).
class CAPABILITY("shared_mutex") SharedMutex {
 public:
  SharedMutex(LockRank rank, const char* name) : rank_(rank), name_(name) {}
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void lock() ACQUIRE() {
    lock_rank::OnAcquire(this, rank_, name_, /*blocking=*/true);
    mu_.lock();
  }
  bool try_lock() TRY_ACQUIRE(true) {
    if (!mu_.try_lock()) return false;
    lock_rank::OnAcquire(this, rank_, name_, /*blocking=*/false);
    return true;
  }
  void unlock() RELEASE() {
    lock_rank::OnRelease(this, name_);  // before unlock; see Mutex
    mu_.unlock();
  }

  void lock_shared() ACQUIRE_SHARED() {
    lock_rank::OnAcquire(this, rank_, name_, /*blocking=*/true);
    mu_.lock_shared();
  }
  bool try_lock_shared() TRY_ACQUIRE_SHARED(true) {
    if (!mu_.try_lock_shared()) return false;
    lock_rank::OnAcquire(this, rank_, name_, /*blocking=*/false);
    return true;
  }
  void unlock_shared() RELEASE_SHARED() {
    lock_rank::OnRelease(this, name_);  // before unlock; see Mutex
    mu_.unlock_shared();
  }

  LockRank rank() const { return rank_; }
  const char* name() const { return name_; }

 private:
  std::shared_mutex mu_;
  const LockRank rank_;
  const char* const name_;
};

// ---------------------------------------------------------------------------
// Scoped guards
// ---------------------------------------------------------------------------

/// RAII lock of a Mutex (std::lock_guard shape).
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() RELEASE() { mu_.unlock(); }
  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// RAII shared (reader) lock of a SharedMutex.
class SCOPED_CAPABILITY ReaderMutexLock {
 public:
  explicit ReaderMutexLock(SharedMutex& mu) ACQUIRE_SHARED(mu) : mu_(mu) {
    mu_.lock_shared();
  }
  ~ReaderMutexLock() RELEASE() { mu_.unlock_shared(); }
  ReaderMutexLock(const ReaderMutexLock&) = delete;
  ReaderMutexLock& operator=(const ReaderMutexLock&) = delete;

 private:
  SharedMutex& mu_;
};

/// RAII exclusive (writer) lock of a SharedMutex.
class SCOPED_CAPABILITY WriterMutexLock {
 public:
  explicit WriterMutexLock(SharedMutex& mu) ACQUIRE(mu) : mu_(mu) {
    mu_.lock();
  }
  ~WriterMutexLock() RELEASE() { mu_.unlock(); }
  WriterMutexLock(const WriterMutexLock&) = delete;
  WriterMutexLock& operator=(const WriterMutexLock&) = delete;

 private:
  SharedMutex& mu_;
};

/// Relockable scoped lock of a Mutex (std::unique_lock shape): supports
/// deferred construction, manual unlock/relock, and CondVar waits (it is
/// BasicLockable). Not movable — it exists for scoped wait loops, not for
/// ownership transfer.
class SCOPED_CAPABILITY UniqueMutexLock {
 public:
  explicit UniqueMutexLock(Mutex& mu) ACQUIRE(mu) : mu_(&mu) {
    mu_->lock();
    owned_ = true;
  }
  UniqueMutexLock(Mutex& mu, std::defer_lock_t) EXCLUDES(mu) : mu_(&mu) {}
  ~UniqueMutexLock() RELEASE() {
    if (owned_) mu_->unlock();
  }
  UniqueMutexLock(const UniqueMutexLock&) = delete;
  UniqueMutexLock& operator=(const UniqueMutexLock&) = delete;

  void lock() ACQUIRE() {
    mu_->lock();
    owned_ = true;
  }
  void unlock() RELEASE() {
    mu_->unlock();
    owned_ = false;
  }
  bool owns_lock() const { return owned_; }

 private:
  Mutex* mu_;
  bool owned_ = false;
};

}  // namespace fieldrep

#endif  // FIELDREP_COMMON_ANNOTATED_MUTEX_H_
