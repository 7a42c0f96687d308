#ifndef KBQA_UTIL_MUTEX_H_
#define KBQA_UTIL_MUTEX_H_

#include <condition_variable>
#include <mutex>
#include <shared_mutex>

#include "util/thread_annotations.h"

namespace kbqa {

/// std::mutex wrapped as a Clang thread-safety *capability*, so members can
/// be declared `GUARDED_BY(mu_)` and the analysis proves every access holds
/// the lock. The lowercase lock/unlock/try_lock names keep the type a
/// standard Lockable: std::lock_guard<Mutex>, std::unique_lock<Mutex>, and
/// CondVar below all work with it. On GCC the annotations vanish and this
/// is a zero-cost shim over std::mutex.
class CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void lock() ACQUIRE() { mu_.lock(); }
  void unlock() RELEASE() { mu_.unlock(); }
  bool try_lock() TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  std::mutex mu_;
};

/// RAII lock over Mutex, annotated as a scoped capability: constructing it
/// tells the analysis the mutex is held until end of scope. Direct
/// replacement for std::lock_guard<std::mutex> at annotated call sites.
class SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex& mu) ACQUIRE(mu) : mu_(mu) { mu_.lock(); }
  ~MutexLock() RELEASE() { mu_.unlock(); }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

 private:
  Mutex& mu_;
};

/// std::shared_mutex as a capability: many holders in shared mode, or one
/// in exclusive mode. The analysis lets a shared holder read GUARDED_BY
/// members and only an exclusive holder write them. Hold it through
/// ReaderMutexLock or WriterMutexLock below.
class CAPABILITY("mutex") SharedMutex {
 public:
  SharedMutex() = default;
  SharedMutex(const SharedMutex&) = delete;
  SharedMutex& operator=(const SharedMutex&) = delete;

  void lock() ACQUIRE() { mu_.lock(); }
  void unlock() RELEASE() { mu_.unlock(); }
  void lock_shared() ACQUIRE_SHARED() { mu_.lock_shared(); }
  void unlock_shared() RELEASE_SHARED() { mu_.unlock_shared(); }

 private:
  std::shared_mutex mu_;
};

/// Holds a SharedMutex in shared mode until end of scope.
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

/// Holds a SharedMutex in exclusive mode until end of scope.
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

/// Condition variable paired with Mutex. Wait takes the mutex the caller
/// already holds (REQUIRES tells the analysis so); callers loop on their
/// predicate around Wait — the predicate then lives in the annotated
/// caller's body where guarded reads are checked, instead of inside an
/// unannotatable lambda handed to std::condition_variable::wait.
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  /// Atomically releases `mu` and blocks; reacquires `mu` before
  /// returning. Spurious wakeups happen — always loop on the predicate.
  void Wait(Mutex& mu) REQUIRES(mu) { cv_.wait(mu); }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  /// condition_variable_any works with any Lockable (our Mutex directly) —
  /// slightly heavier than std::condition_variable but it keeps the
  /// capability type in the signature the analysis checks.
  std::condition_variable_any cv_;
};

}  // namespace kbqa

#endif  // KBQA_UTIL_MUTEX_H_
