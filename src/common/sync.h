// Capability-annotated synchronization primitives: thin, header-only
// wrappers over the std types that carry the Clang thread-safety
// attributes from common/thread_annotations.h. All locking in the
// project goes through these -- tools/lint.py rule R6 forbids the raw
// std primitives outside this header -- so -DPQIDX_THREAD_SAFETY=ON
// (CMakeLists.txt) can prove every guarded access holds the right lock
// at compile time. On non-Clang compilers the attributes vanish and
// each wrapper inlines to the std call it wraps.
//
// Conventions (docs/ARCHITECTURE.md, "Locking model"):
//
//   * every Mutex member documents what it guards by
//     putting PQIDX_GUARDED_BY on those members (lint rule R8 requires
//     at least one reference per mutex member);
//   * condition waits are written as explicit loops --
//     `while (!pred) cv.Wait(&mu);` -- not predicate lambdas: the
//     analysis is intra-procedural, so a lambda reading guarded state
//     would need its own escape hatch;
//   * MutexLock supports Unlock()/Lock() for windows where a blocking
//     call must run unlocked (group-commit leaders).

#ifndef PQIDX_COMMON_SYNC_H_
#define PQIDX_COMMON_SYNC_H_

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <mutex>

#include "common/thread_annotations.h"

namespace pqidx {

class CondVar;

// Exclusive mutex (std::mutex) as a Clang capability.
class PQIDX_CAPABILITY("mutex") Mutex {
 public:
  Mutex() = default;
  Mutex(const Mutex&) = delete;
  Mutex& operator=(const Mutex&) = delete;

  void Lock() PQIDX_ACQUIRE() { mu_.lock(); }
  void Unlock() PQIDX_RELEASE() { mu_.unlock(); }
  bool TryLock() PQIDX_TRY_ACQUIRE(true) { return mu_.try_lock(); }

 private:
  friend class CondVar;
  std::mutex mu_;
};

// RAII exclusive scope over a Mutex. Unlock()/Lock() reopen the scope
// around blocking calls that must run unlocked; the destructor releases
// only if currently held.
class PQIDX_SCOPED_CAPABILITY MutexLock {
 public:
  explicit MutexLock(Mutex* mu) PQIDX_ACQUIRE(mu) : mu_(mu) { mu_->Lock(); }
  ~MutexLock() PQIDX_RELEASE() {
    if (held_) mu_->Unlock();
  }

  MutexLock(const MutexLock&) = delete;
  MutexLock& operator=(const MutexLock&) = delete;

  void Unlock() PQIDX_RELEASE() {
    held_ = false;
    mu_->Unlock();
  }
  void Lock() PQIDX_ACQUIRE() {
    mu_->Lock();
    held_ = true;
  }

 private:
  Mutex* const mu_;
  bool held_ = true;
};

// Condition variable bound to Mutex. Wait() takes the Mutex the caller
// holds; spurious wakeups are possible, so callers loop:
//   MutexLock lock(&mu);
//   while (!condition) cv.Wait(&mu);
class CondVar {
 public:
  CondVar() = default;
  CondVar(const CondVar&) = delete;
  CondVar& operator=(const CondVar&) = delete;

  // Atomically releases *mu, sleeps, and reacquires *mu before
  // returning.
  void Wait(Mutex* mu) PQIDX_REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu->mu_, std::adopt_lock);
    cv_.wait(lock);
    lock.release();
  }

  // As Wait, but returns after at most `timeout_us` microseconds.
  // Returns false on timeout, true when notified (spurious wakeups
  // count as notifications; callers loop on their predicate either
  // way).
  bool WaitFor(Mutex* mu, int64_t timeout_us) PQIDX_REQUIRES(mu) {
    std::unique_lock<std::mutex> lock(mu->mu_, std::adopt_lock);
    const std::cv_status status =
        cv_.wait_for(lock, std::chrono::microseconds(timeout_us));
    lock.release();
    return status == std::cv_status::no_timeout;
  }

  void NotifyOne() { cv_.notify_one(); }
  void NotifyAll() { cv_.notify_all(); }

 private:
  std::condition_variable cv_;
};

}  // namespace pqidx

#endif  // PQIDX_COMMON_SYNC_H_
