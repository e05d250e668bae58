// Tests for the annotated synchronization wrappers (common/sync.h):
// mutual exclusion through Mutex/MutexLock and CondVar signaling. The
// concurrency cases are TSan targets (see .github/workflows/ci.yml).

#include "common/sync.h"

#include <gtest/gtest.h>

#include <chrono>
#include <thread>
#include <vector>

namespace pqidx {
namespace {

TEST(SyncTest, MutexProvidesMutualExclusion) {
  Mutex mutex;
  int64_t counter = 0;
  constexpr int kThreads = 4;
  constexpr int kIncrements = 20000;
  std::vector<std::thread> threads;
  threads.reserve(kThreads);
  for (int t = 0; t < kThreads; ++t) {
    threads.emplace_back([&] {
      for (int i = 0; i < kIncrements; ++i) {
        MutexLock lock(&mutex);
        ++counter;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_EQ(counter, int64_t{kThreads} * kIncrements);
}

TEST(SyncTest, MutexTryLockReportsContention) {
  Mutex mutex;
  mutex.Lock();
  EXPECT_FALSE(mutex.TryLock());
  mutex.Unlock();
  EXPECT_TRUE(mutex.TryLock());
  mutex.Unlock();
}

TEST(SyncTest, MutexLockManualUnlockRelock) {
  // The group-commit leader drops the queue lock around the batch
  // commit and reacquires it to mark results; MutexLock::Unlock/Lock is
  // that window.
  Mutex mutex;
  MutexLock lock(&mutex);
  lock.Unlock();
  EXPECT_TRUE(mutex.TryLock());
  mutex.Unlock();
  lock.Lock();
  EXPECT_FALSE(mutex.TryLock());
}

TEST(SyncTest, CondVarWakesWaiter) {
  Mutex mutex;
  CondVar cv;
  bool ready = false;
  std::thread signaler([&] {
    std::this_thread::sleep_for(std::chrono::milliseconds(10));
    MutexLock lock(&mutex);
    ready = true;
    cv.NotifyAll();
  });
  {
    MutexLock lock(&mutex);
    while (!ready) cv.Wait(&mutex);
    EXPECT_TRUE(ready);
  }
  signaler.join();
}

}  // namespace
}  // namespace pqidx
