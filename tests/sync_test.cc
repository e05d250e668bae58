// Tests for the annotated synchronization wrappers (common/sync.h):
// mutual exclusion through Mutex/MutexLock, reader/writer semantics of
// SharedMutex, and CondVar signaling. The concurrency cases are TSan targets (see .github/workflows/ci.yml).

#include "common/sync.h"

#include <gtest/gtest.h>

#include <atomic>
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

TEST(SyncTest, SharedMutexAdmitsConcurrentReaders) {
  SharedMutex mutex;
  std::atomic<int> readers_inside{0};
  std::atomic<int> max_readers{0};
  constexpr int kReaders = 4;
  std::vector<std::thread> threads;
  threads.reserve(kReaders);
  for (int t = 0; t < kReaders; ++t) {
    threads.emplace_back([&] {
      ReaderLock lock(&mutex);
      int inside = readers_inside.fetch_add(1) + 1;
      int seen = max_readers.load();
      while (inside > seen &&
             !max_readers.compare_exchange_weak(seen, inside)) {
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
      readers_inside.fetch_sub(1);
    });
  }
  for (std::thread& t : threads) t.join();
  EXPECT_GT(max_readers.load(), 1) << "readers never overlapped";
}

TEST(SyncTest, SharedMutexWriterExcludesReaders) {
  SharedMutex mutex;
  int64_t value = 0;
  std::atomic<bool> start{false};
  std::thread writer([&] {
    WriterLock lock(&mutex);
    start.store(true);
    std::this_thread::sleep_for(std::chrono::milliseconds(30));
    value = 42;
  });
  while (!start.load()) std::this_thread::yield();
  {
    ReaderLock lock(&mutex);
    // The writer published before releasing; a reader admitted during
    // the write window would have seen 0.
    EXPECT_EQ(value, 42);
  }
  writer.join();
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
