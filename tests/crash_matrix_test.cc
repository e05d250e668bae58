// Crash and fault-injection matrix for the durable index
// (storage/persistent_forest_index.h over storage/pager.h):
//
//   * every Pager::CrashPoint x many randomized ApplyBatch workloads,
//     several commits deep, asserting that reopening recovers exactly
//     the last durable state (full ForestIndex equality against an
//     in-memory mirror) and that the WAL replay/discard accounting is
//     reported correctly;
//   * an exhaustive InjectWriteFailureAfter sweep over a fixed batch:
//     every raw-write offset either commits the batch fully or poisons
//     the pager and recovers to a consistent pre- or post-batch state on
//     reopen -- never a torn mix.
//
// Both crash points fire after the WAL is sealed, so the crashed batch
// is always durable: recovery replays it and the store must equal the
// post-batch mirror.

#include <gtest/gtest.h>

#include <atomic>
#include <cstdio>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "core/forest_index.h"
#include "core/pqgram_index.h"
#include "service/client.h"
#include "service/server.h"
#include "service/transport.h"
#include "storage/pager.h"
#include "storage/persistent_forest_index.h"
#include "storage/sharded_store.h"
#include "test_util.h"

namespace pqidx {
namespace {

using StorePtr = std::unique_ptr<PersistentForestIndex>;

// One exclusive scratch dir per test process (see test_util.h): keeps
// parallel `ctest -j` shards and reruns from colliding on store names.
std::string TempPath(const std::string& name) {
  static pqidx::testing::ScopedTempDir dir;
  return dir.File(name);
}

void RemoveStoreFiles(const std::string& path) {
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
}

// A random bag of `tuples` distinct fingerprints with counts in [1, 3].
PqGramIndex RandomBag(Rng* rng, const PqShape& shape, int tuples) {
  PqGramIndex bag(shape);
  for (int i = 0; i < tuples; ++i) {
    bag.Add(static_cast<PqGramFingerprint>(rng->Next()),
            rng->Uniform(1, 3));
  }
  return bag;
}

// A random sub-bag of `bag`: each stored occurrence is retracted with
// probability ~1/3 (possibly empty).
PqGramIndex RandomSubBag(Rng* rng, const PqGramIndex& bag) {
  PqGramIndex minus(bag.shape());
  for (const auto& [fp, count] : bag.counts()) {
    int64_t take = static_cast<int64_t>(rng->NextBounded(
        static_cast<uint64_t>(count) + 1));
    if (take > 0 && rng->Bernoulli(0.5)) minus.Add(fp, take);
  }
  return minus;
}

// Owns the bags a batch of BatchEdits points into, plus the expected
// post-batch state.
struct PlannedBatch {
  std::vector<std::unique_ptr<PqGramIndex>> bags;
  std::vector<PersistentForestIndex::BatchEdit> edits;
};

// Plans a randomized insert/update mix against `mirror` (which tracks
// the expected durable state) and applies it to the mirror eagerly; the
// caller decides whether the store commit survives.
PlannedBatch PlanBatch(Rng* rng, ForestIndex* mirror, TreeId* next_id) {
  PlannedBatch batch;
  const int kEdits = static_cast<int>(rng->Uniform(1, 5));
  std::vector<TreeId> present = mirror->TreeIds();
  for (int e = 0; e < kEdits; ++e) {
    const bool add = present.empty() || rng->Bernoulli(0.4);
    PersistentForestIndex::BatchEdit edit;
    if (add) {
      edit.id = (*next_id)++;
      auto bag = std::make_unique<PqGramIndex>(
          RandomBag(rng, mirror->shape(), static_cast<int>(
                        rng->Uniform(3, 24))));
      mirror->AddIndex(edit.id, *bag);
      present.push_back(edit.id);
      edit.add = bag.get();
      batch.bags.push_back(std::move(bag));
    } else {
      edit.id = present[rng->NextBounded(present.size())];
      const PqGramIndex* current = mirror->Find(edit.id);
      auto minus = std::make_unique<PqGramIndex>(RandomSubBag(rng, *current));
      auto plus = std::make_unique<PqGramIndex>(
          RandomBag(rng, mirror->shape(), static_cast<int>(
                        rng->Uniform(0, 8))));
      PqGramIndex updated = *current;
      for (const auto& [fp, count] : minus->counts()) {
        updated.Remove(fp, count);
      }
      for (const auto& [fp, count] : plus->counts()) updated.Add(fp, count);
      mirror->AddIndex(edit.id, std::move(updated));  // replaces
      edit.plus = plus.get();
      edit.minus = minus.get();
      batch.bags.push_back(std::move(plus));
      batch.bags.push_back(std::move(minus));
    }
    batch.edits.push_back(edit);
  }
  return batch;
}

void ExpectStoreEquals(PersistentForestIndex* store,
                       const ForestIndex& mirror, const std::string& label) {
  store->CheckConsistency();
  StatusOr<ForestIndex> materialized = store->MaterializeForest();
  ASSERT_TRUE(materialized.ok()) << label << ": "
                                 << materialized.status().ToString();
  EXPECT_TRUE(*materialized == mirror) << label
                                       << ": recovered state diverges";
}

// One randomized workload: build a store several commits deep (mixed
// ApplyBatch / BulkAdd / RemoveTree), crash the final ApplyBatch at
// `point`, reopen, and require exactly the post-batch state.
void RunCrashWorkload(Pager::CrashPoint point, int workload) {
  const PqShape shape{2, 3};
  const std::string name =
      "crash_matrix_" +
      std::to_string(point == Pager::CrashPoint::kAfterWalSeal ? 0 : 1) +
      "_" + std::to_string(workload) + ".db";
  const std::string path = TempPath(name);
  RemoveStoreFiles(path);

  Rng rng(0xC0FFEE00 + static_cast<uint64_t>(workload) * 977 +
          (point == Pager::CrashPoint::kDuringInPlace ? 1 : 0));
  ForestIndex mirror(shape);
  TreeId next_id = 0;
  {
    StatusOr<StorePtr> created = PersistentForestIndex::Create(path, shape);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    StorePtr store = std::move(created).value();

    // Seed commit: a BulkAdd transaction so recovery must cross several
    // earlier commits, not just one.
    {
      std::vector<std::unique_ptr<PqGramIndex>> bags;
      std::vector<std::pair<TreeId, const PqGramIndex*>> refs;
      const int seed_trees = static_cast<int>(rng.Uniform(1, 4));
      for (int i = 0; i < seed_trees; ++i) {
        TreeId id = next_id++;
        bags.push_back(std::make_unique<PqGramIndex>(
            RandomBag(&rng, shape, static_cast<int>(rng.Uniform(4, 20)))));
        mirror.AddIndex(id, *bags.back());
        refs.emplace_back(id, bags.back().get());
      }
      ASSERT_TRUE(store->BulkAdd(refs).ok());
    }

    // 1-3 committed randomized batches, with an occasional RemoveTree
    // (its own commit) between them.
    const int committed_batches = static_cast<int>(rng.Uniform(1, 3));
    for (int b = 0; b < committed_batches; ++b) {
      PlannedBatch batch = PlanBatch(&rng, &mirror, &next_id);
      std::vector<Status> results;
      ASSERT_TRUE(store->ApplyBatch(batch.edits, &results).ok());
      for (const Status& s : results) ASSERT_TRUE(s.ok()) << s.ToString();
      if (rng.Bernoulli(0.3)) {
        std::vector<TreeId> present = mirror.TreeIds();
        TreeId victim = present[rng.NextBounded(present.size())];
        if (mirror.size() > 1) {
          ASSERT_TRUE(store->RemoveTree(victim).ok());
          mirror.RemoveTree(victim);
        }
      }
    }

    // The crashed batch: armed commit dies at `point`, after the WAL
    // seal, so the batch IS durable.
    PlannedBatch batch = PlanBatch(&rng, &mirror, &next_id);
    std::vector<Status> results;
    ASSERT_TRUE(store->CrashNextCommit(point).ok());
    ASSERT_TRUE(store->ApplyBatch(batch.edits, &results).ok());
    // The store object is dead now (the pager dropped its file handle);
    // it is discarded without further use, exactly like a real crash.
  }

  StatusOr<StorePtr> reopened = PersistentForestIndex::Open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  // Recovery must have replayed exactly the one sealed WAL.
  EXPECT_EQ((*reopened)->pager().wal_replays(), 1) << "workload " << workload;
  EXPECT_EQ((*reopened)->pager().wal_discards(), 0);
  ExpectStoreEquals(reopened->get(), mirror,
                    "workload " + std::to_string(workload));
  RemoveStoreFiles(path);
}

TEST(CrashMatrixTest, AfterWalSealRecoversDurably) {
  for (int workload = 0; workload < 50; ++workload) {
    RunCrashWorkload(Pager::CrashPoint::kAfterWalSeal, workload);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(CrashMatrixTest, DuringInPlaceRecoversDurably) {
  for (int workload = 0; workload < 50; ++workload) {
    RunCrashWorkload(Pager::CrashPoint::kDuringInPlace, workload);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

// A crash with no armed commit is just a clean close; reopening must
// not report any WAL activity.
TEST(CrashMatrixTest, CleanCloseReportsNoWalActivity) {
  const PqShape shape{2, 2};
  const std::string path = TempPath("crash_matrix_clean.db");
  RemoveStoreFiles(path);
  Rng rng(42);
  {
    StatusOr<StorePtr> store = PersistentForestIndex::Create(path, shape);
    ASSERT_TRUE(store.ok());
    PqGramIndex bag = RandomBag(&rng, shape, 10);
    ASSERT_TRUE((*store)->AddIndex(1, bag).ok());
  }
  StatusOr<StorePtr> reopened = PersistentForestIndex::Open(path);
  ASSERT_TRUE(reopened.ok());
  EXPECT_EQ((*reopened)->pager().wal_replays(), 0);
  EXPECT_EQ((*reopened)->pager().wal_discards(), 0);
  RemoveStoreFiles(path);
}

// ---------------------------------------------------------------------------
// InjectWriteFailureAfter sweep.

// Deterministically rebuilds the sweep's base store and returns it; the
// mirrors of the pre- and post-batch states are rebuilt alongside.
struct SweepFixture {
  StorePtr store;
  ForestIndex before;
  ForestIndex after;
  PlannedBatch batch;
};

void BuildSweepFixture(const std::string& path, SweepFixture* fx) {
  const PqShape shape{2, 3};
  RemoveStoreFiles(path);
  Rng rng(0xFA11);
  fx->before = ForestIndex(shape);
  TreeId next_id = 0;
  StatusOr<StorePtr> created = PersistentForestIndex::Create(path, shape);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  fx->store = std::move(created).value();
  for (int i = 0; i < 4; ++i) {
    TreeId id = next_id++;
    PqGramIndex bag = RandomBag(&rng, shape, 20);
    fx->before.AddIndex(id, bag);
    ASSERT_TRUE(fx->store->AddIndex(id, bag).ok());
  }
  // The fixed batch under test: two updates and two adds, built from the
  // same seed every rebuild so every offset sees identical writes.
  fx->after = fx->before;
  fx->batch = PlanBatch(&rng, &fx->after, &next_id);
}

TEST(CrashMatrixTest, WriteFailureSweepNeverTearsABatch) {
  const std::string path = TempPath("crash_matrix_sweep.db");
  // Far above any plausible write count for this batch; the sweep must
  // terminate by committing cleanly well before this cap.
  const int kMaxOffsets = 2000;
  int committed_at = -1;
  for (int after = 0; after < kMaxOffsets; ++after) {
    SweepFixture fx;
    BuildSweepFixture(path, &fx);
    if (::testing::Test::HasFatalFailure()) return;

    fx.store->mutable_pager()->InjectWriteFailureAfter(after);
    std::vector<Status> results;
    Status status = fx.store->ApplyBatch(fx.batch.edits, &results);

    if (status.ok()) {
      // The injection budget covered the whole commit: the batch is
      // fully durable, in memory and across a reopen.
      for (const Status& s : results) EXPECT_TRUE(s.ok()) << s.ToString();
      ExpectStoreEquals(fx.store.get(), fx.after,
                        "committed at offset " + std::to_string(after));
      fx.store.reset();
      StatusOr<StorePtr> reopened = PersistentForestIndex::Open(path);
      ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
      EXPECT_EQ((*reopened)->pager().wal_replays(), 0);
      EXPECT_EQ((*reopened)->pager().wal_discards(), 0);
      ExpectStoreEquals(reopened->get(), fx.after, "reopen after commit");
      committed_at = after;
      break;
    }

    // Failure path: every staged edit reports the commit failure, the
    // pager is poisoned, and every subsequent operation refuses to run.
    EXPECT_TRUE(fx.store->pager().poisoned()) << "offset " << after;
    for (const Status& s : results) {
      EXPECT_FALSE(s.ok()) << "offset " << after;
    }
    StatusOr<ForestIndex> blocked = fx.store->MaterializeForest();
    ASSERT_FALSE(blocked.ok());
    EXPECT_EQ(blocked.status().code(), StatusCode::kFailedPrecondition);
    PqGramIndex probe(PqShape{2, 3});
    probe.Add(1, 1);  // non-empty, so the lookup must probe pages
    EXPECT_FALSE(fx.store->Lookup(probe, 1.0).ok());

    // Reopen: recovery lands on exactly the pre- or post-batch state --
    // post iff the WAL reached its seal before the injected failure --
    // and accounts for the leftover WAL either way.
    fx.store.reset();
    StatusOr<StorePtr> reopened = PersistentForestIndex::Open(path);
    ASSERT_TRUE(reopened.ok())
        << "offset " << after << ": " << reopened.status().ToString();
    const int64_t replays = (*reopened)->pager().wal_replays();
    const int64_t discards = (*reopened)->pager().wal_discards();
    EXPECT_EQ(replays + discards, 1)
        << "offset " << after << ": the failed commit always leaves a WAL";
    (*reopened)->CheckConsistency();
    StatusOr<ForestIndex> recovered = (*reopened)->MaterializeForest();
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    const bool is_before = *recovered == fx.before;
    const bool is_after = *recovered == fx.after;
    EXPECT_TRUE(is_before || is_after)
        << "offset " << after << " recovered to a torn state";
    // A replayed (sealed) WAL must carry the batch; a discarded one must
    // leave the pre-batch state.
    if (replays == 1) {
      EXPECT_TRUE(is_after) << "offset " << after;
    } else {
      EXPECT_TRUE(is_before) << "offset " << after;
    }
  }
  // The sweep covered every failing offset and ended with a clean
  // commit, so each raw write of the transaction was failed exactly once.
  ASSERT_GE(committed_at, 1) << "sweep never reached a successful commit";
  RemoveStoreFiles(path);
}

// ---------------------------------------------------------------------------
// Server group commits x pager crash.

// A pager crash in the middle of a server's group-commit stream (held
// leadership so concurrent writers share batches, incremental
// snapshots). Both crash points fire after the WAL seal, so the crashed
// batch is durable and its writers are acked; every batch behind it hits
// the poisoned pager, fails, and must leave nothing durable. Reopening
// recovers exactly the acked edits -- the atomic before/after-batch
// guarantee. (The name predates the single commit leader; the server's
// commits are no longer pipelined.)
TEST(CrashMatrixTest, PipelinedServerCrashKeepsExactlyAckedEdits) {
  for (Pager::CrashPoint point : {Pager::CrashPoint::kAfterWalSeal,
                                  Pager::CrashPoint::kDuringInPlace}) {
    const bool seal = point == Pager::CrashPoint::kAfterWalSeal;
    const PqShape shape{2, 2};
    const std::string path = TempPath(
        std::string("crash_matrix_server_") + (seal ? "seal" : "inplace") +
        ".db");
    RemoveStoreFiles(path);
    StatusOr<std::unique_ptr<ShardedStore>> created =
        ShardedStore::Create(path, shape);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    std::unique_ptr<ShardedStore> store = std::move(created).value();

    ServerOptions options;
    options.max_connections = 8;
    options.commit_hold_us = 200;
    Server server(store.get(), options);
    auto listener = std::make_unique<PipeListener>();
    PipeListener* connect_point = listener.get();
    ASSERT_TRUE(server.Start(std::move(listener)).ok());

    auto connect = [&] {
      StatusOr<std::unique_ptr<Connection>> conn = connect_point->Connect();
      EXPECT_TRUE(conn.ok());
      StatusOr<std::unique_ptr<Client>> client =
          Client::Connect(std::move(*conn));
      EXPECT_TRUE(client.ok()) << client.status().ToString();
      return std::move(client).value();
    };

    constexpr int kWriters = 4;
    constexpr int kEditsPerWriter = 12;
    {
      // Seed one tree per writer; these commits land before the crash
      // is armed.
      std::unique_ptr<Client> seeder = connect();
      for (int w = 0; w < kWriters; ++w) {
        PqGramIndex bag(shape);
        bag.Add(static_cast<PqGramFingerprint>(w + 1), 1);
        ASSERT_TRUE(seeder->AddIndex(static_cast<TreeId>(w), bag).ok());
      }
    }
    // A single-shard store delegates commits to its one shard, so the
    // shard-level crash hook covers the whole service commit.
    ASSERT_TRUE(store->shard(0)->CrashNextCommit(point).ok());

    std::mutex acked_mutex;
    std::vector<std::vector<PqGramFingerprint>> acked(kWriters);
    int total_acked = 0;
    int total_failed = 0;
    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; ++w) {
      writers.emplace_back([&, w] {
        std::unique_ptr<Client> client = connect();
        for (int i = 0; i < kEditsPerWriter; ++i) {
          PqGramIndex plus(shape);
          const PqGramFingerprint fp =
              static_cast<PqGramFingerprint>(1000 + w * 100 + i);
          plus.Add(fp, 1);
          Status s = client->ApplyDeltas(static_cast<TreeId>(w), plus,
                                         PqGramIndex(shape), 1);
          std::lock_guard<std::mutex> lock(acked_mutex);
          if (s.ok()) {
            acked[static_cast<size_t>(w)].push_back(fp);
            ++total_acked;
          } else {
            ++total_failed;
          }
        }
      });
    }
    for (std::thread& t : writers) t.join();
    server.Stop();

    // Exactly one commit crashed (acked, durable); everything after it
    // failed against the poisoned pager.
    EXPECT_GE(total_acked, 1);
    EXPECT_GT(total_failed, 0);
    EXPECT_EQ(total_acked + total_failed, kWriters * kEditsPerWriter);

    store.reset();  // discard the poisoned handle, like a real crash
    StatusOr<StorePtr> reopened = PersistentForestIndex::Open(path);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    EXPECT_EQ((*reopened)->pager().wal_replays(), 1);
    (*reopened)->CheckConsistency();
    for (int w = 0; w < kWriters; ++w) {
      PqGramIndex expected(shape);
      expected.Add(static_cast<PqGramFingerprint>(w + 1), 1);
      for (PqGramFingerprint fp : acked[static_cast<size_t>(w)]) {
        expected.Add(fp, 1);
      }
      StatusOr<PqGramIndex> stored =
          (*reopened)->MaterializeIndex(static_cast<TreeId>(w));
      ASSERT_TRUE(stored.ok()) << stored.status().ToString();
      EXPECT_EQ(*stored, expected)
          << "writer " << w << " (" << (seal ? "seal" : "inplace") << ")";
    }
    RemoveStoreFiles(path);
  }
}

// ---------------------------------------------------------------------------
// Sharded group commit x inter-shard crash points.

// Removes a sharded store directory, so a case starts from nothing and
// does not hold its files until the process-wide ScopedTempDir goes.
void RemoveShardedStoreDir(const std::string& path) {
  std::remove((path + "/MANIFEST").c_str());
  for (int k = 0; k < 16; ++k) {
    char name[16];
    std::snprintf(name, sizeof(name), "shard-%04d", k);
    const std::string shard = path + "/" + name;
    std::remove(shard.c_str());
    std::remove((shard + ".wal").c_str());
  }
  ::rmdir(path.c_str());
}

// Plans a batch that touches EVERY shard of a `shards`-way store: one
// new tree per shard (ids chosen so id % shards covers each shard) and,
// when the shard already holds a tree, one update alongside it. The
// mirror is advanced eagerly, like PlanBatch.
PlannedBatch PlanShardSpanningBatch(Rng* rng, ForestIndex* mirror,
                                    TreeId* next_id, int shards) {
  PlannedBatch batch;
  const std::vector<TreeId> present = mirror->TreeIds();
  for (int k = 0; k < shards; ++k) {
    while (static_cast<int>(*next_id %
                            static_cast<uint32_t>(shards)) != k) {
      ++*next_id;
    }
    PersistentForestIndex::BatchEdit add_edit;
    add_edit.id = (*next_id)++;
    auto bag = std::make_unique<PqGramIndex>(RandomBag(
        rng, mirror->shape(), static_cast<int>(rng->Uniform(4, 16))));
    mirror->AddIndex(add_edit.id, *bag);
    add_edit.add = bag.get();
    batch.bags.push_back(std::move(bag));
    batch.edits.push_back(add_edit);

    for (TreeId id : present) {
      if (static_cast<int>(id % static_cast<uint32_t>(shards)) != k) {
        continue;
      }
      const PqGramIndex* current = mirror->Find(id);
      auto minus = std::make_unique<PqGramIndex>(RandomSubBag(rng, *current));
      auto plus = std::make_unique<PqGramIndex>(RandomBag(
          rng, mirror->shape(), static_cast<int>(rng->Uniform(0, 6))));
      PqGramIndex updated = *current;
      for (const auto& [fp, count] : minus->counts()) {
        updated.Remove(fp, count);
      }
      for (const auto& [fp, count] : plus->counts()) updated.Add(fp, count);
      mirror->AddIndex(id, std::move(updated));  // replaces
      PersistentForestIndex::BatchEdit update_edit;
      update_edit.id = id;
      update_edit.plus = plus.get();
      update_edit.minus = minus.get();
      batch.bags.push_back(std::move(plus));
      batch.bags.push_back(std::move(minus));
      batch.edits.push_back(update_edit);
      break;
    }
  }
  return batch;
}

// One sharded crash workload: a 3-shard store several group commits
// deep, then one shard-spanning group crashed at `point` (after
// `after_shard` shards passed that phase). Recovery must land on the
// manifest-consistent cut: the whole group rolled back for a crash
// before the manifest decide, the whole group rolled forward after it
// -- never a torn mix -- and the reconciled ticket/cursor must match.
void RunShardedGroupCrash(ShardedStore::GroupCrashPoint point,
                          int after_shard, int workload) {
  constexpr int kShards = 3;
  const PqShape shape{2, 3};
  const std::string path = TempPath(
      "crash_matrix_group_" + std::to_string(static_cast<int>(point)) + "_" +
      std::to_string(after_shard) + "_" + std::to_string(workload) +
      ".store");
  RemoveShardedStoreDir(path);

  Rng rng(0x5AD00 + static_cast<uint64_t>(workload) * 131 +
          static_cast<uint64_t>(after_shard) * 7 +
          static_cast<uint64_t>(point));
  ForestIndex mirror(shape);
  TreeId next_id = 0;
  uint64_t committed_cursor = 0;
  {
    StatusOr<std::unique_ptr<ShardedStore>> created =
        ShardedStore::Create(path, shape, kShards);
    ASSERT_TRUE(created.ok()) << created.status().ToString();
    std::unique_ptr<ShardedStore> store = std::move(created).value();

    // Seed every shard through one BulkAdd group commit.
    {
      std::vector<std::unique_ptr<PqGramIndex>> bags;
      std::vector<std::pair<TreeId, const PqGramIndex*>> refs;
      for (int i = 0; i < kShards * 2; ++i) {
        TreeId id = next_id++;
        bags.push_back(std::make_unique<PqGramIndex>(
            RandomBag(&rng, shape, static_cast<int>(rng.Uniform(4, 16)))));
        mirror.AddIndex(id, *bags.back());
        refs.emplace_back(id, bags.back().get());
      }
      ASSERT_TRUE(store->BulkAdd(refs, nullptr, ++committed_cursor).ok());
    }

    // A few committed shard-spanning groups.
    const int committed = 1 + workload % 3;
    for (int b = 0; b < committed; ++b) {
      PlannedBatch batch =
          PlanShardSpanningBatch(&rng, &mirror, &next_id, kShards);
      std::vector<Status> results;
      ASSERT_TRUE(store->ApplyBatch(batch.edits, &results, nullptr, nullptr,
                                    ++committed_cursor)
                      .ok());
      for (const Status& s : results) ASSERT_TRUE(s.ok()) << s.ToString();
    }

    // The torn group: crash between shard commits.
    const ForestIndex before = mirror;
    PlannedBatch batch =
        PlanShardSpanningBatch(&rng, &mirror, &next_id, kShards);
    const uint64_t crashed_ticket = store->committed_ticket() + 1;
    ASSERT_TRUE(store->CrashNextGroup(point, after_shard).ok());
    std::vector<Status> results;
    ASSERT_TRUE(store->ApplyBatch(batch.edits, &results, nullptr, nullptr,
                                  committed_cursor + 1)
                    .ok());

    // Reopen and reconcile. A crash before the manifest decide rolls
    // the whole group back; at or after it, the whole group forward.
    const bool rolls_forward =
        point != ShardedStore::GroupCrashPoint::kAfterPrepare;
    const ForestIndex& expected = rolls_forward ? mirror : before;
    const uint64_t expected_cursor =
        rolls_forward ? committed_cursor + 1 : committed_cursor;

    StatusOr<std::unique_ptr<ShardedStore>> reopened =
        ShardedStore::Open(path);
    ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
    (*reopened)->CheckConsistency();
    StatusOr<ForestIndex> recovered = (*reopened)->MaterializeForest();
    ASSERT_TRUE(recovered.ok()) << recovered.status().ToString();
    EXPECT_TRUE(*recovered == expected)
        << "point " << static_cast<int>(point) << " after_shard "
        << after_shard << " workload " << workload
        << ": recovery landed on a torn cut";
    EXPECT_EQ((*reopened)->replication_cursor(), expected_cursor);
    if (rolls_forward) {
      EXPECT_EQ((*reopened)->committed_ticket(), crashed_ticket);
    } else {
      EXPECT_LT((*reopened)->committed_ticket(), crashed_ticket);
    }

    // Per-shard WAL accounting: prepared-but-undecided WALs are
    // discarded, decided ones replayed, finished shards left none.
    int64_t replays = 0;
    int64_t discards = 0;
    for (int k = 0; k < kShards; ++k) {
      replays += (*reopened)->shard(k)->pager().wal_replays();
      discards += (*reopened)->shard(k)->pager().wal_discards();
    }
    switch (point) {
      case ShardedStore::GroupCrashPoint::kAfterPrepare:
        EXPECT_EQ(replays, 0);
        EXPECT_EQ(discards, after_shard + 1);
        break;
      case ShardedStore::GroupCrashPoint::kAfterManifest:
        EXPECT_EQ(replays, kShards);
        EXPECT_EQ(discards, 0);
        break;
      case ShardedStore::GroupCrashPoint::kAfterFinish:
        EXPECT_EQ(replays, kShards - (after_shard + 1));
        EXPECT_EQ(discards, 0);
        break;
    }

    // The recovered store must keep committing normally. On rollback
    // the crashed group's mirror edits never landed, so the follow-up
    // batch's expectation rebases on the recovered cut.
    if (!rolls_forward) mirror = before;
    PlannedBatch next =
        PlanShardSpanningBatch(&rng, &mirror, &next_id, kShards);
    std::vector<Status> next_results;
    ASSERT_TRUE((*reopened)
                    ->ApplyBatch(next.edits, &next_results)
                    .ok());
    StatusOr<ForestIndex> final_state = (*reopened)->MaterializeForest();
    ASSERT_TRUE(final_state.ok());
    EXPECT_TRUE(*final_state == mirror);
  }
  RemoveShardedStoreDir(path);
}

TEST(CrashMatrixTest, ShardedGroupCrashAfterPrepareRollsBack) {
  for (int after_shard = 0; after_shard < 3; ++after_shard) {
    for (int workload = 0; workload < 6; ++workload) {
      RunShardedGroupCrash(ShardedStore::GroupCrashPoint::kAfterPrepare,
                           after_shard, workload);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(CrashMatrixTest, ShardedGroupCrashAfterManifestRollsForward) {
  for (int workload = 0; workload < 6; ++workload) {
    RunShardedGroupCrash(ShardedStore::GroupCrashPoint::kAfterManifest, 0,
                         workload);
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(CrashMatrixTest, ShardedGroupCrashMidFinishRollsForward) {
  for (int after_shard = 0; after_shard < 2; ++after_shard) {
    for (int workload = 0; workload < 6; ++workload) {
      RunShardedGroupCrash(ShardedStore::GroupCrashPoint::kAfterFinish,
                           after_shard, workload);
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

}  // namespace
}  // namespace pqidx
