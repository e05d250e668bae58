// ShardedStore unit tests: manifest codec round-trips and corruption
// handling, shard routing, group-commit ticket/cursor reconciliation,
// merged reads, and backward compatibility with pre-shard single-file
// stores (manifest absent => N = 1 legacy layout).

#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/random.h"
#include "common/status.h"
#include "core/forest_index.h"
#include "core/pqgram_index.h"
#include "storage/persistent_forest_index.h"
#include "storage/shard_manifest.h"
#include "storage/sharded_store.h"
#include "test_util.h"

namespace pqidx {
namespace {

std::string TempPath(const std::string& name) {
  static pqidx::testing::ScopedTempDir dir;
  return dir.File(name);
}

void RemoveStoreAt(const std::string& path) {
  std::remove((path + "/MANIFEST").c_str());
  for (int k = 0; k < 16; ++k) {
    char name[16];
    std::snprintf(name, sizeof(name), "shard-%04d", k);
    const std::string shard = path + "/" + name;
    std::remove(shard.c_str());
    std::remove((shard + ".wal").c_str());
  }
  ::rmdir(path.c_str());
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
}

PqGramIndex Bag(const PqShape& shape,
                std::initializer_list<std::pair<PqGramFingerprint, int>>
                    counts) {
  PqGramIndex bag(shape);
  for (const auto& [fp, count] : counts) bag.Add(fp, count);
  return bag;
}

// --- manifest codec -----------------------------------------------------

TEST(ShardManifestTest, EncodeDecodeRoundTrip) {
  ShardManifest manifest;
  manifest.shard_count = 7;
  manifest.committed_ticket = 42;
  manifest.committed_cursor = 17;
  const std::string bytes = EncodeShardManifest(manifest);
  ASSERT_EQ(bytes.size(), kShardManifestSize);
  StatusOr<ShardManifest> decoded = DecodeShardManifest(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->shard_count, 7u);
  EXPECT_EQ(decoded->routing, kShardRoutingModulo);
  EXPECT_EQ(decoded->committed_ticket, 42u);
  EXPECT_EQ(decoded->committed_cursor, 17u);
}

TEST(ShardManifestTest, RejectsTruncatedAndCorruptImages) {
  ShardManifest manifest;
  manifest.shard_count = 4;
  std::string bytes = EncodeShardManifest(manifest);

  EXPECT_FALSE(DecodeShardManifest("").ok());
  EXPECT_FALSE(DecodeShardManifest(bytes.substr(0, 40)).ok());

  std::string bad_magic = bytes;
  bad_magic[0] = 'X';
  EXPECT_FALSE(DecodeShardManifest(bad_magic).ok());

  std::string bad_version = bytes;
  bad_version[4] = 9;
  EXPECT_FALSE(DecodeShardManifest(bad_version).ok());

  std::string zero_shards = bytes;
  zero_shards[8] = 0;
  EXPECT_FALSE(DecodeShardManifest(zero_shards).ok());

  // Both slots corrupt: no durable commit point left.
  std::string torn = bytes;
  torn[kShardManifestSlotAOff] ^= 0xff;
  torn[kShardManifestSlotBOff] ^= 0xff;
  EXPECT_FALSE(DecodeShardManifest(torn).ok());
}

TEST(ShardManifestTest, TornSlotFallsBackToTheOtherSlot) {
  // Slot A carries ticket 9, slot B a torn (higher-ticket) write: decode
  // must fall back to A -- the previous durable point survives.
  ShardManifest manifest;
  manifest.shard_count = 2;
  manifest.committed_ticket = 9;
  manifest.committed_cursor = 5;
  std::string bytes = EncodeShardManifest(manifest);
  uint8_t slot[kShardManifestSlotSize];
  EncodeShardManifestSlot(10, 6, slot);
  slot[17] ^= 0xff;  // torn write: checksum no longer matches
  bytes.replace(kShardManifestSlotBOff, kShardManifestSlotSize,
                reinterpret_cast<const char*>(slot), kShardManifestSlotSize);
  StatusOr<ShardManifest> decoded = DecodeShardManifest(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->committed_ticket, 9u);
  EXPECT_EQ(decoded->committed_cursor, 5u);
  EXPECT_FALSE(decoded->committed_in_slot_b);
}

// --- sharded store ------------------------------------------------------

TEST(ShardedStoreTest, RoutesAndMergesAcrossShards) {
  const PqShape shape{2, 3};
  const std::string path = TempPath("routes.store");
  RemoveStoreAt(path);
  StatusOr<std::unique_ptr<ShardedStore>> created =
      ShardedStore::Create(path, shape, 4);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  std::unique_ptr<ShardedStore> store = std::move(created).value();
  EXPECT_EQ(store->shard_count(), 4);
  EXPECT_EQ(store->ShardOf(6), 2);

  std::vector<PqGramIndex> bags;
  std::vector<std::pair<TreeId, const PqGramIndex*>> refs;
  for (TreeId id = 0; id < 10; ++id) {
    bags.push_back(Bag(shape, {{100 + id, 2}, {200 + id, 1}}));
  }
  for (TreeId id = 0; id < 10; ++id) refs.emplace_back(id, &bags[id]);
  ASSERT_TRUE(store->BulkAdd(refs).ok());

  EXPECT_EQ(store->size(), 10);
  EXPECT_EQ(store->TreeIds().size(), 10u);
  EXPECT_EQ(store->TreeIds().front(), 0u);
  EXPECT_EQ(store->TreeBagSize(6), 3);
  // Every tree landed on its modulo shard, and only there.
  for (TreeId id = 0; id < 10; ++id) {
    EXPECT_EQ(store->shard(store->ShardOf(id))->TreeBagSize(id), 3);
  }
  StatusOr<ForestIndex> forest = store->MaterializeForest();
  ASSERT_TRUE(forest.ok());
  EXPECT_EQ(forest->size(), 10);
  store->CheckConsistency();
}

TEST(ShardedStoreTest, GroupCommitSurvivesReopen) {
  const PqShape shape{2, 2};
  const std::string path = TempPath("group.store");
  RemoveStoreAt(path);
  ForestIndex mirror(shape);
  {
    StatusOr<std::unique_ptr<ShardedStore>> created =
        ShardedStore::Create(path, shape, 3);
    ASSERT_TRUE(created.ok());
    std::unique_ptr<ShardedStore> store = std::move(created).value();

    std::vector<PqGramIndex> bags;
    for (TreeId id = 0; id < 6; ++id) {
      bags.push_back(Bag(shape, {{10 + id, 1}}));
      mirror.AddIndex(id, bags.back());
    }
    std::vector<PersistentForestIndex::BatchEdit> edits;
    for (TreeId id = 0; id < 6; ++id) {
      PersistentForestIndex::BatchEdit edit;
      edit.id = id;
      edit.add = &bags[id];
      edits.push_back(edit);
    }
    std::vector<Status> results;
    ASSERT_TRUE(store->ApplyBatch(edits, &results, nullptr, nullptr, 7).ok());
    for (const Status& s : results) EXPECT_TRUE(s.ok()) << s.ToString();
    EXPECT_EQ(store->replication_cursor(), 7u);
    EXPECT_GE(store->committed_ticket(), 1u);
  }
  StatusOr<std::unique_ptr<ShardedStore>> reopened = ShardedStore::Open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->shard_count(), 3);
  EXPECT_EQ((*reopened)->replication_cursor(), 7u);
  StatusOr<ForestIndex> forest = (*reopened)->MaterializeForest();
  ASSERT_TRUE(forest.ok());
  EXPECT_TRUE(*forest == mirror);
  RemoveStoreAt(path);
}

TEST(ShardedStoreTest, SingleShardGroupSkipsManifestButReconciles) {
  // A batch touching one shard takes the fast path (no manifest fsync);
  // reopening must still reconcile the global ticket to the shard's.
  const PqShape shape{2, 2};
  const std::string path = TempPath("fastpath.store");
  RemoveStoreAt(path);
  uint64_t ticket_after = 0;
  {
    StatusOr<std::unique_ptr<ShardedStore>> created =
        ShardedStore::Create(path, shape, 2);
    ASSERT_TRUE(created.ok());
    std::unique_ptr<ShardedStore> store = std::move(created).value();
    PqGramIndex bag = Bag(shape, {{1, 1}});
    std::vector<PersistentForestIndex::BatchEdit> edits(1);
    edits[0].id = 2;  // shard 0 only
    edits[0].add = &bag;
    std::vector<Status> results;
    ASSERT_TRUE(store->ApplyBatch(edits, &results).ok());
    ticket_after = store->committed_ticket();
    EXPECT_GE(ticket_after, 1u);
    // The untouched shard has no durable ticket.
    EXPECT_EQ(store->shard(1)->store_ticket(), 0u);
  }
  StatusOr<std::unique_ptr<ShardedStore>> reopened = ShardedStore::Open(path);
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  EXPECT_EQ((*reopened)->committed_ticket(), ticket_after);
  EXPECT_EQ((*reopened)->size(), 1);
  RemoveStoreAt(path);
}

TEST(ShardedStoreTest, PerEditValidationStaysPerShard) {
  // A duplicate add routed to shard 1 must not disturb the edit that
  // shard 0 commits in the same group.
  const PqShape shape{2, 2};
  const std::string path = TempPath("validation.store");
  RemoveStoreAt(path);
  StatusOr<std::unique_ptr<ShardedStore>> created =
      ShardedStore::Create(path, shape, 2);
  ASSERT_TRUE(created.ok());
  std::unique_ptr<ShardedStore> store = std::move(created).value();
  PqGramIndex seed = Bag(shape, {{5, 1}});
  ASSERT_TRUE(store->BulkAdd({{1, &seed}}).ok());

  PqGramIndex add_bag = Bag(shape, {{6, 1}});
  std::vector<PersistentForestIndex::BatchEdit> edits(2);
  edits[0].id = 1;  // duplicate add on shard 1
  edits[0].add = &add_bag;
  edits[1].id = 2;  // fresh add on shard 0
  edits[1].add = &add_bag;
  std::vector<Status> results;
  ASSERT_TRUE(store->ApplyBatch(edits, &results).ok());
  EXPECT_FALSE(results[0].ok());
  EXPECT_TRUE(results[1].ok());
  EXPECT_EQ(store->TreeBagSize(2), 1);
  RemoveStoreAt(path);
}

// --- backward compatibility ---------------------------------------------

TEST(ShardedStoreTest, OpensPreShardSingleFileUnchanged) {
  // A store written by PersistentForestIndex directly -- the layout
  // every pre-shard version produced -- must open as a single-shard
  // store with its contents and cursor intact, and keep committing.
  const PqShape shape{2, 3};
  const std::string path = TempPath("preshard.idx");
  RemoveStoreAt(path);
  ForestIndex mirror(shape);
  {
    StatusOr<std::unique_ptr<PersistentForestIndex>> legacy =
        PersistentForestIndex::Create(path, shape);
    ASSERT_TRUE(legacy.ok());
    PqGramIndex bag = Bag(shape, {{7, 2}, {8, 1}});
    mirror.AddIndex(3, bag);
    ASSERT_TRUE((*legacy)->BulkAdd({{3, &bag}}, 11).ok());
  }
  StatusOr<std::unique_ptr<ShardedStore>> opened = ShardedStore::Open(path);
  ASSERT_TRUE(opened.ok()) << opened.status().ToString();
  std::unique_ptr<ShardedStore> store = std::move(opened).value();
  EXPECT_EQ(store->shard_count(), 1);
  EXPECT_EQ(store->replication_cursor(), 11u);
  StatusOr<ForestIndex> forest = store->MaterializeForest();
  ASSERT_TRUE(forest.ok());
  EXPECT_TRUE(*forest == mirror);

  // And the file stays readable by the legacy opener after a commit
  // through the sharded facade.
  PqGramIndex more = Bag(shape, {{9, 1}});
  std::vector<PersistentForestIndex::BatchEdit> edits(1);
  edits[0].id = 4;
  edits[0].add = &more;
  std::vector<Status> results;
  ASSERT_TRUE(store->ApplyBatch(edits, &results, nullptr, nullptr, 12).ok());
  store.reset();
  StatusOr<std::unique_ptr<PersistentForestIndex>> legacy_again =
      PersistentForestIndex::Open(path);
  ASSERT_TRUE(legacy_again.ok()) << legacy_again.status().ToString();
  EXPECT_EQ((*legacy_again)->replication_cursor(), 12u);
  EXPECT_EQ((*legacy_again)->size(), 2);
  RemoveStoreAt(path);
}

TEST(ShardedStoreTest, LookupMergesMostSimilarFirst) {
  const PqShape shape{2, 2};
  const std::string path = TempPath("lookup.store");
  RemoveStoreAt(path);
  StatusOr<std::unique_ptr<ShardedStore>> created =
      ShardedStore::Create(path, shape, 3);
  ASSERT_TRUE(created.ok());
  std::unique_ptr<ShardedStore> store = std::move(created).value();
  PqGramIndex query = Bag(shape, {{1, 1}, {2, 1}});
  PqGramIndex near = Bag(shape, {{1, 1}, {2, 1}});
  PqGramIndex far = Bag(shape, {{3, 1}, {4, 1}});
  ASSERT_TRUE(store->BulkAdd({{0, &near}, {1, &far}, {2, &near}}).ok());
  StatusOr<std::vector<LookupResult>> results = store->Lookup(query, 1.1);
  ASSERT_TRUE(results.ok());
  ASSERT_EQ(results->size(), 3u);
  EXPECT_EQ((*results)[0].tree_id, 0u);
  EXPECT_EQ((*results)[1].tree_id, 2u);
  EXPECT_EQ((*results)[2].tree_id, 1u);
  RemoveStoreAt(path);
}

}  // namespace
}  // namespace pqidx
