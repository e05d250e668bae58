// A sharded persistent store: the tree-id space partitioned across N
// independent PersistentForestIndex shards, each with its own pager,
// WAL, and linear hash table, so batch ingest fans its WAL writes and
// fsyncs across N files instead of serializing on one.
//
// On disk a sharded store is a directory:
//
//   <path>/MANIFEST       80-byte shard manifest (storage/shard_manifest.h)
//   <path>/shard-0000     PersistentForestIndex page file for shard 0
//   <path>/shard-0001     ... one per shard ...
//
// Routing is modulo over the tree id (shard = id % N), recorded in the
// manifest so the store refuses to open under a different rule. A
// single-shard store (`shards = 1`) is NOT a directory: it is exactly
// the legacy one-file PersistentForestIndex layout, and Open() accepts
// any pre-shard file unchanged (manifest absent => N = 1).
//
// Group commit is two-phase with the manifest as the commit point:
//
//   1. prepare  -- every touched shard stages its sub-batch and seals
//                  its own WAL (one WAL write + fsync per shard, fanned
//                  across the thread pool), stamping the group's ticket
//                  and the replication cursor into its meta page inside
//                  that WAL transaction;
//   2. decide   -- the manifest's alternating commit slot is rewritten
//                  with {ticket, cursor} and fsynced: THE commit point;
//   3. finish   -- each shard applies its sealed WAL in place.
//
// Recovery opens every shard with the manifest's committed ticket as
// the replay bound: a crashed shard WAL whose stamped ticket is beyond
// the bound belongs to a group that never decided and is rolled back,
// at or below the bound it is rolled forward -- so a crash anywhere
// between shard commits always lands on the consistent cut the
// manifest names. When a group touches exactly one shard the manifest
// write is skipped (the shard's own WAL is already atomic, and an
// undecided discard just rolls back an unacknowledged batch); the
// reconciled ticket/cursor are therefore max(manifest, shards).
//
// Thread-safety: mutations take the caller's serialization (pqidxd's
// single group-commit leader runs one batch at a time), which also
// guarantees at most one group's WALs can exist at a crash.
// replication_cursor()/committed_ticket() are safe to read concurrently
// with mutations (stats endpoints).

#ifndef PQIDX_STORAGE_SHARDED_STORE_H_
#define PQIDX_STORAGE_SHARDED_STORE_H_

#include <atomic>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "common/thread_pool.h"
#include "core/forest_index.h"
#include "core/pqgram_index.h"
#include "storage/persistent_forest_index.h"
#include "storage/shard_manifest.h"

namespace pqidx {

class ShardedStore {
 public:
  using BatchEdit = PersistentForestIndex::BatchEdit;
  using ApplyBatchTimings = PersistentForestIndex::ApplyBatchTimings;

  // Creates a fresh store at `path` (replacing any existing store):
  // `shards == 1` writes the legacy single-file layout, `shards >= 2`
  // the manifest + shard directory described above.
  static StatusOr<std::unique_ptr<ShardedStore>> Create(
      const std::string& path, PqShape shape, int shards = 1,
      int pool_pages = 256);

  // Opens an existing store, recovering crashed group commits to the
  // manifest's consistent cut. A plain file (no manifest) opens as a
  // single-shard legacy store.
  static StatusOr<std::unique_ptr<ShardedStore>> Open(
      const std::string& path, int pool_pages = 256);

  ~ShardedStore();

  const PqShape& shape() const { return shape_; }
  int shard_count() const { return static_cast<int>(shards_.size()); }
  int ShardOf(TreeId id) const {
    return static_cast<int>(id % static_cast<uint32_t>(shards_.size()));
  }

  // Total cataloged trees / merged sorted id list across all shards.
  int size() const;
  std::vector<TreeId> TreeIds() const;
  int64_t TreeBagSize(TreeId id) const;

  // Bytes of page data the shards' buffer pools hold (cached pages x
  // kPageSize). Not safe concurrently with a commit or a read.
  int64_t PoolBytes() const;

  // The durable replication cursor / group-commit ticket, reconciled
  // across manifest and shards. Safe to read concurrently with commits.
  uint64_t replication_cursor() const {
    return cursor_.load(std::memory_order_acquire);
  }
  uint64_t committed_ticket() const {
    return next_ticket_.load(std::memory_order_acquire) - 1;
  }

  // Registers many bags under one group commit (one WAL seal + fsync
  // pair per touched shard). All-or-nothing across the whole group.
  // With `pool` the per-shard prepares and finishes run in parallel; a
  // single-shard store has nothing to fan out and ignores it.
  Status BulkAdd(
      const std::vector<std::pair<TreeId, const PqGramIndex*>>& bags,
      ThreadPool* pool = nullptr, uint64_t cursor = 0);

  // Applies one batch of independent edits as one group commit.
  // Per-edit validation failures land in `results` exactly as in
  // PersistentForestIndex::ApplyBatch; a hard failure in any shard
  // aborts every shard's prepared transaction, so the group is
  // all-or-nothing at the storage level. With `pool` the per-shard
  // prepares and finishes run in parallel (each shard's own δ-phase is
  // serial -- the fan-out is across shards); a single-shard store
  // ignores it.
  Status ApplyBatch(const std::vector<BatchEdit>& edits,
                    std::vector<Status>* results,
                    ApplyBatchTimings* timings = nullptr,
                    ThreadPool* pool = nullptr, uint64_t cursor = 0);

  // Merged materialization of every shard (serving replica bootstrap).
  StatusOr<ForestIndex> MaterializeForest();

  // Reads one tree's bag back from its owning shard.
  StatusOr<PqGramIndex> MaterializeIndex(TreeId id) {
    return shards_[ShardOf(id)]->MaterializeIndex(id);
  }

  // Routed single-tree operations (each commits on its own shard).
  Status RemoveTree(TreeId id);
  StatusOr<std::vector<LookupResult>> Lookup(const PqGramIndex& query,
                                             double tau);

  // Aborts on structural inconsistency in any shard; tests.
  void CheckConsistency();

  // Direct shard access (tests, stats).
  PersistentForestIndex* shard(int k) { return shards_[k].get(); }

  // Crash-matrix hook: runs the NEXT group commit serially in shard
  // order and simulates a crash at `point`, abandoning every shard's
  // file handle (the in-process analogue of a power cut; the store is
  // unusable afterwards and must be re-Opened).
  //   kAfterPrepare:  crash after shards [0..after_shard] sealed their
  //                   WALs, before the manifest decide -- the group
  //                   must roll BACK on recovery.
  //   kAfterManifest: every shard prepared and the manifest slot is
  //                   durable, no shard finished -- must roll FORWARD.
  //   kAfterFinish:   decided, and shards [0..after_shard] finished --
  //                   must roll FORWARD (idempotent replay on the rest).
  // In crash mode the manifest decide runs even for single-shard
  // groups, so the full protocol is what the matrix exercises.
  enum class GroupCrashPoint { kAfterPrepare, kAfterManifest, kAfterFinish };
  Status CrashNextGroup(GroupCrashPoint point, int after_shard = 0) {
    group_crash_armed_ = true;
    group_crash_point_ = point;
    group_crash_after_shard_ = after_shard;
    return Status::Ok();
  }

 private:
  // One touched shard's slice of a group commit (`edits` for
  // ApplyBatch groups, `bags` for BulkAdd groups).
  struct ShardRun {
    int shard = 0;
    std::vector<BatchEdit> edits;
    std::vector<size_t> edit_index;  // positions in the caller's batch
    std::vector<std::pair<TreeId, const PqGramIndex*>> bags;
    std::vector<Status> results;
    ApplyBatchTimings timings;
    Status status = Status::Ok();
  };
  // Stages one run on its shard and leaves the shard prepared.
  using PrepareFn =
      std::function<Status(ShardRun*,
                           const PersistentForestIndex::TxnOptions&)>;

  ShardedStore() = default;

  static StatusOr<std::unique_ptr<ShardedStore>> OpenSharded(
      const std::string& path, int pool_pages);
  void InitMetrics();
  void UpdateShardGauges();
  void RefreshCursorFromShards();

  // Writes {ticket, cursor} into the alternating manifest slot and
  // fsyncs: the group's durable decide.
  Status CommitManifestSlot(uint64_t ticket, uint64_t cursor);

  // The shared 2PC driver for ApplyBatch/BulkAdd group commits.
  // Runs whose shard stages nothing are fine (no decide needed).
  Status GroupCommit(std::vector<ShardRun>* runs, ThreadPool* pool,
                     uint64_t cursor, const PrepareFn& prepare);
  Status GroupCommitCrash(std::vector<ShardRun>* runs,
                          const PersistentForestIndex::TxnOptions& txn,
                          const PrepareFn& prepare);
  void AbortPreparedShards(const std::vector<ShardRun>& runs);

  std::string path_;
  PqShape shape_;
  bool sharded_ = false;  // directory + manifest layout (N >= 2)
  std::vector<std::unique_ptr<PersistentForestIndex>> shards_;

  // Manifest state (sharded mode only).
  std::FILE* manifest_file_ = nullptr;
  bool next_slot_b_ = false;  // which slot the next decide overwrites
  uint64_t manifest_ticket_ = 0;
  uint64_t manifest_cursor_ = 0;

  std::atomic<uint64_t> next_ticket_{1};
  std::atomic<uint64_t> cursor_{0};
  bool poisoned_ = false;

  bool group_crash_armed_ = false;
  GroupCrashPoint group_crash_point_ = GroupCrashPoint::kAfterPrepare;
  int group_crash_after_shard_ = 0;

  // Registry cells (named in InitMetrics).
  Gauge* m_shards_ = nullptr;
  Counter* m_group_commits_ = nullptr;
  Counter* m_single_shard_commits_ = nullptr;
  Histogram* m_manifest_us_ = nullptr;
  Histogram* m_group_commit_us_ = nullptr;
  std::vector<Gauge*> m_shard_ticket_;
  std::vector<Gauge*> m_shard_cursor_;
  std::vector<Gauge*> m_shard_entries_;
  std::vector<Gauge*> m_shard_buckets_;
};

}  // namespace pqidx

#endif  // PQIDX_STORAGE_SHARDED_STORE_H_
