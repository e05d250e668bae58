// A durable, incrementally maintainable forest index: the paper's
// "persistent index" made literal.
//
// The index relation (treeId, pqg, cnt) lives in an on-disk linear hash
// table inside one page file; a catalog tracks each tree's bag size |I(T)|
// and the index shape. Every public mutation is committed atomically
// through the pager's WAL, so the file survives crashes at any point, and
// an incremental update (paper Algorithm 1) dirties only the pages that
// hold the affected tuples -- the on-disk analogue of the paper's "update
// the index instead of rebuilding it".
//
// Lookups evaluate the pq-gram distance by point-probing the query's
// tuples against each cataloged tree, never scanning the table. For
// RAM-sized forests the in-memory ForestIndex / InvertedForestIndex are
// faster; this store is for durability and for bags larger than memory.

#ifndef PQIDX_STORAGE_PERSISTENT_FOREST_INDEX_H_
#define PQIDX_STORAGE_PERSISTENT_FOREST_INDEX_H_

#include <map>
#include <memory>
#include <utility>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/forest_index.h"
#include "core/pqgram_index.h"
#include "edit/edit_log.h"
#include "storage/linear_hash.h"
#include "storage/pager.h"
#include "tree/tree.h"

namespace pqidx {

class PersistentForestIndex {
 public:
  // Create/Open knobs. `metric_prefix` names the underlying pager's
  // registry cells ("pager" by default; sharded stores pass
  // "pager.s<k>"). The replay bound implements sharded-store recovery:
  // with `bound_replay` set, a sealed WAL left by a crash is replayed
  // only when the store ticket stamped in its meta-page image is
  // nonzero and <= `replay_ticket_bound` -- a ticket beyond the bound
  // identifies a group-commit transaction whose group never reached
  // its manifest commit point, so it is discarded (rolled back) to
  // keep the multi-shard cut consistent.
  struct OpenOptions {
    int pool_pages = 256;
    std::string metric_prefix = "pager";
    bool bound_replay = false;
    uint64_t replay_ticket_bound = 0;
  };

  // Creates a fresh index file at `path` (replacing any existing file).
  static StatusOr<std::unique_ptr<PersistentForestIndex>> Create(
      const std::string& path, PqShape shape, int pool_pages = 256);
  static StatusOr<std::unique_ptr<PersistentForestIndex>> Create(
      const std::string& path, PqShape shape, const OpenOptions& options);

  // Opens an existing index file, recovering from a crashed commit if a
  // write-ahead log is present.
  static StatusOr<std::unique_ptr<PersistentForestIndex>> Open(
      const std::string& path, int pool_pages = 256);
  static StatusOr<std::unique_ptr<PersistentForestIndex>> Open(
      const std::string& path, const OpenOptions& options);

  const PqShape& shape() const { return shape_; }
  int size() const { return static_cast<int>(catalog_.size()); }
  std::vector<TreeId> TreeIds() const;

  // The durable replication cursor: the highest replication ticket whose
  // batch this store has committed (0 when it never replicated). Written
  // atomically with the batch it belongs to (ApplyBatch / BulkAdd), so a
  // recovered follower resumes exactly after its last durable batch.
  // Files written before the cursor existed read 0.
  uint64_t replication_cursor() const { return cursor_; }

  // The durable store commit ticket: a monotone per-transaction stamp a
  // sharded store writes into every touched shard's meta page inside
  // that shard's WAL transaction (TxnOptions::ticket). Recovery uses it
  // to decide whether a crashed shard WAL belongs to a group that
  // reached its manifest commit point. 0 for stores that never ran
  // under a sharded group commit (including all pre-shard files).
  uint64_t store_ticket() const { return ticket_; }

  // |I(id)|, or -1 if unknown.
  int64_t TreeBagSize(TreeId id) const;

  // Registers a tree's bag. Fails if `id` is already cataloged.
  Status AddIndex(TreeId id, const PqGramIndex& index);
  Status AddTree(TreeId id, const Tree& tree);

  // Registers many bags under one commit (one WAL transaction, one fsync
  // pair): the fast path for initial ingest. All-or-nothing. A nonzero
  // `cursor` advances the replication cursor in the same transaction
  // (followers installing a leader snapshot pass the snapshot's ticket).
  Status BulkAdd(
      const std::vector<std::pair<TreeId, const PqGramIndex*>>& bags,
      uint64_t cursor = 0);

  // Per-transaction stamps and commit mode for ApplyBatch/BulkAdd.
  // `cursor`/`ticket` are written to the meta page inside the batch's
  // WAL transaction (0 skips the respective stamp; both are monotone).
  // With `prepare`, the transaction stops after the WAL seal+fsync
  // (Pager::PrepareCommit): the mutation is durable but not applied
  // until FinishPrepared(), and AbortPrepared() rolls it back -- the
  // two-phase hook ShardedStore's group commit is built on.
  struct TxnOptions {
    uint64_t cursor = 0;
    uint64_t ticket = 0;
    bool prepare = false;
  };

  Status BulkAdd(
      const std::vector<std::pair<TreeId, const PqGramIndex*>>& bags,
      const TxnOptions& txn);

  // One edit of a group-committed batch (see ApplyBatch): either an
  // AddIndex (`add` set) or an UpdateTree (`plus` and `minus` set).
  struct BatchEdit {
    TreeId id = 0;
    const PqGramIndex* add = nullptr;
    const PqGramIndex* plus = nullptr;
    const PqGramIndex* minus = nullptr;
  };

  // Wall-clock split of one ApplyBatch run, in microseconds (all zero
  // when Metrics::enabled() is off): catalog validation, δ-phase (tuple
  // deltas staged into the hash table -- the paper's incremental
  // update), U-phase (catalog rewrite), and storage apply (the WAL
  // commit: WAL write + fsync + in-place write + fsync).
  struct ApplyBatchTimings {
    int64_t validate_us = 0;
    int64_t delta_us = 0;
    int64_t update_us = 0;
    int64_t storage_us = 0;
  };

  // Applies many *independent* edits under ONE WAL transaction (one
  // fsync pair): the group-commit hook for pqidxd (src/service). Edits
  // are applied in order; catalog-level validation failures (duplicate
  // add, unknown tree, shape mismatch, bag size underflow) are reported
  // per edit in `results` and leave the other edits untouched. An
  // apply-time failure (I/O, or a minus bag that is not a sub-bag of the
  // stored bag -- callers are expected to pre-validate that, as
  // UpdateTree's contract already requires) rolls back the whole batch,
  // fails every staged edit, and is returned. Nothing is committed when
  // no edit survives validation. `timings`, when non-null, receives the
  // phase split of this run (as far as it got); the same split also
  // lands in the "apply_batch.*" registry histograms on success.
  //
  // The δ-phase nets the batch's deltas per (tree, fp) key before the
  // apply, in destination-bucket order so page touches cluster: an
  // update retracting and re-adding the same tuple never touches the
  // table at all, and a minus tuple the stored bag lacks is only
  // detected when its *net* is negative (callers pre-validate sub-bags,
  // as the contract above already requires).
  //
  // A nonzero `cursor` is persisted as the replication cursor inside the
  // batch's WAL transaction (but only when at least one edit commits):
  // leaders stamp each batch with its replication ticket, followers
  // stamp replicated batches with the ticket streamed to them.
  Status ApplyBatch(const std::vector<BatchEdit>& edits,
                    std::vector<Status>* results,
                    ApplyBatchTimings* timings = nullptr,
                    uint64_t cursor = 0);
  Status ApplyBatch(const std::vector<BatchEdit>& edits,
                    std::vector<Status>* results,
                    ApplyBatchTimings* timings, const TxnOptions& txn);

  // Completes or rolls back a transaction left prepared by
  // ApplyBatch/BulkAdd with TxnOptions::prepare. FinishPrepared applies
  // the sealed WAL in place (the commit's second fsync); AbortPrepared
  // drops the WAL and restores the in-memory caches to the last commit.
  Status FinishPrepared();
  Status AbortPrepared();
  // True between a successful prepare and its finish/abort.
  bool prepared() const { return pager_.prepared(); }

  // Materializes every cataloged bag in one table sweep -- the fast way
  // to build an in-memory serving replica of the whole store. Fails on
  // tuples outside the catalog (index corruption).
  StatusOr<ForestIndex> MaterializeForest();

  // Removes a tree and reclaims its tuples (full table sweep; removal is
  // the rare operation in this workload).
  Status RemoveTree(TreeId id);

  // Incremental maintenance: applies the lambda(Delta+) / lambda(Delta-)
  // bags of one updateIndex run, atomically.
  Status UpdateTree(TreeId id, const PqGramIndex& plus,
                    const PqGramIndex& minus);

  // Convenience: derives the bags from (tn, log) via ComputeIndexDeltas.
  Status ApplyLog(TreeId id, const Tree& tn, const EditLog& log);

  // pq-gram distance between `query` and the stored tree `id`.
  StatusOr<double> Distance(TreeId id, const PqGramIndex& query);

  // Approximate lookup over all cataloged trees, most similar first.
  StatusOr<std::vector<LookupResult>> Lookup(const PqGramIndex& query,
                                             double tau);

  // Materializes tree `id`'s bag (table sweep; diagnostics and tests).
  StatusOr<PqGramIndex> MaterializeIndex(TreeId id);

  // Rewrites the live contents into a fresh, minimal file at `path`
  // (free-listed and overflow pages from past churn are not carried
  // over). The source store is not modified.
  Status CompactInto(const std::string& path);

  // Aborts on structural inconsistency (catalog vs. table); tests.
  void CheckConsistency();

  // Hash-table occupancy snapshots (per-shard observability).
  uint64_t table_entry_count() const { return table_.entry_count(); }
  uint32_t table_bucket_count() const { return table_.bucket_count(); }

  const Pager& pager() const { return pager_; }
  // Test hook: mutable pager access for fault injection
  // (Pager::InjectWriteFailureAfter).
  Pager* mutable_pager() { return &pager_; }

  // Test hook: run a mutation and crash mid-commit (see Pager).
  Status CrashNextCommit(Pager::CrashPoint point) {
    crash_point_ = point;
    crash_armed_ = true;
    return Status::Ok();
  }

 private:
  PersistentForestIndex(int pool_pages, const std::string& metric_prefix)
      : pager_(pool_pages, metric_prefix) {}

  Status InitializeNew(const std::string& path, PqShape shape);
  Status OpenExisting(const std::string& path, const OpenOptions& options);

  Status LoadCatalog();
  Status StoreCatalog();
  // Advances the durable replication cursor on the meta page (part of
  // the caller's open transaction). Cursors never move backwards; 0 is
  // a no-op so non-replicating callers skip the page-0 write entirely.
  Status StoreCursor(uint64_t cursor);
  // Same discipline for the store commit ticket.
  Status StoreTicket(uint64_t ticket);
  // Restores catalog_head_/cursor_/ticket_/table_ caches from the
  // committed page 0 (after a rollback or abort).
  Status ReloadCaches();
  Status CommitOrCrash(bool prepare = false);
  Status RollbackAndReload(Status cause);

  Pager pager_;
  LinearHashTable table_{&pager_};
  PqShape shape_;
  PageId catalog_head_ = 0;
  uint64_t cursor_ = 0;  // durable replication cursor (meta page)
  uint64_t ticket_ = 0;  // durable store commit ticket (meta page)
  std::map<TreeId, int64_t> catalog_;  // tree -> |I(T)|
  bool crash_armed_ = false;
  Pager::CrashPoint crash_point_ = Pager::CrashPoint::kAfterWalSeal;
};

}  // namespace pqidx

#endif  // PQIDX_STORAGE_PERSISTENT_FOREST_INDEX_H_
