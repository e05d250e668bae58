// On-disk linear hashing [Litwin 1980]: the index relation
// (treeId, pqg, cnt) as a durable hash table that grows one bucket split
// at a time -- no global rehash ever -- so incremental index updates
// touch only the few pages holding the affected tuples.
//
// Layout (all pages owned by a Pager):
//  * one meta page: level, split pointer, bucket/entry counts, overflow
//    free list, and the ids of the directory pages;
//  * directory pages: arrays of bucket-head page ids;
//  * bucket pages: a header (overflow link, entry count) followed by
//    fixed-size entries {tree u32, fingerprint u64, count i64}; full
//    buckets chain into overflow pages, which splits dissolve.
//
// Keys are (tree, fingerprint) pairs; values are positive counts.
// AddDelta() with a negative delta decrements and removes entries that
// reach zero. Durability and atomicity come from the pager's WAL: a
// sequence of mutations becomes atomic by calling Pager::Commit() once.

#ifndef PQIDX_STORAGE_LINEAR_HASH_H_
#define PQIDX_STORAGE_LINEAR_HASH_H_

#include <cstdint>
#include <functional>

#include "common/status.h"
#include "storage/pager.h"

namespace pqidx {

class LinearHashTable {
 public:
  // The table lives inside `pager`'s file; `pager` must outlive it.
  explicit LinearHashTable(Pager* pager) : pager_(pager) {
    PQIDX_CHECK(pager != nullptr);
  }

  // Formats a fresh table whose meta lives in `meta_page` (an allocated
  // page the caller reserves for this table).
  Status Create(PageId meta_page);

  // Attaches to a table previously created at `meta_page`.
  Status Attach(PageId meta_page);

  // Returns the count stored for (tree, fp), 0 if absent.
  StatusOr<int64_t> Get(uint32_t tree, uint64_t fp);

  // Adds `delta` to the count of (tree, fp), inserting or removing the
  // entry as needed. Fails if the result would be negative. One chain
  // walk resolves update, removal, and insertion position alike.
  Status AddDelta(uint32_t tree, uint64_t fp, int64_t delta);

  // Batched meta-page writes for bulk mutation (ApplyBatch): between
  // DeferMetaUpdates() and FlushDeferredMeta(), AddDelta/SplitOne update
  // only the cached meta fields and the meta page is written once at
  // flush time instead of once per entry. The cached fields stay
  // authoritative throughout, so reads and splits observe the true
  // state; the caller must flush before Pager::Commit() (the WAL
  // transaction must carry a meta page consistent with the data pages)
  // and must re-Attach() after a rollback, which it already does to
  // restore the cached fields.
  void DeferMetaUpdates() { defer_meta_ = true; }
  Status FlushDeferredMeta();

  // Invokes fn(tree, fp, count) for every entry (unspecified order).
  Status ForEach(
      const std::function<void(uint32_t, uint64_t, int64_t)>& fn);

  uint64_t entry_count() const { return entry_count_; }
  uint32_t bucket_count() const { return bucket_count_; }

  // Snapshot of the destination bucket for a key under the *current*
  // level/split state. Callers use it to sort staged deltas so the
  // apply clusters its page touches; splits triggered mid-apply
  // may relocate later keys, so this is a sort key, not an invariant.
  uint32_t BucketForKey(uint32_t tree, uint64_t fp) const;

  // Verifies meta/bucket invariants (entry counts, chain structure,
  // entries hashed to the right bucket). Aborts on violation; tests.
  void CheckConsistency();

 private:
  static constexpr uint32_t kInitialBuckets = 4;

  // Bucket index for a key hash under the current level/split state.
  uint32_t BucketFor(uint64_t hash) const;

  StatusOr<PageId> BucketHead(uint32_t bucket);
  Status SetBucketHead(uint32_t bucket, PageId page);
  Status EnsureDirectoryFor(uint32_t bucket);

  StatusOr<PageId> AllocateBucketPage();
  Status FreeBucketPage(PageId id);

  // Splits the bucket at the split pointer and advances it.
  Status SplitOne();
  // Current load factor threshold check.
  bool ShouldSplit() const;

  Status LoadMeta();
  Status StoreMeta();
  // StoreMeta, or a dirty mark while meta updates are deferred.
  Status CommitMeta();

  Pager* pager_;
  PageId meta_page_ = 0;
  // Cached meta fields (persisted by StoreMeta).
  uint32_t level_ = 0;
  uint32_t next_split_ = 0;
  uint32_t bucket_count_ = 0;
  uint64_t entry_count_ = 0;
  PageId free_head_ = 0;
  // Deferred-meta state (DeferMetaUpdates / FlushDeferredMeta).
  bool defer_meta_ = false;
  bool meta_dirty_ = false;
};

}  // namespace pqidx

#endif  // PQIDX_STORAGE_LINEAR_HASH_H_
