// Page-oriented file access with a small buffer pool and write-ahead
// logging: the storage substrate under the persistent index.
//
// The file is an array of fixed-size pages. Reads go through an LRU
// buffer pool; writes mark pages dirty in the pool. Commit() makes all
// changes since the previous commit durable and atomic:
//
//   1. full images of every dirty page are appended to a sidecar WAL
//      file (<path>.wal) and fsync'ed, then sealed with a commit record;
//   2. the dirty pages are written in place and fsync'ed;
//   3. the WAL is truncated.
//
// Open() replays a sealed WAL left behind by a crash between (1) and (3)
// and discards an unsealed one, so the main file always reflects the
// last successful Commit(). Page images in the WAL carry checksums;
// torn WAL tails are detected and ignored.

#ifndef PQIDX_STORAGE_PAGER_H_
#define PQIDX_STORAGE_PAGER_H_

#include <cstdint>
#include <list>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"

namespace pqidx {

inline constexpr int kPageSize = 4096;
using PageId = uint32_t;

class Pager {
 public:
  // `pool_pages` bounds the buffer pool (minimum 8). `metric_prefix`
  // names the registry cells ("pager" by default -> "pager.cache_hits",
  // ...); sharded stores pass "pager.s<k>" so per-shard I/O is
  // distinguishable in `kStatsSnapshot`.
  explicit Pager(int pool_pages = 256, std::string metric_prefix = "pager");
  ~Pager();

  Pager(const Pager&) = delete;
  Pager& operator=(const Pager&) = delete;

  // Opens (or with `create` initializes) the page file at `path`,
  // replaying or discarding any leftover WAL. With `defer_sealed_wal`,
  // a *sealed* WAL is parsed but neither replayed nor removed: the
  // caller inspects its images (ReadDeferredWalPage) and then decides
  // with ResolveDeferredWal whether the transaction commits or rolls
  // back -- the hook sharded-store recovery uses to land a torn
  // multi-shard group on a consistent cut. Unsealed/torn WALs are
  // discarded as usual.
  Status Open(const std::string& path, bool create,
              bool defer_sealed_wal = false);
  Status Close();
  bool is_open() const { return file_ != nullptr; }

  // Number of pages in the file (including pages appended since the last
  // commit).
  PageId page_count() const { return page_count_; }

  // Pages the buffer pool holds right now (clean and dirty).
  int cached_pages() const { return static_cast<int>(pool_.size()); }

  // Appends a zeroed page and returns its id.
  StatusOr<PageId> AllocatePage();

  // Returns a borrowed pointer to the page's bytes, valid until the next
  // Pager call. `Read` misses fetch from disk.
  StatusOr<const uint8_t*> ReadPage(PageId id);
  // As ReadPage, but marks the page dirty; changes become durable at the
  // next Commit.
  StatusOr<uint8_t*> MutablePage(PageId id);

  // Durably and atomically applies all changes since the last Commit.
  Status Commit();

  // Two-phase variant of Commit() for multi-shard group commit.
  // PrepareCommit runs step (1): the transaction's page images are
  // durable in the sealed WAL but the main file is untouched, so the
  // outcome is still two-sided -- FinishPreparedCommit applies it in
  // place (steps 2-3), AbortPreparedCommit drops the WAL and rolls the
  // pool back. A crash between prepare and finish leaves the sealed
  // WAL for Open() to replay (or for deferred-WAL recovery to judge).
  Status PrepareCommit();
  Status FinishPreparedCommit();
  Status AbortPreparedCommit();
  bool prepared() const { return prepared_; }

  // Drops uncommitted changes (dirty pool pages and pages allocated
  // since the last commit).
  Status Rollback();

  // --- deferred-WAL recovery (Open with defer_sealed_wal) -------------------

  // True while a sealed WAL from a previous run is parked awaiting
  // ResolveDeferredWal; all page operations fail until it is resolved.
  bool has_deferred_wal() const { return deferred_pending_; }
  // Copies the deferred transaction's image of `id` (kPageSize bytes)
  // into `out`; NotFound if the transaction did not touch that page.
  Status ReadDeferredWalPage(PageId id, uint8_t* out) const;
  // Replays (commit) or discards (roll back) the parked WAL.
  Status ResolveDeferredWal(bool replay);

  // --- test hooks -----------------------------------------------------------

  // Runs steps (1)-(2) of Commit() but "crashes" at the configured point,
  // leaving the files exactly as a real crash would. The pager becomes
  // unusable; reopen to recover.
  enum class CrashPoint {
    kAfterWalSeal,    // WAL sealed, main file untouched
    kDuringInPlace,   // WAL sealed, only the first dirty page written
  };
  Status CommitWithCrash(CrashPoint point);

  // Simulates process death at an arbitrary point: closes the file
  // handle and drops all volatile state, leaving the on-disk files
  // exactly as they are (including a prepared-but-unfinished WAL). The
  // pager becomes unusable; reopen to recover.
  void CrashAbandon();

  // Simulates an I/O failure: the next `after` raw file writes succeed,
  // then every write fails until the pager is reopened. A Commit that
  // fails mid-transaction poisons the pager (the in-memory pool, the WAL
  // and the file may disagree); every subsequent operation then fails
  // with FAILED_PRECONDITION and the caller must reopen, which recovers
  // to the last durable state.
  void InjectWriteFailureAfter(int after) { fail_after_writes_ = after; }

  bool poisoned() const { return poisoned_; }

  int64_t commits() const { return commits_; }
  int64_t cache_hits() const { return cache_hits_; }
  int64_t cache_misses() const { return cache_misses_; }

  // Per-instance recovery/durability accounting (also mirrored into the
  // process-wide Metrics::Default() registry under "pager.*").
  int64_t fsyncs() const { return fsyncs_; }
  int64_t wal_bytes() const { return wal_bytes_; }
  // WALs replayed (sealed -> applied) / discarded (unsealed or torn) by
  // Open() on this instance.
  int64_t wal_replays() const { return wal_replays_; }
  int64_t wal_discards() const { return wal_discards_; }

 private:
  // `lru_` holds only clean frames (the eviction candidates); a dirty
  // frame is pinned until Commit and leaves the list, so eviction never
  // scans past pinned pages -- a transaction dirtying more pages than
  // the pool holds stays O(1) per fault instead of O(dirty).
  struct Frame {
    std::vector<uint8_t> data;
    bool dirty = false;
    bool in_lru = false;
    std::list<PageId>::iterator lru_pos;
  };

  std::string WalPath() const { return path_ + ".wal"; }

  // Raw write with the failure-injection hook.
  bool WriteRawChecked(std::FILE* file, const void* data, size_t size);
  // fflush + fsync, counted into fsyncs_ and the registry.
  Status SyncCounted(std::FILE* file);
  Status PoisonedError() const;

  StatusOr<Frame*> GetFrame(PageId id, bool fetch_from_disk);
  Status EvictIfNeeded();
  // Pins the frame until the next Commit (removes it from `lru_`).
  void MarkDirty(Frame* frame);
  // Re-admits a committed frame as an eviction candidate.
  void MarkClean(PageId id, Frame* frame);
  Status WriteFrameToFile(PageId id, const Frame& frame);
  Status ReadFromFile(PageId id, uint8_t* out);

  // WAL: gather dirty pages, write + seal; returns the dirty page ids.
  StatusOr<std::vector<PageId>> WriteWal();
  Status ApplyDirtyInPlace(const std::vector<PageId>& dirty, int limit);

  // A parsed WAL page image (recovery and deferred-WAL inspection).
  struct WalImage {
    PageId id;
    std::vector<uint8_t> data;
  };
  // Parses <path>.wal if present. Returns false when no WAL file
  // exists; otherwise fills `records` with the checksummed prefix and
  // sets `sealed`/`sealed_page_count` from a valid seal record.
  bool ParseWal(std::vector<WalImage>* records, bool* sealed,
                uint32_t* sealed_page_count);
  // Applies a sealed WAL's images to the main file (replay), counts the
  // replay, and removes the WAL file.
  Status ApplySealedWal(const std::vector<WalImage>& records,
                        uint32_t sealed_page_count, int64_t start_us);
  Status ReplayOrDiscardWal();
  Status RefreshPageCountFromFile();

  std::string path_;
  std::FILE* file_ = nullptr;
  PageId page_count_ = 0;
  PageId committed_page_count_ = 0;
  int pool_capacity_;
  std::unordered_map<PageId, Frame> pool_;
  std::list<PageId> lru_;  // clean frames only; front = most recent
  int64_t commits_ = 0;
  int fail_after_writes_ = -1;  // < 0: no injection
  bool poisoned_ = false;
  // Two-phase commit state: set by PrepareCommit, consumed by
  // Finish/AbortPreparedCommit.
  bool prepared_ = false;
  std::vector<PageId> prepared_dirty_;
  int64_t prepared_start_us_ = 0;
  // Deferred sealed-WAL state (Open with defer_sealed_wal).
  bool deferred_pending_ = false;
  std::vector<WalImage> deferred_records_;
  uint32_t deferred_page_count_ = 0;
  int64_t cache_hits_ = 0;
  int64_t cache_misses_ = 0;
  int64_t fsyncs_ = 0;
  int64_t wal_bytes_ = 0;
  int64_t wal_replays_ = 0;
  int64_t wal_discards_ = 0;

  // Registry cells (process-wide sums across all pagers); registered
  // once in the constructor so the hot path is a relaxed atomic add.
  Counter* m_cache_hits_;
  Counter* m_cache_misses_;
  Counter* m_commits_;
  Counter* m_fsyncs_;
  Counter* m_wal_bytes_;
  Counter* m_wal_replays_;
  Counter* m_wal_discards_;
  Histogram* m_commit_us_;
  Histogram* m_replay_us_;
};

}  // namespace pqidx

#endif  // PQIDX_STORAGE_PAGER_H_
