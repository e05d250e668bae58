#include "storage/persistent_forest_index.h"

#include <algorithm>
#include <cstring>

#include "common/metrics.h"
#include "core/incremental.h"

namespace pqidx {
namespace {

constexpr uint32_t kStoreMagic = 0x50515046;  // "PQPF"
constexpr uint32_t kStoreVersion = 1;

// Store meta (page 0) layout.
constexpr int kMagicOff = 0;
constexpr int kVersionOff = 4;
constexpr int kShapePOff = 8;
constexpr int kShapeQOff = 9;
constexpr int kHashMetaOff = 12;
constexpr int kCatalogHeadOff = 16;
// u64 replication cursor (service/replication.h). Added after v1 files
// already existed: the bytes were zero then, and cursor 0 means "never
// replicated", so old files stay readable without a version bump.
constexpr int kCursorOff = 20;
// u64 store commit ticket (storage/sharded_store.h). Same
// compatibility argument: pre-shard files read 0, and ticket 0 means
// "never group-committed", so no version bump either.
constexpr int kTicketOff = 28;

// Catalog page layout.
constexpr int kCatNextOff = 0;
constexpr int kCatCountOff = 4;
constexpr int kCatEntriesOff = 8;
constexpr int kCatEntrySize = 12;  // tree u32 + size i64
constexpr int kCatPerPage = (kPageSize - kCatEntriesOff) / kCatEntrySize;

template <typename T>
T Load(const uint8_t* page, int offset) {
  T value;
  std::memcpy(&value, page + offset, sizeof(T));
  return value;
}

template <typename T>
void Store(uint8_t* page, int offset, T value) {
  std::memcpy(page + offset, &value, sizeof(T));
}

// One (tree, fp) tuple delta tagged with its destination bucket
// snapshot: the unit of the δ-phase.
struct StagedDelta {
  uint32_t bucket;
  uint32_t tree;
  uint64_t fp;
  int64_t delta;
};

// Orders `run` by (bucket, key) -- equal keys share a bucket, so
// duplicates stay adjacent -- and coalesces duplicate keys into net
// deltas (zero nets are dropped entirely). The bucket-major order is
// what clusters the table apply's page touches.
void CoalesceByBucket(std::vector<StagedDelta>* run) {
  std::sort(run->begin(), run->end(),
            [](const StagedDelta& a, const StagedDelta& b) {
              if (a.bucket != b.bucket) return a.bucket < b.bucket;
              return a.tree < b.tree || (a.tree == b.tree && a.fp < b.fp);
            });
  size_t w = 0;
  for (size_t i = 0; i < run->size();) {
    size_t k = i;
    int64_t net = 0;
    while (k < run->size() && (*run)[k].tree == (*run)[i].tree &&
           (*run)[k].fp == (*run)[i].fp) {
      net += (*run)[k].delta;
      ++k;
    }
    if (net != 0) {
      (*run)[w] = (*run)[i];
      (*run)[w].delta = net;
      ++w;
    }
    i = k;
  }
  run->resize(w);
}

}  // namespace

StatusOr<std::unique_ptr<PersistentForestIndex>>
PersistentForestIndex::Create(const std::string& path, PqShape shape,
                              int pool_pages) {
  OpenOptions options;
  options.pool_pages = pool_pages;
  return Create(path, shape, options);
}

StatusOr<std::unique_ptr<PersistentForestIndex>>
PersistentForestIndex::Create(const std::string& path, PqShape shape,
                              const OpenOptions& options) {
  PQIDX_CHECK(shape.Valid());
  std::unique_ptr<PersistentForestIndex> store(new PersistentForestIndex(
      options.pool_pages, options.metric_prefix));
  PQIDX_RETURN_IF_ERROR(store->InitializeNew(path, shape));
  return store;
}

StatusOr<std::unique_ptr<PersistentForestIndex>>
PersistentForestIndex::Open(const std::string& path, int pool_pages) {
  OpenOptions options;
  options.pool_pages = pool_pages;
  return Open(path, options);
}

StatusOr<std::unique_ptr<PersistentForestIndex>>
PersistentForestIndex::Open(const std::string& path,
                            const OpenOptions& options) {
  std::unique_ptr<PersistentForestIndex> store(new PersistentForestIndex(
      options.pool_pages, options.metric_prefix));
  PQIDX_RETURN_IF_ERROR(store->OpenExisting(path, options));
  return store;
}

Status PersistentForestIndex::InitializeNew(const std::string& path,
                                            PqShape shape) {
  shape_ = shape;
  PQIDX_RETURN_IF_ERROR(pager_.Open(path, /*create=*/true));
  StatusOr<PageId> meta = pager_.AllocatePage();
  PQIDX_RETURN_IF_ERROR(meta.status());
  PQIDX_CHECK(*meta == 0);
  StatusOr<PageId> hash_meta = pager_.AllocatePage();
  PQIDX_RETURN_IF_ERROR(hash_meta.status());
  StatusOr<PageId> catalog = pager_.AllocatePage();
  PQIDX_RETURN_IF_ERROR(catalog.status());
  catalog_head_ = *catalog;
  {
    StatusOr<uint8_t*> page = pager_.MutablePage(0);
    PQIDX_RETURN_IF_ERROR(page.status());
    Store(*page, kMagicOff, kStoreMagic);
    Store(*page, kVersionOff, kStoreVersion);
    Store(*page, kShapePOff, static_cast<uint8_t>(shape.p));
    Store(*page, kShapeQOff, static_cast<uint8_t>(shape.q));
    Store(*page, kHashMetaOff, static_cast<uint32_t>(*hash_meta));
    Store(*page, kCatalogHeadOff, static_cast<uint32_t>(catalog_head_));
  }
  PQIDX_RETURN_IF_ERROR(table_.Create(*hash_meta));
  return pager_.Commit();
}

Status PersistentForestIndex::OpenExisting(const std::string& path,
                                           const OpenOptions& options) {
  PQIDX_RETURN_IF_ERROR(pager_.Open(path, /*create=*/false,
                                    /*defer_sealed_wal=*/options.bound_replay));
  if (pager_.has_deferred_wal()) {
    // A crash left this shard's group-commit transaction sealed. Its
    // meta-page image carries the store ticket the group stamped;
    // replay only when that group reached the manifest commit point
    // (ticket <= bound). A WAL that never stamped a ticket (legacy
    // single-store transaction) is a complete sealed commit with no
    // group to be torn from, so it replays unconditionally.
    std::vector<uint8_t> page0(kPageSize);
    uint64_t wal_ticket = 0;
    if (pager_.ReadDeferredWalPage(0, page0.data()).ok()) {
      wal_ticket = Load<uint64_t>(page0.data(), kTicketOff);
    }
    const bool replay =
        wal_ticket == 0 || wal_ticket <= options.replay_ticket_bound;
    PQIDX_RETURN_IF_ERROR(pager_.ResolveDeferredWal(replay));
  }
  if (pager_.page_count() == 0) {
    return DataLossError("empty index file: " + path);
  }
  StatusOr<const uint8_t*> page = pager_.ReadPage(0);
  PQIDX_RETURN_IF_ERROR(page.status());
  if (Load<uint32_t>(*page, kMagicOff) != kStoreMagic) {
    return DataLossError("not a pqidx persistent index: " + path);
  }
  if (Load<uint32_t>(*page, kVersionOff) != kStoreVersion) {
    return DataLossError("unsupported persistent index version");
  }
  shape_.p = Load<uint8_t>(*page, kShapePOff);
  shape_.q = Load<uint8_t>(*page, kShapeQOff);
  if (!shape_.Valid()) return DataLossError("bad index shape");
  PageId hash_meta = Load<uint32_t>(*page, kHashMetaOff);
  catalog_head_ = Load<uint32_t>(*page, kCatalogHeadOff);
  cursor_ = Load<uint64_t>(*page, kCursorOff);
  ticket_ = Load<uint64_t>(*page, kTicketOff);
  PQIDX_RETURN_IF_ERROR(table_.Attach(hash_meta));
  return LoadCatalog();
}

Status PersistentForestIndex::LoadCatalog() {
  catalog_.clear();
  for (PageId page_id = catalog_head_; page_id != 0;) {
    StatusOr<const uint8_t*> page = pager_.ReadPage(page_id);
    PQIDX_RETURN_IF_ERROR(page.status());
    int count = Load<uint16_t>(*page, kCatCountOff);
    if (count > kCatPerPage) return DataLossError("corrupt catalog page");
    for (int slot = 0; slot < count; ++slot) {
      int off = kCatEntriesOff + slot * kCatEntrySize;
      TreeId id = static_cast<TreeId>(Load<uint32_t>(*page, off));
      catalog_[id] = Load<int64_t>(*page, off + 4);
    }
    page_id = Load<uint32_t>(*page, kCatNextOff);
  }
  return Status::Ok();
}

Status PersistentForestIndex::StoreCatalog() {
  auto it = catalog_.begin();
  PageId page_id = catalog_head_;
  PageId prev = 0;
  while (page_id != 0 || it != catalog_.end()) {
    if (page_id == 0) {
      // Extend the chain.
      StatusOr<PageId> fresh = pager_.AllocatePage();
      PQIDX_RETURN_IF_ERROR(fresh.status());
      StatusOr<uint8_t*> prev_page = pager_.MutablePage(prev);
      PQIDX_RETURN_IF_ERROR(prev_page.status());
      Store(*prev_page, kCatNextOff, static_cast<uint32_t>(*fresh));
      page_id = *fresh;
    }
    StatusOr<uint8_t*> page = pager_.MutablePage(page_id);
    PQIDX_RETURN_IF_ERROR(page.status());
    int count = 0;
    while (it != catalog_.end() && count < kCatPerPage) {
      int off = kCatEntriesOff + count * kCatEntrySize;
      Store(*page, off, static_cast<uint32_t>(it->first));
      Store(*page, off + 4, it->second);
      ++it;
      ++count;
    }
    Store(*page, kCatCountOff, static_cast<uint16_t>(count));
    prev = page_id;
    page_id = Load<uint32_t>(*page, kCatNextOff);
  }
  // Zero out any trailing chain pages left from a larger catalog.
  while (page_id != 0) {
    StatusOr<uint8_t*> page = pager_.MutablePage(page_id);
    PQIDX_RETURN_IF_ERROR(page.status());
    Store(*page, kCatCountOff, uint16_t{0});
    page_id = Load<uint32_t>(*page, kCatNextOff);
  }
  return Status::Ok();
}

Status PersistentForestIndex::StoreCursor(uint64_t cursor) {
  if (cursor <= cursor_) return Status::Ok();
  StatusOr<uint8_t*> page = pager_.MutablePage(0);
  PQIDX_RETURN_IF_ERROR(page.status());
  Store(*page, kCursorOff, cursor);
  cursor_ = cursor;
  return Status::Ok();
}

Status PersistentForestIndex::StoreTicket(uint64_t ticket) {
  if (ticket <= ticket_) return Status::Ok();
  StatusOr<uint8_t*> page = pager_.MutablePage(0);
  PQIDX_RETURN_IF_ERROR(page.status());
  Store(*page, kTicketOff, ticket);
  ticket_ = ticket;
  return Status::Ok();
}

Status PersistentForestIndex::CommitOrCrash(bool prepare) {
  if (prepare) {
    // Group-commit prepare: the crash hook stays on the full-commit
    // path; the sharded store injects its own inter-shard crash points.
    return pager_.PrepareCommit();
  }
  if (crash_armed_) {
    crash_armed_ = false;
    return pager_.CommitWithCrash(crash_point_);
  }
  return pager_.Commit();
}

// Restores the in-memory caches (catalog head, cursor, ticket,
// linear-hash meta, catalog map) from the committed page 0.
Status PersistentForestIndex::ReloadCaches() {
  StatusOr<const uint8_t*> page = pager_.ReadPage(0);
  PQIDX_RETURN_IF_ERROR(page.status());
  catalog_head_ = Load<uint32_t>(*page, kCatalogHeadOff);
  cursor_ = Load<uint64_t>(*page, kCursorOff);
  ticket_ = Load<uint64_t>(*page, kTicketOff);
  PageId hash_meta = Load<uint32_t>(*page, kHashMetaOff);
  PQIDX_RETURN_IF_ERROR(table_.Attach(hash_meta));
  return LoadCatalog();
}

// Discards uncommitted page changes and restores the in-memory caches
// (catalog, linear-hash meta) from the committed state.
Status PersistentForestIndex::RollbackAndReload(Status cause) {
  // The reload steps are deliberately best-effort: we are already on the
  // error path and must surface `cause`, not a secondary reload failure
  // (a reload that fails leaves the caches as ReadPage/Attach/LoadCatalog
  // left them, and the next operation reports its own error).
  (void)pager_.Rollback();
  (void)ReloadCaches();
  return cause;
}

Status PersistentForestIndex::FinishPrepared() {
  return pager_.FinishPreparedCommit();
}

Status PersistentForestIndex::AbortPrepared() {
  PQIDX_RETURN_IF_ERROR(pager_.AbortPreparedCommit());
  return ReloadCaches();
}

std::vector<TreeId> PersistentForestIndex::TreeIds() const {
  std::vector<TreeId> ids;
  ids.reserve(catalog_.size());
  for (const auto& [id, size] : catalog_) ids.push_back(id);
  return ids;
}

int64_t PersistentForestIndex::TreeBagSize(TreeId id) const {
  auto it = catalog_.find(id);
  return it == catalog_.end() ? -1 : it->second;
}

Status PersistentForestIndex::AddIndex(TreeId id,
                                       const PqGramIndex& index) {
  if (!(index.shape() == shape_)) {
    return InvalidArgumentError("index shape does not match the store");
  }
  if (catalog_.contains(id)) {
    return FailedPreconditionError("tree already in the store");
  }
  for (const auto& [fp, count] : index.counts()) {
    Status status = table_.AddDelta(static_cast<uint32_t>(id), fp, count);
    if (!status.ok()) return RollbackAndReload(status);
  }
  catalog_[id] = index.size();
  Status stored = StoreCatalog();
  if (!stored.ok()) return RollbackAndReload(stored);
  return CommitOrCrash();
}

Status PersistentForestIndex::AddTree(TreeId id, const Tree& tree) {
  return AddIndex(id, BuildIndex(tree, shape_));
}

Status PersistentForestIndex::BulkAdd(
    const std::vector<std::pair<TreeId, const PqGramIndex*>>& bags,
    uint64_t cursor) {
  TxnOptions txn;
  txn.cursor = cursor;
  return BulkAdd(bags, txn);
}

Status PersistentForestIndex::BulkAdd(
    const std::vector<std::pair<TreeId, const PqGramIndex*>>& bags,
    const TxnOptions& txn) {
  size_t tuples = 0;
  for (const auto& [id, bag] : bags) {
    if (!(bag->shape() == shape_)) {
      return InvalidArgumentError("index shape does not match the store");
    }
    if (catalog_.contains(id)) {
      return FailedPreconditionError("tree " + std::to_string(id) +
                                     " already in the store");
    }
    tuples += bag->counts().size();
  }
  std::vector<StagedDelta> run;
  run.reserve(tuples);
  for (const auto& [id, bag] : bags) {
    const uint32_t tree = static_cast<uint32_t>(id);
    for (const auto& [fp, count] : bag->counts()) {
      run.push_back({table_.BucketForKey(tree, fp), tree, fp, count});
    }
  }
  CoalesceByBucket(&run);
  for (const StagedDelta& d : run) {
    Status status = table_.AddDelta(d.tree, d.fp, d.delta);
    if (!status.ok()) return RollbackAndReload(status);
  }
  for (const auto& [id, bag] : bags) catalog_[id] = bag->size();
  Status stored = StoreCatalog();
  if (!stored.ok()) return RollbackAndReload(stored);
  stored = StoreCursor(txn.cursor);
  if (!stored.ok()) return RollbackAndReload(stored);
  stored = StoreTicket(txn.ticket);
  if (!stored.ok()) return RollbackAndReload(stored);
  return CommitOrCrash(txn.prepare);
}

Status PersistentForestIndex::ApplyBatch(const std::vector<BatchEdit>& edits,
                                         std::vector<Status>* results,
                                         ApplyBatchTimings* timings,
                                         uint64_t cursor) {
  TxnOptions txn;
  txn.cursor = cursor;
  return ApplyBatch(edits, results, timings, txn);
}

Status PersistentForestIndex::ApplyBatch(const std::vector<BatchEdit>& edits,
                                         std::vector<Status>* results,
                                         ApplyBatchTimings* timings,
                                         const TxnOptions& txn) {
  static Counter* const m_batches =
      Metrics::Default().counter("apply_batch.batches");
  static Counter* const m_edits =
      Metrics::Default().counter("apply_batch.edits_staged");
  static Histogram* const m_batch_edits =
      Metrics::Default().histogram("apply_batch.batch_edits");
  static Histogram* const m_validate_us =
      Metrics::Default().histogram("apply_batch.validate_us");
  static Histogram* const m_delta_us =
      Metrics::Default().histogram("apply_batch.delta_us");
  static Histogram* const m_update_us =
      Metrics::Default().histogram("apply_batch.update_us");
  static Histogram* const m_storage_us =
      Metrics::Default().histogram("apply_batch.storage_us");

  const bool timed = Metrics::enabled();
  ApplyBatchTimings split;
  int64_t lap_start = timed ? Metrics::NowUs() : 0;
  auto lap = [&](int64_t* slot) {
    if (!timed) return;
    int64_t now = Metrics::NowUs();
    *slot = now - lap_start;
    lap_start = now;
  };

  results->assign(edits.size(), Status::Ok());

  // Phase 1: catalog-level validation against a scratch overlay, so an
  // add and a later update of the same tree compose within one batch.
  std::map<TreeId, int64_t> staged_sizes;
  auto staged_size = [&](TreeId id) -> int64_t {
    auto it = staged_sizes.find(id);
    if (it != staged_sizes.end()) return it->second;
    auto cat = catalog_.find(id);
    return cat == catalog_.end() ? -1 : cat->second;
  };
  std::vector<bool> staged(edits.size(), false);
  int num_staged = 0;
  for (size_t i = 0; i < edits.size(); ++i) {
    const BatchEdit& edit = edits[i];
    const bool is_add = edit.add != nullptr;
    const bool is_update = edit.plus != nullptr && edit.minus != nullptr;
    if (is_add == is_update) {
      (*results)[i] =
          InvalidArgumentError("batch edit must be an add or an update");
      continue;
    }
    if (is_add) {
      if (!(edit.add->shape() == shape_)) {
        (*results)[i] =
            InvalidArgumentError("index shape does not match the store");
        continue;
      }
      if (staged_size(edit.id) >= 0) {
        (*results)[i] = FailedPreconditionError(
            "tree " + std::to_string(edit.id) + " already in the store");
        continue;
      }
      staged_sizes[edit.id] = edit.add->size();
    } else {
      if (!(edit.plus->shape() == shape_) ||
          !(edit.minus->shape() == shape_)) {
        (*results)[i] =
            InvalidArgumentError("delta shape does not match the store");
        continue;
      }
      int64_t current = staged_size(edit.id);
      if (current < 0) {
        (*results)[i] = NotFoundError("tree not in the store");
        continue;
      }
      int64_t next = current + edit.plus->size() - edit.minus->size();
      if (next < 0) {
        (*results)[i] =
            InvalidArgumentError("minus bag larger than the stored bag");
        continue;
      }
      staged_sizes[edit.id] = next;
    }
    staged[i] = true;
    ++num_staged;
  }
  lap(&split.validate_us);
  if (num_staged == 0) {
    if (timings != nullptr) *timings = split;
    return Status::Ok();  // nothing to commit
  }

  // Phase 2: stage the tuple deltas, netted per key in bucket order. Any
  // failure here (I/O, or a negative net the stored bag cannot cover)
  // aborts the whole transaction.
  auto fail_batch = [&](Status cause) {
    for (size_t i = 0; i < edits.size(); ++i) {
      if (staged[i]) (*results)[i] = cause;
    }
    if (timings != nullptr) *timings = split;
    return RollbackAndReload(std::move(cause));
  };
  std::vector<StagedDelta> run;
  for (size_t i = 0; i < edits.size(); ++i) {
    if (!staged[i]) continue;
    const BatchEdit& edit = edits[i];
    const uint32_t tree = static_cast<uint32_t>(edit.id);
    auto emit = [&](const PqGramIndex& bag, int64_t sign) {
      for (const auto& [fp, count] : bag.counts()) {
        run.push_back({table_.BucketForKey(tree, fp), tree, fp, sign * count});
      }
    };
    if (edit.add != nullptr) {
      emit(*edit.add, 1);
    } else {
      emit(*edit.minus, -1);
      emit(*edit.plus, 1);
    }
  }
  CoalesceByBucket(&run);
  // The whole batch is one WAL transaction, so the hash meta page only
  // needs to be written once: defer its per-entry updates and flush
  // before the catalog/cursor writes join the same commit. A failure
  // lands in RollbackAndReload, whose re-Attach restores the cached
  // meta fields and ends the deferral window.
  table_.DeferMetaUpdates();
  for (const StagedDelta& d : run) {
    Status status = table_.AddDelta(d.tree, d.fp, d.delta);
    if (!status.ok()) return fail_batch(std::move(status));
  }
  if (Status flushed = table_.FlushDeferredMeta(); !flushed.ok()) {
    return fail_batch(std::move(flushed));
  }

  lap(&split.delta_us);

  // Phase 3: catalog + cursor/ticket stamps + one commit (or, in
  // prepare mode, one WAL seal the caller finishes or aborts).
  for (const auto& [id, size] : staged_sizes) catalog_[id] = size;
  Status stored = StoreCatalog();
  if (!stored.ok()) return fail_batch(std::move(stored));
  stored = StoreCursor(txn.cursor);
  if (!stored.ok()) return fail_batch(std::move(stored));
  stored = StoreTicket(txn.ticket);
  if (!stored.ok()) return fail_batch(std::move(stored));
  lap(&split.update_us);
  Status committed = CommitOrCrash(txn.prepare);
  lap(&split.storage_us);
  if (timings != nullptr) *timings = split;
  if (!committed.ok()) {
    // As in the single-op paths, a failed commit poisons the pager; the
    // caller recovers by reopening, so no rollback is attempted here.
    for (size_t i = 0; i < edits.size(); ++i) {
      if (staged[i]) (*results)[i] = committed;
    }
    return committed;
  }
  m_batches->Increment();
  m_edits->Add(num_staged);
  if (timed) {
    m_batch_edits->Record(num_staged);
    m_validate_us->Record(split.validate_us);
    m_delta_us->Record(split.delta_us);
    m_update_us->Record(split.update_us);
    m_storage_us->Record(split.storage_us);
  }
  return committed;
}

StatusOr<ForestIndex> PersistentForestIndex::MaterializeForest() {
  std::map<TreeId, PqGramIndex> bags;
  for (const auto& [id, size] : catalog_) {
    bags.emplace(id, PqGramIndex(shape_));
  }
  bool orphaned = false;
  PQIDX_RETURN_IF_ERROR(table_.ForEach(
      [&](uint32_t tree, uint64_t fp, int64_t count) {
        auto it = bags.find(static_cast<TreeId>(tree));
        if (it == bags.end()) {
          orphaned = true;
          return;
        }
        it->second.Add(fp, count);
      }));
  if (orphaned) {
    return DataLossError("tuples outside the catalog; index corrupt");
  }
  ForestIndex forest(shape_);
  for (auto& [id, bag] : bags) {
    if (bag.size() != catalog_[id]) {
      return DataLossError("bag size disagrees with the catalog");
    }
    forest.AddIndex(id, std::move(bag));
  }
  return forest;
}

Status PersistentForestIndex::RemoveTree(TreeId id) {
  if (!catalog_.contains(id)) {
    return NotFoundError("tree not in the store");
  }
  // Collect the tree's keys (full sweep), then delete them.
  std::vector<std::pair<uint64_t, int64_t>> doomed;
  PQIDX_RETURN_IF_ERROR(table_.ForEach(
      [&](uint32_t tree, uint64_t fp, int64_t count) {
        if (tree == static_cast<uint32_t>(id)) doomed.emplace_back(fp, count);
      }));
  for (const auto& [fp, count] : doomed) {
    Status status =
        table_.AddDelta(static_cast<uint32_t>(id), fp, -count);
    if (!status.ok()) return RollbackAndReload(status);
  }
  catalog_.erase(id);
  PQIDX_RETURN_IF_ERROR(StoreCatalog());
  return CommitOrCrash();
}

Status PersistentForestIndex::UpdateTree(TreeId id, const PqGramIndex& plus,
                                         const PqGramIndex& minus) {
  auto it = catalog_.find(id);
  if (it == catalog_.end()) return NotFoundError("tree not in the store");
  if (!(plus.shape() == shape_) || !(minus.shape() == shape_)) {
    return InvalidArgumentError("delta shape does not match the store");
  }
  for (const auto& [fp, count] : minus.counts()) {
    Status status =
        table_.AddDelta(static_cast<uint32_t>(id), fp, -count);
    if (!status.ok()) return RollbackAndReload(status);
  }
  for (const auto& [fp, count] : plus.counts()) {
    Status status = table_.AddDelta(static_cast<uint32_t>(id), fp, count);
    if (!status.ok()) return RollbackAndReload(status);
  }
  it->second += plus.size() - minus.size();
  PQIDX_CHECK(it->second >= 0);
  Status stored = StoreCatalog();
  if (!stored.ok()) return RollbackAndReload(stored);
  return CommitOrCrash();
}

Status PersistentForestIndex::ApplyLog(TreeId id, const Tree& tn,
                                       const EditLog& log) {
  if (!catalog_.contains(id)) return NotFoundError("tree not in the store");
  PqGramIndex plus(shape_);
  PqGramIndex minus(shape_);
  PQIDX_RETURN_IF_ERROR(
      ComputeIndexDeltas(tn, log, shape_, &plus, &minus, nullptr));
  return UpdateTree(id, plus, minus);
}

StatusOr<double> PersistentForestIndex::Distance(TreeId id,
                                                 const PqGramIndex& query) {
  auto it = catalog_.find(id);
  if (it == catalog_.end()) return NotFoundError("tree not in the store");
  PQIDX_CHECK(query.shape() == shape_);
  int64_t intersection = 0;
  for (const auto& [fp, qcount] : query.counts()) {
    StatusOr<int64_t> stored = table_.Get(static_cast<uint32_t>(id), fp);
    PQIDX_RETURN_IF_ERROR(stored.status());
    intersection += std::min(qcount, *stored);
  }
  int64_t union_size = query.size() + it->second;
  if (union_size == 0) return 0.0;
  return 1.0 - 2.0 * static_cast<double>(intersection) /
                   static_cast<double>(union_size);
}

StatusOr<std::vector<LookupResult>> PersistentForestIndex::Lookup(
    const PqGramIndex& query, double tau) {
  std::vector<LookupResult> results;
  for (const auto& [id, size] : catalog_) {
    StatusOr<double> distance = Distance(id, query);
    PQIDX_RETURN_IF_ERROR(distance.status());
    if (*distance <= tau) results.push_back({id, *distance});
  }
  std::sort(results.begin(), results.end(),
            [](const LookupResult& a, const LookupResult& b) {
              return a.distance < b.distance ||
                     (a.distance == b.distance && a.tree_id < b.tree_id);
            });
  return results;
}

StatusOr<PqGramIndex> PersistentForestIndex::MaterializeIndex(TreeId id) {
  if (!catalog_.contains(id)) return NotFoundError("tree not in the store");
  PqGramIndex index(shape_);
  PQIDX_RETURN_IF_ERROR(table_.ForEach(
      [&](uint32_t tree, uint64_t fp, int64_t count) {
        if (tree == static_cast<uint32_t>(id)) index.Add(fp, count);
      }));
  return index;
}

Status PersistentForestIndex::CompactInto(const std::string& path) {
  StatusOr<std::unique_ptr<PersistentForestIndex>> fresh =
      Create(path, shape_);
  PQIDX_RETURN_IF_ERROR(fresh.status());
  // Materialize per tree so each AddIndex commits atomically.
  for (const auto& [id, size] : catalog_) {
    StatusOr<PqGramIndex> bag = MaterializeIndex(id);
    PQIDX_RETURN_IF_ERROR(bag.status());
    PQIDX_RETURN_IF_ERROR((*fresh)->AddIndex(id, *bag));
  }
  return Status::Ok();
}

void PersistentForestIndex::CheckConsistency() {
  table_.CheckConsistency();
  std::map<TreeId, int64_t> totals;
  Status status = table_.ForEach(
      [&](uint32_t tree, uint64_t fp, int64_t count) {
        (void)fp;
        totals[static_cast<TreeId>(tree)] += count;
      });
  PQIDX_CHECK(status.ok());
  for (const auto& [id, size] : catalog_) {
    auto it = totals.find(id);
    PQIDX_CHECK((it == totals.end() ? 0 : it->second) == size);
    if (it != totals.end()) totals.erase(it);
  }
  PQIDX_CHECK_MSG(totals.empty(), "orphaned tuples outside the catalog");
}

}  // namespace pqidx
