#include "storage/sharded_store.h"

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <functional>

namespace pqidx {
namespace {

std::string ManifestPath(const std::string& dir) { return dir + "/MANIFEST"; }

std::string ShardPath(const std::string& dir, int k) {
  char name[16];
  std::snprintf(name, sizeof(name), "shard-%04d", k);
  return dir + "/" + name;
}

std::string ShardMetricPrefix(int k) {
  return "pager.s" + std::to_string(k);
}

bool IsDirectory(const std::string& path) {
  struct stat st;
  return ::stat(path.c_str(), &st) == 0 && S_ISDIR(st.st_mode);
}

Status SyncFile(std::FILE* file) {
  if (std::fflush(file) != 0 || fsync(fileno(file)) != 0) {
    return IoError("manifest fsync failed");
  }
  return Status::Ok();
}

// Clears a previous store at `path` so Create can start fresh: either a
// legacy single file (plus a leftover WAL) or a shard directory.
void RemoveExistingStore(const std::string& path) {
  if (IsDirectory(path)) {
    std::remove(ManifestPath(path).c_str());
    for (uint32_t k = 0; k < kMaxStoreShards; ++k) {
      const std::string shard = ShardPath(path, static_cast<int>(k));
      const bool removed = std::remove(shard.c_str()) == 0;
      std::remove((shard + ".wal").c_str());
      if (!removed) break;
    }
    ::rmdir(path.c_str());
  } else {
    std::remove(path.c_str());
    std::remove((path + ".wal").c_str());
  }
}

}  // namespace

ShardedStore::~ShardedStore() {
  if (manifest_file_ != nullptr) std::fclose(manifest_file_);
}

StatusOr<std::unique_ptr<ShardedStore>> ShardedStore::Create(
    const std::string& path, PqShape shape, int shards, int pool_pages) {
  if (shards < 1 || shards > static_cast<int>(kMaxStoreShards)) {
    return InvalidArgumentError("store shard count out of range");
  }
  RemoveExistingStore(path);
  auto store = std::unique_ptr<ShardedStore>(new ShardedStore());
  store->path_ = path;
  store->shape_ = shape;
  store->sharded_ = shards > 1;
  if (!store->sharded_) {
    StatusOr<std::unique_ptr<PersistentForestIndex>> created =
        PersistentForestIndex::Create(path, shape, pool_pages);
    PQIDX_RETURN_IF_ERROR(created.status());
    store->shards_.push_back(std::move(created).value());
  } else {
    if (::mkdir(path.c_str(), 0755) != 0 && errno != EEXIST) {
      return IoError("cannot create store directory");
    }
    ShardManifest manifest;
    manifest.shard_count = static_cast<uint32_t>(shards);
    const std::string bytes = EncodeShardManifest(manifest);
    std::FILE* file = std::fopen(ManifestPath(path).c_str(), "wb+");
    if (file == nullptr) return IoError("cannot create shard manifest");
    if (std::fwrite(bytes.data(), 1, bytes.size(), file) != bytes.size()) {
      std::fclose(file);
      return IoError("shard manifest write failed");
    }
    Status synced = SyncFile(file);
    if (!synced.ok()) {
      std::fclose(file);
      return synced;
    }
    store->manifest_file_ = file;
    // A fresh manifest decodes from slot B (equal tickets, B wins), so
    // the first group commit overwrites slot A.
    store->next_slot_b_ = false;
    for (int k = 0; k < shards; ++k) {
      PersistentForestIndex::OpenOptions options;
      options.pool_pages = pool_pages;
      options.metric_prefix = ShardMetricPrefix(k);
      StatusOr<std::unique_ptr<PersistentForestIndex>> created =
          PersistentForestIndex::Create(ShardPath(path, k), shape, options);
      PQIDX_RETURN_IF_ERROR(created.status());
      store->shards_.push_back(std::move(created).value());
    }
  }
  store->InitMetrics();
  store->UpdateShardGauges();
  return store;
}

StatusOr<std::unique_ptr<ShardedStore>> ShardedStore::Open(
    const std::string& path, int pool_pages) {
  if (IsDirectory(path)) return OpenSharded(path, pool_pages);
  // Legacy layout: the store is one PersistentForestIndex file. Every
  // pre-shard file lands here (manifest absent => N = 1, unchanged).
  auto store = std::unique_ptr<ShardedStore>(new ShardedStore());
  store->path_ = path;
  StatusOr<std::unique_ptr<PersistentForestIndex>> opened =
      PersistentForestIndex::Open(path, pool_pages);
  PQIDX_RETURN_IF_ERROR(opened.status());
  store->shards_.push_back(std::move(opened).value());
  store->shape_ = store->shards_[0]->shape();
  store->next_ticket_.store(store->shards_[0]->store_ticket() + 1,
                            std::memory_order_release);
  store->cursor_.store(store->shards_[0]->replication_cursor(),
                       std::memory_order_release);
  store->InitMetrics();
  store->UpdateShardGauges();
  return store;
}

StatusOr<std::unique_ptr<ShardedStore>> ShardedStore::OpenSharded(
    const std::string& path, int pool_pages) {
  std::FILE* file = std::fopen(ManifestPath(path).c_str(), "rb+");
  if (file == nullptr) return IoError("cannot open shard manifest");
  std::string bytes(kShardManifestSize, '\0');
  const size_t read = std::fread(bytes.data(), 1, bytes.size(), file);
  bytes.resize(read);
  StatusOr<ShardManifest> decoded = DecodeShardManifest(bytes);
  if (!decoded.ok()) {
    std::fclose(file);
    return decoded.status();
  }
  const ShardManifest& manifest = *decoded;

  auto store = std::unique_ptr<ShardedStore>(new ShardedStore());
  store->path_ = path;
  store->sharded_ = true;
  store->manifest_file_ = file;
  store->manifest_ticket_ = manifest.committed_ticket;
  store->manifest_cursor_ = manifest.committed_cursor;
  store->next_slot_b_ = !manifest.committed_in_slot_b;

  // Recover every shard to the manifest's consistent cut: a crashed
  // shard WAL replays only when its group decided (stamped ticket <=
  // the manifest's committed ticket).
  uint64_t max_ticket = manifest.committed_ticket;
  uint64_t max_cursor = manifest.committed_cursor;
  for (uint32_t k = 0; k < manifest.shard_count; ++k) {
    PersistentForestIndex::OpenOptions options;
    options.pool_pages = pool_pages;
    options.metric_prefix = ShardMetricPrefix(static_cast<int>(k));
    options.bound_replay = true;
    options.replay_ticket_bound = manifest.committed_ticket;
    StatusOr<std::unique_ptr<PersistentForestIndex>> opened =
        PersistentForestIndex::Open(ShardPath(path, static_cast<int>(k)),
                                    options);
    PQIDX_RETURN_IF_ERROR(opened.status());
    max_ticket = std::max(max_ticket, (*opened)->store_ticket());
    max_cursor = std::max(max_cursor, (*opened)->replication_cursor());
    store->shards_.push_back(std::move(opened).value());
  }
  store->shape_ = store->shards_[0]->shape();
  for (const auto& shard : store->shards_) {
    if (!(shard->shape() == store->shape_)) {
      return DataLossError("shard shapes disagree");
    }
  }
  // Reconcile: single-shard fast-path commits advance a shard beyond
  // the manifest without a decide, so the global ticket/cursor are the
  // max over the manifest and every shard.
  store->next_ticket_.store(max_ticket + 1, std::memory_order_release);
  store->cursor_.store(max_cursor, std::memory_order_release);
  store->InitMetrics();
  store->UpdateShardGauges();
  return store;
}

void ShardedStore::InitMetrics() {
  Metrics& metrics = Metrics::Default();
  m_shards_ = metrics.gauge("store.shards");
  m_shards_->Set(shard_count());
  m_group_commits_ = metrics.counter("store.group_commits");
  m_single_shard_commits_ = metrics.counter("store.single_shard_commits");
  m_manifest_us_ = metrics.histogram("store.manifest_us");
  m_group_commit_us_ = metrics.histogram("store.group_commit_us");
  for (int k = 0; k < shard_count(); ++k) {
    const std::string base = "store.shard" + std::to_string(k);
    m_shard_ticket_.push_back(metrics.gauge(base + ".ticket"));
    m_shard_cursor_.push_back(metrics.gauge(base + ".cursor"));
    const std::string table = "linear_hash.s" + std::to_string(k);
    m_shard_entries_.push_back(metrics.gauge(table + ".entries"));
    m_shard_buckets_.push_back(metrics.gauge(table + ".buckets"));
  }
}

void ShardedStore::UpdateShardGauges() {
  for (int k = 0; k < shard_count(); ++k) {
    const PersistentForestIndex& shard = *shards_[k];
    m_shard_ticket_[k]->Set(static_cast<int64_t>(shard.store_ticket()));
    m_shard_cursor_[k]->Set(
        static_cast<int64_t>(shard.replication_cursor()));
    m_shard_entries_[k]->Set(
        static_cast<int64_t>(shard.table_entry_count()));
    m_shard_buckets_[k]->Set(
        static_cast<int64_t>(shard.table_bucket_count()));
  }
}

void ShardedStore::RefreshCursorFromShards() {
  uint64_t cursor = cursor_.load(std::memory_order_acquire);
  for (const auto& shard : shards_) {
    cursor = std::max(cursor, shard->replication_cursor());
  }
  cursor_.store(cursor, std::memory_order_release);
}

int ShardedStore::size() const {
  int total = 0;
  for (const auto& shard : shards_) total += shard->size();
  return total;
}

int64_t ShardedStore::PoolBytes() const {
  int64_t pages = 0;
  for (const auto& shard : shards_) pages += shard->pager().cached_pages();
  return pages * kPageSize;
}

std::vector<TreeId> ShardedStore::TreeIds() const {
  std::vector<TreeId> ids;
  for (const auto& shard : shards_) {
    std::vector<TreeId> part = shard->TreeIds();
    ids.insert(ids.end(), part.begin(), part.end());
  }
  std::sort(ids.begin(), ids.end());
  return ids;
}

int64_t ShardedStore::TreeBagSize(TreeId id) const {
  return shards_[ShardOf(id)]->TreeBagSize(id);
}

Status ShardedStore::CommitManifestSlot(uint64_t ticket, uint64_t cursor) {
  const int64_t start_us = Metrics::enabled() ? Metrics::NowUs() : 0;
  uint8_t slot[kShardManifestSlotSize];
  EncodeShardManifestSlot(ticket, cursor, slot);
  const long offset = static_cast<long>(
      next_slot_b_ ? kShardManifestSlotBOff : kShardManifestSlotAOff);
  if (std::fseek(manifest_file_, offset, SEEK_SET) != 0 ||
      std::fwrite(slot, 1, sizeof(slot), manifest_file_) != sizeof(slot)) {
    return IoError("manifest slot write failed");
  }
  PQIDX_RETURN_IF_ERROR(SyncFile(manifest_file_));
  next_slot_b_ = !next_slot_b_;
  manifest_ticket_ = ticket;
  manifest_cursor_ = cursor;
  if (Metrics::enabled()) m_manifest_us_->Record(Metrics::NowUs() - start_us);
  return Status::Ok();
}

void ShardedStore::AbortPreparedShards(const std::vector<ShardRun>& runs) {
  for (const ShardRun& run : runs) {
    if (shards_[run.shard]->prepared()) {
      (void)shards_[run.shard]->AbortPrepared();
    }
  }
}

Status ShardedStore::GroupCommit(
    std::vector<ShardRun>* runs, ThreadPool* pool, uint64_t cursor,
    const std::function<Status(ShardRun*,
                               const PersistentForestIndex::TxnOptions&)>&
        prepare) {
  if (poisoned_) {
    return FailedPreconditionError(
        "sharded store poisoned by an earlier commit failure");
  }
  const uint64_t ticket = next_ticket_.load(std::memory_order_relaxed);
  PersistentForestIndex::TxnOptions txn;
  txn.cursor = cursor;
  txn.ticket = ticket;
  txn.prepare = true;
  if (group_crash_armed_) return GroupCommitCrash(runs, txn, prepare);

  const int64_t start_us = Metrics::enabled() ? Metrics::NowUs() : 0;

  // Phase 1 -- prepare: each touched shard stages its sub-batch and
  // seals its own WAL (the per-shard fsync), fanned across the pool.
  if (pool != nullptr && runs->size() > 1) {
    pool->ParallelFor(static_cast<int64_t>(runs->size()), [&](int64_t i) {
      ShardRun& run = (*runs)[i];
      run.status = prepare(&run, txn);
    });
  } else {
    for (ShardRun& run : *runs) run.status = prepare(&run, txn);
  }
  Status cause = Status::Ok();
  for (const ShardRun& run : *runs) {
    if (!run.status.ok()) cause = run.status;
  }
  if (!cause.ok()) {
    // A hard failure anywhere aborts the whole group: every staged
    // (Ok-so-far) edit fails, mirroring the single-store batch
    // contract at group scope.
    AbortPreparedShards(*runs);
    for (ShardRun& run : *runs) {
      for (Status& result : run.results) {
        if (result.ok()) result = cause;
      }
    }
    return cause;
  }

  std::vector<int> prepared;
  for (const ShardRun& run : *runs) {
    if (shards_[run.shard]->prepared()) prepared.push_back(run.shard);
  }
  if (prepared.empty()) return Status::Ok();  // nothing staged anywhere

  // Phase 2 -- decide. With more than one prepared shard the manifest
  // slot write + fsync is the commit point. A single prepared shard
  // skips it: that shard's own WAL commit is already atomic, and if a
  // crash discards its undecided WAL the loss is an unacknowledged
  // batch, not a torn group (recovery reconciles tickets by max).
  const uint64_t decide_cursor =
      std::max(cursor, cursor_.load(std::memory_order_acquire));
  if (prepared.size() > 1) {
    Status decided = CommitManifestSlot(ticket, decide_cursor);
    if (!decided.ok()) {
      AbortPreparedShards(*runs);
      return decided;
    }
  } else {
    m_single_shard_commits_->Increment();
  }

  // Phase 3 -- finish: apply each sealed WAL in place. A failure here
  // is unrecoverable in-process (the group has decided); the store is
  // poisoned and the next Open rolls the group forward from the WALs.
  std::vector<Status> finished(prepared.size(), Status::Ok());
  if (pool != nullptr && prepared.size() > 1) {
    pool->ParallelFor(static_cast<int64_t>(prepared.size()), [&](int64_t i) {
      finished[i] = shards_[prepared[i]]->FinishPrepared();
    });
  } else {
    for (size_t i = 0; i < prepared.size(); ++i) {
      finished[i] = shards_[prepared[i]]->FinishPrepared();
    }
  }
  for (const Status& st : finished) {
    if (!st.ok()) {
      poisoned_ = true;
      return st;
    }
  }

  next_ticket_.store(ticket + 1, std::memory_order_release);
  cursor_.store(decide_cursor, std::memory_order_release);
  m_group_commits_->Increment();
  if (Metrics::enabled()) {
    m_group_commit_us_->Record(Metrics::NowUs() - start_us);
  }
  UpdateShardGauges();
  return Status::Ok();
}

Status ShardedStore::GroupCommitCrash(
    std::vector<ShardRun>* runs,
    const PersistentForestIndex::TxnOptions& txn,
    const std::function<Status(ShardRun*,
                               const PersistentForestIndex::TxnOptions&)>&
        prepare) {
  group_crash_armed_ = false;
  const GroupCrashPoint point = group_crash_point_;
  const int limit = group_crash_after_shard_;

  // Run the protocol serially in shard order so the crash point is
  // deterministic. The decide runs even for single-shard groups: the
  // matrix exercises the full protocol, not the fast path.
  int index = 0;
  for (ShardRun& run : *runs) {
    if (point == GroupCrashPoint::kAfterPrepare && index > limit) break;
    PQIDX_RETURN_IF_ERROR(prepare(&run, txn));
    ++index;
  }
  if (point != GroupCrashPoint::kAfterPrepare) {
    const uint64_t decide_cursor =
        std::max(txn.cursor, cursor_.load(std::memory_order_acquire));
    PQIDX_RETURN_IF_ERROR(CommitManifestSlot(txn.ticket, decide_cursor));
  }
  if (point == GroupCrashPoint::kAfterFinish) {
    index = 0;
    for (ShardRun& run : *runs) {
      if (index > limit) break;
      if (shards_[run.shard]->prepared()) {
        PQIDX_RETURN_IF_ERROR(shards_[run.shard]->FinishPrepared());
      }
      ++index;
    }
  }
  // The power cut: abandon every shard's file handles without applying,
  // rolling back, or removing any WAL, exactly as a crash would.
  for (auto& shard : shards_) shard->mutable_pager()->CrashAbandon();
  if (manifest_file_ != nullptr) {
    std::fclose(manifest_file_);
    manifest_file_ = nullptr;
  }
  poisoned_ = true;
  return Status::Ok();
}

Status ShardedStore::ApplyBatch(const std::vector<BatchEdit>& edits,
                                std::vector<Status>* results,
                                ApplyBatchTimings* timings, ThreadPool* pool,
                                uint64_t cursor) {
  results->assign(edits.size(), Status::Ok());
  if (timings != nullptr) *timings = ApplyBatchTimings{};
  if (!sharded_) {
    // One shard: nothing to fan out, so `pool` goes unused.
    Status st = shards_[0]->ApplyBatch(edits, results, timings, cursor);
    if (st.ok()) {
      RefreshCursorFromShards();
      UpdateShardGauges();
    }
    return st;
  }

  std::vector<ShardRun> runs;
  std::vector<int> run_of_shard(shard_count(), -1);
  for (size_t i = 0; i < edits.size(); ++i) {
    const int k = ShardOf(edits[i].id);
    if (run_of_shard[k] < 0) {
      run_of_shard[k] = static_cast<int>(runs.size());
      runs.emplace_back();
      runs.back().shard = k;
    }
    ShardRun& run = runs[run_of_shard[k]];
    run.edits.push_back(edits[i]);
    run.edit_index.push_back(i);
  }
  if (runs.empty()) return Status::Ok();
  std::sort(runs.begin(), runs.end(),
            [](const ShardRun& a, const ShardRun& b) {
              return a.shard < b.shard;
            });

  auto prepare = [this](ShardRun* run,
                        const PersistentForestIndex::TxnOptions& txn) {
    return shards_[run->shard]->ApplyBatch(run->edits, &run->results,
                                           &run->timings, txn);
  };
  Status st = GroupCommit(&runs, pool, cursor, prepare);

  ApplyBatchTimings total;
  for (const ShardRun& run : runs) {
    if (run.results.size() == run.edits.size()) {
      for (size_t j = 0; j < run.edits.size(); ++j) {
        (*results)[run.edit_index[j]] = run.results[j];
      }
    } else if (!st.ok()) {
      for (size_t index : run.edit_index) (*results)[index] = st;
    }
    // Prepares run concurrently, so the group's phase cost is the
    // slowest shard's, not the sum.
    total.validate_us = std::max(total.validate_us, run.timings.validate_us);
    total.delta_us = std::max(total.delta_us, run.timings.delta_us);
    total.update_us = std::max(total.update_us, run.timings.update_us);
    total.storage_us = std::max(total.storage_us, run.timings.storage_us);
  }
  if (timings != nullptr) *timings = total;
  return st;
}

Status ShardedStore::BulkAdd(
    const std::vector<std::pair<TreeId, const PqGramIndex*>>& bags,
    ThreadPool* pool, uint64_t cursor) {
  if (!sharded_) {
    Status st = shards_[0]->BulkAdd(bags, cursor);
    if (st.ok()) {
      RefreshCursorFromShards();
      UpdateShardGauges();
    }
    return st;
  }
  std::vector<ShardRun> runs;
  std::vector<int> run_of_shard(shard_count(), -1);
  for (const auto& bag : bags) {
    const int k = ShardOf(bag.first);
    if (run_of_shard[k] < 0) {
      run_of_shard[k] = static_cast<int>(runs.size());
      runs.emplace_back();
      runs.back().shard = k;
    }
    runs[run_of_shard[k]].bags.push_back(bag);
  }
  if (runs.empty()) return Status::Ok();
  std::sort(runs.begin(), runs.end(),
            [](const ShardRun& a, const ShardRun& b) {
              return a.shard < b.shard;
            });
  auto prepare = [this](ShardRun* run,
                        const PersistentForestIndex::TxnOptions& txn) {
    return shards_[run->shard]->BulkAdd(run->bags, txn);
  };
  return GroupCommit(&runs, pool, cursor, prepare);
}

StatusOr<ForestIndex> ShardedStore::MaterializeForest() {
  StatusOr<ForestIndex> merged = shards_[0]->MaterializeForest();
  PQIDX_RETURN_IF_ERROR(merged.status());
  ForestIndex forest = std::move(merged).value();
  for (int k = 1; k < shard_count(); ++k) {
    StatusOr<ForestIndex> part = shards_[k]->MaterializeForest();
    PQIDX_RETURN_IF_ERROR(part.status());
    for (TreeId id : part->TreeIds()) {
      forest.AddIndex(id, *part->Find(id));
    }
  }
  return forest;
}

Status ShardedStore::RemoveTree(TreeId id) {
  Status st = shards_[ShardOf(id)]->RemoveTree(id);
  if (st.ok()) UpdateShardGauges();
  return st;
}

StatusOr<std::vector<LookupResult>> ShardedStore::Lookup(
    const PqGramIndex& query, double tau) {
  std::vector<LookupResult> results;
  for (const auto& shard : shards_) {
    StatusOr<std::vector<LookupResult>> part = shard->Lookup(query, tau);
    PQIDX_RETURN_IF_ERROR(part.status());
    results.insert(results.end(), part->begin(), part->end());
  }
  std::sort(results.begin(), results.end(),
            [](const LookupResult& a, const LookupResult& b) {
              return a.distance < b.distance ||
                     (a.distance == b.distance && a.tree_id < b.tree_id);
            });
  return results;
}

void ShardedStore::CheckConsistency() {
  for (const auto& shard : shards_) shard->CheckConsistency();
}

}  // namespace pqidx
