#include "storage/pager.h"

#include <unistd.h>

#include <algorithm>
#include <cstdio>
#include <cstring>

namespace pqidx {
namespace {

constexpr uint32_t kWalMagic = 0x50515741;   // "PQWA"
constexpr uint32_t kSealMagic = 0x53454121;  // "SEA!"

uint64_t Fnv1a(const uint8_t* data, size_t size, uint64_t seed = 0) {
  uint64_t hash = 1469598103934665603ULL ^ seed;
  for (size_t i = 0; i < size; ++i) {
    hash ^= data[i];
    hash *= 1099511628211ULL;
  }
  return hash;
}

Status SyncFile(std::FILE* file) {
  if (std::fflush(file) != 0 || fsync(fileno(file)) != 0) {
    return IoError("fsync failed");
  }
  return Status::Ok();
}

// Little helpers for raw binary file records.
bool WriteRaw(std::FILE* file, const void* data, size_t size) {
  return std::fwrite(data, 1, size, file) == size;
}
bool ReadRaw(std::FILE* file, void* data, size_t size) {
  return std::fread(data, 1, size, file) == size;
}

}  // namespace

Pager::Pager(int pool_pages, std::string metric_prefix)
    : pool_capacity_(std::max(pool_pages, 8)),
      m_cache_hits_(Metrics::Default().counter(metric_prefix + ".cache_hits")),
      m_cache_misses_(
          Metrics::Default().counter(metric_prefix + ".cache_misses")),
      m_commits_(Metrics::Default().counter(metric_prefix + ".commits")),
      m_fsyncs_(Metrics::Default().counter(metric_prefix + ".fsyncs")),
      m_wal_bytes_(Metrics::Default().counter(metric_prefix + ".wal_bytes")),
      m_wal_replays_(
          Metrics::Default().counter(metric_prefix + ".wal_replays")),
      m_wal_discards_(
          Metrics::Default().counter(metric_prefix + ".wal_discards")),
      m_commit_us_(Metrics::Default().histogram(metric_prefix + ".commit_us")),
      m_replay_us_(
          Metrics::Default().histogram(metric_prefix + ".replay_us")) {}

Pager::~Pager() {
  if (file_ != nullptr) {
    Close().ok();  // best effort; Close commits nothing on its own
  }
}

bool Pager::WriteRawChecked(std::FILE* file, const void* data,
                            size_t size) {
  if (fail_after_writes_ >= 0) {
    if (fail_after_writes_ == 0) return false;  // injected failure
    --fail_after_writes_;
  }
  return WriteRaw(file, data, size);
}

Status Pager::SyncCounted(std::FILE* file) {
  ++fsyncs_;
  m_fsyncs_->Increment();
  return SyncFile(file);
}

Status Pager::PoisonedError() const {
  return FailedPreconditionError(
      "pager poisoned by a failed commit; reopen to recover");
}

namespace {
Status DeferredPendingError() {
  return FailedPreconditionError(
      "a sealed WAL is parked; call ResolveDeferredWal before page "
      "operations");
}
}  // namespace

Status Pager::Open(const std::string& path, bool create,
                   bool defer_sealed_wal) {
  PQIDX_CHECK(file_ == nullptr);
  path_ = path;
  poisoned_ = false;
  fail_after_writes_ = -1;
  prepared_ = false;
  prepared_dirty_.clear();
  deferred_pending_ = false;
  deferred_records_.clear();
  deferred_page_count_ = 0;
  file_ = std::fopen(path.c_str(), create ? "wb+" : "rb+");
  if (file_ == nullptr) {
    return IoError("cannot open page file: " + path);
  }
  if (create) {
    std::remove(WalPath().c_str());
    page_count_ = 0;
  } else {
    if (defer_sealed_wal) {
      std::vector<WalImage> records;
      bool sealed = false;
      uint32_t sealed_page_count = 0;
      if (ParseWal(&records, &sealed, &sealed_page_count)) {
        if (sealed) {
          // Park the transaction: the caller inspects it and resolves.
          deferred_pending_ = true;
          deferred_records_ = std::move(records);
          deferred_page_count_ = sealed_page_count;
        } else {
          ++wal_discards_;
          m_wal_discards_->Increment();
          std::remove(WalPath().c_str());
        }
      }
    } else {
      PQIDX_RETURN_IF_ERROR(ReplayOrDiscardWal());
    }
    PQIDX_RETURN_IF_ERROR(RefreshPageCountFromFile());
  }
  committed_page_count_ = page_count_;
  return Status::Ok();
}

Status Pager::RefreshPageCountFromFile() {
  if (std::fseek(file_, 0, SEEK_END) != 0) return IoError("seek failed");
  long size = std::ftell(file_);
  if (size < 0 || size % kPageSize != 0) {
    return DataLossError("page file size is not a multiple of the page "
                         "size: " + path_);
  }
  if (size / kPageSize > static_cast<long>(UINT32_MAX)) {
    return DataLossError("page file exceeds the 32-bit page id space: " +
                         path_);
  }
  page_count_ = static_cast<PageId>(size / kPageSize);
  return Status::Ok();
}

Status Pager::Close() {
  if (file_ == nullptr) return Status::Ok();
  std::fclose(file_);
  file_ = nullptr;
  pool_.clear();
  lru_.clear();
  return Status::Ok();
}

StatusOr<PageId> Pager::AllocatePage() {
  if (poisoned_) return PoisonedError();
  if (deferred_pending_) return DeferredPendingError();
  PQIDX_CHECK(file_ != nullptr);
  PageId id = page_count_++;
  StatusOr<Frame*> frame = GetFrame(id, /*fetch_from_disk=*/false);
  PQIDX_RETURN_IF_ERROR(frame.status());
  MarkDirty(*frame);
  std::memset((*frame)->data.data(), 0, kPageSize);
  return id;
}

StatusOr<const uint8_t*> Pager::ReadPage(PageId id) {
  if (poisoned_) return PoisonedError();
  if (deferred_pending_) return DeferredPendingError();
  if (id >= page_count_) return OutOfRangeError("page id out of range");
  StatusOr<Frame*> frame = GetFrame(id, /*fetch_from_disk=*/true);
  PQIDX_RETURN_IF_ERROR(frame.status());
  return static_cast<const uint8_t*>((*frame)->data.data());
}

StatusOr<uint8_t*> Pager::MutablePage(PageId id) {
  if (poisoned_) return PoisonedError();
  if (deferred_pending_) return DeferredPendingError();
  if (id >= page_count_) return OutOfRangeError("page id out of range");
  StatusOr<Frame*> frame = GetFrame(id, /*fetch_from_disk=*/true);
  PQIDX_RETURN_IF_ERROR(frame.status());
  MarkDirty(*frame);
  return (*frame)->data.data();
}

StatusOr<Pager::Frame*> Pager::GetFrame(PageId id, bool fetch_from_disk) {
  auto it = pool_.find(id);
  if (it != pool_.end()) {
    ++cache_hits_;
    m_cache_hits_->Increment();
    if (it->second.in_lru) {
      lru_.erase(it->second.lru_pos);
      lru_.push_front(id);
      it->second.lru_pos = lru_.begin();
    }
    return &it->second;
  }
  ++cache_misses_;
  m_cache_misses_->Increment();
  PQIDX_RETURN_IF_ERROR(EvictIfNeeded());
  Frame& frame = pool_[id];
  frame.data.assign(kPageSize, 0);
  lru_.push_front(id);
  frame.lru_pos = lru_.begin();
  frame.in_lru = true;
  if (fetch_from_disk && id < committed_page_count_) {
    Status status = ReadFromFile(id, frame.data.data());
    if (!status.ok()) {
      lru_.erase(frame.lru_pos);
      pool_.erase(id);
      return status;
    }
  }
  return &frame;
}

void Pager::MarkDirty(Frame* frame) {
  if (frame->dirty) return;
  frame->dirty = true;
  if (frame->in_lru) {
    lru_.erase(frame->lru_pos);
    frame->in_lru = false;
  }
}

void Pager::MarkClean(PageId id, Frame* frame) {
  frame->dirty = false;
  if (!frame->in_lru) {
    lru_.push_front(id);
    frame->lru_pos = lru_.begin();
    frame->in_lru = true;
  }
}

Status Pager::EvictIfNeeded() {
  // `lru_` holds only clean frames, so eviction pops from the back
  // without scanning. Dirty pages are pinned until the next Commit, so
  // the pool may temporarily exceed capacity under write-heavy
  // transactions; the loop drains the excess as soon as commits free
  // eviction candidates again.
  while (static_cast<int>(pool_.size()) >= pool_capacity_ &&
         !lru_.empty()) {
    PageId victim = lru_.back();
    lru_.pop_back();
    pool_.erase(victim);
  }
  return Status::Ok();
}

Status Pager::ReadFromFile(PageId id, uint8_t* out) {
  if (std::fseek(file_, static_cast<long>(id) * kPageSize, SEEK_SET) != 0) {
    return IoError("seek failed");
  }
  if (!ReadRaw(file_, out, kPageSize)) {
    return IoError("short page read");
  }
  return Status::Ok();
}

Status Pager::WriteFrameToFile(PageId id, const Frame& frame) {
  if (std::fseek(file_, static_cast<long>(id) * kPageSize, SEEK_SET) != 0) {
    return IoError("seek failed");
  }
  if (!WriteRawChecked(file_, frame.data.data(), kPageSize)) {
    return IoError("short page write");
  }
  return Status::Ok();
}

StatusOr<std::vector<PageId>> Pager::WriteWal() {
  std::vector<PageId> dirty;
  for (const auto& [id, frame] : pool_) {
    if (frame.dirty) dirty.push_back(id);
  }
  std::sort(dirty.begin(), dirty.end());
  if (dirty.empty() && page_count_ == committed_page_count_) {
    return dirty;  // nothing to do
  }
  std::FILE* wal = std::fopen(WalPath().c_str(), "wb");
  if (wal == nullptr) return IoError("cannot create WAL");
  bool ok = WriteRawChecked(wal, &kWalMagic, sizeof(kWalMagic));
  for (PageId id : dirty) {
    const Frame& frame = pool_.at(id);
    uint64_t checksum = Fnv1a(frame.data.data(), kPageSize, id);
    ok = ok && WriteRawChecked(wal, &id, sizeof(id)) &&
         WriteRawChecked(wal, &checksum, sizeof(checksum)) &&
         WriteRawChecked(wal, frame.data.data(), kPageSize);
  }
  uint32_t num_records = static_cast<uint32_t>(dirty.size());
  uint64_t seal_checksum =
      Fnv1a(reinterpret_cast<const uint8_t*>(&num_records),
            sizeof(num_records), page_count_);
  ok = ok && WriteRawChecked(wal, &kSealMagic, sizeof(kSealMagic)) &&
       WriteRawChecked(wal, &num_records, sizeof(num_records)) &&
       WriteRawChecked(wal, &page_count_, sizeof(page_count_)) &&
       WriteRawChecked(wal, &seal_checksum, sizeof(seal_checksum));
  Status sync = SyncCounted(wal);
  std::fclose(wal);
  if (!ok || !sync.ok()) return IoError("WAL write failed");
  int64_t bytes =
      static_cast<int64_t>(sizeof(kWalMagic)) +
      static_cast<int64_t>(dirty.size()) *
          (sizeof(PageId) + sizeof(uint64_t) + kPageSize) +
      sizeof(kSealMagic) + sizeof(num_records) + sizeof(page_count_) +
      sizeof(seal_checksum);
  wal_bytes_ += bytes;
  m_wal_bytes_->Add(bytes);
  return dirty;
}

Status Pager::ApplyDirtyInPlace(const std::vector<PageId>& dirty,
                                int limit) {
  int written = 0;
  for (PageId id : dirty) {
    if (limit >= 0 && written >= limit) break;
    PQIDX_RETURN_IF_ERROR(WriteFrameToFile(id, pool_.at(id)));
    ++written;
  }
  return Status::Ok();
}

Status Pager::Commit() {
  PQIDX_RETURN_IF_ERROR(PrepareCommit());
  return FinishPreparedCommit();
}

Status Pager::PrepareCommit() {
  if (poisoned_) return PoisonedError();
  if (deferred_pending_) return DeferredPendingError();
  PQIDX_CHECK(file_ != nullptr);
  PQIDX_CHECK(!prepared_);
  prepared_start_us_ = Metrics::enabled() ? Metrics::NowUs() : 0;
  StatusOr<std::vector<PageId>> dirty = WriteWal();
  if (!dirty.ok()) {
    // The WAL never sealed: nothing durable happened, but the sidecar
    // file is in an unknown state. Poison; reopen discards the torn WAL.
    poisoned_ = true;
    return dirty.status();
  }
  prepared_ = true;
  prepared_dirty_ = std::move(*dirty);
  return Status::Ok();
}

Status Pager::FinishPreparedCommit() {
  if (poisoned_) return PoisonedError();
  PQIDX_CHECK(file_ != nullptr);
  PQIDX_CHECK(prepared_);
  prepared_ = false;
  std::vector<PageId> dirty = std::move(prepared_dirty_);
  prepared_dirty_.clear();
  if (dirty.empty() && page_count_ == committed_page_count_) {
    return Status::Ok();  // nothing was written: WriteWal no-op'ed
  }
  Status applied = ApplyDirtyInPlace(dirty, /*limit=*/-1);
  Status synced = applied.ok() ? SyncCounted(file_) : applied;
  if (!synced.ok()) {
    // The WAL is sealed, the main file may be torn: durable but not
    // usable in-process. Poison; reopen replays the WAL.
    poisoned_ = true;
    return synced;
  }
  std::remove(WalPath().c_str());
  for (PageId id : dirty) {
    MarkClean(id, &pool_.at(id));
  }
  committed_page_count_ = page_count_;
  ++commits_;
  m_commits_->Increment();
  if (Metrics::enabled()) {
    m_commit_us_->Record(Metrics::NowUs() - prepared_start_us_);
  }
  return Status::Ok();
}

Status Pager::AbortPreparedCommit() {
  if (poisoned_) return PoisonedError();
  PQIDX_CHECK(file_ != nullptr);
  PQIDX_CHECK(prepared_);
  prepared_ = false;
  prepared_dirty_.clear();
  // Drop the sealed WAL first so a crash mid-abort cannot resurrect the
  // transaction, then roll the in-memory state back to the last commit.
  std::remove(WalPath().c_str());
  return Rollback();
}

Status Pager::Rollback() {
  // A poisoned (or crash-simulated) handle has nothing left to roll
  // back; refuse instead of touching the dead file.
  if (poisoned_) return PoisonedError();
  PQIDX_CHECK(file_ != nullptr);
  pool_.clear();
  lru_.clear();
  page_count_ = committed_page_count_;
  return Status::Ok();
}

Status Pager::CommitWithCrash(CrashPoint point) {
  PQIDX_CHECK(file_ != nullptr);
  StatusOr<std::vector<PageId>> dirty = WriteWal();
  PQIDX_RETURN_IF_ERROR(dirty.status());
  if (point == CrashPoint::kDuringInPlace) {
    PQIDX_RETURN_IF_ERROR(ApplyDirtyInPlace(*dirty, /*limit=*/1));
    // Deliberately dropped: we are simulating a crash mid-commit, so a
    // sync failure here is indistinguishable from the crash itself.
    (void)SyncFile(file_);
  }
  // Simulate process death: drop all volatile state without cleanup.
  // Poison the handle so later users (a server committing further
  // batches through this store) get clean errors instead of touching
  // the dead file; only reopening recovers.
  CrashAbandon();
  return Status::Ok();
}

void Pager::CrashAbandon() {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
  pool_.clear();
  lru_.clear();
  prepared_ = false;
  prepared_dirty_.clear();
  poisoned_ = true;
}

bool Pager::ParseWal(std::vector<WalImage>* records, bool* sealed,
                     uint32_t* sealed_page_count) {
  records->clear();
  *sealed = false;
  *sealed_page_count = 0;
  std::FILE* wal = std::fopen(WalPath().c_str(), "rb");
  if (wal == nullptr) return false;  // no WAL: clean shutdown

  uint32_t magic = 0;
  if (ReadRaw(wal, &magic, sizeof(magic)) && magic == kWalMagic) {
    for (;;) {
      uint32_t id_or_seal;
      if (!ReadRaw(wal, &id_or_seal, sizeof(id_or_seal))) break;
      if (id_or_seal == kSealMagic) {
        uint32_t num_records, new_page_count;
        uint64_t seal_checksum;
        if (!ReadRaw(wal, &num_records, sizeof(num_records)) ||
            !ReadRaw(wal, &new_page_count, sizeof(new_page_count)) ||
            !ReadRaw(wal, &seal_checksum, sizeof(seal_checksum))) {
          break;
        }
        if (num_records == records->size() &&
            seal_checksum ==
                Fnv1a(reinterpret_cast<const uint8_t*>(&num_records),
                      sizeof(num_records), new_page_count)) {
          *sealed = true;
          *sealed_page_count = new_page_count;
        }
        break;
      }
      WalImage record;
      record.id = id_or_seal;
      record.data.resize(kPageSize);
      uint64_t checksum;
      if (!ReadRaw(wal, &checksum, sizeof(checksum)) ||
          !ReadRaw(wal, record.data.data(), kPageSize) ||
          checksum != Fnv1a(record.data.data(), kPageSize, record.id)) {
        break;  // torn tail
      }
      records->push_back(std::move(record));
    }
  }
  std::fclose(wal);
  return true;
}

Status Pager::ApplySealedWal(const std::vector<WalImage>& records,
                             uint32_t sealed_page_count, int64_t start_us) {
  // The transaction was durable: finish applying it. A record id at or
  // beyond the sealed page count can only come from corruption the
  // per-record checksums missed; refuse to seek the main file to an
  // arbitrary offset on its say-so.
  for (const WalImage& record : records) {
    if (record.id >= sealed_page_count) {
      return DataLossError("WAL record beyond sealed page count");
    }
    if (std::fseek(file_, static_cast<long>(record.id) * kPageSize,
                   SEEK_SET) != 0 ||
        !WriteRaw(file_, record.data.data(), kPageSize)) {
      return IoError("WAL replay write failed");
    }
  }
  // Pages allocated but never dirtied materialize as zero pages.
  if (sealed_page_count > 0) {
    long want = static_cast<long>(sealed_page_count) * kPageSize;
    if (std::fseek(file_, 0, SEEK_END) != 0) return IoError("seek failed");
    long have = std::ftell(file_);
    if (have < want) {
      std::vector<uint8_t> zeros(kPageSize, 0);
      while (have < want) {
        if (!WriteRaw(file_, zeros.data(), kPageSize)) {
          return IoError("WAL replay extend failed");
        }
        have += kPageSize;
      }
    }
  }
  PQIDX_RETURN_IF_ERROR(SyncCounted(file_));
  ++wal_replays_;
  m_wal_replays_->Increment();
  if (Metrics::enabled()) {
    m_replay_us_->Record(Metrics::NowUs() - start_us);
  }
  std::remove(WalPath().c_str());
  return Status::Ok();
}

Status Pager::ReplayOrDiscardWal() {
  const int64_t start_us = Metrics::enabled() ? Metrics::NowUs() : 0;
  std::vector<WalImage> records;
  bool sealed = false;
  uint32_t sealed_page_count = 0;
  if (!ParseWal(&records, &sealed, &sealed_page_count)) {
    return Status::Ok();
  }
  if (sealed) {
    return ApplySealedWal(records, sealed_page_count, start_us);
  }
  ++wal_discards_;
  m_wal_discards_->Increment();
  std::remove(WalPath().c_str());
  return Status::Ok();
}

Status Pager::ReadDeferredWalPage(PageId id, uint8_t* out) const {
  if (!deferred_pending_) {
    return FailedPreconditionError("no deferred WAL is parked");
  }
  // The dirty set is unique per commit, but scan backwards anyway so a
  // hypothetical duplicate resolves to the last (winning) image.
  for (auto it = deferred_records_.rbegin(); it != deferred_records_.rend();
       ++it) {
    if (it->id == id) {
      std::memcpy(out, it->data.data(), kPageSize);
      return Status::Ok();
    }
  }
  return NotFoundError("deferred WAL does not touch page " +
                       std::to_string(id));
}

Status Pager::ResolveDeferredWal(bool replay) {
  if (!deferred_pending_) {
    return FailedPreconditionError("no deferred WAL is parked");
  }
  const int64_t start_us = Metrics::enabled() ? Metrics::NowUs() : 0;
  deferred_pending_ = false;
  std::vector<WalImage> records = std::move(deferred_records_);
  deferred_records_.clear();
  const uint32_t sealed_page_count = deferred_page_count_;
  deferred_page_count_ = 0;
  if (replay) {
    PQIDX_RETURN_IF_ERROR(ApplySealedWal(records, sealed_page_count,
                                         start_us));
  } else {
    ++wal_discards_;
    m_wal_discards_->Increment();
    std::remove(WalPath().c_str());
  }
  PQIDX_RETURN_IF_ERROR(RefreshPageCountFromFile());
  committed_page_count_ = page_count_;
  return Status::Ok();
}

}  // namespace pqidx
