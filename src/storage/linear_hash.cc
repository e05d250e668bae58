#include "storage/linear_hash.h"

#include <algorithm>
#include <cstring>
#include <vector>

namespace pqidx {
namespace {

// --- raw page field access ---------------------------------------------------

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

// Meta page layout.
constexpr uint32_t kMetaMagic = 0x50514c48;  // "PQLH"
constexpr int kMetaMagicOff = 0;
constexpr int kMetaLevelOff = 4;
constexpr int kMetaNextSplitOff = 8;
constexpr int kMetaBucketCountOff = 12;
constexpr int kMetaEntryCountOff = 16;
constexpr int kMetaFreeHeadOff = 24;
constexpr int kMetaDirOff = 28;  // array of directory page ids
constexpr int kMaxDirPages = (kPageSize - kMetaDirOff) / 4;  // 1017

// Directory page: plain array of bucket-head page ids.
constexpr int kBucketsPerDirPage = kPageSize / 4;  // 1024

// Bucket page layout.
constexpr int kBucketNextOff = 0;   // u32 overflow page id (0 = none)
constexpr int kBucketCountOff = 4;  // u16 entries in this page
constexpr int kBucketEntriesOff = 8;
constexpr int kEntrySize = 20;  // u32 tree + u64 fp + i64 count
constexpr int kEntriesPerPage = (kPageSize - kBucketEntriesOff) / kEntrySize;

// Grow when the average chain would exceed ~70% of one page.
constexpr double kMaxLoadFactor = 0.7;

uint64_t KeyHash(uint32_t tree, uint64_t fp) {
  uint64_t x = fp ^ (static_cast<uint64_t>(tree) * 0x9e3779b97f4a7c15ULL);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

struct Entry {
  uint32_t tree;
  uint64_t fp;
  int64_t count;
};

Entry LoadEntry(const uint8_t* page, int slot) {
  int off = kBucketEntriesOff + slot * kEntrySize;
  return {Load<uint32_t>(page, off), Load<uint64_t>(page, off + 4),
          Load<int64_t>(page, off + 12)};
}

// Validates the entry count of a bucket page image read from disk. A
// corrupt count would otherwise index entries past the 4 KiB page.
Status CheckedBucketCount(const uint8_t* page, int* count) {
  int n = Load<uint16_t>(page, kBucketCountOff);
  if (n > kEntriesPerPage) {
    return DataLossError("bucket page entry count exceeds page capacity");
  }
  *count = n;
  return Status::Ok();
}

// Guards chain walks against cyclic next-pointers in corrupt files: a
// chain can never have more pages than the file itself.
Status CheckChainStep(const Pager& pager, uint64_t* steps) {
  if (++*steps > pager.page_count()) {
    return DataLossError("bucket overflow chain cycle");
  }
  return Status::Ok();
}

void StoreEntry(uint8_t* page, int slot, const Entry& entry) {
  int off = kBucketEntriesOff + slot * kEntrySize;
  Store(page, off, entry.tree);
  Store(page, off + 4, entry.fp);
  Store(page, off + 12, entry.count);
}

}  // namespace

uint32_t LinearHashTable::BucketForKey(uint32_t tree, uint64_t fp) const {
  return BucketFor(KeyHash(tree, fp));
}

Status LinearHashTable::Create(PageId meta_page) {
  meta_page_ = meta_page;
  level_ = 0;
  next_split_ = 0;
  bucket_count_ = kInitialBuckets;
  entry_count_ = 0;
  free_head_ = 0;
  {
    StatusOr<uint8_t*> meta = pager_->MutablePage(meta_page_);
    PQIDX_RETURN_IF_ERROR(meta.status());
    std::memset(*meta, 0, kPageSize);
    Store(*meta, kMetaMagicOff, kMetaMagic);
  }
  PQIDX_RETURN_IF_ERROR(StoreMeta());
  for (uint32_t b = 0; b < bucket_count_; ++b) {
    PQIDX_RETURN_IF_ERROR(EnsureDirectoryFor(b));
    StatusOr<PageId> page = AllocateBucketPage();
    PQIDX_RETURN_IF_ERROR(page.status());
    PQIDX_RETURN_IF_ERROR(SetBucketHead(b, *page));
  }
  return Status::Ok();
}

Status LinearHashTable::Attach(PageId meta_page) {
  meta_page_ = meta_page;
  return LoadMeta();
}

Status LinearHashTable::LoadMeta() {
  StatusOr<const uint8_t*> meta = pager_->ReadPage(meta_page_);
  PQIDX_RETURN_IF_ERROR(meta.status());
  if (Load<uint32_t>(*meta, kMetaMagicOff) != kMetaMagic) {
    return DataLossError("not a linear hash meta page");
  }
  level_ = Load<uint32_t>(*meta, kMetaLevelOff);
  next_split_ = Load<uint32_t>(*meta, kMetaNextSplitOff);
  bucket_count_ = Load<uint32_t>(*meta, kMetaBucketCountOff);
  entry_count_ = Load<uint64_t>(*meta, kMetaEntryCountOff);
  free_head_ = Load<uint32_t>(*meta, kMetaFreeHeadOff);
  // A reload ends any deferral window: the disk image just loaded is
  // the truth (rollback recovery re-Attaches mid-deferral).
  defer_meta_ = false;
  meta_dirty_ = false;
  // Reject meta images that violate the linear-hash state equations
  // before any field is used: an oversized level would shift out of
  // range in BucketFor, and an inconsistent bucket count would walk
  // directory slots that never existed.
  uint64_t round_size = uint64_t{kInitialBuckets} << std::min(level_, 32u);
  if (level_ > 27 ||
      next_split_ >= round_size ||
      bucket_count_ != round_size + next_split_ ||
      bucket_count_ >
          static_cast<uint64_t>(kMaxDirPages) * kBucketsPerDirPage ||
      free_head_ >= pager_->page_count()) {
    return DataLossError("corrupt linear hash meta page");
  }
  return Status::Ok();
}

Status LinearHashTable::StoreMeta() {
  StatusOr<uint8_t*> meta = pager_->MutablePage(meta_page_);
  PQIDX_RETURN_IF_ERROR(meta.status());
  Store(*meta, kMetaLevelOff, level_);
  Store(*meta, kMetaNextSplitOff, next_split_);
  Store(*meta, kMetaBucketCountOff, bucket_count_);
  Store(*meta, kMetaEntryCountOff, entry_count_);
  Store(*meta, kMetaFreeHeadOff, free_head_);
  meta_dirty_ = false;
  return Status::Ok();
}

Status LinearHashTable::CommitMeta() {
  if (defer_meta_) {
    meta_dirty_ = true;
    return Status::Ok();
  }
  return StoreMeta();
}

Status LinearHashTable::FlushDeferredMeta() {
  defer_meta_ = false;
  if (!meta_dirty_) return Status::Ok();
  return StoreMeta();
}

uint32_t LinearHashTable::BucketFor(uint64_t hash) const {
  uint64_t round_size = static_cast<uint64_t>(kInitialBuckets) << level_;
  uint32_t bucket = static_cast<uint32_t>(hash % round_size);
  if (bucket < next_split_) {
    bucket = static_cast<uint32_t>(hash % (round_size * 2));
  }
  return bucket;
}

Status LinearHashTable::EnsureDirectoryFor(uint32_t bucket) {
  int dir_index = static_cast<int>(bucket / kBucketsPerDirPage);
  if (dir_index >= kMaxDirPages) {
    return OutOfRangeError("linear hash directory exhausted");
  }
  StatusOr<const uint8_t*> meta = pager_->ReadPage(meta_page_);
  PQIDX_RETURN_IF_ERROR(meta.status());
  if (Load<uint32_t>(*meta, kMetaDirOff + dir_index * 4) != 0) {
    return Status::Ok();
  }
  StatusOr<PageId> page = pager_->AllocatePage();
  PQIDX_RETURN_IF_ERROR(page.status());
  StatusOr<uint8_t*> mutable_meta = pager_->MutablePage(meta_page_);
  PQIDX_RETURN_IF_ERROR(mutable_meta.status());
  Store(*mutable_meta, kMetaDirOff + dir_index * 4,
        static_cast<uint32_t>(*page));
  return Status::Ok();
}

StatusOr<PageId> LinearHashTable::BucketHead(uint32_t bucket) {
  int dir_index = static_cast<int>(bucket / kBucketsPerDirPage);
  int dir_slot = static_cast<int>(bucket % kBucketsPerDirPage);
  StatusOr<const uint8_t*> meta = pager_->ReadPage(meta_page_);
  PQIDX_RETURN_IF_ERROR(meta.status());
  uint32_t dir_page = Load<uint32_t>(*meta, kMetaDirOff + dir_index * 4);
  if (dir_page == 0) return DataLossError("missing directory page");
  StatusOr<const uint8_t*> dir = pager_->ReadPage(dir_page);
  PQIDX_RETURN_IF_ERROR(dir.status());
  return static_cast<PageId>(Load<uint32_t>(*dir, dir_slot * 4));
}

Status LinearHashTable::SetBucketHead(uint32_t bucket, PageId page) {
  int dir_index = static_cast<int>(bucket / kBucketsPerDirPage);
  int dir_slot = static_cast<int>(bucket % kBucketsPerDirPage);
  StatusOr<const uint8_t*> meta = pager_->ReadPage(meta_page_);
  PQIDX_RETURN_IF_ERROR(meta.status());
  uint32_t dir_page = Load<uint32_t>(*meta, kMetaDirOff + dir_index * 4);
  if (dir_page == 0) return DataLossError("missing directory page");
  StatusOr<uint8_t*> dir = pager_->MutablePage(dir_page);
  PQIDX_RETURN_IF_ERROR(dir.status());
  Store(*dir, dir_slot * 4, static_cast<uint32_t>(page));
  return Status::Ok();
}

StatusOr<PageId> LinearHashTable::AllocateBucketPage() {
  PageId page;
  if (free_head_ != 0) {
    page = free_head_;
    StatusOr<const uint8_t*> data = pager_->ReadPage(page);
    PQIDX_RETURN_IF_ERROR(data.status());
    free_head_ = Load<uint32_t>(*data, kBucketNextOff);
  } else {
    StatusOr<PageId> fresh = pager_->AllocatePage();
    PQIDX_RETURN_IF_ERROR(fresh.status());
    page = *fresh;
  }
  StatusOr<uint8_t*> data = pager_->MutablePage(page);
  PQIDX_RETURN_IF_ERROR(data.status());
  std::memset(*data, 0, kPageSize);
  return page;
}

Status LinearHashTable::FreeBucketPage(PageId id) {
  StatusOr<uint8_t*> data = pager_->MutablePage(id);
  PQIDX_RETURN_IF_ERROR(data.status());
  std::memset(*data, 0, kPageSize);
  Store(*data, kBucketNextOff, static_cast<uint32_t>(free_head_));
  free_head_ = id;
  return Status::Ok();
}

StatusOr<int64_t> LinearHashTable::Get(uint32_t tree, uint64_t fp) {
  StatusOr<PageId> head = BucketHead(BucketFor(KeyHash(tree, fp)));
  PQIDX_RETURN_IF_ERROR(head.status());
  uint64_t steps = 0;
  for (PageId page = *head; page != 0;) {
    PQIDX_RETURN_IF_ERROR(CheckChainStep(*pager_, &steps));
    StatusOr<const uint8_t*> data = pager_->ReadPage(page);
    PQIDX_RETURN_IF_ERROR(data.status());
    int count;
    PQIDX_RETURN_IF_ERROR(CheckedBucketCount(*data, &count));
    for (int slot = 0; slot < count; ++slot) {
      Entry entry = LoadEntry(*data, slot);
      if (entry.tree == tree && entry.fp == fp) return entry.count;
    }
    page = Load<uint32_t>(*data, kBucketNextOff);
  }
  return int64_t{0};
}

Status LinearHashTable::AddDelta(uint32_t tree, uint64_t fp,
                                 int64_t delta) {
  if (delta == 0) return Status::Ok();
  uint32_t bucket = BucketFor(KeyHash(tree, fp));
  StatusOr<PageId> head = BucketHead(bucket);
  PQIDX_RETURN_IF_ERROR(head.status());

  // One walk resolves everything a mutation can need: the key's page
  // and slot (update / removal), the chain tail and its predecessor
  // (removal unlinking), and the first page with free space (insertion
  // lands there without a second walk).
  PageId found_page = 0;
  int found_slot = -1;
  PageId last_page = 0, prev_of_last = 0;
  PageId space_page = 0;
  int space_slot = 0;
  uint64_t steps = 0;
  for (PageId page = *head, prev = 0; page != 0;) {
    PQIDX_RETURN_IF_ERROR(CheckChainStep(*pager_, &steps));
    StatusOr<const uint8_t*> data = pager_->ReadPage(page);
    PQIDX_RETURN_IF_ERROR(data.status());
    int count;
    PQIDX_RETURN_IF_ERROR(CheckedBucketCount(*data, &count));
    if (found_page == 0) {
      for (int slot = 0; slot < count; ++slot) {
        Entry entry = LoadEntry(*data, slot);
        if (entry.tree == tree && entry.fp == fp) {
          found_page = page;
          found_slot = slot;
          break;
        }
      }
    }
    if (space_page == 0 && count < kEntriesPerPage) {
      space_page = page;
      space_slot = count;
    }
    PageId next = Load<uint32_t>(*data, kBucketNextOff);
    if (next == 0) {
      last_page = page;
      prev_of_last = prev;
    }
    prev = page;
    page = next;
  }

  if (found_page != 0) {
    StatusOr<uint8_t*> data = pager_->MutablePage(found_page);
    PQIDX_RETURN_IF_ERROR(data.status());
    Entry entry = LoadEntry(*data, found_slot);
    entry.count += delta;
    if (entry.count < 0) {
      return FailedPreconditionError(
          "pq-gram count would become negative");
    }
    if (entry.count > 0) {
      StoreEntry(*data, found_slot, entry);
      return Status::Ok();
    }
    // Remove: move the chain's very last entry into the hole.
    StatusOr<uint8_t*> last = pager_->MutablePage(last_page);
    PQIDX_RETURN_IF_ERROR(last.status());
    int last_count;
    PQIDX_RETURN_IF_ERROR(CheckedBucketCount(*last, &last_count));
    if (last_count == 0) {
      // The key was found, so the chain holds at least one entry; an
      // empty tail page means a corrupt chain (tails are unlinked when
      // they empty), not a logic error.
      return DataLossError("empty tail page in a non-empty bucket chain");
    }
    Entry filler = LoadEntry(*last, last_count - 1);
    Store(*last, kBucketCountOff, static_cast<uint16_t>(last_count - 1));
    if (!(last_page == found_page && found_slot == last_count - 1)) {
      // Re-fetch: `data` may alias `last` when they are the same page.
      StatusOr<uint8_t*> hole = pager_->MutablePage(found_page);
      PQIDX_RETURN_IF_ERROR(hole.status());
      StoreEntry(*hole, found_slot, filler);
    }
    // Unlink a now-empty overflow tail (never the bucket head).
    if (last_count - 1 == 0 && prev_of_last != 0) {
      StatusOr<uint8_t*> prev = pager_->MutablePage(prev_of_last);
      PQIDX_RETURN_IF_ERROR(prev.status());
      Store(*prev, kBucketNextOff, uint32_t{0});
      PQIDX_RETURN_IF_ERROR(FreeBucketPage(last_page));
    }
    --entry_count_;
    return CommitMeta();
  }

  // Insert at the position the walk already found: the first page with
  // space, else a new overflow page linked off the chain tail.
  if (delta < 0) {
    return FailedPreconditionError(
        "decrement of an absent pq-gram tuple");
  }
  if (last_page == 0) {
    return DataLossError("bucket chain without a head page");
  }
  if (space_page != 0) {
    StatusOr<uint8_t*> data = pager_->MutablePage(space_page);
    PQIDX_RETURN_IF_ERROR(data.status());
    StoreEntry(*data, space_slot, {tree, fp, delta});
    Store(*data, kBucketCountOff, static_cast<uint16_t>(space_slot + 1));
  } else {
    StatusOr<PageId> fresh = AllocateBucketPage();
    PQIDX_RETURN_IF_ERROR(fresh.status());
    {
      StatusOr<uint8_t*> data = pager_->MutablePage(*fresh);
      PQIDX_RETURN_IF_ERROR(data.status());
      StoreEntry(*data, 0, {tree, fp, delta});
      Store(*data, kBucketCountOff, uint16_t{1});
    }
    StatusOr<uint8_t*> tail = pager_->MutablePage(last_page);
    PQIDX_RETURN_IF_ERROR(tail.status());
    Store(*tail, kBucketNextOff, static_cast<uint32_t>(*fresh));
  }
  ++entry_count_;
  PQIDX_RETURN_IF_ERROR(CommitMeta());
  if (ShouldSplit()) return SplitOne();
  return Status::Ok();
}

bool LinearHashTable::ShouldSplit() const {
  return static_cast<double>(entry_count_) >
         kMaxLoadFactor * static_cast<double>(bucket_count_) *
             kEntriesPerPage;
}

Status LinearHashTable::SplitOne() {
  const uint32_t source = next_split_;
  const uint32_t sibling =
      source + (static_cast<uint32_t>(kInitialBuckets) << level_);

  // Collect and detach the source chain.
  std::vector<Entry> entries;
  std::vector<PageId> chain;
  StatusOr<PageId> head = BucketHead(source);
  PQIDX_RETURN_IF_ERROR(head.status());
  uint64_t steps = 0;
  for (PageId page = *head; page != 0;) {
    PQIDX_RETURN_IF_ERROR(CheckChainStep(*pager_, &steps));
    StatusOr<const uint8_t*> data = pager_->ReadPage(page);
    PQIDX_RETURN_IF_ERROR(data.status());
    int count;
    PQIDX_RETURN_IF_ERROR(CheckedBucketCount(*data, &count));
    for (int slot = 0; slot < count; ++slot) {
      entries.push_back(LoadEntry(*data, slot));
    }
    chain.push_back(page);
    page = Load<uint32_t>(*data, kBucketNextOff);
  }

  // Advance the split state *before* redistributing so BucketFor sends
  // keys to the sibling.
  ++next_split_;
  ++bucket_count_;
  if (next_split_ == static_cast<uint32_t>(kInitialBuckets) << level_) {
    ++level_;
    next_split_ = 0;
  }
  PQIDX_RETURN_IF_ERROR(EnsureDirectoryFor(sibling));

  // Reuse the old head for the source; give the sibling a fresh page.
  // Surplus chain pages go to the free list.
  PQIDX_CHECK(!chain.empty());
  for (size_t i = 1; i < chain.size(); ++i) {
    PQIDX_RETURN_IF_ERROR(FreeBucketPage(chain[i]));
  }
  {
    StatusOr<uint8_t*> data = pager_->MutablePage(chain[0]);
    PQIDX_RETURN_IF_ERROR(data.status());
    std::memset(*data, 0, kPageSize);
  }
  StatusOr<PageId> sibling_page = AllocateBucketPage();
  PQIDX_RETURN_IF_ERROR(sibling_page.status());
  PQIDX_RETURN_IF_ERROR(SetBucketHead(source, chain[0]));
  PQIDX_RETURN_IF_ERROR(SetBucketHead(sibling, *sibling_page));

  // Redistribute without going through AddDelta (no re-splitting).
  auto append = [&](uint32_t bucket, const Entry& entry) -> Status {
    StatusOr<PageId> bucket_head = BucketHead(bucket);
    PQIDX_RETURN_IF_ERROR(bucket_head.status());
    PageId page = *bucket_head;
    uint64_t append_steps = 0;
    for (;;) {
      PQIDX_RETURN_IF_ERROR(CheckChainStep(*pager_, &append_steps));
      StatusOr<const uint8_t*> read = pager_->ReadPage(page);
      PQIDX_RETURN_IF_ERROR(read.status());
      int count;
      PQIDX_RETURN_IF_ERROR(CheckedBucketCount(*read, &count));
      PageId next = Load<uint32_t>(*read, kBucketNextOff);
      if (count < kEntriesPerPage) {
        StatusOr<uint8_t*> data = pager_->MutablePage(page);
        PQIDX_RETURN_IF_ERROR(data.status());
        StoreEntry(*data, count, entry);
        Store(*data, kBucketCountOff, static_cast<uint16_t>(count + 1));
        return Status::Ok();
      }
      if (next == 0) {
        StatusOr<PageId> fresh = AllocateBucketPage();
        PQIDX_RETURN_IF_ERROR(fresh.status());
        {
          StatusOr<uint8_t*> data = pager_->MutablePage(*fresh);
          PQIDX_RETURN_IF_ERROR(data.status());
          StoreEntry(*data, 0, entry);
          Store(*data, kBucketCountOff, uint16_t{1});
        }
        StatusOr<uint8_t*> tail = pager_->MutablePage(page);
        PQIDX_RETURN_IF_ERROR(tail.status());
        Store(*tail, kBucketNextOff, static_cast<uint32_t>(*fresh));
        return Status::Ok();
      }
      page = next;
    }
  };
  for (const Entry& entry : entries) {
    uint32_t bucket = BucketFor(KeyHash(entry.tree, entry.fp));
    PQIDX_CHECK_MSG(bucket == source || bucket == sibling,
                    "split redistribution out of range");
    PQIDX_RETURN_IF_ERROR(append(bucket, entry));
  }
  return CommitMeta();
}

Status LinearHashTable::ForEach(
    const std::function<void(uint32_t, uint64_t, int64_t)>& fn) {
  for (uint32_t bucket = 0; bucket < bucket_count_; ++bucket) {
    StatusOr<PageId> head = BucketHead(bucket);
    PQIDX_RETURN_IF_ERROR(head.status());
    uint64_t steps = 0;
    for (PageId page = *head; page != 0;) {
      PQIDX_RETURN_IF_ERROR(CheckChainStep(*pager_, &steps));
      StatusOr<const uint8_t*> data = pager_->ReadPage(page);
      PQIDX_RETURN_IF_ERROR(data.status());
      int count;
      PQIDX_RETURN_IF_ERROR(CheckedBucketCount(*data, &count));
      PageId next = Load<uint32_t>(*data, kBucketNextOff);
      // Copy out before invoking fn: the callback may touch the pager and
      // invalidate the borrowed page pointer.
      std::vector<Entry> entries;
      entries.reserve(count);
      for (int slot = 0; slot < count; ++slot) {
        entries.push_back(LoadEntry(*data, slot));
      }
      for (const Entry& entry : entries) {
        fn(entry.tree, entry.fp, entry.count);
      }
      page = next;
    }
  }
  return Status::Ok();
}

void LinearHashTable::CheckConsistency() {
  uint64_t counted = 0;
  for (uint32_t bucket = 0; bucket < bucket_count_; ++bucket) {
    StatusOr<PageId> head = BucketHead(bucket);
    PQIDX_CHECK(head.ok());
    PQIDX_CHECK(*head != 0);
    uint64_t steps = 0;
    for (PageId page = *head; page != 0;) {
      PQIDX_CHECK(++steps <= pager_->page_count());  // cycle guard
      StatusOr<const uint8_t*> data = pager_->ReadPage(page);
      PQIDX_CHECK(data.ok());
      int count = Load<uint16_t>(*data, kBucketCountOff);
      PQIDX_CHECK(count <= kEntriesPerPage);
      for (int slot = 0; slot < count; ++slot) {
        Entry entry = LoadEntry(*data, slot);
        PQIDX_CHECK(entry.count > 0);
        PQIDX_CHECK(BucketFor(KeyHash(entry.tree, entry.fp)) == bucket);
        ++counted;
      }
      page = Load<uint32_t>(*data, kBucketNextOff);
    }
  }
  PQIDX_CHECK(counted == entry_count_);
}

}  // namespace pqidx
