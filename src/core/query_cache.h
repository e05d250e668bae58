// Epoch-keyed query-result cache for the lookup read path.
//
// Caches per-(query, engine-shard) partial results so repeated queries
// skip scoring entirely. The granularity is deliberate: LookupEngine
// snapshots evolve by copy-on-write (`ApplyDelta` rebuilds only the
// shards a commit touched and shares every other shard with the
// previous epoch), and each frozen shard carries a process-unique id
// (`uid`) minted at freeze time. Cache keys embed that uid, so the
// epoch protocol falls out of the snapshot lifecycle with no
// invalidation hooks on the hot path:
//
//   * an incremental publish keeps every untouched shard's uid alive --
//     entries for those shards stay warm and keep hitting;
//   * a rebuilt shard gets a fresh uid -- entries for its
//     predecessor can never match again (uids are never reused, so
//     there is no ABA across epochs);
//   * a re-partition (or a fresh Build) mints all-new uids -- the
//     whole cache goes cold wholesale.
//
// Dead entries are reclaimed by OnPublish(live_uids): the publisher
// passes the new snapshot's uid set and the cache drops (and counts as
// stale) everything outside it. Each internal shard chains its entries
// per uid, so a publish costs O(live uids + entries of dead uids), not
// a walk over the whole cache. Reclamation is an optimization only;
// correctness needs nothing beyond the uid match.
//
// The cache is sharded by key hash: each internal shard is an
// independently locked LRU map with a byte budget, so concurrent
// readers rarely contend. Hit/miss/evict/stale counters are wait-free
// relaxed atomics mirrored into the process metrics registry
// ("query_cache.*"), which is how `pqidx stats` surfaces them.
//
// Results cached for a shard uid are immutable once inserted (the
// engine's partial results for a frozen shard are deterministic), so a
// hit copies the vector out and never returns references into the map.

#ifndef PQIDX_CORE_QUERY_CACHE_H_
#define PQIDX_CORE_QUERY_CACHE_H_

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <list>
#include <unordered_map>
#include <vector>

#include "common/sync.h"
#include "core/forest_index.h"

namespace pqidx {

// 128-bit fingerprint of one query + its parameters (tau or k, lookup
// vs top-k). Two lanes of independent mixing make an accidental
// collision astronomically unlikely; both lanes are compared on hit.
struct QueryFingerprint {
  uint64_t lo = 0;
  uint64_t hi = 0;
};

class QueryCache {
 public:
  struct Options {
    // Total byte budget across all internal shards (entries' result
    // payloads plus bookkeeping overhead).
    size_t max_bytes = size_t{32} << 20;
  };

  explicit QueryCache(const Options& options);
  QueryCache(const QueryCache&) = delete;
  QueryCache& operator=(const QueryCache&) = delete;

  // Copies the cached partial results for (query, engine shard `uid`)
  // into `out` and returns true; false on miss (`out` untouched).
  bool Get(const QueryFingerprint& fp, uint64_t uid,
           std::vector<LookupResult>* out);

  // Inserts the partial results for (query, engine shard `uid`),
  // evicting least-recently-used entries past the byte budget. An entry
  // already present is left as-is (both sides computed the same value).
  void Put(const QueryFingerprint& fp, uint64_t uid,
           const std::vector<LookupResult>& results);

  // Reclaims entries whose shard uid is not in `live_uids` (ascending
  // order not required), counting them as stale. Publishers call this
  // after swapping in a snapshot; an all-new uid set empties the cache
  // wholesale. Live entries keep their LRU positions.
  void OnPublish(const std::vector<uint64_t>& live_uids);

  // Drops everything (counted as stale).
  void Clear();

  size_t max_bytes() const { return max_bytes_; }

  // Wait-free counter reads (mirrored in the metrics registry as
  // query_cache.hits / misses / evictions / stale).
  int64_t hits() const { return hits_.load(std::memory_order_relaxed); }
  int64_t misses() const { return misses_.load(std::memory_order_relaxed); }
  int64_t evictions() const {
    return evictions_.load(std::memory_order_relaxed);
  }
  int64_t stale() const { return stale_.load(std::memory_order_relaxed); }
  int64_t entries() const {
    return entries_.load(std::memory_order_relaxed);
  }
  int64_t bytes() const { return bytes_.load(std::memory_order_relaxed); }

 private:
  struct Key {
    uint64_t lo;
    uint64_t hi;
    uint64_t uid;

    bool operator==(const Key& other) const {
      return lo == other.lo && hi == other.hi && uid == other.uid;
    }
  };
  struct KeyHash {
    size_t operator()(const Key& k) const {
      // The fingerprint lanes are already well mixed; fold in the uid.
      uint64_t h = k.lo ^ (k.hi * 0x9e3779b97f4a7c15ULL) ^
                   (k.uid * 0xbf58476d1ce4e5b9ULL);
      return static_cast<size_t>(h ^ (h >> 32));
    }
  };

  struct Entry {
    Key key;
    std::vector<LookupResult> results;
    size_t bytes = 0;
    // This entry's node in its uid's chain (Shard::by_uid).
    std::list<Key>::iterator chain_pos;
  };

  // One independently locked LRU map. list front = most recent.
  // by_uid chains the keys of each uid present, which is what lets
  // OnPublish visit only dead entries.
  struct Shard {
    Mutex mutex;
    std::list<Entry> lru PQIDX_GUARDED_BY(mutex);
    std::unordered_map<Key, std::list<Entry>::iterator, KeyHash> map
        PQIDX_GUARDED_BY(mutex);
    std::unordered_map<uint64_t, std::list<Key>> by_uid
        PQIDX_GUARDED_BY(mutex);
    size_t bytes PQIDX_GUARDED_BY(mutex) = 0;
  };

  static constexpr size_t kNumShards = 16;

  static size_t EntryBytes(const std::vector<LookupResult>& results);
  Shard& ShardFor(const Key& key);
  // Unlinks `it` from the LRU list, the key map and its uid chain;
  // returns its byte charge.
  static size_t EraseEntry(Shard* shard, std::list<Entry>::iterator it)
      PQIDX_REQUIRES(shard->mutex);

  const size_t max_bytes_;
  const size_t shard_budget_;
  std::vector<Shard> shards_;

  std::atomic<int64_t> hits_{0};
  std::atomic<int64_t> misses_{0};
  std::atomic<int64_t> evictions_{0};
  std::atomic<int64_t> stale_{0};
  std::atomic<int64_t> entries_{0};
  std::atomic<int64_t> bytes_{0};
};

}  // namespace pqidx

#endif  // PQIDX_CORE_QUERY_CACHE_H_
