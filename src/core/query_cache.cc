#include "core/query_cache.h"

#include <algorithm>
#include <iterator>

#include "common/metrics.h"

namespace pqidx {
namespace {

// Registry cells mirroring the local atomics; registered once.
struct CacheMetrics {
  Counter* hits = Metrics::Default().counter("query_cache.hits");
  Counter* misses = Metrics::Default().counter("query_cache.misses");
  Counter* evictions = Metrics::Default().counter("query_cache.evictions");
  Counter* stale = Metrics::Default().counter("query_cache.stale");
  Gauge* entries = Metrics::Default().gauge("query_cache.entries");
  Gauge* bytes = Metrics::Default().gauge("query_cache.bytes");
};

CacheMetrics& cache_metrics() {
  static CacheMetrics m;
  return m;
}

// Fixed per-entry bookkeeping estimate: list node + map slot + key.
constexpr size_t kEntryOverhead = 128;

}  // namespace

QueryCache::QueryCache(const Options& options)
    : max_bytes_(std::max<size_t>(options.max_bytes, kEntryOverhead)),
      shard_budget_(std::max<size_t>(max_bytes_ / kNumShards,
                                     kEntryOverhead)),
      shards_(kNumShards) {
  cache_metrics();  // registers the cells before the first lookup
}

size_t QueryCache::EntryBytes(const std::vector<LookupResult>& results) {
  return kEntryOverhead + results.size() * sizeof(LookupResult);
}

QueryCache::Shard& QueryCache::ShardFor(const Key& key) {
  return shards_[KeyHash{}(key) % kNumShards];
}

bool QueryCache::Get(const QueryFingerprint& fp, uint64_t uid,
                     std::vector<LookupResult>* out) {
  const Key key{fp.lo, fp.hi, uid};
  Shard& shard = ShardFor(key);
  {
    MutexLock lock(&shard.mutex);
    auto it = shard.map.find(key);
    if (it != shard.map.end()) {
      // Refresh recency, then copy the payload out under the lock.
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      *out = it->second->results;
      hits_.fetch_add(1, std::memory_order_relaxed);
      cache_metrics().hits->Increment();
      return true;
    }
  }
  misses_.fetch_add(1, std::memory_order_relaxed);
  cache_metrics().misses->Increment();
  return false;
}

void QueryCache::Put(const QueryFingerprint& fp, uint64_t uid,
                     const std::vector<LookupResult>& results) {
  const Key key{fp.lo, fp.hi, uid};
  const size_t entry_bytes = EntryBytes(results);
  if (entry_bytes > shard_budget_) return;  // would evict everything
  Shard& shard = ShardFor(key);
  int64_t evicted = 0;
  int64_t delta_entries = 0;
  int64_t delta_bytes = 0;
  {
    MutexLock lock(&shard.mutex);
    if (shard.map.find(key) != shard.map.end()) return;
    while (shard.bytes + entry_bytes > shard_budget_ &&
           !shard.lru.empty()) {
      delta_bytes -= static_cast<int64_t>(
          EraseEntry(&shard, std::prev(shard.lru.end())));
      ++evicted;
      --delta_entries;
    }
    std::list<Key>& chain = shard.by_uid[uid];
    chain.push_front(key);
    shard.lru.push_front(Entry{key, results, entry_bytes, chain.begin()});
    shard.map.emplace(key, shard.lru.begin());
    shard.bytes += entry_bytes;
    delta_bytes += static_cast<int64_t>(entry_bytes);
    ++delta_entries;
  }
  entries_.fetch_add(delta_entries, std::memory_order_relaxed);
  bytes_.fetch_add(delta_bytes, std::memory_order_relaxed);
  cache_metrics().entries->Add(delta_entries);
  cache_metrics().bytes->Add(delta_bytes);
  if (evicted > 0) {
    evictions_.fetch_add(evicted, std::memory_order_relaxed);
    cache_metrics().evictions->Add(evicted);
  }
}

size_t QueryCache::EraseEntry(Shard* shard,
                              std::list<Entry>::iterator it) {
  const size_t bytes = it->bytes;
  auto chain = shard->by_uid.find(it->key.uid);
  chain->second.erase(it->chain_pos);
  if (chain->second.empty()) shard->by_uid.erase(chain);
  shard->map.erase(it->key);
  shard->lru.erase(it);
  shard->bytes -= bytes;
  return bytes;
}

void QueryCache::OnPublish(const std::vector<uint64_t>& live_uids) {
  std::vector<uint64_t> live = live_uids;
  std::sort(live.begin(), live.end());
  int64_t dropped = 0;
  int64_t delta_bytes = 0;
  std::vector<uint64_t> dead;
  for (Shard& shard : shards_) {
    MutexLock lock(&shard.mutex);
    // The chains present are the live uids cached here plus the dead
    // ones, each of which still owns at least one entry.
    dead.clear();
    for (const auto& [uid, chain] : shard.by_uid) {
      if (!std::binary_search(live.begin(), live.end(), uid)) {
        dead.push_back(uid);
      }
    }
    for (uint64_t uid : dead) {
      auto chain = shard.by_uid.find(uid);
      for (const Key& key : chain->second) {
        auto it = shard.map.find(key);
        delta_bytes -= static_cast<int64_t>(it->second->bytes);
        shard.bytes -= it->second->bytes;
        shard.lru.erase(it->second);
        shard.map.erase(it);
        ++dropped;
      }
      shard.by_uid.erase(chain);
    }
  }
  if (dropped > 0) {
    stale_.fetch_add(dropped, std::memory_order_relaxed);
    entries_.fetch_add(-dropped, std::memory_order_relaxed);
    bytes_.fetch_add(delta_bytes, std::memory_order_relaxed);
    cache_metrics().stale->Add(dropped);
    cache_metrics().entries->Add(-dropped);
    cache_metrics().bytes->Add(delta_bytes);
  }
}

void QueryCache::Clear() { OnPublish({}); }

}  // namespace pqidx
