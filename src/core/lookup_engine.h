// Read-optimized approximate-lookup engine: an immutable, compact
// snapshot of a forest's pq-gram postings.
//
// The maintainable structures (ForestIndex, InvertedForestIndex) are
// built for cheap incremental updates: node-based maps whose postings
// scatter across the heap. This engine compiles either of them into a
// read-only snapshot laid out for the lookup hot path:
//
//   * postings live in flat arena-backed arrays -- per shard one sorted
//     fingerprint array, a parallel offset array, and one contiguous
//     {slot, count} entry buffer -- so accumulating a query is sequential
//     pointer walks over dense memory, not hash-map hopping;
//   * trees are renumbered into dense slots, making the per-lookup
//     accumulator a flat array indexed by slot;
//   * each shard carries a radix directory over its fingerprints, so a
//     query tuple finds its posting list with one directory read and a
//     scan of about one cache line of fingerprints;
//   * query tuples are processed rarest-posting-first, and a tau-derived
//     count filter prunes candidates mid-accumulation: from
//     dist = 1 - 2*shared/(|Q|+s), a tree with bag size s qualifies only
//     with shared >= (1-tau)*(|Q|+s)/2, so once a candidate's overlap
//     plus the maximum gain still attainable from the remaining (rarer
//     processed first, so larger) lists falls below that bound, it is
//     dropped without finishing its accumulation;
//   * candidates come from a prefix of the ranked lists only (the count
//     filtering of MSQ-Index): once the remaining lists together cannot
//     reach the bound of the shard's smallest tree, no tree first seen
//     there can qualify, so the remaining lists only complete the
//     surviving candidates' overlaps -- by a scan when the list is short
//     relative to the survivor count, else by galloping each survivor's
//     slot into the slot-sorted list -- and stop once none survive;
//   * the trees are split into shards with independent posting arenas
//     and accumulators, so large lookups score shards in parallel via
//     ThreadPool::ParallelFor and merge at the end;
//   * TopK ranks every tree against an adaptive bound, the current k-th
//     best result. Only the sequential, uncached TopK carries that bound
//     across shards; with a pool or a cache (pqidxd always has the
//     cache) each shard fills its own heap in its emit pass, after
//     accumulation, so accumulation there never prunes.
//
// Results are bit-identical to ForestIndex::Lookup -- same distances
// (identical double arithmetic), same ordering, same tie-breaks -- for
// every tau including tau >= 1 (everything qualifies), tau < 0 or NaN
// (distances are never negative, so nothing qualifies), and empty bags
// (two empty bags are at distance 0). The count filter is exact: a
// candidate is only pruned when even its maximum attainable overlap
// fails the same floating-point test that gates the final result.
//
// A snapshot is immutable after Build, so concurrent lookups need no
// locking; writers publish a fresh snapshot (see service/server.h for
// the epoch-published shared_ptr protocol pqidxd uses).
//
// Snapshots are maintained the same way the paper maintains the index
// itself (Lemma 2: In = I0 \ lambda(Delta-) |+| lambda(Delta+)):
// ApplyDelta derives the next snapshot from the previous one and one
// update per changed tree -- either its whole next bag (add, re-add or
// removal) or the count delta (Delta+, Delta-) folded into its old
// postings. Every untouched shard is shared with the previous epoch
// through its shared_ptr; each shard owning a changed tree is rebuilt
// by one linear merge of its previous arena with the updates' postings,
// of which only the delta's are sorted. A commit of k edits therefore
// costs O(postings of the shards touched + |delta| log |delta|) and
// never reads the rest of the forest.
//
// The snapshot is also the server's only in-memory copy of the forest:
// Count and Contains answer the write path's sub-bag checks by point
// probes, and ForEachBag streams every tree's bag back out.
//
// The engine keeps the shard count it was built with. Routing new trees
// into existing tree-id ranges can unbalance the shards, so a publish
// that leaves one shard with more than twice its fair share of trees
// (ceil(n / shards)) re-partitions the snapshot from its own arenas.

#ifndef PQIDX_CORE_LOOKUP_ENGINE_H_
#define PQIDX_CORE_LOOKUP_ENGINE_H_

#include <cstdint>
#include <functional>
#include <memory>
#include <unordered_map>
#include <utility>
#include <vector>

#include "common/thread_pool.h"
#include "core/forest_index.h"
#include "core/inverted_index.h"
#include "core/pqgram_index.h"
#include "core/query_cache.h"

namespace pqidx {

// Work accounting for one lookup (or one TopK). All counters are sums
// over the shards the lookup touched.
struct LookupEngineStats {
  int64_t candidates = 0;        // trees reached by at least one posting
  int64_t pruned = 0;            // dropped mid-accumulation by the filter
  int64_t scored = 0;            // candidates that reached the final test
  int64_t postings_scanned = 0;  // posting entries read by list scans
  int64_t probes = 0;            // survivor slots galloped into a list

  LookupEngineStats& operator+=(const LookupEngineStats& other) {
    candidates += other.candidates;
    pruned += other.pruned;
    scored += other.scored;
    postings_scanned += other.postings_scanned;
    probes += other.probes;
    return *this;
  }
};

class LookupEngine {
 public:
  // Compiles a snapshot of `forest` split into `num_shards` shards
  // (clamped to [1, max(1, #trees)]). Shard count trades parallelism
  // against per-shard setup cost; results never depend on it.
  static std::shared_ptr<const LookupEngine> Build(const ForestIndex& forest,
                                                   int num_shards = 1);
  static std::shared_ptr<const LookupEngine> Build(
      const InvertedForestIndex& inverted, int num_shards = 1);

  // One changed tree for ApplyDelta. With `replace` the tree's old
  // entries drop and `plus` is its whole next bag (null removes it;
  // removing an absent id is a no-op). Without it the tree must be in
  // the snapshot and its counts become old + plus - minus, where minus
  // must be a sub-bag of old + plus; a count that reaches zero drops
  // its entry. The bags are only read during the call.
  struct TreeUpdate {
    TreeId id = 0;
    bool replace = false;
    const PqGramIndex* plus = nullptr;
    const PqGramIndex* minus = nullptr;
  };

  // Derives the next snapshot from `prev` (Lemma 2), one update per
  // tree (ids must be distinct). Only the shards owning a changed id
  // are merged into fresh arenas; every other shard is shared with
  // `prev`. An empty `updates` returns `prev` itself.
  static std::shared_ptr<const LookupEngine> ApplyDelta(
      const std::shared_ptr<const LookupEngine>& prev,
      const std::vector<TreeUpdate>& updates);

  // The same, replacing each tree in `changed` by its bag in `forest`
  // (an id absent from `forest` is a removal; repeated ids count once).
  // Only the changed ids are looked up. The caller must list every
  // differing id -- an unlisted change would be silently missed in a
  // shared shard.
  static std::shared_ptr<const LookupEngine> ApplyDelta(
      const std::shared_ptr<const LookupEngine>& prev,
      const ForestIndex& forest, const std::vector<TreeId>& changed);

  const PqShape& shape() const { return shape_; }
  int size() const { return num_trees_; }
  int num_shards() const { return static_cast<int>(shards_.size()); }
  int64_t posting_entries() const { return posting_entries_; }

  // Point probes: whether tree `id` is in the snapshot, and the
  // multiplicity of `fp` in its bag (0 when either is absent). One
  // routing search, one directory probe and one slot gallop each.
  bool Contains(TreeId id) const;
  int64_t Count(TreeId id, PqGramFingerprint fp) const;

  // Calls fn(id, bag) for every tree in ascending id order. The bags
  // are rebuilt from the arenas one shard at a time, so the walk holds
  // at most one shard's bags; each bag lives only during its call.
  void ForEachBag(
      const std::function<void(TreeId, const PqGramIndex&)>& fn) const;

  // Trees per shard, in shard order.
  std::vector<int> ShardSizes() const;

  // Heap bytes held by this snapshot's shards (arenas, slot tables and
  // wide-count maps). A shard shared with another epoch is counted in
  // both snapshots' totals.
  int64_t ResidentBytes() const;

  // Testing hook: true when shard `s` equals, field for field (uid
  // aside), the shard a from-scratch freeze compiles out of `forest`'s
  // bags for the same tree ids.
  bool ShardMatchesFreezeForTesting(int s, const ForestIndex& forest) const;

  // The process-unique ids of this snapshot's shards, in shard order.
  // A shard shared with a previous epoch (ApplyDelta copy-on-write)
  // keeps its uid; a merged or freshly built shard gets a new one.
  // QueryCache keys embed these, which is the whole epoch protocol.
  std::vector<uint64_t> ShardUids() const;

  // Approximate lookup: all trees T with dist(query, T) <= tau, most
  // similar first (ties by tree id) -- bit-identical to
  // ForestIndex::Lookup. With `pool`, shards are scored in parallel;
  // `stats`, when non-null, receives the work counters of this call.
  // With `cache`, per-shard partial results are served from / inserted
  // into it (cached shards contribute no work counters).
  std::vector<LookupResult> Lookup(const PqGramIndex& query, double tau,
                                   ThreadPool* pool = nullptr,
                                   LookupEngineStats* stats = nullptr,
                                   QueryCache* cache = nullptr) const;
  std::vector<LookupResult> Lookup(const Tree& query, double tau,
                                   ThreadPool* pool = nullptr,
                                   LookupEngineStats* stats = nullptr,
                                   QueryCache* cache = nullptr) const;

  // The k most similar trees, most similar first (ties by tree id);
  // identical to ForestIndex::TopK. Sequentially the pruning bound
  // tightens from the current k-th best across shards; with `pool` (or
  // `cache`, whose entries must not depend on cross-shard state),
  // shards compute independent top-k heaps that are merged at the end.
  // A shard's own heap fills only in its emit pass, so in that mode
  // accumulation prunes nothing and every posting of every query list
  // is read.
  std::vector<LookupResult> TopK(const PqGramIndex& query, int k,
                                 ThreadPool* pool = nullptr,
                                 LookupEngineStats* stats = nullptr,
                                 QueryCache* cache = nullptr) const;

 private:
  // One posting: tree (as a shard-local slot) and tuple multiplicity.
  // Slots and counts are narrowed to 32 bits for density; the rare
  // count that does not fit stores kWideCount and its exact value lives
  // in the shard's wide_counts side map, so Compile never rejects a
  // legitimate bag and results stay exact.
  struct Entry {
    int32_t slot;
    int32_t count;
  };

  // Sentinel Entry::count for a multiplicity above INT32_MAX (real
  // counts are always positive).
  static constexpr int32_t kWideCount = -1;

  // An independent slice of the forest: dense slots, own posting arena.
  struct Shard {
    // Process-unique id minted at freeze time, never reused. Shards
    // shared across epochs keep theirs; see ShardUids().
    uint64_t uid = 0;
    int64_t bytes = 0;                        // ResidentBytes share
    std::vector<TreeId> tree_ids;             // slot -> tree id (ascending)
    std::vector<int64_t> tree_sizes;          // slot -> |I(T)|
    std::vector<PqGramFingerprint> fps;       // sorted ascending
    std::vector<uint32_t> offsets;            // fps.size() + 1 prefix sums
    std::vector<Entry> entries;               // arena, grouped by fps order
    // Exact values of kWideCount entries, keyed by arena index.
    std::unordered_map<uint32_t, int64_t> wide_counts;
    // Radix directory over fps: 2^dir_bits buckets by a fingerprint's top
    // dir_bits bits (about 8 fingerprints each), dir[b] the first index
    // of fps in bucket >= b, dir[2^dir_bits] == fps.size().
    int dir_bits = 0;
    std::vector<uint32_t> dir;
    // The smallest |I(T)| in the shard (0 when it is empty): the floor
    // of every union size, hence of every tree's qualifying overlap.
    int64_t min_tree_size = 0;

    // Index of `fp` in fps, or fps.size() when the shard lacks it.
    size_t FindFingerprint(PqGramFingerprint fp) const;

    // The multiplicity of the arena entry at `index`, resolving the
    // kWideCount indirection.
    int64_t EntryCount(size_t index) const {
      int32_t narrow = entries[index].count;
      return narrow != kWideCount
                 ? narrow
                 : wide_counts.at(static_cast<uint32_t>(index));
    }
  };

  // A query tuple after shape validation: fingerprint + multiplicity.
  struct QueryTuple {
    PqGramFingerprint fp;
    int64_t count;
  };

  // One query tuple's posting list in a shard: arena range and the
  // query multiplicity that caps each posting's contribution.
  struct List {
    uint32_t begin;
    uint32_t length;
    int64_t qcount;
  };

  // A posting during one build: global-slot form before sharding.
  struct RawPosting {
    PqGramFingerprint fp;
    int32_t slot;
    int64_t count;
  };

  LookupEngine() = default;

  // Splits global-slot postings into `num_shards` (clamped to
  // [1, max(1, #trees)]) contiguous slot ranges and freezes each;
  // `target_shards_` keeps `num_shards` as requested.
  static std::shared_ptr<const LookupEngine> Compile(
      const PqShape& shape, const std::vector<TreeId>& tree_ids,
      const std::vector<int64_t>& tree_sizes, std::vector<RawPosting> raw,
      int num_shards);

  // Freezes one shard's posting arena from its local-slot raw postings
  // (sorts by (fp, slot), builds fps/offsets/entries with the wide-count
  // spill, then the directory). tree_ids/tree_sizes must already be
  // filled in.
  static void FreezeShard(Shard* shard, std::vector<RawPosting> part);

  // The next version of `old` with `updates` (ascending unique ids, all
  // routed to this shard) applied: one pass over the old arena in
  // (fp, slot) order that drops replaced trees' entries, renumbers the
  // surviving slots, folds the delta postings into the updated trees'
  // counts, splices in the replacement bags' postings and fills the
  // directory. The result equals FreezeShard of the same tree set, wide
  // counts and directory included.
  static std::shared_ptr<Shard> MergeShard(const Shard& old,
                                           const TreeUpdate* begin,
                                           const TreeUpdate* end);

  // The shard whose ascending tree-id range holds (or would hold) `id`:
  // the last nonempty shard whose first id <= id, else the first
  // nonempty shard (shard 0 when all are empty). An id in the snapshot
  // always routes to the shard that holds it.
  size_t RouteTree(TreeId id) const;

  // Fills routes_ from the final shards; every factory calls it last.
  void IndexRoutes();

  // Appends one arena entry, spilling counts beyond int32 to the
  // wide-count side map.
  static void AppendEntry(Shard* shard, int32_t slot, int64_t count);

  // Once a shard's arena and directory are final: sets its size floor,
  // uid and bytes.
  static void Seal(Shard* shard);

  // Rebuilds this snapshot into target_shards_ balanced shards from its
  // own arenas (no forest access).
  std::shared_ptr<const LookupEngine> Repartition() const;

  static std::vector<QueryTuple> QueryTuples(const PqGramIndex& query);

  // 128-bit cache fingerprint of (op, param, query size, sorted query
  // tuples). `op` separates Lookup from TopK keys; `param` carries the
  // tau bit pattern or k.
  static QueryFingerprint FingerprintQuery(
      const std::vector<QueryTuple>& tuples, int64_t query_size,
      uint64_t op, uint64_t param);

  // The shard's posting lists for `tuples`, rarest first (ties in
  // fingerprint order), and rest[j] = the sum of the query multiplicities
  // of lists j.. (rest has lists.size() + 1 entries, the last 0). List
  // order never changes a result, only how much pruning sees.
  static void ResolveLists(const Shard& shard,
                           const std::vector<QueryTuple>& tuples,
                           std::vector<List>* lists,
                           std::vector<int64_t>* rest);

  // Scores one shard for Lookup: admits candidates from the prefix of
  // the ranked lists that can still seed a qualifying tree, completes
  // the survivors' overlaps from the rest (scan or gallop per list) with
  // the tau-derived count filter, and appends qualifying results.
  void ScoreShard(const Shard& shard, const std::vector<QueryTuple>& tuples,
                  int64_t query_size, double tau,
                  std::vector<LookupResult>* out,
                  LookupEngineStats* stats) const;

  // Scores one shard for TopK into `heap` (worst-first heap of size <=
  // k), pruning against the heap's current worst entry.
  void ScoreShardTopK(const Shard& shard,
                      const std::vector<QueryTuple>& tuples,
                      int64_t query_size, int k,
                      std::vector<LookupResult>* heap,
                      LookupEngineStats* stats) const;

  PqShape shape_;
  // The shard count the engine was built with (before clamping to the
  // tree count); re-partitions aim for it.
  int target_shards_ = 1;
  int num_trees_ = 0;
  int64_t posting_entries_ = 0;
  // Shards are individually refcounted so ApplyDelta can share the
  // untouched ones between consecutive snapshot epochs.
  std::vector<std::shared_ptr<const Shard>> shards_;
  // (first tree id, shard index) of each nonempty shard, ascending:
  // RouteTree's search table.
  std::vector<std::pair<TreeId, size_t>> routes_;
};

}  // namespace pqidx

#endif  // PQIDX_CORE_LOOKUP_ENGINE_H_
