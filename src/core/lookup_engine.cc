#include "core/lookup_engine.h"

#include <algorithm>
#include <atomic>
#include <bit>
#include <iterator>
#include <limits>
#include <utility>

#include "common/metrics.h"
#include "core/simd_intersect.h"

namespace pqidx {
namespace {

// The SIMD kernels read the arena as interleaved int32 pairs.
static_assert(sizeof(PqGramFingerprint) == sizeof(uint64_t),
              "galloping search assumes 64-bit fingerprints");

// Shard uids are minted here and never reused, so a QueryCache entry
// keyed by a uid can only ever match the exact frozen arena it was
// computed from (no ABA across snapshot epochs).
std::atomic<uint64_t> g_next_shard_uid{1};

// The pq-gram distance formula, exactly as PqGramDistance computes it:
// lookup results must be bit-identical to the scanning baseline, so the
// engine never deviates from this double arithmetic.
inline double BagDistance(int64_t shared, int64_t union_size) {
  return union_size == 0
             ? 0.0
             : 1.0 - 2.0 * static_cast<double>(shared) /
                         static_cast<double>(union_size);
}

// Smallest integer overlap for which BagDistance(overlap, u) <= tau,
// for tau < 1 and u > 0. Derived from shared >= (1-tau)*u/2 but settled
// with the actual double predicate: BagDistance is monotone nonincreasing
// in `shared`, so walking up from slightly below the algebraic bound
// finds the exact floating-point threshold and the count filter can never
// disagree with the final test.
int64_t MinQualifyingOverlap(double tau, int64_t u) {
  // Distances are never negative, so no overlap qualifies for tau < 0
  // (or NaN). Without this guard a hostile tau would overflow the cast
  // below (-1e308 -> need > int64) or spin the walk forever (-inf).
  if (!(tau >= 0.0)) return std::numeric_limits<int64_t>::max();
  // From here tau >= 0, so need <= u/2 and the cast cannot overflow.
  double need = (1.0 - tau) * 0.5 * static_cast<double>(u);
  int64_t shared = static_cast<int64_t>(need) - 2;
  if (shared < 0) shared = 0;
  while (BagDistance(shared, u) > tau) ++shared;
  return shared;
}

// "a ranks before b": the comparator of every lookup result ordering.
inline bool RanksBefore(const LookupResult& a, const LookupResult& b) {
  return a.distance < b.distance ||
         (a.distance == b.distance && a.tree_id < b.tree_id);
}

// Folds one query's work accounting into the "lookup_engine.*" registry
// cells and records its latency.
void RecordQueryMetrics(const LookupEngineStats& stats, int64_t start_us) {
  static Counter* const m_queries =
      Metrics::Default().counter("lookup_engine.queries");
  static Counter* const m_candidates =
      Metrics::Default().counter("lookup_engine.candidates");
  static Counter* const m_pruned =
      Metrics::Default().counter("lookup_engine.candidates_pruned");
  static Counter* const m_scored =
      Metrics::Default().counter("lookup_engine.candidates_scored");
  static Counter* const m_postings =
      Metrics::Default().counter("lookup_engine.postings_scanned");
  static Counter* const m_probes =
      Metrics::Default().counter("lookup_engine.verify_probes");
  static Histogram* const m_query_us =
      Metrics::Default().histogram("lookup_engine.query_us");
  m_queries->Increment();
  m_candidates->Add(stats.candidates);
  m_pruned->Add(stats.pruned);
  m_scored->Add(stats.scored);
  m_postings->Add(stats.postings_scanned);
  m_probes->Add(stats.probes);
  if (Metrics::enabled()) {
    m_query_us->Record(Metrics::NowUs() - start_us);
  }
}

// Registry cells of snapshot publication; all are registered by the
// first Build, so they show in a server's registry before any edit.
struct PublishMetrics {
  Counter* builds = Metrics::Default().counter("lookup_engine.builds");
  Histogram* build_us = Metrics::Default().histogram("lookup_engine.build_us");
  Counter* incremental =
      Metrics::Default().counter("lookup_engine.incremental_builds");
  Counter* reused = Metrics::Default().counter("lookup_engine.shards_reused");
  Counter* recompiled =
      Metrics::Default().counter("lookup_engine.shards_recompiled");
  Histogram* incremental_us =
      Metrics::Default().histogram("lookup_engine.incremental_us");
  Counter* repartitions =
      Metrics::Default().counter("lookup_engine.repartitions");
};

PublishMetrics& publish_metrics() {
  static PublishMetrics m;
  return m;
}

void RecordBuild(int64_t start_us) {
  publish_metrics().builds->Increment();
  if (Metrics::enabled()) {
    publish_metrics().build_us->Record(Metrics::NowUs() - start_us);
  }
}

// The radix-directory bucket of `fp` among 2^bits: its top bits.
inline size_t DirectoryBucket(PqGramFingerprint fp, int bits) {
  return bits == 0 ? 0 : static_cast<size_t>(fp >> (64 - bits));
}

// Builds a shard's radix directory alongside its ascending fingerprint
// array, about 8 fingerprints per bucket (fingerprints are mixed hashes,
// so their top bits spread evenly). Add marks each bucket's end and
// Finish turns those marks into bucket starts by a running maximum, so
// neither pass branches on the data. The directory is sized up front
// from an expected count; Finish redoes it in one pass over the final
// array in the rare case that count needs another size, so it is always
// a function of the fingerprints alone.
class DirectoryBuilder {
 public:
  explicit DirectoryBuilder(size_t expected_fps)
      : bits_(Bits(expected_fps)), dir_((size_t{1} << bits_) + 1, 0) {}

  // Records that the fingerprint array holds `fp` at `index`; calls come
  // in ascending fingerprint order, so the last call for a bucket wins.
  void Add(PqGramFingerprint fp, size_t index) {
    dir_[DirectoryBucket(fp, bits_) + 1] = static_cast<uint32_t>(index + 1);
  }

  // Closes the directory over the complete array `fps`: dir[b] is then
  // the first index whose bucket is >= b.
  void Finish(const std::vector<PqGramFingerprint>& fps, int* bits,
              std::vector<uint32_t>* dir) {
    if (Bits(fps.size()) != bits_) {
      *this = DirectoryBuilder(fps.size());
      for (size_t i = 0; i < fps.size(); ++i) Add(fps[i], i);
    }
    for (size_t b = 1; b < dir_.size(); ++b) {
      dir_[b] = std::max(dir_[b], dir_[b - 1]);
    }
    *bits = bits_;
    *dir = std::move(dir_);
  }

 private:
  static int Bits(size_t fp_count) {
    return static_cast<int>(std::bit_width(fp_count / 8));
  }

  int bits_;
  std::vector<uint32_t> dir_;
};

// MinQualifyingOverlap memoised by union size: trees of one shard
// share few distinct sizes, so a small direct-mapped table spares most
// of the per-candidate walks.
class RequiredOverlapMemo {
 public:
  explicit RequiredOverlapMemo(double tau) : tau_(tau) {
    std::fill(std::begin(union_), std::end(union_), int64_t{-1});
  }
  int64_t Get(int64_t union_size) {
    const size_t h = static_cast<size_t>(union_size) % kSlots;
    if (union_[h] != union_size) {
      union_[h] = union_size;
      required_[h] = MinQualifyingOverlap(tau_, union_size);
    }
    return required_[h];
  }

 private:
  static constexpr size_t kSlots = 64;
  double tau_;
  int64_t union_[kSlots];
  int64_t required_[kSlots];
};

// Sorts `keys` (length << 32 | index, built in ascending index order)
// by length, ties in index order: a stable LSD radix sort, one byte of
// the length per pass and only as many passes as `max_length` needs.
// Query lists number about a hundred per shard, where a comparison sort
// spends most of its time on mispredicted branches.
void SortByLength(std::vector<uint64_t>* keys, uint32_t max_length) {
  std::vector<uint64_t> sorted(keys->size());
  for (int shift = 32; shift < 64 && (max_length >> (shift - 32)) != 0;
       shift += 8) {
    size_t start[257] = {};
    for (uint64_t key : *keys) ++start[((key >> shift) & 0xff) + 1];
    for (size_t d = 0; d < 256; ++d) start[d + 1] += start[d];
    for (uint64_t key : *keys) sorted[start[(key >> shift) & 0xff]++] = key;
    keys->swap(sorted);
  }
}

uint64_t MixFingerprint(uint64_t x) {
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

}  // namespace

std::shared_ptr<const LookupEngine> LookupEngine::Build(
    const ForestIndex& forest, int num_shards) {
  const int64_t start_us = Metrics::enabled() ? Metrics::NowUs() : 0;
  std::vector<TreeId> ids = forest.TreeIds();  // ascending
  std::vector<int64_t> sizes;
  sizes.reserve(ids.size());
  std::vector<RawPosting> raw;
  for (size_t slot = 0; slot < ids.size(); ++slot) {
    const PqGramIndex* bag = forest.Find(ids[slot]);
    sizes.push_back(bag->size());
    for (const auto& [fp, count] : bag->counts()) {
      raw.push_back({fp, static_cast<int32_t>(slot), count});
    }
  }
  auto engine =
      Compile(forest.shape(), ids, sizes, std::move(raw), num_shards);
  RecordBuild(start_us);
  return engine;
}

std::shared_ptr<const LookupEngine> LookupEngine::Build(
    const InvertedForestIndex& inverted, int num_shards) {
  const int64_t start_us = Metrics::enabled() ? Metrics::NowUs() : 0;
  std::vector<std::pair<TreeId, int64_t>> trees(
      inverted.tree_sizes().begin(), inverted.tree_sizes().end());
  std::sort(trees.begin(), trees.end());
  std::vector<TreeId> ids;
  std::vector<int64_t> sizes;
  ids.reserve(trees.size());
  sizes.reserve(trees.size());
  std::unordered_map<TreeId, int32_t> slot_of;
  slot_of.reserve(trees.size());
  for (const auto& [id, size] : trees) {
    slot_of.emplace(id, static_cast<int32_t>(ids.size()));
    ids.push_back(id);
    sizes.push_back(size);
  }
  std::vector<RawPosting> raw;
  raw.reserve(static_cast<size_t>(inverted.posting_entries()));
  for (const auto& [fp, list] : inverted.postings()) {
    for (const InvertedForestIndex::Posting& posting : list) {
      raw.push_back({fp, slot_of.at(posting.tree_id), posting.count});
    }
  }
  auto engine =
      Compile(inverted.shape(), ids, sizes, std::move(raw), num_shards);
  RecordBuild(start_us);
  return engine;
}

void LookupEngine::AppendEntry(Shard* shard, int32_t slot, int64_t count) {
  PQIDX_CHECK_MSG(count > 0, "nonpositive posting count");
  // Counts beyond int32 are legitimate (accumulated edit deltas) but
  // rare; spill them to the side map rather than abort a build that
  // may be publishing a live server's next snapshot.
  if (count <= INT32_MAX) {
    shard->entries.push_back({slot, static_cast<int32_t>(count)});
  } else {
    shard->wide_counts.emplace(static_cast<uint32_t>(shard->entries.size()),
                               count);
    shard->entries.push_back({slot, kWideCount});
  }
}

void LookupEngine::Seal(Shard* shard) {
  shard->min_tree_size =
      shard->tree_sizes.empty()
          ? 0
          : *std::min_element(shard->tree_sizes.begin(),
                              shard->tree_sizes.end());

  shard->uid = g_next_shard_uid.fetch_add(1, std::memory_order_relaxed);
  // Vector capacities plus the wide-count map's nodes and buckets.
  shard->bytes = static_cast<int64_t>(
      sizeof(Shard) + shard->tree_ids.capacity() * sizeof(TreeId) +
      shard->tree_sizes.capacity() * sizeof(int64_t) +
      shard->fps.capacity() * sizeof(PqGramFingerprint) +
      shard->offsets.capacity() * sizeof(uint32_t) +
      shard->dir.capacity() * sizeof(uint32_t) +
      shard->entries.capacity() * sizeof(Entry) +
      shard->wide_counts.size() * (sizeof(uint32_t) + sizeof(int64_t) +
                                   2 * sizeof(void*)) +
      shard->wide_counts.bucket_count() * sizeof(void*));
}

void LookupEngine::FreezeShard(Shard* shard, std::vector<RawPosting> part) {
  std::sort(part.begin(), part.end(),
            [](const RawPosting& a, const RawPosting& b) {
              return a.fp < b.fp || (a.fp == b.fp && a.slot < b.slot);
            });
  PQIDX_CHECK_MSG(part.size() <= UINT32_MAX,
                  "shard posting arena exceeds 32-bit offsets");
  shard->entries.reserve(part.size());
  shard->offsets.push_back(0);
  for (size_t i = 0; i < part.size(); ++i) {
    const RawPosting& p = part[i];
    if (shard->fps.empty() || shard->fps.back() != p.fp) {
      if (!shard->fps.empty()) {
        shard->offsets.push_back(static_cast<uint32_t>(i));
      }
      shard->fps.push_back(p.fp);
    }
    AppendEntry(shard, p.slot, p.count);
  }
  shard->offsets.push_back(static_cast<uint32_t>(part.size()));
  if (shard->fps.empty()) shard->offsets.assign(1, 0);
  DirectoryBuilder dir(shard->fps.size());
  for (size_t i = 0; i < shard->fps.size(); ++i) dir.Add(shard->fps[i], i);
  dir.Finish(shard->fps, &shard->dir_bits, &shard->dir);
  Seal(shard);
}

std::shared_ptr<const LookupEngine> LookupEngine::Compile(
    const PqShape& shape, const std::vector<TreeId>& tree_ids,
    const std::vector<int64_t>& tree_sizes, std::vector<RawPosting> raw,
    int num_shards) {
  // Private constructor; the factory idiom owns the allocation directly.
  std::shared_ptr<LookupEngine> engine(new LookupEngine());
  engine->shape_ = shape;
  engine->target_shards_ = std::max(1, num_shards);
  const int n = static_cast<int>(tree_ids.size());
  engine->num_trees_ = n;
  int shard_count = std::clamp(num_shards, 1, std::max(1, n));
  engine->shards_.resize(static_cast<size_t>(shard_count));

  // Contiguous slot ranges per shard; slots follow ascending tree id.
  std::vector<int> shard_begin(static_cast<size_t>(shard_count) + 1);
  for (int s = 0; s <= shard_count; ++s) {
    shard_begin[s] = static_cast<int>(static_cast<int64_t>(s) * n /
                                      shard_count);
  }
  std::vector<std::shared_ptr<Shard>> shards(
      static_cast<size_t>(shard_count));
  std::vector<int32_t> slot_shard(static_cast<size_t>(n));
  for (int s = 0; s < shard_count; ++s) {
    shards[static_cast<size_t>(s)] = std::make_shared<Shard>();
    Shard& shard = *shards[static_cast<size_t>(s)];
    for (int slot = shard_begin[s]; slot < shard_begin[s + 1]; ++slot) {
      slot_shard[slot] = s;
      shard.tree_ids.push_back(tree_ids[static_cast<size_t>(slot)]);
      shard.tree_sizes.push_back(tree_sizes[static_cast<size_t>(slot)]);
    }
  }

  // Partition the postings by shard, rebase slots, and freeze each
  // shard's arena grouped by fingerprint (entries slot-ascending within
  // a group, for deterministic scans).
  std::vector<std::vector<RawPosting>> shard_raw(
      static_cast<size_t>(shard_count));
  for (const RawPosting& p : raw) {
    int s = slot_shard[static_cast<size_t>(p.slot)];
    RawPosting local = p;
    local.slot = p.slot - shard_begin[s];
    shard_raw[static_cast<size_t>(s)].push_back(local);
  }
  raw.clear();
  raw.shrink_to_fit();
  for (int s = 0; s < shard_count; ++s) {
    std::vector<RawPosting>& part = shard_raw[static_cast<size_t>(s)];
    engine->posting_entries_ += static_cast<int64_t>(part.size());
    FreezeShard(shards[static_cast<size_t>(s)].get(), std::move(part));
    engine->shards_[static_cast<size_t>(s)] =
        std::move(shards[static_cast<size_t>(s)]);
  }
  engine->IndexRoutes();
  return engine;
}

std::shared_ptr<LookupEngine::Shard> LookupEngine::MergeShard(
    const Shard& old, const TreeUpdate* begin, const TreeUpdate* end) {
  auto shard = std::make_shared<Shard>();
  // The next tree set in ascending id order: surviving old slots keep
  // their relative order, so remap[] is monotone and each old posting
  // group stays slot-ascending after renumbering. Replaced trees map to
  // -1 (their old entries drop) and contribute their new bag's postings;
  // updated trees keep their entries and contribute signed deltas.
  const size_t old_trees = old.tree_ids.size();
  std::vector<int32_t> remap(old_trees, -1);
  std::vector<RawPosting> delta;
  auto add_postings = [&](const PqGramIndex* bag, int32_t slot,
                          int64_t sign) {
    if (bag == nullptr) return;
    for (const auto& [fp, count] : bag->counts()) {
      delta.push_back({fp, slot, sign * count});
    }
  };
  size_t i = 0;
  for (const TreeUpdate* u = begin; i < old_trees || u != end;) {
    const int32_t slot = static_cast<int32_t>(shard->tree_ids.size());
    if (u == end || (i < old_trees && old.tree_ids[i] < u->id)) {
      remap[i] = slot;
      shard->tree_ids.push_back(old.tree_ids[i]);
      shard->tree_sizes.push_back(old.tree_sizes[i]);
      ++i;
      continue;
    }
    const bool present = i < old_trees && old.tree_ids[i] == u->id;
    if (u->replace) {
      if (present) ++i;
      if (u->plus != nullptr) {
        shard->tree_ids.push_back(u->id);
        shard->tree_sizes.push_back(u->plus->size());
        add_postings(u->plus, slot, 1);
      }
    } else {
      PQIDX_CHECK_MSG(present, "count delta for a tree not in the snapshot");
      remap[i] = slot;
      shard->tree_ids.push_back(u->id);
      shard->tree_sizes.push_back(
          old.tree_sizes[i] + (u->plus != nullptr ? u->plus->size() : 0) -
          (u->minus != nullptr ? u->minus->size() : 0));
      add_postings(u->plus, slot, 1);
      add_postings(u->minus, slot, -1);
      ++i;
    }
    ++u;
  }
  std::sort(delta.begin(), delta.end(),
            [](const RawPosting& a, const RawPosting& b) {
              return a.fp < b.fp || (a.fp == b.fp && a.slot < b.slot);
            });
  // A fingerprint in both plus and minus of one update: one net delta.
  size_t kept = 0;
  for (const RawPosting& p : delta) {
    if (kept > 0 && delta[kept - 1].fp == p.fp &&
        delta[kept - 1].slot == p.slot) {
      delta[kept - 1].count += p.count;
    } else {
      delta[kept++] = p;
    }
  }
  delta.resize(kept);

  // One pass over both fingerprint-sorted sequences. Within a group the
  // surviving old entries (renumbered) and the delta postings are each
  // slot-ascending, so a two-way merge by slot yields FreezeShard's
  // (fp, slot) order; an old entry and a delta of the same slot sum.
  // Zero counts drop, and groups left empty disappear.
  const size_t groups = old.fps.size();
  shard->fps.reserve(groups);
  shard->offsets.reserve(groups + 1);
  shard->entries.reserve(old.entries.size() + delta.size());
  shard->offsets.push_back(0);
  DirectoryBuilder dir(groups);
  auto append = [&](int32_t slot, int64_t count) {
    if (count != 0) AppendEntry(shard.get(), slot, count);
  };
  size_t g = 0;
  size_t f = 0;
  while (g < groups || f < delta.size()) {
    const PqGramFingerprint fp =
        (f == delta.size() || (g < groups && old.fps[g] <= delta[f].fp))
            ? old.fps[g]
            : delta[f].fp;
    size_t k = 0;
    size_t k_end = 0;
    if (g < groups && old.fps[g] == fp) {
      k = old.offsets[g];
      k_end = old.offsets[g + 1];
      ++g;
    }
    for (;;) {
      while (k < k_end && remap[static_cast<size_t>(old.entries[k].slot)] < 0) {
        ++k;
      }
      const bool has_old = k < k_end;
      const bool has_delta = f < delta.size() && delta[f].fp == fp;
      if (!has_old && !has_delta) break;
      const int32_t old_slot =
          has_old ? remap[static_cast<size_t>(old.entries[k].slot)] : 0;
      if (has_old && (!has_delta || old_slot <= delta[f].slot)) {
        int64_t count = old.EntryCount(k++);
        if (has_delta && old_slot == delta[f].slot) count += delta[f++].count;
        append(old_slot, count);
      } else {
        append(delta[f].slot, delta[f].count);
        ++f;
      }
    }
    if (shard->entries.size() > shard->offsets.back()) {
      dir.Add(fp, shard->fps.size());
      shard->fps.push_back(fp);
      shard->offsets.push_back(static_cast<uint32_t>(shard->entries.size()));
    }
  }
  PQIDX_CHECK_MSG(shard->entries.size() <= UINT32_MAX,
                  "shard posting arena exceeds 32-bit offsets");
  dir.Finish(shard->fps, &shard->dir_bits, &shard->dir);
  Seal(shard.get());
  return shard;
}

size_t LookupEngine::RouteTree(TreeId id) const {
  if (routes_.empty()) return 0;
  auto it = std::upper_bound(
      routes_.begin(), routes_.end(),
      std::make_pair(id, std::numeric_limits<size_t>::max()));
  return it == routes_.begin() ? routes_.front().second
                               : std::prev(it)->second;
}

void LookupEngine::IndexRoutes() {
  routes_.clear();
  for (size_t s = 0; s < shards_.size(); ++s) {
    if (!shards_[s]->tree_ids.empty()) {
      routes_.emplace_back(shards_[s]->tree_ids.front(), s);
    }
  }
}

bool LookupEngine::Contains(TreeId id) const {
  const std::vector<TreeId>& ids = shards_[RouteTree(id)]->tree_ids;
  return std::binary_search(ids.begin(), ids.end(), id);
}

int64_t LookupEngine::Count(TreeId id, PqGramFingerprint fp) const {
  const Shard& shard = *shards_[RouteTree(id)];
  auto it = std::lower_bound(shard.tree_ids.begin(), shard.tree_ids.end(), id);
  if (it == shard.tree_ids.end() || *it != id) return 0;
  const int32_t slot = static_cast<int32_t>(it - shard.tree_ids.begin());
  const size_t g = shard.FindFingerprint(fp);
  if (g == shard.fps.size()) return 0;
  const size_t end = shard.offsets[g + 1];
  const size_t k = GallopLowerBound(shard.entries.data(), end,
                                    shard.offsets[g], slot,
                                    [](const Entry& e) { return e.slot; });
  return k < end && shard.entries[k].slot == slot ? shard.EntryCount(k) : 0;
}

void LookupEngine::ForEachBag(
    const std::function<void(TreeId, const PqGramIndex&)>& fn) const {
  for (const std::shared_ptr<const Shard>& shard : shards_) {
    std::vector<PqGramIndex> bags(shard->tree_ids.size(), PqGramIndex(shape_));
    for (size_t g = 0; g < shard->fps.size(); ++g) {
      for (uint32_t k = shard->offsets[g]; k < shard->offsets[g + 1]; ++k) {
        bags[static_cast<size_t>(shard->entries[k].slot)].Add(
            shard->fps[g], shard->EntryCount(k));
      }
    }
    for (size_t slot = 0; slot < bags.size(); ++slot) {
      fn(shard->tree_ids[slot], bags[slot]);
    }
  }
}

std::shared_ptr<const LookupEngine> LookupEngine::Repartition() const {
  std::vector<TreeId> ids;
  std::vector<int64_t> sizes;
  ids.reserve(static_cast<size_t>(num_trees_));
  sizes.reserve(static_cast<size_t>(num_trees_));
  std::vector<RawPosting> raw;
  raw.reserve(static_cast<size_t>(posting_entries_));
  // Shard tree-id ranges are disjoint and ascending, so concatenating
  // the shards in order yields ascending global slots.
  for (const std::shared_ptr<const Shard>& shard : shards_) {
    const int32_t base = static_cast<int32_t>(ids.size());
    ids.insert(ids.end(), shard->tree_ids.begin(), shard->tree_ids.end());
    sizes.insert(sizes.end(), shard->tree_sizes.begin(),
                 shard->tree_sizes.end());
    for (size_t g = 0; g < shard->fps.size(); ++g) {
      for (uint32_t k = shard->offsets[g]; k < shard->offsets[g + 1]; ++k) {
        raw.push_back({shard->fps[g], base + shard->entries[k].slot,
                       shard->EntryCount(k)});
      }
    }
  }
  return Compile(shape_, ids, sizes, std::move(raw), target_shards_);
}

std::shared_ptr<const LookupEngine> LookupEngine::ApplyDelta(
    const std::shared_ptr<const LookupEngine>& prev,
    const ForestIndex& forest, const std::vector<TreeId>& changed) {
  PQIDX_CHECK_MSG(prev != nullptr, "ApplyDelta needs a previous snapshot");
  PQIDX_CHECK_MSG(prev->shape_ == forest.shape(),
                  "delta forest shape does not match the snapshot");
  std::vector<TreeId> ids = changed;
  std::sort(ids.begin(), ids.end());
  ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
  std::vector<TreeUpdate> updates;
  updates.reserve(ids.size());
  for (TreeId id : ids) updates.push_back({id, true, forest.Find(id), nullptr});
  return ApplyDelta(prev, updates);
}

std::shared_ptr<const LookupEngine> LookupEngine::ApplyDelta(
    const std::shared_ptr<const LookupEngine>& prev,
    const std::vector<TreeUpdate>& updates) {
  PQIDX_CHECK_MSG(prev != nullptr, "ApplyDelta needs a previous snapshot");
  if (updates.empty()) return prev;
  PublishMetrics& metrics = publish_metrics();
  const int64_t start_us = Metrics::enabled() ? Metrics::NowUs() : 0;
  for (const TreeUpdate& u : updates) {
    for (const PqGramIndex* bag : {u.plus, u.minus}) {
      PQIDX_CHECK_MSG(bag == nullptr || bag->shape() == prev->shape_,
                      "delta bag shape does not match the snapshot");
    }
  }
  std::vector<TreeUpdate> sorted = updates;
  std::sort(sorted.begin(), sorted.end(),
            [](const TreeUpdate& a, const TreeUpdate& b) {
              return a.id < b.id;
            });
  PQIDX_CHECK_MSG(
      std::adjacent_find(sorted.begin(), sorted.end(),
                         [](const TreeUpdate& a, const TreeUpdate& b) {
                           return a.id == b.id;
                         }) == sorted.end(),
      "ApplyDelta takes one update per tree");

  // Route every changed id to its shard (RouteTree keeps the ranges
  // disjoint and ascending). The ids are sorted, so each shard receives
  // one contiguous run of `sorted`.
  const size_t shard_count = prev->shards_.size();
  std::vector<size_t> run_begin(shard_count + 1, sorted.size());
  for (size_t k = sorted.size(); k-- > 0;) {
    run_begin[prev->RouteTree(sorted[k].id)] = k;
  }
  // Shards that received no run start where the next run does.
  for (size_t s = shard_count; s-- > 0;) {
    run_begin[s] = std::min(run_begin[s], run_begin[s + 1]);
  }

  std::shared_ptr<LookupEngine> engine(new LookupEngine());
  engine->shape_ = prev->shape_;
  engine->target_shards_ = prev->target_shards_;
  engine->shards_.resize(shard_count);
  int64_t trees = 0;
  int64_t postings = 0;
  for (size_t s = 0; s < shard_count; ++s) {
    if (run_begin[s] == run_begin[s + 1]) {
      // Untouched: share the frozen arena with the previous epoch.
      engine->shards_[s] = prev->shards_[s];
      metrics.reused->Increment();
    } else {
      engine->shards_[s] =
          MergeShard(*prev->shards_[s], sorted.data() + run_begin[s],
                     sorted.data() + run_begin[s + 1]);
      metrics.recompiled->Increment();
    }
    trees += static_cast<int64_t>(engine->shards_[s]->tree_ids.size());
    postings += static_cast<int64_t>(engine->shards_[s]->entries.size());
  }
  engine->num_trees_ = static_cast<int>(trees);
  engine->posting_entries_ = postings;
  engine->IndexRoutes();
  metrics.incremental->Increment();

  // Routing sends inserts to existing ranges (every id above the last
  // range lands in the last shard), so keep each shard within twice
  // its fair share of ceil(n / target) trees.
  const int64_t fair =
      (trees + engine->target_shards_ - 1) / engine->target_shards_;
  std::shared_ptr<const LookupEngine> next = engine;
  for (const std::shared_ptr<const Shard>& shard : engine->shards_) {
    if (static_cast<int64_t>(shard->tree_ids.size()) > 2 * fair) {
      next = engine->Repartition();
      metrics.repartitions->Increment();
      break;
    }
  }
  if (Metrics::enabled()) {
    metrics.incremental_us->Record(Metrics::NowUs() - start_us);
  }
  return next;
}

std::vector<int> LookupEngine::ShardSizes() const {
  std::vector<int> sizes;
  sizes.reserve(shards_.size());
  for (const std::shared_ptr<const Shard>& shard : shards_) {
    sizes.push_back(static_cast<int>(shard->tree_ids.size()));
  }
  return sizes;
}

int64_t LookupEngine::ResidentBytes() const {
  int64_t bytes = static_cast<int64_t>(
      sizeof(LookupEngine) +
      shards_.capacity() * sizeof(std::shared_ptr<const Shard>));
  for (const std::shared_ptr<const Shard>& shard : shards_) {
    bytes += shard->bytes;
  }
  return bytes;
}

bool LookupEngine::ShardMatchesFreezeForTesting(
    int s, const ForestIndex& forest) const {
  const Shard& shard = *shards_.at(static_cast<size_t>(s));
  Shard fresh;
  std::vector<RawPosting> part;
  for (TreeId id : shard.tree_ids) {
    const PqGramIndex* bag = forest.Find(id);
    if (bag == nullptr) return false;
    const int32_t slot = static_cast<int32_t>(fresh.tree_ids.size());
    fresh.tree_ids.push_back(id);
    fresh.tree_sizes.push_back(bag->size());
    for (const auto& [fp, count] : bag->counts()) {
      part.push_back({fp, slot, count});
    }
  }
  FreezeShard(&fresh, std::move(part));
  auto same_entries = [](const std::vector<Entry>& a,
                         const std::vector<Entry>& b) {
    return std::equal(a.begin(), a.end(), b.begin(), b.end(),
                      [](const Entry& x, const Entry& y) {
                        return x.slot == y.slot && x.count == y.count;
                      });
  };
  return shard.tree_ids == fresh.tree_ids &&
         shard.tree_sizes == fresh.tree_sizes && shard.fps == fresh.fps &&
         shard.offsets == fresh.offsets &&
         same_entries(shard.entries, fresh.entries) &&
         shard.wide_counts == fresh.wide_counts &&
         shard.dir_bits == fresh.dir_bits && shard.dir == fresh.dir &&
         shard.min_tree_size == fresh.min_tree_size;
}

std::vector<uint64_t> LookupEngine::ShardUids() const {
  std::vector<uint64_t> uids;
  uids.reserve(shards_.size());
  for (const std::shared_ptr<const Shard>& shard : shards_) {
    uids.push_back(shard->uid);
  }
  return uids;
}

QueryFingerprint LookupEngine::FingerprintQuery(
    const std::vector<QueryTuple>& tuples, int64_t query_size, uint64_t op,
    uint64_t param) {
  // Two independently seeded lanes over the same sequence; both are
  // compared on a cache hit, so a collision needs both to collide.
  uint64_t lo = MixFingerprint(op ^ 0x243f6a8885a308d3ULL);
  uint64_t hi = MixFingerprint(op + 0x452821e638d01377ULL);
  lo = MixFingerprint(lo ^ param);
  hi = MixFingerprint(hi + param);
  lo = MixFingerprint(lo ^ static_cast<uint64_t>(query_size));
  hi = MixFingerprint(hi + static_cast<uint64_t>(query_size));
  for (const QueryTuple& t : tuples) {
    lo = MixFingerprint(lo ^ t.fp);
    lo = MixFingerprint(lo ^ static_cast<uint64_t>(t.count));
    hi = MixFingerprint(hi + (t.fp * 0x9e3779b97f4a7c15ULL));
    hi = MixFingerprint(hi + static_cast<uint64_t>(t.count));
  }
  return {lo, hi};
}

std::vector<LookupEngine::QueryTuple> LookupEngine::QueryTuples(
    const PqGramIndex& query) {
  std::vector<QueryTuple> tuples;
  tuples.reserve(query.counts().size());
  for (const auto& [fp, count] : query.counts()) {
    tuples.push_back({fp, count});
  }
  // Deterministic processing order (the bag map iterates in hash order).
  std::sort(tuples.begin(), tuples.end(),
            [](const QueryTuple& a, const QueryTuple& b) {
              return a.fp < b.fp;
            });
  return tuples;
}

size_t LookupEngine::Shard::FindFingerprint(PqGramFingerprint fp) const {
  // A bucket of the usual size is counted through without branches; an
  // oversized one (fingerprints sharing their top bits) is bisected.
  const size_t b = DirectoryBucket(fp, dir_bits);
  size_t pos = dir[b];
  const size_t end = dir[b + 1];
  if (end - pos > 16) {
    pos = static_cast<size_t>(
        std::lower_bound(fps.data() + pos, fps.data() + end, fp) -
        fps.data());
  } else {
    size_t below = 0;
    for (size_t i = pos; i < end; ++i) below += fps[i] < fp ? 1 : 0;
    pos += below;
  }
  return pos < end && fps[pos] == fp ? pos : fps.size();
}

void LookupEngine::ResolveLists(const Shard& shard,
                                const std::vector<QueryTuple>& tuples,
                                std::vector<List>* lists,
                                std::vector<int64_t>* rest) {
  // One directory probe per tuple, in passes that prefetch the next
  // pass's reads (directory entry, bucket fingerprints, list offsets), so
  // the tuples' cache misses overlap instead of queueing one by one.
  const size_t m = tuples.size();
  std::vector<size_t> found(m);
  for (size_t t = 0; t < m; ++t) {
    __builtin_prefetch(shard.dir.data() +
                       DirectoryBucket(tuples[t].fp, shard.dir_bits));
  }
  for (size_t t = 0; t < m; ++t) {
    __builtin_prefetch(
        shard.fps.data() +
        shard.dir[DirectoryBucket(tuples[t].fp, shard.dir_bits)]);
  }
  for (size_t t = 0; t < m; ++t) {
    found[t] = shard.FindFingerprint(tuples[t].fp);
    __builtin_prefetch(shard.offsets.data() + found[t]);
  }
  // A list ranks by the packed key (length << 32 | tuple index): lengths
  // and indexes fit 32 bits (arena offsets are uint32), and tuples are
  // fingerprint-ascending, so equal lengths keep fingerprint order.
  std::vector<uint64_t> keys;
  keys.reserve(m);
  uint32_t max_length = 0;
  for (size_t t = 0; t < m; ++t) {
    const size_t pos = found[t];
    if (pos == shard.fps.size()) continue;
    found[t] = shard.offsets[pos];
    const uint32_t length = shard.offsets[pos + 1] - shard.offsets[pos];
    max_length = std::max(max_length, length);
    keys.push_back(static_cast<uint64_t>(length) << 32 | t);
  }
  SortByLength(&keys, max_length);
  lists->clear();
  lists->reserve(keys.size());
  for (uint64_t key : keys) {
    const size_t t = static_cast<uint32_t>(key);
    lists->push_back({static_cast<uint32_t>(found[t]),
                      static_cast<uint32_t>(key >> 32), tuples[t].count});
  }
  rest->assign(lists->size() + 1, 0);
  for (size_t j = lists->size(); j-- > 0;) {
    (*rest)[j] = (*rest)[j + 1] + (*lists)[j].qcount;
  }
}

void LookupEngine::ScoreShard(const Shard& shard,
                              const std::vector<QueryTuple>& tuples,
                              int64_t query_size, double tau,
                              std::vector<LookupResult>* out,
                              LookupEngineStats* stats) const {
  const size_t n = shard.tree_ids.size();
  static_assert(sizeof(Entry) == 2 * sizeof(int32_t),
                "kernels read the arena as interleaved int32 pairs");
  std::vector<List> lists;
  std::vector<int64_t> rest;
  ResolveLists(shard, tuples, &lists, &rest);

  // The prefix cut. A tree first reached by list j shares at most
  // rest[j] with the query, and qualifies only with an overlap of
  // MinQualifyingOverlap(tau, |Q| + s) >= MinQualifyingOverlap(tau,
  // |Q| + min_tree_size) (monotone in the union size). So lists from the
  // first j with rest[j] below that floor admit no new candidate. With
  // tau >= 1 every tree qualifies and needs its exact overlap: no cut.
  const bool filter = tau < 1.0;
  size_t cut = lists.size();
  if (filter) {
    const int64_t floor =
        MinQualifyingOverlap(tau, query_size + shard.min_tree_size);
    cut = 0;
    while (cut < lists.size() && rest[cut] >= floor) ++cut;
  }

  enum : uint8_t { kUnseen = 0, kLive = 1, kPruned = 2 };
  std::vector<int64_t> overlap(n, 0);
  std::vector<int64_t> required(filter ? n : 0, 0);
  std::vector<uint8_t> state(n, kUnseen);
  std::vector<int32_t> touched;
  RequiredOverlapMemo memo(tau);

  // `alive` counts the candidates not pruned yet; past the cut, scoring
  // stops once it reaches 0.
  size_t alive = 0;
  auto prune_if_beaten = [&](size_t slot, int64_t gain_after) {
    if (overlap[slot] + gain_after >= required[slot]) return false;
    state[slot] = kPruned;
    ++stats->pruned;
    --alive;
    return true;
  };

  // Scans one whole list. The SIMD kernel deinterleaves each block and
  // clamps every count against the query multiplicity up front; the
  // scalar pass only scatters the contributions. A negative contribution
  // is the wide-count sentinel surviving the clamp and is resolved
  // exactly from the side map. Before the cut a scan admits candidates;
  // after it, it only adds to survivors. Either way a candidate it
  // touches is pruned once it cannot reach its bound with `gain_after`.
  constexpr size_t kBlock = 256;
  int32_t slot_buf[kBlock];
  int32_t contrib_buf[kBlock];
  auto scan = [&](const List& list, int64_t gain_after, bool admit) {
    // Raw pointers and counters in locals: a store through a uint8_t
    // pointer may alias anything reachable from memory, which would
    // force a reload of every vector's data pointer per entry.
    int64_t* const acc = overlap.data();
    uint8_t* const st = state.data();
    int64_t* const req = required.data();
    const int64_t* const sizes = shard.tree_sizes.data();
    const Entry* const arena = shard.entries.data() + list.begin;
    int64_t pruned = 0;
    size_t admitted = 0;
    stats->postings_scanned += list.length;
    const int32_t qc32 = static_cast<int32_t>(
        std::min<int64_t>(list.qcount, INT32_MAX));
    for (size_t base = 0; base < list.length; base += kBlock) {
      const size_t m = std::min<size_t>(kBlock, list.length - base);
      ComputeContribs(reinterpret_cast<const int32_t*>(arena + base), m,
                      qc32, slot_buf, contrib_buf);
      for (size_t i = 0; i < m; ++i) {
        const size_t slot = static_cast<size_t>(slot_buf[i]);
        if (st[slot] != kLive) {
          if (!admit || st[slot] == kPruned) continue;
          st[slot] = kLive;
          ++admitted;
          touched.push_back(slot_buf[i]);
          if (filter) req[slot] = memo.Get(query_size + sizes[slot]);
        }
        int64_t contrib = contrib_buf[i];
        if (contrib < 0) {
          contrib = std::min<int64_t>(
              list.qcount, shard.EntryCount(list.begin + base + i));
        }
        acc[slot] += contrib;
        if (filter && acc[slot] + gain_after < req[slot]) {
          st[slot] = kPruned;
          ++pruned;
        }
      }
    }
    stats->pruned += pruned;
    alive = alive + admitted - static_cast<size_t>(pruned);
  };

  for (size_t j = 0; j < cut; ++j) scan(lists[j], rest[j + 1], true);
  stats->candidates += static_cast<int64_t>(touched.size());

  if (!filter) {
    // tau >= 1: every tree qualifies by definition (distance <= 1), the
    // zero-overlap ones included; score the whole shard.
    stats->scored += static_cast<int64_t>(n);
    for (size_t slot = 0; slot < n; ++slot) {
      out->push_back({shard.tree_ids[slot],
                      BagDistance(overlap[slot],
                                  query_size + shard.tree_sizes[slot])});
    }
    return;
  }

  // Past the cut, only the survivors' overlaps move. Galloping costs
  // O(log gap) per survivor against about one step per entry for a
  // scan, so a list more than kGallopRatio entries per survivor long is
  // galloped, slot-ascending, and a shorter one scanned. `live` holds
  // the survivors in slot order and may still list some that a scan
  // pruned since; a gallop pass drops those.
  constexpr size_t kGallopRatio = 16;
  if (cut < lists.size()) {
    std::vector<int32_t> live;
    live.reserve(alive);
    for (int32_t slot : touched) {
      const size_t s = static_cast<size_t>(slot);
      if (state[s] == kLive && !prune_if_beaten(s, rest[cut])) {
        live.push_back(slot);
      }
    }
    std::sort(live.begin(), live.end());
    const Entry* entries = shard.entries.data();
    for (size_t j = cut; j < lists.size() && alive > 0; ++j) {
      const List& list = lists[j];
      if (list.length <= kGallopRatio * alive) {
        scan(list, rest[j + 1], false);
        continue;
      }
      const size_t end = static_cast<size_t>(list.begin) + list.length;
      size_t pos = list.begin;
      size_t kept = 0;
      for (int32_t slot : live) {
        const size_t s = static_cast<size_t>(slot);
        if (state[s] != kLive) continue;
        if (pos < end) {
          ++stats->probes;
          pos = GallopLowerBound(entries, end, pos, slot,
                                 [](const Entry& e) { return e.slot; });
          if (pos < end && entries[pos].slot == slot) {
            overlap[s] += std::min<int64_t>(list.qcount,
                                            shard.EntryCount(pos));
            ++pos;
          }
        }
        if (!prune_if_beaten(s, rest[j + 1])) live[kept++] = slot;
      }
      live.resize(kept);
    }
  }

  for (int32_t slot : touched) {
    const size_t s = static_cast<size_t>(slot);
    if (state[s] != kLive) continue;
    ++stats->scored;
    if (overlap[s] >= required[s]) {
      out->push_back({shard.tree_ids[s],
                      BagDistance(overlap[s],
                                  query_size + shard.tree_sizes[s])});
    }
  }
  if (query_size == 0 && tau >= 0.0) {
    // An empty query is at distance 0 from every empty tree (empty
    // union); those trees own no postings, so the scan above cannot see
    // them. Distance 0 only qualifies for tau >= 0, exactly as the
    // scanning baseline's `distance <= tau` test decides.
    for (size_t slot = 0; slot < n; ++slot) {
      if (shard.tree_sizes[slot] == 0) {
        out->push_back({shard.tree_ids[slot], 0.0});
      }
    }
  }
}

std::vector<LookupResult> LookupEngine::Lookup(
    const PqGramIndex& query, double tau, ThreadPool* pool,
    LookupEngineStats* stats, QueryCache* cache) const {
  PQIDX_CHECK_MSG(query.shape() == shape_,
                  "query shape does not match lookup engine shape");
  // Distances are never negative, so tau < 0 (or NaN) matches nothing.
  // The scanning baseline reaches the same answer through its
  // `distance <= tau` test; deciding it up front keeps hostile tau
  // values (-inf, -1e308, NaN) out of the scoring machinery.
  if (!(tau >= 0.0)) return {};
  const int64_t start_us = Metrics::enabled() ? Metrics::NowUs() : 0;
  const std::vector<QueryTuple> tuples = QueryTuples(query);
  QueryFingerprint qfp;
  if (cache != nullptr) {
    qfp = FingerprintQuery(tuples, query.size(), /*op=*/0,
                           std::bit_cast<uint64_t>(tau));
  }
  const size_t shard_count = shards_.size();
  std::vector<std::vector<LookupResult>> parts(shard_count);
  std::vector<LookupEngineStats> part_stats(shard_count);
  auto score = [&](int64_t s) {
    const Shard& shard = *shards_[static_cast<size_t>(s)];
    if (cache != nullptr &&
        cache->Get(qfp, shard.uid, &parts[static_cast<size_t>(s)])) {
      return;
    }
    ScoreShard(shard, tuples, query.size(), tau,
               &parts[static_cast<size_t>(s)],
               &part_stats[static_cast<size_t>(s)]);
    if (cache != nullptr) {
      cache->Put(qfp, shard.uid, parts[static_cast<size_t>(s)]);
    }
  };
  if (pool != nullptr && shard_count > 1) {
    pool->ParallelFor(static_cast<int64_t>(shard_count), score);
  } else {
    for (size_t s = 0; s < shard_count; ++s) {
      score(static_cast<int64_t>(s));
    }
  }
  size_t total = 0;
  for (const std::vector<LookupResult>& part : parts) total += part.size();
  std::vector<LookupResult> results;
  results.reserve(total);
  for (const std::vector<LookupResult>& part : parts) {
    results.insert(results.end(), part.begin(), part.end());
  }
  std::sort(results.begin(), results.end(), RanksBefore);
  LookupEngineStats folded;
  for (const LookupEngineStats& part : part_stats) folded += part;
  RecordQueryMetrics(folded, start_us);
  if (stats != nullptr) *stats += folded;
  return results;
}

std::vector<LookupResult> LookupEngine::Lookup(
    const Tree& query, double tau, ThreadPool* pool,
    LookupEngineStats* stats, QueryCache* cache) const {
  return Lookup(BuildIndex(query, shape_), tau, pool, stats, cache);
}

void LookupEngine::ScoreShardTopK(const Shard& shard,
                                  const std::vector<QueryTuple>& tuples,
                                  int64_t query_size, int k,
                                  std::vector<LookupResult>* heap,
                                  LookupEngineStats* stats) const {
  const size_t n = shard.tree_ids.size();
  std::vector<List> lists;
  std::vector<int64_t> rest;
  ResolveLists(shard, tuples, &lists, &rest);

  std::vector<int64_t> overlap(n, 0);
  std::vector<uint8_t> pruned(n, 0);
  int64_t candidates = 0;
  constexpr size_t kBlock = 256;
  int32_t slot_buf[kBlock];
  int32_t contrib_buf[kBlock];
  for (size_t j = 0; j < lists.size(); ++j) {
    const List& list = lists[j];
    const int64_t gain_after = rest[j + 1];
    stats->postings_scanned += list.length;
    const int32_t qc32 = static_cast<int32_t>(
        std::min<int64_t>(list.qcount, INT32_MAX));
    for (size_t base = 0; base < list.length; base += kBlock) {
      const size_t m = std::min<size_t>(kBlock, list.length - base);
      ComputeContribs(
          reinterpret_cast<const int32_t*>(shard.entries.data() +
                                           list.begin + base),
          m, qc32, slot_buf, contrib_buf);
      for (size_t i = 0; i < m; ++i) {
        const int32_t slot = slot_buf[i];
        if (pruned[static_cast<size_t>(slot)]) continue;
        int64_t& acc = overlap[static_cast<size_t>(slot)];
        if (acc == 0) ++candidates;
        int64_t contrib = contrib_buf[i];
        if (contrib < 0) {
          contrib = std::min<int64_t>(
              list.qcount, shard.EntryCount(list.begin + base + i));
        }
        acc += contrib;
        // Adaptive bound: once the heap holds k results, a candidate
        // whose best attainable rank cannot beat the current k-th best
        // is dead. The k-th best only improves, so the decision stays
        // valid.
        if (static_cast<int>(heap->size()) == k) {
          const LookupResult& worst = heap->front();
          LookupResult best_attainable{
              shard.tree_ids[static_cast<size_t>(slot)],
              BagDistance(acc + gain_after,
                          query_size +
                              shard.tree_sizes[static_cast<size_t>(slot)])};
          if (!RanksBefore(best_attainable, worst)) {
            pruned[static_cast<size_t>(slot)] = 1;
            ++stats->pruned;
          }
        }
      }
    }
  }
  stats->candidates += candidates;

  // TopK ranks every tree (a zero-overlap tree still has a distance), so
  // the emit pass walks all slots, skipping only the provably beaten.
  for (size_t slot = 0; slot < n; ++slot) {
    if (pruned[slot]) continue;
    ++stats->scored;
    LookupResult candidate{
        shard.tree_ids[slot],
        BagDistance(overlap[slot], query_size + shard.tree_sizes[slot])};
    if (static_cast<int>(heap->size()) < k) {
      heap->push_back(candidate);
      std::push_heap(heap->begin(), heap->end(), RanksBefore);
    } else if (RanksBefore(candidate, heap->front())) {
      std::pop_heap(heap->begin(), heap->end(), RanksBefore);
      heap->back() = candidate;
      std::push_heap(heap->begin(), heap->end(), RanksBefore);
    }
  }
}

std::vector<LookupResult> LookupEngine::TopK(const PqGramIndex& query,
                                             int k, ThreadPool* pool,
                                             LookupEngineStats* stats,
                                             QueryCache* cache) const {
  PQIDX_CHECK_MSG(query.shape() == shape_,
                  "query shape does not match lookup engine shape");
  if (k <= 0) return {};
  const int64_t start_us = Metrics::enabled() ? Metrics::NowUs() : 0;
  const std::vector<QueryTuple> tuples = QueryTuples(query);
  QueryFingerprint qfp;
  if (cache != nullptr) {
    qfp = FingerprintQuery(tuples, query.size(), /*op=*/1,
                           static_cast<uint64_t>(k));
  }
  LookupEngineStats local_stats;
  std::vector<LookupResult> merged;
  if (cache != nullptr || (pool != nullptr && shards_.size() > 1)) {
    // Independent per-shard heaps; the global top k is a subset of the
    // union of the per-shard top k. The cache requires this mode even
    // sequentially: a cached partial must not depend on the heap state
    // other shards left behind.
    std::vector<std::vector<LookupResult>> heaps(shards_.size());
    std::vector<LookupEngineStats> part_stats(shards_.size());
    auto score = [&](int64_t s) {
      const Shard& shard = *shards_[static_cast<size_t>(s)];
      if (cache != nullptr &&
          cache->Get(qfp, shard.uid, &heaps[static_cast<size_t>(s)])) {
        return;
      }
      ScoreShardTopK(shard, tuples, query.size(), k,
                     &heaps[static_cast<size_t>(s)],
                     &part_stats[static_cast<size_t>(s)]);
      if (cache != nullptr) {
        cache->Put(qfp, shard.uid, heaps[static_cast<size_t>(s)]);
      }
    };
    if (pool != nullptr && shards_.size() > 1) {
      pool->ParallelFor(static_cast<int64_t>(shards_.size()), score);
    } else {
      for (size_t s = 0; s < shards_.size(); ++s) {
        score(static_cast<int64_t>(s));
      }
    }
    for (const std::vector<LookupResult>& heap : heaps) {
      merged.insert(merged.end(), heap.begin(), heap.end());
    }
    for (const LookupEngineStats& part : part_stats) local_stats += part;
  } else {
    for (const std::shared_ptr<const Shard>& shard : shards_) {
      ScoreShardTopK(*shard, tuples, query.size(), k, &merged,
                     &local_stats);
    }
  }
  std::sort(merged.begin(), merged.end(), RanksBefore);
  if (static_cast<int>(merged.size()) > k) {
    merged.resize(static_cast<size_t>(k));
  }
  RecordQueryMetrics(local_stats, start_us);
  if (stats != nullptr) *stats += local_stats;
  return merged;
}

}  // namespace pqidx
