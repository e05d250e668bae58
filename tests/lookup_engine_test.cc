// Tests for the read-optimized lookup engine: bit-identical equivalence
// with ForestIndex::Lookup / InvertedForestIndex::Lookup across tau
// sweeps (including tau >= 1 and empty bags), TopK equivalence, edit-log
// evolution, pruning and prefix-cut accounting against hand-computed
// ground truth, fingerprint-directory edge cases, and concurrent lookups
// racing snapshot swaps (run under TSan in CI).

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdint>
#include <deque>
#include <limits>
#include <map>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "core/forest_index.h"
#include "core/inverted_index.h"
#include "core/lookup_engine.h"
#include "core/simd_intersect.h"
#include "edit/edit_script.h"
#include "tree/generators.h"
#include "tree/tree_builder.h"

namespace pqidx {
namespace {

constexpr double kTaus[] = {0.0, 0.1, 0.3, 0.5, 0.7, 0.9,
                            0.99, 1.0, 1.5};

Tree MustParse(std::string_view notation) {
  StatusOr<Tree> tree = ParseTreeNotation(notation);
  EXPECT_TRUE(tree.ok()) << tree.status().ToString();
  return std::move(tree).value();
}

// Bit-identical: same ids, same order, same double bit patterns.
void ExpectSameResults(const std::vector<LookupResult>& got,
                       const std::vector<LookupResult>& want,
                       const char* what) {
  ASSERT_EQ(got.size(), want.size()) << what;
  for (size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i].tree_id, want[i].tree_id) << what << " position " << i;
    EXPECT_EQ(got[i].distance, want[i].distance) << what << " position " << i;
  }
}

// Checks one engine snapshot against the scan for every tau in the sweep,
// with 1..n shards, sequentially and through a pool.
void ExpectEngineMatchesScan(const ForestIndex& forest,
                             const PqGramIndex& query, ThreadPool* pool) {
  for (int shards : {1, 3, 8}) {
    auto engine = LookupEngine::Build(forest, shards);
    ASSERT_EQ(engine->size(), forest.size());
    for (double tau : kTaus) {
      std::vector<LookupResult> want = forest.Lookup(query, tau);
      ExpectSameResults(engine->Lookup(query, tau), want, "sequential");
      if (pool != nullptr) {
        ExpectSameResults(engine->Lookup(query, tau, pool), want,
                          "parallel");
      }
    }
  }
}

// Restores the process-wide kernel selection on scope exit so a failing
// SIMD test cannot leak a forced kernel into later tests.
class ScopedSimdKernel {
 public:
  ScopedSimdKernel() : saved_(ActiveSimdKernel()) {}
  ~ScopedSimdKernel() { SetSimdKernelForTesting(saved_); }
  ScopedSimdKernel(const ScopedSimdKernel&) = delete;
  ScopedSimdKernel& operator=(const ScopedSimdKernel&) = delete;

 private:
  SimdKernel saved_;
};

constexpr SimdKernel kAllKernels[] = {SimdKernel::kScalar, SimdKernel::kSse41,
                                      SimdKernel::kAvx2, SimdKernel::kNeon};

TEST(LookupEngineTest, MatchesScanOnSmallForest) {
  ForestIndex forest(PqShape{2, 2});
  forest.AddTree(1, MustParse("a(b,c)"));
  forest.AddTree(2, MustParse("a(b,x)"));
  forest.AddTree(3, MustParse("z(w)"));
  InvertedForestIndex inverted(forest);

  Tree query = MustParse("a(b,c)");
  PqGramIndex bag = BuildIndex(query, PqShape{2, 2});
  ThreadPool pool(3);
  ExpectEngineMatchesScan(forest, bag, &pool);

  // Building from the inverted postings yields the same snapshot.
  auto from_inverted = LookupEngine::Build(inverted, 2);
  for (double tau : kTaus) {
    ExpectSameResults(from_inverted->Lookup(bag, tau),
                      forest.Lookup(bag, tau), "from inverted");
  }
}

TEST(LookupEngineTest, EmptyEngineAndEmptyBags) {
  const PqShape shape{2, 3};
  ForestIndex forest(shape);
  auto empty_engine = LookupEngine::Build(forest, 4);
  EXPECT_EQ(empty_engine->size(), 0);
  EXPECT_TRUE(empty_engine->Lookup(PqGramIndex(shape), 1.0).empty());
  EXPECT_TRUE(empty_engine->TopK(PqGramIndex(shape), 5).empty());

  // A forest mixing empty and non-empty bags: two empty bags are at
  // distance 0 (union 0), an empty vs non-empty bag at distance 1.
  forest.AddIndex(7, PqGramIndex(shape));
  forest.AddIndex(9, PqGramIndex(shape));
  Rng rng(3);
  auto dict = std::make_shared<LabelDict>();
  for (TreeId id = 0; id < 6; ++id) {
    forest.AddTree(id, GenerateDblpLike(dict, &rng, 30));
  }

  const PqGramIndex empty_query(shape);
  const PqGramIndex full_query =
      BuildIndex(GenerateDblpLike(dict, &rng, 30), shape);
  ThreadPool pool(2);
  ExpectEngineMatchesScan(forest, empty_query, &pool);
  ExpectEngineMatchesScan(forest, full_query, &pool);

  // The empty query must find exactly the two empty-bag trees at tau 0.
  auto engine = LookupEngine::Build(forest, 2);
  std::vector<LookupResult> hits = engine->Lookup(empty_query, 0.0);
  ASSERT_EQ(hits.size(), 2u);
  EXPECT_EQ(hits[0].tree_id, 7);
  EXPECT_EQ(hits[1].tree_id, 9);
  EXPECT_EQ(hits[0].distance, 0.0);

  // The inverted index agrees on the empty-query edge case too.
  InvertedForestIndex inverted(forest);
  for (double tau : kTaus) {
    ExpectSameResults(inverted.Lookup(empty_query, tau),
                      forest.Lookup(empty_query, tau), "inverted empty");
  }
}

// Distances are never negative, so tau < 0 (however hostile: -inf, a
// huge negative, NaN) matches nothing -- on every structure, without
// hanging, aborting, or tripping UB. The forest includes an empty bag
// and the sweep an empty query, the one pair whose distance-0 result
// used to be appended unconditionally.
TEST(LookupEngineTest, HostileTauMatchesScanExactly) {
  const PqShape shape{2, 2};
  ForestIndex forest(shape);
  forest.AddIndex(3, PqGramIndex(shape));
  forest.AddTree(1, MustParse("a(b,c)"));
  forest.AddTree(2, MustParse("a(b,x)"));
  InvertedForestIndex inverted(forest);
  auto engine = LookupEngine::Build(forest, 2);
  ThreadPool pool(2);

  const double hostile[] = {-0.5, -1.0, -1e308,
                            -std::numeric_limits<double>::infinity(),
                            std::numeric_limits<double>::quiet_NaN()};
  const PqGramIndex queries[] = {BuildIndex(MustParse("a(b,c)"), shape),
                                 PqGramIndex(shape)};
  for (const PqGramIndex& query : queries) {
    for (double tau : hostile) {
      EXPECT_TRUE(forest.Lookup(query, tau).empty());
      EXPECT_TRUE(inverted.Lookup(query, tau).empty());
      EXPECT_TRUE(engine->Lookup(query, tau).empty());
      EXPECT_TRUE(engine->Lookup(query, tau, &pool).empty());
    }
  }
}

// Posting counts above INT32_MAX (legitimately reachable by
// accumulating edit deltas) must compile -- a live server republishes
// snapshots from such forests -- and must score exactly, not clamped.
TEST(LookupEngineTest, CountsBeyondInt32CompileAndScoreExactly) {
  const PqShape shape{2, 2};
  const int64_t kWide = int64_t{3} << 31;  // > INT32_MAX
  Tree doc = MustParse("a(b,c)");
  PqGramIndex huge = BuildIndex(doc, shape);
  const PqGramFingerprint fp = huge.counts().begin()->first;
  huge.Add(fp, kWide);

  ForestIndex forest(shape);
  forest.AddIndex(1, huge);
  forest.AddTree(2, MustParse("a(b,x)"));
  InvertedForestIndex inverted(forest);

  // The query's multiplicity for `fp` also exceeds int32, so
  // min(qcount, count) is decided by the exact wide count: a clamp at
  // INT32_MAX would shift the distance and fail the bit-identity check.
  PqGramIndex query = BuildIndex(doc, shape);
  query.Add(fp, kWide + 12345);

  ThreadPool pool(2);
  ExpectEngineMatchesScan(forest, query, &pool);
  ExpectEngineMatchesScan(forest, BuildIndex(doc, shape), &pool);
  auto engine = LookupEngine::Build(inverted, 2);
  for (double tau : kTaus) {
    ExpectSameResults(engine->Lookup(query, tau), forest.Lookup(query, tau),
                      "wide counts from inverted");
  }
  ExpectSameResults(engine->TopK(query, 2), forest.TopK(query, 2),
                    "wide counts topk");
}

TEST(LookupEngineTest, ThreeWayEquivalenceOnRandomForests) {
  Rng rng(17);
  auto dict = std::make_shared<LabelDict>();
  ThreadPool pool(4);
  for (int round = 0; round < 3; ++round) {
    const PqShape shape{2 + round % 2, 2 + round};
    ForestIndex forest(shape);
    InvertedForestIndex inverted(shape);
    const int trees = 20 + 15 * round;
    for (TreeId id = 0; id < trees; ++id) {
      Tree doc = round % 2 == 0 ? GenerateXmarkLike(dict, &rng, 120)
                                : GenerateDblpLike(dict, &rng, 80);
      forest.AddTree(id, doc);
      inverted.AddTree(id, doc);
    }
    inverted.CheckConsistency();

    for (int trial = 0; trial < 4; ++trial) {
      PqGramIndex query = BuildIndex(
          GenerateXmarkLike(dict, &rng, 120), shape);
      ExpectEngineMatchesScan(forest, query, &pool);
      auto engine = LookupEngine::Build(inverted, 5);
      for (double tau : kTaus) {
        std::vector<LookupResult> want = forest.Lookup(query, tau);
        ExpectSameResults(inverted.Lookup(query, tau), want, "inverted");
        ExpectSameResults(engine->Lookup(query, tau, &pool), want,
                          "engine from inverted");
      }
    }
  }
}

TEST(LookupEngineTest, StaysEquivalentAcrossEditLogEvolution) {
  Rng rng(29);
  auto dict = std::make_shared<LabelDict>();
  const PqShape shape{2, 3};
  ForestIndex forest(shape);
  InvertedForestIndex inverted(shape);
  std::vector<Tree> docs;
  for (TreeId id = 0; id < 12; ++id) {
    docs.push_back(GenerateDblpLike(dict, &rng, 60));
    forest.AddTree(id, docs.back());
    inverted.AddTree(id, docs.back());
  }

  ThreadPool pool(3);
  for (int round = 0; round < 5; ++round) {
    // Edit a few documents through the incremental path on both
    // maintainable structures, then recompile the snapshot.
    for (int e = 0; e < 4; ++e) {
      const TreeId id = static_cast<TreeId>(rng.NextBounded(docs.size()));
      EditLog log;
      GenerateEditScript(&docs[id], &rng, 12, EditScriptOptions{}, &log);
      ASSERT_TRUE(forest.ApplyLog(id, docs[id], log).ok());
      ASSERT_TRUE(inverted.ApplyLog(id, docs[id], log).ok());
    }
    inverted.CheckConsistency();

    PqGramIndex query = BuildIndex(
        docs[rng.NextBounded(docs.size())], shape);
    auto engine = LookupEngine::Build(inverted, 1 + round);
    for (double tau : kTaus) {
      std::vector<LookupResult> want = forest.Lookup(query, tau);
      ExpectSameResults(inverted.Lookup(query, tau), want, "inverted");
      ExpectSameResults(engine->Lookup(query, tau, &pool), want, "engine");
    }
  }
}

TEST(LookupEngineTest, TopKMatchesForestIndex) {
  Rng rng(41);
  auto dict = std::make_shared<LabelDict>();
  const PqShape shape{2, 3};
  ForestIndex forest(shape);
  for (TreeId id = 0; id < 40; ++id) {
    forest.AddTree(id, GenerateXmarkLike(dict, &rng, 90));
  }
  ThreadPool pool(4);
  for (int shards : {1, 4}) {
    auto engine = LookupEngine::Build(forest, shards);
    for (int trial = 0; trial < 3; ++trial) {
      PqGramIndex query = BuildIndex(
          GenerateXmarkLike(dict, &rng, 90), shape);
      for (int k : {0, 1, 3, 10, 40, 100}) {
        std::vector<LookupResult> want = forest.TopK(query, k);
        ExpectSameResults(engine->TopK(query, k), want, "topk sequential");
        ExpectSameResults(engine->TopK(query, k, &pool), want,
                          "topk parallel");
      }
    }
  }
}

// A bag of the given (fingerprint, count) tuples.
PqGramIndex HandBag(const PqShape& shape,
                    std::initializer_list<std::pair<PqGramFingerprint,
                                                    int64_t>> tuples) {
  PqGramIndex bag(shape);
  for (const auto& [fp, count] : tuples) bag.Add(fp, count);
  return bag;
}

TEST(LookupEngineTest, PruningStatsAccounting) {
  Rng rng(53);
  auto dict = std::make_shared<LabelDict>();
  const PqShape shape{2, 3};
  ForestIndex forest(shape);
  for (TreeId id = 0; id < 60; ++id) {
    forest.AddTree(id, GenerateXmarkLike(dict, &rng, 100));
  }
  auto engine = LookupEngine::Build(forest, 4);
  EXPECT_GT(engine->posting_entries(), 0);
  PqGramIndex query = BuildIndex(
      GenerateXmarkLike(dict, &rng, 100), shape);

  // Selective tau: every candidate is either pruned mid-accumulation or
  // reaches the final test; nothing is double-counted.
  LookupEngineStats selective;
  engine->Lookup(query, 0.2, nullptr, &selective);
  EXPECT_GT(selective.candidates, 0);
  EXPECT_GT(selective.postings_scanned, 0);
  EXPECT_EQ(selective.pruned + selective.scored, selective.candidates);

  // tau >= 1 admits everything: no pruning, every tree scored.
  LookupEngineStats everything;
  std::vector<LookupResult> all = engine->Lookup(query, 1.0, nullptr,
                                                 &everything);
  EXPECT_EQ(all.size(), static_cast<size_t>(forest.size()));
  EXPECT_EQ(everything.pruned, 0);
  EXPECT_EQ(everything.scored, forest.size());
  EXPECT_EQ(everything.probes, 0);

  // A tighter tau never scores more candidates than a looser one.
  LookupEngineStats loose;
  engine->Lookup(query, 0.8, nullptr, &loose);
  EXPECT_LE(selective.scored, loose.scored);
  EXPECT_EQ(loose.pruned + loose.scored, loose.candidates);

  // Ground truth for the prefix cut on a hand-built two-shard engine
  // (ids 0..39 in shard 0, 40..79 in shard 1, every tree of size 4 but
  // tree 42). Query Q = {f1, f2, f3, f4}, |Q| = 4, tau = 0.5: a size-4
  // tree needs overlap >= MinQualifyingOverlap(0.5, 8) = 2, and the ranked
  // lists' remaining gains are rest = {4, 3, 2, 1, 0}, so both shards cut
  // after the third list.
  //   Shard 0: tree 0 = {f1, f2, f3, f4}; trees 1..39 = {f4, g:3}. Lists
  //     f1, f2, f3 (1 posting each) admit tree 0; f4 (40 postings) is past
  //     the cut and longer than 16 per survivor, so tree 0 is galloped
  //     into it: 3 postings, 1 probe, 1 candidate, scored at distance 0.
  //   Shard 1: 40 = {f1, f2, g:2}, 41 = {f1, f3, f4, g}, 42 = {f2, g:19}
  //     (size 20: needs 6 of MinQualifyingOverlap(0.5, 24)), 43..47 =
  //     {f4, g:3}, 48..79 = {h:4}. Ranked f3 (1), f1 (2), f2 (2) admit
  //     41, 40, 42; 42 reaches 1 + 1 of its 6 and is pruned. f4 (6
  //     postings, 2 survivors) is scanned: 5 + 6 = 11 postings, 0 probes.
  // A scan without the cut would read 43 + 11 postings.
  const PqShape hand_shape{2, 2};
  const PqGramFingerprint f1 = 11, f2 = 12, f3 = 13, f4 = 14, g = 99,
                          h = 100;
  ForestIndex hand(hand_shape);
  hand.AddIndex(0, HandBag(hand_shape, {{f1, 1}, {f2, 1}, {f3, 1}, {f4, 1}}));
  for (TreeId id = 1; id < 40; ++id) {
    hand.AddIndex(id, HandBag(hand_shape, {{f4, 1}, {g, 3}}));
  }
  hand.AddIndex(40, HandBag(hand_shape, {{f1, 1}, {f2, 1}, {g, 2}}));
  hand.AddIndex(41, HandBag(hand_shape, {{f1, 1}, {f3, 1}, {f4, 1}, {g, 1}}));
  hand.AddIndex(42, HandBag(hand_shape, {{f2, 1}, {g, 19}}));
  for (TreeId id = 43; id < 48; ++id) {
    hand.AddIndex(id, HandBag(hand_shape, {{f4, 1}, {g, 3}}));
  }
  for (TreeId id = 48; id < 80; ++id) {
    hand.AddIndex(id, HandBag(hand_shape, {{h, 4}}));
  }
  auto two = LookupEngine::Build(hand, 2);
  ASSERT_EQ(two->ShardSizes(), (std::vector<int>{40, 40}));
  const PqGramIndex hand_query =
      HandBag(hand_shape, {{f1, 1}, {f2, 1}, {f3, 1}, {f4, 1}});

  ThreadPool pool(2);
  for (ThreadPool* p : {static_cast<ThreadPool*>(nullptr), &pool}) {
    LookupEngineStats stats;
    std::vector<LookupResult> got = two->Lookup(hand_query, 0.5, p, &stats);
    ExpectSameResults(got, hand.Lookup(hand_query, 0.5), "hand-built");
    ASSERT_EQ(got.size(), 3u);
    EXPECT_EQ(got[0].tree_id, 0);
    EXPECT_EQ(got[1].tree_id, 41);
    EXPECT_EQ(got[2].tree_id, 40);
    EXPECT_EQ(stats.postings_scanned, 3 + 11);
    EXPECT_EQ(stats.probes, 1);
    EXPECT_EQ(stats.candidates, 4);
    EXPECT_EQ(stats.pruned, 1);
    EXPECT_EQ(stats.scored, 3);
    EXPECT_EQ(stats.pruned + stats.scored, stats.candidates);
  }

  // tau >= 1 needs every exact overlap: no cut, every list scanned.
  LookupEngineStats uncut;
  ExpectSameResults(two->Lookup(hand_query, 1.0, nullptr, &uncut),
                    hand.Lookup(hand_query, 1.0), "hand-built tau 1");
  EXPECT_EQ(uncut.postings_scanned, 43 + 11);
  EXPECT_EQ(uncut.probes, 0);

  // The registry counters move by exactly the per-call stats.
  const Counter* postings =
      Metrics::Default().counter("lookup_engine.postings_scanned");
  const Counter* probes =
      Metrics::Default().counter("lookup_engine.verify_probes");
  const int64_t postings_before = postings->value();
  const int64_t probes_before = probes->value();
  two->Lookup(hand_query, 0.5);
  EXPECT_EQ(postings->value() - postings_before, 14);
  EXPECT_EQ(probes->value() - probes_before, 1);
}

// The prefix cut's shape from outside the engine, for a one-shard
// engine: query lists ranked by (length, fingerprint) with rest[j] the
// remaining query multiplicity, cut at the first rest[j] below the
// qualifying overlap of the smallest tree.
struct CutShape {
  int64_t prefix_postings = 0;  // postings of the lists before the cut
  int64_t total_postings = 0;   // postings of every query list
  size_t lists_past_cut = 0;
};

CutShape PrefixCutOf(const ForestIndex& forest, const PqGramIndex& query,
                     double tau) {
  std::map<PqGramFingerprint, int64_t> length;
  int64_t min_size = std::numeric_limits<int64_t>::max();
  for (TreeId id : forest.TreeIds()) {
    const PqGramIndex* bag = forest.Find(id);
    min_size = std::min(min_size, bag->size());
    for (const auto& [fp, count] : bag->counts()) {
      if (query.Count(fp) > 0) ++length[fp];
    }
  }
  std::vector<std::pair<int64_t, PqGramFingerprint>> ranked;
  for (const auto& [fp, len] : length) ranked.emplace_back(len, fp);
  std::sort(ranked.begin(), ranked.end());
  const int64_t u = query.size() + min_size;
  int64_t floor = 0;
  while (1.0 - 2.0 * static_cast<double>(floor) / static_cast<double>(u) >
         tau) {
    ++floor;
  }
  int64_t rest = 0;
  for (const auto& [len, fp] : ranked) rest += query.Count(fp);
  CutShape shape;
  bool cut = false;
  for (const auto& [len, fp] : ranked) {
    cut = cut || rest < floor;
    shape.total_postings += len;
    if (cut) {
      ++shape.lists_past_cut;
    } else {
      shape.prefix_postings += len;
    }
    rest -= query.Count(fp);
  }
  return shape;
}

// Randomized three-way equivalence (engine, forest scan, inverted index)
// under every compiled SIMD kernel, with the verification branches made
// to run: near-copies of one base document give the query a few close
// neighbours among many loose ones, so at tau 0.2 few candidates
// survive the cut and long lists are galloped (probes > 0), while at
// tau 0.9 many survive and the lists past the cut are scanned whole.
TEST(LookupEngineTest, PrefixCutThreeWayEquivalenceUnderEveryKernel) {
  ScopedSimdKernel restore;
  Rng rng(131);
  auto dict = std::make_shared<LabelDict>();
  const PqShape shape{2, 3};
  ForestIndex forest(shape);
  InvertedForestIndex inverted(shape);
  const Tree base = GenerateDblpLike(dict, &rng, 80);
  TreeId id = 0;
  for (; id < 6; ++id) {  // close neighbours of the base document
    Tree doc = base.Clone();
    EditLog log;
    GenerateEditScript(&doc, &rng, 3, EditScriptOptions{}, &log);
    forest.AddTree(id, doc);
    inverted.AddTree(id, doc);
  }
  for (; id < 120; ++id) {  // loose ones sharing its vocabulary
    Tree doc = GenerateDblpLike(dict, &rng, 80);
    forest.AddTree(id, doc);
    inverted.AddTree(id, doc);
  }
  // Empty bags ride along; tree 500 holds none of the query's tuples.
  forest.AddIndex(400, PqGramIndex(shape));
  inverted.AddIndex(400, PqGramIndex(shape));
  forest.AddIndex(500, HandBag(shape, {{1, 3}, {2, 1}}));
  inverted.AddIndex(500, HandBag(shape, {{1, 3}, {2, 1}}));

  Tree near = base.Clone();
  {
    EditLog log;
    GenerateEditScript(&near, &rng, 2, EditScriptOptions{}, &log);
  }
  const PqGramIndex query = BuildIndex(near, shape);
  const PqGramIndex queries[] = {query, PqGramIndex(shape),
                                 BuildIndex(GenerateDblpLike(dict, &rng, 80),
                                            shape)};
  const double taus[] = {0.0, 0.2, 0.5, 0.8, 0.99, 1.0};
  const double hostile[] = {-1e308, -std::numeric_limits<double>::infinity(),
                            std::numeric_limits<double>::quiet_NaN()};
  ThreadPool pool(3);

  for (SimdKernel kernel : kAllKernels) {
    if (!SetSimdKernelForTesting(kernel)) continue;
    const char* name = SimdKernelName(kernel);
    for (int shards : {1, 3, 16}) {
      auto engine = LookupEngine::Build(forest, shards);
      auto from_inverted = LookupEngine::Build(inverted, shards);
      for (const PqGramIndex& q : queries) {
        for (double tau : taus) {
          const std::vector<LookupResult> want = forest.Lookup(q, tau);
          ExpectSameResults(inverted.Lookup(q, tau), want, name);
          LookupEngineStats stats;
          ExpectSameResults(engine->Lookup(q, tau, nullptr, &stats), want,
                            name);
          if (tau < 1.0) {  // tau >= 1 scores every tree, candidate or not
            EXPECT_EQ(stats.pruned + stats.scored, stats.candidates) << name;
          }
          ExpectSameResults(engine->Lookup(q, tau, &pool), want, name);
          ExpectSameResults(from_inverted->Lookup(q, tau), want, name);
        }
        for (double tau : hostile) {
          EXPECT_TRUE(engine->Lookup(q, tau).empty()) << name;
        }
        ExpectSameResults(engine->TopK(q, 7), forest.TopK(q, 7), name);
        ExpectSameResults(engine->TopK(q, 7, &pool), forest.TopK(q, 7),
                          name);
      }
    }

    // Both verification branches, against the cut computed from outside.
    auto engine = LookupEngine::Build(forest, 1);
    const CutShape tight = PrefixCutOf(forest, query, 0.2);
    ASSERT_GT(tight.lists_past_cut, 0u);
    LookupEngineStats few;
    engine->Lookup(query, 0.2, nullptr, &few);
    EXPECT_GT(few.probes, 0) << name;
    EXPECT_GE(few.postings_scanned, tight.prefix_postings) << name;
    EXPECT_LT(few.postings_scanned, tight.total_postings) << name;

    const CutShape loose = PrefixCutOf(forest, query, 0.9);
    ASSERT_GT(loose.lists_past_cut, 0u);
    LookupEngineStats many;
    engine->Lookup(query, 0.9, nullptr, &many);
    EXPECT_EQ(many.probes, 0) << name;
    EXPECT_EQ(many.postings_scanned, loose.total_postings) << name;
    EXPECT_GT(many.scored, 6) << name;
  }
}

// A wide count (> INT32_MAX) read through the gallop branch: tree 0
// shares a wide tuple with the query before the cut, and its entry in
// the long list past the cut is itself wide, so verification must
// resolve the sentinel from the side map.
TEST(LookupEngineTest, WideCountThroughGallopVerification) {
  const PqShape shape{2, 2};
  const int64_t kWide = int64_t{3} << 31;  // > INT32_MAX
  const PqGramFingerprint fa = 5, fw = 6, g = 7;
  ForestIndex forest(shape);
  forest.AddIndex(0, HandBag(shape, {{fa, kWide}, {fw, kWide + 3}}));
  for (TreeId id = 1; id < 40; ++id) {
    forest.AddIndex(id, HandBag(shape, {{fw, 1}, {g, 3}}));
  }
  InvertedForestIndex inverted(forest);
  auto engine = LookupEngine::Build(forest, 1);
  const PqGramIndex query = HandBag(shape, {{fa, kWide + 1}, {fw, 2}});
  for (double tau : {0.4, 0.5, 0.8}) {
    const std::vector<LookupResult> want = forest.Lookup(query, tau);
    ASSERT_EQ(want.size(), 1u);
    LookupEngineStats stats;
    ExpectSameResults(engine->Lookup(query, tau, nullptr, &stats), want,
                      "wide count galloped");
    ExpectSameResults(inverted.Lookup(query, tau), want, "wide inverted");
    EXPECT_EQ(stats.probes, 1) << tau;
    EXPECT_EQ(stats.postings_scanned, 1) << tau;
  }
}

// Directory edge cases: shards of 0 and 1 fingerprints, and fingerprints
// that all share their top bits (one bucket holds every one of them) or
// sit at the extremes of the range. Every query tuple must still find
// its list, and merged shards must keep the freeze's directory.
TEST(LookupEngineTest, DirectoryEdgeCases) {
  const PqShape shape{2, 2};
  ForestIndex forest(shape);
  auto engine = LookupEngine::Build(forest, 2);
  const PqGramIndex probe = HandBag(shape, {{1, 1}, {~uint64_t{0}, 2}});
  EXPECT_TRUE(engine->Lookup(probe, 1.0).empty());

  forest.AddIndex(1, HandBag(shape, {{42, 2}}));  // one fingerprint
  engine = LookupEngine::Build(forest, 1);
  EXPECT_TRUE(engine->ShardMatchesFreezeForTesting(0, forest));
  const PqGramIndex one = HandBag(shape, {{42, 1}, {43, 1}});
  for (double tau : kTaus) {
    ExpectSameResults(engine->Lookup(one, tau), forest.Lookup(one, tau),
                      "one fingerprint");
  }

  // 300 small fingerprints (top bits all zero, so one bucket out of
  // many) plus a few at the top of the range (the last bucket).
  Rng rng(7);
  for (TreeId id = 2; id < 40; ++id) {
    PqGramIndex bag(shape);
    for (int i = 0; i < 20; ++i) {
      bag.Add(1 + rng.NextBounded(300), 1 + rng.NextBounded(3));
    }
    bag.Add(~uint64_t{0} - rng.NextBounded(4), 1);
    forest.AddIndex(id, std::move(bag));
  }
  PqGramIndex query(shape);
  for (int i = 0; i < 40; ++i) query.Add(1 + rng.NextBounded(300), 1);
  query.Add(~uint64_t{0}, 1);
  query.Add(~uint64_t{0} - 2, 2);
  for (int shards : {1, 2, 5}) {
    engine = LookupEngine::Build(forest, shards);
    for (int s = 0; s < engine->num_shards(); ++s) {
      EXPECT_TRUE(engine->ShardMatchesFreezeForTesting(s, forest));
    }
    for (double tau : kTaus) {
      ExpectSameResults(engine->Lookup(query, tau), forest.Lookup(query, tau),
                        "one-bucket directory");
    }
    ExpectSameResults(engine->TopK(query, 9), forest.TopK(query, 9),
                      "one-bucket directory topk");
  }
  // Merges keep the freeze's directory, down to an empty arena.
  engine = LookupEngine::Build(forest, 2);
  for (TreeId id = 1; id < 40; ++id) {
    forest.AddIndex(id, PqGramIndex(shape));
    engine = LookupEngine::ApplyDelta(engine, forest, {id});
    for (int s = 0; s < engine->num_shards(); ++s) {
      EXPECT_TRUE(engine->ShardMatchesFreezeForTesting(s, forest)) << id;
    }
  }
  ExpectSameResults(engine->Lookup(query, 0.5), forest.Lookup(query, 0.5),
                    "emptied arenas");
}

// Incremental snapshot maintenance: a randomized edit log evolves the
// forest (updates, inserts, removals, re-inserts) while ApplyDelta
// chains snapshot to snapshot; every epoch must stay result-identical
// to a from-scratch Build AND to the scan, across the full tau sweep.
TEST(LookupEngineTest, ApplyDeltaTracksEditLogEvolution) {
  Rng rng(83);
  auto dict = std::make_shared<LabelDict>();
  const PqShape shape{2, 3};
  ForestIndex forest(shape);
  std::map<TreeId, Tree> docs;
  for (TreeId id = 0; id < 14; ++id) {
    Tree doc = GenerateDblpLike(dict, &rng, 50);
    forest.AddTree(id, doc);
    docs.insert_or_assign(id, std::move(doc));
  }

  ThreadPool pool(3);
  auto engine = LookupEngine::Build(forest, 4);
  TreeId next_id = 14;
  for (int round = 0; round < 8; ++round) {
    std::vector<TreeId> changed;
    // Update a few documents through their edit logs.
    for (int e = 0; e < 3; ++e) {
      auto it = docs.begin();
      std::advance(it, static_cast<long>(rng.NextBounded(docs.size())));
      EditLog log;
      GenerateEditScript(&it->second, &rng, 10, EditScriptOptions{}, &log);
      ASSERT_TRUE(forest.ApplyLog(it->first, it->second, log).ok());
      changed.push_back(it->first);
    }
    // Remove one tree (the changed list carries the id; ApplyDelta sees
    // it absent from the forest) and insert a brand-new one.
    if (round % 2 == 0 && docs.size() > 4) {
      auto it = docs.begin();
      std::advance(it, static_cast<long>(rng.NextBounded(docs.size())));
      ASSERT_TRUE(forest.RemoveTree(it->first));
      changed.push_back(it->first);
      docs.erase(it);
    }
    {
      Tree doc = GenerateDblpLike(dict, &rng, 50);
      forest.AddTree(next_id, doc);
      changed.push_back(next_id);
      docs.insert_or_assign(next_id, std::move(doc));
      ++next_id;
    }

    engine = LookupEngine::ApplyDelta(engine, forest, changed);
    ASSERT_EQ(engine->size(), forest.size());
    auto rebuilt = LookupEngine::Build(forest, 4);
    ASSERT_EQ(engine->posting_entries(), rebuilt->posting_entries());

    PqGramIndex query =
        BuildIndex(docs.begin()->second, shape);
    for (double tau : kTaus) {
      std::vector<LookupResult> want = forest.Lookup(query, tau);
      ExpectSameResults(engine->Lookup(query, tau), want, "incremental");
      ExpectSameResults(engine->Lookup(query, tau, &pool), want,
                        "incremental parallel");
      ExpectSameResults(rebuilt->Lookup(query, tau), want, "rebuilt");
    }
    ExpectSameResults(engine->TopK(query, 5), forest.TopK(query, 5),
                      "incremental topk");
  }
}

// ApplyDelta edge cases: identity on an empty changed list, growth from
// an empty snapshot, evolution down to an empty forest and back, and
// shards whose counts exceed int32 surviving the merge.
TEST(LookupEngineTest, ApplyDeltaEdgeCasesAndWideCounts) {
  const PqShape shape{2, 2};
  const int64_t kWide = int64_t{3} << 31;  // > INT32_MAX
  ForestIndex forest(shape);
  auto engine = LookupEngine::Build(forest, 3);

  // Empty changed list: the same snapshot comes back.
  EXPECT_EQ(LookupEngine::ApplyDelta(engine, forest, {}).get(),
            engine.get());

  // Empty previous snapshot: every id routes into shard 0.
  Tree doc = MustParse("a(b,c)");
  PqGramIndex huge = BuildIndex(doc, shape);
  const PqGramFingerprint fp = huge.counts().begin()->first;
  huge.Add(fp, kWide);
  forest.AddIndex(1, huge);
  forest.AddTree(2, MustParse("a(b,x)"));
  forest.AddIndex(3, PqGramIndex(shape));  // empty bag rides along
  engine = LookupEngine::ApplyDelta(engine, forest, {1, 2, 3});
  ASSERT_EQ(engine->size(), 3);

  PqGramIndex query = BuildIndex(doc, shape);
  query.Add(fp, kWide + 12345);
  ThreadPool pool(2);
  for (double tau : kTaus) {
    ExpectSameResults(engine->Lookup(query, tau), forest.Lookup(query, tau),
                      "wide counts via ApplyDelta");
  }
  const double hostile[] = {-0.5, -1.0, -1e308,
                            -std::numeric_limits<double>::infinity(),
                            std::numeric_limits<double>::quiet_NaN()};
  for (double tau : hostile) {
    EXPECT_TRUE(engine->Lookup(query, tau).empty());
    EXPECT_TRUE(engine->Lookup(query, tau, &pool).empty());
  }

  // Evolve the wide-count bag (still wide) through another delta.
  huge.Add(fp, 7);
  forest.AddIndex(1, huge);
  engine = LookupEngine::ApplyDelta(engine, forest, {1});
  for (double tau : kTaus) {
    ExpectSameResults(engine->Lookup(query, tau), forest.Lookup(query, tau),
                      "wide counts evolved");
  }

  // Remove everything, then repopulate from the empty snapshot.
  ASSERT_TRUE(forest.RemoveTree(1));
  ASSERT_TRUE(forest.RemoveTree(2));
  ASSERT_TRUE(forest.RemoveTree(3));
  engine = LookupEngine::ApplyDelta(engine, forest, {1, 2, 3});
  ASSERT_EQ(engine->size(), 0);
  EXPECT_TRUE(engine->Lookup(query, 1.0).empty());
  forest.AddTree(9, MustParse("a(b,c)"));
  engine = LookupEngine::ApplyDelta(engine, forest, {9});
  ASSERT_EQ(engine->size(), 1);
  for (double tau : kTaus) {
    ExpectSameResults(engine->Lookup(query, tau), forest.Lookup(query, tau),
                      "repopulated from empty");
  }
}

// Exactness of one snapshot against `forest`: every shard equals a
// from-scratch freeze of its tree set (the merge must be bit-identical
// to a Build, wide counts included), the shards hold exactly the
// forest's trees, and Lookup/TopK match the scan bit for bit.
void ExpectExactSnapshot(const LookupEngine& engine, const ForestIndex& forest,
                         const PqGramIndex& query, const char* what) {
  ASSERT_EQ(engine.size(), forest.size()) << what;
  const std::vector<int> sizes = engine.ShardSizes();
  int total = 0;
  for (int s = 0; s < engine.num_shards(); ++s) {
    EXPECT_TRUE(engine.ShardMatchesFreezeForTesting(s, forest))
        << what << " shard " << s;
    total += sizes[static_cast<size_t>(s)];
  }
  EXPECT_EQ(total, forest.size()) << what;
  int64_t postings = 0;
  for (TreeId id : forest.TreeIds()) {
    postings += static_cast<int64_t>(forest.Find(id)->counts().size());
  }
  EXPECT_EQ(engine.posting_entries(), postings) << what;
  // The point probes and the bag walk read the forest back exactly.
  std::vector<TreeId> walked;
  engine.ForEachBag([&](TreeId id, const PqGramIndex& bag) {
    walked.push_back(id);
    const PqGramIndex* want = forest.Find(id);
    ASSERT_NE(want, nullptr) << what << " walked tree " << id;
    EXPECT_TRUE(bag == *want) << what << " walked tree " << id;
    EXPECT_TRUE(engine.Contains(id)) << what;
    for (const auto& [fp, count] : want->counts()) {
      EXPECT_EQ(engine.Count(id, fp), count) << what << " tree " << id;
      EXPECT_EQ(engine.Count(id, fp + 1), want->Count(fp + 1)) << what;
    }
  });
  EXPECT_EQ(walked, forest.TreeIds()) << what;
  for (double tau : kTaus) {
    ExpectSameResults(engine.Lookup(query, tau), forest.Lookup(query, tau),
                      what);
  }
  for (int k : {1, 5, forest.size() + 1}) {
    ExpectSameResults(engine.TopK(query, k), forest.TopK(query, k), what);
  }
}

// The Lemma 2 form of one tree's change from `old` to `next`: `plus`
// gets the counts `next` gains, `minus` the counts it loses.
void Lemma2Delta(const PqGramIndex& old, const PqGramIndex& next,
                 PqGramIndex* plus, PqGramIndex* minus) {
  for (const auto& [fp, count] : next.counts()) {
    plus->Add(fp, std::max<int64_t>(0, count - old.Count(fp)));
  }
  for (const auto& [fp, count] : old.counts()) {
    minus->Add(fp, std::max<int64_t>(0, count - next.Count(fp)));
  }
}

// The merge under random Lemma 2 updates, several kinds in one publish:
// count deltas from edit logs (a fingerprint in both plus and minus
// included), deltas that cancel every old count to zero and bring new
// fingerprints, adds below the first shard's range, above the last and
// into the gaps between, empty bags, removals (one of an id never
// indexed), and counts crossing INT32_MAX in both directions. After
// every publish each shard must equal a from-scratch freeze of the same
// trees, and the probes and the bag walk must read the forest back.
TEST(LookupEngineTest, ApplyDeltaMergeEqualsFreshFreeze) {
  Rng rng(97);
  auto dict = std::make_shared<LabelDict>();
  const PqShape shape{2, 3};
  const int64_t kWide = int64_t{3} << 31;  // > INT32_MAX
  ForestIndex forest(shape);
  // Trees whose bag still matches their document (edit-log targets).
  std::map<TreeId, Tree> docs;
  // Even ids 100..158: odd ids and ids outside [100, 158] are free.
  for (TreeId id = 100; id < 160; id += 2) {
    Tree doc = GenerateDblpLike(dict, &rng, 30);
    forest.AddTree(id, doc);
    docs.insert_or_assign(id, std::move(doc));
  }
  PqGramIndex query = BuildIndex(docs.begin()->second, shape);
  const PqGramFingerprint wide_fp = query.counts().begin()->first;
  query.Add(wide_fp, kWide + 7);

  auto engine = LookupEngine::Build(forest, 4);
  ExpectExactSnapshot(*engine, forest, query, "initial");
  const Counter* repartitions =
      Metrics::Default().counter("lookup_engine.repartitions");
  TreeId below = 99;
  TreeId above = 160;
  std::map<TreeId, int64_t> widened;  // tree -> count added on wide_fp
  for (int round = 0; round < 40; ++round) {
    std::deque<PqGramIndex> bags;  // stable addresses for `updates`
    std::vector<LookupEngine::TreeUpdate> updates;
    auto pick = [&] {
      auto it = docs.begin();
      std::advance(it, static_cast<long>(rng.NextBounded(docs.size())));
      return it;
    };
    auto touched = [&](TreeId id) {
      for (const LookupEngine::TreeUpdate& u : updates) {
        if (u.id == id) return true;
      }
      return false;
    };
    // A count delta: folded into the oracle and queued for the engine.
    auto fold = [&](TreeId id, PqGramIndex plus, PqGramIndex minus) {
      PqGramIndex next = *forest.Find(id);
      for (const auto& [fp, count] : plus.counts()) next.Add(fp, count);
      for (const auto& [fp, count] : minus.counts()) next.Remove(fp, count);
      forest.AddIndex(id, std::move(next));
      const PqGramIndex* p = &bags.emplace_back(std::move(plus));
      updates.push_back({id, false, p, &bags.emplace_back(std::move(minus))});
    };
    auto replace = [&](TreeId id, const PqGramIndex* bag) {
      updates.push_back({id, true, bag, nullptr});
    };
    switch (round % 5) {
      case 0: {  // edit-log deltas, one carrying a fingerprint both ways
        for (int e = 0; e < 3; ++e) {
          auto it = pick();
          if (touched(it->first)) continue;
          const PqGramIndex old = *forest.Find(it->first);
          EditLog log;
          GenerateEditScript(&it->second, &rng, 8, EditScriptOptions{},
                             &log);
          ASSERT_TRUE(forest.ApplyLog(it->first, it->second, log).ok());
          PqGramIndex plus(shape);
          PqGramIndex minus(shape);
          Lemma2Delta(old, *forest.Find(it->first), &plus, &minus);
          if (e == 0 && !old.empty()) {
            plus.Add(old.counts().begin()->first, 2);
            minus.Add(old.counts().begin()->first, 2);
          }
          forest.AddIndex(it->first, old);
          fold(it->first, std::move(plus), std::move(minus));
        }
        break;
      }
      case 1: {  // removals, then every old count cancelled to zero
        for (int e = 0; e < 2 && docs.size() > 6; ++e) {
          auto it = pick();
          ASSERT_TRUE(forest.RemoveTree(it->first));
          replace(it->first, nullptr);
          widened.erase(it->first);
          docs.erase(it);
        }
        replace(1000000, nullptr);
        auto it = pick();
        PqGramIndex plus(shape);
        for (int i = 0; i < 5; ++i) plus.Add(rng.Next() | 1, 1 + i);
        const TreeId id = it->first;
        widened.erase(id);
        docs.erase(it);
        fold(id, std::move(plus), *forest.Find(id));
        break;
      }
      case 2: {  // adds below the first range and above the last
        for (TreeId id : {below--, above++, below--}) {
          Tree doc = GenerateDblpLike(dict, &rng, 30);
          forest.AddTree(id, doc);
          docs.insert_or_assign(id, std::move(doc));
          replace(id, forest.Find(id));
        }
        break;
      }
      case 3: {  // an empty add, a gap add, a tree emptied by its delta
        forest.AddIndex(below, PqGramIndex(shape));
        replace(below, forest.Find(below));
        --below;
        for (TreeId id = 101; id < 160; id += 2) {
          if (forest.Find(id) == nullptr) {
            Tree doc = GenerateDblpLike(dict, &rng, 30);
            forest.AddTree(id, doc);
            docs.insert_or_assign(id, std::move(doc));
            replace(id, forest.Find(id));
            break;
          }
        }
        auto it = pick();
        if (!touched(it->first)) {
          const TreeId id = it->first;
          widened.erase(id);
          docs.erase(it);
          fold(id, PqGramIndex(shape), *forest.Find(id));
        }
        break;
      }
      case 4: {  // a count grown beyond INT32_MAX; an older one shrunk back
        if (!widened.empty()) {
          const auto [id, added] = *widened.begin();
          widened.erase(widened.begin());
          PqGramIndex minus(shape);
          minus.Add(wide_fp, added);
          fold(id, PqGramIndex(shape), std::move(minus));
        }
        auto it = pick();
        if (touched(it->first)) break;
        PqGramIndex plus(shape);
        plus.Add(wide_fp, kWide + round);
        widened[it->first] = kWide + round;
        fold(it->first, std::move(plus), PqGramIndex(shape));
        break;
      }
    }
    // Replacements read their bag from `forest`, which must not move
    // the bags any more until the publish: take them only now.
    for (LookupEngine::TreeUpdate& u : updates) {
      if (u.replace) u.plus = forest.Find(u.id);
    }
    const std::vector<uint64_t> before = engine->ShardUids();
    const int64_t repartitions_before = repartitions->value();
    engine = LookupEngine::ApplyDelta(engine, updates);
    ExpectExactSnapshot(*engine, forest, query, "evolved");
    // Without a re-partition, shards that received no update are
    // shared, not rewritten.
    const std::vector<uint64_t> after = engine->ShardUids();
    if (repartitions->value() == repartitions_before) {
      ASSERT_EQ(after.size(), before.size());
      int shared = 0;
      for (size_t s = 0; s < after.size(); ++s) {
        shared += after[s] == before[s] ? 1 : 0;
      }
      EXPECT_GE(shared, static_cast<int>(after.size()) -
                            static_cast<int>(updates.size()));
    }
  }
}

// An empty engine grows by sequential adds (each id above every range,
// so all of them route to the last shard): the engine re-partitions
// itself whenever a shard exceeds twice its fair share, and stays
// exact throughout.
TEST(LookupEngineTest, SequentialAddsStayBalancedAndExact) {
  Rng rng(101);
  auto dict = std::make_shared<LabelDict>();
  const PqShape shape{2, 3};
  constexpr int kShards = 4;
  ForestIndex forest(shape);
  auto engine = LookupEngine::Build(forest, kShards);
  ASSERT_EQ(engine->size(), 0);
  PqGramIndex query =
      BuildIndex(GenerateDblpLike(dict, &rng, 30), shape);
  int repartitions = 0;
  for (TreeId id = 0; id < 80; ++id) {
    forest.AddTree(id, GenerateDblpLike(dict, &rng, 30));
    const std::vector<uint64_t> before = engine->ShardUids();
    engine =
        LookupEngine::ApplyDelta(engine, {{id, true, forest.Find(id)}});
    const std::vector<uint64_t> after = engine->ShardUids();
    // A merge keeps every untouched shard; a re-partition mints all-new
    // uids (and may change the shard count).
    bool any_shared = false;
    for (uint64_t uid : after) {
      any_shared = any_shared ||
                   std::find(before.begin(), before.end(), uid) !=
                       before.end();
    }
    if (!any_shared && after.size() > 1) ++repartitions;
    ExpectExactSnapshot(*engine, forest, query, "sequential adds");
    const int n = id + 1;
    const int fair = (n + kShards - 1) / kShards;
    const std::vector<int> sizes = engine->ShardSizes();
    EXPECT_LE(*std::max_element(sizes.begin(), sizes.end()), 2 * fair)
        << "after " << n << " adds";
    EXPECT_LE(engine->num_shards(), kShards);
  }
  EXPECT_EQ(engine->num_shards(), kShards);
  // Each re-partition leaves the last shard a quarter of the forest; it
  // next overflows once the forest has grown by about half.
  EXPECT_GT(repartitions, 0);
  EXPECT_LE(repartitions, 10);
}

// Named to run in the TSan CI job: readers race an engine-swapping
// writer through the same shared_ptr slot pqidxd uses.
TEST(LookupEngineParallelTest, ConcurrentLookupsDuringSnapshotSwaps) {
  Rng rng(67);
  auto dict = std::make_shared<LabelDict>();
  const PqShape shape{2, 3};
  ForestIndex forest(shape);
  std::vector<Tree> docs;
  for (TreeId id = 0; id < 16; ++id) {
    docs.push_back(GenerateDblpLike(dict, &rng, 50));
    forest.AddTree(id, docs.back());
  }

  std::mutex engine_mutex;
  std::shared_ptr<const LookupEngine> engine = LookupEngine::Build(forest, 2);
  std::atomic<bool> stop{false};
  std::atomic<int64_t> lookups_done{0};

  // Writer: keeps editing the forest and publishing fresh snapshots.
  std::thread writer([&] {
    Rng wrng(71);
    for (int round = 0; round < 40; ++round) {
      const TreeId id = static_cast<TreeId>(wrng.NextBounded(docs.size()));
      EditLog log;
      GenerateEditScript(&docs[id], &wrng, 6, EditScriptOptions{}, &log);
      ASSERT_TRUE(forest.ApplyLog(id, docs[id], log).ok());
      auto fresh = LookupEngine::Build(forest, 1 + round % 4);
      std::lock_guard<std::mutex> lock(engine_mutex);
      engine = std::move(fresh);
    }
    stop.store(true);
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&, r] {
      Rng rrng(100 + r);
      auto query_doc = GenerateDblpLike(nullptr, &rrng, 50);
      PqGramIndex query = BuildIndex(query_doc, shape);
      while (!stop.load()) {
        std::shared_ptr<const LookupEngine> snapshot;
        {
          std::lock_guard<std::mutex> lock(engine_mutex);
          snapshot = engine;
        }
        // Scoring runs entirely on the private snapshot copy; the writer
        // may swap (and free the previous engine) at any point.
        std::vector<LookupResult> hits = snapshot->Lookup(query, 0.9);
        for (size_t i = 1; i < hits.size(); ++i) {
          ASSERT_TRUE(hits[i - 1].distance < hits[i].distance ||
                      (hits[i - 1].distance == hits[i].distance &&
                       hits[i - 1].tree_id < hits[i].tree_id));
        }
        lookups_done.fetch_add(1);
      }
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();
  EXPECT_GT(lookups_done.load(), 0);

  // After the dust settles the final snapshot matches the final forest.
  PqGramIndex query = BuildIndex(docs[0], shape);
  for (double tau : kTaus) {
    ExpectSameResults(engine->Lookup(query, tau), forest.Lookup(query, tau),
                      "final snapshot");
  }
}

// Incremental variant: epochs chain through ApplyDelta, so consecutive
// snapshots SHARE untouched shards. Readers score shards the writer is
// concurrently sharing into new epochs and releasing from old ones --
// the exact aliasing pqidxd produces under pipelined commits (TSan job).
TEST(LookupEngineParallelTest, ConcurrentLookupsDuringIncrementalSwaps) {
  Rng rng(73);
  auto dict = std::make_shared<LabelDict>();
  const PqShape shape{2, 3};
  ForestIndex forest(shape);
  std::vector<Tree> docs;
  for (TreeId id = 0; id < 16; ++id) {
    docs.push_back(GenerateDblpLike(dict, &rng, 50));
    forest.AddTree(id, docs.back());
  }

  std::mutex engine_mutex;
  std::shared_ptr<const LookupEngine> engine = LookupEngine::Build(forest, 4);
  std::atomic<bool> stop{false};
  std::atomic<int64_t> lookups_done{0};

  std::thread writer([&] {
    Rng wrng(79);
    auto current = engine;
    for (int round = 0; round < 40; ++round) {
      const TreeId id = static_cast<TreeId>(wrng.NextBounded(docs.size()));
      EditLog log;
      GenerateEditScript(&docs[id], &wrng, 6, EditScriptOptions{}, &log);
      ASSERT_TRUE(forest.ApplyLog(id, docs[id], log).ok());
      current = LookupEngine::ApplyDelta(current, forest, {id});
      std::lock_guard<std::mutex> lock(engine_mutex);
      engine = current;
    }
    stop.store(true);
  });

  std::vector<std::thread> readers;
  for (int r = 0; r < 4; ++r) {
    readers.emplace_back([&, r] {
      Rng rrng(200 + r);
      auto query_doc = GenerateDblpLike(nullptr, &rrng, 50);
      PqGramIndex query = BuildIndex(query_doc, shape);
      while (!stop.load()) {
        std::shared_ptr<const LookupEngine> snapshot;
        {
          std::lock_guard<std::mutex> lock(engine_mutex);
          snapshot = engine;
        }
        std::vector<LookupResult> hits = snapshot->Lookup(query, 0.9);
        for (size_t i = 1; i < hits.size(); ++i) {
          ASSERT_TRUE(hits[i - 1].distance < hits[i].distance ||
                      (hits[i - 1].distance == hits[i].distance &&
                       hits[i - 1].tree_id < hits[i].tree_id));
        }
        lookups_done.fetch_add(1);
      }
    });
  }
  writer.join();
  for (std::thread& t : readers) t.join();
  EXPECT_GT(lookups_done.load(), 0);

  PqGramIndex query = BuildIndex(docs[0], shape);
  for (double tau : kTaus) {
    ExpectSameResults(engine->Lookup(query, tau), forest.Lookup(query, tau),
                      "final incremental snapshot");
  }
}

TEST(SimdIntersectTest, GallopLowerBoundMatchesStdLowerBound) {
  Rng rng(41);
  for (int trial = 0; trial < 200; ++trial) {
    const size_t n = rng.NextBounded(64);
    std::vector<uint64_t> data(n);
    for (uint64_t& v : data) v = rng.NextBounded(96);
    std::sort(data.begin(), data.end());
    const size_t begin = n == 0 ? 0 : rng.NextBounded(n + 1);
    // Probe present values, absent values, and the extremes.
    const uint64_t probes[] = {0, rng.NextBounded(100), 95, 96,
                               std::numeric_limits<uint64_t>::max()};
    for (uint64_t target : probes) {
      const size_t want =
          std::lower_bound(data.begin() + begin, data.end(), target) -
          data.begin();
      EXPECT_EQ(GallopLowerBound(data.data(), n, begin, target), want)
          << "n=" << n << " begin=" << begin << " target=" << target;
    }
  }
}

// ComputeContribs must agree with the obvious scalar loop on every
// supported kernel, across lengths that straddle every vector-tail
// boundary, with the kWideCount sentinel (-1) passed through intact.
TEST(SimdIntersectTest, ComputeContribsMatchesScalarReference) {
  ScopedSimdKernel restore;
  Rng rng(43);
  const int32_t qcounts[] = {0, 1, 7, std::numeric_limits<int32_t>::max()};
  for (size_t n : {size_t{0}, size_t{1}, size_t{3}, size_t{7}, size_t{8},
                   size_t{15}, size_t{16}, size_t{17}, size_t{33},
                   size_t{70}}) {
    std::vector<int32_t> pairs(2 * n);
    for (size_t i = 0; i < n; ++i) {
      pairs[2 * i] = static_cast<int32_t>(rng.NextBounded(1 << 20));
      // Mix small counts, INT32_MAX, and the wide-count sentinel.
      const uint64_t pick = rng.NextBounded(10);
      pairs[2 * i + 1] =
          pick == 0 ? -1
          : pick == 1
              ? std::numeric_limits<int32_t>::max()
              : static_cast<int32_t>(rng.NextBounded(1000));
    }
    for (int32_t qcount : qcounts) {
      std::vector<int32_t> want_slots(n), want_contribs(n);
      for (size_t i = 0; i < n; ++i) {
        want_slots[i] = pairs[2 * i];
        want_contribs[i] = std::min(pairs[2 * i + 1], qcount);
        if (pairs[2 * i + 1] == -1) want_contribs[i] = -1;
      }
      for (SimdKernel kernel : kAllKernels) {
        if (!SetSimdKernelForTesting(kernel)) continue;
        std::vector<int32_t> slots(n), contribs(n);
        ComputeContribs(pairs.data(), n, qcount, slots.data(),
                        contribs.data());
        for (size_t i = 0; i < n; ++i) {
          ASSERT_EQ(slots[i], want_slots[i])
              << SimdKernelName(kernel) << " n=" << n << " i=" << i;
          ASSERT_EQ(contribs[i], want_contribs[i])
              << SimdKernelName(kernel) << " n=" << n << " i=" << i
              << " qcount=" << qcount;
        }
      }
    }
  }
}

// Every available kernel must produce results bit-identical to the
// forest scan AND to the forced-scalar engine, across random forests,
// the full tau sweep, hostile taus, wide counts, and TopK.
TEST(SimdIntersectTest, AllKernelsBitIdenticalToScalarOnRandomForests) {
  ScopedSimdKernel restore;
  Rng rng(47);
  auto dict = std::make_shared<LabelDict>();
  ThreadPool pool(4);

  const PqShape shape{2, 3};
  ForestIndex forest(shape);
  for (TreeId id = 0; id < 40; ++id) {
    Tree doc = id % 2 == 0 ? GenerateXmarkLike(dict, &rng, 100)
                           : GenerateDblpLike(dict, &rng, 70);
    forest.AddTree(id, doc);
  }
  // A wide-count bag so min(qcount, count) exercises the sentinel path.
  const int64_t kWide = int64_t{3} << 31;
  Tree wide_doc = MustParse("a(b,c)");
  PqGramIndex wide_bag = BuildIndex(wide_doc, shape);
  const PqGramFingerprint wide_fp = wide_bag.counts().begin()->first;
  wide_bag.Add(wide_fp, kWide);
  forest.AddIndex(1000, wide_bag);

  std::vector<PqGramIndex> queries;
  for (int q = 0; q < 3; ++q) {
    queries.push_back(BuildIndex(GenerateDblpLike(dict, &rng, 60), shape));
  }
  PqGramIndex wide_query = BuildIndex(wide_doc, shape);
  wide_query.Add(wide_fp, kWide + 999);
  queries.push_back(std::move(wide_query));
  queries.push_back(PqGramIndex(shape));

  const double hostile[] = {-0.5, -1e308,
                            -std::numeric_limits<double>::infinity(),
                            std::numeric_limits<double>::quiet_NaN()};

  for (int shards : {1, 4}) {
    ASSERT_TRUE(SetSimdKernelForTesting(SimdKernel::kScalar));
    auto scalar_engine = LookupEngine::Build(forest, shards);
    for (SimdKernel kernel : kAllKernels) {
      // A rejected kernel (wrong architecture / missing CPU feature)
      // leaves the previous selection in place.
      if (!SetSimdKernelForTesting(kernel)) continue;
      auto engine = LookupEngine::Build(forest, shards);
      for (const PqGramIndex& query : queries) {
        for (double tau : kTaus) {
          std::vector<LookupResult> want = forest.Lookup(query, tau);
          ExpectSameResults(engine->Lookup(query, tau), want,
                            SimdKernelName(kernel));
          ExpectSameResults(engine->Lookup(query, tau, &pool), want,
                            SimdKernelName(kernel));
          // The snapshot built under the scalar kernel answers
          // identically when scored by this kernel (same arenas).
          ExpectSameResults(scalar_engine->Lookup(query, tau), want,
                            "scalar snapshot under forced kernel");
        }
        for (double tau : hostile) {
          EXPECT_TRUE(engine->Lookup(query, tau).empty())
              << SimdKernelName(kernel);
        }
        for (int k : {0, 1, 5, 100}) {
          ExpectSameResults(engine->TopK(query, k), forest.TopK(query, k),
                            SimdKernelName(kernel));
        }
      }
    }
  }
}

}  // namespace
}  // namespace pqidx
