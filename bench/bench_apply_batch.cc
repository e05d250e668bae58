// Write-path microbench: the halves of a pqidxd commit, measured in
// isolation. Section 1 times snapshot publish on a 10k-tree forest --
// full LookupEngine::Build versus the ApplyDelta merge a single-edit
// commit performs -- and reports the speedup (the acceptance bar is
// >= 5x; only 1 of ~16 shards is merged, the rest are shared). Section 2
// sweeps PersistentForestIndex::ApplyBatch over batch size x edit size,
// plus BulkAdd ingest. Section 3 is the sharded-store gate: the same
// batched-update workload against a single-shard store and a 4-shard
// ShardedStore -- one pager, WAL, and group-commit lane per shard, the
// lanes fanned across a pool -- must clear a 2x ingest throughput bar at
// full scale.
//
// Not in the paper: the paper's update experiments (Figs 13-14) measure
// the algorithmic log-update; this measures the serving substrate this
// repo builds around it. Emits BENCH_WRITE.json with --json[=PATH] or
// PQIDX_BENCH_JSON, including the full metrics registry section.

#include <unistd.h>

#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/metrics.h"
#include "common/random.h"
#include "common/thread_pool.h"
#include "core/forest_index.h"
#include "core/lookup_engine.h"
#include "core/pqgram_index.h"
#include "storage/persistent_forest_index.h"
#include "storage/sharded_store.h"

using namespace pqidx;
using namespace pqidx::bench;

namespace {

PqGramIndex RandomBag(const PqShape& shape, Rng* rng, int tuples) {
  PqGramIndex bag(shape);
  for (int i = 0; i < tuples; ++i) {
    bag.Add(static_cast<PqGramFingerprint>(rng->Next()), 1);
  }
  return bag;
}

}  // namespace

int main(int argc, char** argv) {
  ReportBuilder report("WRITE", argc, argv);
  const PqShape shape{2, 3};

  // --- Section 1: incremental vs full snapshot publish -----------------
  // The server publishes a fresh immutable lookup snapshot after every
  // committed batch. A full Build compiles the whole forest; a
  // single-edit commit merges the edited tree's new bag into the one
  // shard owning it and shares the other shards with the previous epoch.
  const int kForestTrees = Scaled(10000);
  const int kBagTuples = 40;
  const int kShards = 16;
  const int kFullReps = 3;
  const int kIncrReps = 32;

  Rng rng(42);
  ForestIndex forest(shape);
  for (TreeId id = 0; id < kForestTrees; ++id) {
    forest.AddIndex(id, RandomBag(shape, &rng, kBagTuples));
  }

  std::shared_ptr<const LookupEngine> engine;
  double full_s = 0;
  for (int rep = 0; rep < kFullReps; ++rep) {
    const double s = TimeIt([&] { engine = LookupEngine::Build(forest, kShards); });
    if (rep == 0 || s < full_s) full_s = s;
  }

  double incr_s_total = 0;
  for (int rep = 0; rep < kIncrReps; ++rep) {
    // One single-tree edit per publish, the common interactive case.
    TreeId id = static_cast<TreeId>(rng.NextBounded(
        static_cast<uint64_t>(kForestTrees)));
    forest.AddIndex(id, RandomBag(shape, &rng, kBagTuples));
    incr_s_total += TimeIt([&] {
      engine = LookupEngine::ApplyDelta(engine, forest, {id});
    });
  }
  const double incr_s = incr_s_total / kIncrReps;
  const double publish_speedup = incr_s > 0 ? full_s / incr_s : 0;

  PrintHeader("snapshot publish: full Build vs incremental ApplyDelta");
  std::printf("%d trees, %d shards, single-edit commits\n", kForestTrees,
              kShards);
  std::printf("%-32s %12.3f ms\n", "full Build (best of 3)", full_s * 1e3);
  std::printf("%-32s %12.3f ms\n", "incremental ApplyDelta (mean)",
              incr_s * 1e3);
  std::printf("%-32s %11.1fx\n", "publish speedup", publish_speedup);
  report.Add("publish_forest_trees", kForestTrees);
  report.Add("publish_full_ms", full_s * 1e3, "ms");
  report.Add("publish_incremental_ms", incr_s * 1e3, "ms");
  report.Add("publish_speedup", publish_speedup, "x");

  // --- Section 2: ApplyBatch sweep ---------------------------------------
  // Batched edits against the persistent store: the delta phase nets the
  // batch's tuple deltas per key in bucket order, then one WAL
  // transaction commits them. Edits/s per cell.
  PrintHeader("ApplyBatch: batch size x edit size");
  const int kStoreTrees = 512;
  const int kStoreBagTuples = 40;
  const std::string path = BenchTempPath("apply_batch.idx");
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());

  StatusOr<std::unique_ptr<PersistentForestIndex>> store =
      PersistentForestIndex::Create(path, shape);
  if (!store.ok()) {
    std::fprintf(stderr, "create: %s\n", store.status().ToString().c_str());
    return 1;
  }
  // Seed via BulkAdd, timing the ingest on the way.
  std::vector<PqGramIndex> seed_bags;
  seed_bags.reserve(static_cast<size_t>(kStoreTrees));
  for (int i = 0; i < kStoreTrees; ++i) {
    seed_bags.push_back(RandomBag(shape, &rng, kStoreBagTuples));
  }
  std::vector<std::pair<TreeId, const PqGramIndex*>> refs;
  for (int i = 0; i < kStoreTrees; ++i) {
    refs.emplace_back(static_cast<TreeId>(i), &seed_bags[static_cast<size_t>(i)]);
  }
  const double ingest_s = TimeIt([&] {
    if (Status s = (*store)->BulkAdd(refs); !s.ok()) {
      std::fprintf(stderr, "bulk add: %s\n", s.ToString().c_str());
      std::exit(1);
    }
  });
  std::printf("%-32s %12.3f ms (%d bags)\n", "BulkAdd ingest",
              ingest_s * 1e3, kStoreTrees);
  report.Add("bulk_add_ms", ingest_s * 1e3, "ms");

  std::printf("\n%10s %10s %14s %12s\n", "batch", "tuples", "edits/s",
              "delta [us]");
  for (int batch_size : {1, 16, 128}) {
    for (int edit_tuples : {4, 32}) {
      const int kRounds = Scaled(8);
      double total_s = 0;
      int64_t total_edits = 0;
      int64_t delta_us = 0;
      for (int round = 0; round < kRounds; ++round) {
        // Fresh plus-bags each round; empty minus keeps every edit a
        // valid update without tracking store contents.
        std::vector<PqGramIndex> plus;
        PqGramIndex minus(shape);
        plus.reserve(static_cast<size_t>(batch_size));
        for (int b = 0; b < batch_size; ++b) {
          plus.push_back(RandomBag(shape, &rng, edit_tuples));
        }
        std::vector<PersistentForestIndex::BatchEdit> edits;
        for (int b = 0; b < batch_size; ++b) {
          PersistentForestIndex::BatchEdit edit;
          edit.id = static_cast<TreeId>(
              (round * batch_size + b) % kStoreTrees);
          edit.plus = &plus[static_cast<size_t>(b)];
          edit.minus = &minus;
          edits.push_back(edit);
        }
        std::vector<Status> results;
        PersistentForestIndex::ApplyBatchTimings timings;
        total_s += TimeIt([&] {
          Status s = (*store)->ApplyBatch(edits, &results, &timings);
          if (!s.ok()) {
            std::fprintf(stderr, "apply: %s\n", s.ToString().c_str());
            std::exit(1);
          }
        });
        total_edits += batch_size;
        delta_us += timings.delta_us;
      }
      const double edits_per_s = total_s > 0 ? total_edits / total_s : 0;
      std::printf("%10d %10d %14.0f %12lld\n", batch_size, edit_tuples,
                  edits_per_s, static_cast<long long>(delta_us / kRounds));
      const std::string cell = "_b" + std::to_string(batch_size) + "_e" +
                               std::to_string(edit_tuples);
      report.Add("apply_edits_per_s" + cell, edits_per_s, "edits/s");
      report.Add("apply_delta_us" + cell,
                 static_cast<double>(delta_us / kRounds), "us");
    }
  }
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());

  // --- Section 3: sharded store write throughput (the gate) -------------
  // Identical write traffic against one store and a 4-shard
  // ShardedStore. Each shard owns a pager, WAL, and hash table, so a
  // group commit runs 4 independent prepare lanes (delta staging, WAL
  // write, in-WAL table apply) across the pool where the single store
  // serializes everything behind one WAL (and ignores the pool). The
  // gate is ingest (BulkAdd), whose serial insert loop is the single
  // store's CPU bottleneck; the batched-update numbers ride along with a
  // per-phase split -- their commit cost is WAL bytes, which sharding
  // spreads but the shared disk still absorbs, so the update speedup is
  // reported, not gated.
  PrintHeader("sharded store: 1 shard vs 4 shards, same write traffic");
  const int kGateTrees = Scaled(8192);
  const int kGateBatch = 256;
  const int kGateTuples = 32;
  const int kGateRounds = Scaled(12);
  ThreadPool pool(4);
  std::vector<PqGramIndex> gate_bags;
  gate_bags.reserve(static_cast<size_t>(kGateTrees));
  for (int i = 0; i < kGateTrees; ++i) {
    gate_bags.push_back(RandomBag(shape, &rng, kStoreBagTuples));
  }
  std::vector<std::pair<TreeId, const PqGramIndex*>> gate_refs;
  for (int i = 0; i < kGateTrees; ++i) {
    gate_refs.emplace_back(static_cast<TreeId>(i),
                           &gate_bags[static_cast<size_t>(i)]);
  }
  double trees_per_s[2] = {0, 0};
  double edits_per_s[2] = {0, 0};
  int64_t phase_us[2][4] = {{0, 0, 0, 0}, {0, 0, 0, 0}};
  for (int pass = 0; pass < 2; ++pass) {
    const int shards = pass == 0 ? 1 : 4;
    // tmpfs when available: the gate measures the store's commit lanes,
    // not the box's disk bandwidth (WAL bytes are identical either way).
    const std::string store_path =
        (::access("/dev/shm", W_OK) == 0 ? std::string("/dev/shm")
                                         : std::string("/tmp")) +
        "/pqidx_bench_sharded.store";
    // Same total page-cache budget either way: one 16k-page pool, or
    // 4k pages per shard (the default 256 thrashes at this scale).
    StatusOr<std::unique_ptr<ShardedStore>> sharded = ShardedStore::Create(
        store_path, shape, shards, /*pool_pages=*/16384 / shards);
    if (!sharded.ok()) {
      std::fprintf(stderr, "create: %s\n",
                   sharded.status().ToString().c_str());
      return 1;
    }
    const double ingest_s = TimeIt([&] {
      if (!(*sharded)->BulkAdd(gate_refs, &pool).ok()) std::exit(1);
    });
    trees_per_s[pass] = ingest_s > 0 ? kGateTrees / ingest_s : 0;
    double total_s = 0;
    int64_t total_edits = 0;
    for (int round = 0; round < kGateRounds; ++round) {
      std::vector<PqGramIndex> plus;
      PqGramIndex minus(shape);
      plus.reserve(static_cast<size_t>(kGateBatch));
      for (int b = 0; b < kGateBatch; ++b) {
        plus.push_back(RandomBag(shape, &rng, kGateTuples));
      }
      std::vector<PersistentForestIndex::BatchEdit> edits;
      for (int b = 0; b < kGateBatch; ++b) {
        PersistentForestIndex::BatchEdit edit;
        edit.id = static_cast<TreeId>((round * kGateBatch + b) % kGateTrees);
        edit.plus = &plus[static_cast<size_t>(b)];
        edit.minus = &minus;
        edits.push_back(edit);
      }
      std::vector<Status> results;
      PersistentForestIndex::ApplyBatchTimings timings;
      total_s += TimeIt([&] {
        if (!(*sharded)->ApplyBatch(edits, &results, &timings, &pool).ok()) {
          std::exit(1);
        }
      });
      total_edits += kGateBatch;
      phase_us[pass][0] += timings.validate_us;
      phase_us[pass][1] += timings.delta_us;
      phase_us[pass][2] += timings.update_us;
      phase_us[pass][3] += timings.storage_us;
    }
    edits_per_s[pass] = total_s > 0 ? total_edits / total_s : 0;
    std::printf("%d shard%s ingest %12.0f trees/s   update %10.0f edits/s\n"
                "          (val %lld  delta %lld  update %lld  storage %lld "
                "us/batch)\n",
                shards, shards == 1 ? ", " : "s,", trees_per_s[pass],
                edits_per_s[pass],
                static_cast<long long>(phase_us[pass][0] / kGateRounds),
                static_cast<long long>(phase_us[pass][1] / kGateRounds),
                static_cast<long long>(phase_us[pass][2] / kGateRounds),
                static_cast<long long>(phase_us[pass][3] / kGateRounds));
    report.Add(std::string("sharded_ingest_trees_per_s_n") +
                   std::to_string(shards),
               trees_per_s[pass], "trees/s");
    report.Add(std::string("sharded_edits_per_s_n") + std::to_string(shards),
               edits_per_s[pass], "edits/s");
    sharded->reset();
    std::remove((store_path + "/MANIFEST").c_str());
    for (int k = 0; k < shards; ++k) {
      char name[16];
      std::snprintf(name, sizeof(name), "shard-%04d", k);
      const std::string shard_file = store_path + "/" + name;
      std::remove(shard_file.c_str());
      std::remove((shard_file + ".wal").c_str());
    }
    ::rmdir(store_path.c_str());
    std::remove(store_path.c_str());
    std::remove((store_path + ".wal").c_str());
  }
  const double shard_speedup =
      trees_per_s[0] > 0 ? trees_per_s[1] / trees_per_s[0] : 0;
  const double update_speedup =
      edits_per_s[0] > 0 ? edits_per_s[1] / edits_per_s[0] : 0;
  std::printf("%-32s %11.2fx\n", "4-shard ingest speedup", shard_speedup);
  std::printf("%-32s %11.2fx\n", "4-shard update speedup", update_speedup);
  report.Add("sharded_write_speedup", shard_speedup, "x");
  report.Add("sharded_update_speedup", update_speedup, "x");

  report.AddRegistry();

  report.Require(publish_speedup >= 5.0,
                 "incremental publish speedup below the 5x bar");
  // The 2x bar needs the shard lanes to actually run concurrently: on a
  // machine with fewer cores than lanes the sweep measures the CPU, not
  // the commit protocol, so the gate is waived the same way reduced
  // scale waives the others (the ratio is still reported above).
  const unsigned kCores = std::thread::hardware_concurrency();
  if (kCores >= 4) {
    report.RequireAtScale(shard_speedup >= 2.0, 0.5,
                          "4-shard ingest throughput below the 2x bar");
  } else {
    std::printf("(2x shard gate waived: %u core%s cannot run 4 commit "
                "lanes concurrently)\n",
                kCores, kCores == 1 ? "" : "s");
  }
  return report.ExitCode();
}
