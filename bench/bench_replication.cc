// Replication bench: what a warm standby buys over rebuilding readers
// from scratch (src/service/replication.h). Two numbers on one
// 10k-tree leader:
//
//   1. full-scan bootstrap -- MaterializeForest + LookupEngine::Build
//      over the whole store: the no-replication way to stand up a
//      reader, and the cost any follower restart would pay if catch-up
//      re-scanned everything.
//   2. warm catch-up -- a standby provisioned from a backup of the
//      leader (same content, same cursor) restarts having missed ~1%
//      of the committed batches; the leader streams only those deltas
//      and the follower's apply thread coalesces them into a handful
//      of WAL transactions (the O(delta) claim).
//
// The gate (this PR's acceptance bar): streaming + applying the missed
// 1% must be at least 5x faster than the full scan. The warm restart's
// end-to-end time still includes reopening the store and rebuilding the
// serving snapshot -- costs any restart pays regardless of mechanism --
// so the gate compares the catch-up mechanism itself (post-handshake
// stream + apply) against the full scan it replaces. Catch-up has a
// near-constant fsync floor while the full scan grows with the forest,
// so the bar is only meaningful near full scale; shrunken runs
// (PQIDX_BENCH_SCALE < 0.5) report the ratio without enforcing it.
//
// Not in the paper: the paper covers the index algorithms; this
// measures the serving layer's replication path. --json[=PATH] or
// PQIDX_BENCH_JSON captures BENCH_REPL.json, registry included.

#include <cstdio>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.h"
#include "common/metrics.h"
#include "common/random.h"
#include "core/forest_index.h"
#include "core/incremental.h"
#include "core/lookup_engine.h"
#include "service/client.h"
#include "service/replication.h"
#include "service/server.h"
#include "service/transport.h"
#include "storage/sharded_store.h"
#include "tree/generators.h"

using namespace pqidx;
using namespace pqidx::bench;

namespace {

void RemoveStore(const std::string& path) {
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
}

// Page pool sized for the 10k-tree store: the default 256 pages
// thrashes a forest this large into pathological numbers.
constexpr int kPoolPages = 16384;

// 10k trees across the default 16 shards puts ~600 trees in every
// shard, so each single-batch commit recompiles ~600 postings lists.
// Sharding harder keeps the incremental publish incremental.
constexpr int kLookupShards = 64;

FollowerOptions MakeFollowerOptions(PipeListener* leader_point,
                                    const std::string& store_path) {
  FollowerOptions options;
  options.dial = [leader_point] { return leader_point->Connect(); };
  options.store_path = store_path;
  options.pool_pages = kPoolPages;
  options.server.slow_op_us = -1;
  options.server.lookup_shards = kLookupShards;
  options.backoff.initial_backoff_us = 1000;
  options.backoff.max_backoff_us = 50000;
  return options;
}

// Bulk-loads `bags` into a fresh store at `path`, stamping the given
// replication cursor, then closes it (ingest at 10k trees dominates the
// bench's wall clock, so the store is seeded once and cloned).
bool SeedStore(const std::string& path, const PqShape& shape,
               const std::vector<PqGramIndex>& bags, uint64_t cursor) {
  StatusOr<std::unique_ptr<ShardedStore>> created =
      ShardedStore::Create(path, shape, /*shards=*/1, kPoolPages);
  if (!created.ok()) return false;
  std::unique_ptr<ShardedStore> store = std::move(created).value();
  std::vector<std::pair<TreeId, const PqGramIndex*>> pairs;
  pairs.reserve(bags.size());
  for (size_t i = 0; i < bags.size(); ++i) {
    pairs.emplace_back(static_cast<TreeId>(i), &bags[i]);
  }
  return store->BulkAdd(pairs, nullptr, cursor).ok();
}

// Byte-for-byte store clone: how a real standby gets provisioned from a
// backup. The source must be closed (no WAL outstanding).
bool CloneStore(const std::string& from, const std::string& to) {
  std::FILE* in = std::fopen(from.c_str(), "rb");
  if (in == nullptr) return false;
  std::FILE* out = std::fopen(to.c_str(), "wb");
  if (out == nullptr) {
    std::fclose(in);
    return false;
  }
  std::vector<char> buffer(1 << 20);
  bool ok = true;
  for (;;) {
    size_t n = std::fread(buffer.data(), 1, buffer.size(), in);
    if (n == 0) break;
    if (std::fwrite(buffer.data(), 1, n, out) != n) {
      ok = false;
      break;
    }
  }
  ok = ok && std::ferror(in) == 0;
  std::fclose(in);
  ok = std::fclose(out) == 0 && ok;
  return ok;
}

}  // namespace

int main(int argc, char** argv) {
  ReportBuilder report("REPL", argc, argv);
  const PqShape shape{2, 3};
  const int kTrees = Scaled(10000);
  const int kNodes = 30;
  const int kMissed = kTrees / 100 > 0 ? kTrees / 100 : 1;
  // The fsync floor under catch-up makes the 5x bar unreachable on tiny
  // forests; only enforce it when the run is at (near) full scale
  // (RequireAtScale below uses the matching scale threshold).
  const bool kEnforceGate = kTrees >= 5000;
  const std::string leader_path = BenchTempPath("repl_leader.idx");
  const std::string follower_path = BenchTempPath("repl_follower.idx");
  RemoveStore(leader_path);
  RemoveStore(follower_path);

  // Seed the leader with the forest at cursor 1, then clone the file as
  // the standby (a restored backup of the leader, not an empty store --
  // cold snapshot bootstrap is a different, test-covered path).
  Rng rng(4242);
  auto dict = std::make_shared<LabelDict>();
  std::vector<PqGramIndex> bags;
  bags.reserve(static_cast<size_t>(kTrees));
  for (int i = 0; i < kTrees; ++i) {
    bags.push_back(BuildIndex(GenerateDblpLike(dict, &rng, kNodes), shape));
  }
  if (!SeedStore(leader_path, shape, bags, 1)) return 1;
  bags.clear();
  bags.shrink_to_fit();
  if (!CloneStore(leader_path, follower_path)) return 1;
  StatusOr<std::unique_ptr<ShardedStore>> opened =
      ShardedStore::Open(leader_path, kPoolPages);
  if (!opened.ok()) return 1;
  std::unique_ptr<ShardedStore> store = std::move(opened).value();

  PrintHeader("replication: bootstrap and catch-up (" +
              std::to_string(kTrees) + " trees)");

  // --- Section 1: full-scan bootstrap ------------------------------------
  const double full_scan_s = TimeIt([&] {
    StatusOr<ForestIndex> forest = store->MaterializeForest();
    if (!forest.ok()) std::exit(1);
    std::shared_ptr<const LookupEngine> engine =
        LookupEngine::Build(*forest, 16);
    if (engine == nullptr) std::exit(1);
  });
  std::printf("%-32s %11.1f ms\n", "full-scan bootstrap", full_scan_s * 1e3);
  report.Add("forest_trees", kTrees);
  report.Add("bootstrap_full_scan_ms", full_scan_s * 1e3, "ms");

  ServerOptions options;
  options.max_connections = 4;
  options.slow_op_us = -1;
  options.lookup_shards = kLookupShards;
  Server server(store.get(), options);
  auto listener = std::make_unique<PipeListener>();
  PipeListener* connect_point = listener.get();
  if (!server.Start(std::move(listener)).ok()) return 1;

  // --- Section 2: warm catch-up ------------------------------------------
  // The standby is down while the leader commits kMissed more batches
  // (~1% of the forest); on restart the leader streams only those.
  {
    StatusOr<std::unique_ptr<Client>> client =
        Client::ConnectWithRetry([&] { return connect_point->Connect(); });
    if (!client.ok()) return 1;
    const double missed_s = TimeIt([&] {
      for (int i = 0; i < kMissed; ++i) {
        const TreeId id = static_cast<TreeId>(kTrees + i);
        PqGramIndex bag =
            BuildIndex(GenerateDblpLike(dict, &rng, kNodes), shape);
        if (!(*client)->AddIndex(id, bag).ok()) std::exit(1);
      }
    });
    (*client)->Close();
    std::printf("%-32s %11.1f ms  (%d batches)\n", "leader missed traffic",
                missed_s * 1e3, kMissed);
  }
  {
    Follower warm(MakeFollowerOptions(connect_point, follower_path));
    WallTimer timer;
    if (!warm.Start().ok()) return 1;
    const double start_s = timer.Seconds();
    if (!warm.WaitForCursor(server.hub()->last_ticket(), 300000)) {
      std::fprintf(stderr, "warm catch-up never converged\n");
      return 1;
    }
    const double total_s = timer.Seconds();
    const double apply_s = total_s - start_s;
    const bool delta_only = warm.snapshot_resyncs() == 0;
    warm.Stop();
    if (!delta_only) {
      std::fprintf(stderr, "warm catch-up fell back to a snapshot\n");
      return 1;
    }
    std::printf("%-32s %11.1f ms\n", "warm restart (end to end)",
                total_s * 1e3);
    std::printf("%-32s %11.1f ms  (%d missed batches)\n",
                "warm catch-up (stream + apply)", apply_s * 1e3, kMissed);
    report.Add("missed_batches", kMissed);
    report.Add("catchup_warm_total_ms", total_s * 1e3, "ms");
    report.Add("catchup_warm_ms", apply_s * 1e3, "ms");
    const double speedup = apply_s > 0 ? full_scan_s / apply_s : 0;
    std::printf("%-32s %11.1fx%s\n", "catch-up vs full scan", speedup,
                kEnforceGate ? "" : "  (gate waived at reduced scale)");
    report.Add("catchup_vs_full_scan", speedup, "x");

    server.Stop();
    RemoveStore(leader_path);
    RemoveStore(follower_path);
    report.AddRegistry();

    report.RequireAtScale(speedup >= 5.0, 0.5,
                          "catch-up speedup below the 5x bar");
  }
  return report.ExitCode();
}
