// Load generator for pqidxd (src/service): N client threads fire a mixed
// lookup/edit workload at one in-process server and report throughput,
// latency percentiles, and -- the number this bench exists for -- the
// group-commit batching factor edits_applied / edit_commits. With many
// concurrent writers that factor must be well above 1: independent edits
// of different trees ride the same WAL transaction and fsync pair.
//
// Not in the paper: the paper measures the index algorithms themselves;
// this measures the serving layer built on top of them. Workload knobs:
// PQIDX_BENCH_SCALE multiplies request counts; --json[=PATH] or
// PQIDX_BENCH_JSON captures the metrics as BENCH_*.json.

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "bench_util.h"
#include "common/metrics.h"
#include "common/random.h"
#include "core/pqgram_index.h"
#include "service/client.h"
#include "service/server.h"
#include "service/transport.h"
#include "storage/sharded_store.h"
#include "tree/generators.h"

using namespace pqidx;
using namespace pqidx::bench;

namespace {

struct ClientResult {
  std::vector<double> lookup_s;
  std::vector<double> edit_s;
  int failures = 0;
};

// Transient connect failures (e.g. admission control while client
// threads ramp up) retry with backoff instead of failing the run.
BackoffPolicy ConnectRetryPolicy() {
  BackoffPolicy policy;
  policy.max_attempts = 5;
  return policy;
}

// Lookup-only sweep: `readers` concurrent clients hammer a read-only
// server with lookups against an established forest. Since the server
// scores against its epoch-published snapshot without taking index_mutex_,
// throughput should grow with the reader count. With `topk` >= 0 the
// readers issue kTopK requests (the wire-level top-k opcode) instead of
// threshold lookups. Returns requests/second, or a negative value on
// failure.
double RunReaderSweep(int readers, const PqShape& shape,
                      std::vector<double>* latencies, int topk = -1) {
  const int kForestTrees = 64;
  const int kLookupsPerReader = Scaled(200);
  const int kTreeNodes = 60;
  const std::string path = BenchTempPath("service_readers.idx");
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());

  StatusOr<std::unique_ptr<ShardedStore>> index =
      ShardedStore::Create(path, shape);
  if (!index.ok()) return -1;
  ServerOptions options;
  options.max_connections = readers + 1;
  Server server(index->get(), options);
  auto listener = std::make_unique<PipeListener>();
  PipeListener* connect_point = listener.get();
  if (!server.Start(std::move(listener)).ok()) return -1;

  // One writer seeds the forest, then the sweep is pure reads.
  Rng seed_rng(7000);
  auto dict = std::make_shared<LabelDict>();
  {
    StatusOr<std::unique_ptr<Client>> client = Client::ConnectWithRetry(
        [&] { return connect_point->Connect(); }, ConnectRetryPolicy());
    if (!client.ok()) return -1;
    for (TreeId id = 0; id < kForestTrees; ++id) {
      Tree tree = GenerateDblpLike(dict, &seed_rng, kTreeNodes);
      if (!(*client)->AddIndex(id, BuildIndex(tree, shape)).ok()) return -1;
    }
    (*client)->Close();
  }

  std::vector<ClientResult> results(static_cast<size_t>(readers));
  std::atomic<bool> ok{true};
  WallTimer total;
  std::vector<std::thread> threads;
  for (int c = 0; c < readers; ++c) {
    threads.emplace_back([&, c] {
      StatusOr<std::unique_ptr<Client>> client = Client::ConnectWithRetry(
          [&] { return connect_point->Connect(); }, ConnectRetryPolicy());
      if (!client.ok()) { ok.store(false); return; }
      Rng rng(8000 + c);
      // LabelDict::Intern is unsynchronized: each reader interns into
      // its own dict, never the seeding writer's.
      auto reader_dict = std::make_shared<LabelDict>();
      PqGramIndex query =
          BuildIndex(GenerateDblpLike(reader_dict, &rng, kTreeNodes), shape);
      ClientResult& r = results[static_cast<size_t>(c)];
      for (int i = 0; i < kLookupsPerReader; ++i) {
        WallTimer timer;
        StatusOr<std::vector<LookupResult>> hits =
            topk >= 0 ? (*client)->TopK(query, topk)
                      : (*client)->Lookup(query, 0.6);
        r.lookup_s.push_back(timer.Seconds());
        if (!hits.ok()) ++r.failures;
      }
      (*client)->Close();
    });
  }
  for (std::thread& t : threads) t.join();
  const double wall_s = total.Seconds();
  server.Stop();
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());

  double requests = 0;
  for (ClientResult& r : results) {
    if (r.failures > 0) ok.store(false);
    requests += static_cast<double>(r.lookup_s.size());
    latencies->insert(latencies->end(), r.lookup_s.begin(),
                      r.lookup_s.end());
  }
  if (!ok.load() || wall_s <= 0) return -1;
  return requests / wall_s;
}

// One configuration of the write workload: `writers` concurrent clients,
// each owning a disjoint tree range, fire a write_pct% edit / rest lookup
// mix at a server over a store of `shards` shards (the server fans each
// group commit across min(shards, cores) threads when shards > 1).
struct WriteWorkloadConfig {
  int writers = 4;
  int write_pct = 90;
  int shards = 1;
};

// Returns requests/second (negative on failure); appends edit latencies
// and reports the group-commit batching factor and the total time the
// server spent publishing snapshots through the out-params.
double RunWriteWorkload(const WriteWorkloadConfig& cfg, const PqShape& shape,
                        std::vector<double>* edit_latencies,
                        double* batching_out, double* publish_s_out) {
  const int kSeedTrees = 512;  // big enough that publishes cost real time
  const int kTreesPerWriter = 8;
  const int kRequestsPerWriter = Scaled(150);
  const int kTreeNodes = 50;
  // A private directory per run: a sharded store is itself a directory.
  ScopedTempDir dir;
  if (!dir.ok()) return -1;
  const std::string path = dir.File("service_write.idx");

  StatusOr<std::unique_ptr<ShardedStore>> index =
      ShardedStore::Create(path, shape, cfg.shards);
  if (!index.ok()) return -1;
  ServerOptions options;
  options.max_connections = cfg.writers + 1;
  Server server(index->get(), options);
  auto listener = std::make_unique<PipeListener>();
  PipeListener* connect_point = listener.get();
  if (!server.Start(std::move(listener)).ok()) return -1;

  // Seed a background forest so every snapshot publish has real weight:
  // each commit merges the shard owning the touched tree.
  {
    Rng rng(9100);
    auto dict = std::make_shared<LabelDict>();
    StatusOr<std::unique_ptr<Client>> client = Client::ConnectWithRetry(
        [&] { return connect_point->Connect(); }, ConnectRetryPolicy());
    if (!client.ok()) return -1;
    for (TreeId id = 0; id < kSeedTrees; ++id) {
      Tree tree = GenerateDblpLike(dict, &rng, kTreeNodes);
      TreeId seed_id = static_cast<TreeId>(1000000 + id);
      if (!(*client)->AddIndex(seed_id, BuildIndex(tree, shape)).ok()) {
        return -1;
      }
    }
    (*client)->Close();
  }

  std::vector<ClientResult> results(static_cast<size_t>(cfg.writers));
  std::atomic<bool> ok{true};
  WallTimer total;
  std::vector<std::thread> threads;
  for (int c = 0; c < cfg.writers; ++c) {
    threads.emplace_back([&, c] {
      StatusOr<std::unique_ptr<Client>> client = Client::ConnectWithRetry(
          [&] { return connect_point->Connect(); }, ConnectRetryPolicy());
      if (!client.ok()) { ok.store(false); return; }
      Rng rng(9200 + c);
      auto dict = std::make_shared<LabelDict>();
      ClientResult& r = results[static_cast<size_t>(c)];
      std::vector<PqGramIndex> bags;
      for (int t = 0; t < kTreesPerWriter; ++t) {
        TreeId id = static_cast<TreeId>(c * kTreesPerWriter + t);
        Tree tree = GenerateDblpLike(dict, &rng, kTreeNodes);
        PqGramIndex bag = BuildIndex(tree, shape);
        if (!(*client)->AddIndex(id, bag).ok()) ++r.failures;
        bags.push_back(std::move(bag));
      }
      for (int i = 0; i < kRequestsPerWriter; ++i) {
        int t = static_cast<int>(rng.NextBounded(kTreesPerWriter));
        TreeId id = static_cast<TreeId>(c * kTreesPerWriter + t);
        PqGramIndex& bag = bags[static_cast<size_t>(t)];
        if (static_cast<int>(rng.NextBounded(100)) < cfg.write_pct) {
          PqGramIndex plus(shape);
          PqGramIndex minus(shape);
          if (!bag.counts().empty()) {
            auto tuple = bag.counts().begin();
            minus.Add(tuple->first, 1);
            plus.Add(tuple->first, 1);
          }
          plus.Add(static_cast<PqGramFingerprint>(rng.Next()), 1);
          WallTimer timer;
          Status s = (*client)->ApplyDeltas(id, plus, minus, 1);
          r.edit_s.push_back(timer.Seconds());
          if (s.ok()) {
            for (const auto& [fp, count] : plus.counts()) bag.Add(fp, count);
            for (const auto& [fp, count] : minus.counts()) {
              bag.Remove(fp, count);
            }
          } else {
            ++r.failures;
          }
        } else {
          WallTimer timer;
          StatusOr<std::vector<LookupResult>> hits =
              (*client)->Lookup(bag, 0.6);
          r.lookup_s.push_back(timer.Seconds());
          if (!hits.ok()) ++r.failures;
        }
      }
      (*client)->Close();
    });
  }
  for (std::thread& t : threads) t.join();
  const double wall_s = total.Seconds();
  ServiceStats stats = server.stats();
  server.Stop();

  double requests = 0;
  for (ClientResult& r : results) {
    if (r.failures > 0) ok.store(false);
    requests += static_cast<double>(r.lookup_s.size() + r.edit_s.size());
    edit_latencies->insert(edit_latencies->end(), r.edit_s.begin(),
                           r.edit_s.end());
  }
  *batching_out = stats.edit_commits > 0
                      ? static_cast<double>(stats.edits_applied) /
                            static_cast<double>(stats.edit_commits)
                      : 0;
  *publish_s_out = static_cast<double>(stats.snapshot_rebuild_us) * 1e-6;
  if (!ok.load() || wall_s <= 0) return -1;
  return requests / wall_s;
}

}  // namespace

int main(int argc, char** argv) {
  ReportBuilder report("service_loadgen", argc, argv);
  const PqShape shape{2, 3};
  const int kClients = 8;
  const int kTreesPerClient = 8;
  const int kRequestsPerClient = Scaled(300);
  const int kTreeNodes = 60;
  const std::string path = BenchTempPath("service.idx");

  StatusOr<std::unique_ptr<ShardedStore>> index =
      ShardedStore::Create(path, shape);
  if (!index.ok()) {
    std::fprintf(stderr, "create: %s\n", index.status().ToString().c_str());
    return 1;
  }

  ServerOptions options;
  options.max_connections = kClients;
  // A small leadership hold magnifies the batching window the same way a
  // real disk's fsync latency would (these runs sit on tmpfs-fast SSDs).
  options.commit_hold_us = 200;
  Server server(index->get(), options);
  auto listener = std::make_unique<PipeListener>();
  PipeListener* connect_point = listener.get();
  if (Status s = server.Start(std::move(listener)); !s.ok()) {
    std::fprintf(stderr, "start: %s\n", s.ToString().c_str());
    return 1;
  }

  PrintHeader("pqidxd load generator (in-process pipe transport)");
  std::printf("%d clients x %d requests, %d trees/client of ~%d nodes, "
              "mixed ~70%% lookups / ~30%% incremental edits\n\n",
              kClients, kRequestsPerClient, kTreesPerClient, kTreeNodes);

  std::vector<ClientResult> results(kClients);
  std::atomic<bool> ok{true};
  WallTimer total;
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      StatusOr<std::unique_ptr<Client>> client = Client::ConnectWithRetry(
          [&] { return connect_point->Connect(); }, ConnectRetryPolicy());
      if (!client.ok()) { ok.store(false); return; }
      Rng rng(1000 + c);
      auto dict = std::make_shared<LabelDict>();
      ClientResult& r = results[static_cast<size_t>(c)];

      // Each client owns a disjoint id range, so every edit is
      // independent and the group-commit batches are pure win.
      std::vector<PqGramIndex> bags;
      for (int t = 0; t < kTreesPerClient; ++t) {
        TreeId id = static_cast<TreeId>(c * kTreesPerClient + t);
        Tree tree = GenerateDblpLike(dict, &rng, kTreeNodes);
        PqGramIndex bag = BuildIndex(tree, shape);
        if (!(*client)->AddIndex(id, bag).ok()) ++r.failures;
        bags.push_back(std::move(bag));
      }

      for (int i = 0; i < kRequestsPerClient; ++i) {
        int t = static_cast<int>(rng.NextBounded(kTreesPerClient));
        TreeId id = static_cast<TreeId>(c * kTreesPerClient + t);
        PqGramIndex& bag = bags[static_cast<size_t>(t)];
        if (rng.NextBounded(10) < 7) {
          WallTimer timer;
          StatusOr<std::vector<LookupResult>> hits =
              (*client)->Lookup(bag, 0.6);
          r.lookup_s.push_back(timer.Seconds());
          if (!hits.ok()) ++r.failures;
        } else {
          // Synthesize a small independent delta: retract one tuple
          // occurrence and add it back plus a fresh synthetic tuple.
          PqGramIndex plus(shape);
          PqGramIndex minus(shape);
          if (!bag.counts().empty()) {
            auto tuple = bag.counts().begin();
            minus.Add(tuple->first, 1);
            plus.Add(tuple->first, 1);
          }
          plus.Add(static_cast<PqGramFingerprint>(rng.Next()), 1);
          WallTimer timer;
          Status s = (*client)->ApplyDeltas(id, plus, minus, 1);
          r.edit_s.push_back(timer.Seconds());
          if (s.ok()) {
            for (const auto& [fp, count] : plus.counts()) {
              bag.Add(fp, count);
            }
            for (const auto& [fp, count] : minus.counts()) {
              bag.Remove(fp, count);
            }
          } else {
            ++r.failures;
          }
        }
      }
      (*client)->Close();
    });
  }
  for (std::thread& t : threads) t.join();
  double wall_s = total.Seconds();
  server.Stop();

  std::vector<double> lookups, edits;
  int failures = 0;
  for (ClientResult& r : results) {
    lookups.insert(lookups.end(), r.lookup_s.begin(), r.lookup_s.end());
    edits.insert(edits.end(), r.edit_s.begin(), r.edit_s.end());
    failures += r.failures;
  }
  ServiceStats stats = server.stats();
  double requests = static_cast<double>(lookups.size() + edits.size());
  double batching =
      stats.edit_commits > 0
          ? static_cast<double>(stats.edits_applied) / stats.edit_commits
          : 0;

  std::printf("%-28s %10.0f req/s\n", "throughput",
              ok.load() ? requests / wall_s : 0);
  report.Add("throughput", requests / wall_s, "req/s");
  report.AddLatencyMs("lookup", &lookups);
  report.AddLatencyMs("edit", &edits);
  std::printf("%-28s %10lld edits / %lld commits = %.2f edits/commit "
              "(largest batch %lld)\n",
              "group commit",
              static_cast<long long>(stats.edits_applied),
              static_cast<long long>(stats.edit_commits), batching,
              static_cast<long long>(stats.max_batch));
  std::printf("%-28s %10d\n", "client-visible failures", failures);

  report.Add("edits_applied", static_cast<double>(stats.edits_applied));
  report.Add("edit_commits", static_cast<double>(stats.edit_commits));
  report.Add("edits_per_commit", batching);
  report.Add("max_batch", static_cast<double>(stats.max_batch));
  report.Add("failures", failures);

  report.Require(ok.load() && failures == 0, "loadgen saw failures");
  // With 8 concurrent writers and a 200us hold, batches of one mean
  // group commit is broken; fail loudly so CI notices.
  report.Require(!(stats.edit_commits > 0 && stats.max_batch < 2),
                 "group commit did not batch (max batch " +
                     std::to_string(stats.max_batch) + ")");
  std::remove(path.c_str());

  // Reader scaling: lookup-only throughput as concurrent readers grow.
  // Every lookup scores a private snapshot copy, so more readers should
  // mean more throughput, not more contention. --topk[=K] switches the
  // readers to the wire-level kTopK opcode (default K 10), exercising
  // the per-shard heap path end to end.
  int sweep_topk = -1;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--topk") {
      sweep_topk = 10;
    } else if (arg.rfind("--topk=", 0) == 0) {
      sweep_topk = std::atoi(arg.c_str() + 7);
      if (sweep_topk < 0) sweep_topk = 10;
    }
  }
  PrintHeader(sweep_topk >= 0
                  ? "top-k reader scaling (kTopK, k=" +
                        std::to_string(sweep_topk) + ")"
                  : "lookup-only reader scaling (snapshot reads)");
  std::printf("%10s %14s %12s %12s\n", "readers",
              sweep_topk >= 0 ? "topk/s" : "lookups/s", "p50 [ms]",
              "p99 [ms]");
  double single_reader = 0;
  for (int readers : {1, 4, 8}) {
    std::vector<double> latencies;
    const double rate = RunReaderSweep(readers, shape, &latencies, sweep_topk);
    if (rate < 0) {
      std::fprintf(stderr, "reader sweep failed at %d readers\n", readers);
      return 1;
    }
    if (readers == 1) single_reader = rate;
    std::printf("%10d %14.0f %12.3f %12.3f\n", readers, rate,
                Percentile(&latencies, 50) * 1e3,
                Percentile(&latencies, 99) * 1e3);
    const std::string cell = "_r" + std::to_string(readers);
    report.Add("read_throughput" + cell, rate, "req/s");
    report.Add("read_p50" + cell, Percentile(&latencies, 50) * 1e3, "ms");
    report.Add("read_p99" + cell, Percentile(&latencies, 99) * 1e3, "ms");
    if (single_reader > 0) {
      report.Add("read_scaling" + cell, rate / single_reader, "x");
    }
  }

  // Instrumentation overhead: the same lookup-only sweep with the
  // registry's timing hot path on vs off (counters stay live either way;
  // the switch gates clock reads and histogram records). The issue's
  // acceptance bar is < 3%; this reports the measured figure so CI can
  // track it without flaking on machine noise.
  PrintHeader("metrics instrumentation overhead (4 readers, lookups only)");
  const int kOverheadReaders = 4;
  double rate_enabled = 0, rate_disabled = 0;
  {
    std::vector<double> scratch;
    Metrics::set_enabled(true);
    rate_enabled = RunReaderSweep(kOverheadReaders, shape, &scratch);
    scratch.clear();
    Metrics::set_enabled(false);
    rate_disabled = RunReaderSweep(kOverheadReaders, shape, &scratch);
    Metrics::set_enabled(true);
  }
  if (rate_enabled < 0 || rate_disabled < 0) {
    std::fprintf(stderr, "overhead sweep failed\n");
    return 1;
  }
  const double overhead_pct =
      rate_disabled > 0 ? (rate_disabled - rate_enabled) / rate_disabled * 100
                        : 0;
  std::printf("%-28s %10.0f req/s enabled, %.0f req/s disabled "
              "(%.2f%% overhead)\n",
              "instrumented vs bare", rate_enabled, rate_disabled,
              overhead_pct);
  report.Add("metrics_on_throughput", rate_enabled, "req/s");
  report.Add("metrics_off_throughput", rate_disabled, "req/s");
  report.Add("metrics_overhead_pct", overhead_pct, "%");

  // Write-path sweep: the same write-heavy workload (default 90% edits;
  // --write-pct=N picks any read/write mix) against (a) a one-shard
  // store and (b) a four-shard store, whose group commits fan out
  // across shards. write_4shard_vs_1shard is (b) / (a); reported, not
  // gated.
  int write_pct = 90;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--write-pct=", 0) == 0) {
      write_pct = std::atoi(arg.c_str() + 12);
    }
  }
  if (write_pct < 0 || write_pct > 100) write_pct = 90;
  PrintHeader("write-heavy workload (4 writers, " +
              std::to_string(write_pct) + "% edits)");
  std::printf("%-44s %12s %12s %10s %12s\n", "configuration", "req/s",
              "edit p50", "batching", "publish [s]");
  struct SweepPoint {
    const char* label;
    const char* cell;
    WriteWorkloadConfig cfg;
  };
  const SweepPoint kSweep[] = {
      {"1 store shard", "write_serial", {4, write_pct, 1}},
      {"4 store shards (commit fan-out)", "write_4shard", {4, write_pct, 4}},
  };
  double serial_rate = 0, sharded_rate = 0;
  for (const SweepPoint& point : kSweep) {
    std::vector<double> edit_lat;
    double batching_factor = 0;
    double publish_s = 0;
    const double rate = RunWriteWorkload(point.cfg, shape, &edit_lat,
                                         &batching_factor, &publish_s);
    if (rate < 0) {
      std::fprintf(stderr, "write workload failed (%s)\n", point.label);
      return 1;
    }
    (point.cfg.shards > 1 ? sharded_rate : serial_rate) = rate;
    std::printf("%-44s %12.0f %10.3fms %9.2fx %12.3f\n", point.label, rate,
                Percentile(&edit_lat, 50) * 1e3, batching_factor, publish_s);
    const std::string cell = point.cell;
    report.Add(cell + "_throughput", rate, "req/s");
    report.Add(cell + "_edit_p50", Percentile(&edit_lat, 50) * 1e3, "ms");
    report.Add(cell + "_edit_p99", Percentile(&edit_lat, 99) * 1e3, "ms");
    report.Add(cell + "_batching", batching_factor, "x");
  }
  if (serial_rate > 0) {
    std::printf("%-44s %11.2fx\n", "4-shard / 1-shard throughput",
                sharded_rate / serial_rate);
    report.Add("write_4shard_vs_1shard", sharded_rate / serial_rate, "x");
  }
  report.Add("write_pct", write_pct, "%");

  // Embed the full process-wide registry so the BENCH json carries every
  // counter/gauge/histogram the run produced.
  report.AddRegistry();
  return report.ExitCode();
}
