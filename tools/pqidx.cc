// pqidx command-line tool: build, query, and incrementally maintain
// pq-gram indexes over XML documents.
//
//   pqidx build  <index-file> [-p P] [-q Q] <doc.xml>...
//       Parses the documents (tree ids are assigned in argument order,
//       starting at 0) and writes the forest index.
//
//   pqidx info   <index-file>
//       Prints per-tree and total index statistics.
//
//   pqidx lookup <index-file | host:port> <query.xml> [tau] [--topk K]
//       Approximate lookup: all indexed trees within pq-gram distance tau
//       (default 0.5) of the query document, most similar first. With
//       host:port, runs the lookup against a live pqidxd (a leader or a
//       --follow standby) instead of a snapshot file. --topk K asks for
//       the K most similar trees instead of a distance threshold (the
//       kTopK opcode when remote); tau is then ignored.
//
//   pqidx update <index-file> <tree-id> <old.xml> <new.xml>
//       Diffs the two versions (optimal root-preserving edit script),
//       replays the script to record the inverse log, and maintains the
//       index incrementally -- the tree is never re-indexed from scratch.
//
//   pqidx dist   <a.xml> <b.xml> [-p P] [-q Q] [--ted] [--canonical]
//       pq-gram distance between two documents; --ted adds the exact tree
//       edit distance (slow for large documents), --canonical adds the
//       sibling-order-invariant canonical distance.
//
//   pqidx topk   <index-file> <query.xml> <k>
//       The k most similar indexed trees.
//
//   pqidx diff   <old.xml> <new.xml>
//       Prints a minimal edit script transforming old into new.
//
//   pqidx stats  <doc.xml | host:port>
//       With a document: structural statistics and per-shape pq-gram
//       profile sizes. With host:port: fetches a live pqidxd metrics
//       snapshot (kStatsSnapshot) and prints the registry in text form.
//
//   pqidx join   <left-index> <right-index> [tau]
//       Approximate join: all pairs within pq-gram distance tau
//       (default 0.5). Use the same index file twice for a self-join.
//
//   pqidx serve <index-file> [-p P] [-q Q] [--port N] [-t THREADS]
//               [--lookup-threads N] [--stats-interval SECS]
//               [--replication-history N]
//               [--replication-max-queue N] [--follow HOST:PORT]
//               [--query-cache-mb N] [--store-shards N]
//       Serves a persistent forest index over the pqidxd wire protocol on
//       127.0.0.1 (an ephemeral port unless --port is given). Creates the
//       store with the given shape if nothing exists at the path yet:
//       --store-shards N > 1 creates a sharded store (a directory of N
//       independent page files committed as a group; docs/FORMATS.md),
//       N = 1 (the default) the classic single file. An existing store
//       keeps its layout; --store-shards is then ignored. With
//       --stats-interval, dumps the metrics registry to stdout every
//       SECS seconds. Edits are group-committed by one leader at a time;
//       on a sharded store each commit's per-shard prepare/finish runs
//       on min(shards, cores) threads. Lookup snapshots are maintained
//       incrementally (each commit's count deltas are folded into the
//       shards they touch). Stop with SIGINT/SIGTERM; final service
//       statistics and the full registry are printed on exit.
//       --query-cache-mb N sizes the epoch-keyed query-result cache
//       serving kLookup/kTopK (default 32 MiB; hit/miss/evict/stale
//       counters show up as query_cache.* in `pqidx stats host:port`);
//       --query-cache-mb 0 disables it.
//
//       Any serving pqidxd is also a replication leader: followers
//       subscribe to its committed-batch stream. --replication-history N
//       bounds how many recent batches are kept for delta resume (an
//       older cursor forces a snapshot); --replication-max-queue N
//       disconnects a subscriber that falls N frames behind (it will
//       reconnect and resume by cursor).
//
//       --follow HOST:PORT runs a warm standby instead of a leader: it
//       subscribes to the pqidxd at HOST:PORT from its local store's
//       durable cursor (streaming only the missed batches; a full
//       snapshot only when the leader cannot delta-resume), applies the
//       streamed deltas to <index-file>, and serves read-only lookups
//       at the streamed epoch. The index shape comes from the leader;
//       -p/-q are ignored. docs/USAGE.md has a walkthrough.
//
//   pqidx store <subcommand> ...
//       Manage a durable document store (crash-safe paged index plus the
//       documents themselves):
//         store create <dir> [-p P] [-q Q]
//         store ingest <dir> <doc.xml>...
//         store commit <dir> <id> <new.xml>   (diff-driven incremental)
//         store lookup <dir> <query.xml> [tau]
//         store ls     <dir>
//         store verify <dir>

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <csignal>
#include <unistd.h>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "core/canonical.h"
#include "core/distance.h"
#include "core/forest_index.h"
#include "core/join.h"
#include "core/incremental.h"
#include "core/parallel_build.h"
#include "common/metrics.h"
#include "common/thread_pool.h"
#include "edit/tree_diff.h"
#include "service/client.h"
#include "service/replication.h"
#include "service/retry.h"
#include "service/server.h"
#include "service/transport.h"
#include "storage/document_store.h"
#include "storage/index_store.h"
#include "storage/persistent_forest_index.h"
#include "storage/sharded_store.h"
#include "bench_util.h"
#include "ted/zhang_shasha.h"
#include "tree/stats.h"
#include "workload/driver.h"
#include "workload/workload.h"
#include "xml/xml_parser.h"

namespace pqidx {
namespace {

int Usage() {
  std::fprintf(stderr,
               "usage:\n"
               "  pqidx build  <index-file> [-p P] [-q Q] [-t THREADS] "
               "<doc.xml>...\n"
               "  pqidx info   <index-file>\n"
               "  pqidx lookup <index-file | host:port> <query.xml> [tau] "
               "[--topk K]\n"
               "  pqidx update <index-file> <tree-id> <old.xml> <new.xml>\n"
               "  pqidx dist   <a.xml> <b.xml> [-p P] [-q Q] [--ted] "
               "[--canonical]\n"
               "  pqidx topk   <index-file> <query.xml> <k>\n"
               "  pqidx diff   <old.xml> <new.xml>\n"
               "  pqidx stats  <doc.xml | host:port>\n"
               "  pqidx join   <left-index> <right-index> [tau]\n"
               "  pqidx serve  <index-file> [-p P] [-q Q] [--port N] "
               "[-t THREADS] [--lookup-threads N] [--stats-interval SECS]\n"
               "               [--replication-history N] "
               "[--replication-max-queue N] [--follow HOST:PORT]\n"
               "               [--query-cache-mb N] [--store-shards N]\n"
               "  pqidx store  create|ingest|commit|lookup|ls|verify ...\n"
               "  pqidx workload [host:port] [--preset A|B|C] [--seed N] "
               "[--clients N] [--ops N]\n"
               "               [--trees N] [--theta X] [--rounds N] "
               "[--burst-trees N] [--burst-depth D]\n"
               "               [--tcp] [--no-oracle] [--store-shards N]\n");
  return 2;
}

int Fail(const Status& status) {
  std::fprintf(stderr, "pqidx: %s\n", status.ToString().c_str());
  return 1;
}

// Consumes -p/-q flags from args (in place); returns the shape.
PqShape ParseShapeFlags(std::vector<std::string>* args) {
  PqShape shape{3, 3};
  std::vector<std::string> rest;
  for (size_t i = 0; i < args->size(); ++i) {
    if ((*args)[i] == "-p" && i + 1 < args->size()) {
      shape.p = std::atoi((*args)[++i].c_str());
    } else if ((*args)[i] == "-q" && i + 1 < args->size()) {
      shape.q = std::atoi((*args)[++i].c_str());
    } else {
      rest.push_back((*args)[i]);
    }
  }
  *args = rest;
  if (!shape.Valid()) {
    std::fprintf(stderr, "pqidx: p and q must be >= 1; using 3,3\n");
    shape = PqShape{3, 3};
  }
  return shape;
}

int CmdBuild(std::vector<std::string> args) {
  PqShape shape = ParseShapeFlags(&args);
  int threads = 1;
  std::vector<std::string> rest;
  for (size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "-t" && i + 1 < args.size()) {
      threads = std::atoi(args[++i].c_str());
    } else {
      rest.push_back(args[i]);
    }
  }
  args = std::move(rest);
  if (args.size() < 2 || threads < 1) return Usage();
  const std::string index_path = args[0];
  // Parse serially (XML parsing interns labels into the shared dict,
  // which is not thread-safe), then compute the per-tree profiles across
  // a pool -- profile computation dominates build cost (paper S9.1).
  auto dict = std::make_shared<LabelDict>();
  std::vector<Tree> trees;
  trees.reserve(args.size() - 1);
  for (size_t i = 1; i < args.size(); ++i) {
    StatusOr<Tree> tree = ParseXmlFile(args[i], dict);
    if (!tree.ok()) return Fail(tree.status());
    trees.push_back(std::move(*tree));
  }
  ThreadPool pool(threads);
  ForestIndex forest = BuildForestIndexParallel(trees, shape, &pool);
  for (size_t i = 1; i < args.size(); ++i) {
    TreeId id = static_cast<TreeId>(i - 1);
    std::printf("tree %-4d %-40s %d nodes, %lld pq-grams\n", id,
                args[i].c_str(), trees[id].size(),
                static_cast<long long>(forest.Find(id)->size()));
  }
  if (Status s = SaveForestIndex(forest, index_path); !s.ok()) {
    return Fail(s);
  }
  std::printf("wrote %s (%d trees, %lld bytes, %d,%d-grams)\n",
              index_path.c_str(), forest.size(),
              static_cast<long long>(forest.SerializedBytes()), shape.p,
              shape.q);
  return 0;
}

int CmdInfo(std::vector<std::string> args) {
  if (args.size() != 1) return Usage();
  StatusOr<ForestIndex> forest = LoadForestIndex(args[0]);
  if (!forest.ok()) return Fail(forest.status());
  std::printf("%s: %d trees, %d,%d-grams, %lld bytes\n", args[0].c_str(),
              forest->size(), forest->shape().p, forest->shape().q,
              static_cast<long long>(forest->SerializedBytes()));
  for (TreeId id : forest->TreeIds()) {
    const PqGramIndex* index = forest->Find(id);
    std::printf("  tree %-4d %10lld pq-grams, %10lld distinct tuples\n", id,
                static_cast<long long>(index->size()),
                static_cast<long long>(index->distinct()));
  }
  return 0;
}

void PrintHits(const std::vector<LookupResult>& hits, double tau) {
  if (hits.empty()) {
    std::printf("no tree within distance %.3f\n", tau);
    return;
  }
  for (const LookupResult& hit : hits) {
    std::printf("tree %-4d dist %.4f\n", hit.tree_id, hit.distance);
  }
}

// `pqidx lookup host:port query.xml [tau] [--topk K]`: run the lookup
// (or, with --topk, the kTopK request) on a live pqidxd (a leader or a
// --follow standby) instead of a snapshot file. The query tree parses
// locally; only its pq-gram bag crosses the wire.
int CmdRemoteLookup(const std::string& endpoint, const std::string& query_path,
                    double tau, int topk) {
  size_t colon = endpoint.rfind(':');
  std::string host = endpoint.substr(0, colon);
  int port = std::atoi(endpoint.c_str() + colon + 1);
  if (host.empty() || port < 1 || port > 65535) {
    return Fail(InvalidArgumentError("expected host:port, got " + endpoint));
  }
  StatusOr<Tree> query = ParseXmlFile(query_path);
  if (!query.ok()) return Fail(query.status());
  BackoffPolicy policy;
  policy.max_attempts = 5;
  StatusOr<std::unique_ptr<Client>> client = Client::ConnectWithRetry(
      [&host, port]() { return TcpConnect(host, static_cast<uint16_t>(port)); },
      policy);
  if (!client.ok()) return Fail(client.status());
  if (topk >= 0) {
    StatusOr<std::vector<LookupResult>> hits = (*client)->TopK(*query, topk);
    if (!hits.ok()) return Fail(hits.status());
    for (const LookupResult& hit : *hits) {
      std::printf("tree %-4d dist %.4f\n", hit.tree_id, hit.distance);
    }
    return 0;
  }
  StatusOr<std::vector<LookupResult>> hits = (*client)->Lookup(*query, tau);
  if (!hits.ok()) return Fail(hits.status());
  PrintHits(*hits, tau);
  return 0;
}

int CmdLookup(std::vector<std::string> args) {
  int topk = -1;  // < 0: threshold lookup
  std::vector<std::string> rest;
  for (size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--topk" && i + 1 < args.size()) {
      topk = std::atoi(args[++i].c_str());
      if (topk < 0) return Usage();
    } else {
      rest.push_back(args[i]);
    }
  }
  args = std::move(rest);
  if (args.size() < 2 || args.size() > 3) return Usage();
  double tau = args.size() == 3 ? std::atof(args[2].c_str()) : 0.5;
  // host:port targets a live server; anything else is an index file.
  if (args[0].find(':') != std::string::npos) {
    return CmdRemoteLookup(args[0], args[1], tau, topk);
  }
  StatusOr<ForestIndex> forest = LoadForestIndex(args[0]);
  if (!forest.ok()) return Fail(forest.status());
  StatusOr<Tree> query = ParseXmlFile(args[1]);
  if (!query.ok()) return Fail(query.status());
  if (topk >= 0) {
    for (const LookupResult& hit : forest->TopK(*query, topk)) {
      std::printf("tree %-4d dist %.4f\n", hit.tree_id, hit.distance);
    }
    return 0;
  }
  PrintHits(forest->Lookup(*query, tau), tau);
  return 0;
}

int CmdUpdate(std::vector<std::string> args) {
  if (args.size() != 4) return Usage();
  const std::string index_path = args[0];
  const TreeId id = static_cast<TreeId>(std::atoi(args[1].c_str()));
  StatusOr<ForestIndex> forest = LoadForestIndex(index_path);
  if (!forest.ok()) return Fail(forest.status());
  if (forest->Find(id) == nullptr) {
    return Fail(NotFoundError("no tree with id " + args[1] + " in index"));
  }
  auto dict = std::make_shared<LabelDict>();
  StatusOr<Tree> old_tree = ParseXmlFile(args[2], dict);
  if (!old_tree.ok()) return Fail(old_tree.status());
  StatusOr<Tree> new_tree = ParseXmlFile(args[3], dict);
  if (!new_tree.ok()) return Fail(new_tree.status());

  TreeDiff diff = ComputeEditScript(*old_tree, *new_tree);
  EditLog log;
  if (Status s = ApplyDiff(diff, &old_tree.value(), &log); !s.ok()) {
    return Fail(s);
  }
  UpdateTimings timings;
  // old_tree has been transformed into (an id-stable copy of) new_tree.
  Tree& tn = old_tree.value();
  PqGramIndex index = *forest->Find(id);
  if (Status s = UpdateIndex(&index, tn, log, &timings); !s.ok()) {
    return Fail(s);
  }
  forest->AddIndex(id, std::move(index));
  if (Status s = SaveForestIndex(*forest, index_path); !s.ok()) {
    return Fail(s);
  }
  std::printf("tree %d: %d edit operations reconstructed, index updated "
              "in %.4fs (Delta+ %lld, Delta- %lld)\n",
              id, diff.distance, timings.total_s,
              static_cast<long long>(timings.delta_plus_pqgrams),
              static_cast<long long>(timings.delta_minus_pqgrams));
  return 0;
}

int CmdDist(std::vector<std::string> args) {
  bool with_ted = false;
  bool with_canonical = false;
  std::vector<std::string> rest;
  for (const std::string& arg : args) {
    if (arg == "--ted") {
      with_ted = true;
    } else if (arg == "--canonical") {
      with_canonical = true;
    } else {
      rest.push_back(arg);
    }
  }
  PqShape shape = ParseShapeFlags(&rest);
  if (rest.size() != 2) return Usage();
  auto dict = std::make_shared<LabelDict>();
  StatusOr<Tree> a = ParseXmlFile(rest[0], dict);
  if (!a.ok()) return Fail(a.status());
  StatusOr<Tree> b = ParseXmlFile(rest[1], dict);
  if (!b.ok()) return Fail(b.status());
  std::printf("pq-gram distance (%d,%d): %.4f\n", shape.p, shape.q,
              PqGramDistance(*a, *b, shape));
  if (with_canonical) {
    std::printf("canonical (unordered):   %.4f\n",
                CanonicalPqGramDistance(*a, *b, shape));
  }
  if (with_ted) {
    std::printf("tree edit distance:      %d\n", TreeEditDistance(*a, *b));
  }
  return 0;
}

int CmdTopK(std::vector<std::string> args) {
  if (args.size() != 3) return Usage();
  StatusOr<ForestIndex> forest = LoadForestIndex(args[0]);
  if (!forest.ok()) return Fail(forest.status());
  StatusOr<Tree> query = ParseXmlFile(args[1]);
  if (!query.ok()) return Fail(query.status());
  int k = std::atoi(args[2].c_str());
  for (const LookupResult& hit : forest->TopK(*query, k)) {
    std::printf("tree %-4d dist %.4f\n", hit.tree_id, hit.distance);
  }
  return 0;
}

int CmdDiff(std::vector<std::string> args) {
  if (args.size() != 2) return Usage();
  auto dict = std::make_shared<LabelDict>();
  StatusOr<Tree> old_tree = ParseXmlFile(args[0], dict);
  if (!old_tree.ok()) return Fail(old_tree.status());
  StatusOr<Tree> new_tree = ParseXmlFile(args[1], dict);
  if (!new_tree.ok()) return Fail(new_tree.status());
  TreeDiff diff = ComputeEditScript(*old_tree, *new_tree);
  std::printf("%d operations (node ids refer to %s in pre-order):\n",
              diff.distance, args[0].c_str());
  for (const EditOperation& op : diff.operations) {
    std::printf("  %s\n", op.ToString(*dict).c_str());
  }
  return 0;
}

// `pqidx stats host:port`: pulls the live metrics registry from a
// running pqidxd (kStatsSnapshot) and prints it in exposition text form.
int CmdRemoteStats(const std::string& endpoint) {
  size_t colon = endpoint.rfind(':');
  std::string host = endpoint.substr(0, colon);
  int port = std::atoi(endpoint.c_str() + colon + 1);
  if (host.empty() || port < 1 || port > 65535) {
    return Fail(InvalidArgumentError("expected host:port, got " + endpoint));
  }
  // Retry transient connect failures (server still binding, admission
  // control under load) a few times before giving up.
  BackoffPolicy policy;
  policy.max_attempts = 5;
  StatusOr<std::unique_ptr<Client>> client = Client::ConnectWithRetry(
      [&host, port]() { return TcpConnect(host, static_cast<uint16_t>(port)); },
      policy);
  if (!client.ok()) return Fail(client.status());
  StatusOr<MetricsSnapshot> snapshot = (*client)->StatsSnapshot();
  if (!snapshot.ok()) return Fail(snapshot.status());
  std::printf("%s", snapshot->ToText().c_str());
  return 0;
}

int CmdStats(std::vector<std::string> args) {
  if (args.size() != 1) return Usage();
  // host:port targets a live server; anything else is a document path.
  if (args[0].find(':') != std::string::npos) return CmdRemoteStats(args[0]);
  StatusOr<Tree> tree = ParseXmlFile(args[0]);
  if (!tree.ok()) return Fail(tree.status());
  TreeStats stats = ComputeTreeStats(*tree);
  std::printf("%s", stats.ToString().c_str());
  std::printf("pq-gram profile sizes: 1,2 -> %lld   2,3 -> %lld   3,3 -> "
              "%lld\n",
              static_cast<long long>(
                  ProfileSizeFromStats(stats, PqShape{1, 2})),
              static_cast<long long>(
                  ProfileSizeFromStats(stats, PqShape{2, 3})),
              static_cast<long long>(
                  ProfileSizeFromStats(stats, PqShape{3, 3})));
  return 0;
}

int CmdJoin(std::vector<std::string> args) {
  if (args.size() < 2 || args.size() > 3) return Usage();
  double tau = args.size() == 3 ? std::atof(args[2].c_str()) : 0.5;
  StatusOr<ForestIndex> left = LoadForestIndex(args[0]);
  if (!left.ok()) return Fail(left.status());
  if (args[0] == args[1]) {
    for (const JoinResult& pair : SelfJoin(*left, tau)) {
      std::printf("%-4d %-4d dist %.4f\n", pair.left, pair.right,
                  pair.distance);
    }
    return 0;
  }
  StatusOr<ForestIndex> right = LoadForestIndex(args[1]);
  if (!right.ok()) return Fail(right.status());
  if (!(left->shape() == right->shape())) {
    return Fail(InvalidArgumentError("index shapes differ"));
  }
  for (const JoinResult& pair : IndexJoin(*left, *right, tau)) {
    std::printf("%-4d %-4d dist %.4f\n", pair.left, pair.right,
                pair.distance);
  }
  return 0;
}

// `pqidx serve --follow leader-host:port`: a warm standby. The Follower
// (service/replication.h) owns the store, the subscription, and its own
// read-only Server; this wrapper only parses flags, binds the serving
// port, and waits for a signal.
int CmdServeFollower(const std::string& index_path, const std::string& leader,
                     int port, int threads, int lookup_threads,
                     int store_shards) {
  size_t colon = leader.rfind(':');
  std::string host = colon != std::string::npos ? leader.substr(0, colon)
                                                : std::string();
  int leader_port =
      colon != std::string::npos ? std::atoi(leader.c_str() + colon + 1) : 0;
  if (host.empty() || leader_port < 1 || leader_port > 65535) {
    return Fail(
        InvalidArgumentError("--follow expects host:port, got " + leader));
  }

  sigset_t signals;
  sigemptyset(&signals);
  sigaddset(&signals, SIGINT);
  sigaddset(&signals, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &signals, nullptr);

  // The listener is (re)created on every serving-stack build (a
  // snapshot resync tears the server down), so the bound port is
  // reported through this shared cell.
  auto bound_port = std::make_shared<std::atomic<int>>(0);
  FollowerOptions options;
  options.store_path = index_path;
  options.store_shards = store_shards;
  options.dial = [host, leader_port]() {
    return TcpConnect(host, static_cast<uint16_t>(leader_port));
  };
  options.listen =
      [port, bound_port]() -> StatusOr<std::unique_ptr<Listener>> {
    StatusOr<std::unique_ptr<TcpListener>> listener =
        TcpListener::Listen(static_cast<uint16_t>(port));
    PQIDX_RETURN_IF_ERROR(listener.status());
    bound_port->store((*listener)->port());
    return StatusOr<std::unique_ptr<Listener>>(
        std::move(listener).value());
  };
  options.server.max_connections = threads;
  options.server.lookup_threads = lookup_threads;

  Follower follower(std::move(options));
  if (Status s = follower.Start(); !s.ok()) return Fail(s);
  std::printf("pqidxd following %s: serving %s read-only on 127.0.0.1:%d "
              "(cursor %llu); stop with SIGINT\n",
              leader.c_str(), index_path.c_str(), bound_port->load(),
              static_cast<unsigned long long>(follower.cursor()));
  std::fflush(stdout);

  int caught = 0;
  sigwait(&signals, &caught);
  std::printf("caught signal %d, shutting down\n", caught);
  follower.Stop();
  Status stream = follower.stream_status();
  std::printf("follower stopped at cursor %llu (%lld reconnects, %lld "
              "snapshot resyncs)%s%s\n",
              static_cast<unsigned long long>(follower.cursor()),
              static_cast<long long>(follower.reconnects()),
              static_cast<long long>(follower.snapshot_resyncs()),
              stream.ok() ? "" : "; stream error: ",
              stream.ok() ? "" : stream.ToString().c_str());
  return 0;
}

int CmdServe(std::vector<std::string> args) {
  PqShape shape = ParseShapeFlags(&args);
  int port = 0;
  int threads = 4;
  int lookup_threads = 0;
  int stats_interval = 0;
  ServerOptions defaults;
  int replication_history = defaults.replication_history;
  int replication_max_queue = defaults.replication_max_queue;
  int query_cache_mb = defaults.query_cache_mb;
  int store_shards = 1;
  std::string follow;
  std::vector<std::string> rest;
  for (size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--port" && i + 1 < args.size()) {
      port = std::atoi(args[++i].c_str());
    } else if (args[i] == "-t" && i + 1 < args.size()) {
      threads = std::atoi(args[++i].c_str());
    } else if (args[i] == "--lookup-threads" && i + 1 < args.size()) {
      lookup_threads = std::atoi(args[++i].c_str());
    } else if (args[i] == "--stats-interval" && i + 1 < args.size()) {
      stats_interval = std::atoi(args[++i].c_str());
    } else if (args[i] == "--replication-history" && i + 1 < args.size()) {
      replication_history = std::atoi(args[++i].c_str());
    } else if (args[i] == "--replication-max-queue" &&
               i + 1 < args.size()) {
      replication_max_queue = std::atoi(args[++i].c_str());
    } else if (args[i] == "--follow" && i + 1 < args.size()) {
      follow = args[++i];
    } else if (args[i] == "--query-cache-mb" && i + 1 < args.size()) {
      query_cache_mb = std::atoi(args[++i].c_str());
    } else if (args[i] == "--store-shards" && i + 1 < args.size()) {
      store_shards = std::atoi(args[++i].c_str());
    } else {
      rest.push_back(args[i]);
    }
  }
  if (rest.size() != 1 || port < 0 || port > 65535 || threads < 1 ||
      lookup_threads < 0 || stats_interval < 0 ||
      replication_history < 1 || replication_max_queue < 1 ||
      query_cache_mb < 0 || store_shards < 1 || store_shards > 1024) {
    return Usage();
  }
  const std::string& index_path = rest[0];

  if (!follow.empty()) {
    return CmdServeFollower(index_path, follow, port, threads,
                            lookup_threads, store_shards);
  }

  // Open the index, creating a fresh one if nothing exists at the path
  // yet. An existing store keeps its on-disk layout whatever
  // --store-shards says (the shard count is fixed at create time).
  StatusOr<std::unique_ptr<ShardedStore>> index =
      ShardedStore::Open(index_path);
  if (!index.ok()) {
    if (std::FILE* f = std::fopen(index_path.c_str(), "rb")) {
      std::fclose(f);
      return Fail(index.status());  // exists but unreadable: report that
    }
    index = ShardedStore::Create(index_path, shape, store_shards);
    if (!index.ok()) return Fail(index.status());
    std::printf("created %s (%d,%d-grams, %d shard%s)\n", index_path.c_str(),
                shape.p, shape.q, store_shards,
                store_shards == 1 ? "" : "s");
  }

  // Handle SIGINT/SIGTERM with sigwait: block them before any server
  // thread is spawned (threads inherit the mask), then wait synchronously.
  sigset_t signals;
  sigemptyset(&signals);
  sigaddset(&signals, SIGINT);
  sigaddset(&signals, SIGTERM);
  pthread_sigmask(SIG_BLOCK, &signals, nullptr);

  StatusOr<std::unique_ptr<TcpListener>> listener =
      TcpListener::Listen(static_cast<uint16_t>(port));
  if (!listener.ok()) return Fail(listener.status());
  int bound_port = (*listener)->port();

  ServerOptions options;
  options.max_connections = threads;
  options.lookup_threads = lookup_threads;
  options.replication_history = replication_history;
  options.replication_max_queue = replication_max_queue;
  options.query_cache_mb = query_cache_mb;
  Server server(index->get(), options);
  if (Status s = server.Start(std::move(*listener)); !s.ok()) {
    return Fail(s);
  }
  // The tree count comes from the server: once Start() returns, handler
  // threads may be committing to the store, whose catalog is not
  // synchronized for concurrent readers.
  std::printf("pqidxd serving %s on 127.0.0.1:%d (%d,%d-grams, %d trees, "
              "%d handler threads); stop with SIGINT\n",
              index_path.c_str(), bound_port, (*index)->shape().p,
              (*index)->shape().q, static_cast<int>(server.stats().tree_count),
              threads);
  std::fflush(stdout);

  // Optional periodic registry dump: a background thread prints the
  // process-wide metrics snapshot every --stats-interval seconds until
  // shutdown wakes it through the condition variable.
  std::mutex dump_mutex;
  std::condition_variable dump_cv;
  bool dump_stop = false;
  std::thread dump_thread;
  if (stats_interval > 0) {
    dump_thread = std::thread([&] {
      std::unique_lock<std::mutex> lock(dump_mutex);
      while (!dump_cv.wait_for(lock, std::chrono::seconds(stats_interval),
                               [&] { return dump_stop; })) {
        MetricsSnapshot snapshot = Metrics::Default().Snapshot();
        lock.unlock();
        std::printf("--- metrics ---\n%s", snapshot.ToText().c_str());
        std::fflush(stdout);
        lock.lock();
      }
    });
  }

  int caught = 0;
  sigwait(&signals, &caught);
  std::printf("caught signal %d, shutting down\n", caught);
  if (dump_thread.joinable()) {
    {
      std::lock_guard<std::mutex> lock(dump_mutex);
      dump_stop = true;
    }
    dump_cv.notify_all();
    dump_thread.join();
  }
  server.Stop();

  ServiceStats stats = server.stats();
  std::printf("served %lld lookups, %lld edits in %lld commits "
              "(largest batch %lld), %lld rejected, %lld protocol errors\n",
              static_cast<long long>(stats.lookups),
              static_cast<long long>(stats.edits_applied),
              static_cast<long long>(stats.edit_commits),
              static_cast<long long>(stats.max_batch),
              static_cast<long long>(stats.rejected),
              static_cast<long long>(stats.protocol_errors));
  std::printf("lookup engine: epoch %lld, %lld candidates pruned / %lld "
              "scored, snapshot rebuilds %lld us total (last %lld us)\n",
              static_cast<long long>(stats.snapshot_epoch),
              static_cast<long long>(stats.candidates_pruned),
              static_cast<long long>(stats.candidates_scored),
              static_cast<long long>(stats.snapshot_rebuild_us),
              static_cast<long long>(stats.last_rebuild_us));
  std::printf("--- metrics ---\n%s",
              Metrics::Default().Snapshot().ToText().c_str());
  return 0;
}

int CmdStore(std::vector<std::string> args) {
  if (args.empty()) return Usage();
  std::string sub = args[0];
  args.erase(args.begin());
  if (sub == "create") {
    PqShape shape = ParseShapeFlags(&args);
    if (args.size() != 1) return Usage();
    StatusOr<std::unique_ptr<DocumentStore>> store =
        DocumentStore::Create(args[0], shape);
    if (!store.ok()) return Fail(store.status());
    std::printf("created store %s (%d,%d-grams)\n", args[0].c_str(),
                shape.p, shape.q);
    return 0;
  }
  if (args.empty()) return Usage();
  const std::string dir = args[0];
  StatusOr<std::unique_ptr<DocumentStore>> store = DocumentStore::Open(dir);
  if (!store.ok()) return Fail(store.status());

  if (sub == "ingest") {
    if (args.size() < 2) return Usage();
    for (size_t i = 1; i < args.size(); ++i) {
      StatusOr<Tree> doc = ParseXmlFile(args[i]);
      if (!doc.ok()) return Fail(doc.status());
      StatusOr<TreeId> id = (*store)->Ingest(*doc);
      if (!id.ok()) return Fail(id.status());
      std::printf("doc %-4d %-40s %d nodes\n", *id, args[i].c_str(),
                  doc->size());
    }
    return 0;
  }
  if (sub == "commit") {
    if (args.size() != 3) return Usage();
    TreeId id = static_cast<TreeId>(std::atoi(args[1].c_str()));
    StatusOr<Tree> current = (*store)->Checkout(id);
    if (!current.ok()) return Fail(current.status());
    StatusOr<Tree> next =
        ParseXmlFile(args[2], current->dict_ptr());
    if (!next.ok()) return Fail(next.status());
    if (Status s = (*store)->CommitVersion(id, *next); !s.ok()) {
      return Fail(s);
    }
    std::printf("doc %d updated incrementally from %s\n", id,
                args[2].c_str());
    return 0;
  }
  if (sub == "lookup") {
    if (args.size() < 2 || args.size() > 3) return Usage();
    double tau = args.size() == 3 ? std::atof(args[2].c_str()) : 0.5;
    StatusOr<Tree> query = ParseXmlFile(args[1]);
    if (!query.ok()) return Fail(query.status());
    StatusOr<std::vector<LookupResult>> hits =
        (*store)->Lookup(*query, tau);
    if (!hits.ok()) return Fail(hits.status());
    for (const LookupResult& hit : *hits) {
      std::printf("doc %-4d dist %.4f\n", hit.tree_id, hit.distance);
    }
    if (hits->empty()) std::printf("no document within %.3f\n", tau);
    return 0;
  }
  if (sub == "ls") {
    std::printf("%s: %d documents, %d,%d-grams\n", dir.c_str(),
                (*store)->size(), (*store)->shape().p,
                (*store)->shape().q);
    for (TreeId id : (*store)->DocumentIds()) {
      std::printf("  doc %-4d\n", id);
    }
    return 0;
  }
  if (sub == "verify") {
    if (Status s = (*store)->Verify(); !s.ok()) return Fail(s);
    std::printf("store %s verified: every index matches its document\n",
                dir.c_str());
    return 0;
  }
  return Usage();
}

// Removes a throwaway store: either the legacy single file (plus WAL)
// or a sharded store directory.
void RemoveThrowawayStore(const std::string& path) {
  std::remove((path + "/MANIFEST").c_str());
  for (int k = 0; k < 1024; ++k) {
    char name[16];
    std::snprintf(name, sizeof(name), "shard-%04d", k);
    const std::string shard = path + "/" + name;
    const bool removed = std::remove(shard.c_str()) == 0;
    std::remove((shard + ".wal").c_str());
    if (!removed) break;
  }
  ::rmdir(path.c_str());
  std::remove(path.c_str());
  std::remove((path + ".wal").c_str());
}

// Runs a seeded workload scenario (bench/workload) with the
// differential oracle: by default against a throwaway in-process server
// (pipe transport, or loopback TCP with --tcp), or against a remote
// pqidxd at host:port. The oracle seeds the forest itself, so a remote
// target must start empty; --no-oracle turns the run into a pure load
// generator (and disables the bursts, which need the oracle's mirror
// for valid delta synthesis). Exits nonzero on any divergence.
int CmdWorkload(std::vector<std::string> args) {
  workload::WorkloadSpec spec = workload::PresetSpec('A');
  spec.seed = 1;
  spec.num_trees = 192;
  spec.ops_per_client = 240;
  spec.rounds = 3;
  spec.burst_trees = 4;
  spec.burst_depth = 3;
  bool oracle = true;
  bool tcp = false;
  int store_shards = 1;
  std::string endpoint;
  std::vector<std::string> rest;
  for (size_t i = 0; i < args.size(); ++i) {
    if (args[i] == "--preset" && i + 1 < args.size()) {
      const std::string& p = args[++i];
      if (p.size() != 1 || (p[0] != 'A' && p[0] != 'B' && p[0] != 'C')) {
        return Usage();
      }
      const workload::WorkloadSpec preset = workload::PresetSpec(p[0]);
      spec.preset = preset.preset;
      spec.mix = preset.mix;
    } else if (args[i] == "--seed" && i + 1 < args.size()) {
      spec.seed = std::strtoull(args[++i].c_str(), nullptr, 10);
    } else if (args[i] == "--clients" && i + 1 < args.size()) {
      spec.num_clients = std::atoi(args[++i].c_str());
    } else if (args[i] == "--ops" && i + 1 < args.size()) {
      spec.ops_per_client = std::atoi(args[++i].c_str());
    } else if (args[i] == "--trees" && i + 1 < args.size()) {
      spec.num_trees = std::atoi(args[++i].c_str());
    } else if (args[i] == "--theta" && i + 1 < args.size()) {
      spec.theta = std::atof(args[++i].c_str());
    } else if (args[i] == "--rounds" && i + 1 < args.size()) {
      spec.rounds = std::atoi(args[++i].c_str());
    } else if (args[i] == "--burst-trees" && i + 1 < args.size()) {
      spec.burst_trees = std::atoi(args[++i].c_str());
    } else if (args[i] == "--burst-depth" && i + 1 < args.size()) {
      spec.burst_depth = std::atoi(args[++i].c_str());
    } else if (args[i] == "--no-oracle") {
      oracle = false;
    } else if (args[i] == "--tcp") {
      tcp = true;
    } else if (args[i] == "--store-shards" && i + 1 < args.size()) {
      store_shards = std::atoi(args[++i].c_str());
    } else {
      rest.push_back(args[i]);
    }
  }
  if (rest.size() > 1 || spec.num_clients < 1 || spec.num_trees < 1 ||
      spec.ops_per_client < 0 || spec.rounds < 1 || spec.burst_trees < 0 ||
      spec.burst_depth < 0 || spec.theta < 0 || store_shards < 1 ||
      store_shards > 1024) {
    return Usage();
  }
  if (!rest.empty()) endpoint = rest[0];
  if (!oracle) {
    spec.burst_trees = 0;  // bursts need the oracle's mirror
    spec.burst_depth = 0;
  }

  // A throwaway self-hosted server unless an endpoint was given.
  std::unique_ptr<ShardedStore> index;
  std::unique_ptr<Server> server;
  std::string store_path;
  Dialer dial;
  workload::DriverOptions options;
  options.oracle = oracle;
  if (endpoint.empty()) {
    store_path = "/tmp/pqidx_workload_cli.idx";
    StatusOr<std::unique_ptr<ShardedStore>> created =
        ShardedStore::Create(store_path, spec.shape, store_shards);
    if (!created.ok()) return Fail(created.status());
    index = std::move(created).value();
    ServerOptions server_options;
    server_options.max_connections = spec.num_clients + 2;
    server = std::make_unique<Server>(index.get(), server_options);
    options.server = server.get();
    if (tcp) {
      StatusOr<std::unique_ptr<TcpListener>> listener =
          TcpListener::Listen(0);
      if (!listener.ok()) return Fail(listener.status());
      const int port = (*listener)->port();
      dial = [port] {
        return TcpConnect("127.0.0.1", static_cast<uint16_t>(port));
      };
      if (Status s = server->Start(std::move(listener).value()); !s.ok()) {
        return Fail(s);
      }
    } else {
      auto listener = std::make_unique<PipeListener>();
      PipeListener* connect_point = listener.get();
      dial = [connect_point] { return connect_point->Connect(); };
      if (Status s = server->Start(std::move(listener)); !s.ok()) {
        return Fail(s);
      }
    }
  } else {
    const size_t colon = endpoint.rfind(':');
    if (colon == std::string::npos) return Usage();
    const std::string host = endpoint.substr(0, colon);
    const int port = std::atoi(endpoint.c_str() + colon + 1);
    if (port <= 0 || port > 65535) return Usage();
    dial = [host, port] {
      return TcpConnect(host, static_cast<uint16_t>(port));
    };
    // The server's shape must match the spec's (the driver seeds bags
    // built with spec.shape); learn it from a probe connection.
    StatusOr<std::unique_ptr<Client>> probe =
        Client::ConnectWithRetry(dial, BackoffPolicy{}, spec.seed);
    if (!probe.ok()) return Fail(probe.status());
    spec.shape = (*probe)->shape();
    (*probe)->Close();
  }

  std::printf("%s\n", workload::DescribeSpec(spec).c_str());
  StatusOr<workload::RunResult> run =
      workload::RunWorkload(spec, dial, options);
  if (server != nullptr) server->Stop();
  if (!store_path.empty()) {
    index.reset();
    RemoveThrowawayStore(store_path);
  }
  if (!run.ok()) return Fail(run.status());

  std::printf("throughput    %10.0f req/s  (%lld lookups, %lld topk, "
              "%lld edits)\n",
              run->throughput(), static_cast<long long>(run->lookups),
              static_cast<long long>(run->topks),
              static_cast<long long>(run->edits));
  auto row = [](const char* label, std::vector<double>* v) {
    if (v->empty()) return;
    std::printf("%-13s %10.3f ms p50  %.3f p95  %.3f p99\n", label,
                bench::Percentile(v, 50) * 1e3,
                bench::Percentile(v, 95) * 1e3,
                bench::Percentile(v, 99) * 1e3);
  };
  row("lookup", &run->lookup_s);
  row("topk", &run->topk_s);
  row("edit", &run->edit_s);
  if (oracle) {
    std::printf("oracle        %10lld sweeps, %lld comparisons, "
                "%lld burst trees (%lld comparisons) -- all bit-identical\n",
                static_cast<long long>(run->oracle_checks),
                static_cast<long long>(run->oracle_comparisons),
                static_cast<long long>(run->bursts),
                static_cast<long long>(run->burst_comparisons));
  }
  if (run->failures > 0) {
    std::fprintf(stderr, "pqidx: %d request failures\n", run->failures);
    return 1;
  }
  return 0;
}

int Main(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string command = argv[1];
  std::vector<std::string> args(argv + 2, argv + argc);
  if (command == "build") return CmdBuild(std::move(args));
  if (command == "info") return CmdInfo(std::move(args));
  if (command == "lookup") return CmdLookup(std::move(args));
  if (command == "update") return CmdUpdate(std::move(args));
  if (command == "dist") return CmdDist(std::move(args));
  if (command == "topk") return CmdTopK(std::move(args));
  if (command == "diff") return CmdDiff(std::move(args));
  if (command == "stats") return CmdStats(std::move(args));
  if (command == "join") return CmdJoin(std::move(args));
  if (command == "serve") return CmdServe(std::move(args));
  if (command == "store") return CmdStore(std::move(args));
  if (command == "workload") return CmdWorkload(std::move(args));
  return Usage();
}

}  // namespace
}  // namespace pqidx

int main(int argc, char** argv) { return pqidx::Main(argc, argv); }
