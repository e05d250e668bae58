// Tests for the replication subsystem (src/service/replication.h):
// hub resume/drop policy at the unit level, Server::ApplyReplicated
// semantics, and end-to-end leader/follower convergence -- a follower
// bootstrapped from nothing reaches bit-identical lookups, a follower
// killed mid-stream catches up from its durable cursor with deltas
// only, and a follower whose cursor fell out of the leader's history
// window falls back to a streamed snapshot. The stress case runs the
// pipelined commit path (depth > 1) against a live subscriber and
// concurrent follower reads, and is a TSan target (see
// .github/workflows/ci.yml).

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdio>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/random.h"
#include "core/forest_index.h"
#include "core/incremental.h"
#include "edit/edit_script.h"
#include "service/client.h"
#include "service/replication.h"
#include "service/server.h"
#include "service/transport.h"
#include "service/wire.h"
#include "storage/sharded_store.h"
#include "test_util.h"
#include "tree/generators.h"

namespace pqidx {
namespace {

// One exclusive scratch dir per test process: parallel `ctest -j`
// shards (one process per discovered test) and back-to-back reruns
// never collide on the fixed store names below.
std::string TempPath(const std::string& name) {
  static pqidx::testing::ScopedTempDir dir;
  return dir.File(name);
}

// Tests reuse fixed store names under TempDir(). Leader stores are
// truncated by MustCreate, but a follower opens-or-creates its path --
// a store left over from a previous run would resume from a stale
// durable cursor, so each test wipes its follower store(s) up front.
void RemoveStore(const std::string& name) {
  std::remove(TempPath(name).c_str());
  std::remove((TempPath(name) + ".wal").c_str());
}

using StorePtr = std::unique_ptr<ShardedStore>;

StorePtr MustCreate(const std::string& name, PqShape shape) {
  StatusOr<StorePtr> store =
      ShardedStore::Create(TempPath(name), shape);
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  return std::move(store).value();
}

// A leader service on an in-process pipe transport (same harness as
// service_test.cc).
struct LeaderService {
  explicit LeaderService(const std::string& name, PqShape shape,
                         ServerOptions options = ServerOptions()) {
    index = MustCreate(name, shape);
    server = std::make_unique<Server>(index.get(), options);
    auto listener = std::make_unique<PipeListener>();
    connect_point = listener.get();
    Status started = server->Start(std::move(listener));
    EXPECT_TRUE(started.ok()) << started.ToString();
  }

  std::unique_ptr<Client> MustConnect() {
    StatusOr<std::unique_ptr<Connection>> conn = connect_point->Connect();
    EXPECT_TRUE(conn.ok());
    StatusOr<std::unique_ptr<Client>> client =
        Client::Connect(std::move(conn).value());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(client).value();
  }

  StorePtr index;
  std::unique_ptr<Server> server;
  PipeListener* connect_point = nullptr;
};

// A follower wired to a leader's pipe connect point, serving its own
// reads on a second pipe listener.
struct FollowerHarness {
  FollowerHarness(PipeListener* leader_point, const std::string& store,
                  ServerOptions server_options = ServerOptions()) {
    FollowerOptions options;
    options.dial = [leader_point] { return leader_point->Connect(); };
    auto point = serve_point;
    options.listen = [point]() -> StatusOr<std::unique_ptr<Listener>> {
      auto listener = std::make_unique<PipeListener>();
      point->store(listener.get());
      std::unique_ptr<Listener> base = std::move(listener);
      return base;
    };
    options.store_path = TempPath(store);
    options.server = server_options;
    options.backoff.initial_backoff_us = 1000;
    options.backoff.max_backoff_us = 50000;
    follower = std::make_unique<Follower>(std::move(options));
  }

  std::unique_ptr<Client> MustConnect() {
    PipeListener* listener = serve_point->load();
    EXPECT_NE(listener, nullptr);
    StatusOr<std::unique_ptr<Connection>> conn = listener->Connect();
    EXPECT_TRUE(conn.ok());
    StatusOr<std::unique_ptr<Client>> client =
        Client::Connect(std::move(conn).value());
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(client).value();
  }

  // Shared with the listen callback, which outlives a serving-stack
  // rebuild; holds the latest listener the follower accepts on.
  std::shared_ptr<std::atomic<PipeListener*>> serve_point =
      std::make_shared<std::atomic<PipeListener*>>(nullptr);
  std::unique_ptr<Follower> follower;
};

// Waits until the follower's durable cursor has caught the leader's
// newest published ticket, re-reading the target until it is stable
// (a batch may publish after its client response is observed).
uint64_t MustConverge(Server* leader, Follower* follower,
                      int64_t timeout_ms = 30000) {
  uint64_t target = leader->hub()->last_ticket();
  for (;;) {
    EXPECT_TRUE(follower->WaitForCursor(target, timeout_ms))
        << "follower stalled at " << follower->cursor() << " short of "
        << target << "; stream: " << follower->stream_status().ToString();
    uint64_t again = leader->hub()->last_ticket();
    if (again == target) return target;
    target = again;
  }
}

// The acceptance bar: leader, follower, and the in-memory library
// agree -- leader vs follower bit-identical (same bytes traveled, same
// merge ran), both matching the library to double precision.
void ExpectIdenticalLookups(Client* leader, Client* follower,
                            const ForestIndex& library, const Tree& query,
                            double tau) {
  StatusOr<std::vector<LookupResult>> at_leader = leader->Lookup(query, tau);
  StatusOr<std::vector<LookupResult>> at_follower =
      follower->Lookup(query, tau);
  ASSERT_TRUE(at_leader.ok()) << at_leader.status().ToString();
  ASSERT_TRUE(at_follower.ok()) << at_follower.status().ToString();
  std::vector<LookupResult> local = library.Lookup(query, tau);
  ASSERT_EQ(at_leader->size(), at_follower->size());
  ASSERT_EQ(at_leader->size(), local.size());
  for (size_t i = 0; i < local.size(); ++i) {
    EXPECT_EQ((*at_leader)[i].tree_id, (*at_follower)[i].tree_id);
    EXPECT_EQ((*at_leader)[i].distance, (*at_follower)[i].distance);
    EXPECT_EQ((*at_leader)[i].tree_id, local[i].tree_id);
    EXPECT_DOUBLE_EQ((*at_leader)[i].distance, local[i].distance);
  }
}

// --- hub ----------------------------------------------------------------

TEST(ReplicationHubTest, ResumeDecisionsAreRangeChecks) {
  ReplicationHubOptions options;
  options.history = 2;
  options.max_queue = 8;
  ReplicationHub hub(options);
  hub.Initialize(10);

  // At the base with nothing published: a seamless (empty) delta resume.
  Subscription at_base;
  EXPECT_EQ(hub.Register(&at_base, 10, false, 10),
            ReplicationHub::Resume::kDelta);
  ReplicatedFrame frame;
  EXPECT_EQ(at_base.Wait(1000, &frame), Subscription::Next::kTimeout);
  hub.Unregister(&at_base);

  // Below the base, beyond the newest ticket, or forced: snapshot.
  Subscription below;
  EXPECT_EQ(hub.Register(&below, 9, false, 10),
            ReplicationHub::Resume::kSnapshot);
  hub.Unregister(&below);
  Subscription future;
  EXPECT_EQ(hub.Register(&future, 11, false, 10),
            ReplicationHub::Resume::kSnapshot);
  hub.Unregister(&future);
  Subscription forced;
  EXPECT_EQ(hub.Register(&forced, 10, true, 10),
            ReplicationHub::Resume::kSnapshot);
  hub.Unregister(&forced);

  // Publish 11..13 through a history of 2: frame 11 is evicted and the
  // base advances to it -- cursor 11 still delta-resumes (12 and 13 are
  // retained), cursor 10 no longer does.
  hub.Publish(11, {std::string("a")});
  hub.Publish(12, {std::string("b")});
  hub.Publish(13, {std::string("c")});
  EXPECT_EQ(hub.last_ticket(), 13u);

  Subscription resumed;
  EXPECT_EQ(hub.Register(&resumed, 11, false, 13),
            ReplicationHub::Resume::kDelta);
  ASSERT_EQ(resumed.Wait(1000, &frame), Subscription::Next::kFrame);
  EXPECT_EQ(frame.ticket, 12u);
  ASSERT_EQ(resumed.Wait(1000, &frame), Subscription::Next::kFrame);
  EXPECT_EQ(frame.ticket, 13u);
  EXPECT_EQ(resumed.Wait(1000, &frame), Subscription::Next::kTimeout);
  hub.Unregister(&resumed);

  Subscription evicted;
  EXPECT_EQ(hub.Register(&evicted, 10, false, 13),
            ReplicationHub::Resume::kSnapshot);
  hub.Unregister(&evicted);

  // Shutdown finishes later subscribers immediately.
  hub.Shutdown();
  Subscription late;
  hub.Register(&late, 13, false, 13);
  EXPECT_EQ(late.Wait(1000, &frame), Subscription::Next::kDone);
  hub.Unregister(&late);
}

// history_bytes (the replication_ring gauge's source) is the sum of the
// retained frames' chunk sizes, through eviction and re-initialization.
TEST(ReplicationHubTest, HistoryBytesSumRetainedChunks) {
  ReplicationHubOptions options;
  options.history = 2;
  ReplicationHub hub(options);
  hub.Initialize(0);
  EXPECT_EQ(hub.history_bytes(), 0);
  hub.Publish(1, {std::string(100, 'a'), std::string(20, 'b')});
  EXPECT_EQ(hub.history_bytes(), 120);
  hub.Publish(2, {std::string(7, 'c')});
  EXPECT_EQ(hub.history_bytes(), 127);
  hub.Publish(3, {std::string(1000, 'd')});  // evicts ticket 1
  EXPECT_EQ(hub.history_bytes(), 1007);
  hub.Initialize(3);
  EXPECT_EQ(hub.history_bytes(), 0);
}

TEST(ReplicationHubTest, SlowSubscriberIsDropped) {
  ReplicationHubOptions options;
  options.history = 8;
  options.max_queue = 2;
  ReplicationHub hub(options);
  hub.Initialize(0);

  Subscription slow;
  ASSERT_EQ(hub.Register(&slow, 0, false, 0),
            ReplicationHub::Resume::kDelta);
  hub.Publish(1, {std::string("a")});
  hub.Publish(2, {std::string("b")});
  EXPECT_FALSE(slow.dropped());
  // The queue is at max_queue and nothing consumed: the next publish
  // disconnects the subscriber instead of blocking or growing.
  hub.Publish(3, {std::string("c")});
  EXPECT_TRUE(slow.dropped());
  ReplicatedFrame frame;
  EXPECT_EQ(slow.Wait(1000, &frame), Subscription::Next::kDone);
  hub.Unregister(&slow);

  // The hub itself is unharmed: a fresh subscriber delta-resumes.
  Subscription fresh;
  EXPECT_EQ(hub.Register(&fresh, 3, false, 3),
            ReplicationHub::Resume::kDelta);
  hub.Publish(4, {std::string("d")});
  ASSERT_EQ(fresh.Wait(1000, &frame), Subscription::Next::kFrame);
  EXPECT_EQ(frame.ticket, 4u);
  hub.Unregister(&fresh);
  hub.Shutdown();
}

// --- ApplyReplicated ----------------------------------------------------

DeltaFrame MakeAddFrame(uint64_t ticket, TreeId id, const Tree& tree,
                        PqShape shape) {
  DeltaFrame frame;
  frame.ticket = ticket;
  frame.last_chunk = true;
  DeltaEntry entry;
  entry.tree_id = id;
  entry.is_add = true;
  entry.plus = BuildIndex(tree, shape);
  frame.entries.push_back(std::move(entry));
  return frame;
}

TEST(ReplicationApplyTest, StampsCursorSkipsDuplicatesFlagsDivergence) {
  const PqShape shape{2, 3};
  StorePtr store = MustCreate("repl_apply.db", shape);
  ServerOptions options;
  options.read_only = true;
  Server server(store.get(), options);
  ASSERT_TRUE(server.Start(nullptr).ok());

  Rng rng(31);
  Tree first = GenerateDblpLike(nullptr, &rng, 30);
  Tree second = GenerateDblpLike(nullptr, &rng, 30);

  std::vector<DeltaFrame> batch;
  batch.push_back(MakeAddFrame(5, 1, first, shape));
  ASSERT_TRUE(server.ApplyReplicated(std::move(batch)).ok());
  EXPECT_EQ(store->replication_cursor(), 5u);

  // Replaying an already-durable ticket is a no-op, not a failure.
  std::vector<DeltaFrame> replay;
  replay.push_back(MakeAddFrame(5, 1, first, shape));
  ASSERT_TRUE(server.ApplyReplicated(std::move(replay)).ok());
  EXPECT_EQ(store->replication_cursor(), 5u);

  // Two frames coalesce into one local transaction.
  std::vector<DeltaFrame> pair;
  pair.push_back(MakeAddFrame(7, 2, second, shape));
  pair.push_back(MakeAddFrame(9, 3, first, shape));
  ASSERT_TRUE(server.ApplyReplicated(std::move(pair)).ok());
  EXPECT_EQ(store->replication_cursor(), 9u);

  // A frame the local store cannot apply (re-adding tree 1) is
  // divergence: surfaced as DATA_LOSS so the follower forces a
  // snapshot resync.
  std::vector<DeltaFrame> diverged;
  diverged.push_back(MakeAddFrame(11, 1, second, shape));
  Status status = server.ApplyReplicated(std::move(diverged));
  EXPECT_EQ(status.code(), StatusCode::kDataLoss) << status.ToString();

  server.Stop();
  StatusOr<PqGramIndex> on_disk = store->MaterializeIndex(2);
  ASSERT_TRUE(on_disk.ok());
  EXPECT_EQ(*on_disk, BuildIndex(second, shape));
}

TEST(ReplicationApplyTest, WritableServerRejectsReplicatedFrames) {
  const PqShape shape{2, 3};
  StorePtr store = MustCreate("repl_apply_rw.db", shape);
  Server server(store.get(), ServerOptions());
  ASSERT_TRUE(server.Start(nullptr).ok());
  Rng rng(32);
  std::vector<DeltaFrame> batch;
  batch.push_back(
      MakeAddFrame(1, 1, GenerateDblpLike(nullptr, &rng, 10), shape));
  Status status = server.ApplyReplicated(std::move(batch));
  EXPECT_EQ(status.code(), StatusCode::kFailedPrecondition)
      << status.ToString();
  server.Stop();
}

// --- end to end ---------------------------------------------------------

TEST(ReplicationFollowerTest, ConvergesFromEmptyToIdenticalLookups) {
  const PqShape shape{2, 3};
  RemoveStore("repl_follower_empty.db");
  LeaderService leader("repl_leader_empty.db", shape);
  FollowerHarness standby(leader.connect_point, "repl_follower_empty.db");
  ASSERT_TRUE(standby.follower->Start().ok());

  std::unique_ptr<Client> writer = leader.MustConnect();
  Rng rng(41);
  auto dict = std::make_shared<LabelDict>();
  ForestIndex library(shape);
  std::vector<Tree> trees;
  for (TreeId id = 0; id < 20; ++id) {
    trees.push_back(GenerateXmarkLike(dict, &rng, 60));
    ASSERT_TRUE(writer->AddTree(id, trees.back()).ok());
    library.AddTree(id, trees.back());
  }
  for (int round = 0; round < 3; ++round) {
    for (TreeId id = 0; id < 5; ++id) {
      Tree& doc = trees[static_cast<size_t>(id)];
      EditLog log;
      GenerateEditScript(&doc, &rng, 10, EditScriptOptions{}, &log);
      ASSERT_TRUE(writer->ApplyEdits(id, doc, log).ok());
      ASSERT_TRUE(library.ApplyLog(id, doc, log).ok());
    }
  }

  MustConverge(leader.server.get(), standby.follower.get());
  // The leader was empty at subscribe time: every byte arrived as a
  // delta, no snapshot was ever shipped.
  EXPECT_EQ(standby.follower->snapshot_resyncs(), 0);

  std::unique_ptr<Client> reader = standby.MustConnect();
  for (double tau : {0.0, 0.4, 1.0}) {
    for (TreeId id = 0; id < 6; ++id) {
      ExpectIdenticalLookups(writer.get(), reader.get(), library,
                             trees[static_cast<size_t>(id)], tau);
    }
  }

  // The follower is a read-only standby end to end.
  Status rejected = reader->AddTree(999, trees[0]);
  EXPECT_EQ(rejected.code(), StatusCode::kFailedPrecondition)
      << rejected.ToString();

  standby.follower->Stop();
  leader.server->Stop();
}

TEST(ReplicationFollowerTest, BootstrapsFromPopulatedLeaderBySnapshot) {
  const PqShape shape{2, 3};
  LeaderService leader("repl_leader_warm.db", shape);
  std::unique_ptr<Client> writer = leader.MustConnect();
  Rng rng(42);
  auto dict = std::make_shared<LabelDict>();
  ForestIndex library(shape);
  std::vector<Tree> trees;
  for (TreeId id = 0; id < 12; ++id) {
    trees.push_back(GenerateDblpLike(dict, &rng, 50));
    ASSERT_TRUE(writer->AddTree(id, trees.back()).ok());
    library.AddTree(id, trees.back());
  }

  // Subscribing at cursor 0 against a non-empty leader must ship a
  // snapshot -- a delta resume would silently miss the existing trees.
  RemoveStore("repl_follower_warm.db");
  FollowerHarness standby(leader.connect_point, "repl_follower_warm.db");
  ASSERT_TRUE(standby.follower->Start().ok());
  EXPECT_EQ(standby.follower->snapshot_resyncs(), 1);

  // And the stream continues past the snapshot.
  for (TreeId id = 12; id < 16; ++id) {
    trees.push_back(GenerateDblpLike(dict, &rng, 50));
    ASSERT_TRUE(writer->AddTree(id, trees.back()).ok());
    library.AddTree(id, trees.back());
  }
  MustConverge(leader.server.get(), standby.follower.get());

  std::unique_ptr<Client> reader = standby.MustConnect();
  for (TreeId id = 0; id < 16; id += 3) {
    ExpectIdenticalLookups(writer.get(), reader.get(), library,
                           trees[static_cast<size_t>(id)], 0.6);
  }
  standby.follower->Stop();
  leader.server->Stop();
}

TEST(ReplicationFollowerTest, KilledMidStreamCatchesUpByDeltaOnly) {
  const PqShape shape{2, 3};
  RemoveStore("repl_follower_kill.db");
  LeaderService leader("repl_leader_kill.db", shape);
  FollowerHarness first(leader.connect_point, "repl_follower_kill.db");
  ASSERT_TRUE(first.follower->Start().ok());

  std::unique_ptr<Client> writer = leader.MustConnect();
  Rng rng(43);
  auto dict = std::make_shared<LabelDict>();
  ForestIndex library(shape);
  std::vector<Tree> trees;
  for (TreeId id = 0; id < 10; ++id) {
    trees.push_back(GenerateDblpLike(dict, &rng, 40));
    ASSERT_TRUE(writer->AddTree(id, trees.back()).ok());
    library.AddTree(id, trees.back());
  }
  MustConverge(leader.server.get(), first.follower.get());
  const uint64_t cursor_at_kill = first.follower->cursor();
  ASSERT_GT(cursor_at_kill, 0u);

  // Kill the follower while the leader keeps committing: the stream
  // dies mid-flight, the store keeps its durable cursor.
  std::thread pump([&] {
    for (TreeId id = 10; id < 40; ++id) {
      Tree tree = GenerateDblpLike(dict, &rng, 40);
      ASSERT_TRUE(writer->AddTree(id, tree).ok());
      library.AddTree(id, tree);
      trees.push_back(std::move(tree));
    }
  });
  first.follower->Stop();
  pump.join();

  // A new follower over the same store resumes from the durable cursor
  // and catches up with deltas only -- no snapshot, no refetch of what
  // it already had.
  FollowerHarness second(leader.connect_point, "repl_follower_kill.db");
  ASSERT_TRUE(second.follower->Start().ok());
  MustConverge(leader.server.get(), second.follower.get());
  EXPECT_EQ(second.follower->snapshot_resyncs(), 0);
  EXPECT_GE(second.follower->cursor(), cursor_at_kill);

  std::unique_ptr<Client> reader = second.MustConnect();
  for (TreeId id = 0; id < 40; id += 7) {
    ExpectIdenticalLookups(writer.get(), reader.get(), library,
                           trees[static_cast<size_t>(id)], 0.5);
  }
  second.follower->Stop();
  leader.server->Stop();
}

TEST(ReplicationFollowerTest, SnapshotFallbackWhenHistoryCompacted) {
  const PqShape shape{2, 3};
  ServerOptions options;
  options.replication_history = 4;
  LeaderService leader("repl_leader_hist.db", shape, options);
  RemoveStore("repl_follower_hist.db");
  FollowerHarness first(leader.connect_point, "repl_follower_hist.db");
  ASSERT_TRUE(first.follower->Start().ok());

  std::unique_ptr<Client> writer = leader.MustConnect();
  Rng rng(44);
  auto dict = std::make_shared<LabelDict>();
  ForestIndex library(shape);
  std::vector<Tree> trees;
  for (TreeId id = 0; id < 5; ++id) {
    trees.push_back(GenerateDblpLike(dict, &rng, 40));
    ASSERT_TRUE(writer->AddTree(id, trees.back()).ok());
    library.AddTree(id, trees.back());
  }
  MustConverge(leader.server.get(), first.follower.get());
  first.follower->Stop();

  // Far more commits than the history window retains: the stopped
  // follower's cursor falls out of the window.
  for (TreeId id = 5; id < 30; ++id) {
    trees.push_back(GenerateDblpLike(dict, &rng, 40));
    ASSERT_TRUE(writer->AddTree(id, trees.back()).ok());
    library.AddTree(id, trees.back());
  }

  FollowerHarness second(leader.connect_point, "repl_follower_hist.db");
  ASSERT_TRUE(second.follower->Start().ok());
  EXPECT_EQ(second.follower->snapshot_resyncs(), 1);
  MustConverge(leader.server.get(), second.follower.get());

  std::unique_ptr<Client> reader = second.MustConnect();
  for (TreeId id = 0; id < 30; id += 5) {
    ExpectIdenticalLookups(writer.get(), reader.get(), library,
                           trees[static_cast<size_t>(id)], 0.5);
  }
  second.follower->Stop();
  leader.server->Stop();
}

// --- stress (TSan target) ----------------------------------------------

TEST(ReplicationStressTest, GroupCommitsStreamToLiveFollower) {
  const PqShape shape{2, 3};
  ServerOptions options;
  options.max_group_commit = 16;
  LeaderService leader("repl_leader_stress.db", shape, options);
  RemoveStore("repl_follower_stress.db");
  FollowerHarness standby(leader.connect_point, "repl_follower_stress.db");
  ASSERT_TRUE(standby.follower->Start().ok());

  constexpr int kWriters = 4;
  constexpr int kTreesPerWriter = 25;
  std::atomic<bool> done{false};

  // Reads race the apply thread's publishes at the streamed epoch.
  std::thread follower_reader([&] {
    std::unique_ptr<Client> reader = standby.MustConnect();
    Rng rng(1000);
    Tree probe = GenerateDblpLike(nullptr, &rng, 30);
    while (!done.load(std::memory_order_relaxed)) {
      StatusOr<std::vector<LookupResult>> results =
          reader->Lookup(probe, 0.5);
      ASSERT_TRUE(results.ok()) << results.status().ToString();
    }
  });

  std::vector<std::thread> writers;
  std::vector<std::vector<Tree>> final_trees(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      std::unique_ptr<Client> client = leader.MustConnect();
      Rng rng(static_cast<uint64_t>(100 + w));
      auto dict = std::make_shared<LabelDict>();
      for (int i = 0; i < kTreesPerWriter; ++i) {
        const TreeId id = static_cast<TreeId>(w * 1000 + i);
        Tree tree = GenerateDblpLike(dict, &rng, 30);
        ASSERT_TRUE(client->AddTree(id, tree).ok());
        if (i % 3 == 0) {
          EditLog log;
          GenerateEditScript(&tree, &rng, 5, EditScriptOptions{}, &log);
          ASSERT_TRUE(client->ApplyEdits(id, tree, log).ok());
        }
        final_trees[static_cast<size_t>(w)].push_back(std::move(tree));
      }
    });
  }
  // A second follower joins mid-storm from an empty store, so the
  // leader must ship a snapshot image (from_ticket 0 against a
  // populated leader) while the writers keep committing: registration
  // and the image's ticket come from one engine_mutex_ scope, so no
  // frame may be lost or applied twice around the handoff.
  while (leader.server->stats().tree_count < kWriters * kTreesPerWriter / 4) {
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  RemoveStore("repl_follower_stress2.db");
  FollowerHarness late(leader.connect_point, "repl_follower_stress2.db");
  ASSERT_TRUE(late.follower->Start().ok());
  for (std::thread& thread : writers) thread.join();
  done.store(true, std::memory_order_relaxed);
  follower_reader.join();

  MustConverge(leader.server.get(), standby.follower.get());
  MustConverge(leader.server.get(), late.follower.get());
  EXPECT_TRUE(standby.follower->stream_status().ok());
  EXPECT_TRUE(late.follower->stream_status().ok());
  EXPECT_EQ(late.follower->server()->stats().tree_count,
            kWriters * kTreesPerWriter);

  // Leader and both followers answer bit-identically after the storm.
  std::unique_ptr<Client> at_leader = leader.MustConnect();
  for (FollowerHarness* harness : {&standby, &late}) {
    std::unique_ptr<Client> at_follower = harness->MustConnect();
    for (int w = 0; w < kWriters; ++w) {
      for (int i = 0; i < kTreesPerWriter; i += 6) {
        const Tree& query = final_trees[static_cast<size_t>(w)]
                                       [static_cast<size_t>(i)];
        StatusOr<std::vector<LookupResult>> a = at_leader->Lookup(query, 0.5);
        StatusOr<std::vector<LookupResult>> b =
            at_follower->Lookup(query, 0.5);
        ASSERT_TRUE(a.ok()) << a.status().ToString();
        ASSERT_TRUE(b.ok()) << b.status().ToString();
        ASSERT_EQ(a->size(), b->size());
        for (size_t k = 0; k < a->size(); ++k) {
          EXPECT_EQ((*a)[k].tree_id, (*b)[k].tree_id);
          EXPECT_EQ((*a)[k].distance, (*b)[k].distance);
        }
      }
    }
  }

  late.follower->Stop();
  standby.follower->Stop();
  leader.server->Stop();
}

}  // namespace
}  // namespace pqidx
