// Tests for the pqidxd service stack (src/service): wire protocol decode
// hardening, transport semantics, single-client correctness against the
// in-memory library, group-commit batching, admission control, and
// multi-client stress runs over both transports. The stress cases are
// TSan targets (see .github/workflows/ci.yml): concurrent lookups under
// the shared read lock race the group-commit leader by design.

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <limits>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/random.h"
#include "core/forest_index.h"
#include "core/incremental.h"
#include "edit/edit_script.h"
#include "service/client.h"
#include "service/server.h"
#include "service/transport.h"
#include "service/wire.h"
#include "storage/sharded_store.h"
#include "tree/generators.h"

namespace pqidx {
namespace {

std::string TempPath(const std::string& name) {
  return ::testing::TempDir() + "/" + name;
}

using StorePtr = std::unique_ptr<ShardedStore>;

StorePtr MustCreate(const std::string& name, PqShape shape,
                    int store_shards = 1) {
  StatusOr<StorePtr> store =
      ShardedStore::Create(TempPath(name), shape, store_shards);
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  return std::move(store).value();
}

// --- wire protocol ------------------------------------------------------

TEST(WireTest, FrameHeaderRoundTrip) {
  FrameHeader header;
  header.type = MessageType::kLookup;
  header.flags = kFrameFlagResponse;
  header.request_id = 0x0123456789abcdefULL;
  std::string payload = "hello";
  header.payload_size = static_cast<uint32_t>(payload.size());
  std::string frame = EncodeFrame(header, payload);
  ASSERT_EQ(frame.size(), kFrameHeaderSize + payload.size());

  FrameHeader decoded;
  ASSERT_TRUE(DecodeFrameHeader(
                  std::string_view(frame).substr(0, kFrameHeaderSize),
                  &decoded)
                  .ok());
  EXPECT_EQ(decoded.type, MessageType::kLookup);
  EXPECT_TRUE(decoded.is_response());
  EXPECT_EQ(decoded.request_id, header.request_id);
  EXPECT_EQ(decoded.payload_size, payload.size());
}

TEST(WireTest, FrameHeaderRejectsMalformedBytes) {
  FrameHeader valid;
  valid.type = MessageType::kPing;
  valid.request_id = 7;
  std::string good =
      EncodeFrame(valid, std::string_view()).substr(0, kFrameHeaderSize);
  FrameHeader out;
  ASSERT_TRUE(DecodeFrameHeader(good, &out).ok());

  // Truncated and over-long inputs.
  EXPECT_FALSE(DecodeFrameHeader(std::string_view(), &out).ok());
  EXPECT_FALSE(DecodeFrameHeader(good.substr(0, 19), &out).ok());
  EXPECT_FALSE(DecodeFrameHeader(good + "x", &out).ok());

  // Field-level corruption: magic, version, type, flags, reserved.
  auto corrupt = [&](size_t offset, char value) {
    std::string bad = good;
    bad[offset] = value;
    return DecodeFrameHeader(bad, &out);
  };
  EXPECT_FALSE(corrupt(0, 'X').ok());                 // magic
  EXPECT_FALSE(corrupt(4, 99).ok());                  // version
  EXPECT_FALSE(corrupt(5, 0).ok());                   // type below range
  EXPECT_FALSE(corrupt(5, 17).ok());                  // type above range
  EXPECT_FALSE(corrupt(6, 0x02).ok());                // unknown flag bit
  EXPECT_FALSE(corrupt(7, 1).ok());                   // reserved byte

  // Declared payload beyond the limit.
  std::string oversized = good;
  oversized[16] = '\xff';
  oversized[17] = '\xff';
  oversized[18] = '\xff';
  oversized[19] = '\xff';
  EXPECT_FALSE(DecodeFrameHeader(oversized, &out).ok());
}

TEST(WireTest, RequestPayloadRoundTrips) {
  const PqShape shape{2, 3};
  Rng rng(9);
  Tree tree = GenerateDblpLike(nullptr, &rng, 20);
  PqGramIndex bag = BuildIndex(tree, shape);

  {
    LookupRequest request;
    request.query = bag;
    request.tau = 0.75;
    ByteWriter writer;
    request.Encode(&writer);
    StatusOr<LookupRequest> decoded = LookupRequest::Decode(writer.data());
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded->query, bag);
    EXPECT_DOUBLE_EQ(decoded->tau, 0.75);
  }
  {
    TopKRequest request;
    request.query = bag;
    request.k = 17;
    ByteWriter writer;
    request.Encode(&writer);
    StatusOr<TopKRequest> decoded = TopKRequest::Decode(writer.data());
    ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
    EXPECT_EQ(decoded->query, bag);
    EXPECT_EQ(decoded->k, 17);
  }
  {
    AddTreeRequest request;
    request.tree_id = -12;
    request.bag = bag;
    ByteWriter writer;
    request.Encode(&writer);
    StatusOr<AddTreeRequest> decoded = AddTreeRequest::Decode(writer.data());
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded->tree_id, -12);
    EXPECT_EQ(decoded->bag, bag);
  }
  {
    ApplyEditsRequest request;
    request.tree_id = 3;
    request.plus = bag;
    request.minus = PqGramIndex(shape);
    request.log_ops = 11;
    ByteWriter writer;
    request.Encode(&writer);
    StatusOr<ApplyEditsRequest> decoded =
        ApplyEditsRequest::Decode(writer.data());
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded->tree_id, 3);
    EXPECT_EQ(decoded->plus, bag);
    EXPECT_EQ(decoded->minus.size(), 0);
    EXPECT_EQ(decoded->log_ops, 11);
  }
}

TEST(WireTest, RequestPayloadRejectsMalformedBytes) {
  // Trailing bytes after a valid payload.
  LookupRequest request;
  request.query = PqGramIndex(PqShape{2, 2});
  request.tau = 0.5;
  ByteWriter writer;
  request.Encode(&writer);
  std::string padded = std::string(writer.data()) + "extra";
  EXPECT_FALSE(LookupRequest::Decode(padded).ok());

  // Hostile tau: NaN, infinities, and negative values (including the
  // -inf / huge-negative payloads that would hang or overflow a naive
  // count filter) are all rejected at the wire boundary.
  const double bad_taus[] = {std::numeric_limits<double>::quiet_NaN(),
                             std::numeric_limits<double>::infinity(),
                             -std::numeric_limits<double>::infinity(),
                             -1e308, -0.001};
  for (double tau : bad_taus) {
    ByteWriter bad_writer;
    LookupRequest bad_request;
    bad_request.query = PqGramIndex(PqShape{2, 2});
    bad_request.tau = tau;
    bad_request.Encode(&bad_writer);
    StatusOr<LookupRequest> decoded = LookupRequest::Decode(bad_writer.data());
    EXPECT_FALSE(decoded.ok()) << "tau " << tau;
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument)
        << "tau " << tau;
  }

  // Truncated bag.
  EXPECT_FALSE(
      AddTreeRequest::Decode(std::string_view(padded).substr(0, 3)).ok());
  EXPECT_FALSE(ApplyEditsRequest::Decode("\x01").ok());
}

TEST(WireTest, TopKRequestRejectsMalformedBytes) {
  Rng rng(13);
  TopKRequest request;
  request.query =
      BuildIndex(GenerateDblpLike(nullptr, &rng, 15), PqShape{2, 2});
  request.k = 25;
  ByteWriter writer;
  request.Encode(&writer);
  const std::string_view encoded = writer.data();

  // Every strict prefix of a valid payload is rejected, never accepted
  // with a partial bag or a default k.
  for (size_t len = 0; len < encoded.size(); ++len) {
    EXPECT_FALSE(TopKRequest::Decode(encoded.substr(0, len)).ok())
        << "prefix length " << len;
  }
  // Trailing garbage after a valid payload is rejected too.
  EXPECT_FALSE(TopKRequest::Decode(std::string(encoded) + "x").ok());

  // Hostile k: negative and above the decode bound.
  for (int32_t k : {-1, -1000000, TopKRequest::kMaxK + 1,
                    std::numeric_limits<int32_t>::max()}) {
    TopKRequest bad;
    bad.query = request.query;
    bad.k = k;
    ByteWriter bad_writer;
    bad.Encode(&bad_writer);
    StatusOr<TopKRequest> decoded = TopKRequest::Decode(bad_writer.data());
    EXPECT_FALSE(decoded.ok()) << "k " << k;
    EXPECT_EQ(decoded.status().code(), StatusCode::kInvalidArgument)
        << "k " << k;
  }
  // The bound itself is accepted.
  TopKRequest max_request;
  max_request.query = request.query;
  max_request.k = TopKRequest::kMaxK;
  ByteWriter max_writer;
  max_request.Encode(&max_writer);
  EXPECT_TRUE(TopKRequest::Decode(max_writer.data()).ok());
}

TEST(WireTest, StatusAndResponseRoundTrips) {
  {
    ByteWriter writer;
    EncodeStatus(UnavailableError("busy"), &writer);
    ByteReader reader(writer.data());
    Status out;
    ASSERT_TRUE(DecodeStatus(&reader, &out).ok());
    EXPECT_EQ(out.code(), StatusCode::kUnavailable);
    EXPECT_EQ(out.message(), "busy");
  }
  {
    LookupResponse response;
    response.results.push_back(LookupResult{4, 0.125});
    response.results.push_back(LookupResult{-2, 0.875});
    ByteWriter writer;
    response.Encode(&writer);
    ByteReader reader(writer.data());
    StatusOr<LookupResponse> decoded = LookupResponse::Decode(&reader);
    ASSERT_TRUE(decoded.ok());
    ASSERT_EQ(decoded->results.size(), 2u);
    EXPECT_EQ(decoded->results[0].tree_id, 4);
    EXPECT_DOUBLE_EQ(decoded->results[1].distance, 0.875);
  }
  {
    // A result count the payload cannot hold must be rejected before any
    // allocation is attempted.
    ByteWriter writer;
    writer.PutVarint(1u << 30);
    ByteReader reader(writer.data());
    EXPECT_FALSE(LookupResponse::Decode(&reader).ok());
  }
  {
    ServiceStats stats;
    stats.p = 2;
    stats.q = 3;
    stats.tree_count = 17;
    stats.lookups = 1000;
    stats.edits_applied = 64;
    stats.edit_commits = 9;
    stats.max_batch = 12;
    stats.rejected = 2;
    stats.protocol_errors = 1;
    stats.snapshot_epoch = 33;
    stats.candidates_pruned = 450;
    stats.candidates_scored = 120;
    stats.snapshot_rebuild_us = 9001;
    stats.last_rebuild_us = 77;
    ByteWriter writer;
    stats.Encode(&writer);
    ByteReader reader(writer.data());
    StatusOr<ServiceStats> decoded = ServiceStats::Decode(&reader);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded->p, 2);
    EXPECT_EQ(decoded->q, 3);
    EXPECT_EQ(decoded->tree_count, 17);
    EXPECT_EQ(decoded->edits_applied, 64);
    EXPECT_EQ(decoded->edit_commits, 9);
    EXPECT_EQ(decoded->max_batch, 12);
    EXPECT_EQ(decoded->snapshot_epoch, 33);
    EXPECT_EQ(decoded->candidates_pruned, 450);
    EXPECT_EQ(decoded->candidates_scored, 120);
    EXPECT_EQ(decoded->snapshot_rebuild_us, 9001);
    EXPECT_EQ(decoded->last_rebuild_us, 77);
  }
}

// --- transport ----------------------------------------------------------

TEST(PipeTransportTest, BytesFlowBothWays) {
  auto [a, b] = MakePipePair();
  ASSERT_TRUE(a->Send("ping").ok());
  std::string got;
  ASSERT_TRUE(b->ReceiveExact(4, &got).ok());
  EXPECT_EQ(got, "ping");
  ASSERT_TRUE(b->Send("pong!").ok());
  ASSERT_TRUE(a->ReceiveExact(5, &got).ok());
  EXPECT_EQ(got, "pong!");
}

TEST(PipeTransportTest, CloseSemantics) {
  auto [a, b] = MakePipePair();
  ASSERT_TRUE(a->Send("xy").ok());
  a->Close();
  std::string got;
  // Buffered bytes are still readable, then a clean end of stream.
  ASSERT_TRUE(b->ReceiveExact(2, &got).ok());
  Status end = b->ReceiveExact(1, &got);
  EXPECT_EQ(end.code(), StatusCode::kOutOfRange);
  // A close that cuts a message in half is data loss.
  auto [c, d] = MakePipePair();
  ASSERT_TRUE(c->Send("abc").ok());
  c->Close();
  Status torn = d->ReceiveExact(10, &got);
  EXPECT_EQ(torn.code(), StatusCode::kDataLoss);
}

TEST(PipeTransportTest, CloseUnblocksReader) {
  auto [a, b] = MakePipePair();
  std::thread closer([&a] {
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    a->Close();
  });
  std::string got;
  Status blocked = b->ReceiveExact(1, &got);
  EXPECT_FALSE(blocked.ok());
  closer.join();
}

TEST(PipeTransportTest, BoundedBufferAppliesBackpressure) {
  auto [a, b] = MakePipePair(/*capacity=*/8);
  std::string big(64, 'z');
  std::thread sender([&a, &big] { EXPECT_TRUE(a->Send(big).ok()); });
  std::string got;
  ASSERT_TRUE(b->ReceiveExact(big.size(), &got).ok());
  EXPECT_EQ(got, big);
  sender.join();
}

TEST(PipeTransportTest, ListenerHandsOutConnectedPairs) {
  PipeListener listener;
  StatusOr<std::unique_ptr<Connection>> client = listener.Connect();
  ASSERT_TRUE(client.ok());
  StatusOr<std::unique_ptr<Connection>> server = listener.Accept();
  ASSERT_TRUE(server.ok());
  ASSERT_TRUE((*client)->Send("hi").ok());
  std::string got;
  ASSERT_TRUE((*server)->ReceiveExact(2, &got).ok());
  EXPECT_EQ(got, "hi");
  listener.Close();
  EXPECT_FALSE(listener.Accept().ok());
  EXPECT_FALSE(listener.Connect().ok());
}

// --- single-client service behavior -------------------------------------

struct TestService {
  explicit TestService(const std::string& name, PqShape shape,
                       ServerOptions options = ServerOptions(),
                       int store_shards = 1) {
    index = MustCreate(name, shape, store_shards);
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
        Client::Connect(std::move(*conn));
    EXPECT_TRUE(client.ok()) << client.status().ToString();
    return std::move(client).value();
  }

  StorePtr index;
  std::unique_ptr<Server> server;
  PipeListener* connect_point = nullptr;
};

// Counter value in a snapshot, or 0 when absent (registry cells are
// process-wide and accumulate across servers, so tests compare deltas).
int64_t CounterValue(const MetricsSnapshot& snap, std::string_view name) {
  const MetricSample* sample = snap.Find(name);
  return sample != nullptr ? sample->value : 0;
}

int64_t HistCount(const MetricsSnapshot& snap, std::string_view name) {
  const MetricSample* sample = snap.Find(name);
  return sample != nullptr ? sample->count : 0;
}

int64_t HistSum(const MetricsSnapshot& snap, std::string_view name) {
  const MetricSample* sample = snap.Find(name);
  return sample != nullptr ? sample->sum : 0;
}

// The commit fan-out pool a server over `store_shards` shards derives:
// min(shards, cores) threads on two or more shards, none on one.
int64_t ExpectedFanoutThreads(int store_shards) {
  if (store_shards < 2) return 0;
  const int cores =
      std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
  return std::min(store_shards, cores);
}

TEST(ServiceTest, ConnectLearnsShapeAndPings) {
  TestService service("svc_ping.db", PqShape{2, 3});
  std::unique_ptr<Client> client = service.MustConnect();
  EXPECT_EQ(client->shape(), (PqShape{2, 3}));
  EXPECT_TRUE(client->Ping().ok());
  StatusOr<ServiceStats> stats = client->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->tree_count, 0);
  service.server->Stop();
}

TEST(ServiceTest, LookupMatchesInMemoryLibrary) {
  const PqShape shape{2, 3};
  TestService service("svc_lookup.db", shape);
  std::unique_ptr<Client> client = service.MustConnect();

  Rng rng(21);
  auto dict = std::make_shared<LabelDict>();
  ForestIndex library(shape);
  std::vector<Tree> trees;
  for (TreeId id = 0; id < 10; ++id) {
    trees.push_back(GenerateXmarkLike(dict, &rng, 80));
    ASSERT_TRUE(client->AddTree(id, trees.back()).ok());
    library.AddTree(id, trees.back());
  }

  for (double tau : {0.0, 0.3, 0.8, 1.0}) {
    for (TreeId id = 0; id < 3; ++id) {
      StatusOr<std::vector<LookupResult>> remote =
          client->Lookup(trees[static_cast<size_t>(id)], tau);
      ASSERT_TRUE(remote.ok());
      std::vector<LookupResult> local =
          library.Lookup(trees[static_cast<size_t>(id)], tau);
      ASSERT_EQ(remote->size(), local.size()) << "tau " << tau;
      for (size_t i = 0; i < local.size(); ++i) {
        EXPECT_EQ((*remote)[i].tree_id, local[i].tree_id);
        EXPECT_DOUBLE_EQ((*remote)[i].distance, local[i].distance);
      }
    }
  }

  // Lookups were served from the epoch-published engine snapshot: the
  // epoch advanced past the initial publish (once per commit batch) and
  // the candidate counters moved.
  StatusOr<ServiceStats> stats = client->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats->snapshot_epoch, 1);
  EXPECT_GT(stats->candidates_scored, 0);
  EXPECT_GE(stats->candidates_pruned, 0);
  EXPECT_GT(stats->snapshot_rebuild_us, 0);
  service.server->Stop();
}

TEST(ServiceTest, ParallelLookupScoringMatchesInMemoryLibrary) {
  // Same equivalence check, but the server scores each lookup across
  // snapshot shards on a dedicated pool (lookup_threads > 0).
  const PqShape shape{2, 3};
  ServerOptions options;
  options.lookup_threads = 3;
  TestService service("svc_lookup_par.db", shape, options);
  std::unique_ptr<Client> client = service.MustConnect();

  Rng rng(23);
  auto dict = std::make_shared<LabelDict>();
  ForestIndex library(shape);
  std::vector<Tree> trees;
  for (TreeId id = 0; id < 12; ++id) {
    trees.push_back(GenerateDblpLike(dict, &rng, 60));
    ASSERT_TRUE(client->AddTree(id, trees.back()).ok());
    library.AddTree(id, trees.back());
  }

  for (double tau : {0.0, 0.4, 0.9, 1.0}) {
    for (TreeId id = 0; id < 4; ++id) {
      StatusOr<std::vector<LookupResult>> remote =
          client->Lookup(trees[static_cast<size_t>(id)], tau);
      ASSERT_TRUE(remote.ok());
      std::vector<LookupResult> local =
          library.Lookup(trees[static_cast<size_t>(id)], tau);
      ASSERT_EQ(remote->size(), local.size()) << "tau " << tau;
      for (size_t i = 0; i < local.size(); ++i) {
        EXPECT_EQ((*remote)[i].tree_id, local[i].tree_id);
        EXPECT_DOUBLE_EQ((*remote)[i].distance, local[i].distance);
      }
    }
  }
  StatusOr<ServiceStats> stats = client->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_GT(stats->snapshot_epoch, 1);
  EXPECT_GT(stats->candidates_scored, 0);
  service.server->Stop();
}

TEST(ServiceTest, TopKRoundTripMatchesInMemoryLibrary) {
  const PqShape shape{2, 3};
  TestService service("svc_topk.db", shape);
  std::unique_ptr<Client> client = service.MustConnect();

  Rng rng(37);
  auto dict = std::make_shared<LabelDict>();
  ForestIndex library(shape);
  std::vector<Tree> trees;
  for (TreeId id = 0; id < 12; ++id) {
    trees.push_back(GenerateDblpLike(dict, &rng, 60));
    ASSERT_TRUE(client->AddTree(id, trees.back()).ok());
    library.AddTree(id, trees.back());
  }

  const MetricsSnapshot before = Metrics::Default().Snapshot();
  for (int k : {1, 3, 7, 100}) {
    for (TreeId id = 0; id < 3; ++id) {
      StatusOr<std::vector<LookupResult>> remote =
          client->TopK(trees[static_cast<size_t>(id)], k);
      ASSERT_TRUE(remote.ok()) << remote.status().ToString();
      std::vector<LookupResult> local =
          library.TopK(trees[static_cast<size_t>(id)], k);
      ASSERT_EQ(remote->size(), local.size()) << "k " << k;
      for (size_t i = 0; i < local.size(); ++i) {
        EXPECT_EQ((*remote)[i].tree_id, local[i].tree_id);
        EXPECT_DOUBLE_EQ((*remote)[i].distance, local[i].distance);
      }
    }
  }
  // k = 0 is a valid request for an empty answer.
  StatusOr<std::vector<LookupResult>> none = client->TopK(trees[0], 0);
  ASSERT_TRUE(none.ok());
  EXPECT_TRUE(none->empty());

  // Out-of-range k never reaches the wire.
  StatusOr<std::vector<LookupResult>> negative = client->TopK(trees[0], -1);
  EXPECT_EQ(negative.status().code(), StatusCode::kInvalidArgument);
  StatusOr<std::vector<LookupResult>> huge =
      client->TopK(trees[0], TopKRequest::kMaxK + 1);
  EXPECT_EQ(huge.status().code(), StatusCode::kInvalidArgument);

  // The per-opcode histogram ticked once per accepted kTopK request,
  // and the lookups counter includes them.
  StatusOr<MetricsSnapshot> after = client->StatsSnapshot();
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(
      HistCount(*after, "server.topk_us") - HistCount(before, "server.topk_us"),
      13);
  service.server->Stop();
}

TEST(ServiceTest, QueryCacheServesRepeatsAndSurvivesEdits) {
  const PqShape shape{2, 3};
  ServerOptions options;
  options.query_cache_mb = 8;
  TestService service("svc_qcache.db", shape, options);
  std::unique_ptr<Client> client = service.MustConnect();

  Rng rng(41);
  auto dict = std::make_shared<LabelDict>();
  ForestIndex library(shape);
  std::vector<Tree> trees;
  for (TreeId id = 0; id < 10; ++id) {
    trees.push_back(GenerateDblpLike(dict, &rng, 60));
    ASSERT_TRUE(client->AddTree(id, trees.back()).ok());
    library.AddTree(id, trees.back());
  }

  auto expect_matches_library = [&](const Tree& query, double tau,
                                    const char* what) {
    StatusOr<std::vector<LookupResult>> remote = client->Lookup(query, tau);
    ASSERT_TRUE(remote.ok()) << what;
    std::vector<LookupResult> local = library.Lookup(query, tau);
    ASSERT_EQ(remote->size(), local.size()) << what;
    for (size_t i = 0; i < local.size(); ++i) {
      EXPECT_EQ((*remote)[i].tree_id, local[i].tree_id) << what;
      EXPECT_DOUBLE_EQ((*remote)[i].distance, local[i].distance) << what;
    }
  };

  // Cold then repeated: the repeats are served from the cache -- hit
  // counters move, answers stay identical to the in-memory library.
  const MetricsSnapshot before = Metrics::Default().Snapshot();
  expect_matches_library(trees[0], 0.8, "cold");
  StatusOr<MetricsSnapshot> cold = client->StatsSnapshot();
  ASSERT_TRUE(cold.ok());
  EXPECT_GT(CounterValue(*cold, "query_cache.misses") -
                CounterValue(before, "query_cache.misses"),
            0);

  expect_matches_library(trees[0], 0.8, "warm 1");
  expect_matches_library(trees[0], 0.8, "warm 2");
  ASSERT_TRUE(client->TopK(trees[0], 5).ok());
  ASSERT_TRUE(client->TopK(trees[0], 5).ok());
  StatusOr<MetricsSnapshot> warm = client->StatsSnapshot();
  ASSERT_TRUE(warm.ok());
  EXPECT_GT(CounterValue(*warm, "query_cache.hits") -
                CounterValue(*cold, "query_cache.hits"),
            0);
  EXPECT_GT(CounterValue(*warm, "query_cache.entries"), 0);
  EXPECT_GT(CounterValue(*warm, "query_cache.bytes"), 0);

  // An edit republishes the engine (incremental ApplyDelta) and the
  // cache reconciles: stale entries for recompiled shards are dropped,
  // and post-edit answers track the new index state exactly.
  EditLog log;
  GenerateEditScript(&trees[0], &rng, 12, EditScriptOptions{}, &log);
  ASSERT_TRUE(library.ApplyLog(0, trees[0], log).ok());
  ASSERT_TRUE(client->ApplyEdits(0, trees[0], log).ok());
  for (double tau : {0.0, 0.5, 0.8, 1.0}) {
    expect_matches_library(trees[0], tau, "post edit");
    expect_matches_library(trees[0], tau, "post edit warm");
  }
  StatusOr<MetricsSnapshot> final_snap = client->StatsSnapshot();
  ASSERT_TRUE(final_snap.ok());
  EXPECT_GE(CounterValue(*final_snap, "query_cache.stale") -
                CounterValue(before, "query_cache.stale"),
            0);
  service.server->Stop();
  service.index->CheckConsistency();
}

TEST(ServiceTest, QueryCacheOffServesIdenticalAnswers) {
  const PqShape shape{2, 2};
  ServerOptions options;
  options.query_cache_mb = 0;
  TestService service("svc_qcache_off.db", shape, options);
  std::unique_ptr<Client> client = service.MustConnect();

  Rng rng(43);
  ForestIndex library(shape);
  std::vector<Tree> trees;
  for (TreeId id = 0; id < 6; ++id) {
    trees.push_back(GenerateDblpLike(nullptr, &rng, 40));
    ASSERT_TRUE(client->AddTree(id, trees.back()).ok());
    library.AddTree(id, trees.back());
  }
  for (int pass = 0; pass < 2; ++pass) {
    StatusOr<std::vector<LookupResult>> remote = client->Lookup(trees[1], 0.7);
    ASSERT_TRUE(remote.ok());
    std::vector<LookupResult> local = library.Lookup(trees[1], 0.7);
    ASSERT_EQ(remote->size(), local.size());
    for (size_t i = 0; i < local.size(); ++i) {
      EXPECT_EQ((*remote)[i].tree_id, local[i].tree_id);
      EXPECT_DOUBLE_EQ((*remote)[i].distance, local[i].distance);
    }
    StatusOr<std::vector<LookupResult>> top = client->TopK(trees[1], 4);
    ASSERT_TRUE(top.ok());
    std::vector<LookupResult> local_top = library.TopK(trees[1], 4);
    ASSERT_EQ(top->size(), local_top.size());
  }
  service.server->Stop();
}

TEST(ServiceTest, ApplyEditsMatchesInMemoryLibrary) {
  const PqShape shape{3, 3};
  TestService service("svc_edits.db", shape);
  std::unique_ptr<Client> client = service.MustConnect();

  Rng rng(22);
  Tree doc = GenerateDblpLike(nullptr, &rng, 60);
  ASSERT_TRUE(client->AddTree(1, doc).ok());
  ForestIndex library(shape);
  library.AddTree(1, doc);

  for (int round = 0; round < 5; ++round) {
    EditLog log;
    GenerateEditScript(&doc, &rng, 20, EditScriptOptions{}, &log);
    ASSERT_TRUE(client->ApplyEdits(1, doc, log).ok()) << "round " << round;
    ASSERT_TRUE(library.ApplyLog(1, doc, log).ok());
  }

  // The served index, the library, and a from-scratch rebuild agree.
  StatusOr<std::vector<LookupResult>> remote = client->Lookup(doc, 1.0);
  ASSERT_TRUE(remote.ok());
  ASSERT_EQ(remote->size(), 1u);
  EXPECT_DOUBLE_EQ((*remote)[0].distance,
                   library.Lookup(doc, 1.0)[0].distance);
  service.server->Stop();
  StatusOr<PqGramIndex> on_disk = service.index->MaterializeIndex(1);
  ASSERT_TRUE(on_disk.ok());
  EXPECT_EQ(*on_disk, BuildIndex(doc, shape));
}

// The lookup snapshot is the server's one in-memory copy of the forest:
// its tree count tracks the store through accepted and rejected edits,
// and the pager-pool gauge reports exactly the store's cached pages.
TEST(ServiceTest, TreeCountAndPoolGaugeTrackTheStore) {
  const PqShape shape{2, 2};
  TestService service("svc_tree_count.db", shape);
  std::unique_ptr<Client> client = service.MustConnect();
  const Gauge* pool_bytes =
      Metrics::Default().gauge("server.resident_bytes.pager_pool");

  Rng rng(29);
  std::vector<PqGramIndex> bags;
  for (TreeId id = 0; id < 5; ++id) {
    bags.push_back(BuildIndex(GenerateDblpLike(nullptr, &rng, 30), shape));
    ASSERT_TRUE(client->AddIndex(id, bags.back()).ok());
    EXPECT_EQ(service.server->stats().tree_count, service.index->size());
  }
  EXPECT_EQ(client->AddIndex(2, bags[2]).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(service.server->stats().tree_count, service.index->size());
  // One more of a fingerprint the tree holds: not a sub-bag.
  PqGramIndex too_much(shape);
  const auto& [fp, count] = *bags[1].counts().begin();
  too_much.Add(fp, count + 1);
  EXPECT_EQ(client->ApplyDeltas(1, PqGramIndex(shape), too_much).code(),
            StatusCode::kInvalidArgument);
  EXPECT_EQ(service.server->stats().tree_count, service.index->size());
  EXPECT_EQ(service.index->size(), 5);
  // The last commit set the gauge; no commit runs now.
  EXPECT_GT(pool_bytes->value(), 0);
  EXPECT_EQ(pool_bytes->value(), service.index->PoolBytes());
  EXPECT_EQ(pool_bytes->value() % kPageSize, 0);
}

TEST(ServiceTest, InvalidEditsAreRejectedWithoutDisturbingTheIndex) {
  const PqShape shape{2, 2};
  TestService service("svc_invalid.db", shape);
  std::unique_ptr<Client> client = service.MustConnect();

  Rng rng(23);
  Tree tree = GenerateDblpLike(nullptr, &rng, 30);
  PqGramIndex bag = BuildIndex(tree, shape);
  ASSERT_TRUE(client->AddIndex(5, bag).ok());

  // Duplicate add.
  Status duplicate = client->AddIndex(5, bag);
  EXPECT_EQ(duplicate.code(), StatusCode::kFailedPrecondition);
  // Update of an unknown tree.
  Status unknown = client->ApplyDeltas(99, PqGramIndex(shape),
                                       PqGramIndex(shape));
  EXPECT_EQ(unknown.code(), StatusCode::kNotFound);
  // A minus bag that is not a sub-bag of the stored bag: the class of
  // input that would abort the in-process index must come back as a
  // plain error over the wire.
  PqGramIndex bogus_minus(shape);
  bogus_minus.Add(0xdeadbeefULL, 1000000);
  Status bad_minus = client->ApplyDeltas(5, PqGramIndex(shape), bogus_minus);
  EXPECT_EQ(bad_minus.code(), StatusCode::kInvalidArgument);
  // Wrong-shape query never reaches the index's shape CHECK.
  PqGramIndex wrong_shape(PqShape{3, 3});
  EXPECT_FALSE(client->Lookup(wrong_shape, 0.5).ok());
  // Hostile tau values come back as InvalidArgument instead of hanging
  // or aborting a handler (the -inf case used to spin the count filter
  // forever).
  for (double tau : {-std::numeric_limits<double>::infinity(), -1e308,
                     -0.5, std::numeric_limits<double>::infinity(),
                     std::numeric_limits<double>::quiet_NaN()}) {
    StatusOr<std::vector<LookupResult>> bad = client->Lookup(bag, tau);
    EXPECT_EQ(bad.status().code(), StatusCode::kInvalidArgument)
        << "tau " << tau;
  }

  // The stored bag is untouched by all of the above.
  StatusOr<std::vector<LookupResult>> hits = client->Lookup(bag, 0.0);
  ASSERT_TRUE(hits.ok());
  ASSERT_EQ(hits->size(), 1u);
  EXPECT_EQ((*hits)[0].tree_id, 5);
  StatusOr<ServiceStats> stats = client->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_EQ(stats->tree_count, 1);
  service.server->Stop();
  service.index->CheckConsistency();
}

TEST(ServiceTest, WriteQueueAdmissionControlRejects) {
  ServerOptions options;
  options.max_write_queue = 0;  // every edit is over capacity
  TestService service("svc_admission.db", PqShape{2, 2}, options);
  std::unique_ptr<Client> client = service.MustConnect();
  PqGramIndex bag(PqShape{2, 2});
  bag.Add(1, 1);
  Status rejected = client->AddIndex(1, bag);
  EXPECT_EQ(rejected.code(), StatusCode::kUnavailable);
  StatusOr<ServiceStats> stats = client->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_GE(stats->rejected, 1);
  EXPECT_EQ(stats->tree_count, 0);
  service.server->Stop();
}

TEST(ServiceTest, ConnectionCapAdmissionControlRejects) {
  ServerOptions options;
  options.max_connections = 1;
  TestService service("svc_conncap.db", PqShape{2, 2}, options);
  std::unique_ptr<Client> holder = service.MustConnect();

  // The handler slot is occupied (holder's Stats handshake proves its
  // handler is live), so the next connection is turned away with an
  // UNAVAILABLE rejection frame on request id 0 before any request is
  // read -- observe it on a raw connection without sending a byte.
  StatusOr<std::unique_ptr<Connection>> conn =
      service.connect_point->Connect();
  ASSERT_TRUE(conn.ok());
  std::string bytes;
  ASSERT_TRUE((*conn)->ReceiveExact(kFrameHeaderSize, &bytes).ok());
  FrameHeader header;
  ASSERT_TRUE(DecodeFrameHeader(bytes, &header).ok());
  EXPECT_TRUE(header.is_response());
  EXPECT_EQ(header.request_id, 0u);
  std::string payload;
  ASSERT_TRUE((*conn)->ReceiveExact(header.payload_size, &payload).ok());
  ByteReader reader(payload);
  Status transported;
  ASSERT_TRUE(DecodeStatus(&reader, &transported).ok());
  EXPECT_EQ(transported.code(), StatusCode::kUnavailable);
  EXPECT_GE(service.server->stats().rejected, 1);
  service.server->Stop();
}

TEST(ServiceTest, MalformedFramesGetErrorResponsesNeverAborts) {
  TestService service("svc_malformed.db", PqShape{2, 2});

  // A frame with a corrupt header: the server answers with an error frame
  // on request id 0 and drops the connection.
  {
    StatusOr<std::unique_ptr<Connection>> conn =
        service.connect_point->Connect();
    ASSERT_TRUE(conn.ok());
    std::string garbage(kFrameHeaderSize, '\xee');
    ASSERT_TRUE((*conn)->Send(garbage).ok());
    std::string bytes;
    ASSERT_TRUE((*conn)->ReceiveExact(kFrameHeaderSize, &bytes).ok());
    FrameHeader header;
    ASSERT_TRUE(DecodeFrameHeader(bytes, &header).ok());
    EXPECT_TRUE(header.is_response());
    EXPECT_EQ(header.request_id, 0u);
    std::string payload;
    ASSERT_TRUE((*conn)->ReceiveExact(header.payload_size, &payload).ok());
    ByteReader reader(payload);
    Status transported;
    ASSERT_TRUE(DecodeStatus(&reader, &transported).ok());
    EXPECT_FALSE(transported.ok());
  }

  // A well-formed header whose payload is garbage: a per-request error
  // response, and the connection stays usable.
  {
    StatusOr<std::unique_ptr<Connection>> conn =
        service.connect_point->Connect();
    ASSERT_TRUE(conn.ok());
    FrameHeader header;
    header.type = MessageType::kLookup;
    header.request_id = 42;
    std::string junk = "not a lookup payload";
    header.payload_size = static_cast<uint32_t>(junk.size());
    ASSERT_TRUE((*conn)->Send(EncodeFrame(header, junk)).ok());
    std::string bytes;
    ASSERT_TRUE((*conn)->ReceiveExact(kFrameHeaderSize, &bytes).ok());
    FrameHeader response;
    ASSERT_TRUE(DecodeFrameHeader(bytes, &response).ok());
    EXPECT_EQ(response.request_id, 42u);
    std::string payload;
    ASSERT_TRUE((*conn)->ReceiveExact(response.payload_size, &payload).ok());
    ByteReader reader(payload);
    Status transported;
    ASSERT_TRUE(DecodeStatus(&reader, &transported).ok());
    EXPECT_FALSE(transported.ok());

    // Same connection, now a valid request.
    FrameHeader ping;
    ping.type = MessageType::kPing;
    ping.request_id = 43;
    ASSERT_TRUE((*conn)->Send(EncodeFrame(ping, std::string_view())).ok());
    ASSERT_TRUE((*conn)->ReceiveExact(kFrameHeaderSize, &bytes).ok());
    ASSERT_TRUE(DecodeFrameHeader(bytes, &response).ok());
    EXPECT_EQ(response.request_id, 43u);
    ASSERT_TRUE((*conn)->ReceiveExact(response.payload_size, &payload).ok());
  }

  StatusOr<ServiceStats> stats = [&] {
    std::unique_ptr<Client> client = service.MustConnect();
    return client->Stats();
  }();
  ASSERT_TRUE(stats.ok());
  EXPECT_GE(stats->protocol_errors, 2);
  service.server->Stop();
  service.index->CheckConsistency();
}

TEST(ServiceTest, GroupCommitBatchesConcurrentEdits) {
  ServerOptions options;
  options.max_connections = 8;
  // Hold leadership long enough that concurrently submitted edits pile
  // into one batch even on a fast machine.
  options.commit_hold_us = 2000;
  const PqShape shape{2, 2};
  TestService service("svc_batch.db", shape, options);

  constexpr int kWriters = 6;
  constexpr int kEditsPerWriter = 20;
  std::vector<std::thread> writers;
  std::atomic<int> failures{0};
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      std::unique_ptr<Client> client = service.MustConnect();
      PqGramIndex bag(shape);
      bag.Add(static_cast<PqGramFingerprint>(1000 + w), 2);
      if (!client->AddIndex(static_cast<TreeId>(w), bag).ok()) {
        failures.fetch_add(1);
        return;
      }
      for (int i = 0; i < kEditsPerWriter; ++i) {
        PqGramIndex plus(shape);
        plus.Add(static_cast<PqGramFingerprint>(w * 1000 + i), 1);
        if (!client->ApplyDeltas(static_cast<TreeId>(w), plus,
                                 PqGramIndex(shape), 1)
                 .ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : writers) t.join();
  EXPECT_EQ(failures.load(), 0);

  ServiceStats stats = service.server->stats();
  EXPECT_EQ(stats.edits_applied, kWriters * (kEditsPerWriter + 1));
  // The whole point of group commit: strictly fewer WAL commits than
  // edits, and at least one real batch.
  EXPECT_LT(stats.edit_commits, stats.edits_applied);
  EXPECT_GE(stats.max_batch, 2);
  service.server->Stop();
  service.index->CheckConsistency();
}

// --- multi-client stress -------------------------------------------------

// Runs `kClients` concurrent clients over `connect`, each owning a
// disjoint set of trees (so the final state is deterministic), mixing
// lookups with incremental edits. Verifies zero protocol errors, that
// every response matches the single-threaded library result, and that the
// persistent file reopens clean with exactly the expected bags.
void RunStressWorkload(TestService* service,
                       const std::string& reopen_name) {
  const PqShape shape = service->index->shape();
  constexpr int kClients = 5;
  constexpr int kTreesPerClient = 3;
  constexpr int kRounds = 8;

  // Each client applies a deterministic edit sequence; the reference
  // library applies the same sequences single-threaded afterwards.
  std::vector<std::vector<Tree>> final_trees(kClients);
  std::atomic<int> failures{0};
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      std::unique_ptr<Client> client = service->MustConnect();
      Rng rng(7000 + c);
      std::vector<Tree> trees;
      for (int t = 0; t < kTreesPerClient; ++t) {
        trees.push_back(GenerateDblpLike(nullptr, &rng, 40));
        TreeId id = static_cast<TreeId>(c * kTreesPerClient + t);
        if (!client->AddTree(id, trees.back()).ok()) failures.fetch_add(1);
      }
      for (int round = 0; round < kRounds; ++round) {
        for (int t = 0; t < kTreesPerClient; ++t) {
          TreeId id = static_cast<TreeId>(c * kTreesPerClient + t);
          EditLog log;
          GenerateEditScript(&trees[static_cast<size_t>(t)], &rng, 6,
                             EditScriptOptions{}, &log);
          if (!client->ApplyEdits(id, trees[static_cast<size_t>(t)], log)
                   .ok()) {
            failures.fetch_add(1);
          }
          // Interleave a lookup for own tree: it must always be found at
          // distance 0 regardless of other clients' concurrent edits.
          StatusOr<std::vector<LookupResult>> hits =
              client->Lookup(trees[static_cast<size_t>(t)], 0.0);
          if (!hits.ok()) {
            failures.fetch_add(1);
          } else {
            bool found_self = false;
            for (const LookupResult& hit : *hits) {
              if (hit.tree_id == id && hit.distance == 0.0) {
                found_self = true;
              }
            }
            if (!found_self) failures.fetch_add(1);
          }
        }
      }
      final_trees[static_cast<size_t>(c)] = std::move(trees);
      client->Close();
    });
  }
  for (std::thread& t : threads) t.join();
  ASSERT_EQ(failures.load(), 0);

  ServiceStats stats = service->server->stats();
  EXPECT_EQ(stats.protocol_errors, 0);
  EXPECT_EQ(stats.tree_count, kClients * kTreesPerClient);
  service->server->Stop();

  // The persistent index must now hold exactly what a single-threaded
  // application of every client's edit sequence produces.
  service->index->CheckConsistency();
  for (int c = 0; c < kClients; ++c) {
    for (int t = 0; t < kTreesPerClient; ++t) {
      TreeId id = static_cast<TreeId>(c * kTreesPerClient + t);
      StatusOr<PqGramIndex> stored = service->index->MaterializeIndex(id);
      ASSERT_TRUE(stored.ok());
      EXPECT_EQ(*stored,
                BuildIndex(final_trees[static_cast<size_t>(c)]
                                      [static_cast<size_t>(t)],
                           shape))
          << "tree " << id;
    }
  }

  // And it must reopen clean from disk.
  service->index.reset();
  StatusOr<StorePtr> reopened =
      ShardedStore::Open(TempPath(reopen_name));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  (*reopened)->CheckConsistency();
  EXPECT_EQ((*reopened)->size(), kClients * kTreesPerClient);
}

// --- observability (kStatsSnapshot + slow-op log) -----------------------

TEST(ServiceTest, StatsSnapshotRoundTripsOverPipe) {
  const PqShape shape{2, 3};
  TestService service("svc_snapshot.db", shape);
  std::unique_ptr<Client> client = service.MustConnect();

  const MetricsSnapshot before = Metrics::Default().Snapshot();
  ServiceStats stats_before = client->Stats().value();

  // A mixed workload: adds, incremental edits, lookups.
  Rng rng(31);
  Tree doc = GenerateDblpLike(nullptr, &rng, 50);
  ASSERT_TRUE(client->AddTree(1, doc).ok());
  for (int round = 0; round < 3; ++round) {
    EditLog log;
    GenerateEditScript(&doc, &rng, 10, EditScriptOptions{}, &log);
    ASSERT_TRUE(client->ApplyEdits(1, doc, log).ok());
    ASSERT_TRUE(client->Lookup(doc, 0.8).ok());
  }

  StatusOr<MetricsSnapshot> remote = client->StatsSnapshot();
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  ServiceStats stats_after = client->Stats().value();

  // The wire snapshot and ServiceStats mirror the same events: their
  // deltas over the workload must agree exactly.
  EXPECT_EQ(CounterValue(*remote, "server.lookups") -
                CounterValue(before, "server.lookups"),
            stats_after.lookups - stats_before.lookups);
  EXPECT_EQ(CounterValue(*remote, "server.edits_applied") -
                CounterValue(before, "server.edits_applied"),
            stats_after.edits_applied - stats_before.edits_applied);
  EXPECT_EQ(CounterValue(*remote, "server.edit_commits") -
                CounterValue(before, "server.edit_commits"),
            stats_after.edit_commits - stats_before.edit_commits);

  // Per-opcode latency histograms moved for every opcode the workload
  // exercised, and the store's ApplyBatch phase split came along.
  EXPECT_GT(HistCount(*remote, "server.lookup_us") -
                HistCount(before, "server.lookup_us"),
            0);
  EXPECT_GT(HistCount(*remote, "server.apply_edits_us") -
                HistCount(before, "server.apply_edits_us"),
            0);
  EXPECT_GT(HistCount(*remote, "server.add_tree_us") -
                HistCount(before, "server.add_tree_us"),
            0);
  EXPECT_GT(HistCount(*remote, "apply_batch.delta_us") -
                HistCount(before, "apply_batch.delta_us"),
            0);
  EXPECT_GT(HistCount(*remote, "apply_batch.storage_us") -
                HistCount(before, "apply_batch.storage_us"),
            0);
  // Pager durability counters are on the wire too.
  EXPECT_GT(CounterValue(*remote, "pager.fsyncs"), 0);

  service.server->Stop();
}

TEST(ServiceTest, StatsSnapshotRoundTripsOverTcp) {
  StatusOr<std::unique_ptr<TcpListener>> listener = TcpListener::Listen(0);
  if (!listener.ok()) {
    GTEST_SKIP() << "cannot bind loopback: " << listener.status().ToString();
  }
  int port = (*listener)->port();

  StorePtr index = MustCreate("svc_snapshot_tcp.db", PqShape{2, 3});
  Server server(index.get(), ServerOptions());
  ASSERT_TRUE(server.Start(std::move(*listener)).ok());

  StatusOr<std::unique_ptr<Connection>> conn =
      TcpConnect("127.0.0.1", static_cast<uint16_t>(port));
  ASSERT_TRUE(conn.ok());
  StatusOr<std::unique_ptr<Client>> client =
      Client::Connect(std::move(*conn));
  ASSERT_TRUE(client.ok());

  Rng rng(33);
  Tree doc = GenerateXmarkLike(nullptr, &rng, 40);
  ASSERT_TRUE((*client)->AddTree(7, doc).ok());
  ASSERT_TRUE((*client)->Lookup(doc, 0.5).ok());

  StatusOr<MetricsSnapshot> remote = (*client)->StatsSnapshot();
  ASSERT_TRUE(remote.ok()) << remote.status().ToString();
  EXPECT_GT(HistCount(*remote, "server.lookup_us"), 0);
  EXPECT_GT(HistCount(*remote, "server.stats_us"), 0);  // Connect()'s probe
  EXPECT_NE(remote->Find("server.snapshot_epoch"), nullptr);
  // The exposition of the transported snapshot is well-formed.
  EXPECT_NE(remote->ToJson().find("\"histograms\""), std::string::npos);
  (*client)->Close();
  server.Stop();
}

TEST(ServiceTest, StatsSnapshotRejectsNonEmptyPayload) {
  TestService service("svc_snapshot_reject.db", PqShape{2, 2});
  StatusOr<std::unique_ptr<Connection>> conn =
      service.connect_point->Connect();
  ASSERT_TRUE(conn.ok());

  FrameHeader header;
  header.type = MessageType::kStatsSnapshot;
  header.request_id = 9;
  std::string junk = "unexpected";
  header.payload_size = static_cast<uint32_t>(junk.size());
  ASSERT_TRUE((*conn)->Send(EncodeFrame(header, junk)).ok());

  std::string bytes;
  ASSERT_TRUE((*conn)->ReceiveExact(kFrameHeaderSize, &bytes).ok());
  FrameHeader response;
  ASSERT_TRUE(DecodeFrameHeader(bytes, &response).ok());
  EXPECT_EQ(response.request_id, 9u);
  std::string payload;
  ASSERT_TRUE((*conn)->ReceiveExact(response.payload_size, &payload).ok());
  ByteReader reader(payload);
  Status transported;
  ASSERT_TRUE(DecodeStatus(&reader, &transported).ok());
  EXPECT_FALSE(transported.ok());

  // The connection survives and a proper snapshot still works.
  (*conn)->Close();
  std::unique_ptr<Client> client = service.MustConnect();
  EXPECT_TRUE(client->StatsSnapshot().ok());
  StatusOr<ServiceStats> stats = client->Stats();
  ASSERT_TRUE(stats.ok());
  EXPECT_GE(stats->protocol_errors, 1);
  service.server->Stop();
}

TEST(ServiceTest, SlowOpLogCapturesRequestAndCommitPhases) {
  SlowOpLog::Default().Clear();
  ServerOptions options;
  options.slow_op_us = 1;  // log effectively everything
  TestService service("svc_slowop.db", PqShape{2, 3}, options);
  std::unique_ptr<Client> client = service.MustConnect();

  Rng rng(35);
  Tree doc = GenerateDblpLike(nullptr, &rng, 40);
  ASSERT_TRUE(client->AddTree(1, doc).ok());
  ASSERT_TRUE(client->Lookup(doc, 0.5).ok());
  service.server->Stop();

  bool saw_commit = false;
  bool saw_request = false;
  for (const SlowOpLog::Entry& entry : SlowOpLog::Default().Entries()) {
    if (entry.op == "server.commit_batch") {
      saw_commit = true;
      // The commit entry carries the ApplyBatch phase split.
      EXPECT_NE(entry.detail.find("delta_us="), std::string::npos);
      EXPECT_NE(entry.detail.find("storage_us="), std::string::npos);
      EXPECT_NE(entry.detail.find("publish_us="), std::string::npos);
      EXPECT_GE(entry.total_us, 1);
    }
    if (entry.op == "server.lookup" || entry.op == "server.add_tree") {
      saw_request = true;
      EXPECT_NE(entry.detail.find("payload_bytes="), std::string::npos);
    }
  }
  EXPECT_TRUE(saw_commit) << "no server.commit_batch slow-op entry";
  EXPECT_TRUE(saw_request) << "no per-request slow-op entry";
  SlowOpLog::Default().Clear();
}

// A negative slow_op_us disables the server's slow-op logging entirely,
// even though the default log would accept the entries.
TEST(ServiceTest, SlowOpLogDisabledByNegativeThreshold) {
  SlowOpLog::Default().Clear();
  ServerOptions options;
  options.slow_op_us = -1;
  TestService service("svc_slowop_off.db", PqShape{2, 3}, options);
  std::unique_ptr<Client> client = service.MustConnect();
  Rng rng(36);
  Tree doc = GenerateDblpLike(nullptr, &rng, 30);
  ASSERT_TRUE(client->AddTree(1, doc).ok());
  ASSERT_TRUE(client->Lookup(doc, 0.5).ok());
  service.server->Stop();
  for (const SlowOpLog::Entry& entry : SlowOpLog::Default().Entries()) {
    EXPECT_EQ(entry.op.rfind("server.", 0), std::string::npos)
        << "slow-op logged while disabled: " << entry.op;
  }
  SlowOpLog::Default().Clear();
}

TEST(ServiceStressTest, ConcurrentClientsOverPipe) {
  ServerOptions options;
  options.max_connections = 6;
  TestService service("svc_stress_pipe.db", PqShape{2, 3}, options);
  RunStressWorkload(&service, "svc_stress_pipe.db");
}

// The same full-equivalence stress workload with leadership held open,
// so concurrent writers share group-commit batches, plus incremental
// snapshot publication. Every response must still match the
// single-threaded library and the store must reopen clean -- batching is
// pure mechanism, never visible in results. Runs under TSan in CI
// (lookups race commits). The name predates the single commit leader.
TEST(ServiceStressTest, ConcurrentClientsWithPipelinedCommits) {
  ServerOptions options;
  options.max_connections = 8;
  options.commit_hold_us = 200;
  TestService service("svc_stress_pipeline.db", PqShape{2, 3}, options);
  RunStressWorkload(&service, "svc_stress_pipeline.db");
}

// Writers hammering ONE tree with leadership held open, so their edits
// share batches: each edit must validate against the bag composed by the
// earlier edits of its batch, not the stale replica, or acknowledged
// edits would vanish. One edit carries a minus bag that is not a sub-bag
// of the stored bag; it alone fails, and nothing of it is stored.
TEST(ServiceStressTest, SameTreeEditsChainWithinOneBatch) {
  ServerOptions options;
  options.max_connections = 8;
  options.commit_hold_us = 2000;
  const PqShape shape{2, 2};
  TestService service("svc_batch_chain.db", shape, options);

  constexpr int kWriters = 5;
  constexpr int kEditsPerWriter = 24;
  constexpr int kBadWriter = 2;
  constexpr int kBadEdit = 11;
  {
    std::unique_ptr<Client> seed = service.MustConnect();
    PqGramIndex bag(shape);
    bag.Add(static_cast<PqGramFingerprint>(1), 1);
    ASSERT_TRUE(seed->AddIndex(0, bag).ok());
  }
  std::vector<std::thread> writers;
  std::atomic<int> failures{0};
  std::atomic<int> bad_rejected{0};
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      std::unique_ptr<Client> client = service.MustConnect();
      for (int i = 0; i < kEditsPerWriter; ++i) {
        PqGramIndex plus(shape);
        plus.Add(static_cast<PqGramFingerprint>(100 + w * 1000 + i), 1);
        PqGramIndex minus(shape);
        const bool bad = w == kBadWriter && i == kBadEdit;
        // The tree never holds fingerprint 7.
        if (bad) minus.Add(static_cast<PqGramFingerprint>(7), 1);
        Status s = client->ApplyDeltas(0, plus, minus, 1);
        if (bad) {
          if (s.code() == StatusCode::kInvalidArgument) {
            bad_rejected.fetch_add(1);
          }
        } else if (!s.ok()) {
          failures.fetch_add(1);
        }
      }
    });
  }
  for (std::thread& t : writers) t.join();
  EXPECT_EQ(failures.load(), 0);
  EXPECT_EQ(bad_rejected.load(), 1);
  ServiceStats stats = service.server->stats();
  EXPECT_GE(stats.max_batch, 2);
  EXPECT_EQ(stats.edits_applied, 1 + kWriters * kEditsPerWriter - 1);

  // Every acked delta, and nothing of the rejected edit.
  PqGramIndex expected(shape);
  expected.Add(static_cast<PqGramFingerprint>(1), 1);
  for (int w = 0; w < kWriters; ++w) {
    for (int i = 0; i < kEditsPerWriter; ++i) {
      if (w == kBadWriter && i == kBadEdit) continue;
      expected.Add(static_cast<PqGramFingerprint>(100 + w * 1000 + i), 1);
    }
  }
  // The served snapshot holds the bag composed across each batch.
  {
    std::unique_ptr<Client> client = service.MustConnect();
    StatusOr<std::vector<LookupResult>> hits = client->Lookup(expected, 0.0);
    ASSERT_TRUE(hits.ok()) << hits.status().ToString();
    ASSERT_EQ(hits->size(), 1u);
    EXPECT_EQ((*hits)[0].tree_id, 0u);
    EXPECT_EQ((*hits)[0].distance, 0.0);
  }
  service.server->Stop();

  service.index->CheckConsistency();
  StatusOr<PqGramIndex> stored = service.index->MaterializeIndex(0);
  ASSERT_TRUE(stored.ok());
  EXPECT_EQ(*stored, expected);
}

// Snapshot publication never rebuilds from scratch: every commit's
// publish is an incremental merge, and the engine re-partitions itself
// only when sequential adds pile trees into the last shard past twice
// its fair share. Update-only traffic never re-partitions, and the
// resident-bytes gauges track the engine and the query cache.
TEST(ServiceMetricsTest, SnapshotRepartitionsOnlyWhenUnbalanced) {
  MetricsSnapshot before = Metrics::Default().Snapshot();
  ServerOptions options;
  options.lookup_shards = 4;
  const PqShape shape{2, 2};
  TestService service("svc_snapshot_repartition.db", shape, options);
  std::unique_ptr<Client> client = service.MustConnect();
  constexpr int kTrees = 40;
  for (TreeId id = 0; id < kTrees; ++id) {
    PqGramIndex bag(shape);
    bag.Add(static_cast<PqGramFingerprint>(10 + id), 1);
    ASSERT_TRUE(client->AddIndex(id, bag).ok());
    const std::vector<int> sizes =
        service.server->EngineSnapshotForTesting()->ShardSizes();
    const int n = id + 1;
    const int fair = (n + options.lookup_shards - 1) / options.lookup_shards;
    EXPECT_LE(*std::max_element(sizes.begin(), sizes.end()), 2 * fair)
        << "after " << n << " adds";
    EXPECT_LE(static_cast<int>(sizes.size()), options.lookup_shards);
  }
  ServiceStats stats = service.server->stats();
  EXPECT_EQ(stats.snapshot_epoch, 1 + kTrees);  // initial + one per commit
  MetricsSnapshot after_adds = Metrics::Default().Snapshot();
  EXPECT_EQ(HistCount(after_adds, "server.snapshot_incremental_us") -
                HistCount(before, "server.snapshot_incremental_us"),
            kTrees);
  const int64_t repartitions =
      CounterValue(after_adds, "lookup_engine.repartitions") -
      CounterValue(before, "lookup_engine.repartitions");
  // The last shard outgrows twice its share once the forest has grown
  // by about half since the previous re-partition: a handful, not one
  // per add.
  EXPECT_GT(repartitions, 0);
  EXPECT_LE(repartitions, 8);

  // Updates route to the shard already holding the tree: no
  // re-partition, and every other shard is shared.
  for (int round = 0; round < 20; ++round) {
    PqGramIndex plus(shape);
    plus.Add(static_cast<PqGramFingerprint>(1000 + round), 1);
    ASSERT_TRUE(client
                    ->ApplyDeltas(static_cast<TreeId>(round % kTrees), plus,
                                  PqGramIndex(shape), 1)
                    .ok());
  }
  StatusOr<MetricsSnapshot> after = client->StatsSnapshot();
  ASSERT_TRUE(after.ok()) << after.status().ToString();
  EXPECT_EQ(CounterValue(*after, "lookup_engine.repartitions"),
            CounterValue(after_adds, "lookup_engine.repartitions"));
  EXPECT_GE(CounterValue(*after, "lookup_engine.shards_reused") -
                CounterValue(after_adds, "lookup_engine.shards_reused"),
            20 * (options.lookup_shards - 1));
  EXPECT_EQ(HistCount(*after, "server.snapshot_full_us"), 0);
  EXPECT_EQ(
      CounterValue(*after, "server.resident_bytes.engine"),
      service.server->EngineSnapshotForTesting()->ResidentBytes());
  ASSERT_NE(after->Find("server.resident_bytes.query_cache"), nullptr);
  service.server->Stop();
}

TEST(ServiceStressTest, ConcurrentClientsOverTcpLoopback) {
  StatusOr<std::unique_ptr<TcpListener>> listener = TcpListener::Listen(0);
  if (!listener.ok()) {
    GTEST_SKIP() << "cannot bind loopback: " << listener.status().ToString();
  }
  int port = (*listener)->port();

  ServerOptions options;
  options.max_connections = 6;
  StorePtr index = MustCreate("svc_stress_tcp.db", PqShape{2, 3});
  Server server(index.get(), options);
  ASSERT_TRUE(server.Start(std::move(*listener)).ok());

  constexpr int kClients = 4;
  constexpr int kTreesPerClient = 2;
  std::atomic<int> failures{0};
  std::vector<std::vector<Tree>> final_trees(kClients);
  std::vector<std::thread> threads;
  for (int c = 0; c < kClients; ++c) {
    threads.emplace_back([&, c] {
      StatusOr<std::unique_ptr<Connection>> conn =
          TcpConnect("127.0.0.1", static_cast<uint16_t>(port));
      if (!conn.ok()) { failures.fetch_add(1); return; }
      StatusOr<std::unique_ptr<Client>> client =
          Client::Connect(std::move(*conn));
      if (!client.ok()) { failures.fetch_add(1); return; }
      Rng rng(9000 + c);
      std::vector<Tree> trees;
      for (int t = 0; t < kTreesPerClient; ++t) {
        trees.push_back(GenerateXmarkLike(nullptr, &rng, 50));
        TreeId id = static_cast<TreeId>(c * kTreesPerClient + t);
        if (!(*client)->AddTree(id, trees.back()).ok()) {
          failures.fetch_add(1);
        }
      }
      for (int round = 0; round < 5; ++round) {
        for (int t = 0; t < kTreesPerClient; ++t) {
          TreeId id = static_cast<TreeId>(c * kTreesPerClient + t);
          EditLog log;
          GenerateEditScript(&trees[static_cast<size_t>(t)], &rng, 5,
                             EditScriptOptions{}, &log);
          if (!(*client)
                   ->ApplyEdits(id, trees[static_cast<size_t>(t)], log)
                   .ok()) {
            failures.fetch_add(1);
          }
          StatusOr<std::vector<LookupResult>> hits =
              (*client)->Lookup(trees[static_cast<size_t>(t)], 0.0);
          if (!hits.ok()) failures.fetch_add(1);
        }
      }
      final_trees[static_cast<size_t>(c)] = std::move(trees);
      (*client)->Close();
    });
  }
  for (std::thread& t : threads) t.join();
  ASSERT_EQ(failures.load(), 0);
  EXPECT_EQ(server.stats().protocol_errors, 0);
  server.Stop();

  index->CheckConsistency();
  const PqShape shape{2, 3};
  for (int c = 0; c < kClients; ++c) {
    for (int t = 0; t < kTreesPerClient; ++t) {
      TreeId id = static_cast<TreeId>(c * kTreesPerClient + t);
      StatusOr<PqGramIndex> stored = index->MaterializeIndex(id);
      ASSERT_TRUE(stored.ok());
      EXPECT_EQ(*stored,
                BuildIndex(final_trees[static_cast<size_t>(c)]
                                      [static_cast<size_t>(t)],
                           shape))
          << "tree " << id;
    }
  }
}

// The derived commit fan-out end to end: on a 4-shard store every group
// commit that spans shards prepares and finishes them on the server's
// fan-out pool, while four writers edit disjoint trees and a reader
// looks up concurrently. Afterwards every lookup must be bit-identical
// to the in-process library over the final trees, and the store must
// reopen clean with exactly those bags. Runs under TSan in CI.
TEST(ServiceStressTest, ShardedStoreConcurrentWritersMatchLibrary) {
  constexpr int kShards = 4;
  ServerOptions options;
  options.max_connections = 8;
  options.commit_hold_us = 200;  // batches span shards
  const PqShape shape{2, 3};
  TestService service("svc_sharded_writers.store", shape, options, kShards);
  const MetricsSnapshot started = Metrics::Default().Snapshot();
  const MetricSample* fanout = started.Find("server.commit_fanout_threads");
  ASSERT_NE(fanout, nullptr);
  EXPECT_EQ(fanout->value, ExpectedFanoutThreads(kShards));

  constexpr int kWriters = 4;
  constexpr int kTreesPerWriter = 6;
  constexpr int kRounds = 5;
  std::atomic<bool> done{false};
  std::atomic<int> failures{0};
  std::thread reader([&] {
    std::unique_ptr<Client> client = service.MustConnect();
    Rng rng(4242);
    Tree probe = GenerateDblpLike(nullptr, &rng, 40);
    while (!done.load()) {
      if (!client->Lookup(probe, 0.6).ok()) failures.fetch_add(1);
    }
  });
  std::vector<std::vector<Tree>> final_trees(kWriters);
  std::vector<std::thread> writers;
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      std::unique_ptr<Client> client = service.MustConnect();
      Rng rng(8100 + static_cast<uint64_t>(w));
      std::vector<Tree>& trees = final_trees[static_cast<size_t>(w)];
      // Consecutive ids, so every writer's trees span all four shards.
      for (int t = 0; t < kTreesPerWriter; ++t) {
        trees.push_back(GenerateDblpLike(nullptr, &rng, 40));
        const TreeId id = static_cast<TreeId>(w * kTreesPerWriter + t);
        if (!client->AddTree(id, trees.back()).ok()) failures.fetch_add(1);
      }
      for (int round = 0; round < kRounds; ++round) {
        for (int t = 0; t < kTreesPerWriter; ++t) {
          const TreeId id = static_cast<TreeId>(w * kTreesPerWriter + t);
          EditLog log;
          GenerateEditScript(&trees[static_cast<size_t>(t)], &rng, 5,
                             EditScriptOptions{}, &log);
          if (!client->ApplyEdits(id, trees[static_cast<size_t>(t)], log)
                   .ok()) {
            failures.fetch_add(1);
          }
        }
      }
    });
  }
  for (std::thread& t : writers) t.join();
  done.store(true);
  reader.join();
  ASSERT_EQ(failures.load(), 0);

  ForestIndex library(shape);
  for (int w = 0; w < kWriters; ++w) {
    for (int t = 0; t < kTreesPerWriter; ++t) {
      library.AddTree(static_cast<TreeId>(w * kTreesPerWriter + t),
                      final_trees[static_cast<size_t>(w)]
                                 [static_cast<size_t>(t)]);
    }
  }
  std::unique_ptr<Client> client = service.MustConnect();
  for (int w = 0; w < kWriters; ++w) {
    const Tree& query = final_trees[static_cast<size_t>(w)].front();
    for (double tau : {0.0, 0.3, 0.6, 1.0}) {
      StatusOr<std::vector<LookupResult>> remote = client->Lookup(query, tau);
      ASSERT_TRUE(remote.ok()) << remote.status().ToString();
      const std::vector<LookupResult> local = library.Lookup(query, tau);
      ASSERT_EQ(remote->size(), local.size()) << "tau " << tau;
      for (size_t i = 0; i < local.size(); ++i) {
        EXPECT_EQ((*remote)[i].tree_id, local[i].tree_id);
        EXPECT_EQ((*remote)[i].distance, local[i].distance);
      }
    }
  }
  client->Close();
  ServiceStats stats = service.server->stats();
  EXPECT_EQ(stats.tree_count, kWriters * kTreesPerWriter);
  EXPECT_EQ(stats.protocol_errors, 0);
  service.server->Stop();

  service.index->CheckConsistency();
  service.index.reset();
  StatusOr<StorePtr> reopened =
      ShardedStore::Open(TempPath("svc_sharded_writers.store"));
  ASSERT_TRUE(reopened.ok()) << reopened.status().ToString();
  (*reopened)->CheckConsistency();
  EXPECT_EQ((*reopened)->shard_count(), kShards);
  EXPECT_EQ((*reopened)->size(), kWriters * kTreesPerWriter);
  for (int w = 0; w < kWriters; ++w) {
    for (int t = 0; t < kTreesPerWriter; ++t) {
      const TreeId id = static_cast<TreeId>(w * kTreesPerWriter + t);
      StatusOr<PqGramIndex> stored = (*reopened)->MaterializeIndex(id);
      ASSERT_TRUE(stored.ok());
      EXPECT_EQ(*stored, BuildIndex(final_trees[static_cast<size_t>(w)]
                                               [static_cast<size_t>(t)],
                                    shape))
          << "tree " << id;
    }
  }
}

// Ground truth for server.write_queue_wait_us and the fan-out gauge. With
// leadership held for 2000 us, each batch's leader waits out the hold
// with its own edit queued, so the histogram records every accepted edit
// exactly once, its max is at least the hold, and its sum is at least
// the hold once per commit. server.commit_fanout_threads reads 0 on a
// one-shard store and the derived pool size on a four-shard store.
TEST(ServiceMetricsTest, WriteQueueWaitAndCommitFanoutGauge) {
  constexpr int kHoldUs = 2000;
  const PqShape shape{2, 2};
  {
    ServerOptions options;
    options.max_connections = 8;
    options.commit_hold_us = kHoldUs;
    TestService service("svc_queue_wait.db", shape, options);
    const MetricsSnapshot before = Metrics::Default().Snapshot();
    const MetricSample* fanout = before.Find("server.commit_fanout_threads");
    ASSERT_NE(fanout, nullptr);
    EXPECT_EQ(fanout->value, 0);

    constexpr int kWriters = 6;
    constexpr int kEditsPerWriter = 10;
    std::atomic<int> failures{0};
    std::vector<std::thread> writers;
    for (int w = 0; w < kWriters; ++w) {
      writers.emplace_back([&, w] {
        std::unique_ptr<Client> client = service.MustConnect();
        PqGramIndex bag(shape);
        bag.Add(static_cast<PqGramFingerprint>(1000 + w), 1);
        if (!client->AddIndex(static_cast<TreeId>(w), bag).ok()) {
          failures.fetch_add(1);
        }
        for (int i = 0; i < kEditsPerWriter; ++i) {
          PqGramIndex plus(shape);
          plus.Add(static_cast<PqGramFingerprint>(w * 1000 + i), 1);
          if (!client->ApplyDeltas(static_cast<TreeId>(w), plus,
                                   PqGramIndex(shape), 1)
                   .ok()) {
            failures.fetch_add(1);
          }
        }
      });
    }
    for (std::thread& t : writers) t.join();
    ASSERT_EQ(failures.load(), 0);
    const MetricsSnapshot after = Metrics::Default().Snapshot();
    const ServiceStats stats = service.server->stats();
    const int64_t accepted = kWriters * (kEditsPerWriter + 1);
    ASSERT_EQ(stats.edits_applied, accepted);
    EXPECT_EQ(HistCount(after, "server.write_queue_wait_us") -
                  HistCount(before, "server.write_queue_wait_us"),
              accepted);
    const MetricSample* wait = after.Find("server.write_queue_wait_us");
    ASSERT_NE(wait, nullptr);
    EXPECT_GE(wait->max, kHoldUs);
    EXPECT_GE(HistSum(after, "server.write_queue_wait_us") -
                  HistSum(before, "server.write_queue_wait_us"),
              kHoldUs * stats.edit_commits);
    service.server->Stop();
  }
  {
    TestService sharded("svc_fanout_gauge.store", shape, ServerOptions(), 4);
    const MetricsSnapshot started = Metrics::Default().Snapshot();
    const MetricSample* fanout = started.Find("server.commit_fanout_threads");
    ASSERT_NE(fanout, nullptr);
    EXPECT_EQ(fanout->value, ExpectedFanoutThreads(4));
    sharded.server->Stop();
  }
}

// Regression test (runs under TSan in CI): stats() once read the
// forest's shape from state the commit leader mutates (the shape is now
// cached in an immutable-after-Start member, and the tree count comes
// from the published snapshot). This hammers stats() against a
// write-heavy workload so any reintroduced unlocked read of mutated
// server state shows up as a TSan report.
TEST(ServiceStressTest, StatsRaceWritersRegression) {
  ServerOptions options;
  options.max_connections = 4;
  TestService service("svc_stats_race.db", PqShape{2, 3}, options);

  std::atomic<bool> done{false};
  std::thread stats_reader([&] {
    while (!done.load()) {
      ServiceStats stats = service.server->stats();
      EXPECT_EQ(stats.p, 2);
      EXPECT_EQ(stats.q, 3);
      EXPECT_GE(stats.tree_count, 0);
    }
  });

  constexpr int kWriters = 3;
  constexpr int kTreesPerWriter = 12;
  std::atomic<int> failures{0};
  std::vector<std::thread> writers;
  writers.reserve(kWriters);
  for (int w = 0; w < kWriters; ++w) {
    writers.emplace_back([&, w] {
      std::unique_ptr<Client> client = service.MustConnect();
      Rng rng(0xace0 + static_cast<uint64_t>(w));
      for (int t = 0; t < kTreesPerWriter; ++t) {
        TreeId id = static_cast<TreeId>(w * kTreesPerWriter + t);
        RandomTreeOptions tree_options;
        tree_options.num_nodes = 24;
        Tree tree = GenerateRandomTree(nullptr, &rng, tree_options);
        if (!client->AddTree(id, tree).ok()) failures.fetch_add(1);
        EditLog log;
        GenerateEditScript(&tree, &rng, 4, EditScriptOptions{}, &log);
        if (!client->ApplyEdits(id, tree, log).ok()) failures.fetch_add(1);
      }
      client->Close();
    });
  }
  for (std::thread& t : writers) t.join();
  done.store(true);
  stats_reader.join();

  ASSERT_EQ(failures.load(), 0);
  ServiceStats stats = service.server->stats();
  EXPECT_EQ(stats.tree_count, kWriters * kTreesPerWriter);
  service.server->Stop();
}

// --- replication wire payloads ------------------------------------------

TEST(WireReplicationTest, SubscribeRequestRoundTrip) {
  SubscribeRequest request;
  request.from_ticket = 0xdeadbeef12345678ULL;
  request.force_snapshot = true;
  ByteWriter writer;
  request.Encode(&writer);
  const std::string bytes = writer.Release();
  StatusOr<SubscribeRequest> decoded = SubscribeRequest::Decode(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->from_ticket, request.from_ticket);
  EXPECT_EQ(decoded->force_snapshot, true);

  // Hostile inputs: truncated, trailing bytes, bad flag byte.
  EXPECT_FALSE(SubscribeRequest::Decode(bytes.substr(0, 3)).ok());
  EXPECT_FALSE(SubscribeRequest::Decode(bytes + "x").ok());
  std::string bad_flag = bytes;
  bad_flag.back() = 2;
  EXPECT_FALSE(SubscribeRequest::Decode(bad_flag).ok());
}

TEST(WireReplicationTest, SubscribeAckRoundTrip) {
  SubscribeAck ack;
  ack.mode = SubscribeAck::Mode::kSnapshot;
  ack.ticket = 42;
  ack.p = 2;
  ack.q = 3;
  ByteWriter writer;
  ack.Encode(&writer);
  const std::string bytes = writer.Release();
  ByteReader reader(bytes);
  StatusOr<SubscribeAck> decoded = SubscribeAck::Decode(&reader);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->mode, SubscribeAck::Mode::kSnapshot);
  EXPECT_EQ(decoded->ticket, 42u);
  EXPECT_EQ(decoded->p, 2);
  EXPECT_EQ(decoded->q, 3);

  std::string bad_mode = bytes;
  bad_mode.front() = 7;
  ByteReader bad_reader(bad_mode);
  EXPECT_FALSE(SubscribeAck::Decode(&bad_reader).ok());
}

TEST(WireReplicationTest, DeltaFrameRoundTrip) {
  const PqShape shape{2, 3};
  Rng rng(77);
  auto dict = std::make_shared<LabelDict>();
  DeltaFrame frame;
  frame.ticket = 9;
  frame.publish_us = 123456789;
  frame.last_chunk = true;
  {
    DeltaEntry add;
    add.tree_id = 3;
    add.is_add = true;
    add.plus = BuildIndex(GenerateDblpLike(dict, &rng, 40), shape);
    // minus stays default: it is not serialized for is_add entries.
    frame.entries.push_back(std::move(add));
    DeltaEntry update;
    update.tree_id = 4;
    update.is_add = false;
    update.plus = BuildIndex(GenerateDblpLike(dict, &rng, 20), shape);
    update.minus = BuildIndex(GenerateDblpLike(dict, &rng, 10), shape);
    frame.entries.push_back(std::move(update));
  }
  ByteWriter writer;
  frame.Encode(&writer);
  const std::string bytes = writer.Release();
  StatusOr<DeltaFrame> decoded = DeltaFrame::Decode(bytes);
  ASSERT_TRUE(decoded.ok()) << decoded.status().ToString();
  EXPECT_EQ(decoded->ticket, frame.ticket);
  EXPECT_EQ(decoded->publish_us, frame.publish_us);
  EXPECT_EQ(decoded->last_chunk, frame.last_chunk);
  ASSERT_EQ(decoded->entries.size(), frame.entries.size());
  EXPECT_TRUE(decoded->entries[0] == frame.entries[0]);
  EXPECT_TRUE(decoded->entries[1] == frame.entries[1]);

  // Hostile inputs survive as status errors, never UB.
  EXPECT_FALSE(DeltaFrame::Decode(bytes.substr(0, bytes.size() / 2)).ok());
  EXPECT_FALSE(DeltaFrame::Decode(bytes + "zz").ok());
}

TEST(WireReplicationTest, ChunkedEncodeReassembles) {
  const PqShape shape{2, 3};
  Rng rng(78);
  auto dict = std::make_shared<LabelDict>();
  // Entries bigger than the chunk budget force several chunks.
  std::vector<PqGramIndex> bags;
  for (int i = 0; i < 6; ++i) {
    bags.push_back(BuildIndex(GenerateDblpLike(dict, &rng, 200), shape));
  }
  std::vector<DeltaEntryView> views;
  for (int i = 0; i < 6; ++i) {
    DeltaEntryView view;
    view.tree_id = i;
    view.is_add = true;
    view.plus = &bags[static_cast<size_t>(i)];
    views.push_back(view);
  }
  const std::vector<std::string> chunks =
      EncodeDeltaFrameChunks(5, 99, views, /*max_payload=*/2048);
  ASSERT_GT(chunks.size(), 1u);
  std::vector<DeltaEntry> assembled;
  for (size_t i = 0; i < chunks.size(); ++i) {
    ASSERT_LE(chunks[i].size(), kMaxFramePayload);
    StatusOr<DeltaFrame> chunk = DeltaFrame::Decode(chunks[i]);
    ASSERT_TRUE(chunk.ok()) << chunk.status().ToString();
    EXPECT_EQ(chunk->ticket, 5u);
    EXPECT_EQ(chunk->publish_us, 99);
    EXPECT_EQ(chunk->last_chunk, i + 1 == chunks.size());
    for (DeltaEntry& entry : chunk->entries) {
      assembled.push_back(std::move(entry));
    }
  }
  ASSERT_EQ(assembled.size(), views.size());
  for (size_t i = 0; i < views.size(); ++i) {
    EXPECT_EQ(assembled[i].tree_id, views[i].tree_id);
    EXPECT_TRUE(assembled[i].is_add);
    EXPECT_TRUE(assembled[i].plus == *views[i].plus);
  }

  // An empty entry list still yields exactly one (heartbeat) chunk.
  const std::vector<std::string> heartbeat = EncodeDeltaFrameChunks(7, 1, {});
  ASSERT_EQ(heartbeat.size(), 1u);
  StatusOr<DeltaFrame> hb = DeltaFrame::Decode(heartbeat[0]);
  ASSERT_TRUE(hb.ok());
  EXPECT_EQ(hb->ticket, 7u);
  EXPECT_TRUE(hb->last_chunk);
  EXPECT_TRUE(hb->entries.empty());
}

// --- server lifecycle regressions ---------------------------------------

TEST(ServiceTest, DoubleStartReturnsFailedPrecondition) {
  // A second Start used to CHECK-abort the process; it must report the
  // caller bug as a status instead.
  StorePtr index = MustCreate("svc_double_start.db", PqShape{2, 3});
  Server server(index.get(), ServerOptions());
  ASSERT_TRUE(server.Start(std::make_unique<PipeListener>()).ok());
  Status again = server.Start(std::make_unique<PipeListener>());
  ASSERT_FALSE(again.ok());
  EXPECT_EQ(again.code(), StatusCode::kFailedPrecondition);
  server.Stop();
}

TEST(ServiceTest, ReadOnlyServerRejectsEdits) {
  ServerOptions options;
  options.read_only = true;
  TestService service("svc_read_only.db", PqShape{2, 3}, options);
  std::unique_ptr<Client> client = service.MustConnect();
  Rng rng(31);
  auto dict = std::make_shared<LabelDict>();
  Tree tree = GenerateDblpLike(dict, &rng, 30);
  Status add = client->AddTree(1, tree);
  ASSERT_FALSE(add.ok());
  EXPECT_EQ(add.code(), StatusCode::kFailedPrecondition);
  // Reads still work.
  EXPECT_TRUE(client->Ping().ok());
  EXPECT_TRUE(client->Lookup(tree, 0.5).ok());
  service.server->Stop();
}

}  // namespace
}  // namespace pqidx
