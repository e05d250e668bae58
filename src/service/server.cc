#include "service/server.h"

#include <algorithm>
#include <chrono>
#include <map>
#include <memory>
#include <utility>

#include "common/check.h"
#include "service/replication.h"

namespace pqidx {
namespace {

// Response payload carrying only a status (Ping, AddTree, ApplyEdits, and
// every error case).
std::string StatusPayload(const Status& status) {
  ByteWriter writer;
  EncodeStatus(status, &writer);
  return writer.Release();
}

// Registry/slow-op-log name of one opcode.
const char* OpcodeName(MessageType type) {
  switch (type) {
    case MessageType::kPing:
      return "ping";
    case MessageType::kLookup:
      return "lookup";
    case MessageType::kAddTree:
      return "add_tree";
    case MessageType::kApplyEdits:
      return "apply_edits";
    case MessageType::kStats:
      return "stats";
    case MessageType::kStatsSnapshot:
      return "stats_snapshot";
    case MessageType::kSubscribe:
      return "subscribe";
    case MessageType::kSubscribeAck:
      return "subscribe_ack";
    case MessageType::kDeltaFrame:
      return "delta_frame";
    case MessageType::kTopK:
      return "topk";
  }
  PQIDX_CHECK_MSG(false, "unreachable message type");
  return "";
}

}  // namespace

Server::Server(ShardedStore* index, ServerOptions options)
    : index_(index), options_(options) {
  PQIDX_CHECK(options_.max_connections >= 1);
  PQIDX_CHECK(options_.max_write_queue >= 0);
  PQIDX_CHECK(options_.max_group_commit >= 1);
  PQIDX_CHECK(options_.lookup_threads >= 0);
  PQIDX_CHECK(options_.lookup_shards >= 0);
  Metrics& metrics = Metrics::Default();
  PQIDX_CHECK(options_.replication_history >= 0);
  PQIDX_CHECK(options_.replication_max_queue >= 1);
  for (uint8_t t = static_cast<uint8_t>(MessageType::kPing);
       t <= static_cast<uint8_t>(MessageType::kTopK); ++t) {
    m_request_us_[t] = metrics.histogram(
        std::string("server.") + OpcodeName(static_cast<MessageType>(t)) +
        "_us");
  }
  m_batch_edits_ = metrics.histogram("server.group_commit_batch");
  m_rebuild_us_ = metrics.histogram("server.snapshot_rebuild_us");
  m_snapshot_incremental_us_ =
      metrics.histogram("server.snapshot_incremental_us");
  m_write_queue_wait_us_ = metrics.histogram("server.write_queue_wait_us");
  m_engine_bytes_ = metrics.gauge("server.resident_bytes.engine");
  m_query_cache_bytes_ = metrics.gauge("server.resident_bytes.query_cache");
  m_pager_pool_bytes_ = metrics.gauge("server.resident_bytes.pager_pool");
  m_replication_ring_bytes_ =
      metrics.gauge("server.resident_bytes.replication_ring");
  m_commit_fanout_threads_ = metrics.gauge("server.commit_fanout_threads");
  m_queue_depth_ = metrics.gauge("server.write_queue_depth");
  m_active_connections_ = metrics.gauge("server.active_connections");
  m_snapshot_epoch_ = metrics.gauge("server.snapshot_epoch");
  m_lookups_ = metrics.counter("server.lookups");
  m_edits_applied_ = metrics.counter("server.edits_applied");
  m_edit_commits_ = metrics.counter("server.edit_commits");
  m_rejected_ = metrics.counter("server.rejected");
  m_protocol_errors_ = metrics.counter("server.protocol_errors");
  slow_us_ = options_.slow_op_us != 0 ? options_.slow_op_us
                                      : SlowOpLog::Default().threshold_us();
  PQIDX_CHECK(options_.query_cache_mb >= 0);
  if (options_.query_cache_mb > 0) {
    QueryCache::Options cache_options;
    cache_options.max_bytes =
        static_cast<size_t>(options_.query_cache_mb) << 20;
    query_cache_ = std::make_unique<QueryCache>(cache_options);
  }
}

Server::~Server() { Stop(); }

Status Server::Start(std::unique_ptr<Listener> listener) {
  if (started_.exchange(true)) {
    // A second Start used to CHECK-abort; a caller bug this cheap to
    // report must not take the process down.
    return FailedPreconditionError("server already started");
  }
  cursor_base_ = index_->replication_cursor();
  std::shared_ptr<const LookupEngine> initial;
  int64_t build_us = 0;
  {
    // Epoch 1, the initial snapshot, compiles from the materialized
    // forest, which is dropped right after; every later epoch is merged
    // from the previous one and a batch's changes (PublishEngine).
    StatusOr<ForestIndex> forest = index_->MaterializeForest();
    PQIDX_RETURN_IF_ERROR(forest.status());
    // A store populated outside replication (bulk ingest) still sits at
    // cursor 0 -- the ticket that also means "follower with nothing".
    // Serve it as logical cursor 1 so the snapshots it ships are stamped
    // with a resumable ticket; otherwise every reconnecting follower
    // would re-snapshot forever. Deterministic across leader restarts
    // (the first commit durably advances the cursor past 1).
    if (cursor_base_ == 0 && forest->size() > 0) cursor_base_ = 1;
    int shards = options_.lookup_shards;
    if (shards == 0) {
      // A one-shard snapshot would make every incremental publish
      // rewrite the whole forest (the lone shard owns every tree), so
      // the default keeps enough shards for copy-on-write sharing even
      // without lookup threads. Build() clamps to the tree count for
      // tiny forests; the engine grows back toward this count as trees
      // arrive.
      shards = std::max(16, options_.lookup_threads * 2);
    }
    shape_ = forest->shape();
    const int64_t build_start_us = Metrics::NowUs();
    initial = LookupEngine::Build(*forest, shards);
    build_us = Metrics::NowUs() - build_start_us;
  }
  m_pager_pool_bytes_->Set(index_->PoolBytes());
  if (options_.lookup_threads > 0) {
    lookup_pool_ = std::make_unique<ThreadPool>(options_.lookup_threads);
  }
  if (index_->shard_count() > 1) {
    // The one write-path fan-out that measured a gain: a group commit's
    // per-shard prepare/finish, never more threads than cores.
    const int cores =
        std::max(1, static_cast<int>(std::thread::hardware_concurrency()));
    commit_fanout_pool_ = std::make_unique<ThreadPool>(
        std::min(index_->shard_count(), cores));
  }
  m_commit_fanout_threads_->Set(
      commit_fanout_pool_ != nullptr ? commit_fanout_pool_->num_threads() : 0);
  if (options_.replication) {
    ReplicationHubOptions hub_options;
    hub_options.history = options_.replication_history;
    hub_options.max_queue = options_.replication_max_queue;
    hub_ = std::make_unique<ReplicationHub>(hub_options);
    hub_->Initialize(cursor_base_);
  }
  InstallEngine(std::move(initial), build_us, cursor_base_);
  if (listener != nullptr) {
    listener_ = std::move(listener);
    pool_ = std::make_unique<ThreadPool>(options_.max_connections);
    accept_thread_ = std::thread([this] { AcceptLoop(); });
  }
  return Status::Ok();
}

std::shared_ptr<const LookupEngine> Server::EngineSnapshot() const {
  MutexLock lock(&engine_mutex_);
  return engine_;
}

void Server::PublishEngine(const std::map<TreeId, TreeChange>& changes,
                           uint64_t ticket) {
  const int64_t start_us = Metrics::NowUs();
  std::vector<LookupEngine::TreeUpdate> updates;
  updates.reserve(changes.size());
  for (const auto& [id, change] : changes) {
    updates.push_back({id, change.replace, &change.plus, &change.minus});
  }
  std::shared_ptr<const LookupEngine> next =
      LookupEngine::ApplyDelta(EngineSnapshot(), updates);
  const int64_t us = Metrics::NowUs() - start_us;
  if (Metrics::enabled()) m_snapshot_incremental_us_->Record(us);
  InstallEngine(std::move(next), us, ticket);
}

void Server::InstallEngine(std::shared_ptr<const LookupEngine> next,
                           int64_t us, uint64_t ticket) {
  const std::vector<uint64_t> uids = next->ShardUids();
  m_engine_bytes_->Set(next->ResidentBytes());
  {
    MutexLock lock(&engine_mutex_);
    engine_ = std::move(next);
    engine_ticket_ = ticket;
  }
  // Reclaim the result-cache entries of shards the publish replaced;
  // shared shards stay warm.
  if (query_cache_ != nullptr) {
    query_cache_->OnPublish(uids);
    m_query_cache_bytes_->Set(query_cache_->bytes());
  }
  snapshot_epoch_.fetch_add(1);
  last_rebuild_us_.store(us);
  snapshot_rebuild_us_.fetch_add(us);
  m_snapshot_epoch_->Set(snapshot_epoch_.load());
  if (Metrics::enabled()) m_rebuild_us_->Record(us);
}

void Server::Stop() {
  if (!started_.load() || stopped_.exchange(true)) return;
  if (listener_ != nullptr) listener_->Close();
  {
    MutexLock lock(&connections_mutex_);
    for (const std::weak_ptr<Connection>& weak : connections_) {
      if (std::shared_ptr<Connection> conn = weak.lock()) conn->Close();
    }
  }
  // End every subscription so ServeSubscriber handlers stop waiting for
  // frames and observe their closed connections.
  if (hub_ != nullptr) hub_->Shutdown();
  if (accept_thread_.joinable()) accept_thread_.join();
  // Joining the pool drains the handlers; their connections are already
  // shut down, so every blocked Send/ReceiveExact has returned.
  pool_.reset();
}

ServiceStats Server::stats() const {
  ServiceStats stats;
  // shape_ is immutable after Start().
  stats.p = shape_.p;
  stats.q = shape_.q;
  const std::shared_ptr<const LookupEngine> engine = EngineSnapshot();
  stats.tree_count = engine != nullptr ? engine->size() : 0;
  stats.lookups = lookups_.load();
  stats.edits_applied = edits_applied_.load();
  stats.edit_commits = edit_commits_.load();
  stats.max_batch = max_batch_.load();
  stats.rejected = rejected_.load();
  stats.protocol_errors = protocol_errors_.load();
  stats.snapshot_epoch = snapshot_epoch_.load();
  stats.candidates_pruned = candidates_pruned_.load();
  stats.candidates_scored = candidates_scored_.load();
  stats.snapshot_rebuild_us = snapshot_rebuild_us_.load();
  stats.last_rebuild_us = last_rebuild_us_.load();
  return stats;
}

void Server::AcceptLoop() {
  for (;;) {
    StatusOr<std::unique_ptr<Connection>> accepted = listener_->Accept();
    if (!accepted.ok()) return;  // listener closed (or broken): stop
    std::shared_ptr<Connection> conn = std::move(accepted).value();
    if (active_connections_.load() >= options_.max_connections) {
      // Admission control: reject before reading anything. request_id 0
      // marks a connection-level rejection (no request carries id 0).
      rejected_.fetch_add(1);
      m_rejected_->Increment();
      FrameHeader header;
      header.type = MessageType::kPing;
      header.flags = kFrameFlagResponse;
      header.request_id = 0;
      std::string payload =
          StatusPayload(UnavailableError("server at connection capacity"));
      header.payload_size = static_cast<uint32_t>(payload.size());
      // Best-effort courtesy reply; the connection is being refused
      // either way, so a send failure changes nothing.
      (void)conn->Send(EncodeFrame(header, payload));
      conn->Close();
      continue;
    }
    active_connections_.fetch_add(1);
    m_active_connections_->Set(active_connections_.load());
    {
      MutexLock lock(&connections_mutex_);
      std::erase_if(connections_,
                    [](const std::weak_ptr<Connection>& w) {
                      return w.expired();
                    });
      connections_.push_back(conn);
    }
    pool_->Schedule([this, conn] { HandleConnection(conn); });
  }
}

void Server::HandleConnection(const std::shared_ptr<Connection>& conn) {
  std::string buffer;
  for (;;) {
    Status received = conn->ReceiveExact(kFrameHeaderSize, &buffer);
    if (!received.ok()) {
      // OUT_OF_RANGE is a clean close between frames; anything else is a
      // torn connection. Either way this handler is done.
      if (received.code() != StatusCode::kOutOfRange &&
          !stopped_.load()) {
        protocol_errors_.fetch_add(1);
        m_protocol_errors_->Increment();
      }
      break;
    }
    FrameHeader header;
    Status decoded = DecodeFrameHeader(buffer, &header);
    if (decoded.ok() && header.is_response()) {
      decoded = DataLossError("response frame sent to server");
    }
    if (!decoded.ok()) {
      // The stream cannot be resynchronized after a bad header: report
      // the error on request_id 0 and drop the connection.
      protocol_errors_.fetch_add(1);
      m_protocol_errors_->Increment();
      FrameHeader error_header;
      error_header.type = MessageType::kPing;
      error_header.flags = kFrameFlagResponse;
      error_header.request_id = 0;
      std::string payload = StatusPayload(decoded);
      error_header.payload_size = static_cast<uint32_t>(payload.size());
      // Best-effort error report; the handler tears the stream down on
      // the next line regardless of whether the peer saw it.
      (void)conn->Send(EncodeFrame(error_header, payload));
      break;
    }
    std::string payload;
    if (header.payload_size > 0) {
      Status body = conn->ReceiveExact(header.payload_size, &payload);
      if (!body.ok()) {
        if (!stopped_.load()) {
          protocol_errors_.fetch_add(1);
          m_protocol_errors_->Increment();
        }
        break;
      }
    }
    if (header.type == MessageType::kSubscribe) {
      // A subscription takes over the connection: the peer sends
      // nothing further and this end streams delta frames until one
      // side drops.
      ServeSubscriber(conn, header, payload);
      break;
    }
    const int64_t request_start_us =
        Metrics::enabled() ? Metrics::NowUs() : 0;
    std::string response = HandleRequest(header.type, payload);
    if (Metrics::enabled()) {
      const int64_t us = Metrics::NowUs() - request_start_us;
      m_request_us_[static_cast<uint8_t>(header.type)]->Record(us);
      if (slow_us_ > 0 && us >= slow_us_) {
        // ForceReport: slow_us_ (ServerOptions::slow_op_us) is this
        // server's threshold; the default log's must not re-filter.
        SlowOpLog::Default().ForceReport(
            std::string("server.") + OpcodeName(header.type), us,
            "payload_bytes=" + std::to_string(payload.size()));
      }
    }
    FrameHeader response_header;
    response_header.type = header.type;
    response_header.flags = kFrameFlagResponse;
    response_header.request_id = header.request_id;
    response_header.payload_size = static_cast<uint32_t>(response.size());
    if (!conn->Send(EncodeFrame(response_header, response)).ok()) break;
  }
  conn->Close();
  active_connections_.fetch_sub(1);
  m_active_connections_->Set(active_connections_.load());
}

std::string Server::HandleRequest(MessageType type,
                                  std::string_view payload) {
  switch (type) {
    case MessageType::kPing:
      return StatusPayload(Status::Ok());
    case MessageType::kLookup:
      return HandleLookup(payload);
    case MessageType::kTopK:
      return HandleTopK(payload);
    case MessageType::kAddTree:
      return HandleAddTree(payload);
    case MessageType::kApplyEdits:
      return HandleApplyEdits(payload);
    case MessageType::kStats:
      return HandleStats();
    case MessageType::kStatsSnapshot:
      return HandleStatsSnapshot(payload);
    case MessageType::kSubscribe:
    case MessageType::kSubscribeAck:
    case MessageType::kDeltaFrame:
      // kSubscribe is intercepted before dispatch (HandleConnection);
      // the stream messages are only ever valid leader -> follower.
      protocol_errors_.fetch_add(1);
      m_protocol_errors_->Increment();
      return StatusPayload(InvalidArgumentError(
          "replication opcode outside a subscription stream"));
  }
  // DecodeFrameHeader admits only the enumerated types.
  PQIDX_CHECK_MSG(false, "unreachable message type");
  return std::string();
}

std::string Server::HandleLookup(std::string_view payload) {
  StatusOr<LookupRequest> request = LookupRequest::Decode(payload);
  if (!request.ok()) {
    protocol_errors_.fetch_add(1);
    m_protocol_errors_->Increment();
    return StatusPayload(request.status());
  }
  // LookupEngine::Lookup CHECK-fails on a shape mismatch; a remote
  // caller must never be able to trip that, so validate here.
  std::shared_ptr<const LookupEngine> engine = EngineSnapshot();
  if (!(request->query.shape() == engine->shape())) {
    return StatusPayload(InvalidArgumentError("query shape mismatch"));
  }
  // Scoring runs on the private snapshot copy with no lock held:
  // concurrent commits publish new snapshots without ever blocking this.
  LookupEngineStats engine_stats;
  LookupResponse response;
  response.results =
      engine->Lookup(request->query, request->tau, lookup_pool_.get(),
                     &engine_stats, query_cache_.get());
  lookups_.fetch_add(1);
  m_lookups_->Increment();
  candidates_pruned_.fetch_add(engine_stats.pruned);
  candidates_scored_.fetch_add(engine_stats.scored);
  ByteWriter writer;
  EncodeStatus(Status::Ok(), &writer);
  response.Encode(&writer);
  return writer.Release();
}

std::string Server::HandleTopK(std::string_view payload) {
  StatusOr<TopKRequest> request = TopKRequest::Decode(payload);
  if (!request.ok()) {
    protocol_errors_.fetch_add(1);
    m_protocol_errors_->Increment();
    return StatusPayload(request.status());
  }
  std::shared_ptr<const LookupEngine> engine = EngineSnapshot();
  if (!(request->query.shape() == engine->shape())) {
    return StatusPayload(InvalidArgumentError("query shape mismatch"));
  }
  LookupEngineStats engine_stats;
  LookupResponse response;
  response.results =
      engine->TopK(request->query, request->k, lookup_pool_.get(),
                   &engine_stats, query_cache_.get());
  lookups_.fetch_add(1);
  m_lookups_->Increment();
  candidates_pruned_.fetch_add(engine_stats.pruned);
  candidates_scored_.fetch_add(engine_stats.scored);
  ByteWriter writer;
  EncodeStatus(Status::Ok(), &writer);
  response.Encode(&writer);
  return writer.Release();
}

std::string Server::HandleAddTree(std::string_view payload) {
  if (options_.read_only) {
    return StatusPayload(
        FailedPreconditionError("read-only follower rejects edits"));
  }
  if (payload.size() > kMaxEditPayload) {
    // The cap (wire.h) keeps a committed batch re-encodable into delta
    // frames: every chunk fits under the frame limit.
    protocol_errors_.fetch_add(1);
    m_protocol_errors_->Increment();
    return StatusPayload(InvalidArgumentError("edit payload too large"));
  }
  StatusOr<AddTreeRequest> request = AddTreeRequest::Decode(payload);
  if (!request.ok()) {
    protocol_errors_.fetch_add(1);
    m_protocol_errors_->Increment();
    return StatusPayload(request.status());
  }
  if (!(request->bag.shape() == shape_)) {
    return StatusPayload(InvalidArgumentError("bag shape mismatch"));
  }
  PendingEdit edit;
  edit.id = request->tree_id;
  edit.is_add = true;
  edit.add_or_plus = std::move(request->bag);
  return StatusPayload(SubmitEdit(&edit));
}

std::string Server::HandleApplyEdits(std::string_view payload) {
  if (options_.read_only) {
    return StatusPayload(
        FailedPreconditionError("read-only follower rejects edits"));
  }
  if (payload.size() > kMaxEditPayload) {
    protocol_errors_.fetch_add(1);
    m_protocol_errors_->Increment();
    return StatusPayload(InvalidArgumentError("edit payload too large"));
  }
  StatusOr<ApplyEditsRequest> request = ApplyEditsRequest::Decode(payload);
  if (!request.ok()) {
    protocol_errors_.fetch_add(1);
    m_protocol_errors_->Increment();
    return StatusPayload(request.status());
  }
  if (!(request->plus.shape() == shape_) ||
      !(request->minus.shape() == shape_)) {
    return StatusPayload(InvalidArgumentError("delta bag shape mismatch"));
  }
  PendingEdit edit;
  edit.id = request->tree_id;
  edit.is_add = false;
  edit.add_or_plus = std::move(request->plus);
  edit.minus = std::move(request->minus);
  return StatusPayload(SubmitEdit(&edit));
}

std::string Server::HandleStats() {
  ByteWriter writer;
  EncodeStatus(Status::Ok(), &writer);
  stats().Encode(&writer);
  return writer.Release();
}

std::string Server::HandleStatsSnapshot(std::string_view payload) {
  // The request carries no body; reject anything else so a confused
  // client fails loudly instead of having bytes silently ignored.
  if (!payload.empty()) {
    protocol_errors_.fetch_add(1);
    m_protocol_errors_->Increment();
    return StatusPayload(
        InvalidArgumentError("stats snapshot request carries a payload"));
  }
  // The cache's bytes move on every insert, not just at publishes.
  if (query_cache_ != nullptr) {
    m_query_cache_bytes_->Set(query_cache_->bytes());
  }
  ByteWriter writer;
  EncodeStatus(Status::Ok(), &writer);
  EncodeMetricsSnapshot(Metrics::Default().Snapshot(), &writer);
  return writer.Release();
}

Status Server::SubmitEdit(PendingEdit* edit) {
  MutexLock lock(&write_mutex_);
  if (static_cast<int>(write_queue_.size()) >= options_.max_write_queue) {
    rejected_.fetch_add(1);
    m_rejected_->Increment();
    return UnavailableError("write queue full");
  }
  if (Metrics::enabled()) edit->enqueued_us = Metrics::NowUs();
  write_queue_.push_back(edit);
  m_queue_depth_->Set(static_cast<int64_t>(write_queue_.size()));
  for (;;) {
    if (edit->done) return edit->result;
    // No leader is active, so our edit is still queued: lead its batch.
    if (!leader_active_) {
      // Optionally hold leadership so concurrent writers can pile into
      // this batch -- the same window a slow fsync opens naturally.
      leader_active_ = true;
      if (options_.commit_hold_us > 0) {
        lock.Unlock();
        std::this_thread::sleep_for(
            std::chrono::microseconds(options_.commit_hold_us));
        lock.Lock();
      }
      std::vector<PendingEdit*> batch;
      const bool timed = Metrics::enabled();
      const int64_t drained_us = timed ? Metrics::NowUs() : 0;
      while (!write_queue_.empty() &&
             static_cast<int>(batch.size()) < options_.max_group_commit) {
        PendingEdit* queued = write_queue_.front();
        write_queue_.pop_front();
        if (timed && queued->enqueued_us > 0) {
          m_write_queue_wait_us_->Record(drained_us - queued->enqueued_us);
        }
        batch.push_back(queued);
      }
      m_queue_depth_->Set(static_cast<int64_t>(write_queue_.size()));
      // The durable replication cursor for this batch: tickets restart
      // at 0 every Start, so offset them past the store's cursor (+1
      // keeps cursor 0 meaning "nothing replicated").
      const uint64_t cursor = cursor_base_ + ++next_ticket_;
      lock.Unlock();
      CommitBatch(batch, cursor);
      lock.Lock();
      for (PendingEdit* done : batch) done->done = true;
      leader_active_ = false;
      write_cv_.NotifyAll();
      continue;  // our own edit is usually in `batch`; re-check
    }
    write_cv_.Wait(&write_mutex_);
  }
}

int64_t Server::TreeChange::CountAfter(PqGramFingerprint fp,
                                      int64_t published) const {
  return replace ? plus.Count(fp)
                 : published + plus.Count(fp) - minus.Count(fp);
}

void Server::TreeChange::Fold(const PqGramIndex& edit_plus,
                              const PqGramIndex& edit_minus) {
  if (replace) {
    for (const auto& [fp, count] : edit_minus.counts()) plus.Remove(fp, count);
    for (const auto& [fp, count] : edit_plus.counts()) plus.Add(fp, count);
    return;
  }
  // A count an earlier edit of the batch added is taken back before a
  // removal reaches the snapshot's count, and vice versa, so the net
  // delta never holds a fingerprint on both sides.
  auto move = [](PqGramFingerprint fp, int64_t count, PqGramIndex* from,
                 PqGramIndex* to) {
    const int64_t cancelled = std::min(count, from->Count(fp));
    from->Remove(fp, cancelled);
    to->Add(fp, count - cancelled);
  };
  for (const auto& [fp, count] : edit_minus.counts()) {
    move(fp, count, &plus, &minus);
  }
  for (const auto& [fp, count] : edit_plus.counts()) {
    move(fp, count, &minus, &plus);
  }
}

void Server::ValidateBatch(const std::vector<PendingEdit*>& batch,
                           StagedBatch* staged) {
  // Mirrors the catalog checks inside PersistentForestIndex::ApplyBatch.
  // Crucially this proves minus is a sub-bag of the stored bag, which
  // the storage layer's UpdateTree contract requires of its callers:
  // one snapshot probe per minus tuple, never a copy of the bag.
  const std::shared_ptr<const LookupEngine> engine = EngineSnapshot();
  for (size_t i = 0; i < batch.size(); ++i) {
    PendingEdit& edit = *batch[i];
    auto change = staged->changes.find(edit.id);
    // Edits never remove a tree, so one the batch touched exists.
    const bool exists =
        change != staged->changes.end() || engine->Contains(edit.id);
    PersistentForestIndex::BatchEdit batch_edit;
    batch_edit.id = edit.id;
    if (edit.is_add) {
      if (exists) {
        edit.result = FailedPreconditionError("tree already indexed");
        continue;
      }
      staged->changes.emplace(
          edit.id, TreeChange{true, edit.add_or_plus, PqGramIndex(shape_)});
      batch_edit.add = &edit.add_or_plus;
    } else {
      if (!exists) {
        edit.result = NotFoundError("tree not indexed");
        continue;
      }
      const TreeChange* prior =
          change != staged->changes.end() ? &change->second : nullptr;
      bool sub_bag = true;
      for (const auto& [fp, count] : edit.minus.counts()) {
        const int64_t published = prior != nullptr && prior->replace
                                      ? 0
                                      : engine->Count(edit.id, fp);
        const int64_t current =
            prior != nullptr ? prior->CountAfter(fp, published) : published;
        if (current < count) {
          sub_bag = false;
          break;
        }
      }
      if (!sub_bag) {
        edit.result = InvalidArgumentError(
            "minus bag is not a sub-bag of the stored bag");
        continue;
      }
      if (prior == nullptr) {
        change = staged->changes
                     .emplace(edit.id, TreeChange{false, PqGramIndex(shape_),
                                                  PqGramIndex(shape_)})
                     .first;
      }
      change->second.Fold(edit.add_or_plus, edit.minus);
      batch_edit.plus = &edit.add_or_plus;
      batch_edit.minus = &edit.minus;
    }
    staged->edits.push_back(batch_edit);
    staged->edit_to_batch.push_back(i);
  }
}

void Server::CommitBatch(const std::vector<PendingEdit*>& batch,
                         uint64_t cursor) {
  const int64_t start_us = Metrics::enabled() ? Metrics::NowUs() : 0;
  PersistentForestIndex::ApplyBatchTimings timings;
  StagedBatch staged;
  ValidateBatch(batch, &staged);
  if (staged.edits.empty()) return;

  std::vector<Status> results;
  const Status committed =
      index_->ApplyBatch(staged.edits, &results, &timings,
                         commit_fanout_pool_.get(), cursor);
  m_pager_pool_bytes_->Set(index_->PoolBytes());
  int64_t applied = 0;
  for (size_t j = 0; j < staged.edits.size(); ++j) {
    batch[staged.edit_to_batch[j]]->result = results[j];
    // ValidateBatch mirrors the catalog validation inside ApplyBatch, so a staged edit can only fail with the whole batch.
    PQIDX_DCHECK(results[j].ok() == committed.ok());
    if (results[j].ok()) ++applied;
  }
  // A failed batch was rolled back by the store: nothing to publish.
  if (!committed.ok() || applied == 0) return;

  // Publish the batch to readers: fold its changes into the next
  // snapshot epoch and swap it in, stamped with `cursor` BEFORE the hub
  // Publish below, so a subscriber registering under engine_mutex_
  // either sees this cursor in its snapshot or gets this frame from the
  // hub -- never neither.
  PublishEngine(staged.changes, cursor);
  std::vector<std::string> chunks;
  if (hub_ != nullptr) {
    std::vector<DeltaEntryView> views;
    views.reserve(staged.edits.size());
    for (const PersistentForestIndex::BatchEdit& edit : staged.edits) {
      DeltaEntryView view;
      view.tree_id = edit.id;
      view.is_add = edit.add != nullptr;
      view.plus = view.is_add ? edit.add : edit.plus;
      view.minus = view.is_add ? nullptr : edit.minus;
      views.push_back(view);
    }
    chunks = EncodeDeltaFrameChunks(cursor, Metrics::NowUs(), views);
  }
  // Fan out to followers. Publish never blocks on a subscriber (bounded
  // queues + drop policy), so this adds only the fan-out memcpys to the
  // commit path.
  if (hub_ != nullptr) {
    hub_->Publish(cursor, std::move(chunks));
    m_replication_ring_bytes_->Set(hub_->history_bytes());
  }

  edits_applied_.fetch_add(applied);
  edit_commits_.fetch_add(1);
  m_edits_applied_->Add(applied);
  m_edit_commits_->Increment();
  int64_t seen = max_batch_.load();
  while (applied > seen && !max_batch_.compare_exchange_weak(seen, applied)) {
  }
  if (Metrics::enabled()) {
    m_batch_edits_->Record(applied);
    const int64_t total_us = Metrics::NowUs() - start_us;
    if (slow_us_ > 0 && total_us >= slow_us_) {
      // The leader's phase breakdown: store apply split + snapshot
      // publish, which together dominate a slow commit.
      SlowOpLog::Default().ForceReport(
          "server.commit_batch", total_us,
          "batch=" + std::to_string(applied) +
              " validate_us=" + std::to_string(timings.validate_us) +
              " delta_us=" + std::to_string(timings.delta_us) +
              " update_us=" + std::to_string(timings.update_us) +
              " storage_us=" + std::to_string(timings.storage_us) +
              " publish_us=" + std::to_string(last_rebuild_us_.load()));
    }
  }
}

void Server::ServeSubscriber(const std::shared_ptr<Connection>& conn,
                             const FrameHeader& header,
                             std::string_view payload) {
  auto send_ack = [&](const Status& status, const SubscribeAck& ack) {
    ByteWriter writer;
    EncodeStatus(status, &writer);
    if (status.ok()) ack.Encode(&writer);
    const std::string body = writer.Release();
    FrameHeader response_header;
    response_header.type = MessageType::kSubscribeAck;
    response_header.flags = kFrameFlagResponse;
    response_header.request_id = header.request_id;
    response_header.payload_size = static_cast<uint32_t>(body.size());
    return conn->Send(EncodeFrame(response_header, body));
  };
  StatusOr<SubscribeRequest> request = SubscribeRequest::Decode(payload);
  if (!request.ok()) {
    protocol_errors_.fetch_add(1);
    m_protocol_errors_->Increment();
    (void)send_ack(request.status(), SubscribeAck());
    return;
  }
  if (hub_ == nullptr) {
    (void)send_ack(FailedPreconditionError("replication is disabled"),
                   SubscribeAck());
    return;
  }
  Subscription sub;
  SubscribeAck ack;
  ack.p = static_cast<uint8_t>(shape_.p);
  ack.q = static_cast<uint8_t>(shape_.q);
  std::shared_ptr<const LookupEngine> image;
  {
    // Register against the ticket installed together with engine_: the
    // leader installs each epoch BEFORE its hub Publish, so a frame is
    // either reflected in the image taken here or enqueued on the fresh
    // subscription -- never lost, and duplicates are filtered by the
    // subscription's skip_to_.
    MutexLock lock(&engine_mutex_);
    // Cursor 0 means "nothing replicated yet". That only delta-resumes
    // against a leader that was empty at its own cursor 0; a store
    // populated before replication existed (cursor_base_ 0 with trees)
    // must ship a snapshot or the follower would silently miss them.
    const bool force_snapshot =
        request->force_snapshot ||
        (request->from_ticket == 0 && engine_->size() > 0);
    const ReplicationHub::Resume resume = hub_->Register(
        &sub, request->from_ticket, force_snapshot, engine_ticket_);
    if (resume == ReplicationHub::Resume::kSnapshot) {
      ack.mode = SubscribeAck::Mode::kSnapshot;
      ack.ticket = engine_ticket_;
      image = engine_;
    } else {
      ack.mode = SubscribeAck::Mode::kDelta;
      ack.ticket = request->from_ticket;
    }
  }
  // The image is immutable, so it is encoded with no lock held: a
  // snapshot never blocks the leader.
  std::vector<std::string> snapshot_chunks;
  if (image != nullptr) {
    std::vector<std::string> entries;
    entries.reserve(static_cast<size_t>(image->size()));
    image->ForEachBag([&](TreeId id, const PqGramIndex& bag) {
      entries.push_back(EncodeDeltaEntry({id, true, &bag, nullptr}));
    });
    image.reset();
    snapshot_chunks =
        PackDeltaFrameChunks(ack.ticket, Metrics::NowUs(), entries);
  }
  auto send_chunks = [&](const std::vector<std::string>& chunks) {
    for (const std::string& chunk : chunks) {
      FrameHeader frame_header;
      frame_header.type = MessageType::kDeltaFrame;
      frame_header.flags = kFrameFlagResponse;
      frame_header.request_id = header.request_id;
      frame_header.payload_size = static_cast<uint32_t>(chunk.size());
      if (!conn->Send(EncodeFrame(frame_header, chunk)).ok()) return false;
    }
    return true;
  };
  bool live = send_ack(Status::Ok(), ack).ok();
  if (live) live = send_chunks(snapshot_chunks);
  // Stream until the subscriber drops, the hub drops it (slow), or the
  // server stops. Quiet periods send heartbeat frames: the newest
  // ticket with no entries, so the follower can compute freshness lag.
  constexpr int64_t kHeartbeatUs = 500'000;
  while (live && !stopped_.load()) {
    ReplicatedFrame frame;
    const Subscription::Next next = sub.Wait(kHeartbeatUs, &frame);
    if (next == Subscription::Next::kDone) break;
    if (next == Subscription::Next::kTimeout) {
      live = send_chunks(
          EncodeDeltaFrameChunks(hub_->last_ticket(), Metrics::NowUs(), {}));
      continue;
    }
    live = send_chunks(*frame.chunks);
  }
  hub_->Unregister(&sub);
}

Status Server::ApplyReplicated(std::vector<DeltaFrame> frames) {
  if (!started_.load() || stopped_.load()) {
    return FailedPreconditionError("server not running");
  }
  if (!options_.read_only) {
    return FailedPreconditionError(
        "ApplyReplicated requires a read-only (follower) server");
  }
  // Coalesce the run into one group-commit batch stamped with the
  // newest ticket. Frames at or below the durable cursor are replays
  // the leader re-sent across a reconnect.
  const uint64_t durable = index_->replication_cursor();
  uint64_t cursor = durable;
  std::deque<PendingEdit> edits;  // deque: stable addresses for `batch`
  std::vector<PendingEdit*> batch;
  for (DeltaFrame& frame : frames) {
    if (frame.ticket <= durable) continue;
    if (frame.ticket > cursor) cursor = frame.ticket;
    for (DeltaEntry& entry : frame.entries) {
      PendingEdit& edit = edits.emplace_back();
      edit.id = entry.tree_id;
      edit.is_add = entry.is_add;
      edit.add_or_plus = std::move(entry.plus);
      edit.minus = std::move(entry.minus);
      batch.push_back(&edit);
    }
  }
  if (batch.empty()) return Status::Ok();
  {
    MutexLock lock(&write_mutex_);
    while (leader_active_) write_cv_.Wait(&write_mutex_);
    leader_active_ = true;
  }
  CommitBatch(batch, cursor);
  {
    MutexLock lock(&write_mutex_);
    leader_active_ = false;
  }
  write_cv_.NotifyAll();
  for (const PendingEdit* edit : batch) {
    if (!edit->result.ok()) {
      // The leader committed this edit; a local rejection means the
      // stores diverged -- the follower must resync from a snapshot.
      return DataLossError("replicated batch diverged: " +
                           edit->result.message());
    }
  }
  return Status::Ok();
}

}  // namespace pqidx
