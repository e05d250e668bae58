#include "service/replication.h"

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>

#include "common/check.h"
#include "common/serde.h"

namespace pqidx {
namespace {

// Payload bytes of one retained frame.
int64_t FrameBytes(const ReplicatedFrame& frame) {
  int64_t bytes = 0;
  for (const std::string& chunk : *frame.chunks) {
    bytes += static_cast<int64_t>(chunk.size());
  }
  return bytes;
}

}  // namespace

// --- Subscription -------------------------------------------------------

Subscription::Next Subscription::Wait(int64_t timeout_us,
                                      ReplicatedFrame* out) {
  const int64_t deadline_us = Metrics::NowUs() + timeout_us;
  MutexLock lock(&mutex_);
  for (;;) {
    if (!queue_.empty()) {
      *out = std::move(queue_.front());
      queue_.pop_front();
      if (depth_gauge_ != nullptr) {
        depth_gauge_->Set(static_cast<int64_t>(queue_.size()));
      }
      return Next::kFrame;
    }
    if (finished_) return Next::kDone;
    const int64_t remaining_us = deadline_us - Metrics::NowUs();
    if (remaining_us <= 0) return Next::kTimeout;
    cv_.WaitFor(&mutex_, remaining_us);
  }
}

// --- ReplicationHub -----------------------------------------------------

ReplicationHub::ReplicationHub(ReplicationHubOptions options)
    : options_(options) {
  PQIDX_CHECK(options_.history >= 0);
  PQIDX_CHECK(options_.max_queue >= 1);
  Metrics& metrics = Metrics::Default();
  m_subscribers_ = metrics.gauge("replication.subscribers");
  m_frames_published_ = metrics.counter("replication.frames_published");
  m_subscribers_dropped_ =
      metrics.counter("replication.subscribers_dropped");
  for (int i = 0; i < kGaugeSlots; ++i) {
    m_slot_depth_[i] = metrics.gauge("replication.sub" + std::to_string(i) +
                                     ".queue_depth");
  }
}

void ReplicationHub::Initialize(uint64_t base_ticket) {
  MutexLock lock(&mutex_);
  history_.clear();
  history_bytes_ = 0;
  history_base_ = base_ticket;
  last_ticket_.store(base_ticket, std::memory_order_relaxed);
}

ReplicationHub::Resume ReplicationHub::Register(Subscription* sub,
                                                uint64_t from_ticket,
                                                bool force_snapshot,
                                                uint64_t snapshot_ticket) {
  MutexLock lock(&mutex_);
  sub->slot_ = -1;
  for (int i = 0; i < kGaugeSlots; ++i) {
    if ((slots_used_ & (1u << i)) == 0) {
      sub->slot_ = i;
      slots_used_ |= 1u << i;
      break;
    }
  }
  sub->depth_gauge_ = sub->slot_ >= 0 ? m_slot_depth_[sub->slot_] : nullptr;
  const uint64_t last = last_ticket_.load(std::memory_order_relaxed);
  bool delta =
      !force_snapshot && from_ticket >= history_base_ && from_ticket <= last;
  if (delta) {
    size_t backlog = 0;
    for (const ReplicatedFrame& frame : history_) {
      if (frame.ticket > from_ticket) ++backlog;
    }
    // A backlog the queue bound cannot hold would drop the subscriber
    // on its first Publish; a snapshot is the honest answer.
    if (backlog > static_cast<size_t>(options_.max_queue)) delta = false;
  }
  {
    MutexLock sub_lock(&sub->mutex_);
    sub->skip_to_ = delta ? from_ticket : snapshot_ticket;
    sub->finished_ = shutdown_;
    if (delta) {
      for (const ReplicatedFrame& frame : history_) {
        if (frame.ticket > from_ticket) sub->queue_.push_back(frame);
      }
      if (sub->depth_gauge_ != nullptr) {
        sub->depth_gauge_->Set(static_cast<int64_t>(sub->queue_.size()));
      }
    }
  }
  subscribers_.push_back(sub);
  m_subscribers_->Set(static_cast<int64_t>(subscribers_.size()));
  return delta ? Resume::kDelta : Resume::kSnapshot;
}

void ReplicationHub::Unregister(Subscription* sub) {
  MutexLock lock(&mutex_);
  std::erase(subscribers_, sub);
  if (sub->slot_ >= 0) {
    slots_used_ &= ~(1u << sub->slot_);
    m_slot_depth_[sub->slot_]->Set(0);
    sub->slot_ = -1;
  }
  {
    MutexLock sub_lock(&sub->mutex_);
    sub->finished_ = true;
    sub->cv_.NotifyAll();
  }
  m_subscribers_->Set(static_cast<int64_t>(subscribers_.size()));
}

void ReplicationHub::Publish(uint64_t ticket,
                             std::vector<std::string> chunks) {
  ReplicatedFrame frame;
  frame.ticket = ticket;
  frame.chunks = std::make_shared<const std::vector<std::string>>(
      std::move(chunks));
  MutexLock lock(&mutex_);
  PQIDX_DCHECK(ticket > last_ticket_.load(std::memory_order_relaxed));
  last_ticket_.store(ticket, std::memory_order_relaxed);
  if (options_.history > 0) {
    history_.push_back(frame);
    history_bytes_ += FrameBytes(frame);
    if (static_cast<int>(history_.size()) > options_.history) {
      // The evicted ticket stays resumable: every frame past it is
      // still retained.
      history_base_ = history_.front().ticket;
      history_bytes_ -= FrameBytes(history_.front());
      history_.pop_front();
    }
  } else {
    history_base_ = ticket;
  }
  m_frames_published_->Increment();
  for (Subscription* sub : subscribers_) {
    MutexLock sub_lock(&sub->mutex_);
    if (sub->finished_ || ticket <= sub->skip_to_) continue;
    if (static_cast<int>(sub->queue_.size()) >= options_.max_queue) {
      // Slow-subscriber policy: disconnect instead of blocking the
      // commit path or growing without bound. The follower reconnects
      // and the history window decides delta vs. snapshot.
      sub->queue_.clear();
      sub->finished_ = true;
      sub->dropped_.store(true, std::memory_order_relaxed);
      if (sub->depth_gauge_ != nullptr) sub->depth_gauge_->Set(0);
      m_subscribers_dropped_->Increment();
      sub->cv_.NotifyAll();
      continue;
    }
    sub->queue_.push_back(frame);
    if (sub->depth_gauge_ != nullptr) {
      sub->depth_gauge_->Set(static_cast<int64_t>(sub->queue_.size()));
    }
    sub->cv_.NotifyAll();
  }
}

int64_t ReplicationHub::history_bytes() const {
  MutexLock lock(&mutex_);
  return history_bytes_;
}

void ReplicationHub::Shutdown() {
  MutexLock lock(&mutex_);
  shutdown_ = true;
  for (Subscription* sub : subscribers_) {
    MutexLock sub_lock(&sub->mutex_);
    sub->finished_ = true;
    sub->cv_.NotifyAll();
  }
}

// --- Follower -----------------------------------------------------------

Follower::Follower(FollowerOptions options) : options_(std::move(options)) {
  PQIDX_CHECK(options_.dial != nullptr);
  PQIDX_CHECK(!options_.store_path.empty());
  PQIDX_CHECK(options_.max_apply_batch >= 1);
  PQIDX_CHECK(options_.max_pending >= 1);
  options_.server.read_only = true;
  Metrics& metrics = Metrics::Default();
  m_lag_tickets_ = metrics.gauge("replication.lag_tickets");
  m_lag_us_ = metrics.gauge("replication.lag_us");
  m_reconnects_ = metrics.counter("replication.reconnects");
  m_snapshot_resyncs_ = metrics.counter("replication.snapshot_resyncs");
  m_frames_applied_ = metrics.counter("replication.frames_applied");
  m_apply_us_ = metrics.histogram("replication.apply_us");
  m_frame_bytes_ = metrics.histogram("replication.frame_bytes");
  m_frame_delay_us_ = metrics.histogram("replication.frame_delay_us");
}

Follower::~Follower() { Stop(); }

namespace {

// One dial + subscribe exchange against the leader.
StatusOr<std::pair<std::unique_ptr<Connection>, SubscribeAck>> TrySubscribe(
    const Dialer& dial, uint64_t from_ticket, bool force_snapshot) {
  StatusOr<std::unique_ptr<Connection>> dialed = dial();
  PQIDX_RETURN_IF_ERROR(dialed.status());
  std::unique_ptr<Connection> conn = std::move(dialed).value();
  SubscribeRequest request;
  request.from_ticket = from_ticket;
  request.force_snapshot = force_snapshot;
  ByteWriter writer;
  request.Encode(&writer);
  const std::string payload = writer.Release();
  FrameHeader header;
  header.type = MessageType::kSubscribe;
  header.request_id = 1;
  header.payload_size = static_cast<uint32_t>(payload.size());
  PQIDX_RETURN_IF_ERROR(conn->Send(EncodeFrame(header, payload)));
  std::string buffer;
  PQIDX_RETURN_IF_ERROR(conn->ReceiveExact(kFrameHeaderSize, &buffer));
  FrameHeader response_header;
  PQIDX_RETURN_IF_ERROR(DecodeFrameHeader(buffer, &response_header));
  if (!response_header.is_response()) {
    return DataLossError("request frame in reply to subscribe");
  }
  std::string body;
  if (response_header.payload_size > 0) {
    PQIDX_RETURN_IF_ERROR(
        conn->ReceiveExact(response_header.payload_size, &body));
  }
  ByteReader reader(body);
  Status transported;
  PQIDX_RETURN_IF_ERROR(DecodeStatus(&reader, &transported));
  // Covers both a kSubscribeAck error and the server's request_id-0
  // admission-control rejection.
  PQIDX_RETURN_IF_ERROR(transported);
  if (response_header.type != MessageType::kSubscribeAck) {
    return DataLossError("unexpected reply to subscribe");
  }
  StatusOr<SubscribeAck> ack = SubscribeAck::Decode(&reader);
  PQIDX_RETURN_IF_ERROR(ack.status());
  if (reader.remaining() != 0) {
    return DataLossError("trailing bytes after subscribe ack");
  }
  return std::make_pair(std::move(conn), *ack);
}

}  // namespace

StatusOr<Follower::Handshake> Follower::ConnectWithRetry(
    uint64_t from_ticket, bool force_snapshot) {
  Backoff backoff(options_.backoff,
                  options_.backoff_seed +
                      static_cast<uint64_t>(
                          reconnects_.load(std::memory_order_relaxed)));
  for (int attempt = 1;; ++attempt) {
    if (stopped_.load()) return UnavailableError("follower stopped");
    StatusOr<std::pair<std::unique_ptr<Connection>, SubscribeAck>> tried =
        TrySubscribe(options_.dial, from_ticket, force_snapshot);
    if (tried.ok()) {
      Handshake handshake;
      handshake.conn = std::move(tried->first);
      handshake.ack = tried->second;
      return handshake;
    }
    if (options_.backoff.max_attempts > 0 &&
        attempt >= options_.backoff.max_attempts) {
      return tried.status();
    }
    // Sleep in short slices so Stop() never waits out a long backoff.
    int64_t remaining_us = backoff.NextDelayUs();
    while (remaining_us > 0 && !stopped_.load()) {
      const int64_t slice_us = std::min<int64_t>(remaining_us, 10'000);
      std::this_thread::sleep_for(std::chrono::microseconds(slice_us));
      remaining_us -= slice_us;
    }
  }
}

Status Follower::ReceiveDeltaFrame(Connection* conn, DeltaFrame* out) {
  out->entries.clear();
  bool first = true;
  for (;;) {
    std::string buffer;
    PQIDX_RETURN_IF_ERROR(conn->ReceiveExact(kFrameHeaderSize, &buffer));
    FrameHeader header;
    PQIDX_RETURN_IF_ERROR(DecodeFrameHeader(buffer, &header));
    if (header.type != MessageType::kDeltaFrame || !header.is_response()) {
      return DataLossError("unexpected frame in replication stream");
    }
    std::string payload;
    if (header.payload_size > 0) {
      PQIDX_RETURN_IF_ERROR(
          conn->ReceiveExact(header.payload_size, &payload));
    }
    StatusOr<DeltaFrame> chunk = DeltaFrame::Decode(payload);
    PQIDX_RETURN_IF_ERROR(chunk.status());
    if (Metrics::enabled()) {
      m_frame_bytes_->Record(static_cast<int64_t>(payload.size()));
      m_frame_delay_us_->Record(
          std::max<int64_t>(0, Metrics::NowUs() - chunk->publish_us));
    }
    if (first) {
      out->ticket = chunk->ticket;
      out->publish_us = chunk->publish_us;
      first = false;
    } else if (chunk->ticket != out->ticket) {
      return DataLossError("delta chunk ticket mismatch");
    }
    for (DeltaEntry& entry : chunk->entries) {
      out->entries.push_back(std::move(entry));
    }
    if (chunk->last_chunk) {
      out->last_chunk = true;
      return Status::Ok();
    }
  }
}

StatusOr<std::unique_ptr<ShardedStore>> Follower::InstallSnapshot(
    const SubscribeAck& ack, DeltaFrame image) {
  if (image.ticket != ack.ticket) {
    return DataLossError("snapshot image ticket mismatch");
  }
  PqShape shape;
  shape.p = ack.p;
  shape.q = ack.q;
  if (!shape.Valid()) return DataLossError("bad snapshot shape");
  std::vector<std::pair<TreeId, const PqGramIndex*>> bags;
  bags.reserve(image.entries.size());
  for (const DeltaEntry& entry : image.entries) {
    if (!entry.is_add) {
      return DataLossError("snapshot image carries a non-add entry");
    }
    bags.emplace_back(entry.tree_id, &entry.plus);
  }
  StatusOr<std::unique_ptr<ShardedStore>> created =
      ShardedStore::Create(options_.store_path, shape,
                           options_.store_shards, options_.pool_pages);
  PQIDX_RETURN_IF_ERROR(created.status());
  PQIDX_RETURN_IF_ERROR((*created)->BulkAdd(bags, nullptr, ack.ticket));
  return created;
}

StatusOr<std::shared_ptr<Follower::Serving>> Follower::BuildServing(
    std::unique_ptr<ShardedStore> store) {
  auto serving = std::make_shared<Serving>();
  serving->store = std::move(store);
  serving->server =
      std::make_unique<Server>(serving->store.get(), options_.server);
  std::unique_ptr<Listener> listener;
  if (options_.listen != nullptr) {
    StatusOr<std::unique_ptr<Listener>> made = options_.listen();
    PQIDX_RETURN_IF_ERROR(made.status());
    listener = std::move(made).value();
  }
  PQIDX_RETURN_IF_ERROR(serving->server->Start(std::move(listener)));
  return serving;
}

Status Follower::Start() {
  if (started_.exchange(true)) {
    return FailedPreconditionError("follower already started");
  }
  std::unique_ptr<ShardedStore> store;
  uint64_t from_ticket = 0;
  {
    // An absent (or unreadable) store subscribes from zero; the leader
    // then answers with a snapshot that recreates it.
    StatusOr<std::unique_ptr<ShardedStore>> opened =
        ShardedStore::Open(options_.store_path, options_.pool_pages);
    if (opened.ok()) {
      store = std::move(opened).value();
      from_ticket = store->replication_cursor();
    }
  }
  StatusOr<Handshake> handshake = ConnectWithRetry(from_ticket, false);
  PQIDX_RETURN_IF_ERROR(handshake.status());
  const SubscribeAck ack = handshake->ack;
  if (store != nullptr && (store->shape().p != static_cast<int>(ack.p) ||
                           store->shape().q != static_cast<int>(ack.q))) {
    return FailedPreconditionError(
        "local store shape differs from the leader's");
  }
  if (ack.mode == SubscribeAck::Mode::kSnapshot) {
    DeltaFrame image;
    PQIDX_RETURN_IF_ERROR(ReceiveDeltaFrame(handshake->conn.get(), &image));
    store.reset();  // release the file before Create replaces it
    StatusOr<std::unique_ptr<ShardedStore>> installed =
        InstallSnapshot(ack, std::move(image));
    PQIDX_RETURN_IF_ERROR(installed.status());
    store = std::move(installed).value();
    snapshot_resyncs_.fetch_add(1, std::memory_order_relaxed);
    m_snapshot_resyncs_->Increment();
  } else if (store == nullptr) {
    PqShape shape;
    shape.p = ack.p;
    shape.q = ack.q;
    if (!shape.Valid()) return DataLossError("bad subscribe ack shape");
    StatusOr<std::unique_ptr<ShardedStore>> created =
        ShardedStore::Create(options_.store_path, shape,
                             options_.store_shards, options_.pool_pages);
    PQIDX_RETURN_IF_ERROR(created.status());
    store = std::move(created).value();
  }
  cursor_.store(store->replication_cursor(), std::memory_order_relaxed);
  last_seen_.store(std::max(ack.ticket, store->replication_cursor()),
                   std::memory_order_relaxed);
  StatusOr<std::shared_ptr<Serving>> serving =
      BuildServing(std::move(store));
  PQIDX_RETURN_IF_ERROR(serving.status());
  {
    MutexLock lock(&serving_mutex_);
    serving_ = std::move(serving).value();
  }
  {
    MutexLock lock(&conn_mutex_);
    conn_ = std::move(handshake->conn);
  }
  recv_thread_ = std::thread([this] { RecvLoop(); });
  apply_thread_ = std::thread([this] { ApplyLoop(); });
  return Status::Ok();
}

Status Follower::StreamFrames() {
  std::shared_ptr<Connection> conn;
  {
    MutexLock lock(&conn_mutex_);
    conn = conn_;
  }
  if (conn == nullptr) return UnavailableError("no connection");
  for (;;) {
    DeltaFrame frame;
    PQIDX_RETURN_IF_ERROR(ReceiveDeltaFrame(conn.get(), &frame));
    if (frame.ticket > last_seen_.load(std::memory_order_relaxed)) {
      last_seen_.store(frame.ticket, std::memory_order_relaxed);
    }
    const uint64_t seen = last_seen_.load(std::memory_order_relaxed);
    const uint64_t applied = cursor_.load(std::memory_order_relaxed);
    m_lag_tickets_->Set(
        seen > applied ? static_cast<int64_t>(seen - applied) : 0);
    if (frame.entries.empty()) {
      // Heartbeat: a freshness signal, never queued or applied. When
      // fully caught up the lag is the heartbeat's wire delay.
      if (seen <= applied) {
        m_lag_us_->Set(
            std::max<int64_t>(0, Metrics::NowUs() - frame.publish_us));
      }
      continue;
    }
    MutexLock lock(&pending_mutex_);
    while (static_cast<int>(pending_.size()) >= options_.max_pending &&
           !stopped_.load() && !divergence_.load()) {
      // Backpressure: stop reading; the kernel buffers fill and the
      // leader's slow-subscriber policy takes over.
      pending_cv_.Wait(&pending_mutex_);
    }
    if (stopped_.load()) return UnavailableError("follower stopped");
    if (divergence_.load()) return DataLossError("stream diverged");
    pending_.push_back(std::move(frame));
    pending_cv_.NotifyAll();
  }
}

Status Follower::Resync(Handshake handshake) {
  // Quiesce the apply thread: no batch may straddle the store swap.
  {
    MutexLock lock(&pending_mutex_);
    pending_.clear();
    while (applying_ && !stopped_.load()) pending_cv_.Wait(&pending_mutex_);
  }
  if (stopped_.load()) return UnavailableError("follower stopped");
  DeltaFrame image;
  PQIDX_RETURN_IF_ERROR(ReceiveDeltaFrame(handshake.conn.get(), &image));
  // Stop the retired stack first so a fixed-port listen() can rebind.
  std::shared_ptr<Serving> retired;
  {
    MutexLock lock(&serving_mutex_);
    retired = std::move(serving_);
  }
  if (retired != nullptr) retired->server->Stop();
  retired.reset();
  StatusOr<std::unique_ptr<ShardedStore>> installed =
      InstallSnapshot(handshake.ack, std::move(image));
  PQIDX_RETURN_IF_ERROR(installed.status());
  StatusOr<std::shared_ptr<Serving>> serving =
      BuildServing(std::move(installed).value());
  PQIDX_RETURN_IF_ERROR(serving.status());
  {
    MutexLock lock(&serving_mutex_);
    serving_ = std::move(serving).value();
  }
  cursor_.store(handshake.ack.ticket, std::memory_order_relaxed);
  if (handshake.ack.ticket > last_seen_.load(std::memory_order_relaxed)) {
    last_seen_.store(handshake.ack.ticket, std::memory_order_relaxed);
  }
  snapshot_resyncs_.fetch_add(1, std::memory_order_relaxed);
  m_snapshot_resyncs_->Increment();
  {
    MutexLock lock(&conn_mutex_);
    conn_ = std::move(handshake.conn);
  }
  return Status::Ok();
}

void Follower::RecvLoop() {
  for (;;) {
    const Status streamed = StreamFrames();
    (void)streamed;  // outage errors are retried, not terminal
    if (stopped_.load()) return;
    reconnects_.fetch_add(1, std::memory_order_relaxed);
    m_reconnects_->Increment();
    const bool force = divergence_.exchange(false);
    StatusOr<Handshake> handshake =
        ConnectWithRetry(cursor_.load(std::memory_order_relaxed), force);
    if (!handshake.ok()) {
      if (stopped_.load()) return;
      // Reconnect budget spent: the stream ends; the server keeps
      // serving reads at the last applied epoch.
      SetStreamStatus(handshake.status());
      return;
    }
    if (handshake->ack.mode == SubscribeAck::Mode::kSnapshot) {
      Status resynced = Resync(std::move(handshake).value());
      if (!resynced.ok()) {
        if (stopped_.load()) return;
        SetStreamStatus(std::move(resynced));
        return;
      }
    } else {
      MutexLock lock(&conn_mutex_);
      conn_ = std::move(handshake->conn);
    }
  }
}

void Follower::ApplyLoop() {
  for (;;) {
    std::vector<DeltaFrame> frames;
    {
      MutexLock lock(&pending_mutex_);
      while (pending_.empty() && !stopped_.load()) {
        pending_cv_.Wait(&pending_mutex_);
      }
      if (stopped_.load()) return;
      // Drain everything pending (bounded) into ONE local WAL
      // transaction: the fsync amortization that makes catch-up beat
      // per-batch replay.
      while (!pending_.empty() &&
             static_cast<int>(frames.size()) < options_.max_apply_batch) {
        frames.push_back(std::move(pending_.front()));
        pending_.pop_front();
      }
      applying_ = true;
      pending_cv_.NotifyAll();
    }
    std::shared_ptr<Serving> serving;
    {
      MutexLock lock(&serving_mutex_);
      serving = serving_;
    }
    const int64_t frame_count = static_cast<int64_t>(frames.size());
    const int64_t newest_publish_us = frames.back().publish_us;
    Status applied;
    {
      ScopedTimer timer(m_apply_us_);
      applied = serving->server->ApplyReplicated(std::move(frames));
    }
    {
      MutexLock lock(&pending_mutex_);
      applying_ = false;
      if (!applied.ok()) pending_.clear();
      pending_cv_.NotifyAll();
    }
    if (!applied.ok()) {
      // Divergence: drop the stream; the recv thread reconnects with a
      // forced snapshot and rebuilds the serving stack.
      divergence_.store(true);
      CloseConn();
      continue;
    }
    cursor_.store(serving->store->replication_cursor(),
                  std::memory_order_relaxed);
    m_frames_applied_->Add(frame_count);
    const uint64_t seen = last_seen_.load(std::memory_order_relaxed);
    const uint64_t applied_ticket = cursor_.load(std::memory_order_relaxed);
    m_lag_tickets_->Set(seen > applied_ticket
                            ? static_cast<int64_t>(seen - applied_ticket)
                            : 0);
    m_lag_us_->Set(std::max<int64_t>(0, Metrics::NowUs() - newest_publish_us));
  }
}

void Follower::CloseConn() {
  MutexLock lock(&conn_mutex_);
  if (conn_ != nullptr) conn_->Close();
}

void Follower::SetStreamStatus(Status status) {
  MutexLock lock(&status_mutex_);
  stream_status_ = std::move(status);
}

Status Follower::stream_status() const {
  MutexLock lock(&status_mutex_);
  return stream_status_;
}

std::shared_ptr<Server> Follower::server() const {
  MutexLock lock(&serving_mutex_);
  if (serving_ == nullptr) return nullptr;
  return std::shared_ptr<Server>(serving_, serving_->server.get());
}

bool Follower::WaitForCursor(uint64_t ticket, int64_t timeout_ms) const {
  const int64_t deadline_us = Metrics::NowUs() + timeout_ms * 1000;
  while (cursor_.load(std::memory_order_relaxed) < ticket) {
    if (Metrics::NowUs() >= deadline_us) {
      return cursor_.load(std::memory_order_relaxed) >= ticket;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  return true;
}

void Follower::Stop() {
  if (!started_.load() || stopped_.exchange(true)) return;
  CloseConn();
  {
    MutexLock lock(&pending_mutex_);
    pending_cv_.NotifyAll();
  }
  if (recv_thread_.joinable()) recv_thread_.join();
  if (apply_thread_.joinable()) apply_thread_.join();
  std::shared_ptr<Serving> serving;
  {
    MutexLock lock(&serving_mutex_);
    serving = serving_;
  }
  if (serving != nullptr) serving->server->Stop();
}

}  // namespace pqidx
