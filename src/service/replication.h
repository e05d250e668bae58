// Replication: streamed batch deltas, warm standbys, and O(delta)
// follower catch-up (docs/ARCHITECTURE.md, "Replication").
//
// The leader side is the ReplicationHub: every committed group-commit
// batch is re-encoded as delta-frame chunks (wire.h) and handed to the
// hub by the group-commit leader, in ticket order, AFTER the batch is
// durable. The hub fans the frame out
// to per-subscriber bounded queues and retains a short history window
// for O(delta) resume -- Publish never blocks on a subscriber, so
// replication never backpressures ApplyBatch. A subscriber that falls
// `max_queue` frames behind is dropped (its stream ends; on reconnect
// the history window decides between delta resume and a snapshot).
//
// The replication cursor is the durable storage ticket: the leader
// stamps every batch's WAL transaction with it
// (PersistentForestIndex::replication_cursor), a follower stamps each
// replicated batch with the ticket streamed to it, and a subscriber
// resumes from exactly its store's cursor after a restart. Cursors are
// monotone but not dense -- batches that fail validation publish
// nothing -- so all resume checks are range checks.
//
// The follower side is the Follower: it dials the leader with
// exponential backoff + jitter (service/retry.h), subscribes at its
// durable cursor, and splits the stream across two threads. The recv
// thread assembles chunked frames into a bounded pending queue (when
// full it stops reading -- TCP backpressure turns into the leader's
// slow-subscriber policy). The apply thread drains ALL pending frames
// and applies them as ONE local WAL transaction
// (Server::ApplyReplicated), so catch-up pays the fsync pair per drain,
// not per streamed batch. Reads are served by the follower's own
// read-only Server: lock-free lookups at the streamed epoch, and its
// own hub re-publishes every applied batch under the leader's tickets,
// so followers chain. If the leader answers a subscribe with kSnapshot
// (it compacted or restarted past the follower's cursor), the follower
// rebuilds its store from the streamed snapshot image and swaps its
// serving stack; if applying a streamed frame fails (divergence), it
// forces exactly that snapshot resync.

#ifndef PQIDX_SERVICE_REPLICATION_H_
#define PQIDX_SERVICE_REPLICATION_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <functional>
#include <memory>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "common/sync.h"
#include "common/thread_annotations.h"
#include "service/retry.h"
#include "service/server.h"
#include "service/transport.h"
#include "service/wire.h"
#include "storage/sharded_store.h"

namespace pqidx {

// One frame of the replication stream as the hub retains and fans it
// out: the encoded chunk payloads of one committed batch, shared
// (refcounted, immutable) between the history window and every
// subscriber queue.
struct ReplicatedFrame {
  uint64_t ticket = 0;
  std::shared_ptr<const std::vector<std::string>> chunks;
};

// One subscriber's bounded frame queue, owned by the serving thread
// (Server::ServeSubscriber) and filled by the hub.
class Subscription {
 public:
  Subscription() = default;
  Subscription(const Subscription&) = delete;
  Subscription& operator=(const Subscription&) = delete;

  enum class Next : uint8_t {
    kFrame = 0,    // *out holds the next frame
    kTimeout = 1,  // nothing arrived within the timeout (heartbeat cue)
    kDone = 2,     // hub shut down, unregistered, or dropped this sub
  };

  // Blocks up to `timeout_us` for the next frame.
  Next Wait(int64_t timeout_us, ReplicatedFrame* out)
      PQIDX_EXCLUDES(mutex_);

  // True when the hub disconnected this subscriber for falling behind.
  bool dropped() const { return dropped_.load(std::memory_order_relaxed); }

 private:
  friend class ReplicationHub;

  Mutex mutex_;
  CondVar cv_;
  std::deque<ReplicatedFrame> queue_ PQIDX_GUARDED_BY(mutex_);
  // Frames with ticket <= skip_to_ are already covered by the state the
  // subscriber resumed from (its cursor, or the snapshot it was sent)
  // and are not enqueued.
  uint64_t skip_to_ PQIDX_GUARDED_BY(mutex_) = 0;
  bool finished_ PQIDX_GUARDED_BY(mutex_) = false;
  std::atomic<bool> dropped_{false};
  // Queue-depth gauge slot, hub-managed (-1: none free at Register).
  int slot_ = -1;
  Gauge* depth_gauge_ = nullptr;
};

struct ReplicationHubOptions {
  // Committed frames retained for delta resume; a reconnecting follower
  // whose cursor fell out of this window gets a snapshot instead.
  int history = 256;
  // Per-subscriber queue bound, in frames; a subscriber that falls this
  // far behind is dropped (slow-subscriber policy).
  int max_queue = 256;
};

// The leader-side fan-out point. Thread-safe; Publish is called in
// ticket order by the group-commit leader and never blocks on a
// subscriber.
class ReplicationHub {
 public:
  // Queue-depth gauge slots ("replication.sub<k>.queue_depth").
  static constexpr int kGaugeSlots = 16;

  explicit ReplicationHub(ReplicationHubOptions options);

  // Anchors the history window at the store's durable cursor; called by
  // Server::Start before any subscriber or publisher exists.
  void Initialize(uint64_t base_ticket) PQIDX_EXCLUDES(mutex_);

  enum class Resume : uint8_t { kDelta = 0, kSnapshot = 1 };

  // Registers a subscriber resuming after `from_ticket`. kDelta: the
  // retained frames past the cursor were enqueued and the stream
  // continues seamlessly. kSnapshot: the caller must send its current
  // image (as of `snapshot_ticket`, which the caller reads
  // under the lock that orders it against Publish); frames at or below
  // that ticket are filtered out of this subscriber's queue.
  Resume Register(Subscription* sub, uint64_t from_ticket,
                  bool force_snapshot, uint64_t snapshot_ticket)
      PQIDX_EXCLUDES(mutex_);

  void Unregister(Subscription* sub) PQIDX_EXCLUDES(mutex_);

  // Fans one committed batch out to every live subscriber and appends
  // it to the history window. Tickets must be strictly increasing.
  void Publish(uint64_t ticket, std::vector<std::string> chunks)
      PQIDX_EXCLUDES(mutex_);

  // Ends every subscription (Wait returns kDone); Register afterwards
  // yields immediately-finished subscriptions.
  void Shutdown() PQIDX_EXCLUDES(mutex_);

  // Payload bytes of the frames the history window retains.
  int64_t history_bytes() const PQIDX_EXCLUDES(mutex_);

  // The newest published ticket (the Initialize base before the first
  // Publish); heartbeat frames carry it.
  uint64_t last_ticket() const {
    return last_ticket_.load(std::memory_order_relaxed);
  }

 private:
  const ReplicationHubOptions options_;

  Gauge* m_subscribers_;
  Counter* m_frames_published_;
  Counter* m_subscribers_dropped_;
  Gauge* m_slot_depth_[kGaugeSlots];

  mutable Mutex mutex_;
  std::vector<Subscription*> subscribers_ PQIDX_GUARDED_BY(mutex_);
  std::deque<ReplicatedFrame> history_ PQIDX_GUARDED_BY(mutex_);
  int64_t history_bytes_ PQIDX_GUARDED_BY(mutex_) = 0;
  // A cursor >= history_base_ (and <= last_ticket_) can delta-resume:
  // every frame past it is still retained.
  uint64_t history_base_ PQIDX_GUARDED_BY(mutex_) = 0;
  uint32_t slots_used_ PQIDX_GUARDED_BY(mutex_) = 0;
  bool shutdown_ PQIDX_GUARDED_BY(mutex_) = false;
  std::atomic<uint64_t> last_ticket_{0};
};

struct FollowerOptions {
  // Dials the leader's replication endpoint; required.
  Dialer dial;
  // Creates the listener the follower's own read-only Server accepts
  // on. Called each time the serving stack is (re)built -- a snapshot
  // resync tears the old server down -- so TCP users that need a stable
  // port should bind a fixed one here. Null serves no connections (the
  // follower is then only reachable in-process via server()).
  std::function<StatusOr<std::unique_ptr<Listener>>()> listen;
  // The follower's durable store. Reopened across restarts -- its
  // replication cursor is the subscribe cursor -- and recreated
  // (truncated) when the leader answers with a snapshot.
  std::string store_path;
  int pool_pages = 256;
  // Shard count of the follower's local store when it is (re)created
  // (subscribe-from-zero or snapshot install). An existing store keeps
  // its own layout; a follower may shard differently from its leader
  // (replication is layout-agnostic -- the cursor is a single ticket).
  int store_shards = 1;
  // Options for the follower's own Server. read_only is forced on
  // (client edits are rejected); its replication hub stays live, so a
  // follower can itself feed further followers.
  ServerOptions server;
  // Reconnect policy: max_attempts bounds dial+handshake attempts per
  // outage (0 retries forever; Stop() interrupts either way).
  BackoffPolicy backoff;
  uint64_t backoff_seed = 1;
  // Streamed frames coalesced into one local WAL transaction by the
  // apply thread (the fsync amortization that makes catch-up O(delta)).
  int max_apply_batch = 256;
  // Assembled-but-unapplied frames buffered between the recv and apply
  // threads; when full the recv thread stops reading and TCP
  // backpressure engages the leader's slow-subscriber policy.
  int max_pending = 1024;
};

// A warm standby: replicates one leader into a local store and serves
// lock-free reads from it at the streamed epoch.
class Follower {
 public:
  explicit Follower(FollowerOptions options);
  ~Follower();

  Follower(const Follower&) = delete;
  Follower& operator=(const Follower&) = delete;

  // Opens (or creates) the local store, performs the initial
  // dial + subscribe handshake (honoring the backoff policy; blocks
  // until it succeeds, the attempt budget is spent, or Stop()), builds
  // the serving stack, and starts the streaming threads. On success the
  // follower is serving and catching up.
  Status Start();

  // Stops streaming and serving; joins all threads. Idempotent.
  void Stop();

  // The follower's serving Server (null before Start). The returned
  // pointer shares ownership of the whole serving stack, so it stays
  // valid across a snapshot resync (it then points at the retired
  // stack; call again for the current one).
  std::shared_ptr<Server> server() const PQIDX_EXCLUDES(serving_mutex_);

  // The durably applied replication cursor.
  uint64_t cursor() const { return cursor_.load(std::memory_order_relaxed); }

  // Blocks until the applied cursor reaches `ticket` (true) or
  // `timeout_ms` elapses (false).
  bool WaitForCursor(uint64_t ticket, int64_t timeout_ms) const;

  // OK while streaming (or reconnecting); the terminal error once the
  // reconnect budget is spent (the server keeps serving stale reads).
  Status stream_status() const PQIDX_EXCLUDES(status_mutex_);

  int64_t reconnects() const {
    return reconnects_.load(std::memory_order_relaxed);
  }
  // Snapshot installs, whether at Start (the leader compacted past our
  // cursor, or we had no store worth keeping) or mid-stream (resync
  // after divergence). Zero means every byte arrived as a delta.
  int64_t snapshot_resyncs() const {
    return snapshot_resyncs_.load(std::memory_order_relaxed);
  }

 private:
  // The serving stack: declaration order makes the server (which holds
  // a raw pointer into the store) destroy first.
  struct Serving {
    std::unique_ptr<ShardedStore> store;
    std::unique_ptr<Server> server;
  };

  struct Handshake {
    std::unique_ptr<Connection> conn;
    SubscribeAck ack;
  };

  // One full dial + subscribe exchange per backoff attempt.
  StatusOr<Handshake> ConnectWithRetry(uint64_t from_ticket,
                                       bool force_snapshot);
  // Receives and assembles one complete (possibly chunked) delta frame.
  Status ReceiveDeltaFrame(Connection* conn, DeltaFrame* out);
  // Builds a fresh store from a streamed snapshot image (add entries),
  // durably stamped with the snapshot's ticket.
  StatusOr<std::unique_ptr<ShardedStore>> InstallSnapshot(
      const SubscribeAck& ack, DeltaFrame image);
  // Wraps `store` in a started read-only Server.
  StatusOr<std::shared_ptr<Serving>> BuildServing(
      std::unique_ptr<ShardedStore> store);
  // Drains the current connection until it breaks; queues frames.
  Status StreamFrames() PQIDX_EXCLUDES(pending_mutex_, conn_mutex_);
  // Snapshot resync: quiesces the apply thread, rebuilds the store from
  // the handshake's streamed image, and swaps the serving stack.
  Status Resync(Handshake handshake)
      PQIDX_EXCLUDES(pending_mutex_, serving_mutex_, conn_mutex_);
  void RecvLoop();
  void ApplyLoop() PQIDX_EXCLUDES(pending_mutex_, serving_mutex_);
  void CloseConn() PQIDX_EXCLUDES(conn_mutex_);
  void SetStreamStatus(Status status) PQIDX_EXCLUDES(status_mutex_);

  FollowerOptions options_;

  std::atomic<bool> started_{false};
  std::atomic<bool> stopped_{false};

  mutable Mutex serving_mutex_;
  std::shared_ptr<Serving> serving_ PQIDX_GUARDED_BY(serving_mutex_);

  mutable Mutex conn_mutex_;
  std::shared_ptr<Connection> conn_ PQIDX_GUARDED_BY(conn_mutex_);

  // recv -> apply queue of assembled frames.
  Mutex pending_mutex_;
  CondVar pending_cv_;
  std::deque<DeltaFrame> pending_ PQIDX_GUARDED_BY(pending_mutex_);
  bool applying_ PQIDX_GUARDED_BY(pending_mutex_) = false;

  // Divergence flag: set by the apply thread when a streamed batch
  // fails locally; the recv thread then forces a snapshot handshake.
  std::atomic<bool> divergence_{false};

  mutable Mutex status_mutex_;
  Status stream_status_ PQIDX_GUARDED_BY(status_mutex_);

  std::atomic<uint64_t> cursor_{0};
  std::atomic<uint64_t> last_seen_{0};
  std::atomic<int64_t> reconnects_{0};
  std::atomic<int64_t> snapshot_resyncs_{0};

  std::thread recv_thread_;
  std::thread apply_thread_;

  // Registry cells ("replication.*"); lag gauges compare the leader's
  // publish clock with ours, which is meaningful on one host (the
  // loopback/test topology this targets).
  Gauge* m_lag_tickets_;
  Gauge* m_lag_us_;
  Counter* m_reconnects_;
  Counter* m_snapshot_resyncs_;
  Counter* m_frames_applied_;
  Histogram* m_apply_us_;
  Histogram* m_frame_bytes_;
  Histogram* m_frame_delay_us_;
};

}  // namespace pqidx

#endif  // PQIDX_SERVICE_REPLICATION_H_
