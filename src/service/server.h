// pqidxd: a concurrent index service over one ShardedStore (one or
// more PersistentForestIndex shards under a per-batch group commit).
//
// Request pipeline (docs/ARCHITECTURE.md, "The service"):
//
//   * thread-per-connection on the shared ThreadPool: the accept loop
//     hands each connection to a worker, which decodes frames (wire.h)
//     and serves them sequentially for that client;
//   * admission control: connections beyond `max_connections` are
//     rejected with a connection-level UNAVAILABLE frame, and edits
//     beyond `max_write_queue` pending entries get an UNAVAILABLE
//     response (backpressure instead of unbounded queues);
//   * the epoch-published LookupEngine snapshot (core/lookup_engine.h)
//     is the server's one in-memory copy of the forest: readers grab
//     the current shared_ptr<const LookupEngine> and score without any
//     lock held, so read throughput scales with reader threads; the
//     write path validates edits against it by point probes; stats()
//     and subscriber snapshots read it too;
//   * writes go through group commit: a writer enqueues its edit and,
//     when no batch leader is active, becomes the leader: it drains the
//     queue and applies the whole batch as ONE WAL transaction
//     (ShardedStore::ApplyBatch -- one fsync pair per touched shard).
//     Writers submitted while a leader is committing are coalesced into
//     the next batch, amortizing durability cost exactly where the
//     paper's incremental update makes the writes themselves cheap.
//     Exactly one leader commits at a time, so the WAL, the snapshot
//     publish and the replication hub all see batches in queue order,
//     and a recovered store is exactly the state before or after a
//     batch. On a store of two or more shards the leader fans
//     the group commit's per-shard prepare/finish across a pool sized
//     from the store (the only write-path parallelism);
//   * snapshots are published incrementally: the leader derives the next
//     LookupEngine epoch from the previous one via
//     LookupEngine::ApplyDelta, folding each touched tree's net count
//     delta (Lemma 2) into the shards that own it and sharing every
//     other shard.
//
// Responses are sent only after the edit is durable (commit before ack).
// Invalid edits (unknown tree, duplicate add, minus bag not a sub-bag of
// the stored bag) fail individually with an error response and never
// disturb the other edits of a batch.

#ifndef PQIDX_SERVICE_SERVER_H_
#define PQIDX_SERVICE_SERVER_H_

#include <atomic>
#include <cstdint>
#include <deque>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "common/status.h"
#include "common/sync.h"
#include "common/thread_pool.h"
#include "core/lookup_engine.h"
#include "service/transport.h"
#include "service/wire.h"
#include "storage/sharded_store.h"

namespace pqidx {

class ReplicationHub;

struct ServerOptions {
  // Concurrent connections == handler threads (thread-per-connection).
  int max_connections = 8;
  // Pending group-commit entries before edit requests are rejected with
  // UNAVAILABLE (admission control).
  int max_write_queue = 256;
  // Upper bound on edits coalesced into one WAL transaction.
  int max_group_commit = 64;
  // Test/bench aid: the group-commit leader holds leadership this long
  // before draining the queue, magnifying the batching window the same
  // way a slow fsync would. 0 in production.
  int commit_hold_us = 0;
  // Dedicated threads for shard-parallel scoring of one lookup; 0 scores
  // in the handler thread (throughput then comes purely from concurrent
  // connections, which is usually the right trade for small queries).
  int lookup_threads = 0;
  // Slow-op threshold in microseconds: requests and group commits at or
  // over it log their phase breakdown through SlowOpLog::Default()
  // (common/metrics.h). 0 inherits that log's threshold (the
  // PQIDX_SLOW_OP_US environment variable, default 100ms); negative
  // disables slow-op logging for this server.
  int64_t slow_op_us = 0;
  // Shards the lookup snapshot is compiled into; 0 derives a default:
  // at least 16 (so incremental publication has shards to share; a
  // single-shard snapshot would rewrite everything on every commit),
  // or 2x lookup_threads when that is larger. Results never depend on
  // the shard count.
  //
  // Trade-off: snapshot publication sits on the write-ack path (no lock
  // is held while it merges, so concurrent lookups and stats() never
  // wait on it): a committed edit is always visible to the next lookup
  // once its response arrives (read-your-writes). Incremental
  // publication (LookupEngine::ApplyDelta) makes that cost a linear
  // merge of the shards the batch touched instead of O(total
  // postings).
  int lookup_shards = 0;
  // Replication fan-out (service/replication.h): when on, every
  // committed batch is published to subscribed followers and kSubscribe
  // connections are served. Off removes the hub (and the per-commit
  // re-encode of the batch's bags) entirely.
  bool replication = true;
  // ReplicationHubOptions::history / ::max_queue.
  int replication_history = 256;
  int replication_max_queue = 256;
  // Read-only follower mode: edit requests (kAddTree / kApplyEdits) are
  // rejected with FAILED_PRECONDITION; the only writer is then
  // ApplyReplicated (the replication stream). Forced on by Follower.
  bool read_only = false;
  // Byte budget (MiB) of the epoch-keyed query-result cache serving
  // kLookup / kTopK (core/query_cache.h). Entries are keyed per engine
  // shard, so incremental snapshot publishes keep results for untouched
  // shards warm; a re-partition invalidates wholesale. 0 disables the
  // cache entirely.
  int query_cache_mb = 32;
};

class Server {
 public:
  // Serves `index`, which must outlive the server and must not be used
  // by anyone else while the server runs.
  Server(ShardedStore* index, ServerOptions options);
  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  // Builds the initial lookup snapshot and starts accepting on `listener`. A
  // null listener starts the server without a network endpoint (it is
  // then driven in-process: lookups via a follower's streamed state,
  // writes via ApplyReplicated). Starting a started server returns
  // FAILED_PRECONDITION.
  Status Start(std::unique_ptr<Listener> listener);

  // Stops accepting, interrupts every live connection, and joins all
  // handlers. Idempotent; also run by the destructor.
  void Stop() PQIDX_EXCLUDES(connections_mutex_);

  ServiceStats stats() const PQIDX_EXCLUDES(engine_mutex_);

  // Applies a run of streamed delta frames (ascending tickets) as ONE
  // group-commit batch: one WAL transaction stamped with the newest
  // ticket, one snapshot epoch, one hub publish per
  // frame's worth of state (coalesced under the newest ticket). Frames
  // at or below the store's durable cursor are skipped (duplicates
  // after a reconnect). Only valid on a read-only server; any edit the
  // leader committed but this store rejects means divergence and
  // returns DATA_LOSS.
  Status ApplyReplicated(std::vector<DeltaFrame> frames)
      PQIDX_EXCLUDES(write_mutex_, engine_mutex_);

  // The replication hub (null when ServerOptions::replication is off).
  ReplicationHub* hub() const { return hub_.get(); }

  // Testing hook: the current epoch-published snapshot. The workload
  // harness (bench/workload) pins it on both sides of an ephemeral
  // apply-then-revert burst to prove the post-revert epoch serves
  // bit-identical content from freshly recompiled shards.
  std::shared_ptr<const LookupEngine> EngineSnapshotForTesting() const
      PQIDX_EXCLUDES(engine_mutex_) {
    return EngineSnapshot();
  }

  // Testing hook: the epoch-keyed result cache (null when disabled).
  // Internally synchronized; tests read its hit/miss/stale counters.
  QueryCache* query_cache_for_testing() const { return query_cache_.get(); }

 private:
  struct PendingEdit {
    TreeId id = 0;
    bool is_add = false;
    PqGramIndex add_or_plus;
    PqGramIndex minus;
    Status result;
    bool done = false;
    // Metrics::NowUs() at enqueue (0 with timing off): the drain records
    // the difference into server.write_queue_wait_us.
    int64_t enqueued_us = 0;
  };

  void AcceptLoop() PQIDX_EXCLUDES(connections_mutex_);
  void HandleConnection(const std::shared_ptr<Connection>& conn);

  // Decodes and serves one request; returns the response payload.
  std::string HandleRequest(MessageType type, std::string_view payload);
  std::string HandleLookup(std::string_view payload);
  std::string HandleTopK(std::string_view payload);
  std::string HandleAddTree(std::string_view payload);
  std::string HandleApplyEdits(std::string_view payload);
  std::string HandleStats();
  std::string HandleStatsSnapshot(std::string_view payload);

  // Serves one kSubscribe request: registers with the hub, sends the
  // ack (plus the snapshot image when the cursor cannot delta-resume),
  // then streams frames and heartbeats until the subscriber drops, the
  // hub drops it, or the server stops. Takes over the connection; the
  // handler loop ends when this returns.
  void ServeSubscriber(const std::shared_ptr<Connection>& conn,
                       const FrameHeader& header, std::string_view payload)
      PQIDX_EXCLUDES(engine_mutex_);

  // Group commit: blocks until `edit` is durable (or rejected) and
  // returns its result. The calling thread may serve as batch leader.
  Status SubmitEdit(PendingEdit* edit) PQIDX_EXCLUDES(write_mutex_);

  // One touched tree's net change within a batch, in the engine's
  // update form (LookupEngine::TreeUpdate). A tree the batch adds is a
  // replacement whose `plus` is its whole next bag; any other tree
  // carries its net count delta against the published snapshot, with
  // no fingerprint in both `plus` and `minus`.
  struct TreeChange {
    bool replace = false;
    PqGramIndex plus;
    PqGramIndex minus;

    // The tree's count of `fp` after this change, where `published` is
    // its count in the snapshot (unread for a replacement).
    int64_t CountAfter(PqGramFingerprint fp, int64_t published) const;
    // Folds one validated edit (remove `edit_minus`, add `edit_plus`)
    // into the change.
    void Fold(const PqGramIndex& edit_plus, const PqGramIndex& edit_minus);
  };

  // One validated batch: the net change per touched tree, and the store
  // edits in batch order with their positions in the batch.
  struct StagedBatch {
    std::map<TreeId, TreeChange> changes;
    std::vector<PersistentForestIndex::BatchEdit> edits;
    std::vector<size_t> edit_to_batch;
  };

  // Runs one batch as the sole leader: validates it (ValidateBatch),
  // commits the WAL transaction (durably stamped with `cursor`, the
  // replication cursor), publishes the next snapshot epoch, and hands
  // the batch's delta frame to the hub. The caller holds the leader
  // slot (leader_active_).
  void CommitBatch(const std::vector<PendingEdit*>& batch, uint64_t cursor)
      PQIDX_EXCLUDES(engine_mutex_);

  // Checks each edit, in batch order, against the published snapshot
  // plus the net change the batch already made to its tree (so an add
  // and later updates of one tree chain), and fills `staged`. Only the
  // leader publishes, and the leader slot serializes this with its
  // publish, so the snapshot read here is the last committed state.
  void ValidateBatch(const std::vector<PendingEdit*>& batch,
                     StagedBatch* staged) PQIDX_EXCLUDES(engine_mutex_);

  // The current lookup snapshot (never null after Start()).
  std::shared_ptr<const LookupEngine> EngineSnapshot() const
      PQIDX_EXCLUDES(engine_mutex_);
  // Publishes the next snapshot epoch, merged from the previous one and
  // `changes` (a committed batch's net change per touched tree), as of
  // replication cursor `ticket`. Reads no server state but the current
  // snapshot; the batch leader calls it, so epochs advance in batch
  // order.
  void PublishEngine(const std::map<TreeId, TreeChange>& changes,
                     uint64_t ticket) PQIDX_EXCLUDES(engine_mutex_);
  // Swaps in `next` (compiled in `us` microseconds) as the state at
  // `ticket`, reclaims the dead result-cache entries, and updates the
  // epoch counters and gauges.
  void InstallEngine(std::shared_ptr<const LookupEngine> next, int64_t us,
                     uint64_t ticket) PQIDX_EXCLUDES(engine_mutex_);

  ShardedStore* const index_;
  const ServerOptions options_;

  // The forest's pq-gram shape: set once by Start() from the store,
  // before any handler thread exists, and immutable afterwards, so
  // request handlers read it lock-free.
  PqShape shape_;

  // The immutable snapshot lookups score against and the write path
  // validates against. engine_mutex_ only guards the pointer swap/copy
  // (nanoseconds); scoring and encoding run on a private shared_ptr
  // copy with no lock held.
  mutable Mutex engine_mutex_;
  std::shared_ptr<const LookupEngine> engine_ PQIDX_GUARDED_BY(engine_mutex_);
  // The replication cursor engine_ reflects, installed together with it
  // BEFORE the batch's hub Publish, so a subscriber that registers and
  // takes engine_ under one engine_mutex_ scope gets an image
  // consistent with this ticket (service/replication.h).
  uint64_t engine_ticket_ PQIDX_GUARDED_BY(engine_mutex_) = 0;
  // Epoch-keyed result cache for kLookup / kTopK (null when disabled).
  // Internally synchronized; InstallEngine reconciles it against the
  // new snapshot's shard uids after every swap.
  std::unique_ptr<QueryCache> query_cache_;
  std::unique_ptr<ThreadPool> lookup_pool_;
  // Group-commit fan-out across store shards: min(shard count, cores)
  // workers on a store of two or more shards, null on a single shard.
  std::unique_ptr<ThreadPool> commit_fanout_pool_;

  // Group-commit queue and the single leader slot: a writer (or
  // ApplyReplicated) sets leader_active_ to commit a batch and clears it
  // when done, so exactly one CommitBatch runs at a time.
  Mutex write_mutex_;
  CondVar write_cv_;
  std::deque<PendingEdit*> write_queue_ PQIDX_GUARDED_BY(write_mutex_);
  bool leader_active_ PQIDX_GUARDED_BY(write_mutex_) = false;
  // Batches drained by leaders since Start.
  uint64_t next_ticket_ PQIDX_GUARDED_BY(write_mutex_) = 0;

  // Replication fan-out (null when disabled). Batch tickets restart at
  // 0 every Start, so the durable replication cursor is derived:
  // cursor_base_ (the store's cursor at Start) + ticket + 1 on a
  // leader, the streamed frame's own ticket on a follower.
  std::unique_ptr<ReplicationHub> hub_;
  uint64_t cursor_base_ = 0;

  // Lifecycle.
  std::unique_ptr<Listener> listener_;
  std::unique_ptr<ThreadPool> pool_;
  std::thread accept_thread_;
  std::atomic<bool> started_{false};
  std::atomic<bool> stopped_{false};
  std::atomic<int> active_connections_{0};
  Mutex connections_mutex_;
  std::vector<std::weak_ptr<Connection>> connections_
      PQIDX_GUARDED_BY(connections_mutex_);

  // Counters (see ServiceStats).
  std::atomic<int64_t> lookups_{0};
  std::atomic<int64_t> edits_applied_{0};
  std::atomic<int64_t> edit_commits_{0};
  std::atomic<int64_t> max_batch_{0};
  std::atomic<int64_t> rejected_{0};
  std::atomic<int64_t> protocol_errors_{0};
  std::atomic<int64_t> snapshot_epoch_{0};
  std::atomic<int64_t> candidates_pruned_{0};
  std::atomic<int64_t> candidates_scored_{0};
  std::atomic<int64_t> snapshot_rebuild_us_{0};
  std::atomic<int64_t> last_rebuild_us_{0};

  // Registry cells (common/metrics.h, "server.*"): the per-server
  // atomics above stay authoritative for ServiceStats (a binary may run
  // several servers); these mirror the same events into the
  // process-wide registry, plus per-opcode latency histograms indexed
  // by MessageType value.
  Histogram* m_request_us_[11] = {};
  Histogram* m_batch_edits_;
  Histogram* m_rebuild_us_;
  Histogram* m_snapshot_incremental_us_;
  Histogram* m_write_queue_wait_us_;
  Gauge* m_engine_bytes_;
  Gauge* m_query_cache_bytes_;
  Gauge* m_pager_pool_bytes_;
  Gauge* m_replication_ring_bytes_;
  Gauge* m_commit_fanout_threads_;
  Gauge* m_queue_depth_;
  Gauge* m_active_connections_;
  Gauge* m_snapshot_epoch_;
  Counter* m_lookups_;
  Counter* m_edits_applied_;
  Counter* m_edit_commits_;
  Counter* m_rejected_;
  Counter* m_protocol_errors_;
  // Resolved slow-op threshold (<= 0: disabled).
  int64_t slow_us_ = 0;
};

}  // namespace pqidx

#endif  // PQIDX_SERVICE_SERVER_H_
