// The pqidxd wire protocol: versioned, length-framed binary messages.
//
// Every message on a connection is one frame: a fixed 20-byte header
// followed by `payload_size` payload bytes. Payloads are encoded with the
// serde primitives (common/serde.h); all decode paths treat their input
// as untrusted and report malformed, truncated, or oversized bytes with a
// Status -- never UB or an abort (fuzz/fuzz_wire.cc holds that line).
//
// Frame header (little-endian, see docs/FORMATS.md):
//
//   off 0  u32 magic "PQRW"      off 4  u8 version (1)
//   off 5  u8 type               off 6  u8 flags (bit 0: response)
//   off 7  u8 reserved (0)       off 8  u64 request_id
//   off 16 u32 payload_size      (<= kMaxFramePayload)
//
// The protocol never carries trees: clients reduce their work to pq-gram
// bags (PqGramIndex) locally and ship those, so the server only ever
// decodes the already-hardened bag format and the paper's incremental
// update travels as the (I+, I-) delta bags of Algorithm 1.
//
// Response payloads start with a status (code byte + message string);
// request-specific result bytes follow only when the status is OK. A
// response with request_id 0 is a connection-level rejection (admission
// control before any request was read).

#ifndef PQIDX_SERVICE_WIRE_H_
#define PQIDX_SERVICE_WIRE_H_

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/metrics.h"
#include "common/serde.h"
#include "common/status.h"
#include "core/forest_index.h"
#include "core/pqgram_index.h"

namespace pqidx {

inline constexpr uint32_t kWireMagic = 0x57525150;  // "PQRW" little-endian
inline constexpr uint8_t kWireVersion = 1;
inline constexpr size_t kFrameHeaderSize = 20;
// Frames larger than this are rejected before the payload is read: a
// single bag tuple costs ~11 bytes, so 64 MiB bounds any sane request.
inline constexpr uint32_t kMaxFramePayload = 64u << 20;

enum class MessageType : uint8_t {
  kPing = 1,
  kLookup = 2,
  kAddTree = 3,
  kApplyEdits = 4,
  kStats = 5,
  kStatsSnapshot = 6,  // full metrics registry (common/metrics.h)
  // Replication (service/replication.h): a follower subscribes with its
  // durable cursor; the leader answers with a kSubscribeAck (delta
  // resume or full-snapshot fallback) and then pushes one kDeltaFrame
  // per committed batch on the same connection.
  kSubscribe = 7,
  kSubscribeAck = 8,
  kDeltaFrame = 9,
  // The engine's adaptive-tau-bound top-k over the wire: best K matches
  // instead of the full result set of a threshold lookup.
  kTopK = 10,
};

// Edit requests (kAddTree / kApplyEdits) are capped below the frame
// limit so a committed batch's bags always re-encode into delta-frame
// chunks that themselves fit under kMaxFramePayload (a delta entry
// costs at most the original request payload plus a few bytes).
inline constexpr uint32_t kMaxEditPayload = kMaxFramePayload - 4096;

inline constexpr uint8_t kFrameFlagResponse = 0x01;

struct FrameHeader {
  MessageType type = MessageType::kPing;
  uint8_t flags = 0;
  uint64_t request_id = 0;
  uint32_t payload_size = 0;

  bool is_response() const { return (flags & kFrameFlagResponse) != 0; }
};

// Serializes header + payload into one contiguous frame.
std::string EncodeFrame(const FrameHeader& header, std::string_view payload);

// Strict decode of an untrusted header (exactly kFrameHeaderSize bytes):
// rejects short input, bad magic, unknown version/type, nonzero reserved
// bits, and oversized payload declarations.
Status DecodeFrameHeader(std::string_view bytes, FrameHeader* out);

// --- request payloads ---------------------------------------------------

struct LookupRequest {
  PqGramIndex query;
  double tau = 0;

  void Encode(ByteWriter* writer) const;
  static StatusOr<LookupRequest> Decode(std::string_view payload);
};

// The k most similar trees to `query` (kTopK). The response reuses
// LookupResponse. `k` is bounded on decode: a hostile k must not drive
// the server's per-shard heaps.
struct TopKRequest {
  PqGramIndex query;
  int32_t k = 0;

  // Requests above this are rejected on decode; a client wanting more
  // than a million results should use a threshold lookup.
  static constexpr int32_t kMaxK = 1 << 20;

  void Encode(ByteWriter* writer) const;
  static StatusOr<TopKRequest> Decode(std::string_view payload);
};

struct AddTreeRequest {
  TreeId tree_id = 0;
  PqGramIndex bag;

  void Encode(ByteWriter* writer) const;
  static StatusOr<AddTreeRequest> Decode(std::string_view payload);
};

// The (I+, I-) bags of one updateIndex run (paper Algorithm 1), computed
// client-side from the resulting tree and the inverse-operation log.
struct ApplyEditsRequest {
  TreeId tree_id = 0;
  PqGramIndex plus;
  PqGramIndex minus;
  int64_t log_ops = 0;  // |L|, reported for server statistics only

  void Encode(ByteWriter* writer) const;
  static StatusOr<ApplyEditsRequest> Decode(std::string_view payload);
};

// --- replication payloads -----------------------------------------------

// Follower -> leader: stream every batch committed with a replication
// ticket > `from_ticket` (the follower's durable cursor; 0 subscribes
// from the beginning). `force_snapshot` demands a full-snapshot resync
// even when the leader could resume by delta -- the follower's recovery
// path when it detects divergence from the stream.
struct SubscribeRequest {
  uint64_t from_ticket = 0;
  bool force_snapshot = false;

  void Encode(ByteWriter* writer) const;
  static StatusOr<SubscribeRequest> Decode(std::string_view payload);
};

// Leader -> follower: the response to kSubscribe (after the transported
// status). kDelta resumes the stream right after the follower's cursor.
// kSnapshot means the leader cannot resume by delta (it no longer
// retains the frames the follower is missing, the cursor is from
// another history, or the follower forced a resync): the first streamed
// kDeltaFrame (ticket == `ticket`, chunked like any large batch) then
// carries the leader's full state as add entries, and the follower must
// install it into a fresh store before applying later frames.
struct SubscribeAck {
  enum class Mode : uint8_t { kDelta = 0, kSnapshot = 1 };

  Mode mode = Mode::kDelta;
  uint64_t ticket = 0;  // the stream cursor; frames after it follow
  uint8_t p = 0;        // index shape (the follower must match it)
  uint8_t q = 0;

  void Encode(ByteWriter* writer) const;
  static StatusOr<SubscribeAck> Decode(ByteReader* reader);
};

// One edit of a committed batch as it travels in a delta frame: either
// a whole-tree bag (`is_add`, AddTree) or the paper's (I+, I-) bags of
// one updateIndex run.
struct DeltaEntry {
  TreeId tree_id = 0;
  bool is_add = false;
  PqGramIndex plus;   // the whole bag for is_add
  PqGramIndex minus;  // empty for is_add

  bool operator==(const DeltaEntry& other) const {
    return tree_id == other.tree_id && is_add == other.is_add &&
           plus == other.plus && minus == other.minus;
  }
};

// One committed batch's delta bags, pushed leader -> follower. A batch
// whose bags exceed the frame limit is split into several chunks that
// carry the same ticket; the follower accumulates entries until it sees
// `last_chunk` and applies the assembled batch atomically at `ticket`.
struct DeltaFrame {
  uint64_t ticket = 0;
  int64_t publish_us = 0;  // leader Metrics::NowUs() at publish time
  bool last_chunk = true;
  std::vector<DeltaEntry> entries;

  void Encode(ByteWriter* writer) const;
  static StatusOr<DeltaFrame> Decode(std::string_view payload);
};

// Borrowed view of a DeltaEntry: what the leader encodes straight from
// a committed batch's staged bags without copying them. `minus` is
// ignored (may be null) when `is_add`.
struct DeltaEntryView {
  TreeId tree_id = 0;
  bool is_add = false;
  const PqGramIndex* plus = nullptr;
  const PqGramIndex* minus = nullptr;
};

// One entry's encoding inside a delta-frame chunk.
std::string EncodeDeltaEntry(const DeltaEntryView& entry);

// Packs encoded entries (EncodeDeltaEntry) into one or more chunk
// payloads, as EncodeDeltaFrameChunks does.
std::vector<std::string> PackDeltaFrameChunks(
    uint64_t ticket, int64_t publish_us,
    const std::vector<std::string>& encoded,
    size_t max_payload = kMaxFramePayload - 64);

// Splits one batch into one or more encoded chunk payloads, each at
// most `max_payload` bytes (oversized single entries get a chunk of
// their own; kMaxEditPayload guarantees those still fit a frame).
// Exactly the last chunk has last_chunk set; an empty entry list
// yields a single empty chunk (the heartbeat frame).
std::vector<std::string> EncodeDeltaFrameChunks(
    uint64_t ticket, int64_t publish_us,
    const std::vector<DeltaEntryView>& entries,
    size_t max_payload = kMaxFramePayload - 64);

// Convenience over the view-based encoder.
std::vector<std::string> EncodeDeltaFrameChunks(
    const DeltaFrame& frame, size_t max_payload = kMaxFramePayload - 64);

// --- response payloads --------------------------------------------------

// Every response payload starts with this: code byte + message string.
void EncodeStatus(const Status& status, ByteWriter* writer);
// Outer Status: malformed bytes. `*out` receives the transported status.
Status DecodeStatus(ByteReader* reader, Status* out);

struct LookupResponse {
  std::vector<LookupResult> results;

  void Encode(ByteWriter* writer) const;
  static StatusOr<LookupResponse> Decode(ByteReader* reader);
};

// Service counters exposed over the wire; the group-commit efficiency the
// loadgen asserts on is edits_applied / edit_commits, and the lookup
// engine's read-path health shows in candidates_pruned vs. _scored.
struct ServiceStats {
  int p = 0;
  int q = 0;
  int64_t tree_count = 0;
  int64_t lookups = 0;
  int64_t edits_applied = 0;   // successful AddTree + ApplyEdits requests
  int64_t edit_commits = 0;    // WAL commits that carried those edits
  int64_t max_batch = 0;       // largest single group-commit batch
  int64_t rejected = 0;        // admission-control rejections
  int64_t protocol_errors = 0;
  // Lookup-engine snapshot counters (core/lookup_engine.h).
  int64_t snapshot_epoch = 0;       // snapshots published since Start()
  int64_t candidates_pruned = 0;    // dropped by the tau count filter
  int64_t candidates_scored = 0;    // candidates fully scored
  int64_t snapshot_rebuild_us = 0;  // total snapshot compile time
  int64_t last_rebuild_us = 0;      // most recent snapshot compile time

  void Encode(ByteWriter* writer) const;
  static StatusOr<ServiceStats> Decode(ByteReader* reader);
};

// The full observability registry for kStatsSnapshot responses: every
// counter/gauge/histogram the process registered (common/metrics.h),
// including per-opcode latency histograms and the ApplyBatch phase
// split. A kStatsSnapshot *request* carries an empty payload. The
// decoder treats its input as untrusted: sample counts are bounded by
// the remaining bytes and histogram bucket indices by
// Histogram::kNumBuckets.
void EncodeMetricsSnapshot(const MetricsSnapshot& snapshot,
                           ByteWriter* writer);
StatusOr<MetricsSnapshot> DecodeMetricsSnapshot(ByteReader* reader);

}  // namespace pqidx

#endif  // PQIDX_SERVICE_WIRE_H_
