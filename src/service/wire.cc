#include "service/wire.h"

#include <bit>
#include <cmath>
#include <limits>

namespace pqidx {
namespace {

// Doubles travel as their IEEE-754 bit pattern in a u64.
void PutDouble(ByteWriter* writer, double v) {
  writer->PutU64(std::bit_cast<uint64_t>(v));
}

Status GetDouble(ByteReader* reader, double* out) {
  uint64_t bits;
  PQIDX_RETURN_IF_ERROR(reader->GetU64(&bits));
  *out = std::bit_cast<double>(bits);
  return Status::Ok();
}

Status GetTreeId(ByteReader* reader, TreeId* out) {
  int64_t wide;
  PQIDX_RETURN_IF_ERROR(reader->GetSignedVarint(&wide));
  if (wide < std::numeric_limits<TreeId>::min() ||
      wide > std::numeric_limits<TreeId>::max()) {
    return DataLossError("tree id out of range");
  }
  *out = static_cast<TreeId>(wide);
  return Status::Ok();
}

Status ExpectEnd(const ByteReader& reader) {
  if (!reader.AtEnd()) return DataLossError("trailing bytes after payload");
  return Status::Ok();
}

}  // namespace

std::string EncodeFrame(const FrameHeader& header, std::string_view payload) {
  PQIDX_CHECK(payload.size() <= kMaxFramePayload);
  ByteWriter writer;
  writer.PutU32(kWireMagic);
  writer.PutU8(kWireVersion);
  writer.PutU8(static_cast<uint8_t>(header.type));
  writer.PutU8(header.flags);
  writer.PutU8(0);  // reserved
  writer.PutU64(header.request_id);
  writer.PutU32(static_cast<uint32_t>(payload.size()));
  std::string frame = writer.Release();
  frame.append(payload);
  return frame;
}

Status DecodeFrameHeader(std::string_view bytes, FrameHeader* out) {
  if (bytes.size() != kFrameHeaderSize) {
    return DataLossError("truncated frame header");
  }
  ByteReader reader(bytes);
  uint32_t magic;
  PQIDX_RETURN_IF_ERROR(reader.GetU32(&magic));
  if (magic != kWireMagic) return DataLossError("bad frame magic");
  uint8_t version;
  PQIDX_RETURN_IF_ERROR(reader.GetU8(&version));
  if (version != kWireVersion) {
    return DataLossError("unsupported wire version");
  }
  uint8_t type;
  PQIDX_RETURN_IF_ERROR(reader.GetU8(&type));
  if (type < static_cast<uint8_t>(MessageType::kPing) ||
      type > static_cast<uint8_t>(MessageType::kTopK)) {
    return DataLossError("unknown message type");
  }
  uint8_t flags;
  PQIDX_RETURN_IF_ERROR(reader.GetU8(&flags));
  if ((flags & ~kFrameFlagResponse) != 0) {
    return DataLossError("unknown frame flags");
  }
  uint8_t reserved;
  PQIDX_RETURN_IF_ERROR(reader.GetU8(&reserved));
  if (reserved != 0) return DataLossError("nonzero reserved byte");
  uint64_t request_id;
  PQIDX_RETURN_IF_ERROR(reader.GetU64(&request_id));
  uint32_t payload_size;
  PQIDX_RETURN_IF_ERROR(reader.GetU32(&payload_size));
  if (payload_size > kMaxFramePayload) {
    return DataLossError("frame payload exceeds limit");
  }
  out->type = static_cast<MessageType>(type);
  out->flags = flags;
  out->request_id = request_id;
  out->payload_size = payload_size;
  return Status::Ok();
}

// --- requests -----------------------------------------------------------

void LookupRequest::Encode(ByteWriter* writer) const {
  PutDouble(writer, tau);
  query.Serialize(writer);
}

StatusOr<LookupRequest> LookupRequest::Decode(std::string_view payload) {
  ByteReader reader(payload);
  LookupRequest request;
  PQIDX_RETURN_IF_ERROR(GetDouble(&reader, &request.tau));
  // pq-gram distances lie in [0, 1], so any meaningful threshold does
  // too. Rejecting the rest here keeps hostile values (NaN, +/-inf,
  // huge negatives) out of the scoring hot path entirely.
  if (!std::isfinite(request.tau) || request.tau < 0.0) {
    return InvalidArgumentError("tau must be finite and non-negative");
  }
  StatusOr<PqGramIndex> query = PqGramIndex::Deserialize(&reader);
  PQIDX_RETURN_IF_ERROR(query.status());
  request.query = *std::move(query);
  PQIDX_RETURN_IF_ERROR(ExpectEnd(reader));
  return request;
}

void TopKRequest::Encode(ByteWriter* writer) const {
  writer->PutSignedVarint(k);
  query.Serialize(writer);
}

StatusOr<TopKRequest> TopKRequest::Decode(std::string_view payload) {
  ByteReader reader(payload);
  TopKRequest request;
  int64_t wide_k;
  PQIDX_RETURN_IF_ERROR(reader.GetSignedVarint(&wide_k));
  if (wide_k < 0 || wide_k > kMaxK) {
    return InvalidArgumentError("top-k count out of range");
  }
  request.k = static_cast<int32_t>(wide_k);
  StatusOr<PqGramIndex> query = PqGramIndex::Deserialize(&reader);
  PQIDX_RETURN_IF_ERROR(query.status());
  request.query = *std::move(query);
  PQIDX_RETURN_IF_ERROR(ExpectEnd(reader));
  return request;
}

void AddTreeRequest::Encode(ByteWriter* writer) const {
  writer->PutSignedVarint(tree_id);
  bag.Serialize(writer);
}

StatusOr<AddTreeRequest> AddTreeRequest::Decode(std::string_view payload) {
  ByteReader reader(payload);
  AddTreeRequest request;
  PQIDX_RETURN_IF_ERROR(GetTreeId(&reader, &request.tree_id));
  StatusOr<PqGramIndex> bag = PqGramIndex::Deserialize(&reader);
  PQIDX_RETURN_IF_ERROR(bag.status());
  request.bag = *std::move(bag);
  PQIDX_RETURN_IF_ERROR(ExpectEnd(reader));
  return request;
}

void ApplyEditsRequest::Encode(ByteWriter* writer) const {
  writer->PutSignedVarint(tree_id);
  writer->PutSignedVarint(log_ops);
  plus.Serialize(writer);
  minus.Serialize(writer);
}

StatusOr<ApplyEditsRequest> ApplyEditsRequest::Decode(
    std::string_view payload) {
  ByteReader reader(payload);
  ApplyEditsRequest request;
  PQIDX_RETURN_IF_ERROR(GetTreeId(&reader, &request.tree_id));
  PQIDX_RETURN_IF_ERROR(reader.GetSignedVarint(&request.log_ops));
  if (request.log_ops < 0) return DataLossError("negative log size");
  StatusOr<PqGramIndex> plus = PqGramIndex::Deserialize(&reader);
  PQIDX_RETURN_IF_ERROR(plus.status());
  request.plus = *std::move(plus);
  StatusOr<PqGramIndex> minus = PqGramIndex::Deserialize(&reader);
  PQIDX_RETURN_IF_ERROR(minus.status());
  request.minus = *std::move(minus);
  PQIDX_RETURN_IF_ERROR(ExpectEnd(reader));
  return request;
}

// --- replication --------------------------------------------------------

void SubscribeRequest::Encode(ByteWriter* writer) const {
  writer->PutU64(from_ticket);
  writer->PutU8(force_snapshot ? 1 : 0);
}

StatusOr<SubscribeRequest> SubscribeRequest::Decode(
    std::string_view payload) {
  ByteReader reader(payload);
  SubscribeRequest request;
  PQIDX_RETURN_IF_ERROR(reader.GetU64(&request.from_ticket));
  uint8_t force;
  PQIDX_RETURN_IF_ERROR(reader.GetU8(&force));
  if (force > 1) return DataLossError("bad subscribe flags");
  request.force_snapshot = force != 0;
  PQIDX_RETURN_IF_ERROR(ExpectEnd(reader));
  return request;
}

void SubscribeAck::Encode(ByteWriter* writer) const {
  writer->PutU8(static_cast<uint8_t>(mode));
  writer->PutU64(ticket);
  writer->PutU8(p);
  writer->PutU8(q);
}

StatusOr<SubscribeAck> SubscribeAck::Decode(ByteReader* reader) {
  SubscribeAck ack;
  uint8_t mode;
  PQIDX_RETURN_IF_ERROR(reader->GetU8(&mode));
  if (mode > static_cast<uint8_t>(Mode::kSnapshot)) {
    return DataLossError("unknown subscribe ack mode");
  }
  ack.mode = static_cast<Mode>(mode);
  PQIDX_RETURN_IF_ERROR(reader->GetU64(&ack.ticket));
  PQIDX_RETURN_IF_ERROR(reader->GetU8(&ack.p));
  PQIDX_RETURN_IF_ERROR(reader->GetU8(&ack.q));
  return ack;
}

namespace {

void EncodeDeltaEntry(const DeltaEntry& entry, ByteWriter* writer) {
  writer->PutSignedVarint(entry.tree_id);
  writer->PutU8(entry.is_add ? 1 : 0);
  entry.plus.Serialize(writer);
  if (!entry.is_add) entry.minus.Serialize(writer);
}

Status DecodeDeltaEntry(ByteReader* reader, DeltaEntry* entry) {
  PQIDX_RETURN_IF_ERROR(GetTreeId(reader, &entry->tree_id));
  uint8_t is_add;
  PQIDX_RETURN_IF_ERROR(reader->GetU8(&is_add));
  if (is_add > 1) return DataLossError("bad delta entry kind");
  entry->is_add = is_add != 0;
  StatusOr<PqGramIndex> plus = PqGramIndex::Deserialize(reader);
  PQIDX_RETURN_IF_ERROR(plus.status());
  entry->plus = *std::move(plus);
  if (!entry->is_add) {
    StatusOr<PqGramIndex> minus = PqGramIndex::Deserialize(reader);
    PQIDX_RETURN_IF_ERROR(minus.status());
    entry->minus = *std::move(minus);
  }
  return Status::Ok();
}

// The fixed part of one delta-frame chunk: ticket + publish_us +
// last_chunk + a worst-case entry-count varint.
constexpr size_t kDeltaChunkOverhead = 8 + 10 + 1 + 5;

}  // namespace

void DeltaFrame::Encode(ByteWriter* writer) const {
  writer->PutU64(ticket);
  writer->PutSignedVarint(publish_us);
  writer->PutU8(last_chunk ? 1 : 0);
  writer->PutVarint(entries.size());
  for (const DeltaEntry& entry : entries) EncodeDeltaEntry(entry, writer);
}

StatusOr<DeltaFrame> DeltaFrame::Decode(std::string_view payload) {
  ByteReader reader(payload);
  DeltaFrame frame;
  PQIDX_RETURN_IF_ERROR(reader.GetU64(&frame.ticket));
  PQIDX_RETURN_IF_ERROR(reader.GetSignedVarint(&frame.publish_us));
  uint8_t last;
  PQIDX_RETURN_IF_ERROR(reader.GetU8(&last));
  if (last > 1) return DataLossError("bad delta frame flag");
  frame.last_chunk = last != 0;
  uint64_t count;
  PQIDX_RETURN_IF_ERROR(reader.GetVarint(&count));
  // An entry costs >= 4 bytes (tree id, kind, one empty bag); a count
  // the remaining bytes cannot hold is corrupt (and must not drive a
  // huge reserve()).
  if (count > reader.remaining() / 4 + 1) {
    return DataLossError("delta entry count exceeds payload");
  }
  frame.entries.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    DeltaEntry entry;
    PQIDX_RETURN_IF_ERROR(DecodeDeltaEntry(&reader, &entry));
    frame.entries.push_back(std::move(entry));
  }
  PQIDX_RETURN_IF_ERROR(ExpectEnd(reader));
  return frame;
}

std::string EncodeDeltaEntry(const DeltaEntryView& entry) {
  ByteWriter writer;
  writer.PutSignedVarint(entry.tree_id);
  writer.PutU8(entry.is_add ? 1 : 0);
  entry.plus->Serialize(&writer);
  if (!entry.is_add) entry.minus->Serialize(&writer);
  return writer.Release();
}

std::vector<std::string> PackDeltaFrameChunks(
    uint64_t ticket, int64_t publish_us,
    const std::vector<std::string>& encoded, size_t max_payload) {
  // Greedy: a chunk closes when the next entry would push it past
  // `max_payload`. A single entry larger than the budget still becomes
  // its own chunk (kMaxEditPayload keeps such an entry under the hard
  // frame limit).
  std::vector<std::string> chunks;
  size_t i = 0;
  do {
    size_t bytes = kDeltaChunkOverhead;
    size_t end = i;
    while (end < encoded.size() &&
           (end == i || bytes + encoded[end].size() <= max_payload)) {
      bytes += encoded[end].size();
      ++end;
    }
    ByteWriter writer;
    writer.PutU64(ticket);
    writer.PutSignedVarint(publish_us);
    writer.PutU8(end == encoded.size() ? 1 : 0);  // last_chunk
    writer.PutVarint(end - i);
    std::string chunk = writer.Release();
    for (; i < end; ++i) chunk.append(encoded[i]);
    chunks.push_back(std::move(chunk));
  } while (i < encoded.size());
  return chunks;
}

std::vector<std::string> EncodeDeltaFrameChunks(
    uint64_t ticket, int64_t publish_us,
    const std::vector<DeltaEntryView>& entries, size_t max_payload) {
  std::vector<std::string> encoded;
  encoded.reserve(entries.size());
  for (const DeltaEntryView& entry : entries) {
    encoded.push_back(EncodeDeltaEntry(entry));
  }
  return PackDeltaFrameChunks(ticket, publish_us, encoded, max_payload);
}

std::vector<std::string> EncodeDeltaFrameChunks(const DeltaFrame& frame,
                                                size_t max_payload) {
  std::vector<DeltaEntryView> views;
  views.reserve(frame.entries.size());
  for (const DeltaEntry& entry : frame.entries) {
    views.push_back({entry.tree_id, entry.is_add, &entry.plus,
                     entry.is_add ? nullptr : &entry.minus});
  }
  return EncodeDeltaFrameChunks(frame.ticket, frame.publish_us, views,
                                max_payload);
}

// --- responses ----------------------------------------------------------

void EncodeStatus(const Status& status, ByteWriter* writer) {
  writer->PutU8(static_cast<uint8_t>(status.code()));
  writer->PutString(status.message());
}

Status DecodeStatus(ByteReader* reader, Status* out) {
  uint8_t code;
  PQIDX_RETURN_IF_ERROR(reader->GetU8(&code));
  if (code > static_cast<uint8_t>(StatusCode::kUnavailable)) {
    return DataLossError("unknown status code");
  }
  std::string message;
  PQIDX_RETURN_IF_ERROR(reader->GetString(&message));
  *out = Status(static_cast<StatusCode>(code), std::move(message));
  return Status::Ok();
}

void LookupResponse::Encode(ByteWriter* writer) const {
  writer->PutVarint(results.size());
  for (const LookupResult& result : results) {
    writer->PutSignedVarint(result.tree_id);
    PutDouble(writer, result.distance);
  }
}

StatusOr<LookupResponse> LookupResponse::Decode(ByteReader* reader) {
  uint64_t count;
  PQIDX_RETURN_IF_ERROR(reader->GetVarint(&count));
  // A result costs >= 9 bytes on the wire; a count the remaining bytes
  // cannot hold is corrupt (and must not drive a huge reserve()).
  if (count > reader->remaining() / 9 + 1) {
    return DataLossError("lookup result count exceeds payload");
  }
  LookupResponse response;
  response.results.reserve(count);
  for (uint64_t i = 0; i < count; ++i) {
    LookupResult result;
    PQIDX_RETURN_IF_ERROR(GetTreeId(reader, &result.tree_id));
    PQIDX_RETURN_IF_ERROR(GetDouble(reader, &result.distance));
    response.results.push_back(result);
  }
  return response;
}

void ServiceStats::Encode(ByteWriter* writer) const {
  writer->PutU8(static_cast<uint8_t>(p));
  writer->PutU8(static_cast<uint8_t>(q));
  writer->PutSignedVarint(tree_count);
  writer->PutSignedVarint(lookups);
  writer->PutSignedVarint(edits_applied);
  writer->PutSignedVarint(edit_commits);
  writer->PutSignedVarint(max_batch);
  writer->PutSignedVarint(rejected);
  writer->PutSignedVarint(protocol_errors);
  writer->PutSignedVarint(snapshot_epoch);
  writer->PutSignedVarint(candidates_pruned);
  writer->PutSignedVarint(candidates_scored);
  writer->PutSignedVarint(snapshot_rebuild_us);
  writer->PutSignedVarint(last_rebuild_us);
}

void EncodeMetricsSnapshot(const MetricsSnapshot& snapshot,
                           ByteWriter* writer) {
  writer->PutVarint(snapshot.samples.size());
  for (const MetricSample& sample : snapshot.samples) {
    writer->PutU8(static_cast<uint8_t>(sample.kind));
    writer->PutString(sample.name);
    switch (sample.kind) {
      case MetricSample::Kind::kCounter:
      case MetricSample::Kind::kGauge:
        writer->PutSignedVarint(sample.value);
        break;
      case MetricSample::Kind::kHistogram:
        writer->PutSignedVarint(sample.count);
        writer->PutSignedVarint(sample.sum);
        writer->PutSignedVarint(sample.max);
        writer->PutVarint(sample.buckets.size());
        for (const auto& [index, count] : sample.buckets) {
          writer->PutVarint(index);
          writer->PutSignedVarint(count);
        }
        break;
    }
  }
}

StatusOr<MetricsSnapshot> DecodeMetricsSnapshot(ByteReader* reader) {
  uint64_t num_samples;
  PQIDX_RETURN_IF_ERROR(reader->GetVarint(&num_samples));
  // A sample costs >= 3 bytes (kind, empty name, one varint); a count
  // the payload cannot hold is corrupt and must not drive a reserve().
  if (num_samples > reader->remaining() / 3 + 1) {
    return DataLossError("metric sample count exceeds payload");
  }
  MetricsSnapshot snapshot;
  snapshot.samples.reserve(num_samples);
  for (uint64_t i = 0; i < num_samples; ++i) {
    MetricSample sample;
    uint8_t kind;
    PQIDX_RETURN_IF_ERROR(reader->GetU8(&kind));
    if (kind > static_cast<uint8_t>(MetricSample::Kind::kHistogram)) {
      return DataLossError("unknown metric kind");
    }
    sample.kind = static_cast<MetricSample::Kind>(kind);
    PQIDX_RETURN_IF_ERROR(reader->GetString(&sample.name));
    if (sample.kind != MetricSample::Kind::kHistogram) {
      PQIDX_RETURN_IF_ERROR(reader->GetSignedVarint(&sample.value));
    } else {
      PQIDX_RETURN_IF_ERROR(reader->GetSignedVarint(&sample.count));
      PQIDX_RETURN_IF_ERROR(reader->GetSignedVarint(&sample.sum));
      PQIDX_RETURN_IF_ERROR(reader->GetSignedVarint(&sample.max));
      if (sample.count < 0) return DataLossError("negative sample count");
      uint64_t num_buckets;
      PQIDX_RETURN_IF_ERROR(reader->GetVarint(&num_buckets));
      if (num_buckets > static_cast<uint64_t>(Histogram::kNumBuckets)) {
        return DataLossError("histogram bucket count out of range");
      }
      sample.buckets.reserve(num_buckets);
      uint64_t prev_index = 0;
      for (uint64_t b = 0; b < num_buckets; ++b) {
        uint64_t index;
        int64_t count;
        PQIDX_RETURN_IF_ERROR(reader->GetVarint(&index));
        PQIDX_RETURN_IF_ERROR(reader->GetSignedVarint(&count));
        if (index >= static_cast<uint64_t>(Histogram::kNumBuckets)) {
          return DataLossError("histogram bucket index out of range");
        }
        if (b > 0 && index <= prev_index) {
          return DataLossError("histogram bucket indices not ascending");
        }
        if (count <= 0) return DataLossError("non-positive bucket count");
        prev_index = index;
        sample.buckets.emplace_back(static_cast<uint32_t>(index), count);
      }
    }
    snapshot.samples.push_back(std::move(sample));
  }
  return snapshot;
}

StatusOr<ServiceStats> ServiceStats::Decode(ByteReader* reader) {
  ServiceStats stats;
  uint8_t p, q;
  PQIDX_RETURN_IF_ERROR(reader->GetU8(&p));
  PQIDX_RETURN_IF_ERROR(reader->GetU8(&q));
  stats.p = p;
  stats.q = q;
  PQIDX_RETURN_IF_ERROR(reader->GetSignedVarint(&stats.tree_count));
  PQIDX_RETURN_IF_ERROR(reader->GetSignedVarint(&stats.lookups));
  PQIDX_RETURN_IF_ERROR(reader->GetSignedVarint(&stats.edits_applied));
  PQIDX_RETURN_IF_ERROR(reader->GetSignedVarint(&stats.edit_commits));
  PQIDX_RETURN_IF_ERROR(reader->GetSignedVarint(&stats.max_batch));
  PQIDX_RETURN_IF_ERROR(reader->GetSignedVarint(&stats.rejected));
  PQIDX_RETURN_IF_ERROR(reader->GetSignedVarint(&stats.protocol_errors));
  PQIDX_RETURN_IF_ERROR(reader->GetSignedVarint(&stats.snapshot_epoch));
  PQIDX_RETURN_IF_ERROR(reader->GetSignedVarint(&stats.candidates_pruned));
  PQIDX_RETURN_IF_ERROR(reader->GetSignedVarint(&stats.candidates_scored));
  PQIDX_RETURN_IF_ERROR(
      reader->GetSignedVarint(&stats.snapshot_rebuild_us));
  PQIDX_RETURN_IF_ERROR(reader->GetSignedVarint(&stats.last_rebuild_us));
  return stats;
}

}  // namespace pqidx
