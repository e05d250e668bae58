#include "replay.h"

#include <memory>
#include <utility>

#include "core/incremental.h"
#include "core/lookup_engine.h"
#include "core/query_cache.h"
#include "service/wire.h"
#include "storage/sharded_store.h"

namespace pqidx::perfbench {
namespace {

// The server's defaults (service/server.h): 16 engine shards, a 32 MiB
// result cache.
constexpr int kEngineShards = 16;

// Caps on the ops replayed: the walk stops at the edit cap and skips
// reads past the read cap.
constexpr int64_t kMaxReads = 3000;
constexpr int64_t kMaxEdits = 200;

double SecondsSince(int64_t start_ns) { return (NowNs() - start_ns) / 1e9; }

}  // namespace

Status RunReplay(const ReplayInput& input, ReplayResult* r) {
  const Workload& w = *input.workload;
  const std::vector<PqGramIndex>& seed_bags = *input.seed_bags;

  std::vector<std::unique_ptr<Stream>> streams;
  for (int c = 0; c < input.num_conns; ++c) {
    streams.push_back(
        std::make_unique<Stream>(w, input.seed, c, input.num_conns));
  }

  ForestIndex forest(kShape);
  for (size_t id = 0; id < seed_bags.size(); ++id) {
    forest.AddIndex(static_cast<TreeId>(id), seed_bags[id]);
  }

  int64_t t0 = NowNs();
  std::shared_ptr<const LookupEngine> engine =
      LookupEngine::Build(forest, kEngineShards);
  r->build_s = SecondsSince(t0);
  QueryCache cache{QueryCache::Options()};

  t0 = NowNs();
  StatusOr<std::unique_ptr<ShardedStore>> store =
      ShardedStore::Create(input.store_path, kShape, 1);
  PQIDX_RETURN_IF_ERROR(store.status());
  {
    std::vector<std::pair<TreeId, const PqGramIndex*>> bags;
    bags.reserve(seed_bags.size());
    for (size_t id = 0; id < seed_bags.size(); ++id) {
      bags.emplace_back(static_cast<TreeId>(id), &seed_bags[id]);
    }
    PQIDX_RETURN_IF_ERROR((*store)->BulkAdd(bags));
  }
  r->bulk_add_s = SecondsSince(t0);

  // Round robin over connections, then the replication tail.
  std::vector<int64_t> done(static_cast<size_t>(input.num_conns), 0);
  int64_t tail_done = 0;
  bool stop = false;
  Op op;
  std::vector<TreeId> edited;
  TreeId unapplied = -1;
  while (!stop) {
    bool any = false;
    for (int c = 0; c < input.num_conns && !stop; ++c) {
      Stream& stream = *streams[static_cast<size_t>(c)];
      if (done[static_cast<size_t>(c)] < input.next_calls[static_cast<size_t>(c)]) {
        stream.Next(seed_bags, &op);
        ++done[static_cast<size_t>(c)];
      } else if (c == 0 && tail_done < input.tail_edits &&
                 done[0] == input.next_calls[0]) {
        stream.NextEdit(&op);
        ++tail_done;
      } else {
        continue;
      }
      any = true;
      ++r->ops;
      r->digest = MixSeed(r->digest, OpHash(op), static_cast<uint64_t>(r->ops));
      const int64_t request = r->ops;

      if (op.kind == OpKind::kEdit) {
        if (r->edits >= kMaxEdits) {
          unapplied = op.tree;  // generated (tree mutated), never replayed
          stop = true;
          break;
        }
        ++r->edits;
        PqGramIndex plus(kShape);
        PqGramIndex minus(kShape);
        UpdateTimings timings;
        PQIDX_RETURN_IF_ERROR(ComputeIndexDeltas(stream.tree(op.tree), op.log,
                                                 kShape, &plus, &minus,
                                                 &timings));
        r->delta_plus_pqgrams += timings.delta_plus_pqgrams;
        r->delta_minus_pqgrams += timings.delta_minus_pqgrams;

        ApplyEditsRequest request_msg;
        request_msg.tree_id = op.tree;
        request_msg.plus = plus;
        request_msg.minus = minus;
        request_msg.log_ops = op.log.size();
        int64_t s = NowNs();
        ByteWriter writer;
        request_msg.Encode(&writer);
        std::string payload = writer.Release();
        int64_t e = NowNs();
        r->spans.Add("wire.encode", request, s, e);
        r->us["wire.encode.edit"].push_back((e - s) / 1e3);
        r->edit_request_bytes += static_cast<int64_t>(payload.size());
        s = NowNs();
        StatusOr<ApplyEditsRequest> decoded = ApplyEditsRequest::Decode(payload);
        e = NowNs();
        PQIDX_RETURN_IF_ERROR(decoded.status());
        r->spans.Add("wire.decode", request, s, e);
        r->us["wire.decode.edit"].push_back((e - s) / 1e3);

        // Storage: one batch per edit, on the replay's own store.
        std::vector<ShardedStore::BatchEdit> batch(1);
        batch[0].id = op.tree;
        batch[0].plus = &plus;
        batch[0].minus = &minus;
        std::vector<Status> results;
        ShardedStore::ApplyBatchTimings bt;
        s = NowNs();
        PQIDX_RETURN_IF_ERROR((*store)->ApplyBatch(batch, &results, &bt));
        e = NowNs();
        PQIDX_RETURN_IF_ERROR(results[0]);
        r->spans.Add("storage.apply_batch", request, s, e);
        r->us["storage.validate"].push_back(static_cast<double>(bt.validate_us));
        r->us["storage.delta"].push_back(static_cast<double>(bt.delta_us));
        r->us["storage.update"].push_back(static_cast<double>(bt.update_us));
        r->us["storage.commit"].push_back(static_cast<double>(bt.storage_us));

        // Engine: the bag-level Lemma 2 merge, then one publish.
        PqGramIndex bag = *forest.Find(op.tree);
        for (const auto& [fp, count] : minus.counts()) bag.Remove(fp, count);
        for (const auto& [fp, count] : plus.counts()) bag.Add(fp, count);
        forest.AddIndex(op.tree, std::move(bag));
        const std::vector<uint64_t> before = engine->ShardUids();
        s = NowNs();
        engine = LookupEngine::ApplyDelta(engine, forest, {op.tree});
        cache.OnPublish(engine->ShardUids());
        e = NowNs();
        r->spans.Add("lookup_engine.publish", request, s, e);
        r->us["lookup_engine.publish"].push_back((e - s) / 1e3);
        const std::vector<uint64_t> after = engine->ShardUids();
        for (size_t i = 0; i < after.size(); ++i) {
          if (i >= before.size() || before[i] != after[i]) {
            ++r->shards_recompiled;
          }
        }
        edited.push_back(op.tree);
        continue;
      }

      if (r->reads >= kMaxReads) continue;
      ++r->reads;
      const bool lookup = op.kind == OpKind::kLookup;
      const std::string kind = OpKindName(op.kind);
      int64_t s = NowNs();
      ByteWriter writer;
      if (lookup) {
        LookupRequest msg;
        msg.query = op.query;
        msg.tau = op.tau;
        msg.Encode(&writer);
      } else {
        TopKRequest msg;
        msg.query = op.query;
        msg.k = op.k;
        msg.Encode(&writer);
      }
      std::string payload = writer.Release();
      int64_t e = NowNs();
      r->spans.Add("wire.encode", request, s, e);
      int64_t encode_ns = e - s;
      r->lookup_request_bytes += static_cast<int64_t>(payload.size());

      s = NowNs();
      Status decoded = lookup ? LookupRequest::Decode(payload).status()
                              : TopKRequest::Decode(payload).status();
      e = NowNs();
      r->spans.Add("wire.decode", request, s, e);
      int64_t decode_ns = e - s;
      PQIDX_RETURN_IF_ERROR(decoded);

      LookupEngineStats stats;
      s = NowNs();
      LookupResponse response;
      response.results =
          lookup ? engine->Lookup(op.query, op.tau, nullptr, &stats, &cache)
                 : engine->TopK(op.query, op.k, nullptr, &stats, &cache);
      e = NowNs();
      const char* engine_span =
          lookup ? "lookup_engine.lookup" : "lookup_engine.topk";
      r->spans.Add(engine_span, request, s, e);
      r->us[engine_span].push_back((e - s) / 1e3);
      r->postings_scanned += stats.postings_scanned;
      r->candidates += stats.candidates;
      r->scored += stats.scored;

      s = NowNs();
      ByteWriter out;
      EncodeStatus(Status::Ok(), &out);
      response.Encode(&out);
      std::string body = out.Release();
      e = NowNs();
      r->spans.Add("wire.encode", request, s, e);
      encode_ns += e - s;
      r->lookup_response_bytes += static_cast<int64_t>(body.size());
      s = NowNs();
      ByteReader reader(body);
      Status transported;
      PQIDX_RETURN_IF_ERROR(DecodeStatus(&reader, &transported));
      PQIDX_RETURN_IF_ERROR(LookupResponse::Decode(&reader).status());
      e = NowNs();
      r->spans.Add("wire.decode", request, s, e);
      decode_ns += e - s;
      r->us["wire.encode." + kind].push_back(encode_ns / 1e3);
      r->us["wire.decode." + kind].push_back(decode_ns / 1e3);
    }
    if (!any) break;
  }

  t0 = NowNs();
  StatusOr<ForestIndex> materialized = (*store)->MaterializeForest();
  r->materialize_s = SecondsSince(t0);
  PQIDX_RETURN_IF_ERROR(materialized.status());
  if (!(*materialized == forest)) {
    return DataLossError(
        "replay: the store's materialized forest differs from the bag-level "
        "replay of the same edits");
  }
  // Algorithm 1 against the definition: every bag the replay maintained
  // incrementally equals the index of the edited tree, built from scratch.
  for (TreeId id : edited) {
    if (id == unapplied) continue;
    for (const auto& stream : streams) {
      if (id < stream->own_begin() || id >= stream->own_end()) continue;
      if (!(*forest.Find(id) == BuildIndex(stream->tree(id), kShape))) {
        return DataLossError("replay: incrementally maintained bag of tree " +
                             std::to_string(id) + " differs from I(Tn)");
      }
    }
  }
  return Status::Ok();
}

}  // namespace pqidx::perfbench
