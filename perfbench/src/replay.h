// The traced run's in-process replay: the layers behind the wire,
// measured one by one against their public functions.
//
// The op stream a run sent is regenerated from its seed (Streams are
// pure functions of it) and walked in a canonical order -- round robin
// over connections -- through
//
//   * the request/response Encode/Decode of service/wire;
//   * LookupEngine::Build, Lookup, TopK and ApplyDelta (one publish per
//     edit), with a QueryCache fed the same key stream;
//   * ShardedStore::BulkAdd, ApplyBatch (one batch per edit, with
//     ApplyBatchTimings) and MaterializeForest, on a store the replay
//     owns.
//
// The walk is single-threaded, so every count it produces (pq-grams per
// delta, postings per query, bytes per request) is exact and repeats
// for a given (workload, seed, ops sent).

#ifndef PQIDX_PERFBENCH_REPLAY_H_
#define PQIDX_PERFBENCH_REPLAY_H_

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "common/status.h"
#include "stream.h"
#include "trace.h"

namespace pqidx::perfbench {

struct ReplayInput {
  const Workload* workload = nullptr;
  uint64_t seed = 0;
  int num_conns = 0;
  // Stream::Next calls each connection made during the run, then the
  // NextEdit calls connection 0 made for the replication tail.
  std::vector<int64_t> next_calls;
  int64_t tail_edits = 0;
  const std::vector<PqGramIndex>* seed_bags = nullptr;
  std::string store_path;  // where the replay's own store goes
};

struct ReplayResult {
  // Hash of the whole regenerated op stream (OpHash of every op, in
  // order): equal for equal (workload, seed, ops sent).
  uint64_t digest = 0;
  int64_t ops = 0;    // ops regenerated
  int64_t reads = 0;  // lookups + top-k replayed
  int64_t edits = 0;  // edits replayed

  // Exact counts.
  int64_t delta_plus_pqgrams = 0;   // sum of |Delta+| over replayed edits
  int64_t delta_minus_pqgrams = 0;  // sum of |Delta-|
  int64_t postings_scanned = 0;     // over replayed reads
  int64_t candidates = 0;
  int64_t scored = 0;
  int64_t lookup_request_bytes = 0;   // sum over lookups + top-k
  int64_t lookup_response_bytes = 0;
  int64_t edit_request_bytes = 0;     // sum over edits
  int64_t shards_recompiled = 0;      // over publishes

  // Timings (microseconds per call), by op kind where it matters.
  std::map<std::string, std::vector<double>> us;

  double build_s = 0;        // LookupEngine::Build of the seed forest
  double bulk_add_s = 0;     // ShardedStore::Create + BulkAdd
  double materialize_s = 0;  // ShardedStore::MaterializeForest

  SpanLog spans;
};

// Runs the replay. A non-OK status means a layer disagreed with the
// benchmark's own model (the store's materialized forest, or an edited
// tree's incrementally maintained bag against BuildIndex(Tn)).
Status RunReplay(const ReplayInput& input, ReplayResult* result);

}  // namespace pqidx::perfbench

#endif  // PQIDX_PERFBENCH_REPLAY_H_
