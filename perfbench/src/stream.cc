#include "stream.h"

#include <algorithm>
#include <utility>

#include "edit/edit_script.h"
#include "tree/generators.h"

namespace pqidx::perfbench {
namespace {

// Domain separators: the forest, the op streams, the query pool and the
// query perturbations never share randomness for one seed.
constexpr uint64_t kTreeSalt = 0xbf58476d1ce4e5b9ULL;
constexpr uint64_t kStreamSalt = 0x9e3779b97f4a7c15ULL;
constexpr uint64_t kPoolSalt = 0xd6e8feb86659fd93ULL;
constexpr uint64_t kQuerySalt = 0x94d049bb133111ebULL;

constexpr double kTheta = 0.99;  // Zipf skew of query pools and edit targets
constexpr double kTaus[] = {0.2, 0.5, 0.8};
constexpr int kTopK = 10;
constexpr int kMaxEditOps = 8;
constexpr int kTreeRecords = 6;  // GenerateDblpLike records per tree
constexpr uint64_t kHashSalt = 0x2545f4914f6cdd1dULL;

// Offered rates are about half the closed-loop throughput each workload
// reached when this benchmark was written (perfbench/README.md).
const Workload kWorkloads[] = {
    {"read_hot", 4000, 0.94, 0.05, 4000000, 800, false},
    {"write_large", 4000, 0.15, 0.15, 0, 50, true},
    {"write_small", 64, 0.15, 0.15, 0, 300, false},
};

}  // namespace

uint64_t MixSeed(uint64_t seed, uint64_t salt, uint64_t lane) {
  uint64_t x = seed ^ salt ^ (lane * 0x9e3779b97f4a7c15ULL);
  x ^= x >> 30;
  x *= 0xbf58476d1ce4e5b9ULL;
  x ^= x >> 27;
  x *= 0x94d049bb133111ebULL;
  x ^= x >> 31;
  return x;
}

uint64_t BagHash(const PqGramIndex& bag) {
  uint64_t sum = 0;
  for (const auto& [fp, count] : bag.counts()) {
    sum += MixSeed(fp, 0, static_cast<uint64_t>(count));
  }
  return MixSeed(sum, kHashSalt, static_cast<uint64_t>(bag.size()));
}

uint64_t OpHash(const Op& op) {
  uint64_t h = MixSeed(static_cast<uint64_t>(op.kind), kHashSalt,
                       static_cast<uint64_t>(op.tree));
  h = MixSeed(h, kHashSalt, static_cast<uint64_t>(op.pool_item));
  if (op.kind == OpKind::kEdit) {
    return MixSeed(h, kHashSalt, static_cast<uint64_t>(op.log.size()));
  }
  h = MixSeed(h, kHashSalt, BagHash(op.query));
  return MixSeed(h, kHashSalt,
                 op.kind == OpKind::kLookup ? static_cast<uint64_t>(op.tau * 1000)
                                            : static_cast<uint64_t>(op.k));
}

const Workload* FindWorkload(const std::string& name) {
  for (const Workload& w : kWorkloads) {
    if (w.name == name) return &w;
  }
  return nullptr;
}

const char* OpKindName(OpKind kind) {
  switch (kind) {
    case OpKind::kLookup:
      return "lookup";
    case OpKind::kTopK:
      return "topk";
    case OpKind::kEdit:
      return "edit";
  }
  return "?";
}

void OwnedRange(int num_trees, int num_conns, int conn, TreeId* begin,
                TreeId* end) {
  const int64_t n = num_trees;
  *begin = static_cast<TreeId>(conn * n / num_conns);
  *end = static_cast<TreeId>((conn + 1) * n / num_conns);
}

PqGramIndex PerturbedQuery(const PqGramIndex& base, uint64_t noise_seed) {
  PqGramIndex query = base;
  Rng rng(MixSeed(noise_seed, kQuerySalt, 0));
  const int extra = 1 + static_cast<int>(rng.NextBounded(2));
  for (int i = 0; i < extra; ++i) {
    query.Add(static_cast<PqGramFingerprint>(rng.Next()), 1);
  }
  if (rng.Bernoulli(0.5)) {
    // Select by sorted rank, never by hash-map iteration order, so the
    // query depends on the bag's content alone.
    std::vector<PqGramFingerprint> fps;
    fps.reserve(static_cast<size_t>(query.distinct()));
    for (const auto& [fp, count] : query.counts()) fps.push_back(fp);
    const size_t nth = static_cast<size_t>(rng.Next() % fps.size());
    std::nth_element(fps.begin(), fps.begin() + static_cast<ptrdiff_t>(nth),
                     fps.end());
    query.Remove(fps[nth], 1);
  }
  return query;
}

Stream::Stream(const Workload& workload, uint64_t seed, int conn,
               int num_conns)
    : workload_(workload),
      seed_(seed),
      dict_(std::make_shared<LabelDict>()),
      rng_(MixSeed(seed, kStreamSalt, static_cast<uint64_t>(conn))) {
  OwnedRange(workload.num_trees, num_conns, conn, &own_begin_, &own_end_);
  trees_.reserve(static_cast<size_t>(own_end_ - own_begin_));
  for (TreeId id = own_begin_; id < own_end_; ++id) {
    Rng tree_rng(MixSeed(seed, kTreeSalt, static_cast<uint64_t>(id)));
    trees_.push_back(GenerateDblpLike(dict_, &tree_rng, kTreeRecords));
  }
  was_edited_.assign(trees_.size(), 0);
}

void Stream::Next(const std::vector<PqGramIndex>& seed_bags, Op* op) {
  const double roll = rng_.NextDouble();
  const bool owns = own_end_ > own_begin_;
  if (owns && roll >= workload_.lookup + workload_.topk) {
    NextEdit(op);
    return;
  }
  op->kind = roll < workload_.lookup || workload_.topk == 0 ? OpKind::kLookup
                                                            : OpKind::kTopK;
  op->log.Clear();
  uint64_t noise = 0;
  int tau_index = 0;
  if (workload_.query_pool > 0) {
    // A pool item fixes (base, perturbation, tau), so a repeated item is
    // a byte-identical request.
    op->pool_item = rng_.Zipf(workload_.query_pool, kTheta);
    const uint64_t item = MixSeed(seed_, kPoolSalt,
                                  static_cast<uint64_t>(op->pool_item));
    op->tree = static_cast<TreeId>(item % seed_bags.size());
    noise = MixSeed(item, kPoolSalt, 1);
    tau_index = static_cast<int>((item >> 32) % std::size(kTaus));
  } else {
    op->pool_item = -1;
    op->tree = static_cast<TreeId>(
        rng_.NextBounded(static_cast<uint64_t>(seed_bags.size())));
    noise = rng_.Next();
    tau_index = static_cast<int>(rng_.NextBounded(std::size(kTaus)));
  }
  op->tau = kTaus[tau_index];
  op->k = kTopK;
  op->query = PerturbedQuery(seed_bags[op->tree], noise);
}

void Stream::NextEdit(Op* op) {
  op->kind = OpKind::kEdit;
  op->pool_item = -1;
  const int owned = own_end_ - own_begin_;
  const int slot = rng_.Zipf(owned, kTheta);
  op->tree = own_begin_ + static_cast<TreeId>(slot);
  op->log.Clear();
  const int num_ops = static_cast<int>(rng_.Uniform(1, kMaxEditOps));
  GenerateEditScript(&trees_[static_cast<size_t>(slot)], &rng_, num_ops,
                     EditScriptOptions(), &op->log);
  if (!was_edited_[static_cast<size_t>(slot)]) {
    was_edited_[static_cast<size_t>(slot)] = 1;
    edited_.push_back(op->tree);
  }
}

}  // namespace pqidx::perfbench
