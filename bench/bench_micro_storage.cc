// Microbenchmarks (google-benchmark) for the storage substrate: pager
// commit costs, linear-hash point operations, persistent-index updates,
// and streaming vs. materializing XML indexing.

#include <benchmark/benchmark.h>

#include <string>

#include "common/random.h"
#include "common/scoped_temp_dir.h"
#include "core/pqgram_index.h"
#include "core/streaming.h"
#include "edit/edit_script.h"
#include "storage/linear_hash.h"
#include "storage/pager.h"
#include "storage/persistent_forest_index.h"
#include "tree/generators.h"
#include "xml/xml_parser.h"
#include "xml/xml_writer.h"

namespace pqidx {
namespace {

// Store files live in this process's private scratch directory.
std::string BenchPath(const std::string& name) {
  static ScopedTempDir dir;
  return dir.File(name);
}

void BM_PagerCommitDirtyPages(benchmark::State& state) {
  Pager pager(1024);
  PQIDX_CHECK(pager.Open(BenchPath("pager.db"), true).ok());
  const int pages = static_cast<int>(state.range(0));
  for (int i = 0; i < pages; ++i) PQIDX_CHECK(pager.AllocatePage().ok());
  PQIDX_CHECK(pager.Commit().ok());
  Rng rng(1);
  for (auto _ : state) {
    for (int i = 0; i < pages; ++i) {
      uint8_t* page = pager.MutablePage(static_cast<PageId>(i)).value();
      page[rng.NextBounded(kPageSize)] = static_cast<uint8_t>(rng.Next());
    }
    benchmark::DoNotOptimize(pager.Commit().ok());
  }
  state.SetItemsProcessed(state.iterations() * pages);
}
BENCHMARK(BM_PagerCommitDirtyPages)->Arg(1)->Arg(16)->Arg(128)
    ->Unit(benchmark::kMicrosecond);

void BM_LinearHashGet(benchmark::State& state) {
  Pager pager(4096);
  PQIDX_CHECK(pager.Open(BenchPath("lh_get.db"), true).ok());
  LinearHashTable table(&pager);
  PQIDX_CHECK(table.Create(pager.AllocatePage().value()).ok());
  Rng rng(2);
  const int64_t entries = state.range(0);
  for (int64_t i = 0; i < entries; ++i) {
    PQIDX_CHECK(table.AddDelta(1, rng.Next(), 1).ok());
  }
  Rng probe(3);
  for (auto _ : state) {
    benchmark::DoNotOptimize(table.Get(1, probe.Next()).value());
  }
}
BENCHMARK(BM_LinearHashGet)->Range(1 << 10, 1 << 18);

void BM_LinearHashInsert(benchmark::State& state) {
  for (auto _ : state) {
    state.PauseTiming();
    Pager pager(4096);
    PQIDX_CHECK(pager.Open(BenchPath("lh_ins.db"), true).ok());
    LinearHashTable table(&pager);
    PQIDX_CHECK(table.Create(pager.AllocatePage().value()).ok());
    Rng rng(4);
    state.ResumeTiming();
    for (int64_t i = 0; i < state.range(0); ++i) {
      PQIDX_CHECK(table.AddDelta(1, rng.Next(), 1).ok());
    }
  }
  state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_LinearHashInsert)->Range(1 << 10, 1 << 16)
    ->Unit(benchmark::kMillisecond);

void BM_PersistentIndexApplyLog(benchmark::State& state) {
  const PqShape shape{3, 3};
  Rng rng(5);
  Tree doc = GenerateDblpLike(nullptr, &rng,
                              static_cast<int>(state.range(0)));
  auto store = PersistentForestIndex::Create(BenchPath("pfi.db"), shape);
  PQIDX_CHECK(store.ok());
  PQIDX_CHECK((*store)->AddTree(1, doc).ok());
  for (auto _ : state) {
    state.PauseTiming();
    EditLog log;
    GenerateEditScript(&doc, &rng, 50, EditScriptOptions{}, &log);
    state.ResumeTiming();
    PQIDX_CHECK((*store)->ApplyLog(1, doc, log).ok());
  }
  state.SetLabel("50 ops per iteration");
}
BENCHMARK(BM_PersistentIndexApplyLog)->Arg(2000)->Arg(16000)
    ->Unit(benchmark::kMillisecond);

void BM_IndexXmlMaterialized(benchmark::State& state) {
  Rng rng(6);
  Tree doc = GenerateXmarkLike(nullptr, &rng,
                               static_cast<int>(state.range(0)));
  std::string xml = WriteXml(doc);
  const PqShape shape{3, 3};
  for (auto _ : state) {
    StatusOr<Tree> parsed = ParseXml(xml);
    PQIDX_CHECK(parsed.ok());
    benchmark::DoNotOptimize(BuildIndex(*parsed, shape));
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(xml.size()));
}
BENCHMARK(BM_IndexXmlMaterialized)->Range(1 << 12, 1 << 16)
    ->Unit(benchmark::kMillisecond);

void BM_IndexXmlStreaming(benchmark::State& state) {
  Rng rng(6);
  Tree doc = GenerateXmarkLike(nullptr, &rng,
                               static_cast<int>(state.range(0)));
  std::string xml = WriteXml(doc);
  const PqShape shape{3, 3};
  for (auto _ : state) {
    benchmark::DoNotOptimize(BuildIndexFromXml(xml, shape).value());
  }
  state.SetBytesProcessed(state.iterations() *
                          static_cast<int64_t>(xml.size()));
}
BENCHMARK(BM_IndexXmlStreaming)->Range(1 << 12, 1 << 16)
    ->Unit(benchmark::kMillisecond);

}  // namespace
}  // namespace pqidx

BENCHMARK_MAIN();
