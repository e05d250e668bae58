// Shared helpers for pqidx tests: hermetic scratch directories, profile
// set algebra, delta-store materialization, and random-workload drivers
// used by the property tests.

#ifndef PQIDX_TESTS_TEST_UTIL_H_
#define PQIDX_TESTS_TEST_UTIL_H_

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <set>
#include <string>
#include <vector>

#include "common/scoped_temp_dir.h"
#include "core/delta_store.h"
#include "core/pqgram.h"
#include "core/profile.h"
#include "tree/tree.h"

namespace pqidx::testing {

// Hermetic scratch directories; see common/scoped_temp_dir.h.
using pqidx::ScopedTempDir;

// Materializes the pq-grams currently represented by a delta store.
inline std::set<PqGram> StoreToSet(const DeltaStore& store) {
  std::set<PqGram> out;
  const int n = store.shape().tuple_size();
  store.ForEachPqGram([&](const PqGramView& view) {
    PqGram gram;
    gram.ids.assign(view.ids, view.ids + n);
    gram.labels.assign(view.labels, view.labels + n);
    out.insert(std::move(gram));
  });
  return out;
}

// Set difference a \ b.
inline std::set<PqGram> SetMinus(const std::set<PqGram>& a,
                                 const std::set<PqGram>& b) {
  std::set<PqGram> out;
  std::set_difference(a.begin(), a.end(), b.begin(), b.end(),
                      std::inserter(out, out.begin()));
  return out;
}

inline std::set<PqGram> SetIntersect(const std::set<PqGram>& a,
                                     const std::set<PqGram>& b) {
  std::set<PqGram> out;
  std::set_intersection(a.begin(), a.end(), b.begin(), b.end(),
                        std::inserter(out, out.begin()));
  return out;
}

inline std::set<PqGram> SetUnion(const std::set<PqGram>& a,
                                 const std::set<PqGram>& b) {
  std::set<PqGram> out;
  std::set_union(a.begin(), a.end(), b.begin(), b.end(),
                 std::inserter(out, out.begin()));
  return out;
}

// Pretty-prints a pq-gram set difference for failure messages.
inline std::string DescribeDiff(const std::set<PqGram>& got,
                                const std::set<PqGram>& want,
                                const LabelDict& dict) {
  std::string out;
  for (const PqGram& g : SetMinus(got, want)) {
    out += "  unexpected: " + PqGramToString(g, dict) + "\n";
  }
  for (const PqGram& g : SetMinus(want, got)) {
    out += "  missing:    " + PqGramToString(g, dict) + "\n";
  }
  return out;
}

// The shapes exercised by the property tests. The 3x3 grid covers the
// paper's configurations (3,3 and 1,2) plus all degenerate p/q = 1 cases.
inline std::vector<PqShape> AllTestShapes() {
  std::vector<PqShape> shapes;
  for (int p = 1; p <= 3; ++p) {
    for (int q = 1; q <= 3; ++q) shapes.push_back(PqShape{p, q});
  }
  shapes.push_back(PqShape{4, 4});
  return shapes;
}

}  // namespace pqidx::testing

#endif  // PQIDX_TESTS_TEST_UTIL_H_
