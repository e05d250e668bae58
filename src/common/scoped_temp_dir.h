// An exclusive scratch directory for tests and benchmarks.
//
// Stores at fixed paths collide when binaries run in parallel (ctest -j,
// two benchmark runs) and leak state from a killed run into the next.
// Routing every path through one of these makes each process hermetic:
// the directory is created by mkdtemp under $TMPDIR (else /tmp) and
// removed with everything below it on destruction, sharded stores'
// subdirectories included.

#ifndef PQIDX_COMMON_SCOPED_TEMP_DIR_H_
#define PQIDX_COMMON_SCOPED_TEMP_DIR_H_

#include <stdlib.h>

#include <cstdlib>
#include <filesystem>
#include <string>
#include <system_error>
#include <vector>

namespace pqidx {

class ScopedTempDir {
 public:
  ScopedTempDir() {
    const char* base = std::getenv("TMPDIR");
    std::string tmpl = base != nullptr && *base != '\0' ? base : "/tmp";
    tmpl += "/pqidx_XXXXXX";
    std::vector<char> buf(tmpl.begin(), tmpl.end());
    buf.push_back('\0');
    if (::mkdtemp(buf.data()) != nullptr) path_ = buf.data();
  }
  ~ScopedTempDir() {
    if (path_.empty()) return;
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  ScopedTempDir(const ScopedTempDir&) = delete;
  ScopedTempDir& operator=(const ScopedTempDir&) = delete;

  // False when mkdtemp failed; path() is then empty.
  bool ok() const { return !path_.empty(); }
  const std::string& path() const { return path_; }
  std::string File(const std::string& name) const {
    return path_ + "/" + name;
  }

 private:
  std::string path_;
};

}  // namespace pqidx

#endif  // PQIDX_COMMON_SCOPED_TEMP_DIR_H_
