// Child processes of the benchmark: the shipped `pqidx serve` leader and
// its `--follow` standby, plus the private scratch directory every store
// lives in.

#ifndef PQIDX_PERFBENCH_PROC_H_
#define PQIDX_PERFBENCH_PROC_H_

#include <sys/types.h>

#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "common/status.h"

namespace pqidx::perfbench {

// A fresh directory made with mkdtemp under `parent`, removed with
// everything in it when the object dies.
class ScopedTempDir {
 public:
  static StatusOr<std::unique_ptr<ScopedTempDir>> Create(
      const std::string& parent);
  ~ScopedTempDir();

  ScopedTempDir(const ScopedTempDir&) = delete;
  ScopedTempDir& operator=(const ScopedTempDir&) = delete;

  const std::string& path() const { return path_; }

 private:
  explicit ScopedTempDir(std::string path) : path_(std::move(path)) {}
  std::string path_;
};

// One spawned server process. Its stdout and stderr go to `log_path`
// (a pipe nobody drains could block its exit-time registry dump). The
// child gets SIGTERM if the benchmark dies first, and the destructor
// stops it, so no server outlives a run.
class ServerProcess {
 public:
  static StatusOr<std::unique_ptr<ServerProcess>> Spawn(
      const std::vector<std::string>& argv, const std::string& log_path);
  ~ServerProcess() { Stop(); }

  ServerProcess(const ServerProcess&) = delete;
  ServerProcess& operator=(const ServerProcess&) = delete;

  pid_t pid() const { return pid_; }

  // Waits until the server's log announces its bound port ("... on
  // 127.0.0.1:<port>") and returns it. Fails if the process exits or
  // `timeout_s` passes first.
  StatusOr<int> WaitForPort(double timeout_s);

  // Peak resident set size (VmHWM) in KiB, -1 if unreadable.
  int64_t PeakRssKb() const;

  // SIGTERM, then waits for exit (SIGKILL after a grace period).
  // Idempotent. Returns the raw wait status, or -1 if already stopped.
  int Stop();

 private:
  ServerProcess(pid_t pid, std::string log_path)
      : pid_(pid), log_path_(std::move(log_path)) {}

  pid_t pid_;
  std::string log_path_;
};

// Copies every file of a single-file store (the page file and any
// sidecar named `<src>.*`) to `<dst>` / `<dst>.*`.
Status CopyStore(const std::string& src, const std::string& dst);

// Total bytes of the store's files (pages + WAL + manifest).
int64_t StoreBytes(const std::string& path);

}  // namespace pqidx::perfbench

#endif  // PQIDX_PERFBENCH_PROC_H_
