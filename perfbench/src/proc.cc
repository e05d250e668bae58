#include "proc.h"

#include <fcntl.h>
#include <signal.h>
#include <stdlib.h>
#include <sys/prctl.h>
#include <sys/wait.h>
#include <unistd.h>

#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <thread>

namespace pqidx::perfbench {
namespace fs = std::filesystem;

StatusOr<std::unique_ptr<ScopedTempDir>> ScopedTempDir::Create(
    const std::string& parent) {
  std::error_code ec;
  fs::create_directories(parent, ec);
  if (ec) return IoError("cannot create " + parent + ": " + ec.message());
  std::string templ = parent + "/run-XXXXXX";
  std::vector<char> buf(templ.begin(), templ.end());
  buf.push_back('\0');
  if (mkdtemp(buf.data()) == nullptr) {
    return IoError("mkdtemp under " + parent + " failed");
  }
  return std::unique_ptr<ScopedTempDir>(
      new ScopedTempDir(std::string(buf.data())));  // lint:allow-new
}

ScopedTempDir::~ScopedTempDir() {
  std::error_code ec;
  fs::remove_all(path_, ec);
}

StatusOr<std::unique_ptr<ServerProcess>> ServerProcess::Spawn(
    const std::vector<std::string>& argv, const std::string& log_path) {
  std::vector<char*> args;
  for (const std::string& a : argv) args.push_back(const_cast<char*>(a.c_str()));
  args.push_back(nullptr);
  // A restart reuses the log path: drop the old log first, so the port
  // announcement read back is always this process's.
  unlink(log_path.c_str());
  const pid_t parent = getpid();
  const pid_t pid = fork();
  if (pid < 0) return IoError("fork failed");
  if (pid == 0) {
    // Async-signal-safe calls only until exec.
    prctl(PR_SET_PDEATHSIG, SIGTERM);
    if (getppid() != parent) _exit(127);
    int fd = open(log_path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
    if (fd < 0) _exit(127);
    dup2(fd, STDOUT_FILENO);
    dup2(fd, STDERR_FILENO);
    close(fd);
    execv(args[0], args.data());
    _exit(127);
  }
  return std::unique_ptr<ServerProcess>(
      new ServerProcess(pid, log_path));  // lint:allow-new
}

StatusOr<int> ServerProcess::WaitForPort(double timeout_s) {
  const auto deadline = std::chrono::steady_clock::now() +
                        std::chrono::duration<double>(timeout_s);
  const std::string marker = " on 127.0.0.1:";
  while (std::chrono::steady_clock::now() < deadline) {
    std::ifstream in(log_path_);
    std::string line;
    while (std::getline(in, line)) {
      if (line.rfind("pqidxd ", 0) != 0) continue;
      size_t at = line.find(marker);
      if (at == std::string::npos) continue;
      int port = std::atoi(line.c_str() + at + marker.size());
      if (port > 0) return port;
    }
    int status = 0;
    if (pid_ > 0 && waitpid(pid_, &status, WNOHANG) == pid_) {
      pid_ = -1;
      std::stringstream log;
      log << std::ifstream(log_path_).rdbuf();
      return IoError("server exited before serving: " + log.str());
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  return IoError("server did not announce a port within the timeout");
}

int64_t ServerProcess::PeakRssKb() const {
  if (pid_ <= 0) return -1;
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("VmHWM:", 0) == 0) return std::atoll(line.c_str() + 6);
  }
  return -1;
}

int ServerProcess::Stop() {
  if (pid_ <= 0) return -1;
  kill(pid_, SIGTERM);
  int status = 0;
  const auto deadline =
      std::chrono::steady_clock::now() + std::chrono::seconds(20);
  while (waitpid(pid_, &status, WNOHANG) == 0) {
    if (std::chrono::steady_clock::now() > deadline) {
      kill(pid_, SIGKILL);
      waitpid(pid_, &status, 0);
      break;
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
  pid_ = -1;
  return status;
}

Status CopyStore(const std::string& src, const std::string& dst) {
  const fs::path from(src);
  const std::string stem = from.filename().string();
  std::error_code ec;
  for (const fs::directory_entry& entry :
       fs::directory_iterator(from.parent_path(), ec)) {
    const std::string name = entry.path().filename().string();
    if (name != stem && name.rfind(stem + ".", 0) != 0) continue;
    fs::copy_file(entry.path(), dst + name.substr(stem.size()),
                  fs::copy_options::overwrite_existing, ec);
    if (ec) return IoError("cannot copy " + name + ": " + ec.message());
  }
  if (ec) return IoError("cannot list " + src + ": " + ec.message());
  return Status::Ok();
}

int64_t StoreBytes(const std::string& path) {
  const fs::path p(path);
  const std::string stem = p.filename().string();
  int64_t total = 0;
  std::error_code ec;
  for (const fs::directory_entry& entry :
       fs::directory_iterator(p.parent_path(), ec)) {
    const std::string name = entry.path().filename().string();
    if (name != stem && name.rfind(stem + ".", 0) != 0) continue;
    if (entry.is_regular_file(ec)) {
      total += static_cast<int64_t>(entry.file_size(ec));
    } else if (entry.is_directory(ec)) {  // a sharded store's directory
      for (const fs::directory_entry& f :
           fs::recursive_directory_iterator(entry.path(), ec)) {
        if (f.is_regular_file(ec)) {
          total += static_cast<int64_t>(f.file_size(ec));
        }
      }
    }
  }
  return total;
}

}  // namespace pqidx::perfbench
