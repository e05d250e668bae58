// pqidx_perfbench: the pqidxd benchmark load generator (perfbench/README.md).
//
//   pqidx_perfbench --workload NAME --seed N --seconds S --trace 0|1
//                   --bin-dir DIR --work-dir DIR [--revision REV]
//                   [--ops N] [--replay]
//
// One run: build the seeded forest, bulk-load a store, start the shipped
// `pqidx serve` on it (several times, for a set-up median) plus a
// `--follow` standby, drive the workload over loopback TCP -- a memory
// phase of fixed work, a closed loop over nproc connections, then an
// open loop at the workload's fixed rate, the loops each after a warm-up
// slice -- check served answers against a
// mirror at every quiesce point, stop the standby, commit a tail of
// batches, and time the standby's catch-up. --trace 1 records spans
// around every client call and replays the stream through each layer in
// process (replay.h), and reports per-layer metrics instead of
// end-to-end ones.
//
// --ops N replaces the time limits with N ops per connection per phase
// (the determinism self-check); --replay runs the replay untraced too.
//
// The last stdout line is the JSON result; the exit code is nonzero if
// any served answer diverged from the mirror.

#include <sched.h>
#include <sys/vfs.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <unordered_set>
#include <utility>
#include <vector>

#include "core/forest_index.h"
#include "core/incremental.h"
#include "common/sync.h"
#include "core/simd_intersect.h"
#include "proc.h"
#include "replay.h"
#include "service/client.h"
#include "service/transport.h"
#include "storage/sharded_store.h"
#include "stream.h"
#include "trace.h"

#ifndef PERFBENCH_BUILD_TYPE
#define PERFBENCH_BUILD_TYPE "unknown"
#endif

namespace pqidx::perfbench {
namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();
constexpr uint64_t kCheckSalt = 0x5851f42d4c957f2dULL;
constexpr uint64_t kSentSalt = 0x3c6ef372fe94f82bULL;

// Run shape. The measured time splits 40/60 between the closed and the
// open loop; each phase starts with an unmeasured warm-up slice.
constexpr double kClosedShare = 0.4;
constexpr double kWarmupShare = 0.1;
constexpr double kMaxWarmupS = 1.0;
constexpr int kSetups = 3;           // set-ups per run (setup_s is the median)
constexpr int kCatchUpRounds = 11;   // catchup_s is the median round
constexpr int kTailEdits = 16;       // batches the stopped standby misses
constexpr int kChecksPerKind = 20;   // mirror-checked lookups (and top-k)
constexpr int64_t kTraceSliceNs = 250'000'000;  // closed-loop on/off slices
constexpr int64_t kBucketNs = 500'000'000;  // throughput buckets
// The memory phase sends this many edits (split over the connections),
// fewer than the server's 64 publishes between full engine rebuilds.
constexpr int kMemoryEdits = 48;

enum Phase : uint8_t { kMemory, kClosedWarm, kClosed, kOpenWarm, kOpen };

struct Args {
  std::string workload;
  uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  std::string bin_dir;
  std::string work_dir;
  std::string revision = "unknown";
  int64_t ops = 0;  // > 0: fixed ops per connection per phase
  bool replay = false;
};

struct Sample {
  OpKind kind;
  Phase phase;
  bool ok;
  bool traced;
  int64_t due_ns;   // open loop: the schedule; closed loop: the send
  int64_t send_ns;
  int64_t end_ns;
};

// One load-generating connection: its client and what it recorded, plus
// the stream it owns. The closed loop uses both from one thread; in the
// open loop any worker may generate from a stream (and bump its
// next_calls), under that stream's StreamTurn lock.
struct Conn {
  std::unique_ptr<Stream> stream;
  std::unique_ptr<Client> client;
  std::vector<Sample> samples;
  SpanLog spans;
  std::vector<double> delta_plus_us;   // UpdateTimings, traced edits
  std::vector<double> delta_minus_us;
  std::vector<int64_t> pool_items;     // query-pool items of lookups sent
  int64_t next_calls = 0;
  // Sum over the ops of this stream that were sent of a hash of (op,
  // sequence number): in the open loop other connections send them too,
  // in any order.
  std::atomic<uint64_t> sent_digest{0};
  int64_t failed = 0;
  std::string first_error;
};

// The open loop's shared schedule: the next global op index, and per
// stream the sequence number whose turn it is to be generated.
struct StreamTurn {
  Mutex mutex;
  CondVar cv;
  int64_t next_seq PQIDX_GUARDED_BY(mutex) = 0;
  bool edit_in_flight PQIDX_GUARDED_BY(mutex) = false;
};

struct OpenSchedule {
  explicit OpenSchedule(int streams) : turns(static_cast<size_t>(streams)) {}
  int64_t start_ns = 0;
  int64_t warm_end_ns = 0;
  int64_t end_ns = 0;
  std::atomic<int64_t> next{0};
  std::vector<StreamTurn> turns;
};

int Fail(const std::string& message) {
  std::fprintf(stderr, "perfbench: %s\n", message.c_str());
  return 2;
}

int NumCpus() {
  cpu_set_t set;
  CPU_ZERO(&set);
  if (sched_getaffinity(0, sizeof(set), &set) == 0) {
    return std::max(1, CPU_COUNT(&set));
  }
  return std::max(1u, std::thread::hardware_concurrency());
}

std::string FsType(const std::string& path) {
  struct statfs st;
  if (statfs(path.c_str(), &st) != 0) return "unknown";
  switch (static_cast<unsigned long>(st.f_type)) {
    case 0xEF53:
      return "ext4";
    case 0x01021994:
      return "tmpfs";
    case 0x58465342:
      return "xfs";
    case 0x9123683E:
      return "btrfs";
    case 0x794c7630:
      return "overlayfs";
    default: {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "0x%lx",
                    static_cast<unsigned long>(st.f_type));
      return buf;
    }
  }
}

// Nearest-rank quantile; q in (0, 1]. NaN for no samples.
double Quantile(std::vector<double> v, double q) {
  if (v.empty()) return std::nan("");
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(std::ceil(q * static_cast<double>(v.size())));
  rank = std::clamp<size_t>(rank, 1, v.size());
  return v[rank - 1];
}

double Median(std::vector<double> v) { return Quantile(std::move(v), 0.5); }

double Ratio(double num, double den) { return den != 0 ? num / den : 0; }

// All-CPU time from the first line of /proc/stat, in clock ticks: the
// total and the part stolen by the hypervisor. A shared host that runs
// other guests shows as steal, and it slows every timed metric at once.
struct CpuTicks {
  double total = 0;
  double steal = 0;
};

CpuTicks ReadCpuTicks() {
  CpuTicks t;
  std::ifstream in("/proc/stat");
  std::string cpu;
  in >> cpu;
  // user nice system idle iowait irq softirq steal
  for (int i = 0; i < 8 && in; ++i) {
    double v = 0;
    in >> v;
    t.total += v;
    if (i == 7) t.steal = v;
  }
  return t;
}

StatusOr<std::unique_ptr<Client>> Dial(int port) {
  StatusOr<std::unique_ptr<Connection>> conn =
      TcpConnect("127.0.0.1", static_cast<uint16_t>(port));
  PQIDX_RETURN_IF_ERROR(conn.status());
  return Client::Connect(std::move(conn).value());
}

// Dials until the server accepts: a standby rebuilding its serving
// stack (after a snapshot resync) is briefly not listening.
StatusOr<std::unique_ptr<Client>> DialWithRetry(int port) {
  const int64_t deadline = NowNs() + 10'000'000'000LL;
  for (;;) {
    StatusOr<std::unique_ptr<Client>> client = Dial(port);
    if (client.ok() || NowNs() > deadline) return client;
    std::this_thread::sleep_for(std::chrono::milliseconds(1));
  }
}

// A currently free loopback port for a standby: its listener is
// re-created on every serving-stack rebuild, so it gets a fixed --port
// instead of an ephemeral one that could change under the benchmark.
StatusOr<int> FreePort() {
  StatusOr<std::unique_ptr<TcpListener>> listener = TcpListener::Listen(0);
  PQIDX_RETURN_IF_ERROR(listener.status());
  const int port = (*listener)->port();
  (*listener)->Close();
  return port;
}

// Registry values by name from a StatsSnapshot; histograms read as
// their sample count.
struct Registry {
  std::map<std::string, double> values;

  static Registry From(const MetricsSnapshot& snapshot) {
    Registry r;
    for (const MetricSample& s : snapshot.samples) {
      r.values[s.name] = s.kind == MetricSample::Kind::kHistogram
                             ? static_cast<double>(s.count)
                             : static_cast<double>(s.value);
    }
    return r;
  }
  double Get(const std::string& name) const {
    auto it = values.find(name);
    return it == values.end() ? 0 : it->second;
  }
  // Sum over every metric named <prefix>...<suffix>, e.g. "pager" and
  // ".wal_bytes" cover pager.wal_bytes and the per-shard pager.s<k>.*.
  double Sum(const std::string& prefix, const std::string& suffix) const {
    double total = 0;
    for (const auto& [name, v] : values) {
      if (name.size() >= prefix.size() + suffix.size() &&
          name.compare(0, prefix.size(), prefix) == 0 &&
          name.compare(name.size() - suffix.size(), suffix.size(), suffix) ==
              0) {
        total += v;
      }
    }
    return total;
  }
};

StatusOr<Registry> Snapshot(Client* client) {
  StatusOr<MetricsSnapshot> snapshot = client->StatsSnapshot();
  PQIDX_RETURN_IF_ERROR(snapshot.status());
  return Registry::From(*snapshot);
}

// A server's log sits beside its store, named so that no store file
// pattern (`<store>.*`) covers it: "x.idx" logs to "x.log".
std::string LogPath(const std::string& store_path) {
  return std::filesystem::path(store_path).replace_extension(".log").string();
}

bool SameResults(const std::vector<LookupResult>& a,
                 const std::vector<LookupResult>& b) {
  if (a.size() != b.size()) return false;
  for (size_t i = 0; i < a.size(); ++i) {
    if (a[i].tree_id != b[i].tree_id ||
        std::memcmp(&a[i].distance, &b[i].distance, sizeof(double)) != 0) {
      return false;
    }
  }
  return true;
}

class Bench {
 public:
  Bench(Args args, const Workload& workload)
      : args_(std::move(args)), w_(workload) {}

  int Run();

 private:
  void BuildForest();
  Status SetupOnce(const std::string& path, bool keep, double* seconds);
  Status StartStandby(double* handshake_s, int* port);
  Status StartCloneStandby();
  void MemoryPhase();
  void RunPhase(bool open, int64_t warm_ns, int64_t measure_ns);
  void ClosedLoop(Conn* conn, int64_t start_ns, int64_t warm_end_ns,
                  int64_t end_ns);
  void OpenLoop(Conn* conn, OpenSchedule* sched);
  bool Call(Conn* conn, const Stream& stream, const Op& op, bool traced,
            int64_t request);
  void Record(Conn* conn, Conn* home, const Op& op, int64_t seq, Phase phase,
              bool traced, int64_t due, int64_t send, int64_t end, bool ok);
  void RefreshMirror();
  void CheckAgainstMirror(Client* client, int check_no, int count,
                          const char* where);
  struct CatchUpSample {
    double seconds = 0;
    double handshake_s = 0;
    double frames = 0;
    double commits = 0;
    double resyncs = 0;
  };
  Status CatchUpRound(bool first, CatchUpSample* out);
  Status CatchUp();
  int Report();
  // Fails the run, with the tail of every server log on stderr.
  int Abort(const std::string& message);

  const Args args_;
  const Workload& w_;
  int num_conns_ = 1;
  std::unique_ptr<ScopedTempDir> dir_;
  std::vector<PqGramIndex> seed_bags_;
  std::vector<std::unique_ptr<Conn>> conns_;
  ForestIndex mirror_{kShape};

  std::string leader_path_;
  std::string standby_path_;
  std::unique_ptr<ServerProcess> leader_;
  std::unique_ptr<ServerProcess> standby_;
  int leader_port_ = 0;
  int standby_port_ = 0;
  std::unique_ptr<Client> ctl_;  // stats, mirror checks, the tail edits
  std::vector<double> setup_s_;

  Registry before_;
  Registry after_;
  int64_t closed_begin_ns_ = 0;  // the measured closed-loop window
  int64_t closed_end_ns_ = 0;
  int64_t tail_edits_ = 0;
  int64_t tail_failed_ = 0;

  // Replication.
  double handshake_s_ = 0;
  double catchup_s_ = 0;
  CpuTicks cpu_at_start_;
  double catchup_frames_ = 0;
  double catchup_commits_ = 0;
  double snapshot_resyncs_ = 0;

  double start_rss_mb_ = 0;  // leader VmHWM once it answers: its start-up peak
  double peak_rss_mb_ = 0;   // leader VmHWM at run end: the peak under load
  double load_rss_mb_ = 0;   // leader VmHWM after the memory phase
  double disk_bytes_per_tuple_ = 0;

  std::vector<std::string> divergences_;
  int checks_ = 0;
  std::atomic<int64_t> request_ids_{0};
};

void Bench::BuildForest() {
  num_conns_ = std::max(1, std::min(NumCpus(), w_.num_trees));
  conns_.resize(static_cast<size_t>(num_conns_));
  // Each connection generates its owned trees into its own LabelDict.
  std::vector<std::thread> threads;
  for (int c = 0; c < num_conns_; ++c) {
    conns_[static_cast<size_t>(c)] = std::make_unique<Conn>();
    threads.emplace_back([this, c] {
      conns_[static_cast<size_t>(c)]->stream =
          std::make_unique<Stream>(w_, args_.seed, c, num_conns_);
    });
  }
  for (std::thread& t : threads) t.join();
  seed_bags_.assign(static_cast<size_t>(w_.num_trees), PqGramIndex(kShape));
  for (const auto& conn : conns_) {
    const Stream& s = *conn->stream;
    for (TreeId id = s.own_begin(); id < s.own_end(); ++id) {
      seed_bags_[static_cast<size_t>(id)] = BuildIndex(s.tree(id), kShape);
    }
  }
  for (TreeId id = 0; id < w_.num_trees; ++id) {
    mirror_.AddIndex(id, seed_bags_[static_cast<size_t>(id)]);
  }
}

// Bulk-loads a fresh store at `path`, starts `pqidx serve` on it, and
// times both up to the first answered Ping. Unless `keep`, the server is
// stopped and the store removed again.
Status Bench::SetupOnce(const std::string& path, bool keep, double* seconds) {
  std::vector<std::pair<TreeId, const PqGramIndex*>> bags;
  bags.reserve(seed_bags_.size());
  for (size_t id = 0; id < seed_bags_.size(); ++id) {
    bags.emplace_back(static_cast<TreeId>(id), &seed_bags_[id]);
  }
  const int64_t t0 = NowNs();
  {
    StatusOr<std::unique_ptr<ShardedStore>> store =
        ShardedStore::Create(path, kShape, 1);
    PQIDX_RETURN_IF_ERROR(store.status());
    // Born at replication cursor 1: a leader forces a snapshot on any
    // follower at cursor 0 once it holds trees, so the standby's clone
    // of this store could not join by delta otherwise.
    PQIDX_RETURN_IF_ERROR((*store)->BulkAdd(bags, nullptr, 1));
  }
  StatusOr<std::unique_ptr<ServerProcess>> server = ServerProcess::Spawn(
      {args_.bin_dir + "/pqidx", "serve", path, "--port", "0", "-t",
       std::to_string(num_conns_ + 4)},
      LogPath(path));
  PQIDX_RETURN_IF_ERROR(server.status());
  StatusOr<int> port = (*server)->WaitForPort(120);
  PQIDX_RETURN_IF_ERROR(port.status());
  StatusOr<std::unique_ptr<Client>> client = Dial(*port);
  PQIDX_RETURN_IF_ERROR(client.status());
  PQIDX_RETURN_IF_ERROR((*client)->Ping());
  *seconds = (NowNs() - t0) / 1e9;
  if (keep) {
    leader_ = std::move(server).value();
    start_rss_mb_ = leader_->PeakRssKb() / 1024.0;
    leader_port_ = *port;
    ctl_ = std::move(client).value();
    return Status::Ok();
  }
  (*client)->Close();
  (*server)->Stop();
  std::error_code ec;
  for (const auto& entry : std::filesystem::directory_iterator(dir_->path())) {
    const std::string name = entry.path().string();
    if (name.rfind(path, 0) == 0) std::filesystem::remove_all(entry.path(), ec);
  }
  return Status::Ok();
}

Status Bench::StartStandby(double* handshake_s, int* port) {
  StatusOr<int> free_port = FreePort();
  PQIDX_RETURN_IF_ERROR(free_port.status());
  const int64_t t0 = NowNs();
  StatusOr<std::unique_ptr<ServerProcess>> standby = ServerProcess::Spawn(
      {args_.bin_dir + "/pqidx", "serve", standby_path_, "--follow",
       "127.0.0.1:" + std::to_string(leader_port_), "--port",
       std::to_string(*free_port), "-t", "4"},
      LogPath(standby_path_));
  PQIDX_RETURN_IF_ERROR(standby.status());
  standby_ = std::move(standby).value();
  // The follower announces its port only after the subscription
  // handshake with the leader.
  StatusOr<int> bound = standby_->WaitForPort(120);
  PQIDX_RETURN_IF_ERROR(bound.status());
  *handshake_s = (NowNs() - t0) / 1e9;
  *port = *bound;
  return Status::Ok();
}

// Starts the standby on a copy of the leader's store, taken while the
// leader is idle (every commit is in place by then), so it joins by
// delta, not by snapshot.
Status Bench::StartCloneStandby() {
  PQIDX_RETURN_IF_ERROR(CopyStore(leader_path_, standby_path_));
  double handshake_s = 0;
  return StartStandby(&handshake_s, &standby_port_);
}

bool Bench::Call(Conn* conn, const Stream& stream, const Op& op, bool traced,
                 int64_t request) {
  Client& client = *conn->client;
  Status status;
  if (!traced) {
    switch (op.kind) {
      case OpKind::kLookup:
        status = client.Lookup(op.query, op.tau).status();
        break;
      case OpKind::kTopK:
        status = client.TopK(op.query, op.k).status();
        break;
      case OpKind::kEdit:
        status = client.ApplyEdits(op.tree, stream.tree(op.tree), op.log);
        break;
    }
  } else if (op.kind != OpKind::kEdit) {
    const bool lookup = op.kind == OpKind::kLookup;
    int32_t root = conn->spans.Begin(lookup ? "client.lookup" : "client.topk",
                                     request);
    status = lookup ? client.Lookup(op.query, op.tau).status()
                    : client.TopK(op.query, op.k).status();
    conn->spans.End(root);
  } else {
    // Client::ApplyEdits as the two calls it makes.
    int32_t root = conn->spans.Begin("client.edit", request);
    PqGramIndex plus(kShape);
    PqGramIndex minus(kShape);
    UpdateTimings timings;
    int32_t compute = conn->spans.Begin("incremental.compute", request, root);
    status = ComputeIndexDeltas(stream.tree(op.tree), op.log, kShape,
                                &plus, &minus, &timings);
    conn->spans.End(compute);
    if (status.ok()) {
      int32_t apply =
          conn->spans.Begin("client.apply_deltas", request, root);
      status = client.ApplyDeltas(op.tree, plus, minus, op.log.size());
      conn->spans.End(apply);
    }
    conn->spans.End(root);
    conn->delta_plus_us.push_back(
        (timings.delta_plus_s + timings.lambda_plus_s) * 1e6);
    conn->delta_minus_us.push_back(
        (timings.delta_minus_s + timings.lambda_minus_s) * 1e6);
  }
  if (!status.ok()) {
    ++conn->failed;
    if (conn->first_error.empty()) conn->first_error = status.ToString();
  }
  return status.ok();
}

void Bench::Record(Conn* conn, Conn* home, const Op& op, int64_t seq,
                   Phase phase, bool traced, int64_t due, int64_t send,
                   int64_t end, bool ok) {
  home->sent_digest.fetch_add(
      MixSeed(OpHash(op), kSentSalt, static_cast<uint64_t>(seq)));
  conn->samples.push_back(Sample{op.kind, phase, ok, traced, due, send, end});
  if (op.kind == OpKind::kLookup && op.pool_item >= 0) {
    conn->pool_items.push_back(op.pool_item);
  }
}

// Closed loop: each connection sends its own stream's next op as soon
// as the previous one is answered.
void Bench::ClosedLoop(Conn* conn, int64_t start_ns, int64_t warm_end_ns,
                       int64_t end_ns) {
  Op op;
  for (int64_t j = 0; args_.ops > 0 ? j < args_.ops : NowNs() < end_ns; ++j) {
    conn->stream->Next(seed_bags_, &op);
    const int64_t seq = conn->next_calls++;
    const int64_t send = NowNs();
    // Traced runs alternate traced and untraced slices here, to measure
    // the tracing overhead.
    const bool traced =
        args_.trace && ((send - start_ns) / kTraceSliceNs) % 2 == 1;
    const bool ok = Call(conn, *conn->stream, op, traced, ++request_ids_);
    const bool warm = args_.ops == 0 && send < warm_end_ns;
    Record(conn, conn, op, seq, warm ? kClosedWarm : kClosed, traced, send,
           send, NowNs(), ok);
  }
}

// Open loop: op j is due at start + j / rate and belongs to stream
// j mod C; whichever connection is idle sends it, so a request waits for
// a connection only when all of them are busy. Latency counts from the
// due time; the wait for a connection is the generator's lateness.
// A stream's ops are generated in sequence order, and never while one
// of its edits is in flight: the edit's Tn is the stream's live tree.
void Bench::OpenLoop(Conn* conn, OpenSchedule* sched) {
  const double period_ns = 1e9 / w_.offered_rps;
  Op op;
  for (;;) {
    const int64_t j = sched->next.fetch_add(1);
    const int64_t due = sched->start_ns + static_cast<int64_t>(period_ns * j);
    if (args_.ops > 0 ? j >= args_.ops * num_conns_ : due >= sched->end_ns) {
      break;
    }
    const size_t owner = static_cast<size_t>(j % num_conns_);
    StreamTurn& turn = sched->turns[owner];
    Conn& home = *conns_[owner];
    int64_t seq = 0;
    {
      MutexLock lock(&turn.mutex);
      while (turn.next_seq != j / num_conns_ || turn.edit_in_flight) {
        turn.cv.Wait(&turn.mutex);
      }
      home.stream->Next(seed_bags_, &op);
      seq = home.next_calls++;
      ++turn.next_seq;
      turn.edit_in_flight = op.kind == OpKind::kEdit;
      turn.cv.NotifyAll();
    }
    while (NowNs() < due) {
      const int64_t left = due - NowNs();
      if (left > 100'000) {  // sleep, then spin the last 50 us
        std::this_thread::sleep_for(std::chrono::nanoseconds(left - 50'000));
      }
    }
    const int64_t send = NowNs();
    const bool ok = Call(conn, *home.stream, op, args_.trace, ++request_ids_);
    const int64_t end = NowNs();
    if (op.kind == OpKind::kEdit) {
      MutexLock lock(&turn.mutex);
      turn.edit_in_flight = false;
      turn.cv.NotifyAll();
    }
    const bool warm = args_.ops == 0 && due < sched->warm_end_ns;
    Record(conn, &home, op, seq, warm ? kOpenWarm : kOpen, args_.trace, due,
           send, end, ok);
  }
}

// The memory phase, right after set-up: every connection sends its own
// stream's ops until it has sent its share of kMemoryEdits edits, then
// the leader's VmHWM is server_rss_mb. A fixed amount of work, so the
// peak does not follow the throughput; and no full engine rebuild,
// whose transient copy the allocator keeps or returns by timing
// (perfbench/README.md).
void Bench::MemoryPhase() {
  const int edits = std::max(1, kMemoryEdits / num_conns_);
  std::vector<std::thread> threads;
  for (const auto& c : conns_) {
    Conn* conn = c.get();
    threads.emplace_back([this, conn, edits] {
      Op op;
      for (int sent = 0; sent < edits;) {
        conn->stream->Next(seed_bags_, &op);
        const int64_t seq = conn->next_calls++;
        const int64_t send = NowNs();
        const bool ok = Call(conn, *conn->stream, op, false, ++request_ids_);
        Record(conn, conn, op, seq, kMemory, false, send, send, NowNs(), ok);
        if (op.kind == OpKind::kEdit) ++sent;
      }
    });
  }
  for (std::thread& t : threads) t.join();
  load_rss_mb_ = leader_->PeakRssKb() / 1024.0;
}

void Bench::RunPhase(bool open, int64_t warm_ns, int64_t measure_ns) {
  const int64_t start = NowNs() + 2'000'000;  // let every thread start
  const int64_t warm_end = start + warm_ns;
  const int64_t end = warm_end + measure_ns;
  OpenSchedule sched(num_conns_);
  sched.start_ns = start;
  sched.warm_end_ns = warm_end;
  sched.end_ns = end;
  if (!open) {
    closed_begin_ns_ = warm_end;
    closed_end_ns_ = end;
  }
  std::vector<std::thread> threads;
  for (int c = 0; c < num_conns_; ++c) {
    Conn* conn = conns_[static_cast<size_t>(c)].get();
    threads.emplace_back([this, conn, open, start, warm_end, end, &sched] {
      if (open) {
        OpenLoop(conn, &sched);
      } else {
        ClosedLoop(conn, start, warm_end, end);
      }
    });
  }
  for (std::thread& t : threads) t.join();
  if (args_.ops > 0 && !open) {
    // Fixed-count mode: the window is the phase's wall time.
    closed_begin_ns_ = start;
    for (const auto& conn : conns_) {
      for (const Sample& s : conn->samples) {
        closed_end_ns_ = std::max(closed_end_ns_, s.end_ns + 1);
      }
    }
  }
}

// Brings the mirror up to date: every edited tree's bag is rebuilt from
// scratch from its current tree, BuildIndex(Tn) -- independent of the
// client's delta computation and the server's merge.
void Bench::RefreshMirror() {
  for (const auto& conn : conns_) {
    const Stream& s = *conn->stream;
    for (TreeId id : s.edited()) mirror_.AddIndex(id, BuildIndex(s.tree(id), kShape));
  }
}

// Compares `count` seeded Lookup and `count` TopK answers served through
// `client` bit for bit with the mirror's. Half the queries sit next to
// an edited tree's current bag.
void Bench::CheckAgainstMirror(Client* client, int check_no, int count,
                               const char* where) {
  std::vector<TreeId> edited;
  for (const auto& conn : conns_) {
    const std::vector<TreeId>& e = conn->stream->edited();
    edited.insert(edited.end(), e.begin(), e.end());
  }
  std::sort(edited.begin(), edited.end());
  Rng rng(MixSeed(args_.seed, kCheckSalt, static_cast<uint64_t>(check_no)));
  static constexpr double kTaus[] = {0.2, 0.5, 0.8};
  for (int i = 0; i < 2 * count; ++i) {
    TreeId base = 0;
    if (!edited.empty() && i % 2 == 0) {
      base = edited[rng.NextBounded(edited.size())];
    } else {
      base = static_cast<TreeId>(rng.NextBounded(seed_bags_.size()));
    }
    PqGramIndex query = PerturbedQuery(*mirror_.Find(base), rng.Next());
    const bool lookup = i < count;
    const double tau = kTaus[rng.NextBounded(3)];
    StatusOr<std::vector<LookupResult>> served =
        lookup ? client->Lookup(query, tau) : client->TopK(query, 10);
    std::vector<LookupResult> expected =
        lookup ? mirror_.Lookup(query, tau) : mirror_.TopK(query, 10);
    ++checks_;
    if (!served.ok() || !SameResults(*served, expected)) {
      divergences_.push_back(
          std::string(where) + ": " + (lookup ? "lookup" : "topk") +
          " near tree " + std::to_string(base) +
          (served.ok() ? " served a different answer"
                       : " failed: " + served.status().ToString()));
    }
  }
}

// One catch-up round: stops the standby, commits kTailEdits single-edit
// batches it misses, restarts it and times its catch-up to the leader's
// final cursor. CatchUp runs several rounds and keeps the medians.
Status Bench::CatchUpRound(bool first, CatchUpSample* out) {
  double standby_cursor = 0;
  {
    StatusOr<std::unique_ptr<Client>> client = DialWithRetry(standby_port_);
    PQIDX_RETURN_IF_ERROR(client.status());
    StatusOr<Registry> at_stop = Snapshot(client->get());
    PQIDX_RETURN_IF_ERROR(at_stop.status());
    standby_cursor = at_stop->Get("store.shard0.cursor");
    if (first) {
      std::printf("standby: %.0f reconnects, %.0f snapshot resyncs, %.0f "
                  "frames applied before the first catch-up round\n",
                  at_stop->Get("replication.reconnects"),
                  at_stop->Get("replication.snapshot_resyncs"),
                  at_stop->Get("replication.frames_applied"));
    }
  }
  standby_->Stop();

  Stream& stream = *conns_[0]->stream;
  Op op;
  for (int i = 0; i < kTailEdits; ++i) {
    stream.NextEdit(&op);
    ++tail_edits_;
    Status s = ctl_->ApplyEdits(op.tree, stream.tree(op.tree), op.log);
    if (!s.ok()) ++tail_failed_;
  }
  StatusOr<Registry> leader = Snapshot(ctl_.get());
  PQIDX_RETURN_IF_ERROR(leader.status());
  const double final_cursor = leader->Get("store.shard0.cursor");
  out->commits = final_cursor - standby_cursor;

  const int64_t t0 = NowNs();
  PQIDX_RETURN_IF_ERROR(StartStandby(&out->handshake_s, &standby_port_));
  StatusOr<std::unique_ptr<Client>> client = DialWithRetry(standby_port_);
  PQIDX_RETURN_IF_ERROR(client.status());
  Registry follower;
  for (;;) {
    StatusOr<Registry> r = Snapshot(client->get());
    PQIDX_RETURN_IF_ERROR(r.status());
    follower = std::move(r).value();
    // The store's cursor moves at commit; frames_applied only after the
    // batch is published to lookups -- served, not just durable.
    if (follower.Get("store.shard0.cursor") >= final_cursor &&
        follower.Get("replication.frames_applied") >= out->commits) {
      break;
    }
    if (NowNs() - t0 > 120'000'000'000LL) {
      return UnavailableError("standby did not catch up within 120 s");
    }
    std::this_thread::sleep_for(std::chrono::microseconds(200));
  }
  out->seconds = (NowNs() - t0) / 1e9;
  out->frames = follower.Get("replication.frames_applied");
  out->resyncs = follower.Get("replication.snapshot_resyncs");
  return Status::Ok();
}

Status Bench::CatchUp() {
  const int rounds = args_.ops > 0 ? 1 : kCatchUpRounds;
  std::vector<double> seconds, handshake, frames, commits;
  for (int r = 0; r < rounds; ++r) {
    CatchUpSample sample;
    PQIDX_RETURN_IF_ERROR(CatchUpRound(r == 0, &sample));
    seconds.push_back(sample.seconds);
    handshake.push_back(sample.handshake_s);
    frames.push_back(sample.frames);
    commits.push_back(sample.commits);
    snapshot_resyncs_ += sample.resyncs;
  }
  std::printf("catch-up rounds (s):");
  for (double s : seconds) std::printf(" %.4f", s);
  std::printf("\n");
  catchup_s_ = Median(seconds);
  handshake_s_ = Median(handshake);
  catchup_frames_ = Median(frames);
  catchup_commits_ = Median(commits);
  RefreshMirror();
  StatusOr<std::unique_ptr<Client>> client = DialWithRetry(standby_port_);
  PQIDX_RETURN_IF_ERROR(client.status());
  CheckAgainstMirror(client->get(), 100, kChecksPerKind / 2, "standby");
  return Status::Ok();
}

int Bench::Abort(const std::string& message) {
  for (const std::string& path : {leader_path_, standby_path_}) {
    std::ifstream in(LogPath(path));
    std::vector<std::string> lines;
    for (std::string line; std::getline(in, line);) lines.push_back(line);
    const size_t from = lines.size() > 20 ? lines.size() - 20 : 0;
    for (size_t i = from; i < lines.size(); ++i) {
      std::fprintf(stderr, "%s: %s\n", LogPath(path).c_str(),
                   lines[i].c_str());
    }
  }
  return Fail(message);
}

int Bench::Run() {
  cpu_at_start_ = ReadCpuTicks();
  StatusOr<std::unique_ptr<ScopedTempDir>> dir =
      ScopedTempDir::Create(args_.work_dir);
  if (!dir.ok()) return Fail(dir.status().ToString());
  dir_ = std::move(dir).value();
  leader_path_ = dir_->path() + "/leader.idx";
  standby_path_ = dir_->path() + "/standby.idx";

  BuildForest();

  // Set-up, several times: the last one stays up.
  const int setups = args_.ops > 0 ? 1 : kSetups;
  for (int i = 0; i < setups; ++i) {
    const bool keep = i + 1 == setups;
    const std::string path =
        keep ? leader_path_ : dir_->path() + "/setup" + std::to_string(i) + ".idx";
    double seconds = 0;
    if (Status s = SetupOnce(path, keep, &seconds); !s.ok()) {
      return Abort("set-up: " + s.ToString());
    }
    setup_s_.push_back(seconds);
  }
  if (w_.live_standby) {
    if (Status s = StartCloneStandby(); !s.ok()) {
      return Abort("standby: " + s.ToString());
    }
  }
  for (int c = 0; c < num_conns_; ++c) {
    StatusOr<std::unique_ptr<Client>> client = Dial(leader_port_);
    if (!client.ok()) return Abort("connect: " + client.status().ToString());
    conns_[static_cast<size_t>(c)]->client = std::move(client).value();
  }

  StatusOr<Registry> before = Snapshot(ctl_.get());
  if (!before.ok()) return Abort(before.status().ToString());
  before_ = std::move(before).value();

  MemoryPhase();
  const double warm_s = std::min(kMaxWarmupS, kWarmupShare * args_.seconds);
  const double closed_s = kClosedShare * args_.seconds;
  const double open_s = args_.seconds - closed_s;
  RunPhase(false, static_cast<int64_t>(warm_s * 1e9),
           static_cast<int64_t>(closed_s * 1e9));
  RefreshMirror();
  CheckAgainstMirror(ctl_.get(), 1, kChecksPerKind, "after closed loop");
  RunPhase(true, static_cast<int64_t>(warm_s * 1e9),
           static_cast<int64_t>(open_s * 1e9));
  RefreshMirror();
  CheckAgainstMirror(ctl_.get(), 2, kChecksPerKind, "after open loop");

  StatusOr<Registry> after = Snapshot(ctl_.get());
  if (!after.ok()) return Abort(after.status().ToString());
  after_ = std::move(after).value();

  if (!w_.live_standby) {
    // Joins only now, from a copy of the quiesced leader's store.
    if (Status s = StartCloneStandby(); !s.ok()) {
      return Abort("standby: " + s.ToString());
    }
  }
  if (Status s = CatchUp(); !s.ok()) return Abort("catch-up: " + s.ToString());

  int64_t tuples = 0;
  for (TreeId id : mirror_.TreeIds()) tuples += mirror_.Find(id)->distinct();
  disk_bytes_per_tuple_ =
      Ratio(static_cast<double>(StoreBytes(leader_path_)), tuples);
  peak_rss_mb_ = leader_->PeakRssKb() / 1024.0;

  const int code = Report();
  for (auto& conn : conns_) conn->client->Close();
  ctl_->Close();
  standby_->Stop();
  leader_->Stop();
  return code;
}

void PrintMetric(std::string* json, const std::string& name, double value,
                 const char* unit) {
  if (!std::isfinite(value)) value = -1;  // never happens with samples
  char buf[256];
  std::snprintf(buf, sizeof(buf), "%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                json->empty() ? "" : ", ", name.c_str(), value, unit);
  json->append(buf);
  std::printf("  %-44s %14.6g %s\n", name.c_str(), value, unit);
}

int Bench::Report() {
  // Samples by phase and kind; a failed request is infinitely slow.
  std::vector<double> latency_ms[kNumOpKinds];
  std::vector<double> late_ms;
  int64_t attempted = 0;
  int64_t failed = 0;
  int64_t scheduled = 0;  // open-loop ops, warm-up included: fixed by the rate
  // Closed-loop completions per one-second bucket of the window: the
  // median bucket is the throughput, so a passing stall on a shared
  // host moves one bucket, not the result.
  const int64_t window_ns = closed_end_ns_ - closed_begin_ns_;
  const int64_t bucket_ns =
      args_.ops > 0 ? window_ns : std::min<int64_t>(window_ns, kBucketNs);
  std::vector<double> buckets(
      static_cast<size_t>(std::max<int64_t>(1, window_ns / bucket_ns)), 0);
  int64_t closed_traced = 0, closed_untraced = 0;
  double closed_traced_s = 0, closed_untraced_s = 0;
  for (const auto& conn : conns_) {
    attempted += static_cast<int64_t>(conn->samples.size());
    failed += conn->failed;
    for (const Sample& s : conn->samples) {
      if (s.phase == kOpenWarm || s.phase == kOpen) ++scheduled;
      const double ms = s.ok ? (s.end_ns - s.due_ns) / 1e6 : kInf;
      if (s.phase == kOpen) {
        latency_ms[static_cast<int>(s.kind)].push_back(ms);
        late_ms.push_back((s.send_ns - s.due_ns) / 1e6);
      } else if (s.phase == kClosed && s.ok) {
        const int64_t b = (s.end_ns - closed_begin_ns_) / bucket_ns;
        if (s.end_ns >= closed_begin_ns_ && b < static_cast<int64_t>(buckets.size())) {
          ++buckets[static_cast<size_t>(b)];
        }
        if (s.traced) {
          ++closed_traced;
          closed_traced_s += (s.end_ns - s.send_ns) / 1e9;
        } else {
          ++closed_untraced;
          closed_untraced_s += (s.end_ns - s.send_ns) / 1e9;
        }
      }
    }
  }
  const int64_t open_ops = static_cast<int64_t>(late_ms.size());

  std::printf("host {\"nproc\": %d, \"simd_kernel\": \"%s\", \"store_fs\": \"%s\", "
              "\"build_type\": \"%s\", \"revision\": \"%s\", \"seed\": %llu, "
              "\"workload\": \"%s\", \"offered_rps\": %g, \"connections\": %d}\n",
              NumCpus(), SimdKernelName(ActiveSimdKernel()),
              FsType(dir_->path()).c_str(), PERFBENCH_BUILD_TYPE,
              args_.revision.c_str(),
              static_cast<unsigned long long>(args_.seed), w_.name.c_str(),
              w_.offered_rps, num_conns_);
  const CpuTicks cpu_now = ReadCpuTicks();
  std::printf("host: %.2f%% of all cpu time since the run began was stolen "
              "by the hypervisor\n",
              100 * Ratio(cpu_now.steal - cpu_at_start_.steal,
                          cpu_now.total - cpu_at_start_.total));
  std::printf("run: %lld ops attempted (%lld open-loop, measured), %lld failed; "
              "%lld tail edits (%lld failed); %d mirror checks, %zu divergent\n",
              static_cast<long long>(attempted),
              static_cast<long long>(open_ops),
              static_cast<long long>(failed),
              static_cast<long long>(tail_edits_),
              static_cast<long long>(tail_failed_), checks_,
              divergences_.size());
  for (int k = 0; k < kNumOpKinds; ++k) {
    std::printf("samples: %s %zu (open loop)\n",
                OpKindName(static_cast<OpKind>(k)), latency_ms[k].size());
  }
  // What was sent and what the leader counted: exact for a given
  // (workload, seed, ops per connection).
  std::printf("sent:");
  for (const auto& conn : conns_) {
    std::printf(" %016llx",
                static_cast<unsigned long long>(conn->sent_digest.load()));
  }
  auto delta = [&](const std::string& name) {
    return after_.Get(name) - before_.Get(name);
  };
  std::printf("; leader counted %.0f lookup + %.0f topk + %.0f apply_edits "
              "requests, %.0f reads, %.0f edits applied, %.0f rejected\n",
              delta("server.lookup_us"), delta("server.topk_us"),
              delta("server.apply_edits_us"), delta("server.lookups"),
              delta("server.edits_applied"), delta("server.rejected"));
  std::printf("memory: leader VmHWM %.2f MiB after start-up, %.2f after the "
              "memory phase, %.2f at run end\n",
              start_rss_mb_, load_rss_mb_, peak_rss_mb_);

  for (const auto& conn : conns_) {
    if (!conn->first_error.empty()) {
      std::fprintf(stderr, "perfbench: first request error: %s\n",
                   conn->first_error.c_str());
      break;
    }
  }
  for (const std::string& d : divergences_) {
    std::fprintf(stderr, "perfbench: MIRROR DIVERGENCE %s\n", d.c_str());
  }

  // Replay (traced runs, or on request).
  ReplayResult replay;
  Status replay_status = Status::Ok();
  const bool run_replay = args_.trace || args_.replay;
  if (run_replay) {
    ReplayInput input;
    input.workload = &w_;
    input.seed = args_.seed;
    input.num_conns = num_conns_;
    for (const auto& conn : conns_) input.next_calls.push_back(conn->next_calls);
    input.tail_edits = tail_edits_;
    input.seed_bags = &seed_bags_;
    input.store_path = dir_->path() + "/replay.idx";
    replay_status = RunReplay(input, &replay);
    if (!replay_status.ok()) {
      std::fprintf(stderr, "perfbench: replay: %s\n",
                   replay_status.ToString().c_str());
    }
    std::printf("replay: digest %016llx over %lld ops (%lld reads, %lld edits "
                "replayed); counts dplus %lld dminus %lld postings %lld "
                "candidates %lld scored %lld bytes %lld/%lld/%lld recompiled %lld\n",
                static_cast<unsigned long long>(replay.digest),
                static_cast<long long>(replay.ops),
                static_cast<long long>(replay.reads),
                static_cast<long long>(replay.edits),
                static_cast<long long>(replay.delta_plus_pqgrams),
                static_cast<long long>(replay.delta_minus_pqgrams),
                static_cast<long long>(replay.postings_scanned),
                static_cast<long long>(replay.candidates),
                static_cast<long long>(replay.scored),
                static_cast<long long>(replay.lookup_request_bytes),
                static_cast<long long>(replay.lookup_response_bytes),
                static_cast<long long>(replay.edit_request_bytes),
                static_cast<long long>(replay.shards_recompiled));
  }

  const bool correct = divergences_.empty() && replay_status.ok() &&
                       snapshot_resyncs_ == 0 && tail_failed_ == 0;
  std::string json;
  std::printf("metrics (%s):\n", args_.trace ? "per layer" : "end to end");
  if (!args_.trace) {
    PrintMetric(&json, "setup_s", Median(setup_s_), "s");
    PrintMetric(&json, "throughput_rps", Median(buckets) / (bucket_ns / 1e9),
                "1/s");
    PrintMetric(&json, "lookup_p50_ms", Quantile(latency_ms[0], 0.5), "ms");
    PrintMetric(&json, "topk_p50_ms", Quantile(latency_ms[1], 0.5), "ms");
    PrintMetric(&json, "edit_p50_ms", Quantile(latency_ms[2], 0.5), "ms");
    // Failures of every phase per scheduled open-loop op, plus a half:
    // never 0, and with no failures a constant of the workload and run
    // length, not a shadow of the throughput.
    PrintMetric(&json, "failed_frac",
                (static_cast<double>(failed) + 0.5) / (scheduled + 1.0),
                "frac");
    PrintMetric(&json, "catchup_s", catchup_s_, "s");
    PrintMetric(&json, "server_rss_mb", load_rss_mb_, "MiB");
    PrintMetric(&json, "disk_bytes_per_tuple", disk_bytes_per_tuple_, "B");
    // The tails ride on host stalls too much to bound on a shared VM
    // (perfbench/README.md); they are printed here and reported, with
    // their sample counts, by the traced run.
    for (int k = 0; k < kNumOpKinds; ++k) {
      std::printf("  %-44s %14.6g ms (%zu samples, not bounded)\n",
                  (std::string(OpKindName(static_cast<OpKind>(k))) + "_p99_ms")
                      .c_str(),
                  Quantile(latency_ms[k], 0.99), latency_ms[k].size());
    }
  } else {
    SpanLog all;
    for (const auto& conn : conns_) all.Append(conn->spans);
    std::vector<double> dplus, dminus;
    for (const auto& conn : conns_) {
      dplus.insert(dplus.end(), conn->delta_plus_us.begin(),
                   conn->delta_plus_us.end());
      dminus.insert(dminus.end(), conn->delta_minus_us.begin(),
                    conn->delta_minus_us.end());
    }
    const double lookup_rtt = Median(all.DurationsUs("client.lookup"));
    const double topk_rtt = Median(all.DurationsUs("client.topk"));
    const double apply_rtt = Median(all.DurationsUs("client.apply_deltas"));
    const double compute = Median(all.DurationsUs("incremental.compute"));
    auto us = [&](const std::string& key) { return Median(replay.us[key]); };
    std::vector<double> enc, dec;
    for (const char* k : {"lookup", "topk", "edit"}) {
      const std::vector<double>& e = replay.us[std::string("wire.encode.") + k];
      const std::vector<double>& d = replay.us[std::string("wire.decode.") + k];
      enc.insert(enc.end(), e.begin(), e.end());
      dec.insert(dec.end(), d.begin(), d.end());
    }
    const double d_edits = after_.Get("server.edits_applied") -
                           before_.Get("server.edits_applied");
    const double d_commits = after_.Get("server.edit_commits") -
                             before_.Get("server.edit_commits");
    const double hits = delta("query_cache.hits");
    const double misses = delta("query_cache.misses");
    const double publishes =
        delta("lookup_engine.incremental_builds") + delta("lookup_engine.builds");
    const double pager_hits = after_.Sum("pager", ".cache_hits") -
                              before_.Sum("pager", ".cache_hits");
    const double pager_misses = after_.Sum("pager", ".cache_misses") -
                                before_.Sum("pager", ".cache_misses");
    const double reads = std::max<double>(1, static_cast<double>(replay.reads));
    const double edits = std::max<double>(1, static_cast<double>(replay.edits));
    const int64_t lookups_replayed =
        static_cast<int64_t>(replay.us["wire.encode.lookup"].size() +
                             replay.us["wire.encode.topk"].size());

    // Validity checks. Overhead: mean closed-loop latency of traced
    // slices against untraced ones. Unaccounted: the share of the client
    // p50 (op-weighted over the mix) that no measured layer covers.
    const double traced_mean = Ratio(closed_traced_s, closed_traced);
    const double untraced_mean = Ratio(closed_untraced_s, closed_untraced);
    const double overhead = Ratio(traced_mean, untraced_mean) - 1;
    double client_sum = 0, layer_sum = 0;
    const double n_lookup = static_cast<double>(latency_ms[0].size());
    const double n_topk = static_cast<double>(latency_ms[1].size());
    const double n_edit = static_cast<double>(latency_ms[2].size());
    if (n_lookup > 0 && std::isfinite(lookup_rtt)) {
      client_sum += n_lookup * lookup_rtt;
      layer_sum += n_lookup * (us("wire.encode.lookup") + us("wire.decode.lookup") +
                               us("lookup_engine.lookup"));
    }
    if (n_topk > 0 && std::isfinite(topk_rtt)) {
      client_sum += n_topk * topk_rtt;
      layer_sum += n_topk * (us("wire.encode.topk") + us("wire.decode.topk") +
                             us("lookup_engine.topk"));
    }
    if (n_edit > 0 && std::isfinite(apply_rtt)) {
      client_sum += n_edit * (compute + apply_rtt);
      layer_sum += n_edit * (compute + us("wire.encode.edit") +
                             us("wire.decode.edit") +
                             Median(replay.spans.DurationsUs("storage.apply_batch")) +
                             us("lookup_engine.publish"));
    }
    int64_t lookups = 0;
    std::unordered_set<int64_t> distinct;
    for (const auto& conn : conns_) {
      lookups += static_cast<int64_t>(conn->pool_items.size());
      distinct.insert(conn->pool_items.begin(), conn->pool_items.end());
    }

    PrintMetric(&json, "lookup_p99_ms", Quantile(latency_ms[0], 0.99), "ms");
    PrintMetric(&json, "topk_p99_ms", Quantile(latency_ms[1], 0.99), "ms");
    PrintMetric(&json, "edit_p99_ms", Quantile(latency_ms[2], 0.99), "ms");
    PrintMetric(&json, "client.lookup_rtt_us_p50", lookup_rtt, "us");
    PrintMetric(&json, "client.topk_rtt_us_p50", topk_rtt, "us");
    PrintMetric(&json, "client.apply_deltas_rtt_us_p50", apply_rtt, "us");
    PrintMetric(&json, "wire.lookup_request_bytes",
                Ratio(replay.lookup_request_bytes, lookups_replayed), "B");
    PrintMetric(&json, "wire.edit_request_bytes",
                Ratio(replay.edit_request_bytes, replay.edits), "B");
    PrintMetric(&json, "wire.lookup_response_bytes",
                Ratio(replay.lookup_response_bytes, lookups_replayed), "B");
    PrintMetric(&json, "wire.encode_us_p50", Median(enc), "us");
    PrintMetric(&json, "wire.decode_us_p50", Median(dec), "us");
    PrintMetric(&json, "incremental.compute_us_p50", compute, "us");
    PrintMetric(&json, "incremental.delta_plus_us_p50", Median(dplus), "us");
    PrintMetric(&json, "incremental.delta_minus_us_p50", Median(dminus), "us");
    PrintMetric(&json, "incremental.delta_plus_pqgrams",
                replay.delta_plus_pqgrams / edits, "count");
    PrintMetric(&json, "incremental.delta_minus_pqgrams",
                replay.delta_minus_pqgrams / edits, "count");
    PrintMetric(&json, "server.rss_peak_mb", peak_rss_mb_, "MiB");
    PrintMetric(&json, "server.edits_per_commit", Ratio(d_edits, d_commits),
                "count");
    PrintMetric(&json, "server.rejected", delta("server.rejected"), "count");
    PrintMetric(&json, "lookup_engine.lookup_us_p50", us("lookup_engine.lookup"),
                "us");
    PrintMetric(&json, "lookup_engine.topk_us_p50", us("lookup_engine.topk"),
                "us");
    PrintMetric(&json, "lookup_engine.postings_per_query",
                replay.postings_scanned / reads, "count");
    PrintMetric(&json, "lookup_engine.scored_per_candidate",
                Ratio(replay.scored, replay.candidates), "frac");
    PrintMetric(&json, "lookup_engine.publish_us_p50",
                us("lookup_engine.publish"), "us");
    PrintMetric(&json, "lookup_engine.shards_recompiled_per_publish",
                Ratio(delta("lookup_engine.shards_recompiled"),
                      delta("lookup_engine.incremental_builds")),
                "count");
    PrintMetric(&json, "lookup_engine.build_s", replay.build_s, "s");
    PrintMetric(&json, "query_cache.hit_frac", Ratio(hits, hits + misses),
                "frac");
    PrintMetric(&json, "query_cache.stale_per_publish",
                Ratio(delta("query_cache.stale"), publishes), "count");
    PrintMetric(&json, "storage.validate_us_p50", us("storage.validate"), "us");
    PrintMetric(&json, "storage.delta_us_p50", us("storage.delta"), "us");
    PrintMetric(&json, "storage.update_us_p50", us("storage.update"), "us");
    PrintMetric(&json, "storage.commit_us_p50", us("storage.commit"), "us");
    PrintMetric(&json, "pager.wal_bytes_per_edit",
                Ratio(after_.Sum("pager", ".wal_bytes") -
                          before_.Sum("pager", ".wal_bytes"),
                      d_edits),
                "B");
    PrintMetric(&json, "pager.fsyncs_per_commit",
                Ratio(after_.Sum("pager", ".fsyncs") -
                          before_.Sum("pager", ".fsyncs"),
                      d_commits),
                "count");
    PrintMetric(&json, "pager.miss_frac",
                Ratio(pager_misses, pager_hits + pager_misses), "frac");
    PrintMetric(&json, "storage.bulk_add_s", replay.bulk_add_s, "s");
    PrintMetric(&json, "storage.materialize_s", replay.materialize_s, "s");
    PrintMetric(&json, "replication.handshake_s", handshake_s_, "s");
    PrintMetric(&json, "replication.catchup_frames", catchup_frames_, "count");
    PrintMetric(&json, "replication.catchup_commits", catchup_commits_, "count");
    PrintMetric(&json, "replication.snapshot_resyncs", snapshot_resyncs_,
                "count");
    PrintMetric(&json, "loadgen.late_p99_ms", Quantile(late_ms, 0.99), "ms");
    PrintMetric(&json, "loadgen.repeat_frac",
                lookups > 0 ? 1.0 - static_cast<double>(distinct.size()) / lookups
                            : 0,
                "frac");
    PrintMetric(&json, "trace.overhead_frac", overhead, "frac");
    PrintMetric(&json, "trace.unaccounted_frac",
                client_sum > 0 ? 1.0 - layer_sum / client_sum : 0, "frac");

    // Self time per layer, and the spans themselves.
    SpanLog out = all;
    out.Append(replay.spans);
    std::printf("self time by layer (p50 us, count):\n");
    for (const auto& [name, v] : out.SelfTimesUs()) {
      std::printf("  %-28s %12.3f %8zu\n", name.c_str(), Median(v), v.size());
    }
    const std::string trace_dir = args_.work_dir + "/traces";
    std::error_code ec;
    std::filesystem::create_directories(trace_dir, ec);
    const std::string trace_path = trace_dir + "/" + w_.name + "-seed" +
                                   std::to_string(args_.seed) + ".spans.jsonl";
    if (out.WriteJsonl(trace_path)) {
      std::printf("spans: %zu written to %s\n", out.spans().size(),
                  trace_path.c_str());
    }
  }

  std::printf("{\"correct\": %s, \"attempted\": %lld, \"failed\": %lld, "
              "\"metrics\": {%s}}\n",
              correct ? "true" : "false", static_cast<long long>(attempted),
              static_cast<long long>(failed), json.c_str());
  std::fflush(stdout);
  return divergences_.empty() && replay_status.ok() ? 0 : 1;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&](std::string* out) {
      if (i + 1 >= argc) return false;
      *out = argv[++i];
      return true;
    };
    std::string v;
    if (a == "--workload" && next(&v)) {
      args->workload = v;
    } else if (a == "--seed" && next(&v)) {
      args->seed = std::strtoull(v.c_str(), nullptr, 10);
    } else if (a == "--seconds" && next(&v)) {
      args->seconds = std::atof(v.c_str());
    } else if (a == "--trace" && next(&v)) {
      args->trace = v == "1";
    } else if (a == "--bin-dir" && next(&v)) {
      args->bin_dir = v;
    } else if (a == "--work-dir" && next(&v)) {
      args->work_dir = v;
    } else if (a == "--revision" && next(&v)) {
      args->revision = v;
    } else if (a == "--ops" && next(&v)) {
      args->ops = std::atoll(v.c_str());
    } else if (a == "--replay") {
      args->replay = true;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && !args->bin_dir.empty() &&
         !args->work_dir.empty() && args->seconds > 0;
}

}  // namespace
}  // namespace pqidx::perfbench

int main(int argc, char** argv) {
  using namespace pqidx::perfbench;
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    return Fail("usage: pqidx_perfbench --workload NAME --seed N --seconds S "
                "--trace 0|1 --bin-dir DIR --work-dir DIR [--revision REV] "
                "[--ops N] [--replay]");
  }
  const Workload* workload = FindWorkload(args.workload);
  if (workload == nullptr) return Fail("unknown workload " + args.workload);
  Bench bench(args, *workload);
  return bench.Run();
}
