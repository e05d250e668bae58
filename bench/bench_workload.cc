// The workload harness runner: seeded YCSB-style scenarios against an
// in-process pqidxd, every one with the differential oracle on, so this
// binary is simultaneously a throughput bench and a correctness gate.
//
// Scenarios (all from one fixed seed, reproducible bit-for-bit):
//   * presets A (read-heavy 90/5/5), B (mixed 50/10/40), C (write-heavy
//     10/5/85) over the pipe transport, zipfian tree/query skew, with
//     ephemeral apply-then-revert bursts at every round boundary;
//   * preset A end to end over loopback TCP (the full wire path);
//   * a multi-client ramp (1 -> 4 -> 8 clients, preset A).
//
// Any oracle divergence exits nonzero unconditionally. The >20%
// throughput-regression gate against --baseline=PATH (the committed
// bench/baselines/BENCH_WORKLOAD.json) is enforced at full scale and
// reported-but-waived below it, per the bench gate convention.
//
// Not in the paper: the paper measures the index algorithms; this
// stresses the serving stack (pending-bag overlay, incremental
// ApplyDelta publishes, epoch-keyed query cache) under skewed and
// revert-heavy traffic. Knobs: PQIDX_BENCH_SCALE, --json[=PATH],
// --seed=N, --baseline=PATH.

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/metrics.h"
#include "service/server.h"
#include "service/transport.h"
#include "storage/sharded_store.h"
#include "workload/driver.h"
#include "workload/oracle.h"
#include "workload/workload.h"

using namespace pqidx;
using namespace pqidx::bench;
using namespace pqidx::workload;

namespace {

constexpr uint64_t kDefaultSeed = 20260809;

// Pulls one metric value out of a committed BENCH_*.json baseline. The
// format is the fixed shape JsonReport writes, so a targeted scan
// beats pulling in a JSON parser: find the name, read the next value.
bool BaselineMetric(const std::string& doc, const std::string& name,
                    double* value) {
  const std::string needle = "\"name\": \"" + name + "\"";
  size_t at = doc.find(needle);
  if (at == std::string::npos) return false;
  const std::string value_key = "\"value\": ";
  at = doc.find(value_key, at);
  if (at == std::string::npos) return false;
  *value = std::atof(doc.c_str() + at + value_key.size());
  return true;
}

// One in-process server over a fresh store, reachable through `dial`.
struct Harness {
  std::string path;
  std::unique_ptr<ShardedStore> index;
  std::unique_ptr<Server> server;
  std::unique_ptr<TcpListener> tcp_keepalive;  // owns nothing for pipe
  Dialer dial;

  ~Harness() {
    if (server != nullptr) server->Stop();
    if (!path.empty()) {
      index.reset();
      std::remove((path + "/MANIFEST").c_str());
      for (int k = 0; k < 64; ++k) {
        char name[16];
        std::snprintf(name, sizeof(name), "shard-%04d", k);
        const std::string shard = path + "/" + name;
        std::remove(shard.c_str());
        std::remove((shard + ".wal").c_str());
      }
      ::rmdir(path.c_str());
      std::remove(path.c_str());
      std::remove((path + ".wal").c_str());
    }
  }
};

std::unique_ptr<Harness> StartHarness(const PqShape& shape, int clients,
                                      bool tcp, int store_shards) {
  auto harness = std::make_unique<Harness>();
  harness->path = BenchTempPath("workload.idx");

  StatusOr<std::unique_ptr<ShardedStore>> index =
      ShardedStore::Create(harness->path, shape, store_shards);
  if (!index.ok()) {
    std::fprintf(stderr, "create: %s\n", index.status().ToString().c_str());
    return nullptr;
  }
  harness->index = std::move(index).value();
  ServerOptions options;
  options.max_connections = clients + 2;  // clients + control
  harness->server = std::make_unique<Server>(harness->index.get(), options);

  if (tcp) {
    StatusOr<std::unique_ptr<TcpListener>> listener = TcpListener::Listen(0);
    if (!listener.ok()) {
      std::fprintf(stderr, "listen: %s\n",
                   listener.status().ToString().c_str());
      return nullptr;
    }
    const int port = (*listener)->port();
    harness->dial = [port] {
      return TcpConnect("127.0.0.1", static_cast<uint16_t>(port));
    };
    if (Status s = harness->server->Start(std::move(listener).value());
        !s.ok()) {
      std::fprintf(stderr, "start: %s\n", s.ToString().c_str());
      return nullptr;
    }
  } else {
    auto listener = std::make_unique<PipeListener>();
    PipeListener* connect_point = listener.get();
    harness->dial = [connect_point] { return connect_point->Connect(); };
    if (Status s = harness->server->Start(std::move(listener)); !s.ok()) {
      std::fprintf(stderr, "start: %s\n", s.ToString().c_str());
      return nullptr;
    }
  }
  return harness;
}

WorkloadSpec ScenarioSpec(char preset, uint64_t seed) {
  WorkloadSpec spec = PresetSpec(preset);
  spec.seed = seed;
  spec.num_trees = 192;
  spec.tree_records = 6;
  spec.num_clients = 4;
  spec.ops_per_client = Scaled(240);
  spec.rounds = 3;
  spec.theta = 0.99;
  spec.burst_trees = 4;
  spec.burst_depth = 3;
  return spec;
}

// Runs one scenario end to end; false means the run (or the oracle)
// failed and the binary must exit nonzero.
bool RunScenario(const WorkloadSpec& spec, bool tcp, const std::string& cell,
                 ReportBuilder* report, double* throughput_out,
                 int store_shards = 1) {
  std::unique_ptr<Harness> harness =
      StartHarness(spec.shape, spec.num_clients, tcp, store_shards);
  if (harness == nullptr) return false;

  DriverOptions options;
  options.oracle = true;
  options.server = harness->server.get();
  StatusOr<RunResult> run = RunWorkload(spec, harness->dial, options);
  if (!run.ok()) {
    std::fprintf(stderr, "%s: %s\n", cell.c_str(),
                 run.status().ToString().c_str());
    return false;
  }

  std::printf("%-28s %10.0f req/s  (%lld lookups, %lld topk, %lld edits; "
              "%lld oracle sweeps / %lld comparisons; %lld burst trees)\n",
              (cell + " throughput").c_str(), run->throughput(),
              static_cast<long long>(run->lookups),
              static_cast<long long>(run->topks),
              static_cast<long long>(run->edits),
              static_cast<long long>(run->oracle_checks),
              static_cast<long long>(run->oracle_comparisons),
              static_cast<long long>(run->bursts));
  report->Add(cell + "_throughput", run->throughput(), "req/s");
  report->AddLatencyMs(cell + "_lookup", &run->lookup_s);
  if (!run->topk_s.empty()) report->AddLatencyMs(cell + "_topk", &run->topk_s);
  if (!run->edit_s.empty()) report->AddLatencyMs(cell + "_edit", &run->edit_s);
  report->Add(cell + "_oracle_checks",
              static_cast<double>(run->oracle_checks));
  report->Add(cell + "_oracle_comparisons",
              static_cast<double>(run->oracle_comparisons));
  report->Add(cell + "_bursts", static_cast<double>(run->bursts));
  report->Add(cell + "_burst_comparisons",
              static_cast<double>(run->burst_comparisons));
  report->Add(cell + "_failures", run->failures);

  report->Require(run->failures == 0,
                  cell + ": client-visible request failures");
  report->Require(run->oracle_checks > 0 && run->oracle_comparisons > 0,
                  cell + ": oracle ran no comparisons");
  report->Require(run->bursts > 0 && run->burst_comparisons > 0,
                  cell + ": ephemeral bursts ran no comparisons");
  if (throughput_out != nullptr) *throughput_out = run->throughput();
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  ReportBuilder report("WORKLOAD", argc, argv);
  uint64_t seed = kDefaultSeed;
  std::string baseline_path;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg.rfind("--seed=", 0) == 0) {
      seed = std::strtoull(arg.c_str() + 7, nullptr, 10);
    } else if (arg.rfind("--baseline=", 0) == 0) {
      baseline_path = arg.substr(11);
    }
  }

  PrintHeader("workload harness (differential oracle on)");
  std::printf("seed %llu, scale %g\n\n",
              static_cast<unsigned long long>(seed), Scale());
  report.Add("seed", static_cast<double>(seed));

  // Presets A/B/C over the pipe transport, bursts at every boundary.
  double throughput_a = 0;
  for (char preset : {'A', 'B', 'C'}) {
    WorkloadSpec spec = ScenarioSpec(preset, seed);
    std::printf("%s\n", DescribeSpec(spec).c_str());
    const std::string cell = std::string("preset_") +
                             static_cast<char>(preset + ('a' - 'A'));
    double throughput = 0;
    if (!RunScenario(spec, /*tcp=*/false, cell, &report, &throughput)) {
      return 1;
    }
    if (preset == 'A') throughput_a = throughput;
    std::printf("\n");
  }

  // The same read-heavy preset end to end over loopback TCP.
  PrintHeader("preset A over loopback TCP");
  {
    WorkloadSpec spec = ScenarioSpec('A', seed + 1);
    spec.ops_per_client = Scaled(120);
    if (!RunScenario(spec, /*tcp=*/true, "tcp_a", &report, nullptr)) {
      return 1;
    }
  }

  // The mixed preset against a 4-shard store: every edit routes through
  // the group-commit protocol and the differential oracle still has to
  // match the single-store semantics bit for bit.
  PrintHeader("preset B on a 4-shard store");
  {
    WorkloadSpec spec = ScenarioSpec('B', seed + 3);
    spec.ops_per_client = Scaled(120);
    if (!RunScenario(spec, /*tcp=*/false, "sharded_b", &report, nullptr,
                     /*store_shards=*/4)) {
      return 1;
    }
  }

  // Multi-client ramp: preset A at 1, 4, 8 clients.
  PrintHeader("multi-client ramp (preset A)");
  double single = 0;
  for (int clients : {1, 4, 8}) {
    WorkloadSpec spec = ScenarioSpec('A', seed + 2);
    spec.num_clients = clients;
    spec.ops_per_client = Scaled(160);
    const std::string cell = "ramp_c" + std::to_string(clients);
    double throughput = 0;
    if (!RunScenario(spec, /*tcp=*/false, cell, &report, &throughput)) {
      return 1;
    }
    if (clients == 1) single = throughput;
    if (single > 0) {
      report.Add(cell + "_scaling", throughput / single, "x");
    }
  }

  // Regression gate against the committed baseline: >20% below the
  // recorded preset-A throughput fails at full scale (waived below, so
  // CI's reduced-scale smoke still parses and reports the baseline).
  if (!baseline_path.empty()) {
    std::ifstream in(baseline_path);
    if (!in) {
      std::fprintf(stderr, "cannot read baseline %s\n",
                   baseline_path.c_str());
      return 1;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    double base_a = 0;
    if (!BaselineMetric(buf.str(), "preset_a_throughput", &base_a) ||
        base_a <= 0) {
      std::fprintf(stderr, "baseline %s lacks preset_a_throughput\n",
                   baseline_path.c_str());
      return 1;
    }
    const double ratio = throughput_a / base_a;
    std::printf("\npreset A throughput vs baseline: %.0f / %.0f = %.2fx\n",
                throughput_a, base_a, ratio);
    report.Add("baseline_ratio_a", ratio, "x");
    report.RequireAtScale(ratio >= 0.8, 1.0,
                          "preset A regressed >20% against the committed "
                          "baseline");
  }

  report.AddRegistry();
  return report.ExitCode();
}
