// Shared helpers for the paper-reproduction bench binaries: wall-clock
// timing, workload scaling via the PQIDX_BENCH_SCALE environment variable,
// aligned table output, and machine-readable JSON result capture.

#ifndef PQIDX_BENCH_BENCH_UTIL_H_
#define PQIDX_BENCH_BENCH_UTIL_H_

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/scoped_temp_dir.h"

namespace pqidx::bench {

// A path inside this process's private scratch directory, so concurrent
// or killed runs never share store files; the directory and everything
// below it is removed when the process exits.
inline std::string BenchTempPath(const std::string& name) {
  static ScopedTempDir dir;
  return dir.File(name);
}

// Multiplies workload sizes by PQIDX_BENCH_SCALE (default 1.0). Scale 10+
// approaches the paper's original sizes; the defaults keep every binary
// in the tens of seconds on a laptop.
inline double Scale() {
  const char* env = std::getenv("PQIDX_BENCH_SCALE");
  if (env == nullptr) return 1.0;
  double scale = std::atof(env);
  return scale > 0 ? scale : 1.0;
}

inline int Scaled(int base) {
  double v = base * Scale();
  return v < 1 ? 1 : static_cast<int>(v);
}

class WallTimer {
 public:
  WallTimer() : start_(std::chrono::steady_clock::now()) {}
  double Seconds() const {
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         start_)
        .count();
  }

 private:
  std::chrono::steady_clock::time_point start_;
};

// Runs `fn` and returns its wall-clock time in seconds.
template <typename Fn>
double TimeIt(Fn&& fn) {
  WallTimer timer;
  fn();
  return timer.Seconds();
}

inline void PrintHeader(const std::string& title) {
  std::printf("\n=== %s ===\n", title.c_str());
}

// Nearest-rank percentile over per-op samples; sorts in place.
inline double Percentile(std::vector<double>* sorted_in_place, double pct) {
  std::vector<double>& v = *sorted_in_place;
  if (v.empty()) return 0;
  std::sort(v.begin(), v.end());
  size_t rank = static_cast<size_t>(pct / 100.0 * (v.size() - 1) + 0.5);
  return v[std::min(rank, v.size() - 1)];
}

// Machine-readable bench output. Construct with the bench name and main's
// (argc, argv); metrics accumulate via Add() and are written as JSON when
// Write() runs (the destructor calls it too). Capture is off unless the
// binary ran with `--json[=PATH]` or PQIDX_BENCH_JSON names a path; the
// default path is BENCH_<name>.json in the working directory, so CI can
// glob BENCH_*.json after a bench run.
class JsonReport {
 public:
  JsonReport(std::string bench_name, int argc = 0, char** argv = nullptr)
      : bench_name_(std::move(bench_name)) {
    if (const char* env = std::getenv("PQIDX_BENCH_JSON")) {
      path_ = env;
    }
    for (int i = 1; i < argc; ++i) {
      const std::string arg = argv[i];
      if (arg == "--json") {
        path_ = "BENCH_" + bench_name_ + ".json";
      } else if (arg.rfind("--json=", 0) == 0) {
        path_ = arg.substr(7);
      }
    }
  }

  ~JsonReport() { Write(); }

  JsonReport(const JsonReport&) = delete;
  JsonReport& operator=(const JsonReport&) = delete;

  bool enabled() const { return !path_.empty(); }

  void Add(const std::string& name, double value,
           const std::string& unit = "") {
    metrics_.push_back(Metric{name, unit, value});
  }

  // Embeds `raw_json` (already-valid JSON, e.g. MetricsSnapshot::ToJson())
  // as an extra top-level key. Later calls with the same key overwrite.
  void AddRawSection(const std::string& key, std::string raw_json) {
    for (RawSection& section : raw_sections_) {
      if (section.key == key) {
        section.json = std::move(raw_json);
        return;
      }
    }
    raw_sections_.push_back(RawSection{key, std::move(raw_json)});
  }

  // Writes all metrics collected so far; returns false on I/O failure.
  // Idempotent: later calls rewrite the file with the full metric list.
  bool Write() {
    if (!enabled() || metrics_.empty()) return true;
    std::FILE* f = std::fopen(path_.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "bench: cannot write %s\n", path_.c_str());
      return false;
    }
    std::fprintf(f, "{\n  \"bench\": \"%s\",\n  \"scale\": %g,\n"
                 "  \"metrics\": [\n",
                 Escaped(bench_name_).c_str(), Scale());
    for (size_t i = 0; i < metrics_.size(); ++i) {
      const Metric& m = metrics_[i];
      std::fprintf(f, "    {\"name\": \"%s\", \"value\": %.17g, "
                   "\"unit\": \"%s\"}%s\n",
                   Escaped(m.name).c_str(), m.value,
                   Escaped(m.unit).c_str(),
                   i + 1 < metrics_.size() ? "," : "");
    }
    std::fprintf(f, "  ]");
    for (const RawSection& section : raw_sections_) {
      std::fprintf(f, ",\n  \"%s\": %s", Escaped(section.key).c_str(),
                   section.json.c_str());
    }
    std::fprintf(f, "\n}\n");
    std::fclose(f);
    return true;
  }

 private:
  struct Metric {
    std::string name;
    std::string unit;
    double value;
  };

  struct RawSection {
    std::string key;
    std::string json;
  };

  static std::string Escaped(const std::string& s) {
    std::string out;
    for (char c : s) {
      if (c == '"' || c == '\\') out.push_back('\\');
      if (static_cast<unsigned char>(c) < 0x20) continue;  // drop controls
      out.push_back(c);
    }
    return out;
  }

  std::string bench_name_;
  std::string path_;
  std::vector<Metric> metrics_;
  std::vector<RawSection> raw_sections_;
};

// The shared per-bench report shell: wraps JsonReport with the
// boilerplate every bench used to hand-roll -- latency-percentile rows,
// the embedded metrics registry, and within-run acceptance gates with a
// single exit code. Gates follow the committed convention: Require()
// always fails the run; RequireAtScale() enforces only at (near) full
// scale and reports-but-waives below it, so CI's reduced
// PQIDX_BENCH_SCALE smokes the sweep without flaking on machine noise.
class ReportBuilder {
 public:
  ReportBuilder(std::string bench_name, int argc = 0, char** argv = nullptr)
      : name_(bench_name), report_(std::move(bench_name), argc, argv) {}

  JsonReport& json() { return report_; }

  void Add(const std::string& name, double value,
           const std::string& unit = "") {
    report_.Add(name, value, unit);
  }

  // Records <prefix>_p50/_p95/_p99 (milliseconds) from per-op latencies
  // in seconds and prints the aligned row.
  void AddLatencyMs(const std::string& prefix, std::vector<double>* seconds) {
    const double p50 = Percentile(seconds, 50) * 1e3;
    const double p95 = Percentile(seconds, 95) * 1e3;
    const double p99 = Percentile(seconds, 99) * 1e3;
    std::printf("%-28s %10.3f ms  p95 %.3f  p99 %.3f\n",
                (prefix + " latency p50").c_str(), p50, p95, p99);
    report_.Add(prefix + "_p50", p50, "ms");
    report_.Add(prefix + "_p95", p95, "ms");
    report_.Add(prefix + "_p99", p99, "ms");
  }

  // Embeds the full process-wide metrics registry, which is what CI
  // parse-asserts in every BENCH_*.json.
  void AddRegistry() {
    report_.AddRawSection("registry", Metrics::Default().Snapshot().ToJson());
  }

  // Within-run acceptance gate: a false `ok` fails the run (ExitCode 1).
  void Require(bool ok, const std::string& message) {
    if (ok) return;
    failed_ = true;
    std::fprintf(stderr, "%s: FAILED: %s\n", name_.c_str(), message.c_str());
  }

  // Enforces the gate only at PQIDX_BENCH_SCALE >= min_scale; below it
  // a failing condition is reported and waived.
  void RequireAtScale(bool ok, double min_scale, const std::string& message) {
    if (Scale() >= min_scale) {
      Require(ok, message);
      return;
    }
    if (!ok) {
      std::printf("%s: gate waived at scale %g (< %g): %s\n", name_.c_str(),
                  Scale(), min_scale, message.c_str());
    }
  }

  bool failed() const { return failed_; }
  int ExitCode() const { return failed_ ? 1 : 0; }

 private:
  std::string name_;
  JsonReport report_;
  bool failed_ = false;
};

}  // namespace pqidx::bench

#endif  // PQIDX_BENCH_BENCH_UTIL_H_
