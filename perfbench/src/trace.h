// In-memory spans for the traced run: recorded by the benchmark's own
// code around its calls into each layer (the library and the server
// carry no spans). Each connection thread owns one SpanLog, so recording
// takes no lock; the logs are merged and written out when the run ends.

#ifndef PQIDX_PERFBENCH_TRACE_H_
#define PQIDX_PERFBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <map>
#include <string>
#include <vector>

namespace pqidx::perfbench {

inline int64_t NowNs() {
  return std::chrono::duration_cast<std::chrono::nanoseconds>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  const char* name = "";  // a string literal naming module.operation
  int64_t start_ns = 0;
  int64_t end_ns = 0;
  int32_t parent = -1;    // index in the same SpanLog, -1 for a root
  int64_t request = 0;    // spans of one request share this id
};

class SpanLog {
 public:
  // Opens a span and returns its index; close it with End().
  int32_t Begin(const char* name, int64_t request, int32_t parent = -1) {
    spans_.push_back(Span{name, NowNs(), 0, parent, request});
    return static_cast<int32_t>(spans_.size() - 1);
  }
  void End(int32_t index) { spans_[static_cast<size_t>(index)].end_ns = NowNs(); }
  // Records a span measured elsewhere.
  void Add(const char* name, int64_t request, int64_t start_ns,
           int64_t end_ns, int32_t parent = -1) {
    spans_.push_back(Span{name, start_ns, end_ns, parent, request});
  }

  const std::vector<Span>& spans() const { return spans_; }

  // Self time of every span (duration minus the part its children
  // cover; children never overlap one another here), in microseconds,
  // grouped by span name.
  std::map<std::string, std::vector<double>> SelfTimesUs() const {
    std::vector<int64_t> child_ns(spans_.size(), 0);
    for (const Span& s : spans_) {
      if (s.parent >= 0) {
        child_ns[static_cast<size_t>(s.parent)] += s.end_ns - s.start_ns;
      }
    }
    std::map<std::string, std::vector<double>> out;
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      out[s.name].push_back((s.end_ns - s.start_ns - child_ns[i]) / 1e3);
    }
    return out;
  }

  // Durations in microseconds of every span called `name`.
  std::vector<double> DurationsUs(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (name == s.name) out.push_back((s.end_ns - s.start_ns) / 1e3);
    }
    return out;
  }

  void Append(const SpanLog& other) {
    const int32_t base = static_cast<int32_t>(spans_.size());
    for (Span s : other.spans_) {
      if (s.parent >= 0) s.parent += base;
      spans_.push_back(s);
    }
  }

  // One JSON object per line: name, start/end (ns, steady clock),
  // parent index, request id.
  bool WriteJsonl(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    for (const Span& s : spans_) {
      std::fprintf(f,
                   "{\"name\":\"%s\",\"start_ns\":%lld,\"end_ns\":%lld,"
                   "\"parent\":%d,\"request\":%lld}\n",
                   s.name, static_cast<long long>(s.start_ns),
                   static_cast<long long>(s.end_ns), s.parent,
                   static_cast<long long>(s.request));
    }
    return std::fclose(f) == 0;
  }

 private:
  std::vector<Span> spans_;
};

}  // namespace pqidx::perfbench

#endif  // PQIDX_PERFBENCH_TRACE_H_
