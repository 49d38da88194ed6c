// In-memory span recorder for the benchmark.
//
// Spans wrap the benchmark's own calls into ecoDB's public API (and its own
// answer checks); nothing inside the engine is instrumented. Each span
// records a name, host start/end, the enclosing span and the query it
// belongs to. Spans stay in memory and are written once, at exit, as
// Chrome trace-event JSON (loadable in Perfetto / chrome://tracing).
// A disabled tracer records nothing; Scope still measures its own
// duration so timing code has one path whether tracing is on or off.

#ifndef ECOBENCH_TRACE_H_
#define ECOBENCH_TRACE_H_

#include <chrono>
#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

namespace ecobench {

inline uint64_t NowNs() {
  return static_cast<uint64_t>(
      std::chrono::duration_cast<std::chrono::nanoseconds>(
          std::chrono::steady_clock::now().time_since_epoch())
          .count());
}

struct Span {
  std::string name;
  uint64_t start_ns = 0;
  uint64_t end_ns = 0;
  int parent = -1;          ///< index of the enclosing span, -1 at top level
  int64_t query_id = -1;    ///< -1 when the span belongs to no query
};

class Tracer {
 public:
  explicit Tracer(bool enabled) : enabled_(enabled) {}

  bool enabled() const { return enabled_; }
  const std::vector<Span>& spans() const { return spans_; }

  /// RAII span: opened on construction, closed by End() or destruction.
  class Scope {
   public:
    Scope(Tracer* tracer, std::string name, int64_t query_id = -1)
        : tracer_(tracer), start_ns_(NowNs()) {
      if (!tracer_->enabled_) return;
      index_ = static_cast<int>(tracer_->spans_.size());
      Span s;
      s.name = std::move(name);
      s.start_ns = start_ns_;
      s.parent = tracer_->open_;
      s.query_id = query_id;
      tracer_->spans_.push_back(std::move(s));
      tracer_->open_ = index_;
    }
    ~Scope() { End(); }
    Scope(const Scope&) = delete;
    Scope& operator=(const Scope&) = delete;

    /// Closes the span (idempotent) and returns its duration in seconds.
    double End() {
      if (!ended_) {
        end_ns_ = NowNs();
        ended_ = true;
        if (index_ >= 0) {
          Span& s = tracer_->spans_[static_cast<size_t>(index_)];
          s.end_ns = end_ns_;
          tracer_->open_ = s.parent;
        }
      }
      return static_cast<double>(end_ns_ - start_ns_) * 1e-9;
    }

   private:
    Tracer* tracer_;
    uint64_t start_ns_;
    uint64_t end_ns_ = 0;
    int index_ = -1;
    bool ended_ = false;
  };

  /// Durations (seconds) of every closed span called `name`.
  std::vector<double> Durations(const std::string& name) const {
    std::vector<double> out;
    for (const Span& s : spans_) {
      if (s.name == name && s.end_ns >= s.start_ns) {
        out.push_back(static_cast<double>(s.end_ns - s.start_ns) * 1e-9);
      }
    }
    return out;
  }

  /// Writes every span as a complete ("X") trace event, microsecond
  /// timestamps relative to the first span. Returns false on I/O error.
  bool WriteChromeTrace(const std::string& path) const {
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) return false;
    const uint64_t t0 = spans_.empty() ? 0 : spans_.front().start_ns;
    std::fprintf(f, "{\"displayTimeUnit\": \"ms\", \"traceEvents\": [\n");
    for (size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(f,
                   "%s{\"name\": \"%s\", \"ph\": \"X\", \"pid\": 1, "
                   "\"tid\": 1, \"ts\": %.3f, \"dur\": %.3f, \"args\": "
                   "{\"id\": %zu, \"parent\": %d, \"query_id\": %lld}}",
                   i == 0 ? "" : ",\n",
                   s.name.c_str(),
                   static_cast<double>(s.start_ns - t0) * 1e-3,
                   static_cast<double>(s.end_ns - s.start_ns) * 1e-3, i,
                   s.parent, static_cast<long long>(s.query_id));
    }
    std::fprintf(f, "\n]}\n");
    return std::fclose(f) == 0;
  }

 private:
  bool enabled_;
  std::vector<Span> spans_;
  int open_ = -1;
};

}  // namespace ecobench

#endif  // ECOBENCH_TRACE_H_
