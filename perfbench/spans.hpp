// Host-time spans the benchmark records around its own calls into each
// layer of the program, and the per-layer self-time ledger folded from them.
//
// A span has a name, a start and end on the host's steady clock, the span
// that was open when it started (its parent) and the job it belongs to.
// Spans stay in memory until the run ends. A layer's self time is its
// span's duration minus the part its child spans cover; structural spans
// (the run, a pass, a job) are not layers, and their self time is the
// explicit `other` residual, so layers + other == wall by construction.
#pragma once

#include <chrono>
#include <cstdio>
#include <map>
#include <set>
#include <string>
#include <vector>

namespace perfbench {

inline double now_seconds() {
  return std::chrono::duration<double>(std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

struct Span {
  std::string name;
  double start = 0.0;
  double end = 0.0;
  int parent = -1;  ///< index of the enclosing span; -1 = root
  long job = -1;    ///< job or run the span belongs to; -1 = none
};

class SpanLog {
 public:
  [[nodiscard]] bool enabled() const { return enabled_; }
  void set_enabled(bool enabled) { enabled_ = enabled; }

  /// Opens a span under the innermost open one; returns its index, or -1
  /// when recording is off. A job id of -1 inherits the parent's.
  int open(const char* name, long job) {
    if (!enabled_) return -1;
    const int parent = open_.empty() ? -1 : open_.back();
    if (job < 0 && parent >= 0) job = spans_[static_cast<std::size_t>(parent)].job;
    spans_.push_back({name, now_seconds(), 0.0, parent, job});
    open_.push_back(static_cast<int>(spans_.size()) - 1);
    return open_.back();
  }

  void close(int id) {
    if (id < 0) return;
    spans_[static_cast<std::size_t>(id)].end = now_seconds();
    open_.pop_back();
  }

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }

  /// Writes the spans as Chrome trace_event JSON (open in Perfetto or
  /// chrome://tracing); times are microseconds from the first span.
  bool write_chrome_trace(const std::string& path) const {
    std::FILE* out = std::fopen(path.c_str(), "w");
    if (out == nullptr) return false;
    const double origin = spans_.empty() ? 0.0 : spans_.front().start;
    std::fprintf(out, "{\"traceEvents\":[");
    for (std::size_t i = 0; i < spans_.size(); ++i) {
      const Span& s = spans_[i];
      std::fprintf(out,
                   "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,\"tid\":1,\"ts\":%.3f,"
                   "\"dur\":%.3f,\"args\":{\"id\":%zu,\"parent\":%d,\"job\":%ld}}",
                   i == 0 ? "" : ",", s.name.c_str(), (s.start - origin) * 1e6,
                   (s.end - s.start) * 1e6, i, s.parent, s.job);
    }
    std::fprintf(out, "\n]}\n");
    return std::fclose(out) == 0;
  }

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span: opened on construction, closed on scope exit (exceptions too).
class Scope {
 public:
  Scope(SpanLog& log, const char* name, long job = -1) : log_(log), id_(log.open(name, job)) {}
  ~Scope() { log_.close(id_); }
  Scope(const Scope&) = delete;
  Scope& operator=(const Scope&) = delete;

 private:
  SpanLog& log_;
  int id_;
};

struct Ledger {
  std::map<std::string, double> self_seconds;  ///< per layer
  double wall = 0.0;   ///< summed durations of the root spans
  double other = 0.0;  ///< self time of structural (non-layer) spans
  bool nested = true;  ///< every span closed and inside its parent
};

/// Folds spans into per-layer self times. Names in `layers` are layers;
/// every other span is structural and feeds `other`.
inline Ledger fold(const std::vector<Span>& spans, const std::set<std::string>& layers) {
  constexpr double kSlack = 1e-9;  // steady-clock rounding across nested reads
  Ledger ledger;
  std::vector<double> covered(spans.size(), 0.0);
  for (const Span& s : spans) {
    if (s.end < s.start) ledger.nested = false;
    if (s.parent < 0) continue;
    const Span& p = spans[static_cast<std::size_t>(s.parent)];
    if (s.start < p.start || s.end > p.end) ledger.nested = false;
    covered[static_cast<std::size_t>(s.parent)] += s.end - s.start;
  }
  for (std::size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    const double self = (s.end - s.start) - covered[i];
    if (self < -kSlack) ledger.nested = false;
    if (s.parent < 0) ledger.wall += s.end - s.start;
    if (layers.count(s.name) != 0) {
      ledger.self_seconds[s.name] += self;
    } else {
      ledger.other += self;
    }
  }
  return ledger;
}

}  // namespace perfbench
