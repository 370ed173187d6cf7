// In-memory span recorder for the traced benchmark run.
//
// A span is one call into a library layer, timed from the benchmark's own
// code: name, engine, start, end, the span that was open when it began
// (its parent) and the step it belongs to. Spans are only appended while
// the recorder is enabled, kept in memory, and written out once when the
// benchmark ends (Chrome trace-event JSON, loadable in chrome://tracing or
// Perfetto). A span's self time is its duration minus the durations of its
// direct children; children of one parent never overlap here, because every
// traced call runs on the calling thread and returns before the next starts.
#pragma once

#include <string>
#include <vector>

namespace perfbench {

/// Seconds on the steady clock since the first call (process-local epoch).
double now_s();

struct Span {
  std::string name;
  std::string engine;  ///< "" for spans that belong to no engine
  double start = 0;
  double end = 0;
  int parent = -1;     ///< index into the recorder's span list, -1 = root
  long step = -1;      ///< engine step the span belongs to, -1 = none
  [[nodiscard]] double duration() const { return end - start; }
};

class Tracer {
 public:
  [[nodiscard]] bool enabled() const { return enabled_; }
  void set_enabled(bool on) { enabled_ = on; }

  /// Opens a span at `start` under the innermost open span. Returns its
  /// index, or -1 when tracing is off.
  int open(std::string name, std::string engine, long step, double start);
  /// Closes the innermost open span, which must be `id`.
  void close(int id, double end);
  /// Appends an already finished span under the innermost open span (used
  /// for slab steps, whose bounds come from post-step hook timestamps).
  void add(std::string name, std::string engine, long step, double start,
           double end);

  [[nodiscard]] const std::vector<Span>& spans() const { return spans_; }
  /// Self time of every span, index-aligned with spans().
  [[nodiscard]] std::vector<double> self_times() const;

  /// Writes every span as a Chrome trace-event "X" (complete) event, one
  /// track per engine. Returns false if the file cannot be written.
  [[nodiscard]] bool write_chrome_json(const std::string& path) const;

 private:
  bool enabled_ = false;
  std::vector<Span> spans_;
  std::vector<int> open_;
};

/// RAII span over the enclosing scope.
class ScopedSpan {
 public:
  ScopedSpan(Tracer& t, std::string name, std::string engine, long step = -1)
      : tracer_(t),
        id_(t.enabled() ? t.open(std::move(name), std::move(engine), step,
                                 now_s())
                        : -1) {}
  ~ScopedSpan() {
    if (id_ >= 0) tracer_.close(id_, now_s());
  }
  ScopedSpan(const ScopedSpan&) = delete;
  ScopedSpan& operator=(const ScopedSpan&) = delete;

 private:
  Tracer& tracer_;
  int id_;
};

}  // namespace perfbench
