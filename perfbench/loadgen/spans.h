#ifndef PERFBENCH_SPANS_H_
#define PERFBENCH_SPANS_H_

#include <atomic>
#include <cstdint>
#include <mutex>
#include <string>
#include <vector>

namespace perfbench {

/// Monotonic microseconds (steady clock) shared by every timing in the
/// benchmark.
double NowUs();

/// One finished span. `parent` is the id of the span that was open on the
/// same thread when this one began (0 = a root). Spans of one operation
/// share their root's id as `trace`.
struct Span {
  uint32_t id = 0;
  uint32_t parent = 0;
  uint32_t trace = 0;
  const char* name = "";  // string literal
  double start_us = 0.0;
  double end_us = 0.0;
};

/// In-memory span store for the traced run: spans are kept in a vector and
/// written out once the run ends, so recording costs a clock read and a
/// push_back. A per-thread stack supplies parents.
class SpanRecorder {
 public:
  static SpanRecorder& Global();

  void SetEnabled(bool on) { enabled_ = on; }
  bool enabled() const { return enabled_.load(std::memory_order_relaxed); }

  /// Opens a span on the calling thread; returns its id (0 when disabled
  /// or `name` is null, which records nothing).
  uint32_t Begin(const char* name);
  /// Closes the span `id` (must be the innermost open one on this thread).
  void End(uint32_t id);

  std::vector<Span> Take();

 private:
  std::atomic<bool> enabled_{false};
  std::mutex mu_;
  uint32_t next_id_ = 1;
  std::vector<Span> finished_;
};

/// RAII span around one call into a layer.
class Scoped {
 public:
  explicit Scoped(const char* name)
      : id_(SpanRecorder::Global().Begin(name)) {}
  ~Scoped() {
    if (id_ != 0) SpanRecorder::Global().End(id_);
  }
  Scoped(const Scoped&) = delete;
  Scoped& operator=(const Scoped&) = delete;

 private:
  uint32_t id_;
};

/// Self time of every span, indexed like `spans`: its duration minus the
/// part of its interval covered by its direct children (overlapping
/// children are merged first, so parallel children are not subtracted
/// twice, and a child poking past its parent is clipped).
std::vector<double> SelfTimesUs(const std::vector<Span>& spans);

/// Chrome trace-event JSON of the spans (load at ui.perfetto.dev).
std::string ChromeTraceJson(const std::vector<Span>& spans);

}  // namespace perfbench

#endif  // PERFBENCH_SPANS_H_
