#include "spans.h"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <unordered_map>
#include <utility>

namespace perfbench {

namespace {

struct OpenSpan {
  uint32_t id;
  uint32_t trace;
  const char* name;
  double start_us;
};

thread_local std::vector<OpenSpan> t_stack;

}  // namespace

double NowUs() {
  static const auto epoch = std::chrono::steady_clock::now();
  return std::chrono::duration<double, std::micro>(
             std::chrono::steady_clock::now() - epoch)
      .count();
}

SpanRecorder& SpanRecorder::Global() {
  static SpanRecorder* recorder = new SpanRecorder();
  return *recorder;
}

uint32_t SpanRecorder::Begin(const char* name) {
  if (!enabled_ || name == nullptr) return 0;
  uint32_t id;
  {
    std::lock_guard lock(mu_);
    id = next_id_++;
  }
  uint32_t trace = t_stack.empty() ? id : t_stack.back().trace;
  t_stack.push_back(OpenSpan{id, trace, name, NowUs()});
  return id;
}

void SpanRecorder::End(uint32_t id) {
  double end = NowUs();
  if (t_stack.empty() || t_stack.back().id != id) return;
  OpenSpan open = t_stack.back();
  t_stack.pop_back();
  Span span;
  span.id = open.id;
  span.parent = t_stack.empty() ? 0 : t_stack.back().id;
  span.trace = open.trace;
  span.name = open.name;
  span.start_us = open.start_us;
  span.end_us = end;
  std::lock_guard lock(mu_);
  finished_.push_back(span);
}

std::vector<Span> SpanRecorder::Take() {
  std::lock_guard lock(mu_);
  std::vector<Span> out = std::move(finished_);
  finished_.clear();
  return out;
}

std::vector<double> SelfTimesUs(const std::vector<Span>& spans) {
  std::unordered_map<uint32_t, size_t> index;
  for (size_t i = 0; i < spans.size(); ++i) index[spans[i].id] = i;
  std::vector<std::vector<std::pair<double, double>>> children(spans.size());
  for (const Span& s : spans) {
    auto it = index.find(s.parent);
    if (s.parent == 0 || it == index.end()) continue;
    const Span& p = spans[it->second];
    double lo = std::max(s.start_us, p.start_us);
    double hi = std::min(s.end_us, p.end_us);
    if (hi > lo) children[it->second].emplace_back(lo, hi);
  }
  std::vector<double> self(spans.size());
  for (size_t i = 0; i < spans.size(); ++i) {
    auto& kids = children[i];
    std::sort(kids.begin(), kids.end());
    double covered = 0.0;
    double run_lo = 0.0, run_hi = -1.0;
    for (const auto& [lo, hi] : kids) {
      if (lo > run_hi) {
        if (run_hi > run_lo) covered += run_hi - run_lo;
        run_lo = lo;
        run_hi = hi;
      } else {
        run_hi = std::max(run_hi, hi);
      }
    }
    if (run_hi > run_lo) covered += run_hi - run_lo;
    self[i] = (spans[i].end_us - spans[i].start_us) - covered;
  }
  return self;
}

std::string ChromeTraceJson(const std::vector<Span>& spans) {
  std::string out = "{\"traceEvents\":[";
  char buf[256];
  for (size_t i = 0; i < spans.size(); ++i) {
    const Span& s = spans[i];
    std::snprintf(buf, sizeof(buf),
                  "%s{\"ph\":\"X\",\"name\":\"%s\",\"pid\":1,\"tid\":%u,"
                  "\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%u,\"parent\":%u}}",
                  i == 0 ? "" : ",", s.name, s.trace, s.start_us,
                  s.end_us - s.start_us, s.id, s.parent);
    out += buf;
  }
  out += "]}\n";
  return out;
}

}  // namespace perfbench
