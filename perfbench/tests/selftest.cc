// Self-tests for the benchmark's own statistics, pacing and span
// accounting. Run with `python3 perfbench/run.py --selftest` (or the
// perfbench_selftest binary in the build directory); exit 0 = all pass.

#include <cmath>
#include <cstdio>
#include <string>
#include <vector>

#include "spans.h"
#include "stats.h"

namespace {

int failures = 0;

void Check(bool ok, const char* what, int line) {
  if (!ok) {
    std::fprintf(stderr, "FAIL line %d: %s\n", line, what);
    ++failures;
  }
}
#define CHECK(cond) Check((cond), #cond, __LINE__)

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

using perfbench::Span;

void TestMedianAndQuartiles() {
  CHECK(Near(perfbench::Median({3, 1, 2}), 2));
  CHECK(Near(perfbench::Median({4, 1, 3, 2}), 2.5));
  CHECK(Near(perfbench::Median({}), 0));
  // Reference values from Python's statistics.quantiles(data, n=4).
  auto q = perfbench::Quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
  CHECK(Near(q[0], 2.75) && Near(q[1], 5.5) && Near(q[2], 8.25));
  q = perfbench::Quartiles({4, 3, 2, 1});
  CHECK(Near(q[0], 1.25) && Near(q[1], 2.5) && Near(q[2], 3.75));
  q = perfbench::Quartiles({5, 1});  // extrapolates below the minimum
  CHECK(Near(q[0], 0.0) && Near(q[1], 3.0) && Near(q[2], 6.0));
  q = perfbench::Quartiles({3.5, 1, 9, 2, 7});
  CHECK(Near(q[0], 1.5) && Near(q[1], 3.5) && Near(q[2], 8.0));
}

void TestMedianOfFastest() {
  using perfbench::MedianOfFastest;
  // Lines 7, 3 and 9, each sent three times; one repeat of each ran in a
  // slow stretch. The fastest repeats are 2, 4 and 10: median 4.
  CHECK(Near(MedianOfFastest({2, 5, 4, 3.5, 10, 8, 40, 10, 4.5},
                             {7, 7, 3, 7, 9, 3, 9, 9, 3}),
             4));
  // A host twice as slow for the whole run doubles every repeat; a host
  // slow for part of it leaves each line's fastest repeat alone.
  CHECK(Near(MedianOfFastest({4, 8, 20}, {1, 3, 9}), 8));
  CHECK(Near(MedianOfFastest({2, 8, 4, 7, 10, 20}, {1, 1, 3, 3, 9, 9}), 4));
  CHECK(Near(MedianOfFastest({}, {}), 0));
}

std::vector<double> OneTo(int n) {
  std::vector<double> v;
  for (int i = 1; i <= n; ++i) v.push_back(i);
  return v;
}

void TestTailNeedsTenBeyond() {
  using perfbench::BlockTail;
  // p99 of 1..1000 is the 990th value: exactly ten samples beyond it.
  perfbench::TailPoint p99 = BlockTail(OneTo(1000), 99.0);
  CHECK(p99.ok && p99.blocks == 1 && p99.samples == 1000 && Near(p99.value, 990));
  // 999 samples would leave only nine beyond: no tail is reported.
  p99 = BlockTail(OneTo(999), 99.0);
  CHECK(!p99.ok && p99.blocks == 0 && Near(p99.value, 0));
  perfbench::TailPoint p95 = BlockTail(OneTo(200), 95.0);
  CHECK(p95.ok && p95.blocks == 1 && Near(p95.value, 190));
  CHECK(!BlockTail(OneTo(199), 95.0).ok);
  CHECK(!BlockTail({}, 95.0).ok);

  // Block sizing: as many whole blocks of at least 1000 as fit, at most
  // max_blocks.
  CHECK(BlockTail(OneTo(2999), 99.0).blocks == 2);
  CHECK(BlockTail(OneTo(3000), 99.0).blocks == 3);
  CHECK(BlockTail(OneTo(20000), 99.0).blocks == 10);
  CHECK(BlockTail(OneTo(20000), 99.0, 4).blocks == 4);

  // Three 1000-sample p99 blocks, one with a burst; the median of the
  // blocks' p99s is the clean value.
  std::vector<double> blocks;
  for (int b = 0; b < 3; ++b) {
    for (int i = 1; i <= 1000; ++i) blocks.push_back(b == 1 && i > 900 ? 1e6 : i);
  }
  perfbench::TailPoint bt = BlockTail(blocks, 99.0);
  CHECK(bt.ok && bt.blocks == 3 && Near(bt.value, 990));
  CHECK(Near(perfbench::Percentile({5, 1, 3}, 50), 3));
}

void TestOpenLoopTimesFromDue() {
  perfbench::OpenLoopSchedule schedule(1000.0, 500.0);  // one op per 2 ms
  CHECK(Near(schedule.Due(0), 1000.0));
  CHECK(Near(schedule.Due(3), 7000.0));
  // A request sent 1 ms late that took 0.5 ms on the wire costs 1.5 ms:
  // the stall is charged to it, not hidden by timing from the send.
  double due = schedule.Due(3), sent = due + 1000.0, done = sent + 500.0;
  CHECK(Near(perfbench::LatencyFromDue(due, done), 1500.0));
}

void TestLatenessReport() {
  std::vector<double> due, sent;
  for (int i = 0; i < 2000; ++i) {
    due.push_back(i * 1000.0);
    // On time, except every 50th op is sent 5 ms late, and one op in the
    // second half 80 ms late; one is sent early.
    double late = i % 50 == 49 ? 5000.0 : i == 1500 ? 80000.0 : 0.0;
    sent.push_back(due.back() + late - (i == 0 ? 10.0 : 0.0));
  }
  perfbench::LatenessReport r = perfbench::SummarizeLateness(due, sent);
  CHECK(r.ops == 2000);
  CHECK(r.late_ops == 41);
  CHECK(Near(r.p50_ms, 0.0));
  // Each 1000-op block has 20 or 21 late ops past rank 990; the one
  // 80 ms stall stays in its block's top ten and moves nothing.
  CHECK(Near(r.p99_ms, 5.0));
  CHECK(Near(r.max_ms, 80.0));
  // Under 1000 ops no 99th percentile has ten beyond it.
  due.resize(999);
  sent.resize(999);
  CHECK(Near(perfbench::SummarizeLateness(due, sent).p99_ms, 0.0));
}

void TestSelfTime() {
  // root [0,100) with children [10,30) and [20,50) (overlapping, so 40 us
  // covered once) and a grandchild [12,18) inside the first child; a
  // child poking past its parent's end is clipped.
  std::vector<Span> spans = {
      {1, 0, 1, "root", 0, 100},   {2, 1, 1, "a", 10, 30},
      {3, 1, 1, "b", 20, 50},      {4, 2, 1, "a.x", 12, 18},
      {5, 0, 5, "other", 0, 10},   {6, 5, 5, "late", 5, 40},
  };
  std::vector<double> self = perfbench::SelfTimesUs(spans);
  CHECK(Near(self[0], 60));  // 100 - |[10,50)|
  CHECK(Near(self[1], 14));  // 20 - 6
  CHECK(Near(self[2], 30));
  CHECK(Near(self[3], 6));
  CHECK(Near(self[4], 5));   // 10 - |[5,10)|

  // Recorded spans nest by thread stack.
  auto& recorder = perfbench::SpanRecorder::Global();
  recorder.SetEnabled(true);
  {
    perfbench::Scoped outer("outer");
    perfbench::Scoped inner("inner");
  }
  recorder.SetEnabled(false);
  std::vector<Span> got = recorder.Take();
  CHECK(got.size() == 2);
  if (got.size() == 2) {
    CHECK(std::string(got[0].name) == "inner" && got[0].parent == got[1].id);
    CHECK(got[1].parent == 0 && got[0].trace == got[1].id);
  }
}

}  // namespace

int main() {
  TestMedianAndQuartiles();
  TestMedianOfFastest();
  TestTailNeedsTenBeyond();
  TestOpenLoopTimesFromDue();
  TestLatenessReport();
  TestSelfTime();
  if (failures == 0) std::printf("perfbench selftest: all passed\n");
  return failures == 0 ? 0 : 1;
}
