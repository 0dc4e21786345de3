#ifndef PERFBENCH_STATS_H_
#define PERFBENCH_STATS_H_

#include <array>
#include <cstddef>
#include <cstdint>
#include <vector>

namespace perfbench {

/// Median of `values` (mean of the two middle values for an even count);
/// 0 for an empty sample.
double Median(std::vector<double> values);

/// The three cut points of statistics.quantiles(values, n=4) in Python's
/// default "exclusive" method, so the benchmark's spreads and the ones a
/// reader computes from the printed runs agree. Needs >= 2 values.
std::array<double, 3> Quartiles(std::vector<double> values);

/// Latency of a request mix that sends each request line many times,
/// spread over the run: every line's fastest repeat, then the median over
/// lines. A slower host phase only adds time, so a line's fastest repeat
/// is its cost when the host was least disturbed, while a slower program
/// makes every repeat slower. `lines[i]` names the line sample i sent.
double MedianOfFastest(const std::vector<double>& values,
                       const std::vector<uint64_t>& lines);

/// Nearest-rank percentile: the ceil(p/100 * n)-th smallest value.
double Percentile(std::vector<double> values, double p);

/// A tail percentile, reported only where at least ten samples lie beyond
/// its rank, and one burst cannot move it: the samples, in the order they
/// were taken, are cut into up to `max_blocks` consecutive blocks just
/// large enough to hold ten samples past the percentile (1000 for p99,
/// 200 for p95), and the median of the blocks' percentiles is the value.
/// `ok` is false, and the value 0, when not even one block fills.
struct TailPoint {
  double value = 0.0;
  size_t samples = 0;  // every sample
  size_t blocks = 0;   // blocks used
  bool ok = false;
};
TailPoint BlockTail(const std::vector<double>& values, double p,
                    size_t max_blocks = 10);

/// Open-loop pacing: operation i is due at start + i * interval. A request
/// is timed from its due time, not from when the generator got round to
/// sending it, so a stall that delays later sends is charged to them.
class OpenLoopSchedule {
 public:
  OpenLoopSchedule(double start_us, double rate_per_s)
      : start_us_(start_us), interval_us_(1e6 / rate_per_s) {}
  double Due(uint64_t i) const {
    return start_us_ + static_cast<double>(i) * interval_us_;
  }

 private:
  double start_us_;
  double interval_us_;
};

/// Latency of one open-loop operation: completion minus due time.
inline double LatencyFromDue(double due_us, double done_us) {
  return done_us - due_us;
}

/// How late the generator itself ran: for each operation, how long after
/// its due time it was actually sent (0 when it was sent on time).
struct LatenessReport {
  size_t ops = 0;
  size_t late_ops = 0;  // sent more than 1 ms after due
  double p50_ms = 0.0;
  double p99_ms = 0.0;  // BlockTail; 0 with fewer than 1000 ops
  double max_ms = 0.0;
};
LatenessReport SummarizeLateness(const std::vector<double>& due_us,
                                 const std::vector<double>& sent_us);

}  // namespace perfbench

#endif  // PERFBENCH_STATS_H_
