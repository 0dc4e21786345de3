#include "stats.h"

#include <algorithm>
#include <cmath>
#include <map>

namespace perfbench {

double Median(std::vector<double> values) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t n = values.size();
  return n % 2 == 1 ? values[n / 2] : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

std::array<double, 3> Quartiles(std::vector<double> values) {
  std::sort(values.begin(), values.end());
  std::array<double, 3> cuts{};
  size_t n = values.size();
  if (n < 2) {
    cuts.fill(n == 1 ? values[0] : 0.0);
    return cuts;
  }
  // statistics.quantiles, method="exclusive": m = n + 1, j = i*m // 4
  // clamped into [1, n-1], then delta = i*m - j*4 (after the clamp, so it
  // extrapolates at the ends) and cut = (data[j-1]*(4-delta) +
  // data[j]*delta) / 4.
  for (int i = 1; i <= 3; ++i) {
    long long im = static_cast<long long>(i) * static_cast<long long>(n + 1);
    long long j = std::clamp<long long>(im / 4, 1, static_cast<long long>(n) - 1);
    long long delta = im - j * 4;
    cuts[i - 1] = (values[j - 1] * static_cast<double>(4 - delta) +
                   values[j] * static_cast<double>(delta)) /
                  4.0;
  }
  return cuts;
}

double MedianOfFastest(const std::vector<double>& values,
                       const std::vector<uint64_t>& lines) {
  std::map<uint64_t, double> fastest;
  for (size_t i = 0; i < std::min(values.size(), lines.size()); ++i) {
    auto [it, fresh] = fastest.emplace(lines[i], values[i]);
    if (!fresh) it->second = std::min(it->second, values[i]);
  }
  std::vector<double> per_line;
  for (const auto& [line, v] : fastest) per_line.push_back(v);
  return Median(std::move(per_line));
}

double Percentile(std::vector<double> values, double p) {
  if (values.empty()) return 0.0;
  std::sort(values.begin(), values.end());
  size_t rank = static_cast<size_t>(
      std::ceil(p / 100.0 * static_cast<double>(values.size())));
  rank = std::clamp<size_t>(rank, 1, values.size());
  return values[rank - 1];
}

TailPoint BlockTail(const std::vector<double>& values, double p,
                    size_t max_blocks) {
  TailPoint point;
  point.samples = values.size();
  size_t min_block = static_cast<size_t>(std::ceil(10.0 / (1.0 - p / 100.0)));
  size_t blocks = std::min(max_blocks, values.size() / min_block);
  if (blocks == 0) return point;
  size_t size = values.size() / blocks;
  std::vector<double> tails;
  for (size_t b = 0; b < blocks; ++b) {
    std::vector<double> block(values.begin() + b * size,
                              values.begin() + (b + 1) * size);
    tails.push_back(Percentile(std::move(block), p));
  }
  point.value = Median(tails);
  point.blocks = blocks;
  point.ok = true;
  return point;
}

LatenessReport SummarizeLateness(const std::vector<double>& due_us,
                                 const std::vector<double>& sent_us) {
  LatenessReport report;
  size_t n = std::min(due_us.size(), sent_us.size());
  report.ops = n;
  std::vector<double> late_ms(n);
  for (size_t i = 0; i < n; ++i) {
    late_ms[i] = std::max(0.0, sent_us[i] - due_us[i]) / 1000.0;
    if (late_ms[i] > 1.0) ++report.late_ops;
    report.max_ms = std::max(report.max_ms, late_ms[i]);
  }
  report.p50_ms = Median(late_ms);
  report.p99_ms = BlockTail(late_ms, 99.0).value;
  return report;
}

}  // namespace perfbench
