#ifndef DBSHERLOCK_QUERY_REPORT_H_
#define DBSHERLOCK_QUERY_REPORT_H_

#include <cstdint>
#include <span>
#include <string>
#include <vector>

#include "common/json.h"
#include "core/model_repository.h"
#include "core/predicate_generator.h"
#include "query/ast.h"
#include "store/tenant_store.h"
#include "tsdata/region.h"

namespace dbsherlock::query {

/// One ranked cause with its confidence margin: the lead (in confidence
/// points) over the next-ranked cause — for the last shown cause, over
/// the lambda bar it had to clear. A large margin means the diagnosis is
/// unambiguous; a sliver means two models fit almost equally well.
struct RankedCauseEntry {
  std::string cause;
  double confidence = 0.0;
  double margin = 0.0;
  std::string suggested_action;
};

/// Unicode sparkline context for one attribute over a finding's window:
/// `cells` downsamples the series into ▁▂▃▄▅▆▇█ buckets (· = no finite
/// sample) and `marker` carries '^' under the buckets inside the
/// abnormal region.
struct SparklineRow {
  std::string attribute;
  std::string cells;
  std::string marker;
  double min = 0.0;
  double max = 0.0;
};

/// One investigated region: where it is, whether the anomaly detector
/// confirmed it, and what the explainer concluded.
struct RegionFinding {
  tsdata::TimeRange region;
  bool detector_confirmed = false;
  size_t window_rows = 0;
  size_t abnormal_rows = 0;
  std::vector<RankedCauseEntry> causes;
  std::vector<core::AttributeDiagnosis> predicates;
  std::vector<core::DataQualityWarning> warnings;
  std::vector<SparklineRow> context;
};

/// DESCRIBE payload: what the service knows about one tenant.
struct DescribeInfo {
  bool has_history = false;
  size_t num_attributes = 0;
  size_t numeric_attributes = 0;
  std::vector<std::string> attributes;  // schema order
  size_t segments = 0;
  uint64_t sealed_rows = 0;
  uint64_t sealed_bytes = 0;
  size_t active_rows = 0;
  double compression_ratio = 0.0;
  bool has_extent = false;
  double min_ts = 0.0;
  double max_ts = 0.0;
  uint64_t models = 0;     // causal models available for ranking
  uint64_t diagnoses = 0;  // background diagnoses completed so far
};

/// Everything a DQL statement produced; rendered as markdown for humans
/// and JSON for bots. Deliberately free of wall-clock fields so golden
/// files stay stable (timing lives in STATS and in perfbench).
struct IncidentReport {
  std::string tenant;
  std::string query;  // canonical Print() echo
  QueryKind kind = QueryKind::kExplainWhere;
  RankKey rank_key = RankKey::kConfidence;
  uint64_t top_k = 0;                   // 0 = unlimited
  std::vector<std::string> conditions;  // "avg_latency_ms > 41.3 (p99)"
  store::ScanStats discovery;           // WHERE region-discovery scan
  store::QuantileStats quantiles;       // pN resolution accounting
  size_t percentiles_resolved = 0;
  size_t matched_rows = 0;  // rows satisfying every WHERE condition
  std::vector<RegionFinding> findings;
  DescribeInfo describe;           // kDescribe only
  std::vector<std::string> notes;  // budget cuts, fallbacks, caveats
};

/// Downsamples `values` into a `width`-bucket sparkline; `timestamps`
/// (same length) drive the abnormal-region marker line.
SparklineRow RenderSparkline(const std::string& attribute,
                             std::span<const double> values,
                             std::span<const double> timestamps,
                             const tsdata::TimeRange& abnormal, size_t width);

/// Human rendering: a markdown incident report.
std::string RenderMarkdown(const IncidentReport& report);

/// Machine rendering. Floats are rounded to 1e-4 so serialized reports
/// are stable golden-file material.
common::JsonValue ReportToJson(const IncidentReport& report);

}  // namespace dbsherlock::query

#endif  // DBSHERLOCK_QUERY_REPORT_H_
