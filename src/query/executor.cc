#include "query/executor.h"

#include <algorithm>
#include <cmath>
#include <limits>
#include <span>

#include "common/metrics.h"
#include "common/trace.h"
#include "query/diagnostic.h"
#include "tsdata/region.h"

namespace dbsherlock::query {

namespace {

using common::Result;
using common::Status;

/// Matching rows closer than this merge into one candidate region.
constexpr double kMergeGapSec = 4.0;
/// At most this many findings are diagnosed (largest regions win).
constexpr size_t kMaxFindings = 3;
/// Sparkline rendering: bucket count and how many attributes to chart.
constexpr size_t kSparklineWidth = 48;
constexpr size_t kSparklineAttributes = 3;

std::string NumStr(double v) { return FormatNumber(std::round(v * 1e4) / 1e4); }

/// "avg_latency_ms > 41.31 (p99 of 7200 stored values)".
std::string ConditionDisplay(const CompiledCondition& c) {
  std::string out = c.attribute;
  out += " ";
  out += CompareOpText(c.source.op);
  out += " ";
  out += NumStr(c.threshold);
  if (c.source.threshold.is_percentile) {
    out += " (p" + FormatNumber(c.source.threshold.percentile) + ")";
  }
  return out;
}

/// Merges matching timestamps into candidate regions: a gap wider than
/// kMergeGapSec splits; each region's half-open end extends one median
/// intra-region step past its last match so that row stays inside.
std::vector<tsdata::TimeRange> MergeMatches(const std::vector<double>& ts) {
  std::vector<tsdata::TimeRange> out;
  size_t start = 0;
  for (size_t i = 1; i <= ts.size(); ++i) {
    if (i < ts.size() && ts[i] - ts[i - 1] <= kMergeGapSec) continue;
    std::vector<double> gaps;
    for (size_t j = start + 1; j < i; ++j) gaps.push_back(ts[j] - ts[j - 1]);
    double step = 1.0;
    if (!gaps.empty()) {
      std::nth_element(gaps.begin(), gaps.begin() + gaps.size() / 2,
                       gaps.end());
      step = std::max(gaps[gaps.size() / 2], 1e-9);
    }
    out.push_back({ts[start], ts[i - 1] + step});
    start = i;
  }
  return out;
}

size_t RowsInside(const std::vector<double>& ts,
                  const tsdata::TimeRange& range) {
  size_t n = 0;
  for (double t : ts) {
    if (range.Contains(t)) ++n;
  }
  return n;
}

struct FindingPlan {
  tsdata::TimeRange region;
  size_t matched = 0;
};

void BuildDescribe(const ExecutionContext& context, IncidentReport* report) {
  DescribeInfo& d = report->describe;
  const tsdata::Schema& schema = *context.schema;
  d.num_attributes = schema.num_attributes();
  for (size_t i = 0; i < schema.num_attributes(); ++i) {
    d.attributes.push_back(schema.attribute(i).name);
    if (schema.attribute(i).kind == tsdata::AttributeKind::kNumeric) {
      ++d.numeric_attributes;
    }
  }
  d.models = context.models;
  d.diagnoses = context.diagnoses;
  const store::TenantStore* history = context.history;
  if (history == nullptr) return;
  d.has_history = true;
  d.segments = history->num_segments();
  d.sealed_rows = history->sealed_rows();
  d.sealed_bytes = history->sealed_bytes();
  d.active_rows = history->active_rows();
  d.compression_ratio = history->compression_ratio();
  std::vector<store::SegmentInfo> manifest = history->Manifest();
  if (!manifest.empty()) {
    d.has_extent = true;
    d.min_ts = manifest.front().min_ts;
    d.max_ts = manifest.back().max_ts;
  }
}

/// Ranked causes → report entries with confidence margins. The margin is
/// the lead over the next cause; the last shown cause's margin is its
/// lead over the lambda bar it had to clear.
std::vector<RankedCauseEntry> WithMargins(
    const std::vector<core::RankedCause>& causes, double lambda) {
  std::vector<RankedCauseEntry> out;
  out.reserve(causes.size());
  for (size_t i = 0; i < causes.size(); ++i) {
    RankedCauseEntry entry;
    entry.cause = causes[i].cause;
    entry.confidence = causes[i].confidence;
    entry.suggested_action = causes[i].suggested_action;
    entry.margin = (i + 1 < causes.size())
                       ? causes[i].confidence - causes[i + 1].confidence
                       : std::max(causes[i].confidence - lambda, 0.0);
    out.push_back(std::move(entry));
  }
  return out;
}

}  // namespace

Result<IncidentReport> Execute(const CompiledQuery& query,
                               const ExecutionContext& context,
                               const ExecutorOptions& options) {
  TRACE_SPAN("query.execute");
  if (context.schema == nullptr) {
    return Status::Internal("Execute needs a schema");
  }
  IncidentReport report;
  report.kind = query.ast.kind;
  report.query = query.ast.Print();
  report.rank_key = query.ast.rank_key;
  report.top_k = query.ast.top_k;
  report.quantiles = query.quantile_stats;
  report.percentiles_resolved = query.percentiles_resolved;
  for (const CompiledCondition& c : query.conditions) {
    report.conditions.push_back(ConditionDisplay(c));
  }

  if (query.ast.kind == QueryKind::kDescribe) {
    BuildDescribe(context, &report);
    return report;
  }

  if (context.history == nullptr) {
    return Status::FailedPrecondition(
        "tenant has no durable history (daemon running without "
        "--store-dir?)");
  }
  if (context.explainer == nullptr) {
    return Status::Internal("Execute needs an explainer");
  }

  // --- Candidate regions --------------------------------------------------
  std::vector<FindingPlan> plans;
  if (query.ast.kind == QueryKind::kExplainWhere) {
    store::ScanOptions disc;
    disc.t0 = query.ast.t0;
    disc.t1 = query.ast.t1;
    disc.parallelism = options.parallelism;
    disc.max_rows = options.max_rows;
    for (const CompiledCondition& c : query.conditions) {
      disc.bounds.push_back(c.bound);
    }
    std::vector<double> matched;
    store::ScanVisitor visitor;
    visitor.on_chunk = [&matched](const tsdata::Dataset& chunk) {
      std::span<const double> ts = chunk.timestamps();
      matched.insert(matched.end(), ts.begin(), ts.end());
      return Status::OK();
    };
    visitor.on_reset = [&matched] { matched.clear(); };
    DBSHERLOCK_RETURN_NOT_OK(
        context.history->ScanVisit(disc, visitor, &report.discovery));
    report.matched_rows = matched.size();
    if (report.discovery.truncated) {
      report.notes.push_back(
          "discovery scan hit the row budget; regions after the cut were "
          "not considered — narrow BETWEEN or raise --max-range-rows");
    }
    if (matched.empty()) {
      report.notes.push_back("no rows matched the WHERE conditions in [" +
                             NumStr(query.ast.t0) + ", " +
                             NumStr(query.ast.t1) + ")");
      return report;
    }
    for (const tsdata::TimeRange& r : MergeMatches(matched)) {
      plans.push_back({r, RowsInside(matched, r)});
    }
    if (plans.size() > kMaxFindings) {
      std::stable_sort(plans.begin(), plans.end(),
                       [](const FindingPlan& a, const FindingPlan& b) {
                         return a.matched > b.matched;
                       });
      report.notes.push_back(
          "matched rows formed " + std::to_string(plans.size()) +
          " candidate regions; diagnosing the " +
          std::to_string(kMaxFindings) + " largest");
      plans.resize(kMaxFindings);
    }
    std::stable_sort(plans.begin(), plans.end(),
                     [](const FindingPlan& a, const FindingPlan& b) {
                       return a.region.start < b.region.start;
                     });
  } else {
    plans.push_back({{query.ast.t0, query.ast.t1}, 0});
  }

  // --- Diagnose each candidate -------------------------------------------
  auto& metrics = common::MetricsRegistry::Global();
  for (const FindingPlan& plan : plans) {
    std::string region_label = "[" + NumStr(plan.region.start) + ", " +
                               NumStr(plan.region.end) + ")";
    // The context window gives the explainer a normal-side baseline; at
    // least 30s per side even for sliver regions.
    double context_sec =
        std::max(plan.region.length() * options.range_context_factor, 30.0);
    store::ScanOptions window_options;
    window_options.t0 = plan.region.start - context_sec;
    window_options.t1 = plan.region.end + context_sec;
    window_options.parallelism = options.parallelism;
    window_options.max_rows = options.max_rows;
    store::ScanStats window_stats;
    auto window =
        context.history->ScanWithOptions(window_options, &window_stats);
    if (!window.ok()) return window.status();
    if (window_stats.truncated) {
      report.notes.push_back("finding " + region_label +
                             ": context window exceeded the row budget; "
                             "skipped (raise --max-range-rows)");
      continue;
    }
    if (window->num_rows() == 0) {
      report.notes.push_back("finding " + region_label +
                             ": no rows in the context window");
      continue;
    }

    RegionFinding finding;
    finding.region = plan.region;
    finding.window_rows = window->num_rows();

    // The detector refines the region; a region it does not confirm is
    // still diagnosed as-is, flagged.
    tsdata::DiagnosisRegions regions;
    regions.abnormal = tsdata::RegionSpec({plan.region});
    core::DetectionResult detected =
        core::DetectAnomalies(*window, options.detector);
    std::vector<tsdata::TimeRange> overlapping;
    for (const tsdata::TimeRange& r : detected.abnormal.ranges()) {
      if (r.start < plan.region.end && plan.region.start < r.end) {
        overlapping.push_back(r);
      }
    }
    finding.detector_confirmed = !overlapping.empty();
    if (finding.detector_confirmed &&
        query.ast.kind == QueryKind::kExplainWhere) {
      // Trust the detector's sharper edges over the raw match run, and
      // keep its guard-banded normal side.
      tsdata::DiagnosisRegions refined =
          core::DetectionToRegions(detected, *window, options.detector);
      regions.abnormal = tsdata::RegionSpec(std::move(overlapping));
      regions.normal = refined.normal;
    } else if (!finding.detector_confirmed) {
      report.notes.push_back("finding " + region_label +
                             ": the anomaly detector did not confirm "
                             "this region; diagnosing it as marked");
    }

    core::DiagnosisRuns runs =
        core::BuildDiagnosisRuns(tsdata::SplitRows(*window, regions));
    finding.abnormal_rows = runs.abnormal_rows;
    if (runs.abnormal_rows == 0) {
      report.notes.push_back("finding " + region_label +
                             ": no rows inside the abnormal region");
      continue;
    }
    if (runs.normal_rows == 0) {
      report.notes.push_back("finding " + region_label +
                             ": every window row is abnormal; widen "
                             "BETWEEN for a normal baseline");
      continue;
    }

    core::Explanation explanation = context.explainer->Diagnose(*window, runs);
    finding.predicates = explanation.predicates;
    finding.warnings = explanation.warnings;
    std::vector<core::RankedCause> causes =
        context.rank ? context.rank(*window, regions) : explanation.causes;
    finding.causes = WithMargins(
        causes, context.explainer->options().confidence_threshold);
    if (query.ast.rank_key == RankKey::kMargin) {
      std::stable_sort(finding.causes.begin(), finding.causes.end(),
                       [](const RankedCauseEntry& a,
                          const RankedCauseEntry& b) {
                         if (a.margin != b.margin) return a.margin > b.margin;
                         if (a.confidence != b.confidence) {
                           return a.confidence > b.confidence;
                         }
                         return a.cause < b.cause;
                       });
    }
    if (query.ast.top_k > 0 && finding.causes.size() > query.ast.top_k) {
      finding.causes.resize(query.ast.top_k);
    }

    // Sparkline context: the queried attributes first, then the winning
    // predicates' attributes.
    std::vector<std::string> chart;
    auto add_attr = [&chart](const std::string& name) {
      if (chart.size() >= kSparklineAttributes) return;
      if (std::find(chart.begin(), chart.end(), name) != chart.end()) return;
      chart.push_back(name);
    };
    for (const CompiledCondition& c : query.conditions) add_attr(c.attribute);
    for (const core::AttributeDiagnosis& p : finding.predicates) {
      add_attr(p.predicate.attribute);
    }
    for (const std::string& name : chart) {
      auto idx = context.schema->IndexOf(name);
      if (!idx.ok()) continue;
      if (context.schema->attribute(*idx).kind !=
          tsdata::AttributeKind::kNumeric) {
        continue;
      }
      tsdata::TimeRange marker = plan.region;
      if (!regions.abnormal.ranges().empty()) {
        marker = regions.abnormal.ranges().front();
      }
      SparklineRow row = RenderSparkline(
          name, window->column(*idx).numeric_values(), window->timestamps(),
          marker, kSparklineWidth);
      if (!row.cells.empty()) finding.context.push_back(std::move(row));
    }

    report.findings.push_back(std::move(finding));
    metrics.GetCounter("query.findings")->Increment();
  }

  if (report.findings.empty() && report.notes.empty()) {
    report.notes.push_back("nothing to explain");
  }
  return report;
}

}  // namespace dbsherlock::query
