#include "service/service.h"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <iterator>
#include <numeric>

#include "common/crc32.h"
#include "common/faultenv.h"
#include "common/metrics.h"
#include "common/simd/simd.h"
#include "common/strings.h"
#include "common/trace.h"
#include "query/compiler.h"
#include "query/executor.h"
#include "query/parser.h"
#include "query/report.h"
#include "core/model_io.h"
#include "tsdata/dataset_io.h"
#include "tsdata/region.h"

namespace dbsherlock::service {

namespace {

using common::Result;
using common::Status;

/// Pre-ack validation: a row is only acknowledged once we know the
/// monitor's Dataset::AppendRow cannot reject it for shape.
Status CheckCells(const tsdata::Schema& schema, double timestamp,
                  const std::vector<tsdata::Cell>& cells) {
  if (!std::isfinite(timestamp)) {
    return Status::InvalidArgument("non-finite timestamp");
  }
  if (cells.size() != schema.num_attributes()) {
    return Status::InvalidArgument(common::StrFormat(
        "row has %zu cells, schema has %zu attributes", cells.size(),
        schema.num_attributes()));
  }
  for (size_t i = 0; i < cells.size(); ++i) {
    bool is_number = std::holds_alternative<double>(cells[i]);
    bool want_number =
        schema.attribute(i).kind == tsdata::AttributeKind::kNumeric;
    if (is_number != want_number) {
      return Status::InvalidArgument(
          "cell kind mismatch for attribute '" + schema.attribute(i).name +
          "'");
    }
  }
  return Status::OK();
}

}  // namespace

Service::Service(Options options)
    : options_(std::move(options)),
      tenants_([&] {
        TenantManager::Options t = options_.tenants;
        t.monitor.explainer = options_.explainer;
        return t;
      }()),
      explainer_(options_.explainer) {
  auto& metrics = common::MetricsRegistry::Global();
  metrics.GetCounter("service.rows_acked");
  metrics.GetCounter("service.rows_shed");
  metrics.GetCounter("service.alerts");
  metrics.GetCounter("service.diagnoses");
  metrics.GetCounter("service.diagnoses_deduped");
  metrics.GetHistogram("service.append_us");
  metrics.GetHistogram("service.diagnosis_us");
  metrics.GetHistogram("service.diagnosis_queue_wait_us");

  size_t ingest = std::max<size_t>(1, options_.ingest_workers);
  size_t diag = std::max<size_t>(1, options_.diagnosis_workers);
  ingest_threads_.reserve(ingest);
  diag_threads_.reserve(diag);
  for (size_t i = 0; i < ingest; ++i) {
    ingest_threads_.emplace_back([this] { IngestWorker(); });
  }
  for (size_t i = 0; i < diag; ++i) {
    diag_threads_.emplace_back([this] { DiagnosisWorker(); });
  }
}

Service::~Service() { Stop(); }

Status Service::Hello(
    const std::string& tenant, const tsdata::Schema& schema,
    const std::optional<TenantManager::Retention>& retain) {
  if (!accepting_.load()) {
    return Status::FailedPrecondition("service is stopping");
  }
  auto result = tenants_.Hello(tenant, schema, retain);
  if (!result.ok()) return result.status();
  return Status::OK();
}

Result<Service::AppendOutcome> Service::Append(
    const std::string& tenant, double timestamp,
    std::vector<tsdata::Cell> cells, std::optional<uint64_t> client_seq) {
  common::ScopedLatency timer(
      common::MetricsRegistry::Global().GetHistogram("service.append_us"));
  if (!accepting_.load()) {
    return Status::FailedPrecondition("service is stopping");
  }
  auto found = tenants_.Find(tenant);
  if (!found.ok()) return found.status();
  std::shared_ptr<Tenant> t = std::move(*found);
  DBSHERLOCK_RETURN_NOT_OK(CheckCells(t->schema, timestamp, cells));

  AppendOutcome outcome;
  bool must_schedule = false;
  {
    std::lock_guard lock(t->mu);
    if (t->evicted) {
      return Status::NotFound("tenant '" + tenant +
                              "' was evicted; HELLO again");
    }
    if (client_seq.has_value() && *client_seq <= t->last_client_seq) {
      // A retry of a row already applied (the ack got lost, not the row):
      // acknowledge again without re-ingesting.
      outcome.accepted = true;
      outcome.replayed = true;
      outcome.seq = t->acked;
      total_replayed_.fetch_add(1, std::memory_order_relaxed);
      common::MetricsRegistry::Global()
          .GetCounter("service.rows_replayed")
          ->Increment();
      return outcome;
    }
    if (t->queue.size() >= options_.queue_capacity) {
      ++t->shed;
      total_shed_.fetch_add(1, std::memory_order_relaxed);
      common::MetricsRegistry::Global()
          .GetCounter("service.rows_shed")
          ->Increment();
      outcome.accepted = false;
      outcome.retry_after_ms = options_.retry_after_ms;
      return outcome;
    }
    t->queue.push_back(PendingRow{timestamp, std::move(cells)});
    outcome.accepted = true;
    outcome.seq = ++t->acked;
    if (client_seq.has_value()) t->last_client_seq = *client_seq;
    common::MetricsRegistry::Global()
        .GetGauge("service.queue_depth." + t->name)
        ->Set(static_cast<double>(t->queue.size()));
    if (!t->scheduled) {
      // Whoever flips scheduled pushes to ready_ — the single-drainer
      // hand-off that keeps monitor access serialized.
      t->scheduled = true;
      must_schedule = true;
    }
  }
  total_acked_.fetch_add(1, std::memory_order_relaxed);
  common::MetricsRegistry::Global()
      .GetCounter("service.rows_acked")
      ->Increment();
  if (must_schedule) {
    std::lock_guard lock(ready_mu_);
    ready_.push_back(std::move(t));
    ready_cv_.notify_one();
  }
  return outcome;
}

Status Service::Teach(const core::CausalModel& model) {
  if (options_.store == nullptr) {
    return Status::FailedPrecondition("service has no model store");
  }
  Status status = options_.store->Add(model);
  // Only durability failures flip the health state; a malformed model is
  // the caller's problem, not the daemon's.
  if (status.code() == common::StatusCode::kIoError ||
      (status.code() == common::StatusCode::kFailedPrecondition &&
       options_.store->failed())) {
    NoteDurabilityError("model-store", status);
  } else if (status.ok()) {
    NoteDurabilityOk();
  }
  return status;
}

void Service::IngestWorker() {
  for (;;) {
    std::shared_ptr<Tenant> tenant;
    {
      std::unique_lock lock(ready_mu_);
      ready_cv_.wait(lock,
                     [this] { return stop_ingest_ || !ready_.empty(); });
      if (ready_.empty()) return;  // stop requested and nothing queued
      tenant = std::move(ready_.front());
      ready_.pop_front();
    }
    DrainTenant(tenant);
  }
}

void Service::DrainTenant(const std::shared_ptr<Tenant>& tenant) {
  TRACE_SPAN("service.drain_tenant");
  auto& metrics = common::MetricsRegistry::Global();
  common::Gauge* depth =
      metrics.GetGauge("service.queue_depth." + tenant->name);
  for (;;) {
    std::vector<PendingRow> batch;
    {
      std::lock_guard lock(tenant->mu);
      size_t n = std::min(tenant->queue.size(), options_.ingest_batch);
      if (n == 0) {
        tenant->scheduled = false;
        tenant->drained.notify_all();
        return;
      }
      batch.reserve(n);
      std::move(tenant->queue.begin(), tenant->queue.begin() + n,
                std::back_inserter(batch));
      tenant->queue.erase(tenant->queue.begin(),
                          tenant->queue.begin() + n);
      tenant->in_process += n;
      depth->Set(static_cast<double>(tenant->queue.size()));
    }
    for (PendingRow& row : batch) {
      if (options_.process_delay_us > 0) {
        std::this_thread::sleep_for(
            std::chrono::microseconds(options_.process_delay_us));
      }
      // Safe without a lock: this worker holds the scheduled flag, so it
      // is the only thread touching the monitor.
      std::optional<core::StreamingMonitor::Alert> alert =
          tenant->monitor->Append(row.timestamp, row.cells);
      if (tenant->history != nullptr &&
          tenant->monitor->last_append_status().ok()) {
        // Tee monitor-accepted rows into the durable store; filtering on
        // the monitor's verdict keeps the store's strictly-increasing
        // timestamp invariant (late/duplicate rows were dropped above).
        Status persisted =
            tenant->history->Append(row.timestamp, row.cells);
        if (!persisted.ok()) {
          metrics.GetCounter("service.history_append_errors")->Increment();
          NoteDurabilityError(("history:" + tenant->name).c_str(),
                              persisted);
        } else {
          NoteDurabilityOk();
        }
      }
      if (alert.has_value()) {
        total_alerts_.fetch_add(1, std::memory_order_relaxed);
        metrics.GetCounter("service.alerts")->Increment();
        EnqueueDiagnosis(tenant, *alert, tenant->monitor->window());
      }
    }
    {
      std::lock_guard lock(tenant->mu);
      tenant->in_process -= batch.size();
      tenant->processed += batch.size();
      tenant->drained.notify_all();
    }
  }
}

void Service::EnqueueDiagnosis(const std::shared_ptr<Tenant>& tenant,
                               const core::StreamingMonitor::Alert& alert,
                               const tsdata::Dataset& window) {
  {
    std::lock_guard lock(tenant->diag_mu);
    if (alert.region.start < tenant->diag_covered_until) {
      // A job covering this span is already queued, running, or done;
      // diagnosing the overlap again would only duplicate the report.
      ++tenant->diag_deduped;
      total_deduped_.fetch_add(1, std::memory_order_relaxed);
      common::MetricsRegistry::Global()
          .GetCounter("service.diagnoses_deduped")
          ->Increment();
      return;
    }
    tenant->diag_covered_until =
        std::max(tenant->diag_covered_until, alert.region.end);
    ++tenant->diag_pending;
  }
  DiagnosisJob job;
  job.tenant = tenant;
  job.region = alert.region;
  job.raised_at = alert.raised_at;
  job.alert_us = common::Tracer::NowMicros();
  job.window = window;  // deep copy while the drain worker owns the monitor
  {
    std::lock_guard lock(diag_queue_mu_);
    diag_queue_.push_back(std::move(job));
    diag_cv_.notify_one();
  }
}

void Service::DiagnosisWorker() {
  std::unique_lock lock(diag_queue_mu_);
  for (;;) {
    // First job whose tenant is under its concurrency cap. Lock order:
    // diag_queue_mu_ (held) -> tenant->diag_mu, never the reverse.
    size_t pick = diag_queue_.size();
    for (size_t i = 0; i < diag_queue_.size(); ++i) {
      std::lock_guard tenant_lock(diag_queue_[i].tenant->diag_mu);
      if (diag_queue_[i].tenant->diag_in_flight <
          std::max<size_t>(1, options_.per_tenant_diagnosis_cap)) {
        pick = i;
        break;
      }
    }
    if (pick == diag_queue_.size()) {
      if (stop_diag_ && diag_queue_.empty()) return;
      // Either nothing queued or every job is capped; a completion or a
      // new job notifies.
      diag_cv_.wait(lock);
      continue;
    }
    DiagnosisJob job = std::move(diag_queue_[pick]);
    diag_queue_.erase(diag_queue_.begin() +
                      static_cast<std::ptrdiff_t>(pick));
    {
      std::lock_guard tenant_lock(job.tenant->diag_mu);
      --job.tenant->diag_pending;
      ++job.tenant->diag_in_flight;
    }
    lock.unlock();
    RunDiagnosis(std::move(job));
    lock.lock();
  }
}

void Service::RunDiagnosis(DiagnosisJob job) {
  TRACE_SPAN("service.diagnose");
  auto& metrics = common::MetricsRegistry::Global();
  metrics.GetHistogram("service.diagnosis_queue_wait_us")
      ->Record(common::Tracer::NowMicros() - job.alert_us);

  core::Explanation explanation;
  {
    common::ScopedLatency timer(
        metrics.GetHistogram("service.diagnosis_us"));
    core::DetectionResult detection;
    detection.abnormal = tsdata::RegionSpec({job.region});
    tsdata::DiagnosisRegions regions = core::DetectionToRegions(
        detection, job.window, options_.explainer.detector_options);
    explanation = explainer_.Diagnose(job.window, regions);
    if (options_.store != nullptr) {
      tsdata::LabeledRows rows = tsdata::SplitRows(job.window, regions);
      explanation.causes =
          options_.store->Rank(job.window, rows,
                               options_.explainer.predicate_options,
                               options_.min_confidence);
    }
  }

  TenantDiagnosis result;
  result.region = job.region;
  result.explanation = std::move(explanation);
  result.latency_us = common::Tracer::NowMicros() - job.alert_us;
  {
    std::lock_guard lock(job.tenant->diag_mu);
    ++job.tenant->diag_completed;
    --job.tenant->diag_in_flight;
    job.tenant->diagnoses.push_back(std::move(result));
    job.tenant->diag_done.notify_all();
  }
  total_diagnoses_.fetch_add(1, std::memory_order_relaxed);
  metrics.GetCounter("service.diagnoses")->Increment();
  {
    // Wake workers parked on a capped tenant.
    std::lock_guard lock(diag_queue_mu_);
    diag_cv_.notify_all();
  }
}

Status Service::Flush(const std::string& tenant) {
  auto found = tenants_.Find(tenant);
  if (!found.ok()) return found.status();
  std::shared_ptr<Tenant> t = std::move(*found);
  {
    std::unique_lock lock(t->mu);
    t->drained.wait(lock, [&] {
      return t->queue.empty() && !t->scheduled && t->in_process == 0;
    });
  }
  {
    std::unique_lock lock(t->diag_mu);
    t->diag_done.wait(lock, [&] {
      return t->diag_pending == 0 && t->diag_in_flight == 0;
    });
  }
  return Status::OK();
}

Status Service::FlushAll() {
  for (const std::string& name : tenants_.Names()) {
    Status status = Flush(name);
    // A tenant evicted between Names() and Flush() is already idle.
    if (!status.ok() && status.code() != common::StatusCode::kNotFound) {
      return status;
    }
  }
  return Status::OK();
}

Result<common::JsonValue> Service::DiagnosesJson(const std::string& tenant) {
  auto found = tenants_.Find(tenant);
  if (!found.ok()) return found.status();
  std::shared_ptr<Tenant> t = std::move(*found);
  common::JsonValue::Array out;
  std::lock_guard lock(t->diag_mu);
  for (const TenantDiagnosis& d : t->diagnoses) {
    common::JsonValue::Object entry;
    common::JsonValue::Object region;
    region["start"] = d.region.start;
    region["end"] = d.region.end;
    entry["region"] = common::JsonValue(std::move(region));
    common::JsonValue::Array causes;
    for (const core::RankedCause& c : d.explanation.causes) {
      common::JsonValue::Object cause;
      cause["cause"] = c.cause;
      cause["confidence"] = c.confidence;
      if (!c.suggested_action.empty()) {
        cause["action"] = c.suggested_action;
      }
      causes.push_back(common::JsonValue(std::move(cause)));
    }
    entry["causes"] = common::JsonValue(std::move(causes));
    entry["predicates"] = d.explanation.PredicatesToString();
    entry["latency_us"] = d.latency_us;
    out.push_back(common::JsonValue(std::move(entry)));
  }
  return common::JsonValue(std::move(out));
}

namespace {

/// Scan-side observability for QUERY/DIAGNOSE_RANGE responses: how much
/// the zone maps pruned.
common::JsonValue ScanStatsJson(const store::ScanStats& stats) {
  common::JsonValue::Object scan;
  scan["segments"] = static_cast<double>(stats.segments_total);
  scan["segments_skipped_time"] =
      static_cast<double>(stats.segments_skipped_time);
  scan["segments_skipped_zone"] =
      static_cast<double>(stats.segments_skipped_zone);
  scan["segments_decoded"] = static_cast<double>(stats.segments_decoded);
  return common::JsonValue(std::move(scan));
}

}  // namespace

Result<common::JsonValue> Service::QueryJson(
    const std::string& tenant, double t0, double t1,
    const std::vector<store::AttributeBound>& bounds) {
  auto& metrics = common::MetricsRegistry::Global();
  metrics.GetCounter("service.queries")->Increment();
  auto found = tenants_.Find(tenant);
  if (!found.ok()) return found.status();
  std::shared_ptr<Tenant> t = std::move(*found);
  if (t->history == nullptr) {
    return Status::FailedPrecondition(
        "history store not configured (start dbsherlockd with --store-dir)");
  }
  store::ScanOptions scan;
  scan.t0 = t0;
  scan.t1 = t1;
  scan.bounds = bounds;
  scan.max_rows = options_.max_query_rows;
  store::ScanStats stats;
  auto scanned = t->history->ScanWithOptions(scan, &stats);
  if (!scanned.ok()) return scanned.status();

  common::JsonValue::Object out;
  out["tenant"] = tenant;
  out["t0"] = t0;
  out["t1"] = t1;
  if (stats.truncated) out["truncated"] = true;
  out["rows"] = static_cast<double>(scanned->num_rows());
  out["csv"] = tsdata::DatasetToCsv(*scanned);
  out["scan"] = ScanStatsJson(stats);
  return common::JsonValue(std::move(out));
}

Result<common::JsonValue> Service::DiagnoseRangeJson(
    const std::string& tenant, double t0, double t1) {
  TRACE_SPAN("service.diagnose_range");
  auto& metrics = common::MetricsRegistry::Global();
  metrics.GetCounter("service.range_diagnoses")->Increment();
  common::ScopedLatency timer(
      metrics.GetHistogram("service.range_diagnosis_us"));
  auto found = tenants_.Find(tenant);
  if (!found.ok()) return found.status();
  std::shared_ptr<Tenant> t = std::move(*found);
  if (t->history == nullptr) {
    return Status::FailedPrecondition(
        "history store not configured (start dbsherlockd with --store-dir)");
  }
  // The user designated [t0, t1) as abnormal (the paper's workflow); pad
  // the scan with surrounding context so predicate separation has normal
  // rows to compare against. The window is stitched incrementally from
  // the store's pushdown scan — segments outside the padded range are
  // never read — and the row cap stops a hostile range before it can
  // inflate the daemon's memory.
  double context = (t1 - t0) * std::max(0.0, options_.range_context_factor);
  store::ScanOptions scan;
  scan.t0 = t0 - context;
  scan.t1 = t1 + context;
  scan.max_rows = options_.max_range_rows;
  tsdata::Dataset window(t->history->schema());
  store::ScanVisitor visitor;
  visitor.on_chunk = [&](const tsdata::Dataset& chunk) {
    std::vector<size_t> rows(chunk.num_rows());
    std::iota(rows.begin(), rows.end(), size_t{0});
    return window.AppendRows(chunk, rows);
  };
  visitor.on_reset = [&] { window = tsdata::Dataset(t->history->schema()); };
  store::ScanStats stats;
  DBSHERLOCK_RETURN_NOT_OK(t->history->ScanVisit(scan, visitor, &stats));
  if (stats.truncated) {
    metrics.GetCounter("service.range_diagnoses_capped")->Increment();
    return Status::ResourceExhausted(common::StrFormat(
        "range window holds more than %zu stored rows "
        "(--max-range-rows); narrow [t0, t1) or raise the cap",
        options_.max_range_rows));
  }
  size_t abnormal_rows = window.RowsInTimeRange(t0, t1).size();
  if (abnormal_rows == 0) {
    return Status::NotFound(common::StrFormat(
        "no stored rows in [%g, %g) for tenant %s", t0, t1,
        tenant.c_str()));
  }
  if (window.num_rows() == abnormal_rows) {
    return Status::FailedPrecondition(
        "no normal context rows around the region; widen retention or "
        "range_context_factor");
  }

  tsdata::DiagnosisRegions regions;
  regions.abnormal = tsdata::RegionSpec({tsdata::TimeRange{t0, t1}});
  core::Explanation explanation = explainer_.Diagnose(window, regions);
  if (options_.store != nullptr) {
    tsdata::LabeledRows rows = tsdata::SplitRows(window, regions);
    explanation.causes =
        options_.store->Rank(window, rows,
                             options_.explainer.predicate_options,
                             options_.min_confidence);
  }

  common::JsonValue::Object out;
  common::JsonValue::Object region;
  region["start"] = t0;
  region["end"] = t1;
  out["region"] = common::JsonValue(std::move(region));
  out["rows"] = static_cast<double>(window.num_rows());
  out["scan"] = ScanStatsJson(stats);
  common::JsonValue::Array causes;
  for (const core::RankedCause& c : explanation.causes) {
    common::JsonValue::Object cause;
    cause["cause"] = c.cause;
    cause["confidence"] = c.confidence;
    if (!c.suggested_action.empty()) cause["action"] = c.suggested_action;
    causes.push_back(common::JsonValue(std::move(cause)));
  }
  out["causes"] = common::JsonValue(std::move(causes));
  out["predicates"] = explanation.PredicatesToString();
  return common::JsonValue(std::move(out));
}

Result<common::JsonValue> Service::ExplainQueryJson(
    const std::string& tenant, const std::string& query_text) {
  TRACE_SPAN("service.explain_query");
  auto& metrics = common::MetricsRegistry::Global();
  metrics.GetCounter("service.explain_queries")->Increment();
  common::ScopedLatency timer(
      metrics.GetHistogram("service.explain_query_us"));
  auto found = tenants_.Find(tenant);
  if (!found.ok()) return found.status();
  std::shared_ptr<Tenant> t = std::move(*found);

  auto parsed = query::Parse(query_text);
  if (!parsed.ok()) return parsed.status();
  if (parsed->kind == query::QueryKind::kDescribe &&
      !parsed->tenant.empty() && parsed->tenant != tenant) {
    return Status::InvalidArgument("DESCRIBE tenant '" + parsed->tenant +
                                   "' does not match the request tenant '" +
                                   tenant + "'");
  }

  query::CompileContext compile_context;
  compile_context.schema = &t->schema;
  compile_context.history = t->history.get();
  auto compiled = query::Compile(*parsed, query_text, compile_context);
  if (!compiled.ok()) return compiled.status();

  query::ExecutionContext exec_context;
  exec_context.schema = &t->schema;
  exec_context.history = t->history.get();
  exec_context.explainer = &explainer_;
  if (options_.store != nullptr) {
    // Rank against the fleet-wide durable corpus, not the explainer's
    // own (empty) repository — same path as background diagnoses.
    exec_context.rank = [this](const tsdata::Dataset& window,
                               const tsdata::DiagnosisRegions& regions) {
      tsdata::LabeledRows rows = tsdata::SplitRows(window, regions);
      return options_.store->Rank(window, rows,
                                  options_.explainer.predicate_options,
                                  options_.min_confidence);
    };
    exec_context.models = options_.store->num_models();
  }
  {
    std::lock_guard lock(t->diag_mu);
    exec_context.diagnoses = t->diag_completed;
  }

  query::ExecutorOptions exec_options;
  exec_options.max_rows = options_.max_range_rows;
  exec_options.range_context_factor =
      std::max(0.0, options_.range_context_factor);
  exec_options.detector = options_.explainer.detector_options;
  exec_options.parallelism = options_.explainer.predicate_options.parallelism;
  auto report = query::Execute(*compiled, exec_context, exec_options);
  if (!report.ok()) return report.status();
  report->tenant = tenant;

  common::JsonValue json = query::ReportToJson(*report);
  json.as_object()["markdown"] = query::RenderMarkdown(*report);
  return json;
}

void Service::NoteDurabilityError(const char* path,
                                  const common::Status& status) {
  std::lock_guard lock(health_mu_);
  if (health_state_ == HealthState::kDraining) return;
  if (health_state_ != HealthState::kDegraded) {
    health_state_ = HealthState::kDegraded;
    ++degraded_entries_;
    common::MetricsRegistry::Global()
        .GetCounter("service.degraded_entries")
        ->Increment();
  }
  health_reason_ = std::string(path) + ": " + status.ToString();
  common::MetricsRegistry::Global().GetGauge("service.degraded")->Set(1.0);
}

void Service::NoteDurabilityOk() {
  std::lock_guard lock(health_mu_);
  if (health_state_ != HealthState::kDegraded) return;
  health_state_ = HealthState::kOk;
  health_reason_.clear();
  common::MetricsRegistry::Global().GetGauge("service.degraded")->Set(0.0);
}

Service::HealthState Service::health() const {
  std::lock_guard lock(health_mu_);
  return health_state_;
}

common::JsonValue Service::HealthJson() const {
  std::lock_guard lock(health_mu_);
  common::JsonValue::Object out;
  switch (health_state_) {
    case HealthState::kOk:
      out["state"] = std::string("ok");
      break;
    case HealthState::kDegraded:
      out["state"] = std::string("degraded");
      break;
    case HealthState::kDraining:
      out["state"] = std::string("draining");
      break;
  }
  if (!health_reason_.empty()) out["reason"] = health_reason_;
  out["degraded_entries"] = static_cast<double>(degraded_entries_);
  return common::JsonValue(std::move(out));
}

common::JsonValue Service::StatsJson() const {
  common::JsonValue::Object out;
  // The kernel ISA the diagnosis engine dispatched to (DESIGN.md §12) —
  // lets an operator confirm what a given deployment actually runs.
  out["simd_isa"] = std::string(
      common::simd::IsaName(common::simd::ActiveIsa()));
  out["acked"] = static_cast<double>(total_acked_.load());
  out["shed"] = static_cast<double>(total_shed_.load());
  out["alerts"] = static_cast<double>(total_alerts_.load());
  out["diagnoses"] = static_cast<double>(total_diagnoses_.load());
  out["diagnoses_deduped"] = static_cast<double>(total_deduped_.load());
  out["replayed"] = static_cast<double>(total_replayed_.load());
  out["health"] = HealthJson();
  if (common::faultenv::Enabled()) {
    common::JsonValue::Object faults;
    faults["schedule"] = common::faultenv::ActiveSpec();
    faults["injected"] =
        static_cast<double>(common::faultenv::InjectedCount());
    faults["sites"] = common::faultenv::StatsJson();
    out["faultenv"] = common::JsonValue(std::move(faults));
  }
  auto& tenants = const_cast<TenantManager&>(tenants_);
  common::JsonValue::Object per_tenant;
  for (const std::string& name : tenants.Names()) {
    auto found = tenants.Find(name);
    if (!found.ok()) continue;
    const std::shared_ptr<Tenant>& t = *found;
    common::JsonValue::Object entry;
    {
      std::lock_guard lock(t->mu);
      entry["acked"] = static_cast<double>(t->acked);
      entry["processed"] = static_cast<double>(t->processed);
      entry["shed"] = static_cast<double>(t->shed);
      entry["queue_depth"] = static_cast<double>(t->queue.size());
    }
    {
      std::lock_guard lock(t->diag_mu);
      entry["diagnoses"] = static_cast<double>(t->diag_completed);
      entry["diagnoses_deduped"] = static_cast<double>(t->diag_deduped);
    }
    if (t->history != nullptr) {
      common::JsonValue::Object history;
      history["segments"] = static_cast<double>(t->history->num_segments());
      history["sealed_rows"] =
          static_cast<double>(t->history->sealed_rows());
      history["sealed_bytes"] =
          static_cast<double>(t->history->sealed_bytes());
      history["active_rows"] =
          static_cast<double>(t->history->active_rows());
      history["compression_ratio"] = t->history->compression_ratio();
      history["retention_deletes"] =
          static_cast<double>(t->history->retention_deletes());
      history["scans"] = static_cast<double>(t->history->scans_total());
      history["scan_segments_skipped"] =
          static_cast<double>(t->history->scan_segments_skipped());
      history["scan_segments_decoded"] =
          static_cast<double>(t->history->scan_segments_decoded());
      history["scan_retries"] =
          static_cast<double>(t->history->scan_retries());
      entry["history"] = common::JsonValue(std::move(history));
    }
    per_tenant[name] = common::JsonValue(std::move(entry));
  }
  out["tenants"] = common::JsonValue(std::move(per_tenant));
  out["evictions"] = static_cast<double>(tenants.evictions());
  if (options_.store != nullptr) {
    common::JsonValue::Object store;
    store["models"] = static_cast<double>(options_.store->num_models());
    store["wal_records"] =
        static_cast<double>(options_.store->wal_records());
    store["compactions"] =
        static_cast<double>(options_.store->compactions());
    out["store"] = common::JsonValue(std::move(store));
  }
  return common::JsonValue(std::move(out));
}

common::JsonValue Service::ModelsJson() const {
  if (options_.store == nullptr) {
    return common::JsonValue(common::JsonValue::Object{});
  }
  return core::RepositoryToJson(options_.store->SnapshotRepository());
}

common::JsonValue Service::ModelSyncJson(uint64_t since_seq) const {
  common::JsonValue::Object out;
  uint64_t last_seq = 0;
  common::JsonValue::Array models;
  if (options_.store != nullptr) {
    last_seq = options_.store->next_seq() - 1;
    if (last_seq > since_seq) {
      core::ModelRepository repo = options_.store->SnapshotRepository();
      models.reserve(repo.models().size());
      for (const core::CausalModel& model : repo.models()) {
        models.push_back(core::CausalModelToJson(model));
      }
    }
  }
  common::JsonValue models_json{std::move(models)};
  std::string text = models_json.Dump();
  out["last_seq"] = static_cast<double>(last_seq);
  out["crc"] = static_cast<double>(common::Crc32(text.data(), text.size()));
  out["models"] = std::move(models_json);
  return common::JsonValue(std::move(out));
}

void Service::Stop() {
  if (stopped_.exchange(true)) return;
  accepting_.store(false);
  {
    std::lock_guard lock(health_mu_);
    health_state_ = HealthState::kDraining;
    health_reason_.clear();
  }
  // Drain every acked row and in-flight diagnosis before the workers go:
  // Stop never discards acknowledged work.
  (void)FlushAll();
  {
    std::lock_guard lock(ready_mu_);
    stop_ingest_ = true;
    ready_cv_.notify_all();
  }
  for (std::thread& t : ingest_threads_) t.join();
  // Clean shutdown persists the active tail: only a hard kill can lose
  // unsealed rows.
  for (const std::string& name : tenants_.Names()) {
    auto found = tenants_.Find(name);
    if (found.ok() && (*found)->history != nullptr) {
      (void)(*found)->history->Seal();
    }
  }
  {
    std::lock_guard lock(diag_queue_mu_);
    stop_diag_ = true;
    diag_cv_.notify_all();
  }
  for (std::thread& t : diag_threads_) t.join();
}

}  // namespace dbsherlock::service
