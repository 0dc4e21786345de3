#include "eval/service_replay.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/stats.h"
#include "common/trace.h"
#include "eval/experiment.h"
#include "service/client.h"
#include "service/server.h"

namespace dbsherlock::eval {

namespace {

using common::Result;
using common::Status;

bool Overlaps(const tsdata::RegionSpec& truth, double start, double end) {
  for (const tsdata::TimeRange& range : truth.ranges()) {
    if (start < range.end && range.start < end) return true;
  }
  return false;
}

}  // namespace

ServiceReplayOptions::ServiceReplayOptions() {
  // The streamed anomaly must end up well under the detector's 20%
  // small-cluster cutoff, so the normal stretch is 300 s against a 40 s
  // anomaly (~12% of the stream).
  gen.normal_duration_sec = 300.0;
  gen.seed = 20260805;
  service.ingest_workers = 4;
  service.diagnosis_workers = 2;
}

bool ServiceReplayResult::AllCorrect() const {
  if (tenants.empty()) return false;
  return std::all_of(tenants.begin(), tenants.end(),
                     [](const TenantReplayOutcome& t) {
                       return t.top1_correct && t.region_overlaps;
                     });
}

common::JsonValue ServiceReplayResult::ToJson() const {
  common::JsonValue::Object out;
  out["wall_sec"] = wall_sec;
  out["rows_per_sec"] = rows_per_sec;
  out["mean_append_us"] = mean_append_us;
  out["p99_append_us"] = p99_append_us;
  out["rows_acked"] = static_cast<double>(rows_acked);
  out["retries"] = static_cast<double>(retries);
  out["shed_rate"] = shed_rate;
  out["diagnoses_total"] = static_cast<double>(diagnoses_total);
  out["diagnoses_per_sec"] = diagnoses_per_sec;
  out["models_stored"] = static_cast<double>(models_stored);
  out["all_correct"] = AllCorrect();
  common::JsonValue::Array tenant_rows;
  for (const TenantReplayOutcome& t : tenants) {
    common::JsonValue::Object row;
    row["tenant"] = t.tenant;
    row["expected_cause"] = t.expected_cause;
    row["top_cause"] = t.top_cause;
    row["top1_correct"] = t.top1_correct;
    row["region_overlaps"] = t.region_overlaps;
    row["rows_sent"] = static_cast<double>(t.rows_sent);
    row["retries"] = static_cast<double>(t.retries);
    row["diagnoses"] = static_cast<double>(t.diagnoses);
    tenant_rows.push_back(common::JsonValue(std::move(row)));
  }
  out["tenants"] = common::JsonValue(std::move(tenant_rows));
  return common::JsonValue(std::move(out));
}

Result<ServiceReplayResult> RunServiceReplay(
    const ServiceReplayOptions& options,
    service::DurableModelStore* store) {
  TRACE_SPAN("eval.service_replay");
  const std::vector<simulator::AnomalyKind>& all =
      options.kinds.empty() ? simulator::AllAnomalyKinds() : options.kinds;
  if (all.empty() || options.num_tenants == 0) {
    return Status::InvalidArgument("replay needs tenants and anomaly kinds");
  }

  // Per-tenant datasets and the models taught for their classes.
  TenantWorkload workload = PlanTenants(
      all, options.num_tenants, options.gen, options.anomaly_duration_sec,
      options.anomaly_magnitude, options.train_sets_per_cause,
      options.service.explainer);
  const std::vector<TenantPlan>& plans = workload.tenants;
  const std::vector<core::CausalModel>& taught = workload.models;

  service::Service::Options service_options = options.service;
  service_options.store = store;
  service::Service service(service_options);
  service::Server::Options server_options;
  server_options.handler = service::ServiceHandler(service);
  server_options.max_connections = options.num_tenants + 4;
  auto server = service::Server::Start(server_options);
  if (!server.ok()) return server.status();

  // Teach the models through the real wire path.
  {
    auto teacher = service::Client::Connect("127.0.0.1", (*server)->port());
    if (!teacher.ok()) return teacher.status();
    for (const core::CausalModel& model : taught) {
      DBSHERLOCK_RETURN_NOT_OK((*teacher)->Teach(model));
    }
    (void)(*teacher)->Quit();
  }

  struct TenantRun {
    TenantReplayOutcome outcome;
    std::vector<double> append_us;
    Status status = Status::OK();
  };
  std::vector<TenantRun> runs(plans.size());

  double start_us = common::Tracer::NowMicros();
  {
    std::vector<std::thread> threads;
    threads.reserve(plans.size());
    for (size_t i = 0; i < plans.size(); ++i) {
      threads.emplace_back([&, i] {
        TenantRun& run = runs[i];
        const TenantPlan& plan = plans[i];
        run.outcome.tenant = plan.name;
        run.outcome.expected_cause = plan.cause;
        auto client =
            service::Client::Connect("127.0.0.1", (*server)->port());
        if (!client.ok()) {
          run.status = client.status();
          return;
        }
        run.status = (*client)->Hello(plan.name, plan.data.data.schema());
        if (!run.status.ok()) return;
        const tsdata::Dataset& data = plan.data.data;
        run.append_us.reserve(data.num_rows());
        std::vector<tsdata::Cell> cells;
        for (size_t row = 0; row < data.num_rows(); ++row) {
          data.RowCells(row, &cells);
          int attempts = 0;
          for (;;) {
            double t0 = common::Tracer::NowMicros();
            auto response = (*client)->Append(plan.name,
                                              data.timestamp(row), cells);
            run.append_us.push_back(common::Tracer::NowMicros() - t0);
            if (!response.ok()) {
              run.status = response.status();
              return;
            }
            if (response->kind == service::Response::Kind::kOk) break;
            if (response->kind == service::Response::Kind::kErr) {
              run.status = response->error;
              return;
            }
            ++run.outcome.retries;
            if (++attempts > options.max_append_retries) {
              run.status = Status::FailedPrecondition(
                  "append shed past the retry budget");
              return;
            }
            std::this_thread::sleep_for(std::chrono::milliseconds(
                std::max(1, response->retry_after_ms)));
          }
          ++run.outcome.rows_sent;
        }
        run.status = (*client)->Flush(plan.name);
        if (!run.status.ok()) return;
        auto diagnoses = (*client)->Diagnoses(plan.name);
        if (!diagnoses.ok()) {
          run.status = diagnoses.status();
          return;
        }
        const auto& list = diagnoses->as_array();
        run.outcome.diagnoses = list.size();
        for (const common::JsonValue& entry : list) {
          auto causes = entry.GetArray("causes");
          if (!causes.ok() || (*causes)->as_array().empty()) continue;
          auto top = (*causes)->as_array().front().GetString("cause");
          if (!top.ok()) continue;
          const common::JsonValue* region = entry.Find("region");
          double start = 0.0, end = 0.0;
          if (region != nullptr) {
            start = region->GetNumber("start").ValueOr(0.0);
            end = region->GetNumber("end").ValueOr(0.0);
          }
          bool overlaps =
              Overlaps(plan.data.regions.abnormal, start, end);
          if (run.outcome.top_cause.empty() || (*top == plan.cause &&
                                                overlaps)) {
            run.outcome.top_cause = *top;
            run.outcome.top1_correct = (*top == plan.cause);
            run.outcome.region_overlaps = overlaps;
          }
        }
        (void)(*client)->Quit();
      });
    }
    for (std::thread& t : threads) t.join();
  }
  double wall_us = common::Tracer::NowMicros() - start_us;

  ServiceReplayResult result;
  result.wall_sec = wall_us / 1e6;
  std::vector<double> all_lat;
  for (TenantRun& run : runs) {
    if (!run.status.ok()) {
      (*server)->Stop();
      service.Stop();
      return run.status;
    }
    result.rows_acked += run.outcome.rows_sent;
    result.retries += run.outcome.retries;
    all_lat.insert(all_lat.end(), run.append_us.begin(),
                   run.append_us.end());
    result.tenants.push_back(std::move(run.outcome));
  }
  result.mean_append_us = common::Mean(all_lat);
  result.p99_append_us = common::Quantile(all_lat, 0.99);
  result.rows_per_sec =
      result.wall_sec > 0
          ? static_cast<double>(result.rows_acked) / result.wall_sec
          : 0.0;
  result.shed_rate =
      (result.rows_acked + result.retries) > 0
          ? static_cast<double>(result.retries) /
                static_cast<double>(result.rows_acked + result.retries)
          : 0.0;
  result.diagnoses_total = static_cast<size_t>(service.total_diagnoses());
  result.diagnoses_per_sec =
      result.wall_sec > 0
          ? static_cast<double>(result.diagnoses_total) / result.wall_sec
          : 0.0;
  if (store != nullptr) result.models_stored = store->num_models();

  (*server)->Stop();
  service.Stop();
  return result;
}

}  // namespace dbsherlock::eval
