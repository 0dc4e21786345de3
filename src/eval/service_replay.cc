#include "eval/service_replay.h"

#include <algorithm>
#include <chrono>
#include <thread>

#include "common/trace.h"
#include "eval/experiment.h"
#include "service/client.h"
#include "service/server.h"
#include "service/service.h"
#include "simulator/anomaly.h"
#include "simulator/dataset_gen.h"

namespace dbsherlock::eval {

namespace {

using common::Result;
using common::Status;

constexpr size_t kTenants = 8;
/// The streamed anomaly must end up well under the detector's 20%
/// small-cluster cutoff, so the normal stretch is 300 s against a 40 s
/// anomaly (~12% of the stream).
constexpr double kNormalDurationSec = 300.0;
constexpr double kAnomalyDurationSec = 40.0;
constexpr double kAnomalyMagnitude = 1.0;
constexpr uint64_t kSeed = 20260805;
/// Training datasets taught per anomaly class. TEACH goes through
/// ModelRepository::Add, so two exercise the paper's merged models
/// (Figure 8) — noticeably better margins on confusable cause pairs.
constexpr size_t kTrainSetsPerCause = 2;
/// Per-row retry budget when backpressured.
constexpr int kMaxAppendRetries = 10000;

bool Overlaps(const tsdata::RegionSpec& truth, double start, double end) {
  for (const tsdata::TimeRange& range : truth.ranges()) {
    if (start < range.end && range.start < end) return true;
  }
  return false;
}

}  // namespace

Result<ServiceReplayResult> RunServiceReplay(
    service::DurableModelStore* store) {
  TRACE_SPAN("eval.service_replay");
  service::Service::Options service_options;
  service_options.ingest_workers = 4;
  service_options.diagnosis_workers = 2;
  service_options.store = store;

  // Per-tenant datasets and the models taught for their classes.
  simulator::DatasetGenOptions gen;
  gen.normal_duration_sec = kNormalDurationSec;
  gen.seed = kSeed;
  TenantWorkload workload = PlanTenants(
      simulator::AllAnomalyKinds(), kTenants, gen, kAnomalyDurationSec,
      kAnomalyMagnitude, kTrainSetsPerCause, service_options.explainer);
  const std::vector<TenantPlan>& plans = workload.tenants;
  const std::vector<core::CausalModel>& taught = workload.models;

  service::Service service(service_options);
  service::Server::Options server_options;
  server_options.handler = service::ServiceHandler(service);
  server_options.max_connections = kTenants + 4;
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
    Status status = Status::OK();
  };
  std::vector<TenantRun> runs(plans.size());

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
        std::vector<tsdata::Cell> cells;
        for (size_t row = 0; row < data.num_rows(); ++row) {
          data.RowCells(row, &cells);
          int attempts = 0;
          for (;;) {
            auto response = (*client)->Append(plan.name,
                                              data.timestamp(row), cells);
            if (!response.ok()) {
              run.status = response.status();
              return;
            }
            if (response->kind == service::Response::Kind::kOk) break;
            if (response->kind == service::Response::Kind::kErr) {
              run.status = response->error;
              return;
            }
            if (++attempts > kMaxAppendRetries) {
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

  ServiceReplayResult result;
  for (TenantRun& run : runs) {
    if (!run.status.ok()) {
      (*server)->Stop();
      service.Stop();
      return run.status;
    }
    result.rows_acked += run.outcome.rows_sent;
    result.tenants.push_back(std::move(run.outcome));
  }
  result.diagnoses_total = static_cast<size_t>(service.total_diagnoses());
  if (store != nullptr) result.models_stored = store->num_models();

  (*server)->Stop();
  service.Stop();
  return result;
}

}  // namespace dbsherlock::eval
