// Service <-> TenantStore integration: the ingest tee into per-tenant
// history, QUERY/DIAGNOSE_RANGE over rows that already left the sliding
// window, STATS reporting, HELLO RETAIN, and restart rehydration.

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/random.h"
#include "service/service.h"

namespace dbsherlock::service {
namespace {

using common::StatusCode;

tsdata::Schema TwoNumeric() {
  return tsdata::Schema({{"latency", tsdata::AttributeKind::kNumeric},
                         {"cpu", tsdata::AttributeKind::kNumeric}});
}

std::unique_ptr<DurableModelStore> VolatileStore() {
  auto store = DurableModelStore::Open({});
  EXPECT_TRUE(store.ok());
  return std::move(*store);
}

std::string HistoryRoot(const std::string& name) {
  std::string dir = testing::TempDir() + "/dbsherlock_hist_" +
                    std::to_string(getpid()) + "_" + name;
  std::string cmd = "rm -rf '" + dir + "'";
  (void)std::system(cmd.c_str());
  return dir;
}

Service::Options StoreOptions(DurableModelStore* store,
                              const std::string& root) {
  Service::Options options;
  options.store = store;
  options.tenants.store.dir = root;
  options.tenants.store.seal_rows = 32;
  options.tenants.store.fsync_on_seal = false;
  return options;
}

void AppendBlocking(Service* service, const std::string& tenant, double ts,
                    std::vector<tsdata::Cell> cells) {
  for (;;) {
    auto outcome = service->Append(tenant, ts, cells);
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    if (outcome->accepted) return;
    std::this_thread::sleep_for(
        std::chrono::milliseconds(outcome->retry_after_ms));
  }
}

TEST(StoreServiceTest, IngestTeesIntoHistoryAndQueryReadsItBack) {
  auto model_store = VolatileStore();
  Service::Options options =
      StoreOptions(model_store.get(), HistoryRoot("tee"));
  Service service(options);
  ASSERT_TRUE(service.Hello("t0", TwoNumeric()).ok());
  for (int t = 0; t < 100; ++t) {
    AppendBlocking(&service, "t0", t, {10.0 + t, 40.0});
  }
  ASSERT_TRUE(service.Flush("t0").ok());

  auto rows = service.QueryJson("t0", 20.0, 30.0);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->GetNumber("rows").ValueOr(-1.0), 10.0);
  std::string csv = rows->GetString("csv").ValueOr("");
  EXPECT_NE(csv.find("latency"), std::string::npos);
  EXPECT_NE(csv.find("\n20,30,40"), std::string::npos);
  EXPECT_EQ(rows->Find("truncated"), nullptr);
  service.Stop();
}

TEST(StoreServiceTest, QueryWithoutStoreDirFailsCleanly) {
  auto model_store = VolatileStore();
  Service::Options options;
  options.store = model_store.get();  // no store.dir
  Service service(options);
  ASSERT_TRUE(service.Hello("t0", TwoNumeric()).ok());
  EXPECT_EQ(service.QueryJson("t0", 0.0, 1.0).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(service.DiagnoseRangeJson("t0", 0.0, 1.0).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(service.QueryJson("ghost", 0.0, 1.0).status().code(),
            StatusCode::kNotFound);
  service.Stop();
}

TEST(StoreServiceTest, QueryTruncatesOversizedRanges) {
  auto model_store = VolatileStore();
  Service::Options options =
      StoreOptions(model_store.get(), HistoryRoot("trunc"));
  options.max_query_rows = 25;
  Service service(options);
  ASSERT_TRUE(service.Hello("t0", TwoNumeric()).ok());
  for (int t = 0; t < 100; ++t) {
    AppendBlocking(&service, "t0", t, {10.0, 40.0});
  }
  ASSERT_TRUE(service.Flush("t0").ok());
  auto rows = service.QueryJson("t0", 0.0, 1000.0);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->GetNumber("rows").ValueOr(-1.0), 25.0);
  ASSERT_NE(rows->Find("truncated"), nullptr);
  service.Stop();
}

TEST(StoreServiceTest, StatsReportHistoryBlock) {
  auto model_store = VolatileStore();
  Service::Options options =
      StoreOptions(model_store.get(), HistoryRoot("stats"));
  Service service(options);
  ASSERT_TRUE(service.Hello("t0", TwoNumeric()).ok());
  for (int t = 0; t < 80; ++t) {
    AppendBlocking(&service, "t0", t, {10.0, 40.0});
  }
  ASSERT_TRUE(service.Flush("t0").ok());
  common::JsonValue stats = service.StatsJson();
  const common::JsonValue* tenant = stats.Find("tenants")->Find("t0");
  ASSERT_NE(tenant, nullptr);
  const common::JsonValue* history = tenant->Find("history");
  ASSERT_NE(history, nullptr);
  EXPECT_EQ(history->GetNumber("segments").ValueOr(-1.0), 2.0);  // 80/32
  EXPECT_EQ(history->GetNumber("sealed_rows").ValueOr(-1.0), 64.0);
  EXPECT_EQ(history->GetNumber("active_rows").ValueOr(-1.0), 16.0);
  EXPECT_GT(history->GetNumber("compression_ratio").ValueOr(0.0), 0.0);
  EXPECT_LT(history->GetNumber("compression_ratio").ValueOr(2.0), 1.0);
  service.Stop();
}

TEST(StoreServiceTest, DiagnoseRangeFindsCauseAfterRowsLeftTheWindow) {
  auto model_store = VolatileStore();
  Service::Options options =
      StoreOptions(model_store.get(), HistoryRoot("range"));
  // Small window: the anomaly at t in [300, 340) will be long gone by
  // t = 1000 — only the history store still has it.
  options.tenants.monitor.window_rows = 100;
  Service service(options);
  ASSERT_TRUE(service.Hello("t0", TwoNumeric()).ok());

  core::CausalModel model;
  model.cause = "CPU hog";
  model.suggested_action = "throttle the batch job";
  model.predicates = {
      core::Predicate{
          "cpu", core::PredicateType::kGreaterThan, 70.0, 0.0, {}},
      core::Predicate{
          "latency", core::PredicateType::kGreaterThan, 50.0, 0.0, {}}};
  ASSERT_TRUE(service.Teach(model).ok());

  common::Pcg32 rng(42);
  for (int t = 0; t < 1000; ++t) {
    bool ab = t >= 300 && t < 340;
    double latency = (ab ? 90.0 : 10.0) + rng.NextGaussian(0.0, 1.5);
    double cpu = (ab ? 95.0 : 40.0) + rng.NextGaussian(0.0, 2.0);
    AppendBlocking(&service, "t0", t, {latency, cpu});
  }
  ASSERT_TRUE(service.Flush("t0").ok());

  // The live window is [900, 1000): prove the anomaly left it.
  auto diagnosis = service.DiagnoseRangeJson("t0", 300.0, 340.0);
  ASSERT_TRUE(diagnosis.ok()) << diagnosis.status().ToString();
  auto causes = diagnosis->GetArray("causes");
  ASSERT_TRUE(causes.ok());
  ASSERT_FALSE((*causes)->as_array().empty());
  EXPECT_EQ((*causes)->as_array().front().GetString("cause").ValueOr(""),
            "CPU hog");
  EXPECT_EQ((*causes)->as_array().front().GetString("action").ValueOr(""),
            "throttle the batch job");
  service.Stop();
}

TEST(StoreServiceTest, OneLambdaRanksAndFloorsMargins) {
  // One lambda: explainer.confidence_threshold (what --lambda sets) is the
  // bar for every ranking and the floor of the last cause's DQL margin.
  auto model_store = VolatileStore();
  Service::Options options =
      StoreOptions(model_store.get(), HistoryRoot("lambda"));
  options.explainer.confidence_threshold = 50.0;
  Service service(options);
  ASSERT_TRUE(service.Hello("t0", TwoNumeric()).ok());
  core::CausalModel hog;
  hog.cause = "CPU hog";
  hog.predicates = {
      core::Predicate{
          "cpu", core::PredicateType::kGreaterThan, 70.0, 0.0, {}},
      core::Predicate{
          "latency", core::PredicateType::kGreaterThan, 50.0, 0.0, {}}};
  ASSERT_TRUE(service.Teach(hog).ok());
  // Half a fit: the attribute this tenant lacks contributes 0, so the
  // confidence is at most 50 (half a perfect fit), well above 20, and
  // never clears lambda = 50.
  core::CausalModel partial;
  partial.cause = "Partial fit";
  partial.predicates = {
      core::Predicate{
          "cpu", core::PredicateType::kGreaterThan, 70.0, 0.0, {}},
      core::Predicate{
          "absent_metric", core::PredicateType::kGreaterThan, 1.0, 0.0, {}}};
  ASSERT_TRUE(service.Teach(partial).ok());
  common::Pcg32 rng(42);
  for (int t = 0; t < 450; ++t) {
    bool ab = t >= 300 && t < 340;
    double latency = (ab ? 90.0 : 10.0) + rng.NextGaussian(0.0, 1.5);
    double cpu = (ab ? 95.0 : 40.0) + rng.NextGaussian(0.0, 2.0);
    AppendBlocking(&service, "t0", t, {latency, cpu});
  }
  ASSERT_TRUE(service.Flush("t0").ok());

  auto report = service.ExplainQueryJson("t0", "EXPLAIN REGION 300 340");
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  auto findings = report->GetArray("findings");
  ASSERT_TRUE(findings.ok());
  ASSERT_FALSE((*findings)->as_array().empty());
  auto causes = (*findings)->as_array().front().GetArray("causes");
  ASSERT_TRUE(causes.ok());
  ASSERT_EQ((*causes)->as_array().size(), 1u) << report->Dump();
  const common::JsonValue& last = (*causes)->as_array().back();
  EXPECT_EQ(last.GetString("cause").ValueOr(""), "CPU hog");
  double confidence = last.GetNumber("confidence").ValueOr(0.0);
  EXPECT_GT(confidence, 50.0);
  EXPECT_NEAR(last.GetNumber("margin").ValueOr(-1.0), confidence - 50.0,
              1e-3);

  auto range = service.DiagnoseRangeJson("t0", 300.0, 340.0);
  ASSERT_TRUE(range.ok()) << range.status().ToString();
  auto ranked = range->GetArray("causes");
  ASSERT_TRUE(ranked.ok());
  ASSERT_EQ((*ranked)->as_array().size(), 1u) << range->Dump();
  EXPECT_EQ((*ranked)->as_array().front().GetString("cause").ValueOr(""),
            "CPU hog");
  service.Stop();
}

TEST(StoreServiceTest, DiagnoseRangeBuildsOneRunDecomposition) {
  // The explainer's predicates and the durable store's ranking read the
  // same DiagnosisRuns of the scanned window.
  auto model_store = VolatileStore();
  Service service(StoreOptions(model_store.get(), HistoryRoot("runs")));
  ASSERT_TRUE(service.Hello("t0", TwoNumeric()).ok());
  core::CausalModel hog;
  hog.cause = "CPU hog";
  hog.predicates = {core::Predicate{
      "cpu", core::PredicateType::kGreaterThan, 70.0, 0.0, {}}};
  ASSERT_TRUE(service.Teach(hog).ok());
  ASSERT_EQ(model_store->num_models(), 1u);
  common::Pcg32 rng(42);
  for (int t = 0; t < 450; ++t) {
    bool ab = t >= 300 && t < 340;
    double latency = (ab ? 90.0 : 10.0) + rng.NextGaussian(0.0, 1.5);
    double cpu = (ab ? 95.0 : 40.0) + rng.NextGaussian(0.0, 2.0);
    AppendBlocking(&service, "t0", t, {latency, cpu});
  }
  // Flush waits out background diagnoses, so nothing else builds runs.
  ASSERT_TRUE(service.Flush("t0").ok());

  common::Counter* built = common::MetricsRegistry::Global().GetCounter(
      "column_spans.runs_built");
  uint64_t before = built->value();
  auto range = service.DiagnoseRangeJson("t0", 300.0, 340.0);
  ASSERT_TRUE(range.ok()) << range.status().ToString();
  EXPECT_EQ(built->value() - before, 1u);
  auto causes = range->GetArray("causes");
  ASSERT_TRUE(causes.ok());
  ASSERT_FALSE((*causes)->as_array().empty()) << range->Dump();
  EXPECT_EQ((*causes)->as_array().front().GetString("cause").ValueOr(""),
            "CPU hog");
  service.Stop();
}

TEST(StoreServiceTest, DiagnoseRangeRejectsEmptyRegions) {
  auto model_store = VolatileStore();
  Service::Options options =
      StoreOptions(model_store.get(), HistoryRoot("rangeedge"));
  Service service(options);
  ASSERT_TRUE(service.Hello("t0", TwoNumeric()).ok());
  for (int t = 0; t < 50; ++t) {
    AppendBlocking(&service, "t0", t, {10.0, 40.0});
  }
  ASSERT_TRUE(service.Flush("t0").ok());
  // No stored rows inside the region.
  EXPECT_EQ(service.DiagnoseRangeJson("t0", 5000.0, 5100.0).status().code(),
            StatusCode::kNotFound);
  service.Stop();
}

TEST(StoreServiceTest, RestartRehydratesWindowAndHistorySurvives) {
  auto model_store = VolatileStore();
  std::string root = HistoryRoot("restart");
  {
    Service service(StoreOptions(model_store.get(), root));
    ASSERT_TRUE(service.Hello("t0", TwoNumeric()).ok());
    for (int t = 0; t < 100; ++t) {
      AppendBlocking(&service, "t0", t, {10.0 + t, 40.0});
    }
    service.Stop();  // clean shutdown seals the active tail
  }
  Service service(StoreOptions(model_store.get(), root));
  ASSERT_TRUE(service.Hello("t0", TwoNumeric()).ok());
  // The monitor window was pre-filled from history (safe to peek: no
  // drain is in flight before the first append).
  auto tenant = service.tenants().Find("t0");
  ASSERT_TRUE(tenant.ok());
  EXPECT_EQ((*tenant)->monitor->window_size(), 100u);
  // All 100 pre-restart rows are queryable.
  auto rows = service.QueryJson("t0", 0.0, 1000.0);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->GetNumber("rows").ValueOr(-1.0), 100.0);
  // Ingest continues seamlessly after the recovered history...
  AppendBlocking(&service, "t0", 100.0, {110.0, 40.0});
  ASSERT_TRUE(service.Flush("t0").ok());
  auto more = service.QueryJson("t0", 0.0, 1000.0);
  ASSERT_TRUE(more.ok());
  EXPECT_EQ(more->GetNumber("rows").ValueOr(-1.0), 101.0);
  // ...and a stale (pre-restart) timestamp is dropped by the monitor
  // without landing in history.
  AppendBlocking(&service, "t0", 50.0, {1.0, 1.0});
  ASSERT_TRUE(service.Flush("t0").ok());
  auto after = service.QueryJson("t0", 0.0, 1000.0);
  ASSERT_TRUE(after.ok());
  EXPECT_EQ(after->GetNumber("rows").ValueOr(-1.0), 101.0);
  service.Stop();
}

TEST(StoreServiceTest, HelloRetainConfiguresRetention) {
  auto model_store = VolatileStore();
  Service::Options options =
      StoreOptions(model_store.get(), HistoryRoot("retain"));
  options.tenants.store.seal_rows = 10;
  Service service(options);
  TenantManager::Retention retain;
  retain.bytes = 0;
  retain.age_sec = 25.0;
  ASSERT_TRUE(service.Hello("t0", TwoNumeric(), retain).ok());
  for (int t = 0; t < 100; ++t) {
    AppendBlocking(&service, "t0", t, {10.0, 40.0});
  }
  ASSERT_TRUE(service.Flush("t0").ok());
  common::JsonValue stats = service.StatsJson();
  const common::JsonValue* history =
      stats.Find("tenants")->Find("t0")->Find("history");
  ASSERT_NE(history, nullptr);
  EXPECT_GT(history->GetNumber("retention_deletes").ValueOr(0.0), 0.0);
  // Old rows are gone; recent ones remain.
  auto old_rows = service.QueryJson("t0", 0.0, 10.0);
  ASSERT_TRUE(old_rows.ok());
  EXPECT_EQ(old_rows->GetNumber("rows").ValueOr(-1.0), 0.0);
  auto recent = service.QueryJson("t0", 90.0, 100.0);
  ASSERT_TRUE(recent.ok());
  EXPECT_EQ(recent->GetNumber("rows").ValueOr(-1.0), 10.0);
  service.Stop();
}

/// Regression: DIAGNOSE_RANGE had no row cap — one hostile range inflated
/// the whole history into memory. An oversized window is now refused with
/// ResourceExhausted before decoding it all.
TEST(StoreServiceTest, DiagnoseRangeRefusesOversizedWindows) {
  auto model_store = VolatileStore();
  Service::Options options =
      StoreOptions(model_store.get(), HistoryRoot("rangecap"));
  options.max_range_rows = 30;
  Service service(options);
  ASSERT_TRUE(service.Hello("t0", TwoNumeric()).ok());
  for (int t = 0; t < 200; ++t) {
    AppendBlocking(&service, "t0", t, {10.0 + (t % 7), 40.0});
  }
  ASSERT_TRUE(service.Flush("t0").ok());

  // [50, 150) plus 8x context on each side covers all 200 stored rows.
  auto refused = service.DiagnoseRangeJson("t0", 50.0, 150.0);
  EXPECT_EQ(refused.status().code(), StatusCode::kResourceExhausted);
  EXPECT_NE(refused.status().message().find("max-range-rows"),
            std::string::npos);

  // A region narrow enough that region + context fits the cap still
  // diagnoses (26 rows <= 30).
  auto narrow = service.DiagnoseRangeJson("t0", 100.0, 101.5);
  ASSERT_TRUE(narrow.ok()) << narrow.status().ToString();
  ASSERT_NE(narrow->Find("scan"), nullptr);
  service.Stop();
}

/// QUERY WHERE bounds ride through Service::QueryJson into the store scan:
/// rows come back filtered, and the response's "scan" block reports what
/// the zone maps pruned.
TEST(StoreServiceTest, QueryWhereBoundsFilterRowsEndToEnd) {
  auto model_store = VolatileStore();
  Service::Options options =
      StoreOptions(model_store.get(), HistoryRoot("where"));
  Service service(options);
  ASSERT_TRUE(service.Hello("t0", TwoNumeric()).ok());
  for (int t = 0; t < 100; ++t) {
    AppendBlocking(&service, "t0", t, {10.0 + t, 40.0});
  }
  ASSERT_TRUE(service.Flush("t0").ok());

  std::vector<store::AttributeBound> bounds(1);
  bounds[0].attribute = "latency";
  bounds[0].lo = 60.0;
  bounds[0].hi = 69.0;  // latency = 10 + t, so t in [50, 59]
  auto rows = service.QueryJson("t0", 0.0, 1000.0, bounds);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->GetNumber("rows").ValueOr(-1.0), 10.0);
  std::string csv = rows->GetString("csv").ValueOr("");
  EXPECT_NE(csv.find("\n50,60,40"), std::string::npos);
  EXPECT_EQ(csv.find("\n49,59,40"), std::string::npos);
  const common::JsonValue* scan = rows->Find("scan");
  ASSERT_NE(scan, nullptr);
  EXPECT_GT(scan->GetNumber("segments").ValueOr(0.0), 0.0);
  // latency is monotone in t: the 32-row segments outside [60, 69] are
  // zone-pruned without being decoded.
  EXPECT_GT(scan->GetNumber("segments_skipped_zone").ValueOr(0.0), 0.0);
  EXPECT_GE(scan->GetNumber("segments_decoded").ValueOr(-1.0), 1.0);

  // Bounds over an unknown attribute are rejected, not ignored.
  bounds[0].attribute = "no_such_attr";
  EXPECT_EQ(service.QueryJson("t0", 0.0, 1000.0, bounds).status().code(),
            StatusCode::kInvalidArgument);
  service.Stop();
}

TEST(StoreServiceTest, StatsReportScanPushdownCounters) {
  auto model_store = VolatileStore();
  Service::Options options =
      StoreOptions(model_store.get(), HistoryRoot("scanstats"));
  Service service(options);
  ASSERT_TRUE(service.Hello("t0", TwoNumeric()).ok());
  for (int t = 0; t < 100; ++t) {
    AppendBlocking(&service, "t0", t, {10.0, 40.0});
  }
  ASSERT_TRUE(service.Flush("t0").ok());
  // A narrow time window over 3 sealed segments: at most one decodes.
  ASSERT_TRUE(service.QueryJson("t0", 10.0, 20.0).ok());
  common::JsonValue stats = service.StatsJson();
  const common::JsonValue* history =
      stats.Find("tenants")->Find("t0")->Find("history");
  ASSERT_NE(history, nullptr);
  EXPECT_GE(history->GetNumber("scans").ValueOr(0.0), 1.0);
  EXPECT_GE(history->GetNumber("scan_segments_skipped").ValueOr(-1.0), 2.0);
  EXPECT_GE(history->GetNumber("scan_segments_decoded").ValueOr(-1.0), 1.0);
  EXPECT_EQ(history->GetNumber("scan_retries").ValueOr(-1.0), 0.0);
  service.Stop();
}

}  // namespace
}  // namespace dbsherlock::service
