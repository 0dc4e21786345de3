// End-to-end tests for dbsherlockd over the real TCP socket path:
// 8 simulated tenants streaming concurrently with one injected anomaly
// each (every cause must rank top-1 over an overlapping region),
// backpressure under a forced slow consumer without losing acked rows,
// and daemon-restart recovery of every model persisted through the wire.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <string>

#include "common/random.h"
#include "eval/service_replay.h"
#include "service/client.h"
#include "service/server.h"
#include "service/service.h"

namespace dbsherlock::service {
namespace {

std::unique_ptr<DurableModelStore> MustOpen(
    DurableModelStore::Options options) {
  auto store = DurableModelStore::Open(std::move(options));
  EXPECT_TRUE(store.ok()) << store.status().ToString();
  return std::move(*store);
}

tsdata::Schema TwoNumeric() {
  return tsdata::Schema({{"latency", tsdata::AttributeKind::kNumeric},
                         {"cpu", tsdata::AttributeKind::kNumeric}});
}

/// The ISSUE's acceptance scenario: 8 tenants stream concurrently over
/// the socket, each with one injected anomaly; every tenant must get a
/// diagnosis with the correct cause ranked top-1 over a region that
/// overlaps the injected ground truth.
TEST(ServiceE2eTest, EightTenantsDiagnosedTopOneOverTheSocket) {
  auto store = MustOpen({});
  auto result = eval::RunServiceReplay(store.get());
  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->tenants.size(), 8u);
  for (const eval::TenantReplayOutcome& tenant : result->tenants) {
    EXPECT_TRUE(tenant.top1_correct)
        << tenant.tenant << ": expected " << tenant.expected_cause
        << " ranked top-1, got '" << tenant.top_cause << "'";
    EXPECT_TRUE(tenant.region_overlaps)
        << tenant.tenant << ": diagnosed region misses the injected one";
    EXPECT_GT(tenant.rows_sent, 0u) << tenant.tenant;
    EXPECT_GE(tenant.diagnoses, 1u) << tenant.tenant;
  }
  EXPECT_GT(result->rows_acked, 0u);
  EXPECT_GE(result->diagnoses_total, 8u);
  EXPECT_GT(result->models_stored, 0u);
}

TEST(ServiceE2eTest, BackpressureOverTheSocketLosesNoAckedRow) {
  auto store = MustOpen({});
  Service::Options service_options;
  service_options.store = store.get();
  service_options.queue_capacity = 2;
  service_options.ingest_workers = 1;
  service_options.diagnosis_workers = 1;
  service_options.ingest_batch = 1;
  service_options.retry_after_ms = 1;
  service_options.process_delay_us = 3000;  // forced slow consumer
  Service service(service_options);
  Server::Options server_options;
  server_options.handler = ServiceHandler(service);
  auto server = Server::Start(server_options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();

  auto client = Client::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  ASSERT_TRUE((*client)->Hello("t0", TwoNumeric()).ok());
  size_t retries = 0;
  const int kRows = 60;
  for (int t = 0; t < kRows; ++t) {
    ASSERT_TRUE((*client)
                    ->AppendRetrying("t0", t, {10.0, 40.0},
                                     /*max_retries=*/100000, &retries)
                    .ok());
  }
  EXPECT_GT(retries, 0u) << "queue of 2 never pushed back?";
  ASSERT_TRUE((*client)->Flush("t0").ok());

  // RETRY_AFTER rows were refused, not buffered; every acked row was
  // drained through the monitor.
  EXPECT_EQ(service.total_acked(), static_cast<uint64_t>(kRows));
  EXPECT_EQ(service.total_shed(), retries);
  auto stats = (*client)->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  const common::JsonValue* tenant = stats->Find("tenants")->Find("t0");
  ASSERT_NE(tenant, nullptr);
  EXPECT_EQ(tenant->GetNumber("processed").ValueOr(-1),
            static_cast<double>(kRows));
  (void)(*client)->Quit();
  (*server)->Stop();
  service.Stop();
}

/// The ISSUE's retrospective-diagnosis acceptance scenario: with the
/// default 600-row sliding window, stream 10k+ rows whose only anomaly
/// sits near the start. By the end the anomaly is ~9k rows out of the
/// window — only the tenant's history store still has it. DIAGNOSE_RANGE
/// over the ground-truth region must rank the taught cause top-1.
TEST(ServiceE2eTest, DiagnoseRangeRanksCauseTopOneAfterWindowMovedOn) {
  auto store = MustOpen({});
  std::string root = testing::TempDir() + "/dbsherlock_e2e_hist_" +
                     std::to_string(getpid());
  std::string cleanup = "rm -rf '" + root + "'";
  (void)std::system(cleanup.c_str());

  Service::Options service_options;
  service_options.store = store.get();
  service_options.tenants.monitor.window_rows = 600;
  service_options.tenants.store.dir = root;
  service_options.tenants.store.fsync_on_seal = false;  // test speed
  Service service(service_options);
  Server::Options server_options;
  server_options.handler = ServiceHandler(service);
  auto server = Server::Start(server_options);
  ASSERT_TRUE(server.ok()) << server.status().ToString();
  auto client = Client::Connect("127.0.0.1", (*server)->port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();

  core::CausalModel model;
  model.cause = "CPU hog";
  model.suggested_action = "throttle the batch job";
  model.predicates = {
      core::Predicate{
          "cpu", core::PredicateType::kGreaterThan, 70.0, 0.0, {}},
      core::Predicate{
          "latency", core::PredicateType::kGreaterThan, 50.0, 0.0, {}}};
  ASSERT_TRUE((*client)->Teach(model).ok());
  ASSERT_TRUE((*client)->Hello("t0", TwoNumeric()).ok());

  common::Pcg32 rng(7);
  const int kRows = 10500;
  const double kAnomalyStart = 1000.0;
  const double kAnomalyEnd = 1060.0;
  for (int t = 0; t < kRows; ++t) {
    bool ab = t >= kAnomalyStart && t < kAnomalyEnd;
    double latency = (ab ? 90.0 : 10.0) + rng.NextGaussian(0.0, 1.5);
    double cpu = (ab ? 95.0 : 40.0) + rng.NextGaussian(0.0, 2.0);
    ASSERT_TRUE((*client)
                    ->AppendRetrying("t0", t, {latency, cpu},
                                     /*max_retries=*/100000)
                    .ok());
  }
  ASSERT_TRUE((*client)->Flush("t0").ok());

  // QUERY proves the anomaly is readable from history over the wire...
  auto rows = (*client)->Query("t0", kAnomalyStart, kAnomalyEnd);
  ASSERT_TRUE(rows.ok()) << rows.status().ToString();
  EXPECT_EQ(rows->GetNumber("rows").ValueOr(-1.0),
            kAnomalyEnd - kAnomalyStart);

  // ...and DIAGNOSE_RANGE over the ground-truth region names the cause.
  auto diagnosis = (*client)->DiagnoseRange("t0", kAnomalyStart, kAnomalyEnd);
  ASSERT_TRUE(diagnosis.ok()) << diagnosis.status().ToString();
  auto causes = diagnosis->GetArray("causes");
  ASSERT_TRUE(causes.ok());
  ASSERT_FALSE((*causes)->as_array().empty());
  EXPECT_EQ((*causes)->as_array().front().GetString("cause").ValueOr(""),
            "CPU hog");

  // The ISSUE's DQL acceptance scenario, same live daemon: a declarative
  // EXPLAIN with a percentile threshold must find the anomaly region via
  // pushdown discovery and rank the taught cause top-1.
  auto report = (*client)->Explain(
      "t0",
      "EXPLAIN WHERE latency > p99 BETWEEN 990 1070 RANK BY confidence "
      "TOP 3");
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  auto findings = report->GetArray("findings");
  ASSERT_TRUE(findings.ok()) << report->Dump(2);
  ASSERT_FALSE((*findings)->as_array().empty()) << report->Dump(2);
  // The finding overlapping the injected [1000, 1060) region must rank
  // the taught cause top-1 (a stray normal-tail match may precede it).
  bool found_injected = false;
  for (const common::JsonValue& finding : (*findings)->as_array()) {
    const common::JsonValue* region = finding.Find("region");
    ASSERT_NE(region, nullptr);
    if (region->GetNumber("start").ValueOr(0.0) >= kAnomalyEnd ||
        region->GetNumber("end").ValueOr(0.0) <= kAnomalyStart) {
      continue;
    }
    found_injected = true;
    auto top_causes = finding.GetArray("causes");
    ASSERT_TRUE(top_causes.ok());
    ASSERT_FALSE((*top_causes)->as_array().empty()) << report->Dump(2);
    EXPECT_EQ(
        (*top_causes)->as_array().front().GetString("cause").ValueOr(""),
        "CPU hog");
  }
  EXPECT_TRUE(found_injected) << report->Dump(2);
  // Region discovery rode the zone-map pushdown: strictly fewer segments
  // decoded than a full scan of the store would inflate.
  const common::JsonValue* discovery = report->Find("discovery");
  ASSERT_NE(discovery, nullptr);
  EXPECT_LT(discovery->GetNumber("segments_decoded").ValueOr(1e9),
            discovery->GetNumber("segments").ValueOr(0.0));
  // The report ships a human rendering alongside the structured object.
  std::string markdown = report->GetString("markdown").ValueOr("");
  EXPECT_NE(markdown.find("CPU hog"), std::string::npos);
  EXPECT_NE(markdown.find("Finding 1"), std::string::npos);

  // A malformed statement comes back as ERR with the multi-line caret
  // diagnostic intact across the line protocol (the ERR JSON-string
  // encoding regression this PR fixes).
  auto bad = (*client)->Explain("t0", "EXPLAIN WHERE latency >");
  ASSERT_FALSE(bad.ok());
  EXPECT_EQ(bad.status().code(), common::StatusCode::kParseError);
  EXPECT_NE(bad.status().message().find('\n'), std::string::npos);
  EXPECT_NE(bad.status().message().find('^'), std::string::npos);

  (void)(*client)->Quit();
  (*server)->Stop();
  service.Stop();
}

TEST(ServiceE2eTest, RestartRecoversModelsTaughtOverTheWire) {
  DurableModelStore::Options store_options;
  store_options.dir = testing::TempDir() + "/dbsherlock_e2e_wal_" +
                      std::to_string(getpid());
  std::remove((store_options.dir + "/snapshot.json").c_str());
  std::remove((store_options.dir + "/wal.log").c_str());

  {  // First daemon lifetime: teach two models through the socket.
    auto store = MustOpen(store_options);
    Service::Options service_options;
    service_options.store = store.get();
    Service service(service_options);
    Server::Options server_options;
    server_options.handler = ServiceHandler(service);
    auto server = Server::Start(server_options);
    ASSERT_TRUE(server.ok()) << server.status().ToString();
    auto client = Client::Connect("127.0.0.1", (*server)->port());
    ASSERT_TRUE(client.ok());
    for (const char* cause : {"Lock Contention", "I/O Saturation"}) {
      core::CausalModel model;
      model.cause = cause;
      model.predicates = {core::Predicate{
          "cpu", core::PredicateType::kGreaterThan, 70.0, 0.0, {}}};
      ASSERT_TRUE((*client)->Teach(model).ok());
    }
    auto models = (*client)->Models();
    ASSERT_TRUE(models.ok());
    EXPECT_EQ((*models->GetArray("models"))->as_array().size(), 2u);
    (void)(*client)->Quit();
    (*server)->Stop();
    service.Stop();
  }

  // Second lifetime: everything acked over the wire came back.
  auto store = MustOpen(store_options);
  EXPECT_EQ(store->num_models(), 2u);
  EXPECT_EQ(store->recovery().wal_records_applied, 2u);
  EXPECT_EQ(store->recovery().truncated_bytes, 0u);
}

}  // namespace
}  // namespace dbsherlock::service
