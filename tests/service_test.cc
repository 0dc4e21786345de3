// In-process tests for the dbsherlockd engine (service/service.h):
// tenancy, schema pinning, bounded-queue backpressure, the background
// diagnosis flow against the durable store, idle-LRU eviction, per-tenant
// STATS, a metrics registry that does not grow with tenants, and
// Stop/Flush semantics. The TCP layer is covered by service_e2e_test.

#include "service/service.h"

#include <gtest/gtest.h>

#include <chrono>
#include <limits>
#include <string>
#include <thread>
#include <vector>

#include "common/metrics.h"
#include "common/random.h"
#include "service/server.h"

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

/// Appends one row, honoring backpressure by retrying until accepted.
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

TEST(ServiceTest, HelloIsIdempotentButSchemaIsPinned) {
  auto store = VolatileStore();
  Service::Options options;
  options.store = store.get();
  Service service(options);

  ASSERT_TRUE(service.Hello("t0", TwoNumeric()).ok());
  EXPECT_TRUE(service.Hello("t0", TwoNumeric()).ok());  // no-op
  tsdata::Schema other({{"latency", tsdata::AttributeKind::kNumeric}});
  EXPECT_EQ(service.Hello("t0", other).code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(service.tenants().size(), 1u);
  service.Stop();
}

TEST(ServiceTest, AppendValidatesBeforeAcking) {
  auto store = VolatileStore();
  Service::Options options;
  options.store = store.get();
  Service service(options);
  ASSERT_TRUE(service.Hello("t0", TwoNumeric()).ok());

  EXPECT_EQ(service.Append("ghost", 0.0, {1.0, 2.0}).status().code(),
            StatusCode::kNotFound);
  EXPECT_EQ(service.Append("t0", 0.0, {1.0}).status().code(),
            StatusCode::kInvalidArgument);  // arity
  EXPECT_EQ(
      service.Append("t0", 0.0, {1.0, std::string("fast")}).status().code(),
      StatusCode::kInvalidArgument);  // kind
  EXPECT_EQ(service
                .Append("t0", std::numeric_limits<double>::quiet_NaN(),
                        {1.0, 2.0})
                .status()
                .code(),
            StatusCode::kInvalidArgument);  // non-finite timestamp
  EXPECT_EQ(service.total_acked(), 0u);
  service.Stop();
}

TEST(ServiceTest, BackpressureShedsButNeverLosesAckedRows) {
  auto store = VolatileStore();
  Service::Options options;
  options.store = store.get();
  options.queue_capacity = 4;
  options.ingest_workers = 1;
  options.diagnosis_workers = 1;
  options.ingest_batch = 2;
  options.retry_after_ms = 1;
  options.process_delay_us = 2000;  // forced slow consumer
  Service service(options);
  ASSERT_TRUE(service.Hello("t0", TwoNumeric()).ok());

  uint64_t acked = 0;
  uint64_t shed = 0;
  for (int i = 0; i < 120; ++i) {
    auto outcome =
        service.Append("t0", static_cast<double>(i), {10.0, 40.0});
    ASSERT_TRUE(outcome.ok()) << outcome.status().ToString();
    if (outcome->accepted) {
      ++acked;
      EXPECT_EQ(outcome->seq, acked);  // tenant-local ack sequence
    } else {
      ++shed;
      EXPECT_EQ(outcome->retry_after_ms, options.retry_after_ms);
      std::this_thread::sleep_for(std::chrono::milliseconds(1));
    }
  }
  EXPECT_GT(shed, 0u) << "slow consumer never filled a 4-row queue?";
  EXPECT_GT(acked, 0u);
  EXPECT_EQ(service.total_acked(), acked);
  EXPECT_EQ(service.total_shed(), shed);

  // Every acked row reaches the monitor: shed rows were refused up front,
  // acked ones are never dropped.
  ASSERT_TRUE(service.Flush("t0").ok());
  common::JsonValue stats = service.StatsJson();
  const common::JsonValue* tenant = stats.Find("tenants")->Find("t0");
  ASSERT_NE(tenant, nullptr);
  EXPECT_EQ(tenant->GetNumber("acked").ValueOr(-1),
            static_cast<double>(acked));
  EXPECT_EQ(tenant->GetNumber("processed").ValueOr(-1),
            static_cast<double>(acked));
  EXPECT_EQ(tenant->GetNumber("queue_depth").ValueOr(-1), 0.0);
  service.Stop();
}

TEST(ServiceTest, DuplicateClientSeqIsAckedWithoutReingesting) {
  auto store = VolatileStore();
  Service::Options options;
  options.store = store.get();
  Service service(options);
  ASSERT_TRUE(service.Hello("t0", TwoNumeric()).ok());

  auto first = service.Append("t0", 1.0, {1.0, 2.0}, 7u);
  ASSERT_TRUE(first.ok());
  EXPECT_TRUE(first->accepted);
  EXPECT_FALSE(first->replayed);

  // The client's ack was lost and it resends the same sequence: the row
  // is acked again but never enqueued twice.
  auto retry = service.Append("t0", 1.0, {1.0, 2.0}, 7u);
  ASSERT_TRUE(retry.ok());
  EXPECT_TRUE(retry->accepted);
  EXPECT_TRUE(retry->replayed);
  EXPECT_EQ(retry->seq, first->seq);
  EXPECT_EQ(service.total_acked(), 1u);

  // Stale sequences below the high-water dedupe the same way.
  auto stale = service.Append("t0", 0.5, {1.0, 2.0}, 3u);
  ASSERT_TRUE(stale.ok());
  EXPECT_TRUE(stale->replayed);

  // A fresh sequence is new work, even with these rows still queued.
  auto next = service.Append("t0", 2.0, {1.0, 2.0}, 8u);
  ASSERT_TRUE(next.ok());
  EXPECT_TRUE(next->accepted);
  EXPECT_FALSE(next->replayed);
  EXPECT_EQ(service.total_acked(), 2u);

  EXPECT_EQ(service.StatsJson().GetNumber("replayed").ValueOr(0), 2.0);

  // Sequence-less appends never dedupe: the caller opted out.
  auto blind = service.Append("t0", 3.0, {1.0, 2.0});
  ASSERT_TRUE(blind.ok());
  EXPECT_FALSE(blind->replayed);
  service.Stop();
}

TEST(ServiceTest, DiagnosesAnomalyAgainstTaughtModel) {
  auto store = VolatileStore();
  Service::Options options;
  options.store = store.get();
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
  EXPECT_EQ(store->num_models(), 1u);

  // 300 normal seconds, 40 abnormal, 110 normal again (same shape as the
  // streaming-monitor tests: the anomaly stays under the detector's 20%
  // small-cluster cutoff).
  common::Pcg32 rng(42);
  for (int t = 0; t < 450; ++t) {
    bool ab = t >= 300 && t < 340;
    double latency = (ab ? 90.0 : 10.0) + rng.NextGaussian(0.0, 1.5);
    double cpu = (ab ? 95.0 : 40.0) + rng.NextGaussian(0.0, 2.0);
    AppendBlocking(&service, "t0", t, {latency, cpu});
  }
  ASSERT_TRUE(service.Flush("t0").ok());
  EXPECT_GE(service.total_diagnoses(), 1u);

  auto diagnoses = service.DiagnosesJson("t0");
  ASSERT_TRUE(diagnoses.ok()) << diagnoses.status().ToString();
  const auto& list = diagnoses->as_array();
  ASSERT_GE(list.size(), 1u);
  const common::JsonValue& first = list.front();
  auto causes = first.GetArray("causes");
  ASSERT_TRUE(causes.ok());
  ASSERT_FALSE((*causes)->as_array().empty());
  EXPECT_EQ((*causes)->as_array().front().GetString("cause").ValueOr(""),
            "CPU hog");
  const common::JsonValue* region = first.Find("region");
  ASSERT_NE(region, nullptr);
  EXPECT_GE(region->GetNumber("start").ValueOr(0.0), 290.0);
  EXPECT_LE(region->GetNumber("start").ValueOr(0.0), 345.0);
  EXPECT_GE(first.GetNumber("latency_us").ValueOr(-1.0), 0.0);
  service.Stop();
}

TEST(ServiceTest, IdleTenantsAreEvictedLeastRecentlyUsed) {
  auto store = VolatileStore();
  Service::Options options;
  options.store = store.get();
  options.tenants.max_tenants = 2;
  Service service(options);

  ASSERT_TRUE(service.Hello("t0", TwoNumeric()).ok());
  ASSERT_TRUE(service.Hello("t1", TwoNumeric()).ok());
  ASSERT_TRUE(service.Hello("t2", TwoNumeric()).ok());  // evicts idle t0
  EXPECT_EQ(service.tenants().size(), 2u);
  EXPECT_EQ(service.tenants().evictions(), 1u);
  EXPECT_EQ(service.Append("t0", 0.0, {1.0, 2.0}).status().code(),
            StatusCode::kNotFound);
  // The survivors still ingest, and an evicted tenant can re-HELLO.
  auto outcome = service.Append("t2", 0.0, {1.0, 2.0});
  ASSERT_TRUE(outcome.ok());
  EXPECT_TRUE(outcome->accepted);
  ASSERT_TRUE(service.Hello("t0", TwoNumeric()).ok());
  service.Stop();
}

TEST(ServiceTest, StatsLeavesTheLruOrderAlone) {
  // STATS lists every tenant; reading it must not count as using them,
  // or one STATS call would turn LRU order into name order.
  auto store = VolatileStore();
  Service::Options options;
  options.store = store.get();
  options.tenants.max_tenants = 2;
  Service service(options);

  ASSERT_TRUE(service.Hello("b", TwoNumeric()).ok());
  ASSERT_TRUE(service.Hello("a", TwoNumeric()).ok());
  (void)service.StatsJson();
  ASSERT_TRUE(service.Hello("c", TwoNumeric()).ok());  // evicts idle b
  EXPECT_EQ(service.tenants().evictions(), 1u);
  EXPECT_EQ(service.Append("b", 0.0, {1.0, 2.0}).status().code(),
            StatusCode::kNotFound);
  EXPECT_TRUE(service.Append("a", 0.0, {1.0, 2.0}).ok());
  common::JsonValue stats = service.StatsJson();
  const common::JsonValue* tenants = stats.Find("tenants");
  ASSERT_NE(tenants, nullptr);
  EXPECT_NE(tenants->Find("a"), nullptr);
  EXPECT_NE(tenants->Find("c"), nullptr);
  EXPECT_EQ(tenants->Find("b"), nullptr);
  service.Stop();
}

TEST(ServiceTest, WireHelloAndAppendLookTheirTenantUpOnce) {
  // Every tenant lookup is an LRU use that advances the shared clock. A
  // wire HELLO reads the durable high-water mark from the tenant it
  // registered, and a wire APPEND appends to the tenant it typed the
  // cells against, so each request is exactly one use. Live() reads
  // last_used without bumping it.
  auto store = VolatileStore();
  Service::Options options;
  options.store = store.get();
  Service service(options);
  LineHandler handler = ServiceHandler(service);
  auto last_used = [&] {
    return service.tenants().Live().at(0)->last_used.load();
  };
  bool quit = false;
  ASSERT_EQ(handler("HELLO t0 latency:num,cpu:num", &quit).rfind("OK", 0),
            0u);
  uint64_t used = last_used();
  ASSERT_EQ(handler("APPEND t0 1 10,40", &quit), "OK 1");
  EXPECT_EQ(last_used(), used + 1);
  used = last_used();
  ASSERT_EQ(handler("HELLO t0 latency:num,cpu:num", &quit).rfind("OK", 0),
            0u);
  EXPECT_EQ(last_used(), used + 1);
  service.Stop();
}

TEST(ServiceTest, StatsReportsPerTenantMonitorDrops) {
  auto store = VolatileStore();
  Service::Options options;
  options.store = store.get();
  Service service(options);
  ASSERT_TRUE(service.Hello("t0", TwoNumeric()).ok());
  ASSERT_TRUE(service.Hello("t1", TwoNumeric()).ok());
  AppendBlocking(&service, "t0", 10.0, {1.0, 2.0});
  AppendBlocking(&service, "t0", 5.0, {1.0, 2.0});   // late
  AppendBlocking(&service, "t0", 10.0, {1.0, 2.0});  // duplicate
  AppendBlocking(&service, "t1", 1.0, {1.0, 2.0});
  ASSERT_TRUE(service.FlushAll().ok());

  common::JsonValue stats = service.StatsJson();
  const common::JsonValue* t0 = stats.Find("tenants")->Find("t0");
  ASSERT_NE(t0, nullptr);
  EXPECT_EQ(t0->GetNumber("processed").ValueOr(-1), 3.0);
  EXPECT_EQ(t0->GetNumber("late_dropped").ValueOr(-1), 1.0);
  EXPECT_EQ(t0->GetNumber("duplicate_dropped").ValueOr(-1), 1.0);
  EXPECT_EQ(t0->GetNumber("alerts").ValueOr(-1), 0.0);
  // Counts are per tenant: t1's clean row drops nothing.
  const common::JsonValue* t1 = stats.Find("tenants")->Find("t1");
  ASSERT_NE(t1, nullptr);
  EXPECT_EQ(t1->GetNumber("late_dropped").ValueOr(-1), 0.0);
  EXPECT_EQ(t1->GetNumber("duplicate_dropped").ValueOr(-1), 0.0);
  service.Stop();
}

TEST(ServiceTest, RegistrySeriesCountDoesNotGrowWithTenants) {
  // Per-tenant counts live in the Tenant (STATS), not in the process-wide
  // registry: 40 more tenants must not add a single series.
  auto series = [] {
    common::JsonValue snapshot =
        common::MetricsRegistry::Global().SnapshotJson();
    return snapshot.Find("counters")->as_object().size() +
           snapshot.Find("gauges")->as_object().size() +
           snapshot.Find("histograms")->as_object().size();
  };
  auto store = VolatileStore();
  Service::Options options;
  options.store = store.get();
  Service service(options);
  auto greet_and_append = [&](const std::string& tenant) {
    ASSERT_TRUE(service.Hello(tenant, TwoNumeric()).ok());
    AppendBlocking(&service, tenant, 1.0, {1.0, 2.0});
    AppendBlocking(&service, tenant, 0.5, {1.0, 2.0});  // late
    ASSERT_TRUE(service.Flush(tenant).ok());
  };
  greet_and_append("first");
  size_t one_tenant = series();
  for (int i = 0; i < 40; ++i) greet_and_append("t" + std::to_string(i));
  EXPECT_EQ(service.tenants().size(), 41u);
  EXPECT_EQ(series(), one_tenant);
  service.Stop();
}

TEST(ServiceTest, StopDrainsAndRefusesLateWork) {
  auto store = VolatileStore();
  Service::Options options;
  options.store = store.get();
  Service service(options);
  ASSERT_TRUE(service.Hello("t0", TwoNumeric()).ok());
  for (int t = 0; t < 10; ++t) {
    AppendBlocking(&service, "t0", t, {10.0, 40.0});
  }
  service.Stop();
  service.Stop();  // idempotent

  EXPECT_EQ(service.Append("t0", 11.0, {10.0, 40.0}).status().code(),
            StatusCode::kFailedPrecondition);
  EXPECT_EQ(service.Hello("t9", TwoNumeric()).code(),
            StatusCode::kFailedPrecondition);
  // Everything acked before Stop was drained through the monitor.
  common::JsonValue stats = service.StatsJson();
  const common::JsonValue* tenant = stats.Find("tenants")->Find("t0");
  ASSERT_NE(tenant, nullptr);
  EXPECT_EQ(tenant->GetNumber("processed").ValueOr(-1), 10.0);
}

TEST(ServiceTest, TeachWithoutStoreFailsCleanly) {
  Service::Options options;  // store intentionally absent
  Service service(options);
  core::CausalModel model;
  model.cause = "x";
  EXPECT_EQ(service.Teach(model).code(), StatusCode::kFailedPrecondition);
  service.Stop();
}

}  // namespace
}  // namespace dbsherlock::service
