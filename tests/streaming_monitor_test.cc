#include "core/streaming_monitor.h"

#include <gtest/gtest.h>

#include <limits>

#include "common/metrics.h"
#include "common/random.h"

namespace dbsherlock::core {
namespace {

tsdata::Schema MonitorSchema() {
  return tsdata::Schema({{"latency", tsdata::AttributeKind::kNumeric},
                         {"cpu", tsdata::AttributeKind::kNumeric}});
}

/// Feeds `monitor` rows [from, to): abnormal inside [ab_start, ab_end).
/// Returns all alerts raised.
std::vector<StreamingMonitor::Alert> Feed(StreamingMonitor* monitor,
                                          int from, int to, int ab_start,
                                          int ab_end, common::Pcg32* rng) {
  std::vector<StreamingMonitor::Alert> alerts;
  for (int t = from; t < to; ++t) {
    bool ab = t >= ab_start && t < ab_end;
    double latency = (ab ? 90.0 : 10.0) + rng->NextGaussian(0.0, 1.5);
    double cpu = (ab ? 95.0 : 40.0) + rng->NextGaussian(0.0, 2.0);
    auto alert = monitor->Append(t, {latency, cpu});
    if (alert.has_value()) alerts.push_back(*alert);
  }
  return alerts;
}

TEST(StreamingMonitorTest, QuietStreamNeverAlerts) {
  StreamingMonitor monitor(MonitorSchema(), {});
  common::Pcg32 rng(1);
  auto alerts = Feed(&monitor, 0, 400, 0, 0, &rng);
  EXPECT_TRUE(alerts.empty());
  EXPECT_EQ(monitor.rows_seen(), 400u);
}

TEST(StreamingMonitorTest, AlertsOnceOnAnomaly) {
  StreamingMonitor monitor(MonitorSchema(), {});
  common::Pcg32 rng(2);
  // 300 normal seconds, 40 abnormal, 160 normal again.
  auto alerts = Feed(&monitor, 0, 500, 300, 340, &rng);
  ASSERT_GE(alerts.size(), 1u);
  // All alerts point into the true anomaly (an ongoing anomaly may re-alert
  // as its detected region grows, but never for normal stretches).
  for (const auto& alert : alerts) {
    EXPECT_GE(alert.region.start, 290.0);
    EXPECT_LE(alert.region.start, 345.0);
    EXPECT_GE(alert.raised_at, alert.region.start);
  }
  // The first alert fires while the anomaly is live or shortly after.
  EXPECT_LE(alerts[0].raised_at, 360.0);
  // Its explanation names the shifted attributes.
  ASSERT_FALSE(alerts[0].explanation.predicates.empty());
  bool saw_latency = false;
  for (const auto& d : alerts[0].explanation.predicates) {
    if (d.predicate.attribute == "latency") saw_latency = true;
  }
  EXPECT_TRUE(saw_latency);
}

TEST(StreamingMonitorTest, SecondIncidentAlertsAgain) {
  StreamingMonitor::Options options;
  StreamingMonitor monitor(MonitorSchema(), options);
  common::Pcg32 rng(3);
  auto first = Feed(&monitor, 0, 400, 250, 280, &rng);
  ASSERT_GE(first.size(), 1u);
  auto second = Feed(&monitor, 400, 800, 600, 640, &rng);
  ASSERT_GE(second.size(), 1u);
  EXPECT_GT(second[0].region.start, 590.0);
}

TEST(StreamingMonitorTest, WindowStaysBounded) {
  StreamingMonitor::Options options;
  options.window_rows = 100;
  options.warmup_rows = 50;
  StreamingMonitor monitor(MonitorSchema(), options);
  common::Pcg32 rng(4);
  Feed(&monitor, 0, 500, 0, 0, &rng);
  // Bounded by window_rows plus the trim hysteresis slack.
  EXPECT_LE(monitor.window_size(), 100u + 64u);
  EXPECT_EQ(monitor.rows_seen(), 500u);
}

TEST(StreamingMonitorTest, NoDetectionBeforeWarmup) {
  StreamingMonitor::Options options;
  options.warmup_rows = 200;
  StreamingMonitor monitor(MonitorSchema(), options);
  common::Pcg32 rng(5);
  // An anomaly right at the start of the stream, before warmup completes.
  auto alerts = Feed(&monitor, 0, 150, 100, 130, &rng);
  EXPECT_TRUE(alerts.empty());
}

TEST(StreamingMonitorTest, BadRowIsIgnored) {
  StreamingMonitor monitor(MonitorSchema(), {});
  EXPECT_FALSE(monitor.Append(0.0, {1.0}).has_value());  // arity mismatch
  EXPECT_EQ(monitor.rows_seen(), 0u);
  EXPECT_FALSE(
      monitor.Append(0.0, {1.0, std::string("x")}).has_value());  // kind
  EXPECT_EQ(monitor.rows_seen(), 0u);
}

TEST(StreamingMonitorTest, DropCountersLandInMetricsSnapshot) {
  // The per-instance drop accessors mirror into the process-wide
  // `streaming_monitor.*` registry counters (what --metrics-out exports).
  // Registry counters are shared by every monitor in this binary, so
  // compare deltas, not absolute values.
  common::MetricsRegistry& reg = common::MetricsRegistry::Global();
  uint64_t late0 =
      reg.GetCounter("streaming_monitor.rows_dropped_late")->value();
  uint64_t dup0 =
      reg.GetCounter("streaming_monitor.rows_dropped_duplicate")->value();
  uint64_t nan0 =
      reg.GetCounter("streaming_monitor.rows_dropped_non_finite")->value();

  StreamingMonitor monitor(MonitorSchema(), {});
  EXPECT_FALSE(monitor.Append(10.0, {1.0, 1.0}).has_value());
  monitor.Append(5.0, {1.0, 1.0});    // late
  monitor.Append(10.0, {1.0, 1.0});   // duplicate of the newest timestamp
  monitor.Append(std::numeric_limits<double>::quiet_NaN(), {1.0, 1.0});
  monitor.Append(std::numeric_limits<double>::infinity(), {1.0, 1.0});
  EXPECT_EQ(monitor.late_rows_dropped(), 1u);
  EXPECT_EQ(monitor.duplicate_rows_dropped(), 1u);
  EXPECT_EQ(monitor.non_finite_rows_dropped(), 2u);

  EXPECT_EQ(reg.GetCounter("streaming_monitor.rows_dropped_late")->value(),
            late0 + 1);
  EXPECT_EQ(
      reg.GetCounter("streaming_monitor.rows_dropped_duplicate")->value(),
      dup0 + 1);
  EXPECT_EQ(
      reg.GetCounter("streaming_monitor.rows_dropped_non_finite")->value(),
      nan0 + 2);

  // And the snapshot JSON carries them under "counters".
  common::JsonValue snapshot = reg.SnapshotJson();
  const common::JsonValue* counters = snapshot.Find("counters");
  ASSERT_NE(counters, nullptr);
  ASSERT_NE(counters->Find("streaming_monitor.rows_dropped_late"), nullptr);
  EXPECT_GE(
      counters->Find("streaming_monitor.rows_dropped_late")->as_number(),
      1.0);
}

TEST(StreamingMonitorTest, LabeledInstancesNeverDoubleCountTheAggregate) {
  // Two monitors in one process (the multi-tenant service case): the
  // aggregate `streaming_monitor.*` counters must count each event exactly
  // once, while each instance's own accessors keep the two pipelines
  // apart (the service copies those into its per-tenant STATS).
  common::MetricsRegistry& reg = common::MetricsRegistry::Global();
  uint64_t appended0 =
      reg.GetCounter("streaming_monitor.rows_appended")->value();
  uint64_t late0 =
      reg.GetCounter("streaming_monitor.rows_dropped_late")->value();

  StreamingMonitor a(MonitorSchema(), {});
  StreamingMonitor b(MonitorSchema(), {});
  for (int t = 0; t < 10; ++t) a.Append(t, {1.0, 1.0});
  for (int t = 0; t < 4; ++t) b.Append(t, {1.0, 1.0});
  b.Append(1.0, {1.0, 1.0});  // late: dropped, attributed to b only

  EXPECT_EQ(reg.GetCounter("streaming_monitor.rows_appended")->value(),
            appended0 + 14);
  EXPECT_EQ(reg.GetCounter("streaming_monitor.rows_dropped_late")->value(),
            late0 + 1);
  EXPECT_EQ(a.rows_seen(), 10u);
  EXPECT_EQ(b.rows_seen(), 4u);
  EXPECT_EQ(a.late_rows_dropped(), 0u);
  EXPECT_EQ(b.late_rows_dropped(), 1u);
}

TEST(StreamingMonitorTest, UnlabeledMonitorRegistersNoInstanceMirror) {
  // The registry holds the aggregates only: a new monitor adds no series,
  // so its size does not grow with the number of monitors (tenants).
  auto count_series = [] {
    common::JsonValue snapshot =
        common::MetricsRegistry::Global().SnapshotJson();
    return snapshot.Find("counters")->as_object().size() +
           snapshot.Find("gauges")->as_object().size() +
           snapshot.Find("histograms")->as_object().size();
  };
  StreamingMonitor first(MonitorSchema(), {});
  first.Append(0.0, {1.0, 1.0});  // registers the aggregates
  size_t series = count_series();
  for (int i = 0; i < 5; ++i) {
    StreamingMonitor monitor(MonitorSchema(), {});
    monitor.Append(0.0, {1.0, 1.0});
    monitor.Append(0.0, {1.0, 1.0});  // duplicate
  }
  EXPECT_EQ(count_series(), series);
}

TEST(StreamingMonitorTest, DetectionFollowsExplainerDetectorOptions) {
  // One detector configuration: the explainer's. The stream that
  // AlertsOnceOnAnomaly alerts on stays quiet once the explainer's
  // detector selects no attribute (a PPt above any potential power).
  StreamingMonitor::Options options;
  options.explainer.detector_options.potential_power_threshold = 1e9;
  StreamingMonitor blind(MonitorSchema(), options);
  common::Pcg32 rng(2);
  EXPECT_TRUE(Feed(&blind, 0, 500, 300, 340, &rng).empty());
  EXPECT_EQ(blind.alerts_raised(), 0u);

  StreamingMonitor control(MonitorSchema(), {});
  common::Pcg32 same(2);
  auto alerts = Feed(&control, 0, 500, 300, 340, &same);
  EXPECT_FALSE(alerts.empty());
  EXPECT_EQ(control.alerts_raised(), alerts.size());
}

TEST(StreamingMonitorTest, PreloadedModelsNameTheCause) {
  StreamingMonitor monitor(MonitorSchema(), {});
  CausalModel model;
  model.cause = "CPU hog";
  model.predicates = {
      Predicate{"cpu", PredicateType::kGreaterThan, 70.0, 0.0, {}},
      Predicate{"latency", PredicateType::kGreaterThan, 50.0, 0.0, {}}};
  monitor.explainer().repository().AddUnmerged(model);

  common::Pcg32 rng(6);
  auto alerts = Feed(&monitor, 0, 450, 300, 340, &rng);
  ASSERT_GE(alerts.size(), 1u);
  ASSERT_FALSE(alerts[0].explanation.causes.empty());
  EXPECT_EQ(alerts[0].explanation.causes[0].cause, "CPU hog");
}

// --- Restart rehydration (Hydrate) ------------------------------------

tsdata::Dataset Tail(int from, int to) {
  tsdata::Dataset d(MonitorSchema());
  for (int t = from; t < to; ++t) {
    EXPECT_TRUE(d.AppendRow(t, {10.0, 40.0}).ok());
  }
  return d;
}

TEST(StreamingMonitorTest, HydratePrefillsWindowWithoutDetection) {
  StreamingMonitor monitor(MonitorSchema(), {});
  ASSERT_TRUE(monitor.Hydrate(Tail(0, 200)).ok());
  EXPECT_EQ(monitor.window_size(), 200u);
  EXPECT_EQ(monitor.rows_seen(), 200u);
  EXPECT_EQ(monitor.alerts_raised(), 0u);
  // Live appends continue after the hydrated span.
  auto alert = monitor.Append(200.0, {10.0, 40.0});
  EXPECT_FALSE(alert.has_value());
  EXPECT_TRUE(monitor.last_append_status().ok());
  EXPECT_EQ(monitor.window_size(), 201u);
}

TEST(StreamingMonitorTest, HydrateRespectsWindowBound) {
  StreamingMonitor::Options options;
  options.window_rows = 50;
  StreamingMonitor monitor(MonitorSchema(), options);
  ASSERT_TRUE(monitor.Hydrate(Tail(0, 200)).ok());
  EXPECT_EQ(monitor.window_size(), 50u);
  EXPECT_DOUBLE_EQ(monitor.window().timestamp(0), 150.0);
}

TEST(StreamingMonitorTest, HydrateRejectsSchemaMismatch) {
  StreamingMonitor monitor(MonitorSchema(), {});
  tsdata::Dataset wrong(tsdata::Schema(
      {{"other", tsdata::AttributeKind::kNumeric}}));
  ASSERT_TRUE(wrong.AppendRow(0.0, {1.0}).ok());
  EXPECT_FALSE(monitor.Hydrate(wrong).ok());
  EXPECT_EQ(monitor.window_size(), 0u);
}

TEST(StreamingMonitorTest, HydrateRejectsRowsNotNewerThanBuffered) {
  StreamingMonitor monitor(MonitorSchema(), {});
  ASSERT_TRUE(monitor.Hydrate(Tail(0, 10)).ok());
  // A second hydration overlapping the first is rejected whole.
  EXPECT_FALSE(monitor.Hydrate(Tail(5, 15)).ok());
  EXPECT_EQ(monitor.window_size(), 10u);
  // But a strictly-newer tail extends it.
  EXPECT_TRUE(monitor.Hydrate(Tail(10, 15)).ok());
  EXPECT_EQ(monitor.window_size(), 15u);
}

TEST(StreamingMonitorTest, HydrateSuppressesAlertsForHydratedSpan) {
  // An anomaly that lives entirely inside the hydrated tail must not
  // re-alert after restart: the pre-crash monitor already raised it.
  StreamingMonitor::Options options;
  StreamingMonitor reference(MonitorSchema(), options);
  common::Pcg32 rng(17);
  auto pre_crash = Feed(&reference, 0, 400, 300, 340, &rng);
  ASSERT_GE(pre_crash.size(), 1u);  // the anomaly is detectable

  StreamingMonitor restarted(MonitorSchema(), options);
  // Rehydrate from the reference's window (what the store's tail holds).
  ASSERT_TRUE(restarted.Hydrate(reference.window()).ok());
  // Stream quiet rows: nothing new is anomalous, so no alert may fire
  // even though the hydrated window still contains the old anomaly.
  common::Pcg32 rng2(18);
  auto post = Feed(&restarted, 400, 500, 0, 0, &rng2);
  EXPECT_TRUE(post.empty());
}

}  // namespace
}  // namespace dbsherlock::core
