#include "core/explainer.h"

#include <gtest/gtest.h>

#include "common/metrics.h"
#include "simulator/dataset_gen.h"

namespace dbsherlock::core {
namespace {

simulator::GeneratedDataset Generate(simulator::AnomalyKind kind,
                                     uint64_t seed,
                                     double duration = 60.0) {
  simulator::DatasetGenOptions options;
  options.seed = seed;
  return simulator::GenerateAnomalyDataset(options, kind, duration);
}

TEST(ExplainerTest, DiagnoseProducesPredicates) {
  simulator::GeneratedDataset run =
      Generate(simulator::AnomalyKind::kNetworkCongestion, 100);
  Explainer sherlock;
  Explanation ex = sherlock.Diagnose(run.data, run.regions);
  ASSERT_FALSE(ex.predicates.empty());
  // Network congestion's signature attributes must be among the findings.
  bool saw_network = false;
  for (const auto& d : ex.predicates) {
    if (d.predicate.attribute == "net_send_kb" ||
        d.predicate.attribute == "net_recv_kb" ||
        d.predicate.attribute == "client_wait_time_ms") {
      saw_network = true;
    }
    EXPECT_GT(d.separation_power, 0.0);
  }
  EXPECT_TRUE(saw_network);
  // No causal models stored yet -> no causes offered.
  EXPECT_TRUE(ex.causes.empty());
}

TEST(ExplainerTest, PredicatesToStringJoinsWithAnd) {
  simulator::GeneratedDataset run =
      Generate(simulator::AnomalyKind::kCpuSaturation, 101);
  Explainer sherlock;
  Explanation ex = sherlock.Diagnose(run.data, run.regions);
  ASSERT_GE(ex.predicates.size(), 2u);
  std::string joined = ex.PredicatesToString();
  EXPECT_NE(joined.find(" AND "), std::string::npos);
}

TEST(ExplainerTest, DomainKnowledgePrunesCpuSecondarySymptom) {
  simulator::GeneratedDataset run =
      Generate(simulator::AnomalyKind::kPoorlyWrittenQuery, 102);
  Explainer::Options with;
  Explainer::Options without;
  without.apply_domain_knowledge = false;
  Explanation pruned = Explainer(with).Diagnose(run.data, run.regions);
  Explanation full = Explainer(without).Diagnose(run.data, run.regions);
  EXPECT_LE(pruned.predicates.size(), full.predicates.size());
  // The DBMS drives the CPU here, so os_cpu_usage is a secondary symptom
  // of dbms_cpu_usage and must be pruned when both were extracted.
  bool full_has_os_cpu = false, full_has_dbms_cpu = false;
  for (const auto& d : full.predicates) {
    if (d.predicate.attribute == "os_cpu_usage") full_has_os_cpu = true;
    if (d.predicate.attribute == "dbms_cpu_usage") full_has_dbms_cpu = true;
  }
  if (full_has_os_cpu && full_has_dbms_cpu) {
    for (const auto& d : pruned.predicates) {
      EXPECT_NE(d.predicate.attribute, "os_cpu_usage");
    }
  }
}

TEST(ExplainerTest, AcceptDiagnosisStoresModelAndRanksIt) {
  simulator::GeneratedDataset first =
      Generate(simulator::AnomalyKind::kLockContention, 103);
  Explainer sherlock;
  Explanation ex = sherlock.Diagnose(first.data, first.regions);
  ASSERT_FALSE(ex.predicates.empty());
  sherlock.AcceptDiagnosis("Lock Contention", ex);
  ASSERT_EQ(sherlock.repository().size(), 1u);

  simulator::GeneratedDataset second =
      Generate(simulator::AnomalyKind::kLockContention, 104, 45.0);
  Explanation again = sherlock.Diagnose(second.data, second.regions);
  ASSERT_FALSE(again.causes.empty());
  EXPECT_EQ(again.causes[0].cause, "Lock Contention");
  EXPECT_GT(again.causes[0].confidence, 20.0);
}

TEST(ExplainerTest, DiagnoseBuildsOneRunDecomposition) {
  // Predicate generation and model ranking read the same DiagnosisRuns.
  simulator::GeneratedDataset run =
      Generate(simulator::AnomalyKind::kLockContention, 103);
  Explainer sherlock;
  sherlock.AcceptDiagnosis("Lock Contention",
                           sherlock.Diagnose(run.data, run.regions));
  ASSERT_EQ(sherlock.repository().size(), 1u);
  common::Counter* built = common::MetricsRegistry::Global().GetCounter(
      "column_spans.runs_built");
  uint64_t before = built->value();
  Explanation ex = sherlock.Diagnose(run.data, run.regions);
  EXPECT_EQ(built->value() - before, 1u);
  ASSERT_FALSE(ex.causes.empty());
  EXPECT_EQ(ex.causes[0].cause, "Lock Contention");
}

TEST(ExplainerTest, AcceptTwiceMergesModels) {
  Explainer sherlock;
  for (uint64_t seed : {105u, 106u}) {
    simulator::GeneratedDataset run =
        Generate(simulator::AnomalyKind::kDatabaseBackup, seed);
    Explanation ex = sherlock.Diagnose(run.data, run.regions);
    sherlock.AcceptDiagnosis("Database Backup", ex);
  }
  ASSERT_EQ(sherlock.repository().size(), 1u);
  EXPECT_EQ(sherlock.repository().models()[0].num_sources, 2);
}

TEST(ExplainerTest, LambdaThresholdHidesWeakCauses) {
  simulator::GeneratedDataset lock =
      Generate(simulator::AnomalyKind::kLockContention, 107);
  Explainer sherlock;
  Explanation ex = sherlock.Diagnose(lock.data, lock.regions);
  sherlock.AcceptDiagnosis("Lock Contention", ex);

  // Diagnose a very different anomaly: the lock model should not clear
  // a high confidence bar.
  simulator::GeneratedDataset cpu =
      Generate(simulator::AnomalyKind::kCpuSaturation, 108);
  Explainer::Options strict;
  strict.confidence_threshold = 95.0;
  Explainer strict_sherlock(strict);
  Explanation first = strict_sherlock.Diagnose(cpu.data, cpu.regions);
  strict_sherlock.AcceptDiagnosis("Lock Contention", ex);  // unrelated model
  Explanation result = strict_sherlock.Diagnose(cpu.data, cpu.regions);
  EXPECT_TRUE(result.causes.empty());
}

TEST(ExplainerTest, DiagnoseAutoFindsRegionAndExplains) {
  simulator::DatasetGenOptions options;
  options.seed = 109;
  options.normal_duration_sec = 600.0;  // long normal region for detection
  simulator::GeneratedDataset run = simulator::GenerateAnomalyDataset(
      options, simulator::AnomalyKind::kCpuSaturation, 60.0);
  Explainer sherlock;
  DetectionResult detected;
  Explanation ex = sherlock.DiagnoseAuto(run.data, &detected);
  ASSERT_FALSE(detected.abnormal_rows.empty());
  EXPECT_FALSE(ex.predicates.empty());
  // The detected region should overlap the true anomaly substantially.
  size_t inside = 0;
  for (size_t row : detected.abnormal_rows) {
    if (run.regions.abnormal.Contains(run.data.timestamp(row))) ++inside;
  }
  EXPECT_GT(static_cast<double>(inside) /
                static_cast<double>(detected.abnormal_rows.size()),
            0.6);
}

}  // namespace
}  // namespace dbsherlock::core
