// Golden incident reports (DESIGN.md §16): full DQL pipeline over
// simulator datasets for two of the paper's anomaly causes, rendered as
// markdown and JSON and compared byte-for-byte against tests/golden/.
// Reports are golden-stable by construction — no wall-clock fields, all
// floats rounded to 1e-4 in JSON and short-printed in markdown — and
// every input is seeded, so a mismatch means the report pipeline changed.
// Regenerate intentionally with DBSHERLOCK_UPDATE_GOLDEN=1.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdlib>
#include <string>

#include "core/explainer.h"
#include "golden.h"
#include "query/compiler.h"
#include "query/executor.h"
#include "query/parser.h"
#include "query/report.h"
#include "simulator/dataset_gen.h"
#include "store/tenant_store.h"

namespace dbsherlock::query {
namespace {

std::string StoreDir(const std::string& name) {
  std::string dir = testing::TempDir() + "/dbsherlock_qgolden_" +
                    std::to_string(getpid()) + "_" + name;
  std::string cmd = "rm -rf '" + dir + "'";
  (void)std::system(cmd.c_str());
  return dir;
}

/// Loads one simulator dataset into a fresh TenantStore (the same row
/// shapes the daemon would have ingested and sealed).
std::unique_ptr<store::TenantStore> StoreFrom(
    const tsdata::Dataset& data, const std::string& name) {
  store::TenantStore::Options options;
  options.dir = StoreDir(name);
  options.schema = data.schema();
  options.seal_rows = 64;
  options.fsync_on_seal = false;
  auto open = store::TenantStore::Open(std::move(options));
  EXPECT_TRUE(open.ok()) << open.status().ToString();
  auto store = std::move(*open);
  std::vector<tsdata::Cell> cells;
  for (size_t row = 0; row < data.num_rows(); ++row) {
    data.RowCells(row, &cells);
    EXPECT_TRUE(store->Append(data.timestamp(row), cells).ok());
  }
  EXPECT_TRUE(store->Seal().ok());
  return store;
}

/// An explainer taught the paper's causes from independent training runs
/// (seed differs from the evaluation dataset's).
core::Explainer TrainExplainer() {
  core::Explainer explainer;
  for (simulator::AnomalyKind kind :
       {simulator::AnomalyKind::kCpuSaturation,
        simulator::AnomalyKind::kLockContention,
        simulator::AnomalyKind::kIoSaturation}) {
    simulator::DatasetGenOptions options;
    options.seed = 1000 + static_cast<uint64_t>(kind);
    simulator::GeneratedDataset train =
        simulator::GenerateAnomalyDataset(options, kind, 60.0);
    core::Explanation ex = explainer.Diagnose(train.data, train.regions);
    explainer.AcceptDiagnosis(simulator::AnomalyKindName(kind), ex);
  }
  return explainer;
}

IncidentReport RunQuery(const std::string& text,
                        const tsdata::Schema& schema,
                        const store::TenantStore* history,
                        const core::Explainer& explainer) {
  auto parsed = Parse(text);
  EXPECT_TRUE(parsed.ok()) << parsed.status().message();
  CompileContext compile_context;
  compile_context.schema = &schema;
  compile_context.history = history;
  auto compiled = Compile(*parsed, text, compile_context);
  EXPECT_TRUE(compiled.ok()) << compiled.status().message();
  ExecutionContext context;
  context.schema = &schema;
  context.history = history;
  context.explainer = &explainer;
  auto report = Execute(*compiled, context, {});
  EXPECT_TRUE(report.ok()) << report.status().ToString();
  IncidentReport out = report.ok() ? *report : IncidentReport{};
  out.tenant = "golden";
  return out;
}

TEST(QueryGoldenTest, CpuSaturationExplainWhere) {
  simulator::DatasetGenOptions options;
  options.seed = 7;
  simulator::GeneratedDataset run = simulator::GenerateAnomalyDataset(
      options, simulator::AnomalyKind::kCpuSaturation, 60.0);
  auto store = StoreFrom(run.data, "cpu_sat");
  core::Explainer explainer = TrainExplainer();
  // `cpu` resolves through the alias table to os_cpu_usage; p90 lands in
  // the normal tail so the saturated plateau matches.
  IncidentReport report = RunQuery(
      "EXPLAIN WHERE cpu > p90 BETWEEN 0 200 RANK BY confidence TOP 3",
      run.data.schema(), store.get(), explainer);
  ASSERT_FALSE(report.findings.empty());
  ASSERT_FALSE(report.findings[0].causes.empty());
  EXPECT_EQ(report.findings[0].causes[0].cause, "CPU Saturation");
  CompareToGolden("cpu_saturation_explain.md", RenderMarkdown(report));
  CompareToGolden("cpu_saturation_explain.json",
                  ReportToJson(report).Dump(2) + "\n");
}

TEST(QueryGoldenTest, LockContentionExplainRegion) {
  simulator::DatasetGenOptions options;
  options.seed = 8;
  simulator::GeneratedDataset run = simulator::GenerateAnomalyDataset(
      options, simulator::AnomalyKind::kLockContention, 60.0);
  auto store = StoreFrom(run.data, "lock_cont");
  core::Explainer explainer = TrainExplainer();
  ASSERT_FALSE(run.regions.abnormal.ranges().empty());
  tsdata::TimeRange truth = run.regions.abnormal.ranges().front();
  std::string text = "EXPLAIN REGION " + FormatNumber(truth.start) + " " +
                     FormatNumber(truth.end) + " TOP 3";
  IncidentReport report =
      RunQuery(text, run.data.schema(), store.get(), explainer);
  ASSERT_FALSE(report.findings.empty());
  ASSERT_FALSE(report.findings[0].causes.empty());
  EXPECT_EQ(report.findings[0].causes[0].cause, "Lock Contention");
  CompareToGolden("lock_contention_region.md", RenderMarkdown(report));
  CompareToGolden("lock_contention_region.json",
                  ReportToJson(report).Dump(2) + "\n");
}

TEST(QueryGoldenTest, DescribeTenant) {
  simulator::DatasetGenOptions options;
  options.seed = 7;
  simulator::GeneratedDataset run = simulator::GenerateAnomalyDataset(
      options, simulator::AnomalyKind::kCpuSaturation, 60.0);
  auto store = StoreFrom(run.data, "describe");
  core::Explainer explainer;
  auto parsed = Parse("DESCRIBE");
  ASSERT_TRUE(parsed.ok());
  CompileContext compile_context;
  tsdata::Schema schema = run.data.schema();
  compile_context.schema = &schema;
  auto compiled = Compile(*parsed, "DESCRIBE", compile_context);
  ASSERT_TRUE(compiled.ok());
  ExecutionContext context;
  context.schema = &schema;
  context.history = store.get();
  context.explainer = &explainer;
  context.models = 3;
  context.diagnoses = 1;
  auto report = Execute(*compiled, context, {});
  ASSERT_TRUE(report.ok()) << report.status().ToString();
  report->tenant = "golden";
  CompareToGolden("describe.md", RenderMarkdown(*report));
  CompareToGolden("describe.json", ReportToJson(*report).Dump(2) + "\n");
}

}  // namespace
}  // namespace dbsherlock::query
