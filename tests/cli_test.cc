// Integration tests for the `dbsherlock` CLI: each subcommand is executed
// as a real subprocess against temp files, checking exit codes and output.
// The binary path comes from the DBSHERLOCK_CLI_PATH compile definition.

#include <gtest/gtest.h>

#include <unistd.h>

#include <cstdio>
#include <string>

#include "run_command.h"

namespace {

RunResult RunCli(const std::string& args) {
  return RunCommand(std::string(DBSHERLOCK_CLI_PATH) + " " + args);
}

std::string TempPath(const std::string& name) {
  // gtest_discover_tests runs every case in its own process, and ctest -j
  // runs those processes concurrently; the pid keeps one process's
  // SetUpTestSuite from rewriting a file another is mid-read on.
  return testing::TempDir() + "/dbsherlock_cli_" + std::to_string(getpid()) +
         "_" + name;
}

class CliTest : public ::testing::Test {
 protected:
  static void SetUpTestSuite() {
    data_path_ = new std::string(TempPath("incident.csv"));
    models_path_ = new std::string(TempPath("models.json"));
    std::remove(models_path_->c_str());
    RunResult r = RunCli("simulate --anomaly lock_contention --seed 7 --out " +
                         *data_path_);
    ASSERT_EQ(r.exit_code, 0) << r.output;
  }

  static std::string* data_path_;
  static std::string* models_path_;
};

std::string* CliTest::data_path_ = nullptr;
std::string* CliTest::models_path_ = nullptr;

TEST_F(CliTest, NoArgsPrintsUsage) {
  RunResult r = RunCli("");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

TEST_F(CliTest, UnknownCommandPrintsUsage) {
  RunResult r = RunCli("frobnicate");
  EXPECT_EQ(r.exit_code, 2);
}

TEST_F(CliTest, SimulateRejectsUnknownAnomaly) {
  RunResult r = RunCli("simulate --anomaly nonsense --out /dev/null");
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("lock_contention"), std::string::npos);  // listed
}

TEST_F(CliTest, PlotRendersAsciiChart) {
  RunResult r = RunCli("plot --data " + *data_path_ +
                       " --attribute avg_latency_ms --abnormal 60:120");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("avg_latency_ms"), std::string::npos);
  EXPECT_NE(r.output.find('^'), std::string::npos);  // region markers
}

TEST_F(CliTest, PlotWritesSvg) {
  std::string svg_path = TempPath("chart.svg");
  RunResult r = RunCli("plot --data " + *data_path_ +
                       " --attribute throughput_tps --svg " + svg_path);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  FILE* f = std::fopen(svg_path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  char head[6] = {0};
  ASSERT_EQ(fread(head, 1, 4, f), 4u);
  std::fclose(f);
  EXPECT_EQ(std::string(head, 4), "<svg");
  std::remove(svg_path.c_str());
}

TEST_F(CliTest, DiagnoseFindsLockPredicates) {
  RunResult r =
      RunCli("diagnose --data " + *data_path_ + " --abnormal 60:120");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("Predicates:"), std::string::npos);
  EXPECT_NE(r.output.find("lock_wait"), std::string::npos);
}

TEST_F(CliTest, DiagnoseRejectsBadRegion) {
  RunResult r =
      RunCli("diagnose --data " + *data_path_ + " --abnormal 120:60");
  EXPECT_EQ(r.exit_code, 2);
}

TEST_F(CliTest, TeachThenModelsThenDiagnoseNamesCause) {
  RunResult teach = RunCli(
      "teach --data " + *data_path_ +
      " --abnormal 60:120 --cause \"Lock Contention\" --action "
      "\"spread hot rows\" --models " +
      *models_path_);
  ASSERT_EQ(teach.exit_code, 0) << teach.output;
  EXPECT_NE(teach.output.find("Stored causal model"), std::string::npos);

  RunResult models = RunCli("models --models " + *models_path_);
  EXPECT_EQ(models.exit_code, 0) << models.output;
  EXPECT_NE(models.output.find("Lock Contention"), std::string::npos);
  EXPECT_NE(models.output.find("spread hot rows"), std::string::npos);

  RunResult diagnose = RunCli("diagnose --data " + *data_path_ +
                              " --abnormal 60:120 --models " + *models_path_);
  EXPECT_EQ(diagnose.exit_code, 0) << diagnose.output;
  EXPECT_NE(diagnose.output.find("Likely causes:"), std::string::npos);
  EXPECT_NE(diagnose.output.find("Lock Contention"), std::string::npos);
}

TEST_F(CliTest, ReportWritesHtml) {
  std::string report_path = TempPath("report.html");
  RunResult r = RunCli("report --data " + *data_path_ +
                       " --abnormal 60:120 --out " + report_path +
                       " --title TestIncident");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  FILE* f = std::fopen(report_path.c_str(), "rb");
  ASSERT_NE(f, nullptr);
  std::string contents(1 << 16, '\0');
  contents.resize(fread(contents.data(), 1, contents.size(), f));
  std::fclose(f);
  EXPECT_NE(contents.find("<!DOCTYPE html>"), std::string::npos);
  EXPECT_NE(contents.find("TestIncident"), std::string::npos);
  std::remove(report_path.c_str());
}

TEST_F(CliTest, DetectRunsOnData) {
  RunResult r = RunCli("detect --data " + *data_path_);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  // On a 180 s run with a 60 s anomaly the region exceeds the 20% cluster
  // cutoff, so "no anomaly" is the expected (and documented) answer.
  EXPECT_TRUE(r.output.find("No anomaly detected") != std::string::npos ||
              r.output.find("Detected abnormal") != std::string::npos);
}

TEST_F(CliTest, MissingDataFileFails) {
  RunResult r = RunCli("diagnose --data /no/such.csv --abnormal 1:2");
  EXPECT_EQ(r.exit_code, 7);  // kIoError (see README exit-code table)
  EXPECT_NE(r.output.find("error"), std::string::npos);
}

std::string WriteTempCsv(const std::string& name, const std::string& text) {
  std::string path = TempPath(name);
  FILE* f = std::fopen(path.c_str(), "wb");
  EXPECT_NE(f, nullptr);
  EXPECT_EQ(fwrite(text.data(), 1, text.size(), f), text.size());
  std::fclose(f);
  return path;
}

TEST_F(CliTest, ExitCodesDistinguishFailureClasses) {
  // Non-numeric cell: parse error -> 8.
  std::string garbled =
      WriteTempCsv("garbled.csv", "timestamp,cpu\n0,fast\n");
  EXPECT_EQ(RunCli("detect --data " + garbled).exit_code, 8);
  std::remove(garbled.c_str());

  // Duplicate timestamps: invalid input data -> 3.
  std::string dup = WriteTempCsv("dup_ts.csv", "timestamp,cpu\n0,1\n0,2\n");
  RunResult r = RunCli("detect --data " + dup);
  EXPECT_EQ(r.exit_code, 3);
  EXPECT_NE(r.output.find("allow_unsorted"), std::string::npos);  // hint
  std::remove(dup.c_str());
}

TEST_F(CliTest, RepairAndQualityReportIngestCorruptTelemetry) {
  // Out-of-order rows plus a NaN cell: strict ingest refuses, --repair
  // (which implies --allow-unsorted) audits and fixes.
  std::string text = "timestamp,cpu\n";
  for (int t = 0; t < 30; ++t) {
    if (t == 10) {
      text += "12,0.5\n";  // out of order (belongs after 11)
    } else if (t == 20) {
      text += "20,nan\n";
    } else {
      text += std::to_string(t) + ",0.5\n";
    }
  }
  std::string path = WriteTempCsv("corrupt.csv", text);
  EXPECT_EQ(RunCli("detect --data " + path).exit_code, 3);

  RunResult r =
      RunCli("detect --data " + path + " --repair --quality-report");
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("QualityReport:"), std::string::npos);
  EXPECT_NE(r.output.find("NOT monotonic"), std::string::npos);
  EXPECT_NE(r.output.find("repair:"), std::string::npos);
  std::remove(path.c_str());
}

TEST_F(CliTest, SimulateInjectFaultsReportsCounts) {
  std::string out = TempPath("faulted.csv");
  RunResult r = RunCli(
      "simulate --anomaly lock_contention --seed 7 --inject-faults "
      "--fault-rate 0.1 --out " +
      out);
  EXPECT_EQ(r.exit_code, 0) << r.output;
  EXPECT_NE(r.output.find("faults:"), std::string::npos);

  // The corrupted file needs --repair (or --allow-unsorted) to come back.
  RunResult strict = RunCli("detect --data " + out);
  EXPECT_NE(strict.exit_code, 0);
  RunResult repaired = RunCli("detect --data " + out + " --repair");
  EXPECT_EQ(repaired.exit_code, 0) << repaired.output;
  std::remove(out.c_str());
}

}  // namespace
