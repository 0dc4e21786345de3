// The paper's numbers as goldens (EXPERIMENTS.md): every figure and table
// bench runs at its default flags (seed 42) and its stdout must equal
// tests/golden/paper/<bench>.txt byte for byte. Each bench is a pure
// function of its seed on every kernel ISA and core count; the one
// wall-clock field, Figure 12's "Computation time (s)" column, is masked.
// A change that moves a paper number regenerates the golden with
// DBSHERLOCK_UPDATE_GOLDEN=1 and updates its EXPERIMENTS.md row with it.
//
// Figure 8 and Table 7 take 5 and 25 s; they are DISABLED_ here and run
// with --gtest_also_run_disabled_tests in CI's paper-goldens job.

#include <gtest/gtest.h>

#include <cctype>
#include <sstream>
#include <string>

#include "golden.h"
#include "run_command.h"

#ifndef DBSHERLOCK_BENCH_DIR
#error "build must define DBSHERLOCK_BENCH_DIR"
#endif

namespace {

/// Replaces the last field of each data row of Figure 12's section (a),
/// the seconds that sweep point took, with "-".
std::string MaskComputationTime(const std::string& text) {
  std::istringstream in(text);
  std::string out;
  std::string line;
  bool in_section_a = false;
  while (std::getline(in, line)) {
    if (line.rfind("(a) ", 0) == 0) in_section_a = true;
    if (line.empty()) in_section_a = false;
    if (in_section_a && std::isdigit(static_cast<unsigned char>(line[0]))) {
      size_t end = line.find_last_not_of(' ');
      line = line.substr(0, line.find_last_of(' ', end) + 1) + "-";
    }
    out += line + "\n";
  }
  return out;
}

void ExpectBenchMatchesGolden(const std::string& bench) {
  // Only stdout is compared: RunCommand merges stderr into the output,
  // so the bench's stderr is routed around it (fd 3) to the test log.
  RunResult run = RunCommand("(" + std::string(DBSHERLOCK_BENCH_DIR) + "/" +
                             bench + " 2>&3) 3>&2");
  ASSERT_EQ(run.exit_code, 0) << run.output;
  std::string got = run.output;
  if (bench == "bench_fig12_parameters") got = MaskComputationTime(got);
  CompareToGolden(bench + ".txt", got);
}

TEST(PaperGoldenTest, Figure1Motivation) {
  ExpectBenchMatchesGolden("bench_fig1_motivation");
}
TEST(PaperGoldenTest, Figure7SingleModels) {
  ExpectBenchMatchesGolden("bench_fig7_single_models");
}
TEST(PaperGoldenTest, DISABLED_Figure8MergedModels) {
  ExpectBenchMatchesGolden("bench_fig8_merged_models");
}
TEST(PaperGoldenTest, Figure9PerfXplain) {
  ExpectBenchMatchesGolden("bench_fig9_perfxplain");
}
TEST(PaperGoldenTest, Figure10Compound) {
  ExpectBenchMatchesGolden("bench_fig10_compound");
}
TEST(PaperGoldenTest, Figure11Overfitting) {
  ExpectBenchMatchesGolden("bench_fig11_overfitting");
}
TEST(PaperGoldenTest, Figure12Parameters) {
  ExpectBenchMatchesGolden("bench_fig12_parameters");
}
TEST(PaperGoldenTest, Figure13Kappa) {
  ExpectBenchMatchesGolden("bench_fig13_kappa");
}
TEST(PaperGoldenTest, Table2DomainKnowledge) {
  ExpectBenchMatchesGolden("bench_table2_domain_knowledge");
}
TEST(PaperGoldenTest, Table3UserStudy) {
  ExpectBenchMatchesGolden("bench_table3_user_study");
}
TEST(PaperGoldenTest, Table4Tpce) {
  ExpectBenchMatchesGolden("bench_table4_tpce");
}
TEST(PaperGoldenTest, Table5Robustness) {
  ExpectBenchMatchesGolden("bench_table5_robustness");
}
TEST(PaperGoldenTest, Table6Ablation) {
  ExpectBenchMatchesGolden("bench_table6_ablation");
}
TEST(PaperGoldenTest, DISABLED_Table7AutoDetect) {
  ExpectBenchMatchesGolden("bench_table7_autodetect");
}
TEST(PaperGoldenTest, Table8SyntheticDomainKnowledge) {
  ExpectBenchMatchesGolden("bench_table8_synthetic_dk");
}

}  // namespace
