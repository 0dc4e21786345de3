// End-to-end parity for the SIMD kernel layer (DESIGN.md §12): full
// diagnoses and automatic detections must be BIT-identical under forced
// scalar and AVX2, and diagnoses also across --threads, on several
// simulated anomaly datasets. This is the contract that makes runtime
// dispatch invisible: two hosts with different vector units (or thread
// counts) produce byte-for-byte the same explanation.

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>
#include <vector>

#include "common/simd/simd.h"
#include "core/anomaly_detector.h"
#include "core/explainer.h"
#include "simulator/dataset_gen.h"

namespace dbsherlock::core {
namespace {

namespace simd = dbsherlock::common::simd;

bool SameBits(double a, double b) {
  uint64_t ua, ub;
  std::memcpy(&ua, &a, sizeof(ua));
  std::memcpy(&ub, &b, sizeof(ub));
  return ua == ub;
}

simulator::GeneratedDataset Generate(simulator::AnomalyKind kind,
                                     uint64_t seed) {
  simulator::DatasetGenOptions options;
  options.seed = seed;
  return simulator::GenerateAnomalyDataset(options, kind, 90.0);
}

/// A diagnosis with a small trained repository, so model ranking (the
/// PartitionSpaceCache path) is exercised too.
Explanation DiagnoseWithModels(const simulator::GeneratedDataset& run,
                               size_t parallelism) {
  Explainer::Options options;
  options.predicate_options.parallelism = parallelism;
  options.confidence_threshold = -1000.0;  // rank everything
  Explainer sherlock(options);
  Explanation first = sherlock.Diagnose(run.data, run.regions);
  sherlock.AcceptDiagnosis("training-cause", first, "do the thing");
  return sherlock.Diagnose(run.data, run.regions);
}

void ExpectBitIdentical(const Explanation& a, const Explanation& b,
                        const std::string& label) {
  ASSERT_EQ(a.predicates.size(), b.predicates.size()) << label;
  for (size_t i = 0; i < a.predicates.size(); ++i) {
    const AttributeDiagnosis& da = a.predicates[i];
    const AttributeDiagnosis& db = b.predicates[i];
    EXPECT_EQ(da.predicate.attribute, db.predicate.attribute) << label;
    EXPECT_EQ(da.predicate.type, db.predicate.type) << label;
    EXPECT_TRUE(SameBits(da.predicate.low, db.predicate.low))
        << label << " " << da.predicate.attribute;
    EXPECT_TRUE(SameBits(da.predicate.high, db.predicate.high))
        << label << " " << da.predicate.attribute;
    EXPECT_EQ(da.predicate.categories, db.predicate.categories) << label;
    EXPECT_TRUE(SameBits(da.separation_power, db.separation_power))
        << label << " " << da.predicate.attribute;
    EXPECT_TRUE(SameBits(da.partition_separation_power,
                         db.partition_separation_power))
        << label << " " << da.predicate.attribute;
    EXPECT_TRUE(SameBits(da.normalized_mean_diff, db.normalized_mean_diff))
        << label << " " << da.predicate.attribute;
  }
  ASSERT_EQ(a.causes.size(), b.causes.size()) << label;
  for (size_t i = 0; i < a.causes.size(); ++i) {
    EXPECT_EQ(a.causes[i].cause, b.causes[i].cause) << label;
    EXPECT_TRUE(SameBits(a.causes[i].confidence, b.causes[i].confidence))
        << label << " " << a.causes[i].cause;
  }
  ASSERT_EQ(a.warnings.size(), b.warnings.size()) << label;
}

struct Scenario {
  simulator::AnomalyKind kind;
  uint64_t seed;
};

const Scenario kScenarios[] = {
    {simulator::AnomalyKind::kNetworkCongestion, 7001},
    {simulator::AnomalyKind::kCpuSaturation, 7002},
    {simulator::AnomalyKind::kIoSaturation, 7003},
};

TEST(SimdExplainerParityTest, ExplanationsBitIdenticalAcrossIsas) {
  for (const Scenario& s : kScenarios) {
    simulator::GeneratedDataset run = Generate(s.kind, s.seed);
    simd::ScopedIsaOverride scalar(simd::Isa::kScalar);
    ASSERT_TRUE(scalar.ok());
    Explanation reference = DiagnoseWithModels(run, 1);
    ASSERT_FALSE(reference.predicates.empty());
    if (!simd::IsaSupported(simd::Isa::kAvx2)) continue;
    simd::ScopedIsaOverride forced(simd::Isa::kAvx2);
    ASSERT_TRUE(forced.ok());
    ExpectBitIdentical(reference, DiagnoseWithModels(run, 1), "isa=avx2");
  }
}

TEST(SimdExplainerParityTest, ExplanationsBitIdenticalAcrossThreads) {
  for (const Scenario& s : kScenarios) {
    simulator::GeneratedDataset run = Generate(s.kind, s.seed);
    Explanation serial = DiagnoseWithModels(run, 1);
    for (size_t parallelism : {size_t{0}, size_t{4}}) {
      Explanation parallel = DiagnoseWithModels(run, parallelism);
      ExpectBitIdentical(serial, parallel,
                         "parallelism=" + std::to_string(parallelism));
    }
  }
}

TEST(SimdExplainerParityTest, DetectionsBitIdenticalAcrossIsas) {
  for (const Scenario& s : kScenarios) {
    simulator::GeneratedDataset run = Generate(s.kind, s.seed);
    AnomalyDetectorOptions options;
    simd::ScopedIsaOverride scalar(simd::Isa::kScalar);
    ASSERT_TRUE(scalar.ok());
    DetectionResult reference = DetectAnomalies(run.data, options);
    // Features selected and clustered (the congestion scenario flags no
    // rows at the default cluster cutoff; the other two do).
    ASSERT_FALSE(reference.selected_attributes.empty());
    ASSERT_GT(reference.epsilon, 0.0);
    if (!simd::IsaSupported(simd::Isa::kAvx2)) continue;
    simd::ScopedIsaOverride forced(simd::Isa::kAvx2);
    ASSERT_TRUE(forced.ok());
    DetectionResult avx2 = DetectAnomalies(run.data, options);
    EXPECT_TRUE(SameBits(reference.epsilon, avx2.epsilon)) << s.seed;
    EXPECT_EQ(reference.selected_attributes, avx2.selected_attributes)
        << s.seed;
    EXPECT_EQ(reference.abnormal_rows, avx2.abnormal_rows) << s.seed;
  }
}

}  // namespace
}  // namespace dbsherlock::core
