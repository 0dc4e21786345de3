// Bit-identical parity tests for the columnar SIMD kernels (DESIGN.md §12):
// every kernel is run under forced scalar and AVX2 and the results are
// compared bitwise (not approximately) — the lane discipline makes the
// stronger contract hold. AVX2 is skipped on a host without it, so this
// test is meaningful on any machine.

#include "common/simd/simd.h"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <cstring>
#include <limits>
#include <random>
#include <vector>

namespace simd = dbsherlock::common::simd;

namespace {

constexpr double kNan = std::numeric_limits<double>::quiet_NaN();
constexpr double kInf = std::numeric_limits<double>::infinity();

/// Bitwise equality that treats all NaN payloads as distinct — the parity
/// contract is "same bits", not "same value class".
bool SameBits(double a, double b) {
  uint64_t ua, ub;
  std::memcpy(&ua, &a, sizeof(ua));
  std::memcpy(&ub, &b, sizeof(ub));
  return ua == ub;
}

std::vector<simd::Isa> SupportedIsas() {
  std::vector<simd::Isa> isas = {simd::Isa::kScalar};
  if (simd::IsaSupported(simd::Isa::kAvx2)) isas.push_back(simd::Isa::kAvx2);
  return isas;
}

/// Test columns: a mix of smooth, hostile (NaN/±Inf/±0.0/denormal), empty,
/// and odd lengths so vector tails and masks are all exercised.
std::vector<std::vector<double>> TestColumns() {
  std::vector<std::vector<double>> cols;
  cols.push_back({});                     // empty
  cols.push_back({3.5});                  // single element
  cols.push_back({1.0, 2.0, 3.0});        // shorter than one vector
  cols.push_back({kNan, kNan, kNan});     // all masked
  cols.push_back({-0.0, 0.0, -0.0, 0.0, -0.0});  // signed-zero ties
  std::mt19937_64 rng(0xD85Eu);
  std::uniform_real_distribution<double> dist(-1e6, 1e6);
  for (size_t n : {4u, 7u, 8u, 64u, 513u, 1000u}) {
    std::vector<double> col(n);
    for (auto& v : col) v = dist(rng);
    // Sprinkle hostile values at deterministic positions.
    for (size_t i = 0; i < n; i += 13) col[i] = kNan;
    for (size_t i = 5; i < n; i += 29) col[i] = kInf;
    for (size_t i = 11; i < n; i += 31) col[i] = -kInf;
    for (size_t i = 3; i < n; i += 17) col[i] = -0.0;
    for (size_t i = 7; i < n; i += 23) col[i] = 5e-324;  // denormal
    cols.push_back(std::move(col));
  }
  return cols;
}

class SimdParityTest : public ::testing::Test {
 protected:
  void TearDown() override {
    simd::SetActiveIsa(simd::BestSupportedIsa());
  }
};

TEST_F(SimdParityTest, ProfileSpanBitIdenticalAcrossIsas) {
  for (const auto& col : TestColumns()) {
    simd::ScopedIsaOverride scalar(simd::Isa::kScalar);
    simd::SpanProfile ref = simd::ProfileSpan(col.data(), col.size());
    for (simd::Isa isa : SupportedIsas()) {
      simd::ScopedIsaOverride forced(isa);
      ASSERT_TRUE(forced.ok());
      simd::SpanProfile got = simd::ProfileSpan(col.data(), col.size());
      EXPECT_TRUE(SameBits(got.min, ref.min))
          << simd::IsaName(isa) << " min, n=" << col.size();
      EXPECT_TRUE(SameBits(got.max, ref.max))
          << simd::IsaName(isa) << " max, n=" << col.size();
      EXPECT_TRUE(SameBits(got.sum, ref.sum))
          << simd::IsaName(isa) << " sum, n=" << col.size();
      EXPECT_EQ(got.finite_count, ref.finite_count) << simd::IsaName(isa);
      EXPECT_EQ(got.non_finite_count, ref.non_finite_count)
          << simd::IsaName(isa);
    }
  }
}

TEST_F(SimdParityTest, ProfileSpanMatchesNaiveOnFiniteData) {
  std::vector<double> col = {4.0, -2.0, 9.0, 0.5, 7.25, -3.0, 1.0};
  simd::SpanProfile p = simd::ProfileSpan(col.data(), col.size());
  EXPECT_EQ(p.min, -3.0);
  EXPECT_EQ(p.max, 9.0);
  EXPECT_EQ(p.finite_count, 7u);
  EXPECT_EQ(p.non_finite_count, 0u);
  EXPECT_DOUBLE_EQ(p.sum, 16.75);
}

TEST_F(SimdParityTest, ProfileSpanAllMaskedLeavesDefaults) {
  std::vector<double> col = {kNan, kInf, -kInf, kNan, kNan};
  simd::SpanProfile p = simd::ProfileSpan(col.data(), col.size());
  EXPECT_EQ(p.finite_count, 0u);
  EXPECT_EQ(p.non_finite_count, 5u);
  EXPECT_EQ(p.min, 0.0);
  EXPECT_EQ(p.max, 0.0);
  EXPECT_EQ(p.sum, 0.0);
}

TEST_F(SimdParityTest, SumKernelsBitIdenticalAcrossIsas) {
  for (const auto& col : TestColumns()) {
    // Skip hostile columns for the unmasked sums: NaN/Inf propagate by
    // design, and NaN payload bits are not part of the parity contract.
    bool finite = true;
    for (double v : col) finite = finite && std::isfinite(v);
    if (!finite) continue;
    simd::ScopedIsaOverride scalar(simd::Isa::kScalar);
    double ref_sum = simd::SumSpan(col.data(), col.size());
    double ref_ssd = simd::SumSquaredDiff(col.data(), col.size(), 41.5);
    for (simd::Isa isa : SupportedIsas()) {
      simd::ScopedIsaOverride forced(isa);
      ASSERT_TRUE(forced.ok());
      EXPECT_TRUE(SameBits(simd::SumSpan(col.data(), col.size()), ref_sum))
          << simd::IsaName(isa) << " n=" << col.size();
      EXPECT_TRUE(SameBits(
          simd::SumSquaredDiff(col.data(), col.size(), 41.5), ref_ssd))
          << simd::IsaName(isa) << " n=" << col.size();
    }
  }
}

TEST_F(SimdParityTest, CountMatchesAcrossIsasAndNaN) {
  using simd::CmpKind;
  for (const auto& col : TestColumns()) {
    for (CmpKind kind :
         {CmpKind::kLess, CmpKind::kGreaterEq, CmpKind::kInRange}) {
      simd::ScopedIsaOverride scalar(simd::Isa::kScalar);
      uint64_t ref =
          simd::CountMatches(col.data(), col.size(), kind, -100.0, 250.5);
      // Independent oracle.
      uint64_t naive = 0;
      for (double v : col) {
        switch (kind) {
          case CmpKind::kLess:
            naive += v < 250.5 ? 1 : 0;
            break;
          case CmpKind::kGreaterEq:
            naive += v >= -100.0 ? 1 : 0;
            break;
          case CmpKind::kInRange:
            naive += (v >= -100.0 && v < 250.5) ? 1 : 0;
            break;
        }
      }
      EXPECT_EQ(ref, naive);
      for (simd::Isa isa : SupportedIsas()) {
        simd::ScopedIsaOverride forced(isa);
        ASSERT_TRUE(forced.ok());
        EXPECT_EQ(simd::CountMatches(col.data(), col.size(), kind, -100.0,
                                     250.5),
                  ref)
            << simd::IsaName(isa) << " n=" << col.size();
      }
    }
  }
}

TEST_F(SimdParityTest, NaNMatchesNoComparison) {
  std::vector<double> col = {kNan};
  using simd::CmpKind;
  for (CmpKind kind :
       {CmpKind::kLess, CmpKind::kGreaterEq, CmpKind::kInRange}) {
    for (simd::Isa isa : SupportedIsas()) {
      simd::ScopedIsaOverride forced(isa);
      EXPECT_EQ(simd::CountMatches(col.data(), col.size(), kind, -kInf, kInf),
                0u)
          << simd::IsaName(isa);
    }
  }
}

TEST_F(SimdParityTest, PartitionIndicesAcrossIsas) {
  for (const auto& col : TestColumns()) {
    std::vector<uint32_t> ref(col.size() + 1, 0xABABABABu);
    {
      simd::ScopedIsaOverride scalar(simd::Isa::kScalar);
      simd::PartitionIndices(col.data(), col.size(), -5000.0, 37.25, 250,
                             ref.data());
    }
    EXPECT_EQ(ref.back(), 0xABABABABu);  // no overwrite past n
    for (size_t i = 0; i < col.size(); ++i) {
      if (!std::isfinite(col[i])) {
        EXPECT_EQ(ref[i], simd::kNoPartition);
      } else {
        EXPECT_LT(ref[i], 250u);
      }
    }
    for (simd::Isa isa : SupportedIsas()) {
      std::vector<uint32_t> got(col.size() + 1, 0xABABABABu);
      simd::ScopedIsaOverride forced(isa);
      ASSERT_TRUE(forced.ok());
      simd::PartitionIndices(col.data(), col.size(), -5000.0, 37.25, 250,
                             got.data());
      EXPECT_EQ(got, ref) << simd::IsaName(isa) << " n=" << col.size();
    }
  }
}

TEST_F(SimdParityTest, PartitionIndicesBoundaryCases) {
  const double min = 10.0, width = 2.0;
  const uint32_t parts = 4;
  std::vector<double> col = {9.0, 10.0, 10.5, 12.0, 17.9, 18.0, 1e300, kNan};
  std::vector<uint32_t> out(col.size());
  for (simd::Isa isa : SupportedIsas()) {
    simd::ScopedIsaOverride forced(isa);
    simd::PartitionIndices(col.data(), col.size(), min, width, parts,
                           out.data());
    EXPECT_EQ(out[0], 0u) << simd::IsaName(isa);  // below min
    EXPECT_EQ(out[1], 0u) << simd::IsaName(isa);  // at min
    EXPECT_EQ(out[2], 0u) << simd::IsaName(isa);
    EXPECT_EQ(out[3], 1u) << simd::IsaName(isa);
    EXPECT_EQ(out[4], 3u) << simd::IsaName(isa);
    EXPECT_EQ(out[5], 3u) << simd::IsaName(isa);  // clamped to last
    EXPECT_EQ(out[6], 3u) << simd::IsaName(isa);  // huge, clamped
    EXPECT_EQ(out[7], simd::kNoPartition) << simd::IsaName(isa);
  }
}

TEST_F(SimdParityTest, NormalizeSpanAcrossIsas) {
  for (const auto& col : TestColumns()) {
    std::vector<double> ref(col.size(), -7.0);
    {
      simd::ScopedIsaOverride scalar(simd::Isa::kScalar);
      simd::NormalizeSpan(col.data(), col.size(), -1000.0, 2000.0, 0.25,
                          ref.data());
    }
    for (simd::Isa isa : SupportedIsas()) {
      std::vector<double> got(col.size(), -7.0);
      simd::ScopedIsaOverride forced(isa);
      ASSERT_TRUE(forced.ok());
      simd::NormalizeSpan(col.data(), col.size(), -1000.0, 2000.0, 0.25,
                          got.data());
      for (size_t i = 0; i < col.size(); ++i) {
        EXPECT_TRUE(SameBits(got[i], ref[i]))
            << simd::IsaName(isa) << " i=" << i << " n=" << col.size();
      }
    }
  }
}

TEST_F(SimdParityTest, NormalizeSpanDegenerateRange) {
  std::vector<double> col = {1.0, 5.0, kNan, -kInf, 5.0};
  std::vector<double> out(col.size(), -7.0);
  for (simd::Isa isa : SupportedIsas()) {
    simd::ScopedIsaOverride forced(isa);
    simd::NormalizeSpan(col.data(), col.size(), 5.0, 5.0, 0.5, out.data());
    EXPECT_EQ(out[0], 0.0) << simd::IsaName(isa);
    EXPECT_EQ(out[1], 0.0) << simd::IsaName(isa);
    EXPECT_EQ(out[2], 0.5) << simd::IsaName(isa);  // fill for NaN
    EXPECT_EQ(out[3], 0.5) << simd::IsaName(isa);  // fill for -inf
    EXPECT_EQ(out[4], 0.0) << simd::IsaName(isa);
  }
}

TEST_F(SimdParityTest, SquaredDistancesAcrossIsas) {
  std::mt19937_64 rng(17);
  std::uniform_real_distribution<double> dist(-50.0, 50.0);
  for (size_t n : {1u, 3u, 4u, 9u, 64u, 257u}) {
    for (size_t dims : {0u, 1u, 2u, 5u}) {
      std::vector<std::vector<double>> cols(dims, std::vector<double>(n));
      std::vector<const double*> ptrs;
      for (auto& c : cols) {
        for (auto& v : c) v = dist(rng);
        ptrs.push_back(c.data());
      }
      const size_t p = n / 2;
      std::vector<double> ref(n, -1.0);
      {
        simd::ScopedIsaOverride scalar(simd::Isa::kScalar);
        simd::SquaredDistancesToAll(ptrs.data(), dims, n, p, ref.data());
      }
      EXPECT_EQ(ref[p], 0.0);
      for (simd::Isa isa : SupportedIsas()) {
        std::vector<double> got(n, -1.0);
        simd::ScopedIsaOverride forced(isa);
        ASSERT_TRUE(forced.ok());
        simd::SquaredDistancesToAll(ptrs.data(), dims, n, p, got.data());
        for (size_t q = 0; q < n; ++q) {
          EXPECT_TRUE(SameBits(got[q], ref[q]))
              << simd::IsaName(isa) << " q=" << q << " n=" << n
              << " dims=" << dims;
        }
      }
    }
  }
}

TEST_F(SimdParityTest, UnalignedTailsStayBitIdentical) {
  // Offset views into one buffer: every alignment phase of the vector loop.
  std::mt19937_64 rng(99);
  std::uniform_real_distribution<double> dist(-10.0, 10.0);
  std::vector<double> buf(256);
  for (auto& v : buf) v = dist(rng);
  buf[37] = kNan;
  for (size_t offset = 0; offset < 8; ++offset) {
    for (size_t n : {0u, 1u, 5u, 31u, 200u}) {
      const double* x = buf.data() + offset;
      simd::ScopedIsaOverride scalar(simd::Isa::kScalar);
      simd::SpanProfile ref = simd::ProfileSpan(x, n);
      for (simd::Isa isa : SupportedIsas()) {
        simd::ScopedIsaOverride forced(isa);
        simd::SpanProfile got = simd::ProfileSpan(x, n);
        EXPECT_TRUE(SameBits(got.sum, ref.sum))
            << simd::IsaName(isa) << " offset=" << offset << " n=" << n;
        EXPECT_TRUE(SameBits(got.min, ref.min));
        EXPECT_TRUE(SameBits(got.max, ref.max));
      }
    }
  }
}

TEST(SimdDispatchTest, IsaNamesRoundTrip) {
  using simd::Isa;
  for (Isa isa : {Isa::kScalar, Isa::kAvx2}) {
    auto parsed = simd::ParseIsaName(simd::IsaName(isa));
    ASSERT_TRUE(parsed.has_value());
    EXPECT_EQ(*parsed, isa);
  }
  EXPECT_EQ(simd::ParseIsaName("AVX2"), Isa::kAvx2);  // case-insensitive
  EXPECT_EQ(simd::ParseIsaName("sse2"), std::nullopt);  // no SSE2 tier
  EXPECT_EQ(simd::ParseIsaName("neon"), std::nullopt);
  EXPECT_EQ(simd::ParseIsaName(""), std::nullopt);
}

TEST(SimdDispatchTest, ScalarAlwaysSupported) {
  EXPECT_TRUE(simd::IsaSupported(simd::Isa::kScalar));
  EXPECT_TRUE(simd::SetActiveIsa(simd::Isa::kScalar));
  EXPECT_EQ(simd::ActiveIsa(), simd::Isa::kScalar);
  simd::SetActiveIsa(simd::BestSupportedIsa());
}

TEST(SimdDispatchTest, BestSupportedIsaIsSupportedAndOrdered) {
  simd::Isa best = simd::BestSupportedIsa();
  EXPECT_TRUE(simd::IsaSupported(best));
  EXPECT_EQ(best, simd::IsaSupported(simd::Isa::kAvx2) ? simd::Isa::kAvx2
                                                       : simd::Isa::kScalar);
}

TEST(SimdDispatchTest, UnsupportedOverrideRefusedWithoutChange) {
  simd::Isa before = simd::ActiveIsa();
  // Scalar is supported everywhere; the contract is checked on AVX2 only
  // on a host that lacks it.
  if (simd::IsaSupported(simd::Isa::kAvx2)) return;
  EXPECT_FALSE(simd::SetActiveIsa(simd::Isa::kAvx2));
  EXPECT_EQ(simd::ActiveIsa(), before);
  simd::ScopedIsaOverride guard(simd::Isa::kAvx2);
  EXPECT_FALSE(guard.ok());
  EXPECT_EQ(simd::ActiveIsa(), before);
}

}  // namespace
