#include "store/segment.h"

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "common/crc32.h"
#include "common/random.h"
#include "simulator/dataset_gen.h"
#include "tsdata/dataset_io.h"

namespace dbsherlock::store {
namespace {

using tsdata::AttributeKind;
using tsdata::Dataset;
using tsdata::Schema;

Schema MixedSchema() {
  return Schema({{"latency", AttributeKind::kNumeric},
                 {"tps", AttributeKind::kNumeric},
                 {"mode", AttributeKind::kCategorical}});
}

/// Bit-exact double comparison: NaN == NaN iff the payloads match, and
/// -0.0 != +0.0. This is the codec's contract — stricter than ==.
bool BitEqual(double a, double b) {
  return std::bit_cast<uint64_t>(a) == std::bit_cast<uint64_t>(b);
}

void ExpectBitIdentical(const Dataset& a, const Dataset& b) {
  ASSERT_TRUE(a.schema() == b.schema());
  ASSERT_EQ(a.num_rows(), b.num_rows());
  for (size_t row = 0; row < a.num_rows(); ++row) {
    EXPECT_TRUE(BitEqual(a.timestamp(row), b.timestamp(row)))
        << "timestamp row " << row;
    for (size_t col = 0; col < a.schema().num_attributes(); ++col) {
      if (a.schema().attribute(col).kind == AttributeKind::kNumeric) {
        EXPECT_TRUE(BitEqual(a.column(col).numeric(row),
                             b.column(col).numeric(row)))
            << "col " << col << " row " << row;
      } else {
        const tsdata::Column& ca = a.column(col);
        const tsdata::Column& cb = b.column(col);
        EXPECT_EQ(ca.CategoryName(ca.code(row)), cb.CategoryName(cb.code(row)))
            << "col " << col << " row " << row;
      }
    }
  }
}

/// A hostile random dataset: irregular timestamps, NaN/Inf cells, long
/// runs of repeated values, denormals, and categorical churn.
Dataset RandomDataset(uint64_t seed, size_t rows) {
  common::Pcg32 rng(seed);
  Dataset d(MixedSchema());
  double ts = rng.NextDouble(0.0, 100.0);
  double held = 0.0;  // repeated-value run generator
  static const char* kModes[] = {"read", "write", "mixed", "idle"};
  for (size_t i = 0; i < rows; ++i) {
    // Irregular spacing: sub-second jitter, occasional large gaps.
    ts += rng.NextBernoulli(0.05) ? rng.NextDouble(10.0, 1e6)
                                  : rng.NextDouble(1e-6, 2.0);
    double v;
    switch (rng.NextInt(0, 7)) {
      case 0: v = std::numeric_limits<double>::quiet_NaN(); break;
      case 1: v = std::numeric_limits<double>::infinity(); break;
      case 2: v = -0.0; break;
      case 3: v = 5e-324; break;  // smallest denormal
      case 4: v = held; break;    // repeat the previous held value
      default:
        v = rng.NextGaussian(0.0, 1e6);
        held = v;
    }
    double tps = rng.NextBernoulli(0.6) ? held : rng.NextDouble(0.0, 1e4);
    EXPECT_TRUE(
        d.AppendRow(ts, {v, tps, std::string(kModes[rng.NextInt(0, 3)])})
            .ok());
  }
  return d;
}

TEST(SegmentCodecTest, EmptyDatasetRoundTrips) {
  Dataset d(MixedSchema());
  std::string blob = EncodeSegment(d);
  auto back = DecodeSegment(blob);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  EXPECT_EQ(back->num_rows(), 0u);
  EXPECT_TRUE(back->schema() == d.schema());
}

TEST(SegmentCodecTest, SmallRoundTrip) {
  Dataset d(MixedSchema());
  ASSERT_TRUE(d.AppendRow(1.0, {0.5, 100.0, std::string("read")}).ok());
  ASSERT_TRUE(d.AppendRow(2.0, {0.5, 101.0, std::string("write")}).ok());
  ASSERT_TRUE(d.AppendRow(3.5, {-7.25, 101.0, std::string("read")}).ok());
  auto back = DecodeSegment(EncodeSegment(d));
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ExpectBitIdentical(d, *back);
}

TEST(SegmentCodecTest, RandomDatasetsRoundTripBitIdentically) {
  for (uint64_t seed = 1; seed <= 20; ++seed) {
    Dataset d = RandomDataset(seed, /*rows=*/257);
    auto back = DecodeSegment(EncodeSegment(d));
    ASSERT_TRUE(back.ok()) << "seed " << seed << ": "
                           << back.status().ToString();
    ExpectBitIdentical(d, *back);
  }
}

TEST(SegmentCodecTest, RegularTimestampsCompressToNearNothing) {
  // The common case: one row per second. Delta-of-delta should spend
  // ~1 bit per timestamp after the first two.
  Dataset d(Schema({{"v", AttributeKind::kNumeric}}));
  for (int i = 0; i < 4096; ++i) {
    ASSERT_TRUE(d.AppendRow(static_cast<double>(i), {42.0}).ok());
  }
  std::string blob = EncodeSegment(d);
  // 4096 rows x (8B ts + 8B value) = 64 KiB raw; expect a few KiB.
  EXPECT_LT(blob.size(), 8u * 1024u);
}

TEST(SegmentCodecTest, CompressesSimulatorTelemetryBelowRawCsv) {
  simulator::DatasetGenOptions options;
  options.normal_duration_sec = 120.0;
  auto generated = simulator::GenerateAnomalyDataset(
      options, simulator::AnomalyKind::kLockContention, 40.0);
  const Dataset& d = generated.data;
  ASSERT_GT(d.num_rows(), 100u);
  std::string blob = EncodeSegment(d);
  std::string csv = tsdata::DatasetToCsv(d);
  double ratio = static_cast<double>(blob.size()) /
                 static_cast<double>(csv.size());
  EXPECT_LT(ratio, 1.0) << "compressed " << blob.size() << " raw "
                        << csv.size();
  auto back = DecodeSegment(blob);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ExpectBitIdentical(d, *back);
}

TEST(SegmentCodecTest, ReadSegmentMetaMatchesWithoutFullDecode) {
  Dataset d = RandomDataset(7, 100);
  std::string blob = EncodeSegment(d);
  auto meta = ReadSegmentMeta(blob);
  ASSERT_TRUE(meta.ok()) << meta.status().ToString();
  EXPECT_TRUE(meta->schema == d.schema());
  EXPECT_EQ(meta->rows, 100u);
  EXPECT_TRUE(BitEqual(meta->min_ts, d.timestamp(0)));
  EXPECT_TRUE(BitEqual(meta->max_ts, d.timestamp(99)));
}

TEST(SegmentCodecTest, RejectsBadMagicAndVersion) {
  Dataset d = RandomDataset(3, 10);
  std::string blob = EncodeSegment(d);
  std::string bad = blob;
  bad[0] = 'X';
  EXPECT_FALSE(DecodeSegment(bad).ok());
  bad = blob;
  bad[4] ^= 0xFF;  // version word
  EXPECT_FALSE(DecodeSegment(bad).ok());
}

// --- Robustness: no input may crash the decoder -----------------------

TEST(SegmentCodecTest, EveryTruncationFailsCleanly) {
  Dataset d = RandomDataset(11, 64);
  std::string blob = EncodeSegment(d);
  // Every proper prefix must decode to a clean error (CRC framing means
  // no prefix can silently pass as a shorter segment).
  for (size_t len = 0; len < blob.size(); ++len) {
    auto r = DecodeSegment(std::string_view(blob.data(), len));
    EXPECT_FALSE(r.ok()) << "prefix of " << len << " bytes decoded";
  }
}

TEST(SegmentCodecTest, ByteMutationNeverCrashesAndUsuallyFailsCrc) {
  Dataset d = RandomDataset(13, 64);
  std::string blob = EncodeSegment(d);
  common::Pcg32 rng(99);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string mutated = blob;
    size_t pos = static_cast<size_t>(
        rng.NextInt(0, static_cast<int>(blob.size()) - 1));
    mutated[pos] ^= static_cast<char>(1 << rng.NextInt(0, 7));
    auto r = DecodeSegment(mutated);
    // A flipped payload bit is caught by the CRC; a flipped length word
    // by the bounds checks. Either way: Status, not UB. (We only assert
    // no crash + no silent wrong data.)
    if (r.ok()) {
      // The mutation must have been in dead framing space for decode to
      // succeed — the data itself must still match.
      ExpectBitIdentical(d, *r);
    }
  }
}

TEST(SegmentCodecTest, RandomGarbageFailsCleanly) {
  common::Pcg32 rng(5);
  for (int trial = 0; trial < 200; ++trial) {
    std::string garbage(static_cast<size_t>(rng.NextInt(0, 512)), '\0');
    for (char& c : garbage) c = static_cast<char>(rng.NextInt(0, 255));
    // Valid header prefix on half the trials so block parsing is reached.
    if (trial % 2 == 0 && garbage.size() >= 8) {
      garbage[0] = 'D';
      garbage[1] = 'B';
      garbage[2] = 'S';
      garbage[3] = 'G';
      garbage[4] = 1;
      garbage[5] = garbage[6] = garbage[7] = 0;
    }
    EXPECT_FALSE(DecodeSegment(garbage).ok());
  }
}

// --- Zone-map footer (DESIGN.md §14) -----------------------------------

/// Downgrades a v2 blob to the v1 format: strip the zone footer (framed
/// block + 8-byte trailer) and patch the header version word to 1. This
/// reconstructs byte-for-byte what the pre-footer encoder produced.
std::string MakeV1(const std::string& v2) {
  EXPECT_GE(v2.size(), 8u);
  uint32_t zone_len = 0;
  for (int i = 0; i < 4; ++i) {
    zone_len |= static_cast<uint32_t>(
                    static_cast<uint8_t>(v2[v2.size() - 8 + i]))
                << (8 * i);
  }
  EXPECT_LT(zone_len + 8u, v2.size());
  std::string v1 = v2.substr(0, v2.size() - 8 - zone_len);
  v1[4] = 1;  // little-endian version word: 2 -> 1
  return v1;
}

TEST(SegmentCodecTest, ZoneFooterRoundTripsComputeZoneMap) {
  Dataset d = RandomDataset(17, 200);
  ZoneMap direct = ComputeZoneMap(d);
  auto read = ReadSegmentZoneMap(EncodeSegment(d));
  ASSERT_TRUE(read.ok()) << read.status().ToString();
  EXPECT_EQ(read->rows, direct.rows);
  EXPECT_TRUE(BitEqual(read->min_ts, direct.min_ts));
  EXPECT_TRUE(BitEqual(read->max_ts, direct.max_ts));
  ASSERT_EQ(read->attrs.size(), direct.attrs.size());
  for (size_t i = 0; i < direct.attrs.size(); ++i) {
    EXPECT_TRUE(BitEqual(read->attrs[i].min, direct.attrs[i].min)) << i;
    EXPECT_TRUE(BitEqual(read->attrs[i].max, direct.attrs[i].max)) << i;
    EXPECT_EQ(read->attrs[i].non_nan_count, direct.attrs[i].non_nan_count);
    EXPECT_EQ(read->attrs[i].finite_count, direct.attrs[i].finite_count);
  }
}

TEST(SegmentCodecTest, V1BlobStillDecodesButHasNoZoneMap) {
  Dataset d = RandomDataset(19, 64);
  std::string v1 = MakeV1(EncodeSegment(d));
  auto back = DecodeSegment(v1);
  ASSERT_TRUE(back.ok()) << back.status().ToString();
  ExpectBitIdentical(d, *back);
  auto meta = ReadSegmentMeta(v1);
  ASSERT_TRUE(meta.ok());
  EXPECT_EQ(meta->version, 1u);
  auto zones = ReadSegmentZoneMap(v1);
  ASSERT_FALSE(zones.ok());
  EXPECT_EQ(zones.status().code(), common::StatusCode::kNotFound);
}

TEST(SegmentCodecTest, V2WithoutItsFooterIsCorrupt) {
  Dataset d = RandomDataset(23, 64);
  std::string blob = EncodeSegment(d);
  // Chop the footer but keep the version word at 2: the blob claims a
  // footer it does not have.
  std::string torn = MakeV1(blob);
  torn[4] = 2;
  EXPECT_FALSE(DecodeSegment(torn).ok());
  EXPECT_FALSE(ReadSegmentZoneMap(torn).ok());
  // A v1 blob with trailing junk is equally corrupt.
  std::string junk = MakeV1(blob) + "xx";
  EXPECT_FALSE(DecodeSegment(junk).ok());
}

TEST(SegmentCodecTest, ZoneMapHandlesNaNAndInfColumns) {
  constexpr double kNaN = std::numeric_limits<double>::quiet_NaN();
  constexpr double kInf = std::numeric_limits<double>::infinity();
  Dataset d(MixedSchema());
  ASSERT_TRUE(d.AppendRow(1.0, {kNaN, kInf, std::string("a")}).ok());
  ASSERT_TRUE(d.AppendRow(2.0, {kNaN, kInf, std::string("b")}).ok());
  ASSERT_TRUE(d.AppendRow(3.0, {kNaN, 5.0, std::string("a")}).ok());
  ZoneMap zones = ComputeZoneMap(d);
  ASSERT_EQ(zones.attrs.size(), 3u);
  // All-NaN column: no comparable value, every bound prunes it.
  EXPECT_EQ(zones.attrs[0].non_nan_count, 0u);
  EXPECT_TRUE(zones.attrs[0].CannotMatch(-kInf, kInf));
  // ±Inf participates in min/max: a `v >= lo` bound must NOT prune a
  // column holding +Inf values.
  EXPECT_EQ(zones.attrs[1].non_nan_count, 3u);
  EXPECT_EQ(zones.attrs[1].finite_count, 1u);
  EXPECT_DOUBLE_EQ(zones.attrs[1].min, 5.0);
  EXPECT_EQ(zones.attrs[1].max, kInf);
  EXPECT_FALSE(zones.attrs[1].CannotMatch(1e300, kInf));
  EXPECT_TRUE(zones.attrs[1].CannotMatch(-kInf, 4.0));
  // Categorical: present and finite, no numeric range.
  EXPECT_EQ(zones.attrs[2].non_nan_count, 3u);
  EXPECT_GT(zones.attrs[2].min, zones.attrs[2].max);
  // The exact same semantics survive the footer round-trip.
  auto read = ReadSegmentZoneMap(EncodeSegment(d));
  ASSERT_TRUE(read.ok());
  EXPECT_EQ(read->attrs[1].finite_count, 1u);
}

// --- Projected reads (DESIGN.md §11) -----------------------------------

/// Numeric and categorical columns interleaved, with NaN payloads, -0.0,
/// ±Inf, denormals, runs of repeats and irregular timestamps.
Dataset WideRandomDataset(uint64_t seed, size_t rows) {
  common::Pcg32 rng(seed);
  Schema schema({{"a", AttributeKind::kNumeric},
                 {"kind", AttributeKind::kCategorical},
                 {"b", AttributeKind::kNumeric},
                 {"c", AttributeKind::kNumeric},
                 {"host", AttributeKind::kCategorical},
                 {"d", AttributeKind::kNumeric}});
  Dataset d(schema);
  static const char* kNames[] = {"x", "y", "zz", ""};
  double ts = rng.NextDouble(-50.0, 50.0);
  std::vector<double> held(4, 0.0);
  for (size_t i = 0; i < rows; ++i) {
    ts += rng.NextBernoulli(0.1) ? rng.NextDouble(1.0, 1e5) : 1.0;
    std::vector<tsdata::Cell> cells;
    size_t numeric = 0;
    for (size_t c = 0; c < schema.num_attributes(); ++c) {
      if (schema.attribute(c).kind == AttributeKind::kCategorical) {
        cells.emplace_back(std::string(kNames[rng.NextInt(0, 3)]));
        continue;
      }
      double& h = held[numeric++];
      switch (rng.NextInt(0, 9)) {
        case 0: h = std::bit_cast<double>(0x7FF4000000000000ull |
                                          rng.NextInt(1, 1 << 20));
                break;  // NaN with a payload
        case 1: h = -0.0; break;
        case 2: h = std::numeric_limits<double>::infinity(); break;
        case 3: h = -std::numeric_limits<double>::infinity(); break;
        case 4: h = 5e-324; break;
        case 5: case 6: break;  // repeat
        default: h = rng.NextGaussian(0.0, 1e3);
      }
      cells.emplace_back(h);
    }
    EXPECT_TRUE(d.AppendRow(ts, cells).ok());
  }
  return d;
}

void ExpectColumnBitIdentical(const tsdata::Column& a,
                              const tsdata::Column& b, size_t rows) {
  ASSERT_EQ(a.kind(), b.kind());
  ASSERT_EQ(a.size(), rows);
  ASSERT_EQ(b.size(), rows);
  for (size_t r = 0; r < rows; ++r) {
    if (a.kind() == AttributeKind::kNumeric) {
      EXPECT_TRUE(BitEqual(a.numeric(r), b.numeric(r))) << "row " << r;
    } else {
      EXPECT_EQ(a.code(r), b.code(r)) << "row " << r;
      EXPECT_EQ(a.CategoryName(a.code(r)), b.CategoryName(b.code(r)));
    }
  }
}

void ExpectTimestampsBitIdentical(const Dataset& a, const Dataset& b) {
  ASSERT_EQ(a.num_rows(), b.num_rows());
  for (size_t r = 0; r < a.num_rows(); ++r) {
    EXPECT_TRUE(BitEqual(a.timestamp(r), b.timestamp(r))) << "row " << r;
  }
}

TEST(SegmentCodecTest, EverySingleColumnProjectionMatchesTheFullDecode) {
  for (uint64_t seed = 1; seed <= 8; ++seed) {
    Dataset d = WideRandomDataset(seed, /*rows=*/300 + seed);
    std::string blob = EncodeSegment(d);
    auto full = DecodeSegment(blob);
    ASSERT_TRUE(full.ok()) << full.status().ToString();
    ExpectBitIdentical(d, *full);
    for (size_t c = 0; c < d.num_attributes(); ++c) {
      const size_t projection[] = {c};
      auto one = DecodeSegment(blob, projection);
      ASSERT_TRUE(one.ok()) << one.status().ToString();
      ASSERT_EQ(one->num_attributes(), 1u);
      EXPECT_TRUE(one->schema().attribute(0) == d.schema().attribute(c));
      ExpectTimestampsBitIdentical(*one, *full);
      ExpectColumnBitIdentical(one->column(0), full->column(c),
                               full->num_rows());
    }
    auto ts_only = DecodeSegment(blob, std::span<const size_t>());
    ASSERT_TRUE(ts_only.ok()) << ts_only.status().ToString();
    EXPECT_EQ(ts_only->num_attributes(), 0u);
    ExpectTimestampsBitIdentical(*ts_only, *full);
    const size_t every[] = {0, 1, 2, 3, 4, 5};
    auto all = DecodeSegment(blob, every);
    ASSERT_TRUE(all.ok());
    ExpectBitIdentical(*full, *all);
  }
}

TEST(SegmentCodecTest, ProjectionMustListAscendingSchemaColumns) {
  std::string blob = EncodeSegment(WideRandomDataset(3, 16));
  const size_t descending[] = {2, 0};
  const size_t duplicate[] = {1, 1};
  const size_t out_of_range[] = {6};
  for (std::span<const size_t> bad :
       {std::span<const size_t>(descending), std::span<const size_t>(duplicate),
        std::span<const size_t>(out_of_range)}) {
    auto r = DecodeSegment(blob, bad);
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.status().code(), common::StatusCode::kInvalidArgument);
  }
}

TEST(SegmentCodecTest, EveryTruncationFailsCleanlyUnderProjection) {
  std::string blob = EncodeSegment(WideRandomDataset(11, 64));
  const size_t projection[] = {2};
  for (size_t len = 0; len < blob.size(); ++len) {
    auto r = DecodeSegment(std::string_view(blob.data(), len), projection);
    EXPECT_FALSE(r.ok()) << "prefix of " << len << " bytes decoded";
  }
}

TEST(SegmentCodecTest, ByteMutationUnderProjectionFailsOrMatches) {
  Dataset d = WideRandomDataset(13, 64);
  std::string blob = EncodeSegment(d);
  const size_t projection[] = {4};
  auto expected = DecodeSegment(blob, projection);
  ASSERT_TRUE(expected.ok());
  common::Pcg32 rng(99);
  for (int trial = 0; trial < 2000; ++trial) {
    std::string mutated = blob;
    size_t pos = static_cast<size_t>(
        rng.NextInt(0, static_cast<int>(blob.size()) - 1));
    mutated[pos] ^= static_cast<char>(1 << rng.NextInt(0, 7));
    auto r = DecodeSegment(mutated, projection);
    if (r.ok()) {
      ExpectTimestampsBitIdentical(*expected, *r);
      ExpectColumnBitIdentical(expected->column(0), r->column(0),
                               expected->num_rows());
    }
  }
}

/// Offset of block `index`'s payload (0 = meta, 1 = timestamps, 2 + i =
/// column i) and its length, found by walking the framing.
std::pair<size_t, size_t> BlockPayload(const std::string& blob,
                                       size_t index) {
  auto u32 = [&](size_t at) {
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(static_cast<uint8_t>(blob[at + i]))
           << (8 * i);
    }
    return v;
  };
  size_t at = 8;  // magic + version
  for (size_t b = 0; b < index; ++b) at += 8 + u32(at);
  return {at + 8, u32(at)};
}

TEST(SegmentCodecTest, SkippedBlocksAreStillChecksummed) {
  Dataset d = WideRandomDataset(29, 128);
  std::string blob = EncodeSegment(d);
  const size_t projection[] = {3};
  ASSERT_TRUE(DecodeSegment(blob, projection).ok());
  // Flip one bit inside every block the projection does not inflate:
  // numeric and categorical columns on either side of it.
  for (size_t column : {0u, 1u, 2u, 4u, 5u}) {
    auto [offset, len] = BlockPayload(blob, 2 + column);
    ASSERT_GT(len, 0u);
    std::string mutated = blob;
    mutated[offset + len / 2] ^= 0x10;
    auto r = DecodeSegment(mutated, projection);
    ASSERT_FALSE(r.ok()) << "flip in skipped column " << column;
    EXPECT_NE(r.status().message().find("checksum"), std::string::npos)
        << r.status().ToString();
  }
}

// --- CRC-32 (common/crc32.h) -------------------------------------------

/// Bit-at-a-time reflected CRC-32: the definition, independent of tables.
uint32_t ReferenceCrc32(const uint8_t* data, size_t n, uint32_t seed) {
  uint32_t crc = ~seed;
  for (size_t i = 0; i < n; ++i) {
    crc ^= data[i];
    for (int k = 0; k < 8; ++k) {
      crc = (crc & 1u) ? 0xEDB88320u ^ (crc >> 1) : crc >> 1;
    }
  }
  return ~crc;
}

TEST(Crc32Test, KnownAnswer) {
  const std::string check = "123456789";
  EXPECT_EQ(common::Crc32(check.data(), check.size()), 0xCBF43926u);
  EXPECT_EQ(common::Crc32(nullptr, 0), 0u);
}

TEST(Crc32Test, SeedChainsPartialChecksums) {
  // The WAL form: checksum seq, then continue over the payload.
  common::Pcg32 rng(41);
  std::string bytes(300, '\0');
  for (char& c : bytes) c = static_cast<char>(rng.NextInt(0, 255));
  uint32_t whole = common::Crc32(bytes.data(), bytes.size());
  for (size_t split : {0u, 1u, 7u, 8u, 9u, 64u, 299u, 300u}) {
    uint32_t head = common::Crc32(bytes.data(), split);
    EXPECT_EQ(common::Crc32(bytes.data() + split, bytes.size() - split, head),
              whole)
        << "split " << split;
  }
}

TEST(Crc32Test, MatchesBytewiseReferenceAtEveryLengthAndAlignment) {
  common::Pcg32 rng(43);
  std::vector<uint8_t> buffer(1024 + 8);
  for (uint8_t& b : buffer) b = static_cast<uint8_t>(rng.NextInt(0, 255));
  for (int trial = 0; trial < 2000; ++trial) {
    size_t offset = static_cast<size_t>(rng.NextInt(0, 7));
    size_t len = static_cast<size_t>(trial < 64 ? trial : rng.NextInt(0, 1024));
    uint32_t seed = trial % 3 == 0 ? 0 : rng.NextU32();
    EXPECT_EQ(common::Crc32(buffer.data() + offset, len, seed),
              ReferenceCrc32(buffer.data() + offset, len, seed))
        << "offset " << offset << " len " << len;
  }
}

}  // namespace
}  // namespace dbsherlock::store
