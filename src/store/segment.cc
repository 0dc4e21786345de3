#include "store/segment.h"

#include <bit>
#include <cmath>
#include <cstring>
#include <utility>
#include <vector>

#include "common/crc32.h"
#include "common/strings.h"

namespace dbsherlock::store {

namespace {

using common::Result;
using common::Status;

// --- Segment framing (DESIGN.md §11, §14) -------------------------------
//
//   "DBSG" | u32 version | block* | [zone block | u32 zone_len | "DBSZ"]
//   block := u32 payload_len | u32 crc32(payload) | payload
//
// Block order is fixed: meta, timestamps, then one block per column.
// Version 2 appends a CRC-framed zone-map block after the last column,
// followed by an 8-byte trailer (u32 framed zone-block length + "DBSZ"
// magic) so the footer is locatable from the end of the file without
// walking the column blocks. Version 1 blobs end at the last column.

constexpr char kMagic[4] = {'D', 'B', 'S', 'G'};
constexpr char kZoneMagic[4] = {'D', 'B', 'S', 'Z'};
constexpr uint32_t kVersionV1 = 1;
constexpr uint32_t kVersionV2 = 2;
constexpr size_t kHeaderSize = 8;      // magic + version
constexpr size_t kBlockHeaderSize = 8; // len + crc
constexpr size_t kTrailerSize = 8;     // u32 zone_len + "DBSZ"
/// One block holds one column of one segment (segments seal at a few
/// thousand rows); anything larger is a torn or hostile header.
constexpr uint32_t kMaxBlock = 64u << 20;
constexpr uint32_t kMaxAttributes = 4096;
constexpr uint32_t kMaxNameLen = 4096;
constexpr uint64_t kMaxRows = 1u << 28;

void AppendU32(std::string* out, uint32_t v) {
  for (int i = 0; i < 4; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

void AppendU64(std::string* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out->push_back(static_cast<char>(v >> (8 * i)));
}

void AppendF64(std::string* out, double v) {
  AppendU64(out, std::bit_cast<uint64_t>(v));
}

/// LEB128 unsigned varint, used for categorical dictionary codes.
void AppendVarint(std::string* out, uint64_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<char>(v | 0x80));
    v >>= 7;
  }
  out->push_back(static_cast<char>(v));
}

/// Bounds-checked little-endian reader over one block payload.
class ByteReader {
 public:
  explicit ByteReader(std::string_view data) : data_(data) {}

  size_t remaining() const { return data_.size() - pos_; }

  Status ReadU32(uint32_t* out) {
    if (remaining() < 4) return Truncated("u32");
    uint32_t v = 0;
    for (int i = 0; i < 4; ++i) {
      v |= static_cast<uint32_t>(static_cast<uint8_t>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 4;
    *out = v;
    return Status::OK();
  }

  Status ReadU64(uint64_t* out) {
    if (remaining() < 8) return Truncated("u64");
    uint64_t v = 0;
    for (int i = 0; i < 8; ++i) {
      v |= static_cast<uint64_t>(static_cast<uint8_t>(data_[pos_ + i]))
           << (8 * i);
    }
    pos_ += 8;
    *out = v;
    return Status::OK();
  }

  Status ReadF64(double* out) {
    uint64_t bits = 0;
    DBSHERLOCK_RETURN_NOT_OK(ReadU64(&bits));
    *out = std::bit_cast<double>(bits);
    return Status::OK();
  }

  Status ReadU8(uint8_t* out) {
    if (remaining() < 1) return Truncated("u8");
    *out = static_cast<uint8_t>(data_[pos_++]);
    return Status::OK();
  }

  Status ReadBytes(size_t n, std::string_view* out) {
    if (remaining() < n) return Truncated("bytes");
    *out = data_.substr(pos_, n);
    pos_ += n;
    return Status::OK();
  }

  Status ReadVarint(uint64_t* out) {
    uint64_t v = 0;
    for (int shift = 0; shift < 64; shift += 7) {
      if (remaining() < 1) return Truncated("varint");
      uint8_t byte = static_cast<uint8_t>(data_[pos_++]);
      v |= static_cast<uint64_t>(byte & 0x7F) << shift;
      if ((byte & 0x80) == 0) {
        *out = v;
        return Status::OK();
      }
    }
    return Status::ParseError("segment: varint overruns 64 bits");
  }

 private:
  static Status Truncated(const char* what) {
    return Status::ParseError(std::string("segment: truncated ") + what);
  }

  std::string_view data_;
  size_t pos_ = 0;
};

// --- Bit-level I/O -----------------------------------------------------

/// MSB-first bit appender backing the Gorilla streams.
class BitWriter {
 public:
  void WriteBit(bool bit) {
    if (used_ == 0) buffer_.push_back('\0');
    if (bit) {
      buffer_.back() = static_cast<char>(
          static_cast<uint8_t>(buffer_.back()) | (0x80u >> used_));
    }
    used_ = (used_ + 1) % 8;
  }

  /// Writes the low `n` bits of `v`, most significant first.
  void WriteBits(uint64_t v, int n) {
    for (int i = n - 1; i >= 0; --i) WriteBit((v >> i) & 1u);
  }

  const std::string& buffer() const { return buffer_; }

 private:
  std::string buffer_;
  int used_ = 0;  // bits used in the last byte (0 = byte boundary)
};

/// MSB-first bounds-checked bit reader over a 64-bit window. A refill
/// loads up to eight bytes at once; every read is checked against the bits
/// left in the stream, so a torn or hostile block fails cleanly.
class BitReader {
 public:
  explicit BitReader(std::string_view data)
      : data_(data), bits_left_(static_cast<uint64_t>(data.size()) * 8) {}

  /// Reads `n` (0..64) bits, most significant first.
  Status ReadBits(int n, uint64_t* out) {
    if (static_cast<uint64_t>(n) > bits_left_) {
      return Status::ParseError("segment: bit stream exhausted");
    }
    bits_left_ -= static_cast<uint64_t>(n);
    if (n > kMaxTake) {
      uint64_t high = Take(n - 32);
      *out = (high << 32) | Take(32);
    } else {
      *out = n == 0 ? 0 : Take(n);
    }
    return Status::OK();
  }

  Status ReadBit(bool* out) {
    uint64_t bit = 0;
    DBSHERLOCK_RETURN_NOT_OK(ReadBits(1, &bit));
    *out = bit != 0;
    return Status::OK();
  }

 private:
  /// A refill leaves at least this many bits in the window.
  static constexpr int kMaxTake = 56;

  /// Pops 1..kMaxTake bits the caller has already bounds-checked.
  uint64_t Take(int n) {
    if (avail_ < n) Refill();
    uint64_t v = window_ >> (64 - n);
    window_ <<= n;
    avail_ -= n;
    return v;
  }

  /// Tops the window up to 56..63 bits. The fast path ORs in a whole
  /// big-endian word; bits past `avail_` are the next stream bits, so
  /// re-ORing them on the following refill is idempotent. Near the end
  /// of the block it falls back to whole bytes.
  void Refill() {
    const auto* p = reinterpret_cast<const uint8_t*>(data_.data()) + pos_;
    if (pos_ + 8 <= data_.size()) {
      uint64_t word = 0;
      for (int i = 0; i < 8; ++i) word = (word << 8) | p[i];
      window_ |= word >> avail_;
      pos_ += static_cast<size_t>(63 - avail_) >> 3;
      avail_ |= 56;
      return;
    }
    for (; avail_ <= 56 && pos_ < data_.size(); ++pos_, ++p, avail_ += 8) {
      window_ |= static_cast<uint64_t>(*p) << (56 - avail_);
    }
  }

  std::string_view data_;
  uint64_t bits_left_;   // unread bits in the whole stream
  size_t pos_ = 0;       // next byte to load into the window
  uint64_t window_ = 0;  // unread bits, left-aligned
  int avail_ = 0;        // valid bits at the top of window_
};

// --- Gorilla XOR value stream ------------------------------------------
//
// First value: 64 raw bits. Each subsequent value is XORed (on its bit
// pattern) against the previous one:
//   '0'                          -> identical value
//   '1' '0' + meaningful bits    -> reuse the previous leading/trailing
//                                   zero window
//   '1' '1' + 5b leading + 6b (len-1) + meaningful bits
// Pure bit manipulation, so NaN payloads survive unchanged.

class XorEncoder {
 public:
  explicit XorEncoder(BitWriter* out) : out_(out) {}

  void Add(uint64_t bits) {
    if (first_) {
      first_ = false;
      out_->WriteBits(bits, 64);
      prev_ = bits;
      return;
    }
    uint64_t x = bits ^ prev_;
    prev_ = bits;
    if (x == 0) {
      out_->WriteBit(false);
      return;
    }
    out_->WriteBit(true);
    int leading = std::countl_zero(x);
    int trailing = std::countr_zero(x);
    if (leading > 31) leading = 31;  // 5-bit field
    if (window_valid_ && leading >= lead_ && trailing >= trail_) {
      out_->WriteBit(false);
      out_->WriteBits(x >> trail_, 64 - lead_ - trail_);
      return;
    }
    out_->WriteBit(true);
    int len = 64 - leading - trailing;
    out_->WriteBits(static_cast<uint64_t>(leading), 5);
    out_->WriteBits(static_cast<uint64_t>(len - 1), 6);
    out_->WriteBits(x >> trailing, len);
    lead_ = leading;
    trail_ = trailing;
    window_valid_ = true;
  }

 private:
  BitWriter* out_;
  bool first_ = true;
  uint64_t prev_ = 0;
  bool window_valid_ = false;
  int lead_ = 0;
  int trail_ = 0;
};

class XorDecoder {
 public:
  explicit XorDecoder(BitReader* in) : in_(in) {}

  Status Next(uint64_t* out) {
    if (first_) {
      first_ = false;
      DBSHERLOCK_RETURN_NOT_OK(in_->ReadBits(64, &prev_));
      *out = prev_;
      return Status::OK();
    }
    bool changed = false;
    DBSHERLOCK_RETURN_NOT_OK(in_->ReadBit(&changed));
    if (!changed) {
      *out = prev_;
      return Status::OK();
    }
    bool new_window = false;
    DBSHERLOCK_RETURN_NOT_OK(in_->ReadBit(&new_window));
    if (new_window) {
      uint64_t header = 0;  // 5-bit leading | 6-bit (len - 1)
      DBSHERLOCK_RETURN_NOT_OK(in_->ReadBits(11, &header));
      int leading = static_cast<int>(header >> 6);
      int len = static_cast<int>(header & 0x3F) + 1;
      if (leading + len > 64) {
        return Status::ParseError("segment: xor window exceeds 64 bits");
      }
      lead_ = leading;
      trail_ = 64 - lead_ - len;
      window_valid_ = true;
    } else if (!window_valid_) {
      return Status::ParseError("segment: xor window reused before set");
    }
    uint64_t meaningful = 0;
    DBSHERLOCK_RETURN_NOT_OK(in_->ReadBits(64 - lead_ - trail_, &meaningful));
    prev_ ^= meaningful << trail_;
    *out = prev_;
    return Status::OK();
  }

 private:
  BitReader* in_;
  bool first_ = true;
  uint64_t prev_ = 0;
  bool window_valid_ = false;
  int lead_ = 0;
  int trail_ = 0;
};

// --- Timestamp stream ---------------------------------------------------
//
// Delta-of-delta over the timestamps' 64-bit patterns, all integer
// arithmetic so the decode reproduces every bit exactly. Row 0 is 64 raw
// bits; each later row encodes dd = delta_i - delta_{i-1} (two's
// complement) zigzagged into Gorilla's bucket scheme:
//   '0'               dd == 0 (constant collection interval)
//   '10'  +  7 bits   |zz| <  2^7
//   '110' + 12 bits   |zz| < 2^12
//   '1110'+ 20 bits   |zz| < 2^20
//   '11110'+32 bits   |zz| < 2^32
//   '11111'+64 bits   everything else

uint64_t ZigZag(int64_t v) {
  return (static_cast<uint64_t>(v) << 1) ^
         static_cast<uint64_t>(v >> 63);
}

int64_t UnZigZag(uint64_t v) {
  return static_cast<int64_t>(v >> 1) ^ -static_cast<int64_t>(v & 1);
}

class TimestampEncoder {
 public:
  explicit TimestampEncoder(BitWriter* out) : out_(out) {}

  void Add(double ts) {
    uint64_t bits = std::bit_cast<uint64_t>(ts);
    if (row_ == 0) {
      out_->WriteBits(bits, 64);
    } else {
      // Deltas wrap modulo 2^64 (timestamps crossing zero flip the sign
      // bit), so subtract unsigned: the same bits, without signed overflow.
      uint64_t delta = bits - prev_bits_;
      int64_t dd = static_cast<int64_t>(delta - prev_delta_);
      uint64_t zz = ZigZag(dd);
      if (dd == 0) {
        out_->WriteBit(false);
      } else if (zz < (1u << 7)) {
        out_->WriteBits(0b10, 2);
        out_->WriteBits(zz, 7);
      } else if (zz < (1u << 12)) {
        out_->WriteBits(0b110, 3);
        out_->WriteBits(zz, 12);
      } else if (zz < (1u << 20)) {
        out_->WriteBits(0b1110, 4);
        out_->WriteBits(zz, 20);
      } else if (zz < (1ull << 32)) {
        out_->WriteBits(0b11110, 5);
        out_->WriteBits(zz, 32);
      } else {
        out_->WriteBits(0b11111, 5);
        out_->WriteBits(zz, 64);
      }
      prev_delta_ = delta;
    }
    prev_bits_ = bits;
    ++row_;
  }

 private:
  BitWriter* out_;
  uint64_t row_ = 0;
  uint64_t prev_bits_ = 0;
  uint64_t prev_delta_ = 0;
};

class TimestampDecoder {
 public:
  explicit TimestampDecoder(BitReader* in) : in_(in) {}

  Status Next(double* out) {
    if (row_ == 0) {
      DBSHERLOCK_RETURN_NOT_OK(in_->ReadBits(64, &prev_bits_));
    } else {
      int prefix = 0;
      while (prefix < 5) {
        bool bit = false;
        DBSHERLOCK_RETURN_NOT_OK(in_->ReadBit(&bit));
        if (!bit) break;
        ++prefix;
      }
      static constexpr int kWidth[] = {0, 7, 12, 20, 32, 64};
      int64_t dd = 0;
      if (prefix > 0) {
        uint64_t zz = 0;
        DBSHERLOCK_RETURN_NOT_OK(in_->ReadBits(kWidth[prefix], &zz));
        dd = UnZigZag(zz);
      }
      prev_delta_ += static_cast<uint64_t>(dd);  // wraps, as encoded
      prev_bits_ += prev_delta_;
    }
    ++row_;
    *out = std::bit_cast<double>(prev_bits_);
    return Status::OK();
  }

 private:
  BitReader* in_;
  uint64_t row_ = 0;
  uint64_t prev_bits_ = 0;
  uint64_t prev_delta_ = 0;
};

// --- Block assembly -----------------------------------------------------

void AppendBlock(std::string* out, const std::string& payload) {
  AppendU32(out, static_cast<uint32_t>(payload.size()));
  AppendU32(out, common::Crc32(payload.data(), payload.size()));
  out->append(payload);
}

std::string EncodeMetaBlock(const tsdata::Dataset& data) {
  std::string payload;
  const tsdata::Schema& schema = data.schema();
  AppendU32(&payload, static_cast<uint32_t>(schema.num_attributes()));
  for (const tsdata::AttributeSpec& spec : schema.attributes()) {
    AppendU32(&payload, static_cast<uint32_t>(spec.name.size()));
    payload.append(spec.name);
    payload.push_back(spec.kind == tsdata::AttributeKind::kCategorical ? 1
                                                                       : 0);
  }
  AppendU64(&payload, data.num_rows());
  double min_ts = data.num_rows() > 0 ? data.timestamp(0) : 0.0;
  double max_ts =
      data.num_rows() > 0 ? data.timestamp(data.num_rows() - 1) : 0.0;
  AppendF64(&payload, min_ts);
  AppendF64(&payload, max_ts);
  return payload;
}

std::string EncodeTimestampBlock(const tsdata::Dataset& data) {
  BitWriter bits;
  TimestampEncoder encoder(&bits);
  for (double ts : data.timestamps()) encoder.Add(ts);
  return bits.buffer();
}

std::string EncodeColumnBlock(const tsdata::Column& column) {
  std::string payload;
  if (column.kind() == tsdata::AttributeKind::kNumeric) {
    BitWriter bits;
    XorEncoder encoder(&bits);
    for (double v : column.numeric_values()) {
      encoder.Add(std::bit_cast<uint64_t>(v));
    }
    payload = bits.buffer();
  } else {
    AppendU32(&payload, static_cast<uint32_t>(column.num_categories()));
    for (size_t c = 0; c < column.num_categories(); ++c) {
      const std::string& name = column.CategoryName(static_cast<int32_t>(c));
      AppendU32(&payload, static_cast<uint32_t>(name.size()));
      payload.append(name);
    }
    for (int32_t code : column.codes()) {
      AppendVarint(&payload, static_cast<uint64_t>(code));
    }
  }
  return payload;
}

Status DecodeMetaBlock(std::string_view payload, SegmentMeta* meta) {
  ByteReader reader(payload);
  uint32_t nattrs = 0;
  DBSHERLOCK_RETURN_NOT_OK(reader.ReadU32(&nattrs));
  if (nattrs > kMaxAttributes) {
    return Status::ParseError(
        common::StrFormat("segment: %u attributes exceeds cap", nattrs));
  }
  for (uint32_t i = 0; i < nattrs; ++i) {
    uint32_t name_len = 0;
    DBSHERLOCK_RETURN_NOT_OK(reader.ReadU32(&name_len));
    if (name_len > kMaxNameLen) {
      return Status::ParseError("segment: attribute name exceeds cap");
    }
    std::string_view name;
    DBSHERLOCK_RETURN_NOT_OK(reader.ReadBytes(name_len, &name));
    uint8_t kind = 0;
    DBSHERLOCK_RETURN_NOT_OK(reader.ReadU8(&kind));
    if (kind > 1) return Status::ParseError("segment: bad attribute kind");
    DBSHERLOCK_RETURN_NOT_OK(meta->schema.AddAttribute(
        {std::string(name), kind == 1 ? tsdata::AttributeKind::kCategorical
                                      : tsdata::AttributeKind::kNumeric}));
  }
  DBSHERLOCK_RETURN_NOT_OK(reader.ReadU64(&meta->rows));
  if (meta->rows > kMaxRows) {
    return Status::ParseError("segment: row count exceeds cap");
  }
  DBSHERLOCK_RETURN_NOT_OK(reader.ReadF64(&meta->min_ts));
  DBSHERLOCK_RETURN_NOT_OK(reader.ReadF64(&meta->max_ts));
  if (reader.remaining() != 0) {
    return Status::ParseError("segment: meta block has trailing bytes");
  }
  return Status::OK();
}

/// Pops the next CRC-framed block payload off `*bytes`.
Status NextBlock(std::string_view* bytes, std::string_view* payload) {
  ByteReader header(*bytes);
  uint32_t len = 0, crc = 0;
  DBSHERLOCK_RETURN_NOT_OK(header.ReadU32(&len));
  DBSHERLOCK_RETURN_NOT_OK(header.ReadU32(&crc));
  if (len > kMaxBlock) {
    return Status::ParseError("segment: block length exceeds cap");
  }
  if (bytes->size() < kBlockHeaderSize + len) {
    return Status::ParseError("segment: truncated block");
  }
  *payload = bytes->substr(kBlockHeaderSize, len);
  if (common::Crc32(payload->data(), payload->size()) != crc) {
    return Status::ParseError("segment: block checksum mismatch");
  }
  bytes->remove_prefix(kBlockHeaderSize + len);
  return Status::OK();
}

Status CheckHeader(std::string_view* bytes, uint32_t* version_out) {
  if (bytes->size() < kHeaderSize) {
    return Status::ParseError("segment: shorter than header");
  }
  if (std::memcmp(bytes->data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::ParseError("segment: bad magic");
  }
  ByteReader reader(bytes->substr(4));
  uint32_t version = 0;
  DBSHERLOCK_RETURN_NOT_OK(reader.ReadU32(&version));
  if (version != kVersionV1 && version != kVersionV2) {
    return Status::ParseError(
        common::StrFormat("segment: unsupported version %u", version));
  }
  bytes->remove_prefix(kHeaderSize);
  *version_out = version;
  return Status::OK();
}

// --- Zone-map footer (DESIGN.md §14) -----------------------------------
//
// Payload layout (little-endian, fixed width — no varints, so the size
// is a pure function of the attribute count):
//   u64 rows | f64 min_ts | f64 max_ts | u32 nattrs
//   per attr: f64 min | f64 max | u64 non_nan_count | u64 finite_count

std::string EncodeZoneBlock(const ZoneMap& zones) {
  std::string payload;
  AppendU64(&payload, zones.rows);
  AppendF64(&payload, zones.min_ts);
  AppendF64(&payload, zones.max_ts);
  AppendU32(&payload, static_cast<uint32_t>(zones.attrs.size()));
  for (const AttrZone& z : zones.attrs) {
    AppendF64(&payload, z.min);
    AppendF64(&payload, z.max);
    AppendU64(&payload, z.non_nan_count);
    AppendU64(&payload, z.finite_count);
  }
  return payload;
}

Status DecodeZoneBlock(std::string_view payload, ZoneMap* zones) {
  ByteReader reader(payload);
  DBSHERLOCK_RETURN_NOT_OK(reader.ReadU64(&zones->rows));
  if (zones->rows > kMaxRows) {
    return Status::ParseError("segment: zone row count exceeds cap");
  }
  DBSHERLOCK_RETURN_NOT_OK(reader.ReadF64(&zones->min_ts));
  DBSHERLOCK_RETURN_NOT_OK(reader.ReadF64(&zones->max_ts));
  uint32_t nattrs = 0;
  DBSHERLOCK_RETURN_NOT_OK(reader.ReadU32(&nattrs));
  if (nattrs > kMaxAttributes) {
    return Status::ParseError("segment: zone attribute count exceeds cap");
  }
  zones->attrs.clear();
  zones->attrs.reserve(nattrs);
  for (uint32_t i = 0; i < nattrs; ++i) {
    AttrZone z;
    DBSHERLOCK_RETURN_NOT_OK(reader.ReadF64(&z.min));
    DBSHERLOCK_RETURN_NOT_OK(reader.ReadF64(&z.max));
    DBSHERLOCK_RETURN_NOT_OK(reader.ReadU64(&z.non_nan_count));
    DBSHERLOCK_RETURN_NOT_OK(reader.ReadU64(&z.finite_count));
    if (z.finite_count > z.non_nan_count || z.non_nan_count > zones->rows) {
      return Status::ParseError("segment: inconsistent zone counts");
    }
    zones->attrs.push_back(z);
  }
  if (reader.remaining() != 0) {
    return Status::ParseError("segment: zone block has trailing bytes");
  }
  return Status::OK();
}

/// Splits a v2 tail into the framed zone block and validates the 8-byte
/// trailer. `tail` must be exactly `zone block | trailer`.
Status ConsumeZoneFooter(std::string_view tail, ZoneMap* zones) {
  if (tail.size() < kBlockHeaderSize + kTrailerSize) {
    return Status::ParseError("segment: truncated zone footer");
  }
  std::string_view trailer = tail.substr(tail.size() - kTrailerSize);
  if (std::memcmp(trailer.data() + 4, kZoneMagic, sizeof(kZoneMagic)) != 0) {
    return Status::ParseError("segment: bad zone trailer magic");
  }
  ByteReader reader(trailer);
  uint32_t zone_len = 0;
  DBSHERLOCK_RETURN_NOT_OK(reader.ReadU32(&zone_len));
  if (zone_len != tail.size() - kTrailerSize) {
    return Status::ParseError("segment: zone trailer length mismatch");
  }
  std::string_view block = tail.substr(0, zone_len);
  std::string_view payload;
  DBSHERLOCK_RETURN_NOT_OK(NextBlock(&block, &payload));
  if (!block.empty()) {
    return Status::ParseError("segment: trailing bytes inside zone footer");
  }
  return DecodeZoneBlock(payload, zones);
}

/// Inflates a timestamp block into `rows` timestamps.
Status DecodeTimestampBlock(std::string_view payload, uint64_t rows,
                            std::vector<double>* out) {
  // Row 0 takes 64 bits and every later row at least one: reject a short
  // block before sizing the output from its (untrusted) row count.
  if (rows > 0 && payload.size() * 8 < 63 + rows) {
    return Status::ParseError("segment: bit stream exhausted");
  }
  out->resize(rows);
  BitReader bits(payload);
  TimestampDecoder decoder(&bits);
  for (double& ts : *out) DBSHERLOCK_RETURN_NOT_OK(decoder.Next(&ts));
  return Status::OK();
}

/// Inflates one column block straight into column storage.
Result<tsdata::Column> DecodeColumnBlock(std::string_view payload,
                                         tsdata::AttributeKind kind,
                                         uint64_t rows) {
  if (kind == tsdata::AttributeKind::kNumeric) {
    if (rows > 0 && payload.size() * 8 < 63 + rows) {
      return Status::ParseError("segment: bit stream exhausted");
    }
    std::vector<double> values(rows);
    BitReader bits(payload);
    XorDecoder decoder(&bits);
    for (double& v : values) {
      uint64_t pattern = 0;
      DBSHERLOCK_RETURN_NOT_OK(decoder.Next(&pattern));
      v = std::bit_cast<double>(pattern);
    }
    return tsdata::Column::FromNumeric(std::move(values));
  }
  ByteReader reader(payload);
  uint32_t dict_size = 0;
  DBSHERLOCK_RETURN_NOT_OK(reader.ReadU32(&dict_size));
  if (dict_size > payload.size()) {
    return Status::ParseError("segment: dictionary size exceeds block");
  }
  std::vector<std::string> dict;
  dict.reserve(dict_size);
  for (uint32_t d = 0; d < dict_size; ++d) {
    uint32_t len = 0;
    DBSHERLOCK_RETURN_NOT_OK(reader.ReadU32(&len));
    std::string_view name;
    DBSHERLOCK_RETURN_NOT_OK(reader.ReadBytes(len, &name));
    dict.emplace_back(name);
  }
  if (rows > reader.remaining()) {  // every varint code takes a byte
    return Status::ParseError("segment: truncated varint");
  }
  std::vector<int32_t> codes(rows);
  for (int32_t& code : codes) {
    uint64_t v = 0;
    DBSHERLOCK_RETURN_NOT_OK(reader.ReadVarint(&v));
    if (v >= dict.size()) {
      return Status::ParseError("segment: category code out of range");
    }
    code = static_cast<int32_t>(v);
  }
  return tsdata::Column::FromCodes(std::move(dict), std::move(codes));
}

/// The one segment read path. Walks every block in order and verifies
/// each CRC (NextBlock), but inflates only the timestamps and the columns
/// in `*projection` (all of them when null), decoding straight into
/// column storage.
Result<tsdata::Dataset> Decode(std::string_view bytes,
                               const std::span<const size_t>* projection) {
  uint32_t version = 0;
  DBSHERLOCK_RETURN_NOT_OK(CheckHeader(&bytes, &version));
  std::string_view payload;
  DBSHERLOCK_RETURN_NOT_OK(NextBlock(&bytes, &payload));
  SegmentMeta meta;
  DBSHERLOCK_RETURN_NOT_OK(DecodeMetaBlock(payload, &meta));
  const size_t nattrs = meta.schema.num_attributes();
  tsdata::Schema schema;
  if (projection == nullptr) {
    schema = meta.schema;
  } else {
    for (size_t i = 0; i < projection->size(); ++i) {
      size_t attr = (*projection)[i];
      if (attr >= nattrs || (i > 0 && attr <= (*projection)[i - 1])) {
        return Status::InvalidArgument(
            "segment: projection must list ascending schema columns");
      }
      DBSHERLOCK_RETURN_NOT_OK(
          schema.AddAttribute(meta.schema.attribute(attr)));
    }
  }

  DBSHERLOCK_RETURN_NOT_OK(NextBlock(&bytes, &payload));
  std::vector<double> timestamps;
  DBSHERLOCK_RETURN_NOT_OK(
      DecodeTimestampBlock(payload, meta.rows, &timestamps));

  std::vector<tsdata::Column> columns;
  columns.reserve(schema.num_attributes());
  size_t next = 0;  // next projection entry
  for (size_t i = 0; i < nattrs; ++i) {
    DBSHERLOCK_RETURN_NOT_OK(NextBlock(&bytes, &payload));
    if (projection != nullptr) {
      if (next == projection->size() || (*projection)[next] != i) continue;
      ++next;
    }
    auto column =
        DecodeColumnBlock(payload, meta.schema.attribute(i).kind, meta.rows);
    if (!column.ok()) return column.status();
    columns.push_back(std::move(*column));
  }
  if (version == kVersionV2) {
    // The footer is required: a v2 blob whose zone block was torn off is
    // corrupt, same as a missing column block.
    ZoneMap zones;
    DBSHERLOCK_RETURN_NOT_OK(ConsumeZoneFooter(bytes, &zones));
    if (zones.rows != meta.rows) {
      return Status::ParseError("segment: zone map disagrees with meta");
    }
  } else if (!bytes.empty()) {
    return Status::ParseError("segment: trailing bytes after last block");
  }
  return tsdata::Dataset::FromColumns(std::move(schema), std::move(timestamps),
                                      std::move(columns));
}

}  // namespace

ZoneMap ComputeZoneMap(const tsdata::Dataset& data) {
  ZoneMap zones;
  zones.rows = data.num_rows();
  zones.min_ts = data.num_rows() > 0 ? data.timestamp(0) : 0.0;
  zones.max_ts =
      data.num_rows() > 0 ? data.timestamp(data.num_rows() - 1) : 0.0;
  zones.attrs.resize(data.num_attributes());
  for (size_t i = 0; i < data.num_attributes(); ++i) {
    AttrZone& z = zones.attrs[i];
    const tsdata::Column& column = data.column(i);
    if (column.kind() == tsdata::AttributeKind::kCategorical) {
      // Categorical cells are always present; bounds never apply to them.
      z.non_nan_count = zones.rows;
      z.finite_count = zones.rows;
      continue;
    }
    for (double v : column.numeric_values()) {
      if (std::isnan(v)) continue;
      ++z.non_nan_count;
      if (std::isfinite(v)) ++z.finite_count;
      if (v < z.min) z.min = v;
      if (v > z.max) z.max = v;
    }
  }
  return zones;
}

std::string EncodeSegment(const tsdata::Dataset& data) {
  std::string out;
  out.append(kMagic, sizeof(kMagic));
  AppendU32(&out, kVersionV2);
  AppendBlock(&out, EncodeMetaBlock(data));
  AppendBlock(&out, EncodeTimestampBlock(data));
  for (size_t i = 0; i < data.num_attributes(); ++i) {
    AppendBlock(&out, EncodeColumnBlock(data.column(i)));
  }
  size_t zone_start = out.size();
  AppendBlock(&out, EncodeZoneBlock(ComputeZoneMap(data)));
  AppendU32(&out, static_cast<uint32_t>(out.size() - zone_start));
  out.append(kZoneMagic, sizeof(kZoneMagic));
  return out;
}

Result<SegmentMeta> ReadSegmentMeta(std::string_view bytes) {
  SegmentMeta meta;
  DBSHERLOCK_RETURN_NOT_OK(CheckHeader(&bytes, &meta.version));
  std::string_view payload;
  DBSHERLOCK_RETURN_NOT_OK(NextBlock(&bytes, &payload));
  DBSHERLOCK_RETURN_NOT_OK(DecodeMetaBlock(payload, &meta));
  return meta;
}

Result<ZoneMap> ReadSegmentZoneMap(std::string_view bytes) {
  std::string_view body = bytes;
  uint32_t version = 0;
  DBSHERLOCK_RETURN_NOT_OK(CheckHeader(&body, &version));
  if (version == kVersionV1) {
    return Status::NotFound("segment: v1 blob has no zone-map footer");
  }
  // The trailer's length field tells us where the framed zone block
  // starts; ConsumeZoneFooter re-validates the whole tail.
  if (body.size() < kBlockHeaderSize + kTrailerSize) {
    return Status::ParseError("segment: truncated zone footer");
  }
  ByteReader trailer(body.substr(body.size() - kTrailerSize));
  uint32_t zone_len = 0;
  DBSHERLOCK_RETURN_NOT_OK(trailer.ReadU32(&zone_len));
  if (zone_len > kMaxBlock ||
      zone_len + kTrailerSize > body.size()) {
    return Status::ParseError("segment: zone trailer length mismatch");
  }
  ZoneMap zones;
  DBSHERLOCK_RETURN_NOT_OK(ConsumeZoneFooter(
      body.substr(body.size() - kTrailerSize - zone_len), &zones));
  return zones;
}

Result<tsdata::Dataset> DecodeSegment(std::string_view bytes) {
  return Decode(bytes, nullptr);
}

Result<tsdata::Dataset> DecodeSegment(std::string_view bytes,
                                      std::span<const size_t> columns) {
  return Decode(bytes, &columns);
}

}  // namespace dbsherlock::store
