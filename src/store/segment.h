#ifndef DBSHERLOCK_STORE_SEGMENT_H_
#define DBSHERLOCK_STORE_SEGMENT_H_

#include <cstdint>
#include <limits>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "common/status.h"
#include "tsdata/dataset.h"

namespace dbsherlock::store {

/// Per-attribute value summary inside a segment's zone-map footer
/// (DESIGN.md §14). `min`/`max` span the non-NaN values *including* ±Inf
/// — an all-Inf column must not be pruned under a `v >= lo` bound — so
/// `min > max` (the +inf/-inf init) means "no non-NaN values at all" and
/// the segment can never satisfy a numeric bound on this attribute.
/// Categorical attributes carry no numeric range (min > max) but count
/// every cell as present and finite.
struct AttrZone {
  double min = std::numeric_limits<double>::infinity();
  double max = -std::numeric_limits<double>::infinity();
  uint64_t non_nan_count = 0;  // cells with a comparable value (incl. ±Inf)
  uint64_t finite_count = 0;   // cells that are finite

  /// True when no row in the zone can satisfy `lo <= v <= hi` (NaN never
  /// matches). Conservative: false only proves the segment *may* match.
  bool CannotMatch(double lo, double hi) const {
    if (non_nan_count == 0) return true;
    return max < lo || min > hi;
  }
};

/// Segment-level zone map: row/time bounds plus one AttrZone per schema
/// attribute, in schema order.
struct ZoneMap {
  uint64_t rows = 0;
  double min_ts = 0.0;
  double max_ts = 0.0;
  std::vector<AttrZone> attrs;
};

/// Computes the zone map for a dataset by one pass over its columns.
/// This is the exact function the encoder uses at seal time, so the
/// manifest entry a seal builds matches the footer it writes.
ZoneMap ComputeZoneMap(const tsdata::Dataset& data);

/// Serialises a dataset into an immutable segment blob (DESIGN.md §11):
/// a "DBSG" magic + version header followed by CRC-32-framed blocks —
/// schema/meta, delta-of-delta timestamps, then one block per column
/// (Gorilla-style XOR compression for numeric columns, dictionary +
/// varint codes for categorical ones), then (DESIGN.md §14) a
/// zone-map footer block and an 8-byte "DBSZ" trailer that makes the
/// footer locatable from the end of the file. The encoding is pure bit
/// manipulation, so every double — including NaN payloads — round-trips
/// bit-identically.
std::string EncodeSegment(const tsdata::Dataset& data);

/// Inflates a segment blob back into a dataset. The zone-map footer is
/// required and must agree with the meta block on the row count and the
/// attribute count. Every length, count, and checksum is validated;
/// corrupt or truncated input yields a clean ParseError, never UB. A
/// header naming a format version other than 2 yields FailedPrecondition.
common::Result<tsdata::Dataset> DecodeSegment(std::string_view bytes);

/// Projected decode (DESIGN.md §11): inflates the timestamps and only the
/// schema columns listed in `columns` (strictly ascending indices). The
/// result's schema holds just those attributes in schema order, so one
/// column gives a one-attribute dataset and an empty projection the
/// timestamps alone; its columns are bit-identical to the same columns of
/// a full decode. Blocks outside the projection are not inflated, but
/// their CRC-32 is verified and the zone footer is validated, so a torn or
/// bit-flipped blob fails here exactly as it fails a full decode.
common::Result<tsdata::Dataset> DecodeSegment(std::string_view bytes,
                                              std::span<const size_t> columns);

/// Decodes only the zone-map footer by seeking to the trailing "DBSZ"
/// trailer — no timestamp or column block is touched, so the footer is
/// not checked against the meta block here (DecodeSegment does that).
common::Result<ZoneMap> ReadSegmentZoneMap(std::string_view bytes);

}  // namespace dbsherlock::store

#endif  // DBSHERLOCK_STORE_SEGMENT_H_
