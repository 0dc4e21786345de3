#ifndef DBSHERLOCK_STORE_TENANT_STORE_H_
#define DBSHERLOCK_STORE_TENANT_STORE_H_

#include <atomic>
#include <cstdint>
#include <functional>
#include <limits>
#include <memory>
#include <optional>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/status.h"
#include "store/segment.h"
#include "tsdata/dataset.h"

namespace dbsherlock::store {

/// Manifest entry for one sealed, immutable on-disk segment.
struct SegmentInfo {
  uint64_t seq = 0;       // monotonic file sequence number
  std::string path;
  uint64_t rows = 0;
  double min_ts = 0.0;
  double max_ts = 0.0;
  uint64_t bytes = 0;     // compressed file size
  ZoneMap zones;          // per-attribute min/max/counts (DESIGN.md §14)
};

/// What Open() found on disk. Corrupt files are torn tails from a crash
/// mid-seal: they are deleted during recovery (so the tail is truncated
/// exactly once) and every intact segment is kept. Recovery never writes
/// a segment file.
struct RecoveryReport {
  size_t segments_recovered = 0;
  uint64_t rows_recovered = 0;
  size_t segments_dropped = 0;
  uint64_t bytes_dropped = 0;
  /// Intact but zero-row segments deleted at recovery: they carry no data
  /// and their meaningless 0.0 time bounds would poison manifest pruning
  /// and pin age-based retention.
  size_t empty_segments_dropped = 0;
};

/// A closed numeric-attribute filter pushed into Scan: rows must satisfy
/// `lo <= value <= hi` (NaN never matches); segments whose zone map
/// proves no row can match are skipped without being read or decoded.
struct AttributeBound {
  std::string attribute;
  double lo = -std::numeric_limits<double>::infinity();
  double hi = std::numeric_limits<double>::infinity();
};

struct ScanOptions {
  double t0 = -std::numeric_limits<double>::infinity();
  double t1 = std::numeric_limits<double>::infinity();  // half-open [t0, t1)
  /// Conjunction of per-attribute bounds (numeric attributes only).
  std::vector<AttributeBound> bounds;
  /// Decode parallelism (0 = one lane per usable CPU, 1 = serial). Results
  /// are bit-identical across settings — stitching is deterministic.
  size_t parallelism = 0;
  /// When false, every sealed segment is read and decoded (rows are still
  /// filtered) — the full-decode baseline the parity tests compare against.
  bool prune = true;
  /// Stop after this many matching rows (0 = unlimited). The output holds
  /// at most `max_rows` rows; ScanStats::truncated reports whether more
  /// rows matched.
  size_t max_rows = 0;
};

/// What one scan did — the pushdown observability surface (STATS verb).
struct ScanStats {
  size_t segments_total = 0;         // sealed segments in the snapshot
  size_t segments_skipped_time = 0;  // pruned on [min_ts, max_ts] alone
  size_t segments_skipped_zone = 0;  // pruned on an attribute zone
  size_t segments_decoded = 0;       // actually read + inflated
  uint64_t rows_out = 0;             // rows delivered after filtering
  size_t retries = 0;                // restarts after a retention race
  bool truncated = false;            // max_rows cut the scan short
};

/// What one ResolveQuantile call did — how much the zone-map bracketing
/// saved versus decoding every sealed segment.
struct QuantileStats {
  size_t segments_total = 0;    // sealed segments in the snapshot
  size_t segments_decoded = 0;  // straddled the bracket and were inflated
  uint64_t values_total = 0;    // non-NaN values ranked (sealed + active)
  uint64_t rank = 0;            // 1-based order statistic returned
};

/// Receives scan output incrementally, in timestamp order. Rare restarts
/// (a retention race deleted a snapshotted segment mid-scan) invoke
/// `on_reset` and the chunk sequence starts over from the beginning.
struct ScanVisitor {
  std::function<common::Status(const tsdata::Dataset& chunk)> on_chunk;
  std::function<void()> on_reset;  // optional
};

/// Embedded per-tenant time-series store (DESIGN.md §11, §14). Appends
/// land in an in-memory active segment that seals to a compressed
/// immutable file every `seal_rows` rows; `Scan` stitches sealed segments
/// and the active tail back into a `tsdata::Dataset` so the diagnosis
/// pipeline runs over history unchanged. Thread-safe; scans snapshot the
/// manifest under a shared lock and do all file I/O and decompression
/// outside it, so a week-long retro-scan never stalls Append/Seal.
class TenantStore {
 public:
  struct Options {
    std::string dir;         // per-tenant segment directory (required)
    tsdata::Schema schema;   // empty = adopt the schema found on disk
    size_t seal_rows = 512;  // active segment seals at this many rows
    uint64_t retain_bytes = 0;   // 0 = unlimited byte budget
    double retain_age_sec = 0.0; // 0 = unlimited age
    bool fsync_on_seal = true;   // tests may disable for speed
  };

  /// Creates the directory if needed and recovers every intact segment,
  /// deleting corrupt ones (see RecoveryReport). Fails with
  /// FailedPrecondition when the on-disk schema does not match
  /// `options.schema` — a tenant cannot change schema mid-history — and
  /// when a segment names a format version this build cannot read; that
  /// file is left as it is.
  static common::Result<std::unique_ptr<TenantStore>> Open(Options options);

  ~TenantStore();

  TenantStore(const TenantStore&) = delete;
  TenantStore& operator=(const TenantStore&) = delete;

  /// Appends one row to the active segment (timestamps must be strictly
  /// increasing — the store mirrors monitor-accepted telemetry). Seals
  /// automatically at `seal_rows`.
  common::Status Append(double timestamp,
                        const std::vector<tsdata::Cell>& cells);

  /// Force-seals the active segment to disk (no-op when empty).
  common::Status Seal();

  /// Rows with timestamp in [t0, t1), stitched across sealed segments and
  /// the active tail, in timestamp order.
  common::Result<tsdata::Dataset> Scan(double t0, double t1) const;

  /// Scan with pushdown: time bounds and attribute bounds prune whole
  /// segments via the manifest zone maps before any file is read.
  common::Result<tsdata::Dataset> ScanWithOptions(const ScanOptions& options,
                                                  ScanStats* stats) const;

  /// Streaming form of ScanWithOptions: filtered chunks are delivered in
  /// timestamp order as segments decode, so the caller can build its
  /// result (or stop at a row cap) without the store buffering the whole
  /// range. A non-OK status from `visitor.on_chunk` aborts the scan and
  /// is returned verbatim.
  common::Status ScanVisit(const ScanOptions& options,
                           const ScanVisitor& visitor,
                           ScanStats* stats) const;

  /// The newest `max_rows` rows (or fewer), in timestamp order — the
  /// restart-rehydration path for StreamingMonitor.
  common::Result<tsdata::Dataset> ScanTail(size_t max_rows) const;

  /// Exact q-quantile (0 <= q <= 1) of every stored value of a numeric
  /// attribute — sealed segments plus the active tail, NaNs excluded —
  /// computed as the ceil(q*N)-th order statistic. The manifest zone maps
  /// bracket where that order statistic can live, so segments provably
  /// below the bracket contribute only their counts and segments provably
  /// above it are never read; only straddling segments are decoded
  /// (DESIGN.md §16). FailedPrecondition when no non-NaN value is stored.
  common::Result<double> ResolveQuantile(const std::string& attribute,
                                         double q,
                                         QuantileStats* stats) const;

  /// Re-arms the retention policy (HELLO RETAIN); enforcement happens on
  /// the next seal.
  void SetRetention(uint64_t retain_bytes, double retain_age_sec);

  const tsdata::Schema& schema() const { return options_.schema; }
  const std::string& dir() const { return options_.dir; }
  const RecoveryReport& recovery() const { return recovery_; }

  // --- Stats (STATS verb / store-inspect) -----------------------------
  size_t num_segments() const;
  uint64_t sealed_rows() const;
  uint64_t sealed_bytes() const;
  size_t active_rows() const;
  uint64_t retention_deletes() const;
  /// Compressed bytes / raw CSV bytes across everything sealed so far
  /// (0 when nothing sealed yet).
  double compression_ratio() const;
  /// Copy of the manifest, oldest first.
  std::vector<SegmentInfo> Manifest() const;

  // Cumulative pushdown counters across every scan since open.
  uint64_t scans_total() const { return scans_total_.load(); }
  uint64_t scan_segments_skipped() const {
    return scan_segments_skipped_.load();
  }
  uint64_t scan_segments_decoded() const {
    return scan_segments_decoded_.load();
  }
  uint64_t scan_retries() const { return scan_retries_.load(); }

  /// Timestamp of the newest row that is durably sealed on disk, or nullopt
  /// when nothing has sealed yet. Rows after this live only in the active
  /// in-memory segment and do not survive a crash — clients implementing
  /// idempotent replay resend everything strictly after this point.
  std::optional<double> durable_last_ts() const;

 private:
  explicit TenantStore(Options options);

  /// A consistent view taken under the shared lock; a read does its file
  /// I/O and decompression after the lock is released.
  struct Snapshot {
    std::vector<SegmentInfo> segments;  // manifest, oldest first
    tsdata::Dataset active;
    uint64_t generation = 0;  // retention_generation_ when taken
  };

  /// What one read of the sealed segments does (see ReadSegments).
  struct SegmentRead {
    /// Columns to inflate (ascending schema indices); nullopt = all.
    std::optional<std::vector<size_t>> columns;
    size_t parallelism = 0;  // decode lanes, as in ScanOptions
    /// Picks the snapshot segments to decode, in delivery order. Runs once
    /// per attempt, so it also resets the caller's per-attempt state.
    std::function<common::Status(const Snapshot&, std::vector<size_t>*)>
        plan;
    /// Receives decoded segment `plan[i]`, in plan order; setting `*stop`
    /// ends the read after it.
    std::function<common::Status(size_t i, tsdata::Dataset segment,
                                 bool* stop)>
        consume;
    std::function<void()> on_retry;  // optional, before each restart
  };

  common::Status RecoverLocked();
  common::Status SealLocked();
  void EnforceRetentionLocked();
  /// The one snapshot → parallel projected decode → retention-retry loop
  /// behind ScanVisit, ScanTail and ResolveQuantile. Segments decode in
  /// ordered batches outside the lock; a file unlinked by retention after
  /// the snapshot restarts the read from a fresh one (at most 3 attempts),
  /// any other missing file is an IoError. On return `*snapshot` is the
  /// view the last attempt read (its active tail is the caller's to use),
  /// `*decoded` counts the segments that attempt inflated and `*retries`
  /// the restarts.
  common::Status ReadSegments(const SegmentRead& read, Snapshot* snapshot,
                              size_t* decoded, size_t* retries) const;
  double last_ts_locked() const;

  Options options_;
  RecoveryReport recovery_;

  mutable std::shared_mutex mu_;
  std::vector<SegmentInfo> segments_;  // manifest, oldest first
  tsdata::Dataset active_;
  uint64_t next_seq_ = 1;
  bool have_last_ts_ = false;
  double last_ts_ = 0.0;
  /// Bumped once per retention unlink; a scan that hits a missing file
  /// re-checks this to tell a benign race from real data loss.
  uint64_t retention_generation_ = 0;
  // Cumulative seal accounting for the compression-ratio gauge; never
  // decremented by retention (the ratio describes the codec, not the
  // current directory).
  uint64_t compressed_total_ = 0;
  uint64_t raw_total_ = 0;
  uint64_t retention_deletes_ = 0;
  // Scan-side counters mutate under the shared lock, hence atomics.
  mutable std::atomic<uint64_t> scans_total_{0};
  mutable std::atomic<uint64_t> scan_segments_skipped_{0};
  mutable std::atomic<uint64_t> scan_segments_decoded_{0};
  mutable std::atomic<uint64_t> scan_retries_{0};
};

}  // namespace dbsherlock::store

#endif  // DBSHERLOCK_STORE_TENANT_STORE_H_
