#include "store/tenant_store.h"

#include <dirent.h>
#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cmath>
#include <cstring>
#include <limits>
#include <numeric>
#include <optional>

#include "common/faultenv.h"
#include "common/metrics.h"
#include "common/parallel.h"
#include "common/strings.h"
#include "common/trace.h"
#include "tsdata/dataset_io.h"

namespace dbsherlock::store {

namespace {

using common::Result;
using common::Status;

constexpr char kSegmentPrefix[] = "seg-";
constexpr char kSegmentSuffix[] = ".dbs";

Status Errno(const std::string& what, const std::string& path) {
  return Status::IoError(what + " " + path + ": " + std::strerror(errno));
}

/// Slurps a segment file through the faultenv "seg.read" site. A file
/// that is gone entirely maps to NotFound so scans can tell a retention
/// race from real corruption.
Status ReadFile(const std::string& path, std::string* out) {
  int fd = ::open(path.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) {
    if (errno == ENOENT) {
      return Status::NotFound("segment file gone: " + path);
    }
    return Errno("open", path);
  }
  out->clear();
  char buf[64 << 10];
  Status status;
  for (;;) {
    ssize_t n = common::faultenv::Read("seg.read", fd, buf, sizeof(buf));
    if (n < 0) {
      if (errno == EINTR) continue;
      status = Errno("read", path);
      break;
    }
    if (n == 0) break;
    out->append(buf, static_cast<size_t>(n));
  }
  ::close(fd);
  return status;
}

/// Parses the sequence number out of "seg-%08llu.dbs"; nullopt for
/// foreign files, which recovery leaves untouched.
std::optional<uint64_t> ParseSegmentSeq(const std::string& name) {
  size_t prefix = sizeof(kSegmentPrefix) - 1;
  size_t suffix = sizeof(kSegmentSuffix) - 1;
  if (name.size() <= prefix + suffix) return std::nullopt;
  if (name.compare(0, prefix, kSegmentPrefix) != 0) return std::nullopt;
  if (name.compare(name.size() - suffix, suffix, kSegmentSuffix) != 0) {
    return std::nullopt;
  }
  uint64_t seq = 0;
  for (size_t i = prefix; i < name.size() - suffix; ++i) {
    if (name[i] < '0' || name[i] > '9') return std::nullopt;
    seq = seq * 10 + static_cast<uint64_t>(name[i] - '0');
  }
  return seq;
}

std::string SegmentPath(const std::string& dir, uint64_t seq) {
  return dir + "/" + common::StrFormat("%s%08llu%s", kSegmentPrefix,
                                       static_cast<unsigned long long>(seq),
                                       kSegmentSuffix);
}

Status FsyncDir(const std::string& dir) {
  int fd = ::open(dir.c_str(), O_RDONLY | O_CLOEXEC);
  if (fd < 0) return Errno("open dir", dir);
  Status status;
  if (common::faultenv::Fsync("seg.dirsync", fd) != 0) {
    status = Errno("fsync dir", dir);
  }
  ::close(fd);
  return status;
}

}  // namespace

TenantStore::TenantStore(Options options) : options_(std::move(options)) {}

TenantStore::~TenantStore() = default;

Result<std::unique_ptr<TenantStore>> TenantStore::Open(Options options) {
  if (options.dir.empty()) {
    return Status::InvalidArgument("TenantStore needs a directory");
  }
  if (options.seal_rows == 0) {
    return Status::InvalidArgument("seal_rows must be positive");
  }
  auto store = std::unique_ptr<TenantStore>(new TenantStore(options));
  if (::mkdir(store->options_.dir.c_str(), 0755) != 0 && errno != EEXIST) {
    return Errno("mkdir", store->options_.dir);
  }
  {
    std::unique_lock lock(store->mu_);
    DBSHERLOCK_RETURN_NOT_OK(store->RecoverLocked());
  }
  return store;
}

Status TenantStore::RecoverLocked() {
  TRACE_SPAN("store.recover");
  auto& metrics = common::MetricsRegistry::Global();

  DIR* dir = ::opendir(options_.dir.c_str());
  if (dir == nullptr) return Errno("opendir", options_.dir);
  std::vector<std::pair<uint64_t, std::string>> found;
  for (dirent* entry = ::readdir(dir); entry != nullptr;
       entry = ::readdir(dir)) {
    std::string name = entry->d_name;
    if (auto seq = ParseSegmentSeq(name)) found.emplace_back(*seq, name);
  }
  ::closedir(dir);
  std::sort(found.begin(), found.end());

  bool schema_adopted = options_.schema.num_attributes() > 0;
  for (const auto& [seq, name] : found) {
    std::string path = options_.dir + "/" + name;
    std::string blob;
    DBSHERLOCK_RETURN_NOT_OK(ReadFile(path, &blob));
    // A full decode (not just the meta block) so a bit flip anywhere in
    // the file is caught now, not mid-Scan.
    auto decoded = DecodeSegment(blob);
    if (!decoded.ok()) {
      if (decoded.status().code() == common::StatusCode::kFailedPrecondition) {
        // Intact bytes in a format this build cannot read: another build's
        // history, not a torn tail. Refuse to open and leave the file be.
        return Status::FailedPrecondition("segment " + path + ": " +
                                          decoded.status().message());
      }
      // A corrupt segment is the torn tail of a crash mid-seal: drop it
      // here so every later open sees a clean directory (the tail is
      // truncated exactly once).
      if (::unlink(path.c_str()) != 0) return Errno("unlink", path);
      ++recovery_.segments_dropped;
      recovery_.bytes_dropped += blob.size();
      metrics.GetCounter("store.recovery_dropped_segments")->Increment();
      continue;
    }
    if (!schema_adopted) {
      options_.schema = decoded->schema();
      schema_adopted = true;
    } else if (!(decoded->schema() == options_.schema)) {
      return Status::FailedPrecondition(common::StrFormat(
          "segment %s schema does not match the tenant schema (a tenant "
          "cannot change schema mid-history)",
          path.c_str()));
    }
    next_seq_ = std::max(next_seq_, seq + 1);
    if (decoded->num_rows() == 0) {
      // A zero-row segment carries no data, and its meaningless 0.0 time
      // bounds would poison manifest pruning and pin age-based retention
      // forever — drop the file, never stamp it into the manifest.
      if (::unlink(path.c_str()) != 0) return Errno("unlink", path);
      ++recovery_.empty_segments_dropped;
      metrics.GetCounter("store.recovery_empty_dropped")->Increment();
      continue;
    }
    // The decode validated this footer against the meta block, so the
    // manifest entry carries one zone per attribute.
    auto zones = ReadSegmentZoneMap(blob);
    if (!zones.ok()) return zones.status();
    SegmentInfo info;
    info.seq = seq;
    info.path = path;
    info.rows = decoded->num_rows();
    info.min_ts = decoded->timestamp(0);
    info.max_ts = decoded->timestamp(decoded->num_rows() - 1);
    info.bytes = blob.size();
    info.zones = std::move(*zones);
    have_last_ts_ = true;
    last_ts_ = std::max(last_ts_, info.max_ts);
    segments_.push_back(std::move(info));
    ++recovery_.segments_recovered;
    recovery_.rows_recovered += decoded->num_rows();
  }
  active_ = tsdata::Dataset(options_.schema);
  return Status::OK();
}

double TenantStore::last_ts_locked() const {
  if (active_.num_rows() > 0) {
    return active_.timestamp(active_.num_rows() - 1);
  }
  return last_ts_;
}

Status TenantStore::Append(double timestamp,
                           const std::vector<tsdata::Cell>& cells) {
  std::unique_lock lock(mu_);
  if (have_last_ts_ && !(timestamp > last_ts_locked())) {
    return Status::InvalidArgument(common::StrFormat(
        "store: timestamp %.3f not after %.3f", timestamp,
        last_ts_locked()));
  }
  DBSHERLOCK_RETURN_NOT_OK(active_.AppendRow(timestamp, cells));
  have_last_ts_ = true;
  if (active_.num_rows() >= options_.seal_rows) {
    DBSHERLOCK_RETURN_NOT_OK(SealLocked());
  }
  return Status::OK();
}

Status TenantStore::Seal() {
  std::unique_lock lock(mu_);
  return SealLocked();
}

Status TenantStore::SealLocked() {
  if (active_.num_rows() == 0) return Status::OK();
  TRACE_SPAN("store.seal");
  auto& metrics = common::MetricsRegistry::Global();
  common::ScopedLatency timer(metrics.GetHistogram("store.seal_us"));

  std::string blob = EncodeSegment(active_);
  // The honest baseline for the compression gauge: what these rows cost
  // as the CSV the rest of the repo exchanges telemetry in.
  size_t raw_bytes = tsdata::DatasetToCsv(active_).size();

  uint64_t seq = next_seq_++;
  std::string path = SegmentPath(options_.dir, seq);
  int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                  0644);
  if (fd < 0) return Errno("open", path);
  Status status = common::faultenv::WriteAll("seg.write", fd, blob.data(),
                                             blob.size(), path);
  if (status.ok() && options_.fsync_on_seal &&
      common::faultenv::Fsync("seg.fsync", fd) != 0) {
    status = Errno("fsync", path);
  }
  ::close(fd);
  if (!status.ok()) {
    // The rows stay in active_ and the next Append retries the seal under
    // a fresh seq; drop the partial file now so a restart that happens
    // before that retry doesn't have to (best-effort — recovery also
    // discards undecodable segments).
    (void)::unlink(path.c_str());
    metrics.GetCounter("store.seal_errors")->Increment();
    return status;
  }
  if (options_.fsync_on_seal) {
    DBSHERLOCK_RETURN_NOT_OK(FsyncDir(options_.dir));
  }

  SegmentInfo info;
  info.seq = seq;
  info.path = std::move(path);
  info.rows = active_.num_rows();
  info.min_ts = active_.timestamp(0);
  info.max_ts = active_.timestamp(active_.num_rows() - 1);
  info.bytes = blob.size();
  // The same map EncodeSegment just embedded in the footer.
  info.zones = ComputeZoneMap(active_);
  last_ts_ = info.max_ts;
  segments_.push_back(std::move(info));
  active_ = tsdata::Dataset(options_.schema);

  compressed_total_ += blob.size();
  raw_total_ += raw_bytes;
  metrics.GetCounter("store.segments_sealed")->Increment();
  if (raw_total_ > 0) {
    metrics.GetGauge("store.compression_ratio")
        ->Set(static_cast<double>(compressed_total_) /
              static_cast<double>(raw_total_));
  }
  EnforceRetentionLocked();
  return Status::OK();
}

void TenantStore::EnforceRetentionLocked() {
  auto& metrics = common::MetricsRegistry::Global();
  auto over_budget = [&] {
    if (segments_.size() <= 1) return false;  // always keep the newest
    if (options_.retain_bytes > 0) {
      uint64_t total = 0;
      for (const SegmentInfo& seg : segments_) total += seg.bytes;
      if (total > options_.retain_bytes) return true;
    }
    if (options_.retain_age_sec > 0.0) {
      if (segments_.front().max_ts < last_ts_ - options_.retain_age_sec) {
        return true;
      }
    }
    return false;
  };
  while (over_budget()) {
    const SegmentInfo& victim = segments_.front();
    // Best-effort: a failed unlink leaves the file for the next pass.
    if (::unlink(victim.path.c_str()) != 0 && errno != ENOENT) break;
    segments_.erase(segments_.begin());
    ++retention_deletes_;
    ++retention_generation_;
    metrics.GetCounter("store.retention_deletes")->Increment();
  }
}

void TenantStore::SetRetention(uint64_t retain_bytes, double retain_age_sec) {
  std::unique_lock lock(mu_);
  options_.retain_bytes = retain_bytes;
  options_.retain_age_sec = retain_age_sec;
}

namespace {

/// An AttributeBound resolved to a schema index.
struct ResolvedBound {
  size_t attr = 0;
  double lo = 0.0;
  double hi = 0.0;
};

Status ResolveBounds(const tsdata::Schema& schema,
                     const std::vector<AttributeBound>& bounds,
                     std::vector<ResolvedBound>* out) {
  out->clear();
  out->reserve(bounds.size());
  for (const AttributeBound& b : bounds) {
    auto idx = schema.IndexOf(b.attribute);
    if (!idx.ok()) {
      return Status::InvalidArgument("scan bound on unknown attribute '" +
                                     b.attribute + "'");
    }
    if (schema.attribute(*idx).kind == tsdata::AttributeKind::kCategorical) {
      return Status::InvalidArgument(
          "scan bound on categorical attribute '" + b.attribute + "'");
    }
    if (std::isnan(b.lo) || std::isnan(b.hi)) {
      return Status::InvalidArgument("scan bound on '" + b.attribute +
                                     "' has NaN limit");
    }
    out->push_back({*idx, b.lo, b.hi});
  }
  return Status::OK();
}

/// Keeps the rows of `src` inside [t0, t1) that satisfy every bound (NaN
/// never matches). A segment that passes whole is returned without a copy.
tsdata::Dataset FilterChunk(tsdata::Dataset src, double t0, double t1,
                            const std::vector<ResolvedBound>& bounds) {
  std::vector<size_t> rows = src.RowsInTimeRange(t0, t1);
  std::erase_if(rows, [&](size_t row) {
    for (const ResolvedBound& b : bounds) {
      double v = src.column(b.attr).numeric(row);
      if (!(v >= b.lo && v <= b.hi)) return true;  // NaN fails both
    }
    return false;
  });
  if (rows.size() == src.num_rows()) return src;
  tsdata::Dataset dst(src.schema());
  (void)dst.AppendRows(src, rows);  // same schema, rows in range
  return dst;
}

/// Indices of the last `n` rows of `data` (all of them when it has fewer).
std::vector<size_t> TailRows(const tsdata::Dataset& data, size_t n) {
  std::vector<size_t> rows(std::min(n, data.num_rows()));
  std::iota(rows.begin(), rows.end(), data.num_rows() - rows.size());
  return rows;
}

/// Per-segment result of the parallel decode stage.
struct SegmentChunk {
  Status status;
  tsdata::Dataset chunk;
  bool not_found = false;
};

SegmentChunk ReadSegment(const SegmentInfo& seg,
                         const std::optional<std::vector<size_t>>& columns) {
  SegmentChunk out;
  std::string blob;
  out.status = ReadFile(seg.path, &blob);
  if (!out.status.ok()) {
    out.not_found = out.status.code() == common::StatusCode::kNotFound;
    return out;
  }
  auto decoded =
      columns.has_value() ? DecodeSegment(blob, *columns) : DecodeSegment(blob);
  if (!decoded.ok()) {
    out.status = Status::IoError("corrupt sealed segment " + seg.path +
                                 ": " + decoded.status().message());
    return out;
  }
  out.chunk = std::move(*decoded);
  return out;
}

}  // namespace

Status TenantStore::ReadSegments(const SegmentRead& read, Snapshot* snapshot,
                                 size_t* decoded, size_t* retries) const {
  constexpr size_t kMaxAttempts = 3;
  // Ordered batches bound peak memory (a handful of inflated segments per
  // lane) and let `stop` end a read early; ordered delivery keeps results
  // bit-identical across parallelism settings.
  const size_t batch = 4 * common::EffectiveParallelism(read.parallelism);
  for (size_t attempt = 0;; ++attempt) {
    *decoded = 0;
    *retries = attempt;
    {
      std::shared_lock lock(mu_);
      snapshot->segments = segments_;
      snapshot->active = active_;
      snapshot->generation = retention_generation_;
    }
    std::vector<size_t> plan;
    DBSHERLOCK_RETURN_NOT_OK(read.plan(*snapshot, &plan));
    Status status;
    bool stop = false;
    bool missing = false;
    for (size_t base = 0; base < plan.size() && !stop && status.ok();
         base += batch) {
      size_t count = std::min(batch, plan.size() - base);
      std::vector<SegmentChunk> results = common::ParallelMap(
          count,
          [&](size_t i) {
            return ReadSegment(snapshot->segments[plan[base + i]],
                               read.columns);
          },
          read.parallelism);
      *decoded += count;
      for (size_t i = 0; i < count && !stop && status.ok(); ++i) {
        missing = results[i].not_found;
        status = results[i].status.ok()
                     ? read.consume(base + i, std::move(results[i].chunk),
                                    &stop)
                     : results[i].status;
      }
    }
    if (!missing) return status;
    {
      std::shared_lock lock(mu_);
      if (snapshot->generation == retention_generation_) {
        return Status::IoError("sealed segment vanished outside retention: " +
                               status.message());
      }
    }
    scan_retries_.fetch_add(1, std::memory_order_relaxed);
    common::MetricsRegistry::Global()
        .GetCounter("store.scan_retention_retries")
        ->Increment();
    if (attempt + 1 >= kMaxAttempts) {
      return Status::IoError("scan raced retention " +
                             std::to_string(kMaxAttempts) +
                             " times; giving up: " + status.message());
    }
    if (read.on_retry) read.on_retry();
  }
}

Result<tsdata::Dataset> TenantStore::Scan(double t0, double t1) const {
  ScanOptions options;
  options.t0 = t0;
  options.t1 = t1;
  ScanStats stats;
  return ScanWithOptions(options, &stats);
}

Result<tsdata::Dataset> TenantStore::ScanWithOptions(
    const ScanOptions& options, ScanStats* stats) const {
  tsdata::Dataset out(options_.schema);
  ScanVisitor visitor;
  visitor.on_chunk = [&](const tsdata::Dataset& chunk) {
    // Chunks arrive already filtered; stitch them verbatim.
    return out.AppendRows(chunk, TailRows(chunk, chunk.num_rows()));
  };
  visitor.on_reset = [&] { out = tsdata::Dataset(options_.schema); };
  DBSHERLOCK_RETURN_NOT_OK(ScanVisit(options, visitor, stats));
  return out;
}

Status TenantStore::ScanVisit(const ScanOptions& options,
                              const ScanVisitor& visitor,
                              ScanStats* stats) const {
  TRACE_SPAN("store.scan");
  auto& metrics = common::MetricsRegistry::Global();
  common::ScopedLatency timer(metrics.GetHistogram("store.scan_us"));
  if (!(options.t0 < options.t1)) {
    return Status::InvalidArgument("scan range must satisfy t0 < t1");
  }
  ScanStats local;
  // Deliver a filtered chunk, honouring the row cap. After the cap is
  // reached the scan keeps decoding only until one more matching row
  // proves truncation — so `truncated` is exact, never a guess.
  auto deliver = [&](const tsdata::Dataset& chunk) -> Status {
    if (chunk.num_rows() == 0 || local.truncated) return Status::OK();
    if (options.max_rows > 0) {
      if (local.rows_out >= options.max_rows) {
        local.truncated = true;
        return Status::OK();
      }
      if (local.rows_out + chunk.num_rows() > options.max_rows) {
        size_t take = static_cast<size_t>(options.max_rows - local.rows_out);
        local.rows_out = options.max_rows;
        local.truncated = true;
        return visitor.on_chunk(chunk.Slice(0, take));
      }
    }
    local.rows_out += chunk.num_rows();
    return visitor.on_chunk(chunk);
  };

  std::vector<ResolvedBound> bounds;
  SegmentRead read;
  read.parallelism = options.parallelism;
  read.plan = [&](const Snapshot& snapshot, std::vector<size_t>* plan) {
    local = ScanStats{};
    local.segments_total = snapshot.segments.size();
    // Prune segments that provably cannot contribute. The time test
    // compares [min_ts, max_ts] against the half-open [t0, t1); the zone
    // test consults the per-attribute min/max written at seal time.
    for (size_t s = 0; s < snapshot.segments.size(); ++s) {
      const SegmentInfo& seg = snapshot.segments[s];
      if (options.prune) {
        if (seg.max_ts < options.t0 || seg.min_ts >= options.t1) {
          ++local.segments_skipped_time;
          continue;
        }
        bool zone_skip = std::any_of(
            bounds.begin(), bounds.end(), [&](const ResolvedBound& b) {
              return seg.zones.attrs[b.attr].CannotMatch(b.lo, b.hi);
            });
        if (zone_skip) {
          ++local.segments_skipped_zone;
          continue;
        }
      }
      plan->push_back(s);
    }
    return Status::OK();
  };
  read.consume = [&](size_t, tsdata::Dataset segment, bool* stop) {
    Status status = deliver(
        FilterChunk(std::move(segment), options.t0, options.t1, bounds));
    *stop = local.truncated;
    return status;
  };
  read.on_retry = visitor.on_reset;
  Snapshot snapshot;
  size_t decoded = 0;
  size_t retries = 0;
  Status status = ResolveBounds(options_.schema, options.bounds, &bounds);
  if (status.ok()) status = ReadSegments(read, &snapshot, &decoded, &retries);
  if (status.ok()) {
    status = deliver(FilterChunk(std::move(snapshot.active), options.t0,
                                 options.t1, bounds));
  }
  local.segments_decoded = decoded;
  local.retries = retries;

  scans_total_.fetch_add(1, std::memory_order_relaxed);
  scan_segments_skipped_.fetch_add(
      local.segments_skipped_time + local.segments_skipped_zone,
      std::memory_order_relaxed);
  scan_segments_decoded_.fetch_add(local.segments_decoded,
                                   std::memory_order_relaxed);
  metrics.GetCounter("store.scan_segments_skipped")
      ->Increment(local.segments_skipped_time +
                    local.segments_skipped_zone);
  metrics.GetCounter("store.scan_segments_decoded")
      ->Increment(local.segments_decoded);
  if (stats != nullptr) *stats = local;
  return status;
}

Result<tsdata::Dataset> TenantStore::ScanTail(size_t max_rows) const {
  TRACE_SPAN("store.scan");
  tsdata::Dataset out(options_.schema);
  if (max_rows == 0) return out;
  std::vector<size_t> take;  // newest rows wanted from each planned segment
  SegmentRead read;
  read.plan = [&](const Snapshot& snapshot, std::vector<size_t>* plan) {
    out = tsdata::Dataset(options_.schema);
    take.clear();
    size_t needed = max_rows - std::min(snapshot.active.num_rows(), max_rows);
    for (size_t s = snapshot.segments.size(); s-- > 0 && needed > 0;) {
      plan->push_back(s);
      take.push_back(std::min<size_t>(snapshot.segments[s].rows, needed));
      needed -= take.back();
    }
    std::reverse(plan->begin(), plan->end());
    std::reverse(take.begin(), take.end());
    return Status::OK();
  };
  read.consume = [&](size_t i, tsdata::Dataset segment, bool*) {
    return out.AppendRows(segment, TailRows(segment, take[i]));
  };
  Snapshot snapshot;
  size_t decoded = 0;
  size_t retries = 0;
  DBSHERLOCK_RETURN_NOT_OK(ReadSegments(read, &snapshot, &decoded, &retries));
  DBSHERLOCK_RETURN_NOT_OK(
      out.AppendRows(snapshot.active, TailRows(snapshot.active, max_rows)));
  return out;
}

Result<double> TenantStore::ResolveQuantile(const std::string& attribute,
                                            double q,
                                            QuantileStats* stats) const {
  TRACE_SPAN("store.quantile");
  auto& metrics = common::MetricsRegistry::Global();
  common::ScopedLatency timer(metrics.GetHistogram("store.quantile_us"));
  if (!(q >= 0.0 && q <= 1.0)) {
    return Status::InvalidArgument("quantile fraction must be in [0, 1]");
  }
  auto idx = options_.schema.IndexOf(attribute);
  if (!idx.ok()) {
    return Status::NotFound("quantile on unknown attribute '" + attribute +
                            "'");
  }
  if (options_.schema.attribute(*idx).kind ==
      tsdata::AttributeKind::kCategorical) {
    return Status::InvalidArgument("quantile on categorical attribute '" +
                                   attribute + "'");
  }
  const size_t attr = *idx;

  // Per-attempt state, rebuilt by `plan` from each snapshot.
  QuantileStats local;
  std::vector<double> active_vals;
  uint64_t total = 0;
  uint64_t k = 0;
  uint64_t known_below = 0;
  double lo = -std::numeric_limits<double>::infinity();
  std::vector<double> pool;

  SegmentRead read;
  read.columns = std::vector<size_t>{attr};  // inflate the ranked column only
  read.plan = [&](const Snapshot& snapshot,
                  std::vector<size_t>* plan) -> Status {
    local = QuantileStats{};
    local.segments_total = snapshot.segments.size();
    pool.clear();

    // The active tail is already in memory: its values are exact.
    active_vals.clear();
    for (double v : snapshot.active.column(attr).numeric_values()) {
      if (!std::isnan(v)) active_vals.push_back(v);
    }

    // Zone-map census: every manifest entry has one zone per attribute.
    total = active_vals.size();
    for (const SegmentInfo& seg : snapshot.segments) {
      total += seg.zones.attrs[attr].non_nan_count;
    }
    if (total == 0) {
      return Status::FailedPrecondition("no non-NaN values stored for '" +
                                        attribute + "'");
    }

    // Bracket the k-th order statistic. LB(t) counts values certainly
    // <= t (segments whose zone max <= t, plus exact active values);
    // UB(t) counts values possibly <= t (zone min <= t). The k-th value
    // lies in (lo, hi] where lo is the largest candidate with UB < k and
    // hi the smallest with LB >= k.
    k = static_cast<uint64_t>(std::ceil(q * static_cast<double>(total)));
    if (k < 1) k = 1;
    if (k > total) k = total;
    lo = -std::numeric_limits<double>::infinity();
    double hi = std::numeric_limits<double>::infinity();
    std::vector<double> candidates;
    candidates.reserve(2 * snapshot.segments.size() + active_vals.size());
    for (const SegmentInfo& seg : snapshot.segments) {
      const AttrZone& z = seg.zones.attrs[attr];
      if (z.non_nan_count == 0) continue;
      if (!std::isnan(z.min)) candidates.push_back(z.min);
      if (!std::isnan(z.max)) candidates.push_back(z.max);
    }
    candidates.insert(candidates.end(), active_vals.begin(),
                      active_vals.end());
    std::sort(candidates.begin(), candidates.end());
    candidates.erase(std::unique(candidates.begin(), candidates.end()),
                     candidates.end());
    for (double t : candidates) {
      uint64_t lb = 0;
      uint64_t ub = 0;
      for (const SegmentInfo& seg : snapshot.segments) {
        const AttrZone& z = seg.zones.attrs[attr];
        if (z.max <= t) lb += z.non_nan_count;
        if (z.min <= t) ub += z.non_nan_count;
      }
      for (double a : active_vals) {
        if (a <= t) {
          ++lb;
          ++ub;
        }
      }
      if (ub < k) lo = t;
      if (lb >= k && t < hi) hi = t;
    }

    // Decode only segments straddling (lo, hi]; fully-below segments
    // contribute their counts, fully-above ones nothing at all.
    known_below = 0;
    for (size_t s = 0; s < snapshot.segments.size(); ++s) {
      const AttrZone& z = snapshot.segments[s].zones.attrs[attr];
      if (z.non_nan_count == 0) continue;
      if (z.max <= lo) {
        known_below += z.non_nan_count;
      } else if (z.min <= hi) {
        plan->push_back(s);
      }
    }
    return Status::OK();
  };
  read.consume = [&](size_t, tsdata::Dataset segment, bool*) {
    for (double v : segment.column(0).numeric_values()) {
      if (std::isnan(v)) continue;
      if (v <= lo) {
        ++known_below;
      } else {
        pool.push_back(v);
      }
    }
    return Status::OK();
  };
  Snapshot snapshot;
  size_t decoded = 0;
  size_t retries = 0;
  DBSHERLOCK_RETURN_NOT_OK(ReadSegments(read, &snapshot, &decoded, &retries));
  local.segments_decoded = decoded;

  for (double a : active_vals) {
    if (a <= lo) {
      ++known_below;
    } else {
      pool.push_back(a);
    }
  }
  local.values_total = total;
  local.rank = k;
  if (k <= known_below || pool.size() < k - known_below) {
    return Status::Internal("quantile bracket lost the order statistic ('" +
                            attribute + "', rank " + std::to_string(k) +
                            ")");
  }
  size_t target = static_cast<size_t>(k - known_below) - 1;
  std::nth_element(pool.begin(), pool.begin() + target, pool.end());
  metrics.GetCounter("store.quantile_segments_decoded")
      ->Increment(local.segments_decoded);
  if (stats != nullptr) *stats = local;
  return pool[target];
}

size_t TenantStore::num_segments() const {
  std::shared_lock lock(mu_);
  return segments_.size();
}

uint64_t TenantStore::sealed_rows() const {
  std::shared_lock lock(mu_);
  uint64_t rows = 0;
  for (const SegmentInfo& seg : segments_) rows += seg.rows;
  return rows;
}

uint64_t TenantStore::sealed_bytes() const {
  std::shared_lock lock(mu_);
  uint64_t bytes = 0;
  for (const SegmentInfo& seg : segments_) bytes += seg.bytes;
  return bytes;
}

size_t TenantStore::active_rows() const {
  std::shared_lock lock(mu_);
  return active_.num_rows();
}

uint64_t TenantStore::retention_deletes() const {
  std::shared_lock lock(mu_);
  return retention_deletes_;
}

double TenantStore::compression_ratio() const {
  std::shared_lock lock(mu_);
  if (raw_total_ == 0) return 0.0;
  return static_cast<double>(compressed_total_) /
         static_cast<double>(raw_total_);
}

std::vector<SegmentInfo> TenantStore::Manifest() const {
  std::shared_lock lock(mu_);
  return segments_;
}

std::optional<double> TenantStore::durable_last_ts() const {
  std::shared_lock lock(mu_);
  if (segments_.empty()) return std::nullopt;
  return segments_.back().max_ts;
}

}  // namespace dbsherlock::store
