#include "service/model_store.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>

#include "common/crc32.h"
#include "common/faultenv.h"
#include "common/json.h"
#include "common/strings.h"
#include "common/trace.h"
#include "core/model_io.h"

namespace dbsherlock::service {

namespace {

using common::Result;
using common::Status;

constexpr int kSnapshotVersion = 1;
/// Hard cap on one WAL payload: a single causal model is kilobytes, so a
/// larger length field can only come from a torn/garbage header.
constexpr uint32_t kMaxPayload = 16u << 20;

void PutU32(uint8_t* out, uint32_t v) {
  out[0] = static_cast<uint8_t>(v);
  out[1] = static_cast<uint8_t>(v >> 8);
  out[2] = static_cast<uint8_t>(v >> 16);
  out[3] = static_cast<uint8_t>(v >> 24);
}

void PutU64(uint8_t* out, uint64_t v) {
  for (int i = 0; i < 8; ++i) out[i] = static_cast<uint8_t>(v >> (8 * i));
}

uint32_t GetU32(const uint8_t* in) {
  return static_cast<uint32_t>(in[0]) | static_cast<uint32_t>(in[1]) << 8 |
         static_cast<uint32_t>(in[2]) << 16 |
         static_cast<uint32_t>(in[3]) << 24;
}

uint64_t GetU64(const uint8_t* in) {
  uint64_t v = 0;
  for (int i = 0; i < 8; ++i) v |= static_cast<uint64_t>(in[i]) << (8 * i);
  return v;
}

Status Errno(const std::string& what, const std::string& path) {
  return Status::IoError(what + " " + path + ": " + std::strerror(errno));
}

/// Writes all of `data` to `fd`, retrying short writes and EINTR. `site`
/// tags the write for fault injection (faultenv.h).
Status WriteAll(const char* site, int fd, const uint8_t* data, size_t n,
                const std::string& path) {
  size_t done = 0;
  while (done < n) {
    ssize_t w = common::faultenv::Write(site, fd, data + done, n - done);
    if (w < 0) {
      if (errno == EINTR) continue;
      return Errno("write", path);
    }
    done += static_cast<size_t>(w);
  }
  return Status::OK();
}

}  // namespace

DurableModelStore::DurableModelStore(Options options)
    : options_(std::move(options)) {}

DurableModelStore::~DurableModelStore() {
  if (wal_fd_ >= 0) ::close(wal_fd_);
}

std::string DurableModelStore::SnapshotPath() const {
  return options_.dir + "/snapshot.json";
}

std::string DurableModelStore::WalPath() const {
  return options_.dir + "/wal.log";
}

Result<std::unique_ptr<DurableModelStore>> DurableModelStore::Open(
    Options options) {
  auto store =
      std::unique_ptr<DurableModelStore>(new DurableModelStore(options));
  if (!options.dir.empty()) {
    if (::mkdir(options.dir.c_str(), 0755) != 0 && errno != EEXIST) {
      return Errno("mkdir", options.dir);
    }
    std::unique_lock lock(store->mu_);
    DBSHERLOCK_RETURN_NOT_OK(store->RecoverLocked());
  }
  auto& metrics = common::MetricsRegistry::Global();
  metrics.GetGauge("model_store.models")
      ->Set(static_cast<double>(store->repo_.size()));
  return store;
}

Status DurableModelStore::RecoverLocked() {
  TRACE_SPAN("model_store.recover");
  auto& metrics = common::MetricsRegistry::Global();

  // 1) Snapshot, if one exists. A corrupt snapshot is a hard error: unlike
  // the WAL tail, its write was atomic (tmp + rename), so damage means the
  // operator should intervene rather than silently lose the whole store.
  {
    std::ifstream in(SnapshotPath(), std::ios::binary);
    if (in) {
      std::ostringstream buffer;
      buffer << in.rdbuf();
      auto json = common::ParseJson(buffer.str());
      if (!json.ok()) return json.status();
      auto version = json->GetNumber("version");
      if (!version.ok()) return version.status();
      if (*version != static_cast<double>(kSnapshotVersion)) {
        return Status::ParseError(common::StrFormat(
            "unsupported snapshot version %g", *version));
      }
      auto last_seq = json->GetNumber("last_seq");
      if (!last_seq.ok()) return last_seq.status();
      if (*last_seq < 0 || *last_seq > 9e15) {
        return Status::ParseError("snapshot with implausible last_seq");
      }
      const common::JsonValue* repo_json = json->Find("repository");
      if (repo_json == nullptr) {
        return Status::ParseError("snapshot without repository");
      }
      auto repo = core::RepositoryFromJson(*repo_json);
      if (!repo.ok()) return repo.status();
      repo_ = std::move(*repo);
      snapshot_seq_ = static_cast<uint64_t>(*last_seq);
      next_seq_ = snapshot_seq_ + 1;
      recovery_.snapshot_models = repo_.size();
    }
  }

  // 2) WAL replay. Records with seq <= snapshot_seq_ are already folded
  // into the snapshot (the process can die between snapshot rename and WAL
  // truncation); replaying them again would double-merge, so skip.
  int fd = ::open(WalPath().c_str(), O_RDWR | O_CREAT | O_CLOEXEC, 0644);
  if (fd < 0) return Errno("open", WalPath());
  wal_fd_ = fd;

  off_t good_end = 0;
  bool torn = false;
  for (;;) {
    uint8_t header[16];
    ssize_t r = ::pread(fd, header, sizeof(header), good_end);
    if (r < 0) return Errno("read", WalPath());
    if (r == 0) break;  // clean end of log
    if (r < static_cast<ssize_t>(sizeof(header))) {
      torn = true;  // short header: the append died mid-write
      break;
    }
    uint32_t len = GetU32(header);
    uint32_t crc = GetU32(header + 4);
    uint64_t seq = GetU64(header + 8);
    if (len == 0 || len > kMaxPayload) {
      torn = true;
      break;
    }
    std::string payload(len, '\0');
    r = ::pread(fd, payload.data(), len, good_end + 16);
    if (r < 0) return Errno("read", WalPath());
    if (r < static_cast<ssize_t>(len)) {
      torn = true;
      break;
    }
    // CRC covers seq + payload, exactly as AppendRecordLocked computed it.
    uint32_t actual = common::Crc32(header + 8, 8);
    actual = common::Crc32(payload.data(), len, actual);
    if (actual != crc) {
      torn = true;
      break;
    }
    auto json = common::ParseJson(payload);
    if (!json.ok()) {
      torn = true;  // CRC can't catch a record torn before CRC was written
      break;
    }
    auto model = core::CausalModelFromJson(*json);
    if (!model.ok()) {
      torn = true;
      break;
    }
    if (seq > snapshot_seq_) {
      repo_.Add(std::move(*model));
      ++recovery_.wal_records_applied;
      ++wal_records_;
    } else {
      ++recovery_.wal_records_skipped;
    }
    if (seq >= next_seq_) next_seq_ = seq + 1;
    good_end += 16 + static_cast<off_t>(len);
  }

  if (torn) {
    struct stat st;
    if (::fstat(fd, &st) != 0) return Errno("stat", WalPath());
    recovery_.truncated_bytes =
        static_cast<uint64_t>(st.st_size - good_end);
    if (::ftruncate(fd, good_end) != 0) return Errno("truncate", WalPath());
    if (::fsync(fd) != 0) return Errno("fsync", WalPath());
    metrics.GetCounter("model_store.recovery_truncations")->Increment();
  }
  metrics.GetCounter("model_store.recovery_records_applied")
      ->Increment(recovery_.wal_records_applied);
  if (::lseek(fd, 0, SEEK_END) < 0) return Errno("seek", WalPath());
  return Status::OK();
}

Status DurableModelStore::AppendRecordLocked(const core::CausalModel& model) {
  std::string payload = core::CausalModelToJson(model).Dump();
  if (payload.size() > kMaxPayload) {
    return Status::InvalidArgument("causal model too large for WAL");
  }
  std::string record(16 + payload.size(), '\0');
  auto* bytes = reinterpret_cast<uint8_t*>(record.data());
  PutU32(bytes, static_cast<uint32_t>(payload.size()));
  PutU64(bytes + 8, next_seq_);
  std::memcpy(bytes + 16, payload.data(), payload.size());
  uint32_t crc = common::Crc32(bytes + 8, 8);
  crc = common::Crc32(bytes + 16, payload.size(), crc);
  PutU32(bytes + 4, crc);

  auto& metrics = common::MetricsRegistry::Global();
  size_t n = record.size();
  if (options_.fail_append_after_bytes < n) {
    // Injected crash: write a prefix, then behave as if the process died —
    // the fd stays as-is and every later write fails fast.
    (void)WriteAll("wal.write", wal_fd_, bytes,
                   options_.fail_append_after_bytes, WalPath());
    (void)::fsync(wal_fd_);
    failed_ = true;
    return Status::IoError("injected crash during WAL append");
  }
  // Where this record starts: a failed append must truncate back here, or
  // the torn bytes would sit in front of every later record and recovery
  // would stop at the tear — losing appends that WERE acked after it.
  off_t record_start = ::lseek(wal_fd_, 0, SEEK_CUR);
  if (record_start < 0) return Errno("seek", WalPath());
  Status status;
  {
    common::ScopedLatency timer(
        metrics.GetHistogram("model_store.wal_append_us"));
    status = WriteAll("wal.write", wal_fd_, bytes, n, WalPath());
  }
  if (status.ok() && options_.fsync_each_append) {
    common::ScopedLatency timer(
        metrics.GetHistogram("model_store.wal_fsync_us"));
    if (common::faultenv::Fsync("wal.fsync", wal_fd_) != 0) {
      status = Errno("fsync", WalPath());
    }
  }
  if (!status.ok()) {
    // Unwind the partial record so the WAL stays a clean prefix of acked
    // appends. Only if even the unwind fails does the store go sticky-
    // failed (the next Open re-runs torn-tail recovery).
    metrics.GetCounter("model_store.wal_append_errors")->Increment();
    if (::ftruncate(wal_fd_, record_start) != 0 ||
        ::lseek(wal_fd_, record_start, SEEK_SET) < 0) {
      failed_ = true;
      metrics.GetCounter("model_store.wal_failures")->Increment();
    }
    return status;
  }
  metrics.GetCounter("model_store.wal_appends")->Increment();
  ++next_seq_;
  ++wal_records_;
  return Status::OK();
}

Status DurableModelStore::Add(const core::CausalModel& model) {
  TRACE_SPAN("model_store.add");
  if (model.cause.empty()) {
    return Status::InvalidArgument("causal model with empty cause");
  }
  std::unique_lock lock(mu_);
  if (failed_) {
    return Status::FailedPrecondition("model store failed a previous write");
  }
  if (wal_fd_ >= 0) {
    DBSHERLOCK_RETURN_NOT_OK(AppendRecordLocked(model));
  } else {
    // Volatile store: no WAL record, but the sequence still advances —
    // MODELSYNC peers poll `last_seq = next_seq - 1` to learn there is
    // something new to pull, durable or not.
    ++next_seq_;
  }
  // In-memory merge happens only after durability: on any WAL error the
  // caller sees the failure and the repository is unchanged.
  repo_.Add(model);
  common::MetricsRegistry::Global().GetGauge("model_store.models")
      ->Set(static_cast<double>(repo_.size()));
  if (wal_fd_ >= 0 && wal_records_ >= options_.compact_after_records) {
    DBSHERLOCK_RETURN_NOT_OK(CompactLocked());
  }
  return Status::OK();
}

Status DurableModelStore::CompactLocked() {
  TRACE_SPAN("model_store.compact");
  // Write tmp -> fsync -> rename: the snapshot is either the old one or
  // the complete new one, never a partial file.
  common::JsonValue::Object doc;
  doc["version"] = kSnapshotVersion;
  doc["last_seq"] = static_cast<double>(next_seq_ - 1);
  doc["repository"] = core::RepositoryToJson(repo_);
  std::string text = common::JsonValue(std::move(doc)).Dump();

  std::string tmp = SnapshotPath() + ".tmp";
  int fd = ::open(tmp.c_str(), O_WRONLY | O_CREAT | O_TRUNC | O_CLOEXEC,
                  0644);
  if (fd < 0) return Errno("open", tmp);
  Status write_status =
      WriteAll("snap.write", fd, reinterpret_cast<const uint8_t*>(text.data()),
               text.size(), tmp);
  if (write_status.ok() && common::faultenv::Fsync("snap.fsync", fd) != 0) {
    write_status = Errno("fsync", tmp);
  }
  ::close(fd);
  DBSHERLOCK_RETURN_NOT_OK(write_status);
  if (::rename(tmp.c_str(), SnapshotPath().c_str()) != 0) {
    return Errno("rename", tmp);
  }

  // The WAL is now redundant up to last_seq; if the process dies before
  // this truncate, recovery skips the duplicate records by seq.
  snapshot_seq_ = next_seq_ - 1;
  if (::ftruncate(wal_fd_, 0) != 0) return Errno("truncate", WalPath());
  if (::lseek(wal_fd_, 0, SEEK_SET) < 0) return Errno("seek", WalPath());
  if (::fsync(wal_fd_) != 0) return Errno("fsync", WalPath());
  wal_records_ = 0;
  ++compactions_;
  common::MetricsRegistry::Global()
      .GetCounter("model_store.compactions")
      ->Increment();
  return Status::OK();
}

Status DurableModelStore::Compact() {
  std::unique_lock lock(mu_);
  if (wal_fd_ < 0) return Status::OK();
  if (failed_) {
    return Status::FailedPrecondition("model store failed a previous write");
  }
  return CompactLocked();
}

std::vector<core::RankedCause> DurableModelStore::Rank(
    const tsdata::Dataset& dataset, const tsdata::LabeledRows& rows,
    const core::PredicateGenOptions& options, double min_confidence) const {
  std::shared_lock lock(mu_);
  return repo_.Rank(dataset, rows, options, min_confidence);
}

core::ModelRepository DurableModelStore::SnapshotRepository() const {
  std::shared_lock lock(mu_);
  return repo_;
}

size_t DurableModelStore::num_models() const {
  std::shared_lock lock(mu_);
  return repo_.size();
}

uint64_t DurableModelStore::next_seq() const {
  std::shared_lock lock(mu_);
  return next_seq_;
}

size_t DurableModelStore::wal_records() const {
  std::shared_lock lock(mu_);
  return wal_records_;
}

}  // namespace dbsherlock::service
