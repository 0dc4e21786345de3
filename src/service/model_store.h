#ifndef DBSHERLOCK_SERVICE_MODEL_STORE_H_
#define DBSHERLOCK_SERVICE_MODEL_STORE_H_

#include <cstdint>
#include <memory>
#include <shared_mutex>
#include <string>
#include <vector>

#include "common/metrics.h"
#include "common/status.h"
#include "core/model_repository.h"

namespace dbsherlock::service {

/// Durability layer around core::ModelRepository: the causal knowledge the
/// service accumulates (Section 6 of the paper, "over the lifetime of a
/// database operation") must survive daemon restarts, and is shared by
/// every tenant. Writes go through an append-only write-ahead log and are
/// acknowledged only after the record is on disk; a periodic snapshot
/// compacts the log.
///
/// On-disk layout under Options::dir:
///   snapshot.json   {"version":1,"last_seq":N,"repository":{model_io doc}}
///   wal.log         a sequence of records, each:
///
///     offset  size  field
///     0       4     payload length `len` (uint32, little-endian)
///     4       4     common::Crc32 of bytes [8, 16+len)
///     8       8     sequence number (uint64, little-endian, starts at 1)
///     16      len   payload: one causal model, compact model_io JSON
///
/// Recovery loads the snapshot (if any), then replays WAL records with
/// seq > snapshot.last_seq through ModelRepository::Add (the same merge
/// path as the original writes). A torn tail — short header, short
/// payload, CRC mismatch, or unparsable payload — ends replay: the file is
/// truncated back to the last good record exactly once and the daemon
/// continues; every previously acknowledged Add is still present because
/// acknowledgment happens only after a full record (and optional fsync)
/// hit the file.
class DurableModelStore {
 public:
  struct Options {
    /// Directory for snapshot.json + wal.log; created if missing (one
    /// level). Empty = volatile store: same API, nothing persisted.
    std::string dir;
    /// fsync the WAL after every Add (the durable-by-default contract).
    /// Benchmarks may disable it to measure the queueing path alone.
    bool fsync_each_append = true;
    /// Compact (snapshot + truncate WAL) after this many log records.
    size_t compact_after_records = 256;
    /// Test-only crash injection: when < SIZE_MAX, the next Add writes
    /// only this many bytes of its record, marks the store failed, and
    /// returns IoError — simulating the process dying mid-append.
    size_t fail_append_after_bytes = SIZE_MAX;
  };

  /// What recovery found; available via recovery() for tests/logs.
  struct RecoveryReport {
    size_t snapshot_models = 0;     // models loaded from snapshot.json
    size_t wal_records_applied = 0; // replayed (seq > snapshot.last_seq)
    size_t wal_records_skipped = 0; // already covered by the snapshot
    uint64_t truncated_bytes = 0;   // torn tail discarded from wal.log
  };

  /// Opens (and recovers) the store. Fails on unreadable/corrupt snapshot
  /// or an unwritable directory — but never on a torn WAL tail.
  static common::Result<std::unique_ptr<DurableModelStore>> Open(
      Options options);

  ~DurableModelStore();

  DurableModelStore(const DurableModelStore&) = delete;
  DurableModelStore& operator=(const DurableModelStore&) = delete;

  /// Appends the model to the WAL (fsync per Options), then merges it into
  /// the in-memory repository. Thread-safe. On IoError nothing was
  /// acknowledged and the in-memory state is unchanged.
  common::Status Add(const core::CausalModel& model);

  /// Ranks the stored causes against an anomaly (thread-safe, shared lock;
  /// see ModelRepository::Rank).
  std::vector<core::RankedCause> Rank(
      const tsdata::Dataset& dataset, const core::DiagnosisRuns& runs,
      const core::PredicateGenOptions& options, double lambda) const;

  /// Copy of the current repository (MODELS responses, tests).
  core::ModelRepository SnapshotRepository() const;

  size_t num_models() const;
  uint64_t next_seq() const;
  size_t wal_records() const;
  uint64_t compactions() const { return compactions_; }
  /// True once a write failure could not be unwound (the WAL may hold a
  /// torn record); all further writes fail until the store is reopened.
  bool failed() const {
    std::shared_lock lock(mu_);
    return failed_;
  }
  const RecoveryReport& recovery() const { return recovery_; }
  const Options& options() const { return options_; }

  /// Forces a snapshot + WAL truncation now. No-op for volatile stores.
  common::Status Compact();

 private:
  explicit DurableModelStore(Options options);

  common::Status RecoverLocked();
  common::Status AppendRecordLocked(const core::CausalModel& model);
  common::Status CompactLocked();
  std::string SnapshotPath() const;
  std::string WalPath() const;

  Options options_;
  mutable std::shared_mutex mu_;
  core::ModelRepository repo_;
  uint64_t next_seq_ = 1;       // seq the next Add will write
  uint64_t snapshot_seq_ = 0;   // last seq folded into snapshot.json
  size_t wal_records_ = 0;      // live records in wal.log
  uint64_t compactions_ = 0;
  int wal_fd_ = -1;             // -1 for volatile stores
  bool failed_ = false;         // unrecoverable write failure; writes fail
  RecoveryReport recovery_;
};

}  // namespace dbsherlock::service

#endif  // DBSHERLOCK_SERVICE_MODEL_STORE_H_
