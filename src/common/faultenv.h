#ifndef DBSHERLOCK_COMMON_FAULTENV_H_
#define DBSHERLOCK_COMMON_FAULTENV_H_

#include <sys/socket.h>
#include <sys/types.h>
#include <unistd.h>

#include <atomic>
#include <cstdint>
#include <string>

#include "common/json.h"
#include "common/status.h"

namespace dbsherlock::common::faultenv {

/// Seeded, schedule-driven fault injection for the file and socket
/// operations underneath dbsherlockd (DESIGN.md §13). Every durability-
/// or wire-critical syscall in the daemon goes through one of the
/// wrappers below, each tagged with a short *site* label:
///
///   wal.write / wal.fsync       DurableModelStore WAL appends
///   snap.write / snap.fsync     DurableModelStore snapshot compaction
///   seg.write / seg.fsync       TenantStore segment seals
///   seg.read                    TenantStore segment reads (scans, recovery)
///   seg.dirsync                 TenantStore directory fsync after seal
///   srv.send / srv.recv         Server per-connection I/O
///   cli.send / cli.recv         Client request/response I/O
///   cli.connect                 Client TCP connect
///
/// When no schedule is installed the wrappers are a single relaxed
/// atomic load away from the raw syscall — unmeasurable on the service
/// bench. When a schedule is installed (programmatically or via the
/// DBSHERLOCK_FAULT_SCHEDULE environment variable), each call consults
/// the schedule's seeded PCG32 stream and either passes through or
/// injects a fault.
///
/// Schedule grammar (';'-separated entries):
///
///   seed=N                      RNG seed (default 1)
///   <site>=<kind>@<prob>[,ms=N][,after=N][,limit=N]
///
/// `site` is an exact label or a prefix wildcard ("wal.*", "*"). `prob`
/// is the per-call injection probability in [0,1]. `after=N` arms the
/// rule only after N calls at the site; `limit=N` caps how many times
/// the rule fires; `ms=N` sets the stall duration. Kinds:
///
///   eio     fail with EIO, nothing written/read
///   enospc  fail with ENOSPC, nothing written
///   short   short write (half the bytes land, call reports the short
///           count) / short read (1 byte) — exercises retry loops
///   torn    write half the bytes, then fail with EIO — simulates a
///           crash mid-write leaving a torn tail on disk
///   stall   sleep `ms` (default 50), then perform the op normally
///   reset   fail with ECONNRESET (ECONNREFUSED at connect sites)
///
/// Example:
///   DBSHERLOCK_FAULT_SCHEDULE='seed=7;wal.write=torn@0.02,limit=1;
///     seg.fsync=enospc@0.05;srv.recv=stall@0.01,ms=40;srv.send=reset@0.005'

/// One fault decision, visible for tests.
enum class FaultKind { kEio, kEnospc, kShort, kTorn, kStall, kReset };

/// Parses `spec` and installs it as the process-wide schedule, replacing
/// any previous one. An empty spec is equivalent to Clear().
common::Status InstallSchedule(const std::string& spec);

/// Installs the schedule from $DBSHERLOCK_FAULT_SCHEDULE if set. A parse
/// error is returned (and nothing installed) so daemons can refuse to
/// start with a typo'd schedule rather than silently running clean.
common::Status InstallFromEnv();

/// Removes the schedule; wrappers pass through again.
void Clear();

/// The installed schedule spec ("" when disabled) — stamped into
/// BENCH_chaos.json so every chaos run is reproducible.
std::string ActiveSpec();

/// Total faults injected since the schedule was installed.
uint64_t InjectedCount();

/// Per-site call/injection counters: {"site":{"calls":n,"injected":n}}.
common::JsonValue StatsJson();

namespace internal {
extern std::atomic<bool> g_enabled;
ssize_t WriteFaulty(const char* site, int fd, const void* buf, size_t n);
ssize_t ReadFaulty(const char* site, int fd, void* buf, size_t n);
int FsyncFaulty(const char* site, int fd);
ssize_t SendFaulty(const char* site, int fd, const void* buf, size_t n,
                   int flags);
ssize_t RecvFaulty(const char* site, int fd, void* buf, size_t n, int flags);
int ConnectFaulty(const char* site, int fd, const sockaddr* addr,
                  socklen_t len);
}  // namespace internal

/// True when a schedule is installed (one relaxed load).
inline bool Enabled() {
  return internal::g_enabled.load(std::memory_order_relaxed);
}

// Wrappers: identical contracts to the raw syscalls (including errno on
// failure), plus injection when a schedule is live.

inline ssize_t Write(const char* site, int fd, const void* buf, size_t n) {
  if (!Enabled()) return ::write(fd, buf, n);
  return internal::WriteFaulty(site, fd, buf, n);
}

inline ssize_t Read(const char* site, int fd, void* buf, size_t n) {
  if (!Enabled()) return ::read(fd, buf, n);
  return internal::ReadFaulty(site, fd, buf, n);
}

inline int Fsync(const char* site, int fd) {
  if (!Enabled()) return ::fsync(fd);
  return internal::FsyncFaulty(site, fd);
}

inline ssize_t Send(const char* site, int fd, const void* buf, size_t n,
                    int flags) {
  if (!Enabled()) return ::send(fd, buf, n, flags);
  return internal::SendFaulty(site, fd, buf, n, flags);
}

inline ssize_t Recv(const char* site, int fd, void* buf, size_t n,
                    int flags) {
  if (!Enabled()) return ::recv(fd, buf, n, flags);
  return internal::RecvFaulty(site, fd, buf, n, flags);
}

inline int Connect(const char* site, int fd, const sockaddr* addr,
                   socklen_t len) {
  if (!Enabled()) return ::connect(fd, addr, len);
  return internal::ConnectFaulty(site, fd, addr, len);
}

/// Write() until all `n` bytes land, retrying short writes and EINTR. A
/// failure is an IoError naming `path`.
common::Status WriteAll(const char* site, int fd, const void* buf, size_t n,
                        const std::string& path);

}  // namespace dbsherlock::common::faultenv

#endif  // DBSHERLOCK_COMMON_FAULTENV_H_
