// dbsherlockd: the DBSherlock online diagnosis daemon. Serves the wire
// protocol of service/wire.h over TCP: multi-tenant telemetry ingestion
// with bounded queues and RETRY_AFTER backpressure, background anomaly
// detection + diagnosis per tenant, and a durable (WAL + snapshot) store
// of causal models shared across tenants.
//
//   dbsherlockd serve --port 7379 --wal-dir /var/lib/dbsherlock
//
// Prints "LISTENING <port>" on stdout once the socket is ready (port 0
// binds an ephemeral port — scripts parse the line). SIGINT/SIGTERM stop
// the daemon cleanly: acked rows are drained, in-flight diagnoses finish,
// the WAL is intact. Exit codes match the dbsherlock CLI (0 ok, 2 usage,
// 3..9 one per StatusCode).

#include <csignal>
#include <cstdio>
#include <cstring>
#include <string>

#include "common/faultenv.h"
#include "common/cli.h"
#include "common/metrics.h"
#include "common/strings.h"
#include "fleet/model_sync.h"
#include "fleet/router.h"
#include "service/model_store.h"
#include "service/server.h"
#include "service/service.h"

namespace {

using namespace dbsherlock;
using common::Args;
using common::Die;

volatile std::sig_atomic_t g_stop = 0;
void HandleSignal(int) { g_stop = 1; }

/// Blocks SIGINT/SIGTERM in the calling thread and returns the mask to
/// wait with. `main` calls it before any thread starts: every thread then
/// inherits the block, so only WaitForStopSignal's sigsuspend can take a
/// stop signal. A handler run on some other thread would set g_stop
/// without waking `main`, and the daemon would never stop.
sigset_t BlockStopSignals() {
  sigset_t block, unblocked;
  sigemptyset(&block);
  sigaddset(&block, SIGINT);
  sigaddset(&block, SIGTERM);
  sigprocmask(SIG_BLOCK, &block, &unblocked);
  return unblocked;
}

/// Sleeps until SIGINT/SIGTERM. Testing g_stop with the signals blocked
/// and unblocking them atomically inside sigsuspend closes the
/// check-then-sleep race; a signal that arrived earlier is pending and is
/// taken on the first sigsuspend.
void WaitForStopSignal(const sigset_t& unblocked) {
  struct sigaction action {};
  action.sa_handler = HandleSignal;
  sigaction(SIGINT, &action, nullptr);
  sigaction(SIGTERM, &action, nullptr);
  while (g_stop == 0) {
    sigsuspend(&unblocked);
  }
  sigprocmask(SIG_SETMASK, &unblocked, nullptr);
}

int Usage() {
  std::fprintf(
      stderr,
      "usage: dbsherlockd serve [flags]\n"
      "       dbsherlockd route --shards host:port,... [flags]\n"
      "serve flags:\n"
      "  --host H              listen address (default 127.0.0.1)\n"
      "  --port P              listen port; 0 = ephemeral (default 7379)\n"
      "  --wal-dir DIR         durable model store directory (snapshot +\n"
      "                        WAL); omitted = volatile store\n"
      "  --no-fsync            skip per-append WAL fsync (benchmarks)\n"
      "  --store-dir DIR       per-tenant telemetry history root; enables\n"
      "                        QUERY / DIAGNOSE_RANGE and restart\n"
      "                        rehydration; omitted = window-only\n"
      "  --seal-rows N         rows per sealed segment (default 512)\n"
      "  --max-range-rows N    DIAGNOSE_RANGE window row cap; larger\n"
      "                        windows are refused with ResourceExhausted\n"
      "                        (default 500000, 0 = unlimited)\n"
      "  --retain-bytes N      per-tenant history byte budget (0 = off)\n"
      "  --retain-sec S        per-tenant history age limit (0 = off)\n"
      "  --max-tenants N       idle-LRU tenant cap (default 64)\n"
      "  --queue-capacity N    per-tenant ingest queue bound (default 1024)\n"
      "  --ingest-workers N    drain threads (default 2)\n"
      "  --diagnosis-workers N diagnosis threads (default 2)\n"
      "  --retry-after-ms N    backpressure delay hint (default 20)\n"
      "  --process-delay-us N  per-row drain stall for tests/benches "
      "(default 0)\n"
      "  --max-connections N   concurrent client cap; accepts past it are\n"
      "                        shed with RETRY_AFTER (default 64)\n"
      "  --idle-timeout-ms N   close connections idle this long (0 = off)\n"
      "  --max-line-bytes N    request line cap (default 1 MiB)\n"
      "  --peers host:port,... peer shards to pull causal models from via\n"
      "                        MODELSYNC (fleet replication)\n"
      "  --modelsync-interval-ms N\n"
      "                        delay between replication pulls (default\n"
      "                        1000; 0 disables the background puller)\n"
      "  --fault-schedule S    install a fault-injection schedule (see\n"
      "                        common/faultenv.h; also honors the\n"
      "                        DBSHERLOCK_FAULT_SCHEDULE env var)\n"
      "  --window-rows N       monitor sliding window (default 600)\n"
      "  --warmup-rows N       rows before first detection (default 120)\n"
      "  --detect-every N      detection cadence in rows (default 15)\n"
      "  --lambda L            min confidence (%%) for ranked causes and\n"
      "                        the EXPLAINQ margin floor (default 20)\n"
      "  --metrics-out f.json  write the metrics snapshot on shutdown\n"
      "  --print-metrics       print the metrics snapshot on shutdown\n"
      "route flags:\n"
      "  --shards host:port,.. shard daemons, in ring order (required)\n"
      "  --host/--port         listen address (default 127.0.0.1:7380)\n"
      "  --vnodes N            virtual nodes per shard on the consistent-\n"
      "                        hash ring (default 64)\n"
      "  --max-connections N   client cap, shed with RETRY_AFTER (def 256)\n"
      "  --upstream-deadline-ms N  per-request shard deadline (def 5000)\n"
      "  --upstream-attempts N idempotent retry budget (default 3)\n"
      "  --down-cooldown-ms N  circuit-breaker cooldown after a shard\n"
      "                        failure (default 2000)\n"
      "  --fault-schedule, --idle-timeout-ms, --max-line-bytes,\n"
      "  --metrics-out, --print-metrics as for serve\n"
      "on start, prints \"LISTENING <port>\" on stdout; SIGINT/SIGTERM\n"
      "drain and exit 0\n"
      "exit codes: 0 ok, 2 usage, 3 invalid argument, 4 not found,\n"
      "  5 out of range, 6 failed precondition, 7 I/O error, 8 parse\n"
      "  error, 9 internal error, 10 deadline exceeded, 11 resource\n"
      "  exhausted\n");
  return 2;
}

/// Shared --metrics-out / --print-metrics shutdown handling.
int WriteMetricsOutputs(const Args& args) {
  if (args.Has("metrics-out")) {
    std::string path = args.Get("metrics-out");
    std::FILE* f = std::fopen(path.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "error: cannot write %s\n", path.c_str());
      return 7;
    }
    std::string snapshot =
        common::MetricsRegistry::Global().SnapshotJson().Dump(2);
    std::fwrite(snapshot.data(), 1, snapshot.size(), f);
    std::fputc('\n', f);
    std::fclose(f);
  }
  if (args.Has("print-metrics")) {
    std::fputs(common::MetricsRegistry::Global().SnapshotText().c_str(),
               stderr);
  }
  return 0;
}

/// Installs --fault-schedule, else DBSHERLOCK_FAULT_SCHEDULE. A typo'd
/// schedule refuses to start rather than silently running clean.
void InstallFaultSchedule(const Args& args) {
  common::Status installed =
      args.Has("fault-schedule")
          ? common::faultenv::InstallSchedule(args.Get("fault-schedule"))
          : common::faultenv::InstallFromEnv();
  if (!installed.ok()) Die(installed);
  if (common::faultenv::Enabled()) {
    std::fprintf(stderr, "fault schedule active: %s\n",
                 common::faultenv::ActiveSpec().c_str());
  }
}

int CmdServe(const Args& args, const sigset_t& unblocked) {
  InstallFaultSchedule(args);

  service::DurableModelStore::Options store_options;
  store_options.dir = args.Get("wal-dir");
  store_options.fsync_each_append = !args.Has("no-fsync");
  auto store = service::DurableModelStore::Open(store_options);
  if (!store.ok()) Die(store.status());
  if (!store_options.dir.empty()) {
    const auto& rec = (*store)->recovery();
    std::fprintf(stderr,
                 "model store: %zu model(s) recovered (%zu snapshot, %zu "
                 "WAL replayed, %llu torn byte(s) discarded)\n",
                 (*store)->num_models(), rec.snapshot_models,
                 rec.wal_records_applied,
                 static_cast<unsigned long long>(rec.truncated_bytes));
  }

  service::Service::Options options;
  options.tenants.max_tenants =
      static_cast<size_t>(args.GetDouble("max-tenants", 64));
  options.tenants.monitor.window_rows =
      static_cast<size_t>(args.GetDouble("window-rows", 600));
  options.tenants.monitor.warmup_rows =
      static_cast<size_t>(args.GetDouble("warmup-rows", 120));
  options.tenants.monitor.detect_every =
      static_cast<size_t>(args.GetDouble("detect-every", 15));
  options.tenants.store.dir = args.Get("store-dir");
  options.tenants.store.seal_rows =
      static_cast<size_t>(args.GetDouble("seal-rows", 512));
  options.tenants.store.retain_bytes =
      static_cast<uint64_t>(args.GetDouble("retain-bytes", 0));
  options.tenants.store.retain_age_sec = args.GetDouble("retain-sec", 0);
  options.queue_capacity =
      static_cast<size_t>(args.GetDouble("queue-capacity", 1024));
  options.ingest_workers =
      static_cast<size_t>(args.GetDouble("ingest-workers", 2));
  options.diagnosis_workers =
      static_cast<size_t>(args.GetDouble("diagnosis-workers", 2));
  options.retry_after_ms =
      static_cast<int>(args.GetDouble("retry-after-ms", 20));
  // Test/bench hook: per-row drain stall, to make ingest CPU-bound work
  // visible on fast machines (0 = off).
  options.process_delay_us =
      static_cast<int>(args.GetDouble("process-delay-us", 0));
  // The one lambda: ranking everywhere and the DQL margin floor.
  options.explainer.confidence_threshold = args.GetDouble("lambda", 20.0);
  options.max_range_rows =
      static_cast<size_t>(args.GetDouble("max-range-rows", 500000));
  options.store = store->get();
  service::Service service(options);

  service::Server::Options server_options;
  server_options.host = args.Get("host", "127.0.0.1");
  server_options.port = static_cast<int>(args.GetDouble("port", 7379));
  server_options.max_connections =
      static_cast<size_t>(args.GetDouble("max-connections", 64));
  server_options.idle_timeout_ms =
      static_cast<int>(args.GetDouble("idle-timeout-ms", 0));
  server_options.max_line_bytes =
      static_cast<size_t>(args.GetDouble("max-line-bytes", 1 << 20));
  server_options.handler = service::ServiceHandler(service);
  auto server = service::Server::Start(server_options);
  if (!server.ok()) Die(server.status());

  // Fleet replication: pull peers' causal-model corpora in the background
  // so every shard diagnoses with fleet-wide knowledge.
  std::unique_ptr<fleet::ModelSyncPuller> puller;
  if (args.Has("peers")) {
    fleet::ModelSyncPuller::Options sync_options;
    for (const std::string& peer :
         common::Split(args.Get("peers"), ',')) {
      if (!peer.empty()) sync_options.peers.push_back(peer);
    }
    sync_options.interval_ms =
        static_cast<int>(args.GetDouble("modelsync-interval-ms", 1000));
    sync_options.service = &service;
    auto started = fleet::ModelSyncPuller::Start(std::move(sync_options));
    if (!started.ok()) Die(started.status());
    puller = std::move(*started);
  }

  // Scripts (and the CTest e2e harness) block on this line.
  std::printf("LISTENING %d\n", (*server)->port());
  std::fflush(stdout);

  WaitForStopSignal(unblocked);

  std::fprintf(stderr, "shutting down: draining tenants...\n");
  if (puller != nullptr) puller->Stop();
  (*server)->Stop();
  service.Stop();
  std::fprintf(stderr,
               "done: %llu row(s) acked, %llu shed, %llu diagnosis(es), "
               "%zu model(s) stored\n",
               static_cast<unsigned long long>(service.total_acked()),
               static_cast<unsigned long long>(service.total_shed()),
               static_cast<unsigned long long>(service.total_diagnoses()),
               (*store)->num_models());

  return WriteMetricsOutputs(args);
}

int CmdRoute(const Args& args, const sigset_t& unblocked) {
  InstallFaultSchedule(args);

  fleet::Router::Options options;
  options.host = args.Get("host", "127.0.0.1");
  options.port = static_cast<int>(args.GetDouble("port", 7380));
  for (const std::string& shard : common::Split(args.Get("shards"), ',')) {
    if (!shard.empty()) options.shards.push_back(shard);
  }
  if (options.shards.empty()) {
    std::fprintf(stderr, "route: --shards host:port,... is required\n");
    return 2;
  }
  options.vnodes_per_shard =
      static_cast<size_t>(args.GetDouble("vnodes", 64));
  options.max_connections =
      static_cast<size_t>(args.GetDouble("max-connections", 256));
  options.idle_timeout_ms =
      static_cast<int>(args.GetDouble("idle-timeout-ms", 0));
  options.max_line_bytes =
      static_cast<size_t>(args.GetDouble("max-line-bytes", 1 << 20));
  options.upstream_deadline_ms =
      static_cast<int>(args.GetDouble("upstream-deadline-ms", 5000));
  options.max_upstream_attempts =
      static_cast<int>(args.GetDouble("upstream-attempts", 3));
  options.down_cooldown_ms =
      static_cast<int>(args.GetDouble("down-cooldown-ms", 2000));
  auto router = fleet::Router::Start(std::move(options));
  if (!router.ok()) Die(router.status());

  std::printf("LISTENING %d\n", (*router)->port());
  std::fflush(stdout);

  WaitForStopSignal(unblocked);

  std::fprintf(stderr, "router shutting down\n");
  for (const auto& stats : (*router)->shard_stats()) {
    std::fprintf(stderr,
                 "  shard %s: %llu request(s), %llu retrie(s), %llu "
                 "failure(s)%s\n",
                 stats.address.c_str(),
                 static_cast<unsigned long long>(stats.requests),
                 static_cast<unsigned long long>(stats.retries),
                 static_cast<unsigned long long>(stats.failures),
                 stats.down ? " [down]" : "");
  }
  (*router)->Stop();
  return WriteMetricsOutputs(args);
}

}  // namespace

int main(int argc, char** argv) {
  if (argc < 2) return Usage();
  std::string command = argv[1];
  Args args(argc, argv, 2);
  const sigset_t unblocked = BlockStopSignals();
  if (command == "serve") return CmdServe(args, unblocked);
  if (command == "route") return CmdRoute(args, unblocked);
  return Usage();
}
