// Fleet end-to-end: a real `dbsherlockd route` subprocess in front of
// real `dbsherlockd serve` shards. Covers the ISSUE's failure drill —
// kill -9 one shard mid-replay and require the idempotent resume
// protocol to land every row on the survivor — plus MODELSYNC
// convergence between peered shards, and the same kill drill under an
// injected short-I/O fault schedule.

#include <gtest/gtest.h>

#include <unistd.h>

#include <chrono>
#include <cstdlib>
#include <string>
#include <thread>
#include <vector>

#include "common/json.h"
#include "common/strings.h"
#include "eval/chaos.h"
#include "fleet/fleet_replay.h"
#include "fleet/hash_ring.h"
#include "service/client.h"
#include "tsdata/schema.h"

namespace dbsherlock::fleet {
namespace {

using eval::DaemonProcess;

std::string Addr(const DaemonProcess& daemon) {
  return common::StrFormat("127.0.0.1:%d", daemon.port());
}

DaemonProcess::Options ShardOptions(std::vector<std::string> extra = {}) {
  DaemonProcess::Options options;
  options.binary = DBSHERLOCK_DAEMON_PATH;
  options.command = "serve";
  options.args = {"--port", "0", "--max-tenants", "64",
                  "--max-connections", "64",
                  // Slow the drain so the kill below lands while every
                  // tenant is provably mid-stream (a fast machine would
                  // otherwise finish the whole replay first).
                  "--process-delay-us", "1000", "--queue-capacity", "4",
                  "--retry-after-ms", "5", "--ingest-workers", "2"};
  options.args.insert(options.args.end(), extra.begin(), extra.end());
  return options;
}

DaemonProcess::Options RouterOptions(const std::string& shards,
                                     std::vector<std::string> extra = {}) {
  DaemonProcess::Options options;
  options.binary = DBSHERLOCK_DAEMON_PATH;
  options.command = "route";
  options.args = {"--port", "0", "--shards", shards,
                  "--max-connections", "64",
                  // Fail over quickly: the drill wants the ERR surfaced to
                  // the writer, not three 5s connect timeouts per request.
                  "--upstream-deadline-ms", "2000", "--upstream-attempts",
                  "2", "--down-cooldown-ms", "500"};
  options.args.insert(options.args.end(), extra.begin(), extra.end());
  return options;
}

/// Streams `tenants`x`rows` through the router, kill -9s one shard once a
/// tenant it owns is provably mid-stream, and asserts that the replay
/// completes with zero failed rows and that the SURVIVOR holds every
/// tenant's full history (the resume protocol rewinds a moved tenant to
/// row 1, so rows acked by the dead shard are re-landed, not lost).
void RunKillDrill(const std::vector<std::string>& shard_extra_args) {
  DaemonProcess shard_a, shard_b;
  ASSERT_TRUE(shard_a.Start(ShardOptions(shard_extra_args)).ok());
  ASSERT_TRUE(shard_b.Start(ShardOptions(shard_extra_args)).ok());
  DaemonProcess router;
  ASSERT_TRUE(
      router.Start(RouterOptions(Addr(shard_a) + "," + Addr(shard_b))).ok());

  FleetReplayOptions replay_options;
  replay_options.port = router.port();
  // One worker per tenant: all tenants stream in lockstep, so at the
  // kill point every tenant is mid-replay and none has retired to the
  // doomed shard for good.
  replay_options.tenants = 16;
  replay_options.client_threads = 16;
  replay_options.rows_per_tenant = 300;
  replay_options.deadline_ms = 4000;

  // Shard names carry ephemeral ports, so the ring can leave one shard
  // only a few tenants. Kill the shard that owns at least half of them.
  HashRing ring({Addr(shard_a), Addr(shard_b)}, /*vnodes_per_shard=*/64);
  std::vector<std::string> on_a, on_b;
  for (size_t t = 0; t < replay_options.tenants; ++t) {
    std::string tenant = common::StrFormat("t%zu", t);
    (ring.ShardFor(tenant) == 0 ? on_a : on_b).push_back(tenant);
  }
  bool kill_a = 2 * on_a.size() >= replay_options.tenants;
  DaemonProcess& doomed = kill_a ? shard_a : shard_b;
  DaemonProcess& survivor = kill_a ? shard_b : shard_a;
  const std::vector<std::string>& doomed_tenants = kill_a ? on_a : on_b;

  common::Result<FleetReplayResult> result =
      common::Status::Internal("replay never ran");
  std::thread replay(
      [&] { result = RunFleetReplay(replay_options); });
  // Kill once the doomed shard's STATS show a tenant it owns mid-stream:
  // at least 30 rows acked and not yet all of them.
  bool mid_stream = false;
  auto watcher = service::Client::Connect("127.0.0.1", doomed.port());
  EXPECT_TRUE(watcher.ok()) << watcher.status().ToString();
  auto give_up = std::chrono::steady_clock::now() + std::chrono::seconds(30);
  while (watcher.ok() && !mid_stream &&
         std::chrono::steady_clock::now() < give_up) {
    auto stats = (*watcher)->Stats();
    const common::JsonValue* tenants =
        stats.ok() ? stats->Find("tenants") : nullptr;
    for (const std::string& tenant : doomed_tenants) {
      const common::JsonValue* entry =
          tenants == nullptr ? nullptr : tenants->Find(tenant);
      if (entry == nullptr) continue;
      double acked = entry->GetNumber("acked").ValueOr(0.0);
      if (acked >= 30.0 &&
          acked < static_cast<double>(replay_options.rows_per_tenant)) {
        mid_stream = true;
      }
    }
    if (!mid_stream) {
      std::this_thread::sleep_for(std::chrono::milliseconds(2));
    }
  }
  EXPECT_TRUE(mid_stream)
      << "no tenant on the doomed shard was mid-stream within 30 s";
  doomed.Kill9();
  replay.join();

  ASSERT_TRUE(result.ok()) << result.status().ToString();
  EXPECT_EQ(result->rows_failed, 0u);
  // Rewound rows ack once per send, so acks can exceed the row count —
  // but never undershoot it.
  EXPECT_GE(result->rows_acked,
            replay_options.tenants * replay_options.rows_per_tenant);
  EXPECT_GT(result->rehellos, 0u) << "no tenant ever failed over?";

  // Every tenant's complete history must now live on the survivor: after
  // a per-tenant FLUSH, the survivor has drained exactly `rows_per_tenant`
  // distinct rows for every tenant (seq replay-detection dedupes resends,
  // so an over-count here would mean double-ingest, an under-count a lost
  // acked row).
  auto client = service::Client::Connect("127.0.0.1", survivor.port());
  ASSERT_TRUE(client.ok()) << client.status().ToString();
  for (size_t t = 0; t < replay_options.tenants; ++t) {
    std::string tenant = common::StrFormat("t%zu", t);
    // A flush can race one last writer retry; settle, don't flake.
    common::Status flushed = common::Status::Internal("never ran");
    for (int attempt = 0; attempt < 5; ++attempt) {
      flushed = (*client)->Flush(tenant);
      if (flushed.ok()) break;
      std::this_thread::sleep_for(std::chrono::milliseconds(200));
    }
    ASSERT_TRUE(flushed.ok()) << tenant << ": " << flushed.ToString();
  }
  auto stats = (*client)->Stats();
  ASSERT_TRUE(stats.ok()) << stats.status().ToString();
  const common::JsonValue* tenants_json = stats->Find("tenants");
  ASSERT_NE(tenants_json, nullptr);
  for (size_t t = 0; t < replay_options.tenants; ++t) {
    std::string tenant = common::StrFormat("t%zu", t);
    const common::JsonValue* entry = tenants_json->Find(tenant);
    ASSERT_NE(entry, nullptr) << tenant << " missing from the survivor";
    EXPECT_EQ(entry->GetNumber("processed").ValueOr(-1),
              static_cast<double>(replay_options.rows_per_tenant))
        << tenant << " lost or double-ingested acked rows";
  }
  (void)(*client)->Quit();
}

TEST(FleetRouterE2eTest, ShardKillMidReplayLandsEveryRowOnSurvivor) {
  RunKillDrill({});
}

TEST(FleetRouterE2eTest, ShardKillDrillSurvivesShortIoFaultSchedule) {
  // Same drill with injected short reads/writes on every shard's socket
  // path: partial-I/O loops plus failover must still lose nothing.
  RunKillDrill({"--fault-schedule",
                "seed=13;srv.recv=short@0.05;srv.send=short@0.05"});
}

TEST(FleetRouterE2eTest, ModelSyncConvergesFromPeerShard) {
  DaemonProcess shard_a;
  ASSERT_TRUE(shard_a.Start(ShardOptions()).ok());
  // B pulls from A every 100ms.
  DaemonProcess shard_b;
  ASSERT_TRUE(shard_b
                  .Start(ShardOptions({"--peers", Addr(shard_a),
                                       "--modelsync-interval-ms", "100"}))
                  .ok());

  core::CausalModel model;
  model.cause = "Network Contention";
  model.suggested_action = "move the backup window";
  model.predicates = {core::Predicate{
      "m0", core::PredicateType::kGreaterThan, 42.0, 0.0, {}}};

  auto teach = service::Client::Connect("127.0.0.1", shard_a.port());
  ASSERT_TRUE(teach.ok()) << teach.status().ToString();
  ASSERT_TRUE((*teach)->Teach(model).ok());
  (void)(*teach)->Quit();

  // The taught model replicates to B without B ever being told directly.
  auto reader = service::Client::Connect("127.0.0.1", shard_b.port());
  ASSERT_TRUE(reader.ok()) << reader.status().ToString();
  bool converged = false;
  for (int attempt = 0; attempt < 100 && !converged; ++attempt) {
    auto models = (*reader)->Models();
    ASSERT_TRUE(models.ok()) << models.status().ToString();
    converged = models->Dump().find("Network Contention") != std::string::npos;
    if (!converged) {
      std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
  }
  EXPECT_TRUE(converged) << "MODELSYNC never replicated the taught model";
  (void)(*reader)->Quit();
}

std::string ShardStoreDir(const std::string& name) {
  std::string dir = common::StrFormat("%s/dbsherlock_fleet_dql_%d_%s",
                                      testing::TempDir().c_str(),
                                      static_cast<int>(getpid()),
                                      name.c_str());
  std::string cmd = "rm -rf '" + dir + "'";
  (void)std::system(cmd.c_str());
  return dir;
}

TEST(FleetRouterE2eTest, ExplainQueryRoutesToOwningShard) {
  // Shards need a history store for DQL discovery scans; small seal
  // batches so the BETWEEN scan has real segments to prune.
  DaemonProcess shard_a, shard_b;
  ASSERT_TRUE(shard_a
                  .Start(ShardOptions({"--store-dir", ShardStoreDir("a"),
                                       "--seal-rows", "32"}))
                  .ok());
  ASSERT_TRUE(shard_b
                  .Start(ShardOptions({"--store-dir", ShardStoreDir("b"),
                                       "--seal-rows", "32"}))
                  .ok());
  DaemonProcess router;
  ASSERT_TRUE(
      router.Start(RouterOptions(Addr(shard_a) + "," + Addr(shard_b))).ok());

  // Shard names carry ephemeral ports, so fixed tenant names can all land
  // on one shard. Place the candidates on the router's own ring (same
  // addresses, its default 64 vnodes) and take the first three each shard
  // owns.
  HashRing ring({Addr(shard_a), Addr(shard_b)}, /*vnodes_per_shard=*/64);
  const std::vector<std::string> candidates = {
      "alpha",  "bravo",   "charlie", "delta",  "echo",    "foxtrot",
      "golf",   "hotel",   "india",   "juliet", "kilo",    "lima",
      "mike",   "november", "oscar",  "papa",   "quebec",  "romeo",
      "sierra", "tango",   "uniform", "victor", "whiskey", "xray",
      "yankee", "zulu"};
  std::vector<std::string> tenants;
  size_t picked[2] = {0, 0};
  for (const std::string& name : candidates) {
    size_t owner = ring.ShardFor(name);
    if (picked[owner] < 3) {
      ++picked[owner];
      tenants.push_back(name);
    }
  }
  ASSERT_EQ(tenants.size(), 6u) << "a shard owns fewer than 3 candidates";

  tsdata::Schema schema({{"latency", tsdata::AttributeKind::kNumeric},
                         {"cpu", tsdata::AttributeKind::kNumeric}});
  auto via_router = service::Client::Connect("127.0.0.1", router.port());
  ASSERT_TRUE(via_router.ok()) << via_router.status().ToString();
  for (const std::string& tenant : tenants) {
    ASSERT_TRUE((*via_router)->Hello(tenant, schema).ok()) << tenant;
    for (int i = 0; i < 240; ++i) {
      bool anomalous = i >= 120 && i < 180;
      double latency = anomalous ? 90.0 : 10.0;
      double cpu = anomalous ? 95.0 : 40.0;
      ASSERT_TRUE((*via_router)
                      ->AppendRetrying(tenant, static_cast<double>(i),
                                       {latency, cpu})
                      .ok())
          << tenant << " row " << i;
    }
    ASSERT_TRUE((*via_router)->Flush(tenant).ok()) << tenant;
  }

  // The same DQL statement through the router must come back with the
  // injected region for every tenant, regardless of which shard owns it.
  const std::string statement = "EXPLAIN WHERE latency > 50 BETWEEN 0 240";
  for (const std::string& tenant : tenants) {
    auto report = (*via_router)->Explain(tenant, statement);
    ASSERT_TRUE(report.ok()) << tenant << ": " << report.status().ToString();
    EXPECT_EQ(report->GetString("tenant").ValueOr(""), tenant);
    const common::JsonValue* discovery = report->Find("discovery");
    ASSERT_NE(discovery, nullptr) << tenant;
    EXPECT_EQ(discovery->GetNumber("matched_rows").ValueOr(-1), 60.0)
        << tenant;
    auto findings = report->GetArray("findings");
    ASSERT_TRUE(findings.ok()) << tenant;
    ASSERT_FALSE((*findings)->as_array().empty()) << tenant;
    const common::JsonValue& finding = (*findings)->as_array().front();
    const common::JsonValue* region = finding.Find("region");
    ASSERT_NE(region, nullptr) << tenant;
    double start = region->GetNumber("start").ValueOr(-1);
    double end = region->GetNumber("end").ValueOr(-1);
    EXPECT_LT(start, 180.0) << tenant;
    EXPECT_GT(end, 120.0) << tenant;
  }

  // Placement proof: each tenant's history lives on exactly one shard, so
  // the same EXPLAINQ sent directly must succeed on the owner and fail
  // NotFound on the other — yet every tenant answered via the router.
  auto direct_a = service::Client::Connect("127.0.0.1", shard_a.port());
  auto direct_b = service::Client::Connect("127.0.0.1", shard_b.port());
  ASSERT_TRUE(direct_a.ok()) << direct_a.status().ToString();
  ASSERT_TRUE(direct_b.ok()) << direct_b.status().ToString();
  size_t owned_a = 0, owned_b = 0;
  for (const std::string& tenant : tenants) {
    bool on_a = (*direct_a)->Explain(tenant, statement).ok();
    bool on_b = (*direct_b)->Explain(tenant, statement).ok();
    EXPECT_NE(on_a, on_b)
        << tenant << " should live on exactly one shard (a=" << on_a
        << " b=" << on_b << ")";
    owned_a += on_a ? 1 : 0;
    owned_b += on_b ? 1 : 0;
  }
  // The router placed every tenant where the ring above said it would.
  EXPECT_EQ(owned_a, 3u);
  EXPECT_EQ(owned_b, 3u);
  (void)(*direct_a)->Quit();
  (void)(*direct_b)->Quit();
  (void)(*via_router)->Quit();
}

}  // namespace
}  // namespace dbsherlock::fleet
