// Daemon integration tests: boots a real `dbsherlockd serve` subprocess
// on an ephemeral port (parsing the "LISTENING <port>" handshake from its
// stdout), drives it with the real `dbsherlock client` subcommand, and
// checks clean SIGTERM shutdown plus WAL recovery across a restart.

#include <gtest/gtest.h>

#include <unistd.h>

#include <fstream>
#include <string>
#include <vector>

#include "eval/chaos.h"
#include "run_command.h"

namespace {

RunResult RunClient(const std::string& args) {
  return RunCommand(std::string(DBSHERLOCK_CLI_PATH) + " client " + args);
}

/// Starts `dbsherlockd serve --port 0 --wal-dir <wal_dir> <extra_args>`
/// and waits for its LISTENING handshake.
testing::AssertionResult StartDaemon(
    dbsherlock::eval::DaemonProcess* daemon, const std::string& wal_dir,
    const std::vector<std::string>& extra_args = {}) {
  std::vector<std::string> args = {"--port", "0", "--wal-dir", wal_dir};
  args.insert(args.end(), extra_args.begin(), extra_args.end());
  dbsherlock::common::Status started =
      daemon->Start({DBSHERLOCK_DAEMON_PATH, "serve", std::move(args)});
  if (started.ok()) return testing::AssertionSuccess();
  return testing::AssertionFailure() << started.ToString();
}

std::string WalDir() {
  return testing::TempDir() + "/dbsherlockd_cli_" + std::to_string(getpid());
}

TEST(ServiceCliTest, DaemonWithoutArgsPrintsUsage) {
  RunResult r = RunCommand(std::string(DBSHERLOCK_DAEMON_PATH));
  EXPECT_EQ(r.exit_code, 2);
  EXPECT_NE(r.output.find("usage:"), std::string::npos);
}

TEST(ServiceCliTest, ClientWithoutDaemonFailsWithIoError) {
  // Port 1 is never listening; the exit code is the CLI's kIoError slot.
  RunResult r = RunClient("--connect 127.0.0.1:1 --ping");
  EXPECT_EQ(r.exit_code, 7);
}

TEST(ServiceCliTest, ServeIngestTeachStatsAndCleanShutdown) {
  dbsherlock::eval::DaemonProcess daemon;
  ASSERT_TRUE(StartDaemon(&daemon, WalDir()));
  std::string connect =
      "--connect 127.0.0.1:" + std::to_string(daemon.port());

  RunResult ping = RunClient(connect + " --ping");
  EXPECT_EQ(ping.exit_code, 0) << ping.output;
  EXPECT_NE(ping.output.find("pong"), std::string::npos);

  EXPECT_EQ(RunClient(connect + " --raw 'HELLO t0 cpu:num'").exit_code, 0);
  RunResult append = RunClient(connect + " --raw 'APPEND t0 1 5'");
  EXPECT_EQ(append.exit_code, 0) << append.output;
  EXPECT_NE(append.output.find("OK 1"), std::string::npos);

  RunResult teach = RunClient(
      connect +
      " --raw 'TEACH {\"cause\":\"Test\",\"predicates\":"
      "[{\"attribute\":\"cpu\",\"type\":\"gt\",\"low\":3}]}'");
  EXPECT_EQ(teach.exit_code, 0) << teach.output;

  RunResult stats = RunClient(connect + " --stats");
  EXPECT_EQ(stats.exit_code, 0) << stats.output;
  EXPECT_NE(stats.output.find("\"acked\""), std::string::npos);
  EXPECT_NE(stats.output.find("\"store\""), std::string::npos);

  // A malformed line comes back as a server ERR, which the client maps
  // onto the CLI's per-StatusCode exit codes (3 = invalid argument).
  RunResult bad = RunClient(connect + " --raw 'FROB x'");
  EXPECT_EQ(bad.exit_code, 3) << bad.output;
  EXPECT_NE(bad.output.find("error"), std::string::npos);

  EXPECT_EQ(daemon.Terminate().ValueOr(-1), 0);  // SIGTERM drains and exits 0
}

/// Writes a tiny telemetry CSV (one `cpu` column, rows t = 0..rows-1).
std::string WriteCsv(const std::string& name, int rows) {
  std::string path = testing::TempDir() + "/dbsherlockd_cli_" +
                     std::to_string(getpid()) + "_" + name + ".csv";
  std::ofstream f(path);
  f << "timestamp,cpu\n";
  for (int t = 0; t < rows; ++t) f << t << "," << (40 + t % 5) << "\n";
  return path;
}

TEST(ServiceCliTest, QueryAndStoreInspectOverTheHistoryStore) {
  std::string root = WalDir() + "_hist";
  (void)RunCommand("rm -rf '" + root + "' && mkdir -p '" + root + "'");
  dbsherlock::eval::DaemonProcess daemon;
  ASSERT_TRUE(StartDaemon(&daemon, root + "/wal",
                           {"--store-dir", root + "/store", "--seal-rows",
                            "10"}));
  std::string connect =
      "--connect 127.0.0.1:" + std::to_string(daemon.port());
  std::string csv = WriteCsv("query", 25);
  RunResult append =
      RunClient(connect + " --append-csv " + csv + " --tenant t0");
  ASSERT_EQ(append.exit_code, 0) << append.output;
  EXPECT_NE(append.output.find("appended 25 row(s)"), std::string::npos);
  ASSERT_EQ(RunClient(connect + " --flush --tenant t0").exit_code, 0);

  RunResult query =
      RunClient(connect + " --query 5:15 --tenant t0 --csv-out");
  EXPECT_EQ(query.exit_code, 0) << query.output;
  EXPECT_NE(query.output.find("timestamp,cpu"), std::string::npos);
  EXPECT_NE(query.output.find("\n5,40"), std::string::npos);
  EXPECT_NE(query.output.find("\n14,44"), std::string::npos);
  EXPECT_EQ(query.output.find("\n15,"), std::string::npos);

  EXPECT_EQ(daemon.Terminate().ValueOr(-1), 0);
  // store-inspect reads the sealed segments straight off disk (the clean
  // shutdown sealed the 5-row active tail too).
  RunResult inspect = RunCommand(std::string(DBSHERLOCK_CLI_PATH) +
                                 " store-inspect --dir " + root +
                                 "/store/t0");
  EXPECT_EQ(inspect.exit_code, 0) << inspect.output;
  EXPECT_NE(inspect.output.find("25 sealed row(s)"), std::string::npos);
  EXPECT_NE(inspect.output.find("cpu:num"), std::string::npos);
  RunResult dump = RunCommand(std::string(DBSHERLOCK_CLI_PATH) +
                              " store-inspect --dir " + root +
                              "/store/t0 --dump");
  EXPECT_EQ(dump.exit_code, 0) << dump.output;
  EXPECT_NE(dump.output.find("\n24,44"), std::string::npos);
}

TEST(ServiceCliTest, Kill9LosesAtMostTheUnsealedTail) {
  std::string root = WalDir() + "_kill9";
  (void)RunCommand("rm -rf '" + root + "' && mkdir -p '" + root + "'");
  std::vector<std::string> flags = {"--store-dir", root + "/store",
                                    "--seal-rows", "10"};
  {
    dbsherlock::eval::DaemonProcess daemon;
    ASSERT_TRUE(StartDaemon(&daemon, root + "/wal", flags));
    std::string connect =
        "--connect 127.0.0.1:" + std::to_string(daemon.port());
    std::string csv = WriteCsv("kill9", 37);
    ASSERT_EQ(
        RunClient(connect + " --append-csv " + csv + " --tenant t0")
            .exit_code,
        0);
    // Flush guarantees every acked row reached the store before the kill;
    // 30 rows are sealed (3 x 10), 7 sit in the active segment.
    ASSERT_EQ(RunClient(connect + " --flush --tenant t0").exit_code, 0);
    daemon.Kill9();
  }
  dbsherlock::eval::DaemonProcess daemon;
  ASSERT_TRUE(StartDaemon(&daemon, root + "/wal", flags));
  std::string connect =
      "--connect 127.0.0.1:" + std::to_string(daemon.port());
  // HELLO re-attaches the tenant to its on-disk history (and rehydrates
  // the monitor window from it).
  ASSERT_EQ(
      RunClient(connect + " --hello --tenant t0 --schema cpu:num").exit_code,
      0);
  RunResult query =
      RunClient(connect + " --query 0:1000 --tenant t0 --csv-out");
  EXPECT_EQ(query.exit_code, 0) << query.output;
  // Every sealed row survived; only the unsealed active tail is gone.
  EXPECT_NE(query.output.find("\n29,44"), std::string::npos);
  EXPECT_EQ(query.output.find("\n30,"), std::string::npos);
  // Ingest resumes where the sealed history ends: a duplicate of the
  // last sealed timestamp is dropped, the next one is accepted.
  RunResult stats = RunClient(connect + " --stats");
  EXPECT_NE(stats.output.find("\"sealed_rows\": 30"), std::string::npos)
      << stats.output;
  EXPECT_EQ(daemon.Terminate().ValueOr(-1), 0);
}

/// Telemetry CSV with an injected cpu plateau over [30, 45).
std::string WriteAnomalyCsv(const std::string& name) {
  std::string path = testing::TempDir() + "/dbsherlockd_cli_" +
                     std::to_string(getpid()) + "_" + name + ".csv";
  std::ofstream f(path);
  f << "timestamp,cpu\n";
  for (int t = 0; t < 60; ++t) {
    f << t << "," << ((t >= 30 && t < 45) ? 95 : 40 + t % 5) << "\n";
  }
  return path;
}

TEST(ServiceCliTest, ExplainQueryRendersIncidentReport) {
  std::string root = WalDir() + "_dql";
  (void)RunCommand("rm -rf '" + root + "' && mkdir -p '" + root + "'");
  dbsherlock::eval::DaemonProcess daemon;
  ASSERT_TRUE(StartDaemon(&daemon, root + "/wal",
                           {"--store-dir", root + "/store", "--seal-rows",
                            "10"}));
  std::string connect =
      "--connect 127.0.0.1:" + std::to_string(daemon.port());
  std::string csv = WriteAnomalyCsv("explain");
  ASSERT_EQ(RunClient(connect + " --append-csv " + csv + " --tenant t0")
                .exit_code,
            0);
  ASSERT_EQ(RunClient(connect + " --flush --tenant t0").exit_code, 0);
  RunResult teach = RunClient(
      connect +
      " --raw 'TEACH {\"cause\":\"CPU hog\",\"suggested_action\":"
      "\"throttle the batch job\",\"predicates\":"
      "[{\"attribute\":\"cpu\",\"type\":\"gt\",\"low\":70}]}'");
  ASSERT_EQ(teach.exit_code, 0) << teach.output;

  // Markdown report (the default --report md).
  RunResult md = RunClient(
      connect +
      " --explain 'EXPLAIN WHERE cpu > 70 BETWEEN 0 60 TOP 3'"
      " --tenant t0");
  EXPECT_EQ(md.exit_code, 0) << md.output;
  EXPECT_NE(md.output.find("# Incident report"), std::string::npos)
      << md.output;
  EXPECT_NE(md.output.find("CPU hog"), std::string::npos) << md.output;
  EXPECT_NE(md.output.find("throttle the batch job"), std::string::npos)
      << md.output;

  // JSON report carries the machine-readable finding.
  RunResult json = RunClient(
      connect +
      " --explain 'EXPLAIN WHERE cpu > 70 BETWEEN 0 60 TOP 3'"
      " --tenant t0 --report json");
  EXPECT_EQ(json.exit_code, 0) << json.output;
  EXPECT_NE(json.output.find("\"kind\": \"explain_where\""),
            std::string::npos)
      << json.output;
  EXPECT_NE(json.output.find("\"CPU hog\""), std::string::npos)
      << json.output;

  // A syntax error surfaces the server's caret diagnostic through the
  // client's error path with a non-zero exit.
  RunResult bad = RunClient(connect +
                            " --explain 'EXPLAIN WHERE cpu >' --tenant t0");
  EXPECT_NE(bad.exit_code, 0);
  EXPECT_NE(bad.output.find("^"), std::string::npos) << bad.output;

  EXPECT_EQ(daemon.Terminate().ValueOr(-1), 0);
}

TEST(ServiceCliTest, RestartedDaemonServesRecoveredModels) {
  std::string wal_dir = WalDir() + "_restart";
  {
    dbsherlock::eval::DaemonProcess daemon;
    ASSERT_TRUE(StartDaemon(&daemon, wal_dir));
    std::string connect =
        "--connect 127.0.0.1:" + std::to_string(daemon.port());
    RunResult teach = RunClient(
        connect +
        " --raw 'TEACH {\"cause\":\"Recovered\",\"predicates\":"
        "[{\"attribute\":\"cpu\",\"type\":\"gt\",\"low\":3}]}'");
    ASSERT_EQ(teach.exit_code, 0) << teach.output;
    ASSERT_EQ(daemon.Terminate().ValueOr(-1), 0);
  }
  dbsherlock::eval::DaemonProcess daemon;
  ASSERT_TRUE(StartDaemon(&daemon, wal_dir));
  RunResult models = RunClient(
      "--connect 127.0.0.1:" + std::to_string(daemon.port()) + " --models");
  EXPECT_EQ(models.exit_code, 0) << models.output;
  EXPECT_NE(models.output.find("Recovered"), std::string::npos);
  EXPECT_EQ(daemon.Terminate().ValueOr(-1), 0);
}

}  // namespace
