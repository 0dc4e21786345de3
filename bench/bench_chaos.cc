// Crash-chaos sweep for dbsherlockd (run_benchmarks.sh --chaos): runs a
// battery of seeded chaos episodes (eval/chaos.h) against the real daemon
// binary — kill -9 mid-stream, injected I/O faults (torn WAL appends,
// failed segment fsyncs), and injected network faults (connection resets)
// — and asserts the crash-safety contract on every one: zero acked-row
// loss, zero double-ingest, acked models durable, clean SIGTERM. Reports
// the recovery-time and shed-rate distributions across the sweep and
// writes them (with each episode's seed + fault schedule) to
// BENCH_chaos.json. Also measures the disabled-faultenv wrapper overhead
// against raw write(2) so "unmeasurable when off" stays an enforced
// property, not a promise.

#include <fcntl.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_util.h"
#include "common/faultenv.h"
#include "common/stats.h"
#include "eval/chaos.h"

#ifndef DBSHERLOCK_DAEMON_PATH
#define DBSHERLOCK_DAEMON_PATH "dbsherlockd"
#endif

namespace {

using namespace dbsherlock;

/// The fault dimensions the sweep rotates through; %llu is stamped with
/// the episode seed so every schedule is deterministic yet distinct.
const char* const kScheduleTemplates[] = {
    "",  // pure kill -9: crash recovery with a healthy disk and network
    "seed=%llu;srv.send=reset@0.02",
    "seed=%llu;seg.fsync=enospc@0.25,limit=4",
    "seed=%llu;wal.write=torn@0.5,limit=2",
    "seed=%llu;srv.send=reset@0.01;seg.fsync=enospc@0.2,limit=3;"
    "wal.write=torn@0.5,limit=2",
};

std::string ScheduleFor(size_t episode, uint64_t seed) {
  const char* tmpl =
      kScheduleTemplates[episode %
                         (sizeof(kScheduleTemplates) /
                          sizeof(kScheduleTemplates[0]))];
  char buf[256];
  std::snprintf(buf, sizeof(buf), tmpl,
                static_cast<unsigned long long>(seed));
  return buf;
}

common::JsonValue DistributionJson(const std::vector<double>& values) {
  common::JsonValue::Object out;
  out["count"] = static_cast<double>(values.size());
  if (!values.empty()) {
    out["mean"] = common::Mean(values);
    out["p50"] = common::Quantile(values, 0.50);
    out["p95"] = common::Quantile(values, 0.95);
    out["max"] = common::Max(values);
  }
  return common::JsonValue(std::move(out));
}

/// Times `rounds` small writes to /dev/null through the faultenv wrapper
/// (schedule disabled) vs raw write(2). Returns wrapper/raw; ~1.0 means
/// the disabled path costs one relaxed atomic load, as designed.
double DisabledOverheadRatio(int rounds) {
  int fd = ::open("/dev/null", O_WRONLY | O_CLOEXEC);
  if (fd < 0) return 0.0;
  common::faultenv::Clear();
  char byte = 'x';
  auto time_loop = [&](auto&& op) {
    auto t0 = std::chrono::steady_clock::now();
    for (int i = 0; i < rounds; ++i) op();
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         t0)
        .count();
  };
  // Warm both paths, then interleave to share any clock/cache drift.
  (void)time_loop([&] { (void)::write(fd, &byte, 1); });
  double raw = time_loop([&] { (void)::write(fd, &byte, 1); });
  double wrapped = time_loop(
      [&] { (void)common::faultenv::Write("bench.off", fd, &byte, 1); });
  ::close(fd);
  return raw > 0.0 ? wrapped / raw : 0.0;
}

int Main(int argc, char** argv) {
  bench::Flags flags(argc, argv);
  int64_t episodes = flags.Int("episodes", 25, "chaos episodes to run");
  int64_t seed = flags.Int("seed", 20260808, "base episode seed");
  int64_t tenants = flags.Int("tenants", 2, "tenants per episode");
  int64_t kills = flags.Int("kills", 1, "kill -9 events per episode");
  double normal_sec = flags.Double(
      "normal_sec", 90.0, "seconds of normal telemetry per tenant");
  double anomaly_sec =
      flags.Double("anomaly_sec", 30.0, "injected anomaly duration");
  std::string daemon = flags.String(
      "daemon", DBSHERLOCK_DAEMON_PATH, "dbsherlockd binary to crash");
  std::string work_root = flags.String(
      "work_root", "/tmp", "scratch root for per-episode wal/store dirs");
  std::string json_out = flags.String(
      "json_out", "", "write the report as JSON to this path");
  flags.Validate();

  bench::PrintBanner(
      "Chaos sweep", "dbsherlockd crash-safety",
      "Seeded kill -9 + fault-schedule episodes against the real daemon; "
      "exactly-once ingest, durable models, bounded recovery.");

  std::vector<double> recovery_ms;
  std::vector<double> shed_rates;
  std::vector<std::string> failures;
  common::JsonValue::Array episode_reports;
  uint64_t rows_acked = 0, resent = 0, retries = 0, reconnects = 0;
  size_t passed = 0;

  bench::TablePrinter table(
      {"Ep", "Seed", "Schedule", "Kills", "Recov ms", "Shed", "OK"},
      {4, 10, 44, 6, 10, 7, 4});
  table.PrintHeader();

  auto sweep_t0 = std::chrono::steady_clock::now();
  for (int64_t e = 0; e < episodes; ++e) {
    uint64_t episode_seed = static_cast<uint64_t>(seed) + 101 * e;
    eval::ChaosOptions options;
    options.daemon_path = daemon;
    options.work_dir = work_root + "/dbsherlock_chaos_bench_" +
                       std::to_string(::getpid()) + "_" +
                       std::to_string(e);
    options.seed = episode_seed;
    options.num_tenants = static_cast<size_t>(tenants);
    options.kills = static_cast<size_t>(kills);
    options.gen.seed = episode_seed * 2 + 1;
    options.gen.normal_duration_sec = normal_sec;
    options.anomaly_duration_sec = anomaly_sec;
    options.train_sets_per_cause = 1;
    options.seal_rows = 16;
    options.fault_schedule = ScheduleFor(static_cast<size_t>(e),
                                         episode_seed);

    auto result = eval::RunChaosEpisode(options);
    if (!result.ok()) {
      failures.push_back("episode " + std::to_string(e) + " harness: " +
                         result.status().ToString());
      table.PrintRow({std::to_string(e), std::to_string(episode_seed),
                      options.fault_schedule, "-", "-", "-", "ERR"});
      continue;
    }
    double worst_recovery = 0.0;
    for (double ms : result->recovery_ms) {
      recovery_ms.push_back(ms);
      worst_recovery = std::max(worst_recovery, ms);
    }
    shed_rates.push_back(result->shed_rate);
    rows_acked += result->rows_acked;
    resent += result->resent_rows;
    retries += result->retries;
    reconnects += result->reconnects;
    if (result->ok) {
      ++passed;
    } else {
      for (const std::string& v : result->violations) {
        failures.push_back("episode " + std::to_string(e) + ": " + v);
      }
    }
    table.PrintRow({std::to_string(e), std::to_string(episode_seed),
                    options.fault_schedule.empty()
                        ? "(kill -9 only)"
                        : options.fault_schedule,
                    std::to_string(result->kills),
                    bench::Num(worst_recovery, 1),
                    bench::Num(result->shed_rate, 4),
                    result->ok ? "yes" : "NO"});
    episode_reports.push_back(result->ToJson());
  }
  double wall_sec = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - sweep_t0)
                        .count();

  double overhead = DisabledOverheadRatio(200000);

  std::printf("\nepisodes %lld   passed %zu   acked rows %llu   resent "
              "%llu   retries %llu   reconnects %llu\n",
              static_cast<long long>(episodes), passed,
              static_cast<unsigned long long>(rows_acked),
              static_cast<unsigned long long>(resent),
              static_cast<unsigned long long>(retries),
              static_cast<unsigned long long>(reconnects));
  std::printf("recovery ms: p50 %.1f  p95 %.1f  max %.1f   shed rate: "
              "p50 %.4f  max %.4f\n",
              common::Quantile(recovery_ms, 0.5),
              common::Quantile(recovery_ms, 0.95), common::Max(recovery_ms),
              common::Quantile(shed_rates, 0.5), common::Max(shed_rates));
  std::printf("disabled faultenv overhead: %.3fx raw write(2)   wall %.1f "
              "s\n",
              overhead, wall_sec);
  for (const std::string& f : failures) {
    std::printf("VIOLATION %s\n", f.c_str());
  }

  if (!json_out.empty()) {
    common::JsonValue::Object report;
    report["episodes"] = static_cast<double>(episodes);
    report["passed"] = static_cast<double>(passed);
    report["base_seed"] = static_cast<double>(seed);
    report["rows_acked"] = static_cast<double>(rows_acked);
    report["resent_rows"] = static_cast<double>(resent);
    report["retries"] = static_cast<double>(retries);
    report["reconnects"] = static_cast<double>(reconnects);
    report["recovery_ms"] = DistributionJson(recovery_ms);
    report["shed_rate"] = DistributionJson(shed_rates);
    report["disabled_overhead_ratio"] = overhead;
    report["wall_sec"] = wall_sec;
    common::JsonValue::Array failure_list;
    for (const std::string& f : failures) failure_list.push_back(f);
    report["violations"] = common::JsonValue(std::move(failure_list));
    report["episode_reports"] = common::JsonValue(std::move(episode_reports));
    report["build_info"] = bench::BuildInfoJson();
    std::ofstream out(json_out);
    if (!out) {
      std::fprintf(stderr, "error: cannot write %s\n", json_out.c_str());
      return 1;
    }
    out << common::JsonValue(std::move(report)).Dump(2) << "\n";
    std::printf("wrote %s\n", json_out.c_str());
  }
  return failures.empty() && passed == static_cast<size_t>(episodes) ? 0
                                                                     : 1;
}

}  // namespace

int main(int argc, char** argv) { return Main(argc, argv); }
