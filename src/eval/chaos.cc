#include "eval/chaos.h"

#include <errno.h>
#include <signal.h>
#include <sys/stat.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstring>
#include <map>
#include <set>
#include <thread>

#include "common/random.h"
#include "common/strings.h"
#include "common/trace.h"
#include "eval/experiment.h"

namespace dbsherlock::eval {

namespace {

using common::Result;
using common::Status;

constexpr int kWireRetries = 50;
constexpr auto kWireRetryPause = std::chrono::milliseconds(20);

Status EnsureDir(const std::string& path) {
  if (::mkdir(path.c_str(), 0755) == 0 || errno == EEXIST) {
    return Status::OK();
  }
  return Status::IoError("mkdir " + path + ": " + std::strerror(errno));
}

/// Timestamp identity that survives a CSV round-trip (micro-second grid).
int64_t TsKey(double ts) { return std::llround(ts * 1e6); }

/// Runs `call` (a Status or Result over `client`) up to kWireRetries times,
/// reconnecting and pausing after each failure: under an aggressive fault
/// schedule any request may eat an injected reset. Returns the last
/// outcome.
template <typename Call>
auto RetryOnWire(service::Client& client, Call call) -> decltype(call()) {
  auto outcome = call();
  for (int attempt = 1; attempt < kWireRetries && !outcome.ok(); ++attempt) {
    (void)client.Reconnect();
    std::this_thread::sleep_for(kWireRetryPause);
    outcome = call();
  }
  return outcome;
}

}  // namespace

DaemonProcess::~DaemonProcess() {
  if (pid_ > 0) Kill9();
  if (out_ != nullptr) std::fclose(out_);
}

void DaemonProcess::Reap(int signal) {
  if (pid_ <= 0) return;
  ::kill(pid_, signal);
  ::waitpid(pid_, nullptr, 0);
  pid_ = -1;
  if (out_ != nullptr) {
    std::fclose(out_);
    out_ = nullptr;
  }
}

Status DaemonProcess::Start(const Options& options) {
  if (pid_ > 0) {
    return Status::FailedPrecondition("daemon already running");
  }
  if (out_ != nullptr) {
    std::fclose(out_);
    out_ = nullptr;
  }
  int fds[2];
  if (::pipe(fds) != 0) {
    return Status::IoError(std::string("pipe: ") + std::strerror(errno));
  }
  pid_ = ::fork();
  if (pid_ < 0) {
    ::close(fds[0]);
    ::close(fds[1]);
    pid_ = -1;
    return Status::IoError(std::string("fork: ") + std::strerror(errno));
  }
  if (pid_ == 0) {
    // Child: stdout -> pipe (the LISTENING handshake); stderr inherited
    // so daemon logs interleave with the harness's output.
    ::dup2(fds[1], STDOUT_FILENO);
    ::close(fds[0]);
    ::close(fds[1]);
    std::vector<const char*> argv = {options.binary.c_str(),
                                     options.command.c_str()};
    for (const std::string& arg : options.args) argv.push_back(arg.c_str());
    argv.push_back(nullptr);
    ::execv(options.binary.c_str(), const_cast<char* const*>(argv.data()));
    _exit(127);
  }
  ::close(fds[1]);
  out_ = ::fdopen(fds[0], "r");
  if (out_ == nullptr) {
    Kill9();
    return Status::IoError("fdopen on the daemon stdout pipe failed");
  }
  char line[256];
  while (std::fgets(line, sizeof(line), out_) != nullptr) {
    if (std::sscanf(line, "LISTENING %d", &port_) == 1) return Status::OK();
  }
  Kill9();
  return Status::IoError("daemon exited before LISTENING: " + options.binary);
}

void DaemonProcess::Kill9() { Reap(SIGKILL); }

Result<int> DaemonProcess::Terminate() {
  if (pid_ <= 0) {
    return Status::FailedPrecondition("daemon not running");
  }
  ::kill(pid_, SIGTERM);
  int status = 0;
  ::waitpid(pid_, &status, 0);
  pid_ = -1;
  if (out_ != nullptr) {
    std::fclose(out_);
    out_ = nullptr;
  }
  // A signal death maps onto the shell's 128+N convention so the caller's
  // `exit_code == 0` assertion still fails loudly.
  return WIFEXITED(status) ? WEXITSTATUS(status) : 128 + WTERMSIG(status);
}

ChaosOptions::ChaosOptions() {
  gen.seed = 20260808;
  // Crash recovery pauses can outlast one RETRY_AFTER budget; the chaos
  // writer is patient by default.
  retry.max_retries = 100000;
  retry.backoff_budget_ms = 60000;
}

common::JsonValue ChaosResult::ToJson() const {
  common::JsonValue::Object out;
  out["ok"] = ok;
  out["seed"] = static_cast<double>(seed);
  out["fault_schedule"] = fault_schedule;
  out["kills"] = static_cast<double>(kills);
  out["wall_sec"] = wall_sec;
  out["rows_acked"] = static_cast<double>(rows_acked);
  out["resent_rows"] = static_cast<double>(resent_rows);
  out["retries"] = static_cast<double>(retries);
  out["reconnects"] = static_cast<double>(reconnects);
  out["shed_rate"] = shed_rate;
  out["models_taught"] = static_cast<double>(models_taught);
  out["models_recovered"] = static_cast<double>(models_recovered);
  out["health_state"] = health_state;
  out["daemon_exit_code"] = static_cast<double>(daemon_exit_code);
  common::JsonValue::Array recovery;
  for (double ms : recovery_ms) recovery.push_back(ms);
  out["recovery_ms"] = common::JsonValue(std::move(recovery));
  common::JsonValue::Array bad;
  for (const std::string& v : violations) bad.push_back(v);
  out["violations"] = common::JsonValue(std::move(bad));
  common::JsonValue::Array tenant_rows;
  for (const ChaosTenantOutcome& t : tenants) {
    common::JsonValue::Object row;
    row["tenant"] = t.tenant;
    row["expected_cause"] = t.expected_cause;
    row["top_cause"] = t.top_cause;
    row["top1_correct"] = t.top1_correct;
    row["rows_sent"] = static_cast<double>(t.rows_sent);
    row["resent_rows"] = static_cast<double>(t.resent_rows);
    row["retries"] = static_cast<double>(t.retries);
    row["reconnects"] = static_cast<double>(t.reconnects);
    row["exactly_once"] = t.exactly_once;
    row["missing_ts"] = static_cast<double>(t.missing_ts);
    row["duplicate_ts"] = static_cast<double>(t.duplicate_ts);
    tenant_rows.push_back(common::JsonValue(std::move(row)));
  }
  out["tenants"] = common::JsonValue(std::move(tenant_rows));
  return common::JsonValue(std::move(out));
}

Result<ChaosResult> RunChaosEpisode(const ChaosOptions& options) {
  TRACE_SPAN("eval.chaos");
  if (options.daemon_path.empty() || options.work_dir.empty()) {
    return Status::InvalidArgument("chaos needs daemon_path and work_dir");
  }
  const std::vector<simulator::AnomalyKind>& all =
      options.kinds.empty() ? simulator::AllAnomalyKinds() : options.kinds;
  if (all.empty() || options.num_tenants == 0) {
    return Status::InvalidArgument("chaos needs tenants and anomaly kinds");
  }
  DBSHERLOCK_RETURN_NOT_OK(EnsureDir(options.work_dir));
  std::string wal_dir = options.work_dir + "/wal";
  std::string store_dir = options.work_dir + "/store";
  DBSHERLOCK_RETURN_NOT_OK(EnsureDir(wal_dir));
  DBSHERLOCK_RETURN_NOT_OK(EnsureDir(store_dir));

  // Per-tenant streams plus offline-trained models for the distinct
  // classes; the default explainer options match the daemon's.
  TenantWorkload workload = PlanTenants(
      all, options.num_tenants, options.gen, options.anomaly_duration_sec,
      options.anomaly_magnitude, options.train_sets_per_cause, {});
  const std::vector<TenantPlan>& plans = workload.tenants;
  const std::vector<core::CausalModel>& taught = workload.models;

  DaemonProcess daemon;
  DaemonProcess::Options dopts;
  dopts.binary = options.daemon_path;
  dopts.args = {"--port",
                "0",
                "--wal-dir",
                wal_dir,
                "--store-dir",
                store_dir,
                "--seal-rows",
                std::to_string(options.seal_rows),
                "--queue-capacity",
                std::to_string(options.queue_capacity),
                "--retry-after-ms",
                "5",
                // The episode diagnoses retrospectively (DIAGNOSE_RANGE);
                // online detection would only add nondeterministic load.
                "--warmup-rows",
                "1000000000"};
  if (!options.fault_schedule.empty()) {
    dopts.args.push_back("--fault-schedule");
    dopts.args.push_back(options.fault_schedule);
  }

  double episode_start = common::Tracer::NowMicros();
  DBSHERLOCK_RETURN_NOT_OK(daemon.Start(dopts));

  ChaosResult result;
  result.seed = options.seed;
  result.fault_schedule = options.fault_schedule;

  service::Client::Options copts;
  copts.connect_timeout_ms = options.connect_timeout_ms;
  copts.deadline_ms = options.deadline_ms;

  // Teach over the wire, patiently: under an aggressive schedule a TEACH
  // may see resets before one lands. Only acked teaches are counted — the
  // durability invariant covers exactly those.
  {
    auto teacher =
        service::Client::Connect("127.0.0.1", daemon.port(), copts);
    if (!teacher.ok()) return teacher.status();
    for (const core::CausalModel& model : taught) {
      DBSHERLOCK_RETURN_NOT_OK(RetryOnWire(
          **teacher, [&] { return (*teacher)->Teach(model); }));
      ++result.models_taught;
    }
    (void)(*teacher)->Quit();
  }

  struct TenantState {
    const TenantPlan* plan = nullptr;
    size_t cursor = 0;       // next dataset row to send
    uint64_t next_seq = 1;   // idempotency sequence, fresh per attempt row
    std::unique_ptr<service::Client> client;
    ChaosTenantOutcome out;
  };
  std::vector<TenantState> states(plans.size());
  size_t total_rows = 0;
  for (size_t i = 0; i < plans.size(); ++i) {
    states[i].plan = &plans[i];
    states[i].out.tenant = plans[i].name;
    states[i].out.expected_cause = plans[i].cause;
    total_rows += plans[i].data.data.num_rows();
  }

  // (Re)connect one tenant; on resume, rewind the cursor to the first row
  // strictly after the durable high-water mark — everything past it died
  // with the unsealed tail and must be resent.
  auto connect_tenant = [&](TenantState& state, bool resume) -> Status {
    Status last_error;
    for (int attempt = 0; attempt < kWireRetries; ++attempt) {
      auto client =
          service::Client::Connect("127.0.0.1", daemon.port(), copts);
      if (!client.ok()) {
        last_error = client.status();
        std::this_thread::sleep_for(kWireRetryPause);
        continue;
      }
      auto last = (*client)->HelloResume(state.plan->name,
                                         state.plan->data.data.schema());
      if (!last.ok()) {
        last_error = last.status();
        std::this_thread::sleep_for(kWireRetryPause);
        continue;
      }
      state.client = std::move(*client);
      if (resume) {
        size_t rewound = 0;
        if (last->has_value()) {
          const tsdata::Dataset& data = state.plan->data.data;
          while (rewound < state.cursor &&
                 data.timestamp(rewound) <= **last) {
            ++rewound;
          }
        }
        state.out.resent_rows += state.cursor - rewound;
        state.cursor = rewound;
      }
      return Status::OK();
    }
    return last_error;
  };
  for (TenantState& state : states) {
    DBSHERLOCK_RETURN_NOT_OK(connect_tenant(state, /*resume=*/false));
  }

  // kill -9 points: roughly evenly spread over the stream, jittered so
  // different seeds crash at different seal/queue phases.
  common::Pcg32 rng(options.seed, 91);
  std::vector<size_t> kill_at;
  for (size_t k = 0; k < options.kills; ++k) {
    double base = static_cast<double>(total_rows) *
                  static_cast<double>(k + 1) /
                  static_cast<double>(options.kills + 1);
    double span = static_cast<double>(total_rows) /
                  (4.0 * static_cast<double>(options.kills + 1));
    double jitter = (rng.NextDouble() * 2.0 - 1.0) * span;
    kill_at.push_back(static_cast<size_t>(std::max(1.0, base + jitter)));
  }
  std::sort(kill_at.begin(), kill_at.end());

  service::RetryPolicy policy = options.retry;
  policy.seed = options.seed;

  size_t appends = 0;
  size_t next_kill = 0;
  bool pending_recovery = false;
  double recovery_t0 = 0.0;
  bool progress = true;
  while (progress) {
    progress = false;
    for (TenantState& state : states) {
      const tsdata::Dataset& data = state.plan->data.data;
      if (state.cursor >= data.num_rows()) continue;
      progress = true;
      if (next_kill < kill_at.size() && appends >= kill_at[next_kill]) {
        ++next_kill;
        ++result.kills;
        daemon.Kill9();
        recovery_t0 = common::Tracer::NowMicros();
        DBSHERLOCK_RETURN_NOT_OK(daemon.Start(dopts));
        for (TenantState& other : states) {
          DBSHERLOCK_RETURN_NOT_OK(connect_tenant(other, /*resume=*/true));
        }
        pending_recovery = true;
      }
      double ts = data.timestamp(state.cursor);
      std::vector<tsdata::Cell> cells;
      data.RowCells(state.cursor, &cells);
      DBSHERLOCK_RETURN_NOT_OK(state.client->AppendSeqRetrying(
          state.plan->name, state.next_seq++, ts, cells, policy,
          &state.out.retries, &state.out.reconnects));
      ++state.cursor;
      ++appends;
      if (pending_recovery) {
        result.recovery_ms.push_back(
            (common::Tracer::NowMicros() - recovery_t0) / 1000.0);
        pending_recovery = false;
      }
    }
  }

  // --- Verification ---------------------------------------------------
  auto note = [&result](std::string violation) {
    result.violations.push_back(std::move(violation));
  };

  for (TenantState& state : states) {
    const std::string& name = state.plan->name;
    const tsdata::Dataset& data = state.plan->data.data;
    state.out.rows_sent = data.num_rows();

    // Flush pushes every acked row out of the ingest queue into the
    // history store so the exactly-once scan below sees all of them.
    service::Client& client = *state.client;
    Status flushed = RetryOnWire(client, [&] { return client.Flush(name); });
    if (!flushed.ok()) {
      note("flush failed for " + name + ": " + flushed.ToString());
      continue;
    }

    auto rows =
        RetryOnWire(client, [&] { return client.Query(name, -1e18, 1e18); });
    if (!rows.ok()) {
      note("query failed for " + name + ": " + rows.status().ToString());
      continue;
    }
    auto csv = rows->GetString("csv");
    if (!csv.ok()) {
      note("query response for " + name + " lacks csv");
      continue;
    }
    // Count stored timestamps (first CSV column, header skipped).
    std::map<int64_t, size_t> stored;
    size_t pos = csv->find('\n');  // skip the header line
    while (pos != std::string::npos && pos + 1 < csv->size()) {
      size_t end = csv->find('\n', pos + 1);
      std::string line = csv->substr(
          pos + 1,
          (end == std::string::npos ? csv->size() : end) - pos - 1);
      pos = end;
      if (line.empty()) continue;
      auto ts = common::ParseDouble(line.substr(0, line.find(',')));
      if (!ts.ok()) {
        note("unparseable timestamp in " + name + " history: " + line);
        break;
      }
      ++stored[TsKey(*ts)];
    }
    std::set<int64_t> expected;
    for (size_t i = 0; i < data.num_rows(); ++i) {
      expected.insert(TsKey(data.timestamp(i)));
    }
    for (int64_t key : expected) {
      auto it = stored.find(key);
      if (it == stored.end()) {
        ++state.out.missing_ts;
      } else if (it->second > 1) {
        ++state.out.duplicate_ts;
      }
    }
    for (const auto& [key, count] : stored) {
      if (!expected.contains(key)) ++state.out.duplicate_ts;
    }
    state.out.exactly_once =
        state.out.missing_ts == 0 && state.out.duplicate_ts == 0;
    if (!state.out.exactly_once) {
      note(common::StrFormat(
          "%s: acked rows not stored exactly once (%zu missing, %zu "
          "duplicated)",
          name.c_str(), state.out.missing_ts, state.out.duplicate_ts));
    }

    if (options.diagnose &&
        !state.plan->data.regions.abnormal.ranges().empty()) {
      const tsdata::TimeRange& truth =
          state.plan->data.regions.abnormal.ranges().front();
      auto diagnosis = RetryOnWire(client, [&] {
        return client.DiagnoseRange(name, truth.start, truth.end);
      });
      if (!diagnosis.ok()) {
        note("diagnose_range failed for " + name + ": " +
             diagnosis.status().ToString());
      } else {
        auto causes = diagnosis->GetArray("causes");
        if (causes.ok() && !(*causes)->as_array().empty()) {
          auto top = (*causes)->as_array().front().GetString("cause");
          if (top.ok()) {
            state.out.top_cause = *top;
            state.out.top1_correct = (*top == state.plan->cause);
          }
        }
        if (!state.out.top1_correct) {
          note(name + ": expected top-1 cause " + state.plan->cause +
               ", got " +
               (state.out.top_cause.empty() ? "<none>"
                                            : state.out.top_cause));
        }
      }
    }
  }

  // Acked models must have survived every crash.
  {
    // The fault schedule outlives the stream, so even the verification
    // reads can eat an injected reset — retry them like every other call.
    service::Client& client = *states.front().client;
    auto models = RetryOnWire(client, [&] { return client.Models(); });
    if (!models.ok()) {
      note("MODELS failed: " + models.status().ToString());
    } else {
      std::set<std::string> recovered;
      auto list = models->GetArray("models");
      if (list.ok()) {
        for (const common::JsonValue& entry : (*list)->as_array()) {
          auto cause = entry.GetString("cause");
          if (cause.ok()) recovered.insert(*cause);
        }
      }
      std::set<std::string> taught_causes;
      for (const core::CausalModel& model : taught) {
        taught_causes.insert(model.cause);
      }
      for (const std::string& cause : taught_causes) {
        if (recovered.contains(cause)) {
          ++result.models_recovered;
        } else {
          note("taught model lost across restart: " + cause);
        }
      }
    }
    auto health = RetryOnWire(client, [&] { return client.Health(); });
    if (health.ok()) {
      auto health_state = health->GetString("state");
      if (health_state.ok()) result.health_state = *health_state;
    }
    for (TenantState& state : states) (void)state.client->Quit();
  }

  auto exit_code = daemon.Terminate();
  if (!exit_code.ok()) {
    note("terminate failed: " + exit_code.status().ToString());
  } else {
    result.daemon_exit_code = *exit_code;
    if (*exit_code != 0) {
      note(common::StrFormat("daemon exited uncleanly with code %d",
                             *exit_code));
    }
  }

  for (TenantState& state : states) {
    result.rows_acked += state.out.rows_sent;
    result.resent_rows += state.out.resent_rows;
    result.retries += state.out.retries;
    result.reconnects += state.out.reconnects;
    result.tenants.push_back(std::move(state.out));
  }
  uint64_t attempts =
      result.rows_acked + result.resent_rows + result.retries;
  result.shed_rate =
      attempts > 0
          ? static_cast<double>(result.retries) /
                static_cast<double>(attempts)
          : 0.0;
  result.wall_sec =
      (common::Tracer::NowMicros() - episode_start) / 1e6;
  result.ok = result.violations.empty();
  return result;
}

}  // namespace dbsherlock::eval
