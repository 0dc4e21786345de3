#ifndef DBSHERLOCK_SERVICE_CLIENT_H_
#define DBSHERLOCK_SERVICE_CLIENT_H_

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "common/json.h"
#include "common/status.h"
#include "service/wire.h"

namespace dbsherlock::service {

/// How an AppendRetrying/AppendSeqRetrying loop paces its resends. The
/// server's RETRY_AFTER hint seeds each sleep; repeats grow it
/// geometrically, jitter de-synchronizes client herds (every shed client
/// sleeping exactly the advertised delay retries in lockstep and collides
/// again), and the budget bounds how long one row may stall the caller.
struct RetryPolicy {
  int max_retries = 1000;
  /// Each sleep is scaled by a uniform factor in [1-jitter, 1+jitter].
  double jitter = 0.25;
  /// Geometric growth applied per consecutive retry of the same row.
  double backoff_factor = 1.5;
  /// Cap on one sleep, pre-jitter.
  int max_sleep_ms = 1000;
  /// Cap on the total time slept for one row; exceeded => give up with
  /// FailedPrecondition. <= 0 means unlimited.
  int backoff_budget_ms = 30000;
  /// Seed for the jitter RNG (deterministic in tests).
  uint64_t seed = 1;
};

/// Pure backoff computation (unit-testable without sockets): the sleep in
/// ms before retry number `attempt` (0-based) given the server's hint and
/// one uniform sample in [0, 1). Monotone in `attempt` pre-jitter, capped
/// at policy.max_sleep_ms, and never below 1.
int BackoffSleepMs(const RetryPolicy& policy, int attempt,
                   int server_hint_ms, double uniform01);

/// A "host:port" address split for Client::Connect.
struct HostPort {
  std::string host;
  int port = 0;
};

/// Parses "host:port" (port 1..65535); InvalidArgument otherwise.
common::Result<HostPort> ParseHostPort(const std::string& address);

/// A blocking dbsherlockd client: one TCP connection, one request line per
/// Call, one response line back. Used by the `dbsherlock client`
/// subcommand, the replay benchmark, and the e2e tests. Not thread-safe;
/// open one client per thread.
class Client {
 public:
  struct Options {
    /// Give up on connect() after this long (0 = OS default, minutes).
    int connect_timeout_ms = 0;
    /// Per-request deadline: a Call that has not parsed its response line
    /// within this window fails with DeadlineExceeded instead of hanging
    /// on a stalled or half-dead server. 0 = wait forever.
    int deadline_ms = 0;
  };

  static common::Result<std::unique_ptr<Client>> Connect(
      const std::string& host, int port);
  static common::Result<std::unique_ptr<Client>> Connect(
      const std::string& host, int port, const Options& options);

  ~Client();

  Client(const Client&) = delete;
  Client& operator=(const Client&) = delete;

  /// Sends one raw request line and parses the response line. Honors
  /// Options::deadline_ms across the whole send+receive exchange.
  common::Result<Response> Call(const std::string& line);

  /// Sends one raw request line and returns the raw response line
  /// verbatim (no parsing, no re-serialization) — the router's proxy
  /// path, which forwards whatever the shard said byte-for-byte.
  common::Result<std::string> CallRaw(const std::string& line);

  /// Drops and re-establishes the connection (same host/port/options).
  /// Any buffered partial response is discarded.
  common::Status Reconnect();

  // Typed helpers over Call. Each returns the server's ERR as a non-OK
  // Status; RETRY_AFTER surfaces in the Response for the caller to honor.
  common::Status Hello(const std::string& tenant,
                       const tsdata::Schema& schema);
  /// HELLO that also returns the tenant's durable high-water timestamp
  /// (the response's ` last_ts` detail). nullopt = no sealed history; an
  /// idempotent writer resends every row, otherwise only rows strictly
  /// after the returned timestamp.
  common::Result<std::optional<double>> HelloResume(
      const std::string& tenant, const tsdata::Schema& schema);
  common::Result<Response> Append(const std::string& tenant, double timestamp,
                                  const std::vector<tsdata::Cell>& cells);
  /// APPENDSEQ: append carrying a client idempotency sequence number, so
  /// a resend after a dropped connection cannot double-ingest.
  common::Result<Response> AppendSeq(const std::string& tenant, uint64_t seq,
                                     double timestamp,
                                     const std::vector<tsdata::Cell>& cells);
  /// Append that honors backpressure: on RETRY_AFTER sleeps per `policy`
  /// (jittered, capped, budgeted) and resends, up to policy.max_retries.
  /// `*retries` (optional) accumulates the number of RETRY_AFTER
  /// responses seen.
  common::Status AppendRetrying(const std::string& tenant, double timestamp,
                                const std::vector<tsdata::Cell>& cells,
                                const RetryPolicy& policy = {},
                                size_t* retries = nullptr);
  /// Legacy shape (max_retries only); pre-jitter behavior call sites keep
  /// compiling but now get jittered sleeps too.
  common::Status AppendRetrying(const std::string& tenant, double timestamp,
                                const std::vector<tsdata::Cell>& cells,
                                int max_retries, size_t* retries = nullptr);
  /// The chaos-hardened append: APPENDSEQ + backpressure pacing + on a
  /// dropped/reset/timed-out connection, reconnect and resend the same
  /// seq — the server replays the ack if the row already landed, so the
  /// row is ingested exactly once no matter where the failure hit.
  /// `*reconnects` (optional) counts connection re-establishments.
  common::Status AppendSeqRetrying(const std::string& tenant, uint64_t seq,
                                   double timestamp,
                                   const std::vector<tsdata::Cell>& cells,
                                   const RetryPolicy& policy = {},
                                   size_t* retries = nullptr,
                                   size_t* reconnects = nullptr);
  common::Status Teach(const core::CausalModel& model);
  common::Status Flush(const std::string& tenant);
  common::Result<common::JsonValue> Diagnoses(const std::string& tenant);
  /// History rows in [t0, t1) from the tenant's durable store (QUERY).
  /// `where` (optional) is a raw WHERE clause body like "cpu>=10;cpu<=90":
  /// ';'-separated conjunctive `attr>=v` / `attr<=v` terms the store can
  /// prune against with zone maps.
  common::Result<common::JsonValue> Query(const std::string& tenant,
                                          double t0, double t1,
                                          const std::string& where = "");
  /// Retrospective diagnosis of [t0, t1) (DIAGNOSE_RANGE).
  common::Result<common::JsonValue> DiagnoseRange(const std::string& tenant,
                                                  double t0, double t1);
  /// Runs one DQL statement (EXPLAINQ, DESIGN.md §16) and returns the
  /// incident-report JSON (includes a "markdown" field). A rejected
  /// statement's Status message carries the server's caret diagnostic.
  common::Result<common::JsonValue> Explain(const std::string& tenant,
                                            const std::string& query);
  common::Result<common::JsonValue> Stats();
  common::Result<common::JsonValue> Models();
  /// Replication pull (MODELSYNC): the shard's model corpus past
  /// `since_seq` as {"last_seq":N,"crc":C,"models":[...]}.
  common::Result<common::JsonValue> ModelSync(uint64_t since_seq);
  /// Degraded-mode state (HEALTH): {"state":"ok|degraded|draining",...}.
  common::Result<common::JsonValue> Health();
  common::Status Ping();
  /// Polite shutdown of this connection (QUIT).
  common::Status Quit();

 private:
  Client(int fd, std::string host, int port, Options options)
      : fd_(fd),
        host_(std::move(host)),
        port_(port),
        options_(options) {}

  /// Connects one socket per host_/port_/options_ (shared by Connect and
  /// Reconnect).
  static common::Result<int> OpenSocket(const std::string& host, int port,
                                        const Options& options);

  /// OK response or the ERR's Status.
  common::Status ExpectOk(const common::Result<Response>& response);
  /// OK detail parsed as JSON, or the ERR's Status.
  common::Result<common::JsonValue> ExpectJson(
      const common::Result<Response>& response);

  int fd_;
  std::string host_;
  int port_;
  Options options_;
  std::string buffer_;  // bytes read past the last response line
};

}  // namespace dbsherlock::service

#endif  // DBSHERLOCK_SERVICE_CLIENT_H_
