#include "service/client.h"

#include <arpa/inet.h>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstring>
#include <thread>

#include "common/faultenv.h"
#include "common/random.h"
#include "common/strings.h"
#include "core/model_io.h"

namespace dbsherlock::service {

namespace {

using common::Result;
using common::Status;

/// QUERY responses embed a CSV payload, so the client tolerates much
/// longer lines than the server's request guard.
constexpr size_t kMaxLine = 8 << 20;

/// Tracks one request's deadline. Inactive (limit_ms <= 0) never expires.
class Deadline {
 public:
  explicit Deadline(int limit_ms) : limit_ms_(limit_ms) {
    if (limit_ms_ > 0) start_ = std::chrono::steady_clock::now();
  }

  bool active() const { return limit_ms_ > 0; }

  /// Milliseconds left (clamped at 0), or -1 when inactive — the value
  /// poll(2) takes for "wait forever".
  int remaining_ms() const {
    if (!active()) return -1;
    auto elapsed = std::chrono::duration_cast<std::chrono::milliseconds>(
                       std::chrono::steady_clock::now() - start_)
                       .count();
    return static_cast<int>(
        std::max<int64_t>(0, limit_ms_ - static_cast<int64_t>(elapsed)));
  }

  bool expired() const { return active() && remaining_ms() == 0; }

 private:
  int limit_ms_;
  std::chrono::steady_clock::time_point start_;
};

/// Waits for `events` on fd within the deadline. OK = ready;
/// DeadlineExceeded = the deadline ran out first.
Status WaitReady(int fd, short events, const Deadline& deadline,
                 const char* what) {
  for (;;) {
    pollfd pfd{fd, events, 0};
    int rc = ::poll(&pfd, 1, deadline.remaining_ms());
    if (rc < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("poll: ") + std::strerror(errno));
    }
    if (rc == 0) {
      return Status::DeadlineExceeded(std::string(what) +
                                      " exceeded the request deadline");
    }
    return Status::OK();
  }
}

Status SetNonBlocking(int fd, bool nonblocking) {
  int flags = ::fcntl(fd, F_GETFL, 0);
  if (flags < 0) {
    return Status::IoError(std::string("fcntl: ") + std::strerror(errno));
  }
  flags = nonblocking ? (flags | O_NONBLOCK) : (flags & ~O_NONBLOCK);
  if (::fcntl(fd, F_SETFL, flags) < 0) {
    return Status::IoError(std::string("fcntl: ") + std::strerror(errno));
  }
  return Status::OK();
}

}  // namespace

int BackoffSleepMs(const RetryPolicy& policy, int attempt,
                   int server_hint_ms, double uniform01) {
  double base = std::max(1, server_hint_ms);
  // Geometric growth per consecutive retry, capped pre-jitter so the
  // jitter band stays centered under max_sleep_ms.
  double grown =
      base * std::pow(std::max(1.0, policy.backoff_factor),
                      static_cast<double>(std::max(0, attempt)));
  grown = std::min(grown, static_cast<double>(std::max(1, policy.max_sleep_ms)));
  // Uniform factor in [1-jitter, 1+jitter].
  double jitter = std::clamp(policy.jitter, 0.0, 1.0);
  double factor = 1.0 - jitter + 2.0 * jitter * uniform01;
  return std::max(1, static_cast<int>(grown * factor));
}

Result<HostPort> ParseHostPort(const std::string& address) {
  size_t colon = address.rfind(':');
  auto port = colon == std::string::npos
                  ? Result<int64_t>(Status::InvalidArgument("no port"))
                  : common::ParseInt64(address.substr(colon + 1));
  if (!port.ok() || *port <= 0 || *port > 65535) {
    return Status::InvalidArgument("bad address '" + address +
                                   "' (want host:port)");
  }
  return HostPort{address.substr(0, colon), static_cast<int>(*port)};
}

Result<int> Client::OpenSocket(const std::string& host, int port,
                               const Options& options) {
  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(port));
  if (::inet_pton(AF_INET, host.c_str(), &addr.sin_addr) != 1) {
    ::close(fd);
    return Status::InvalidArgument("bad host address: " + host);
  }

  bool timed = options.connect_timeout_ms > 0;
  if (timed) {
    Status status = SetNonBlocking(fd, true);
    if (!status.ok()) {
      ::close(fd);
      return status;
    }
  }
  int rc = common::faultenv::Connect(
      "cli.connect", fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr));
  if (rc != 0 && !(timed && errno == EINPROGRESS)) {
    Status status(common::StatusCode::kIoError,
                  common::StrFormat("connect %s:%d: %s", host.c_str(), port,
                                    std::strerror(errno)));
    ::close(fd);
    return status;
  }
  if (rc != 0) {
    // Non-blocking connect in flight: wait for writability, then read the
    // socket-level result.
    Deadline deadline(options.connect_timeout_ms);
    Status ready = WaitReady(fd, POLLOUT, deadline, "connect");
    if (ready.ok()) {
      int err = 0;
      socklen_t len = sizeof(err);
      if (::getsockopt(fd, SOL_SOCKET, SO_ERROR, &err, &len) != 0 ||
          err != 0) {
        ready = Status(common::StatusCode::kIoError,
                       common::StrFormat("connect %s:%d: %s", host.c_str(),
                                         port,
                                         std::strerror(err != 0 ? err
                                                                : errno)));
      }
    }
    if (!ready.ok()) {
      ::close(fd);
      return ready;
    }
  }
  if (timed) {
    Status status = SetNonBlocking(fd, false);
    if (!status.ok()) {
      ::close(fd);
      return status;
    }
  }
  int one = 1;
  ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
  return fd;
}

Result<std::unique_ptr<Client>> Client::Connect(const std::string& host,
                                                int port) {
  return Connect(host, port, Options());
}

Result<std::unique_ptr<Client>> Client::Connect(const std::string& host,
                                                int port,
                                                const Options& options) {
  auto fd = OpenSocket(host, port, options);
  if (!fd.ok()) return fd.status();
  return std::unique_ptr<Client>(new Client(*fd, host, port, options));
}

Status Client::Reconnect() {
  if (fd_ >= 0) ::close(fd_);
  fd_ = -1;
  buffer_.clear();
  auto fd = OpenSocket(host_, port_, options_);
  if (!fd.ok()) return fd.status();
  fd_ = *fd;
  return Status::OK();
}

Client::~Client() {
  if (fd_ >= 0) ::close(fd_);
}

Result<Response> Client::Call(const std::string& line) {
  auto raw = CallRaw(line);
  if (!raw.ok()) return raw.status();
  return ParseResponseLine(*raw);
}

Result<std::string> Client::CallRaw(const std::string& line) {
  if (fd_ < 0) {
    return Status::FailedPrecondition("client is disconnected; Reconnect()");
  }
  Deadline deadline(options_.deadline_ms);
  std::string out = line + "\n";
  size_t done = 0;
  while (done < out.size()) {
    if (deadline.active()) {
      DBSHERLOCK_RETURN_NOT_OK(WaitReady(fd_, POLLOUT, deadline, "send"));
    }
    ssize_t w = common::faultenv::Send("cli.send", fd_, out.data() + done,
                                       out.size() - done, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("send: ") + std::strerror(errno));
    }
    done += static_cast<size_t>(w);
  }
  for (;;) {
    size_t newline = buffer_.find('\n');
    if (newline != std::string::npos) {
      std::string response = buffer_.substr(0, newline);
      buffer_.erase(0, newline + 1);
      if (!response.empty() && response.back() == '\r') response.pop_back();
      return response;
    }
    if (buffer_.size() > kMaxLine) {
      return Status::ParseError("response line too long");
    }
    if (deadline.active()) {
      DBSHERLOCK_RETURN_NOT_OK(WaitReady(fd_, POLLIN, deadline, "recv"));
    }
    char chunk[4096];
    ssize_t r = common::faultenv::Recv("cli.recv", fd_, chunk, sizeof(chunk),
                                       0);
    if (r < 0 && errno == EINTR) continue;
    if (r < 0) {
      return Status::IoError(std::string("recv: ") + std::strerror(errno));
    }
    if (r == 0) {
      return Status::IoError("server closed the connection");
    }
    buffer_.append(chunk, static_cast<size_t>(r));
  }
}

Status Client::ExpectOk(const Result<Response>& response) {
  if (!response.ok()) return response.status();
  switch (response->kind) {
    case Response::Kind::kOk:
      return Status::OK();
    case Response::Kind::kErr:
      return response->error;
    case Response::Kind::kRetryAfter:
      return Status::FailedPrecondition("unexpected RETRY_AFTER");
  }
  return Status::Internal("unhandled response kind");
}

Result<common::JsonValue> Client::ExpectJson(
    const Result<Response>& response) {
  if (!response.ok()) return response.status();
  if (response->kind == Response::Kind::kErr) return response->error;
  if (response->kind != Response::Kind::kOk) {
    return Status::FailedPrecondition("unexpected RETRY_AFTER");
  }
  return common::ParseJson(response->detail);
}

Status Client::Hello(const std::string& tenant,
                     const tsdata::Schema& schema) {
  return ExpectOk(
      Call("HELLO " + tenant + " " + FormatSchemaSpec(schema)));
}

Result<std::optional<double>> Client::HelloResume(
    const std::string& tenant, const tsdata::Schema& schema) {
  auto response = Call("HELLO " + tenant + " " + FormatSchemaSpec(schema));
  if (!response.ok()) return response.status();
  if (response->kind == Response::Kind::kErr) return response->error;
  if (response->kind != Response::Kind::kOk) {
    return Status::FailedPrecondition("unexpected RETRY_AFTER");
  }
  static constexpr char kTag[] = " last_ts ";
  size_t pos = response->detail.rfind(kTag);
  if (pos == std::string::npos) return std::optional<double>();
  auto value =
      common::ParseDouble(response->detail.substr(pos + sizeof(kTag) - 1));
  if (!value.ok()) return value.status();
  return std::optional<double>(*value);
}

Result<Response> Client::Append(const std::string& tenant, double timestamp,
                                const std::vector<tsdata::Cell>& cells) {
  std::string line =
      "APPEND " + tenant + " " + common::StrFormat("%.17g", timestamp) + " ";
  for (size_t i = 0; i < cells.size(); ++i) {
    if (i > 0) line += ',';
    line += FormatCell(cells[i]);
  }
  return Call(line);
}

Result<Response> Client::AppendSeq(const std::string& tenant, uint64_t seq,
                                   double timestamp,
                                   const std::vector<tsdata::Cell>& cells) {
  std::string line = common::StrFormat(
      "APPENDSEQ %s %llu %.17g ", tenant.c_str(),
      static_cast<unsigned long long>(seq), timestamp);
  for (size_t i = 0; i < cells.size(); ++i) {
    if (i > 0) line += ',';
    line += FormatCell(cells[i]);
  }
  return Call(line);
}

Status Client::AppendRetrying(const std::string& tenant, double timestamp,
                              const std::vector<tsdata::Cell>& cells,
                              const RetryPolicy& policy, size_t* retries) {
  common::Pcg32 rng(policy.seed, 77);
  int64_t slept_ms = 0;
  for (int attempt = 0; attempt <= policy.max_retries; ++attempt) {
    auto response = Append(tenant, timestamp, cells);
    if (!response.ok()) return response.status();
    if (response->kind == Response::Kind::kOk) return Status::OK();
    if (response->kind == Response::Kind::kErr) return response->error;
    if (retries != nullptr) ++*retries;
    int sleep = BackoffSleepMs(policy, attempt, response->retry_after_ms,
                               rng.NextDouble());
    slept_ms += sleep;
    if (policy.backoff_budget_ms > 0 && slept_ms > policy.backoff_budget_ms) {
      return Status::DeadlineExceeded(
          "append backoff budget exhausted while shed");
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(sleep));
  }
  return Status::FailedPrecondition(
      "append still shed after max_retries backoffs");
}

Status Client::AppendRetrying(const std::string& tenant, double timestamp,
                              const std::vector<tsdata::Cell>& cells,
                              int max_retries, size_t* retries) {
  // Legacy pacing: honor the server's hint (jittered, so a herd of shed
  // clients no longer retries in lockstep) with no growth and no budget —
  // max_retries alone bounds the loop, as it always did.
  RetryPolicy policy;
  policy.max_retries = max_retries;
  policy.backoff_factor = 1.0;
  policy.backoff_budget_ms = 0;
  return AppendRetrying(tenant, timestamp, cells, policy, retries);
}

Status Client::AppendSeqRetrying(const std::string& tenant, uint64_t seq,
                                 double timestamp,
                                 const std::vector<tsdata::Cell>& cells,
                                 const RetryPolicy& policy, size_t* retries,
                                 size_t* reconnects) {
  common::Pcg32 rng(policy.seed + seq, 77);
  int64_t slept_ms = 0;
  int backoffs = 0;
  auto sleep_or_give_up = [&](int server_hint_ms) -> Status {
    int sleep =
        BackoffSleepMs(policy, backoffs++, server_hint_ms, rng.NextDouble());
    slept_ms += sleep;
    if (policy.backoff_budget_ms > 0 && slept_ms > policy.backoff_budget_ms) {
      return Status::DeadlineExceeded(
          "append backoff budget exhausted for seq " +
          common::StrFormat("%llu", static_cast<unsigned long long>(seq)));
    }
    std::this_thread::sleep_for(std::chrono::milliseconds(sleep));
    return Status::OK();
  };
  for (int attempt = 0; attempt <= policy.max_retries; ++attempt) {
    auto response = AppendSeq(tenant, seq, timestamp, cells);
    if (!response.ok()) {
      common::StatusCode code = response.status().code();
      if (code != common::StatusCode::kIoError &&
          code != common::StatusCode::kDeadlineExceeded) {
        return response.status();
      }
      // The connection died mid-exchange; the server may or may not have
      // applied the row. Reconnect and resend the same seq — if it landed,
      // the server replays the ack instead of double-ingesting.
      if (reconnects != nullptr) ++*reconnects;
      Status again = Reconnect();
      if (!again.ok()) {
        // Likely a restarting server: pace the reconnect attempts too.
        DBSHERLOCK_RETURN_NOT_OK(sleep_or_give_up(0));
      }
      continue;
    }
    if (response->kind == Response::Kind::kOk) return Status::OK();
    if (response->kind == Response::Kind::kErr) return response->error;
    if (retries != nullptr) ++*retries;
    DBSHERLOCK_RETURN_NOT_OK(sleep_or_give_up(response->retry_after_ms));
  }
  return Status::FailedPrecondition(
      "append still failing after max_retries attempts");
}

Status Client::Teach(const core::CausalModel& model) {
  return ExpectOk(Call("TEACH " + core::CausalModelToJson(model).Dump()));
}

Status Client::Flush(const std::string& tenant) {
  return ExpectOk(Call("FLUSH " + tenant));
}

Result<common::JsonValue> Client::Diagnoses(const std::string& tenant) {
  return ExpectJson(Call("DIAGNOSES " + tenant));
}

Result<common::JsonValue> Client::Query(const std::string& tenant, double t0,
                                        double t1,
                                        const std::string& where) {
  std::string line = common::StrFormat("QUERY %s %.17g %.17g",
                                       tenant.c_str(), t0, t1);
  if (!where.empty()) line += " WHERE " + where;
  return ExpectJson(Call(line));
}

Result<common::JsonValue> Client::DiagnoseRange(const std::string& tenant,
                                                double t0, double t1) {
  return ExpectJson(Call(common::StrFormat("DIAGNOSE_RANGE %s %.17g %.17g",
                                           tenant.c_str(), t0, t1)));
}

Result<common::JsonValue> Client::Explain(const std::string& tenant,
                                          const std::string& query) {
  return ExpectJson(Call("EXPLAINQ " + tenant + " " + query));
}

Result<common::JsonValue> Client::Stats() {
  return ExpectJson(Call("STATS"));
}

Result<common::JsonValue> Client::Models() {
  return ExpectJson(Call("MODELS"));
}

Result<common::JsonValue> Client::Health() {
  return ExpectJson(Call("HEALTH"));
}

Result<common::JsonValue> Client::ModelSync(uint64_t since_seq) {
  return ExpectJson(Call(common::StrFormat(
      "MODELSYNC %llu", static_cast<unsigned long long>(since_seq))));
}

Status Client::Ping() { return ExpectOk(Call("PING")); }

Status Client::Quit() { return ExpectOk(Call("QUIT")); }

}  // namespace dbsherlock::service
