#include "service/server.h"

#include <arpa/inet.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>

#include "common/faultenv.h"
#include "common/metrics.h"
#include "common/strings.h"
#include "service/service.h"
#include "service/wire.h"

namespace dbsherlock::service {

namespace {

using common::Result;
using common::Status;

/// Delay advertised on the accept-shed RETRY_AFTER line.
constexpr int kAcceptRetryAfterMs = 50;

Status SendAll(int fd, const std::string& data) {
  size_t done = 0;
  while (done < data.size()) {
    ssize_t w = common::faultenv::Send(
        "srv.send", fd, data.data() + done, data.size() - done, MSG_NOSIGNAL);
    if (w < 0) {
      if (errno == EINTR) continue;
      return Status::IoError(std::string("send: ") + std::strerror(errno));
    }
    done += static_cast<size_t>(w);
  }
  return Status::OK();
}

}  // namespace

Server::Server(Options options) : options_(std::move(options)) {}

Result<std::unique_ptr<Server>> Server::Start(Options options) {
  if (!options.handler) {
    return Status::InvalidArgument("Server needs a line handler");
  }
  auto server = std::unique_ptr<Server>(new Server(std::move(options)));

  int fd = ::socket(AF_INET, SOCK_STREAM | SOCK_CLOEXEC, 0);
  if (fd < 0) {
    return Status::IoError(std::string("socket: ") + std::strerror(errno));
  }
  int one = 1;
  ::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

  sockaddr_in addr{};
  addr.sin_family = AF_INET;
  addr.sin_port = htons(static_cast<uint16_t>(server->options_.port));
  if (::inet_pton(AF_INET, server->options_.host.c_str(), &addr.sin_addr) !=
      1) {
    ::close(fd);
    return Status::InvalidArgument("bad listen address: " +
                                   server->options_.host);
  }
  if (::bind(fd, reinterpret_cast<sockaddr*>(&addr), sizeof(addr)) != 0) {
    Status status(common::StatusCode::kIoError,
                  std::string("bind: ") + std::strerror(errno));
    ::close(fd);
    return status;
  }
  if (::listen(fd, 64) != 0) {
    Status status(common::StatusCode::kIoError,
                  std::string("listen: ") + std::strerror(errno));
    ::close(fd);
    return status;
  }
  socklen_t len = sizeof(addr);
  if (::getsockname(fd, reinterpret_cast<sockaddr*>(&addr), &len) != 0) {
    Status status(common::StatusCode::kIoError,
                  std::string("getsockname: ") + std::strerror(errno));
    ::close(fd);
    return status;
  }
  server->listen_fd_ = fd;
  server->port_ = ntohs(addr.sin_port);
  // One warm worker up front; AcceptLoop grows the pool with the live
  // connection count.
  server->workers_ = std::make_unique<common::ThreadPool>(1);
  server->accept_thread_ = std::thread([srv = server.get()] {
    srv->AcceptLoop();
  });
  common::MetricsRegistry::Global().GetCounter("server.connections");
  return server;
}

Server::~Server() { Stop(); }

void Server::AcceptLoop() {
  for (;;) {
    int listen_fd = listen_fd_.load();
    if (listen_fd < 0) return;  // Stop() already claimed the fd
    int fd = ::accept4(listen_fd, nullptr, nullptr, SOCK_CLOEXEC);
    if (fd < 0) {
      if (errno == EINTR) continue;
      return;  // listen fd shut down by Stop (or fatal accept error)
    }
    if (stopping_.load()) {
      ::close(fd);
      return;
    }
    int one = 1;
    ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));

    auto& metrics = common::MetricsRegistry::Global();
    size_t live;
    {
      std::lock_guard lock(conn_mu_);
      if (conn_fds_.size() >= options_.max_connections) {
        // Shed with a retry hint instead of an opaque error: the client
        // backs off (BackoffSleepMs honors RETRY_AFTER) and no thread is
        // spent on a connection we cannot serve.
        (void)SendAll(fd, RetryAfterLine(kAcceptRetryAfterMs) + "\n");
        ::close(fd);
        metrics.GetCounter("server.accepts_shed")->Increment();
        continue;
      }
      conn_fds_.insert(fd);
      live = conn_fds_.size();
    }
    metrics.GetCounter("server.connections")->Increment();
    metrics.GetGauge("server.connections_live")
        ->Set(static_cast<double>(live));
    // Each live connection needs a dedicated worker: readers block in
    // recv, so the pool must match the connection count.
    workers_->EnsureAtLeast(live);
    workers_->Submit([this, fd] { HandleConnection(fd); });
  }
}

void Server::HandleConnection(int fd) {
  auto& metrics = common::MetricsRegistry::Global();
  if (options_.idle_timeout_ms > 0) {
    timeval tv{};
    tv.tv_sec = options_.idle_timeout_ms / 1000;
    tv.tv_usec = (options_.idle_timeout_ms % 1000) * 1000;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv, sizeof(tv));
  }
  std::string buffer;
  char chunk[4096];
  bool quit = false;
  while (!quit) {
    ssize_t r = common::faultenv::Recv("srv.recv", fd, chunk, sizeof(chunk),
                                       0);
    if (r < 0 && errno == EINTR) continue;
    if (r < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
      // The idle read timeout expired: a slow-loris peer (or one that
      // simply left) does not get to hold a worker forever.
      metrics.GetCounter("server.idle_timeouts")->Increment();
      break;
    }
    if (r <= 0) break;  // peer closed, error, or Stop's shutdown()
    buffer.append(chunk, static_cast<size_t>(r));
    size_t newline;
    while (!quit && (newline = buffer.find('\n')) != std::string::npos) {
      std::string line = buffer.substr(0, newline);
      buffer.erase(0, newline + 1);
      if (line.size() > options_.max_line_bytes) {
        metrics.GetCounter("server.oversized_lines")->Increment();
        (void)SendAll(
            fd, ErrLine(Status::ParseError("request line too long")) + "\n");
        quit = true;
        break;
      }
      std::string response = options_.handler(line, &quit);
      if (!SendAll(fd, response + "\n").ok()) {
        quit = true;
        break;
      }
    }
    // A partial line past the cap can never complete into a valid
    // request; shed it before it eats the worker's memory.
    if (!quit && buffer.size() > options_.max_line_bytes) {
      metrics.GetCounter("server.oversized_lines")->Increment();
      (void)SendAll(
          fd, ErrLine(Status::ParseError("request line too long")) + "\n");
      break;
    }
  }
  // Deregister before close so Stop never shutdown()s a recycled fd, and
  // so the live gauge drops the moment the connection stops being served
  // (not when its thread is eventually joined).
  size_t live;
  {
    std::lock_guard lock(conn_mu_);
    conn_fds_.erase(fd);
    live = conn_fds_.size();
    conn_done_.notify_all();
  }
  metrics.GetGauge("server.connections_live")
      ->Set(static_cast<double>(live));
  ::close(fd);
}

namespace {

std::string HandleLine(Service& service, const std::string& line,
                       bool* quit) {
  auto parsed = ParseRequestLine(line);
  if (!parsed.ok()) return ErrLine(parsed.status());
  Request& request = *parsed;

  switch (request.op) {
    case RequestOp::kPing:
      return OkLine("pong");
    case RequestOp::kQuit:
      *quit = true;
      return OkLine("bye");
    case RequestOp::kHello: {
      std::optional<TenantManager::Retention> retain;
      if (request.has_retain) {
        retain = TenantManager::Retention{request.retain_bytes,
                                          request.retain_age_sec};
      }
      std::shared_ptr<Tenant> tenant;
      Status status =
          service.Hello(request.tenant, request.schema, retain, &tenant);
      if (!status.ok()) return ErrLine(status);
      std::string detail = common::StrFormat(
          "tenant %s attrs %zu", request.tenant.c_str(),
          request.schema.num_attributes());
      // The durable high-water timestamp, when history exists: rows after
      // it did not survive a crash, so an idempotent writer resumes from
      // the first row strictly after this point.
      if (tenant->history != nullptr) {
        if (auto last = tenant->history->durable_last_ts()) {
          detail += common::StrFormat(" last_ts %.17g", *last);
        }
      }
      return OkLine(detail);
    }
    case RequestOp::kAppend: {
      // CSV cells are typed against the tenant's schema here (the wire
      // layer is schema-blind), and the tenant found for that is the one
      // the row is appended to.
      auto tenant = service.tenants().Find(request.tenant);
      if (!tenant.ok()) return ErrLine(tenant.status());
      const tsdata::Schema& schema = (*tenant)->schema;
      if (request.raw_cells.size() != schema.num_attributes()) {
        return ErrLine(Status::InvalidArgument(common::StrFormat(
            "row has %zu cells, schema has %zu attributes",
            request.raw_cells.size(), schema.num_attributes())));
      }
      std::vector<tsdata::Cell> cells;
      cells.reserve(request.raw_cells.size());
      for (size_t i = 0; i < request.raw_cells.size(); ++i) {
        if (schema.attribute(i).kind == tsdata::AttributeKind::kNumeric) {
          auto value = common::ParseDouble(request.raw_cells[i]);
          if (!value.ok()) return ErrLine(value.status());
          cells.emplace_back(*value);
        } else {
          cells.emplace_back(request.raw_cells[i]);
        }
      }
      std::optional<uint64_t> client_seq;
      if (request.has_client_seq) client_seq = request.client_seq;
      auto outcome = service.Append(std::move(*tenant), request.timestamp,
                                    std::move(cells), client_seq);
      if (!outcome.ok()) return ErrLine(outcome.status());
      if (!outcome->accepted) return RetryAfterLine(outcome->retry_after_ms);
      return OkLine(common::StrFormat(
          "%llu%s", static_cast<unsigned long long>(outcome->seq),
          outcome->replayed ? " replayed" : ""));
    }
    case RequestOp::kTeach: {
      Status status = service.Teach(request.model);
      if (!status.ok()) return ErrLine(status);
      return OkLine("taught " + request.model.cause);
    }
    case RequestOp::kFlush: {
      Status status = service.Flush(request.tenant);
      if (!status.ok()) return ErrLine(status);
      return OkLine("flushed");
    }
    case RequestOp::kDiagnoses: {
      auto diagnoses = service.DiagnosesJson(request.tenant);
      if (!diagnoses.ok()) return ErrLine(diagnoses.status());
      return OkLine(diagnoses->Dump());
    }
    case RequestOp::kQuery: {
      auto rows = service.QueryJson(request.tenant, request.t0, request.t1,
                                    request.bounds);
      if (!rows.ok()) return ErrLine(rows.status());
      return OkLine(rows->Dump());
    }
    case RequestOp::kDiagnoseRange: {
      auto diagnosis =
          service.DiagnoseRangeJson(request.tenant, request.t0, request.t1);
      if (!diagnosis.ok()) return ErrLine(diagnosis.status());
      return OkLine(diagnosis->Dump());
    }
    case RequestOp::kExplainQuery: {
      auto report =
          service.ExplainQueryJson(request.tenant, request.query_text);
      if (!report.ok()) return ErrLine(report.status());
      return OkLine(report->Dump());
    }
    case RequestOp::kStats:
      return OkLine(service.StatsJson().Dump());
    case RequestOp::kModels:
      return OkLine(service.ModelsJson().Dump());
    case RequestOp::kModelSync:
      return OkLine(service.ModelSyncJson(request.model_sync_since).Dump());
    case RequestOp::kHealth:
      return OkLine(service.HealthJson().Dump());
  }
  return ErrLine(Status::Internal("unhandled request op"));
}

}  // namespace

LineHandler ServiceHandler(Service& service) {
  return [&service](const std::string& line, bool* quit) {
    return HandleLine(service, line, quit);
  };
}

void Server::Stop() {
  if (stopping_.exchange(true)) return;
  // shutdown() pops AcceptLoop out of accept(); the fd is closed only
  // after the accept thread joins, so its number cannot be recycled
  // under a racing accept4().
  int listen_fd = listen_fd_.exchange(-1);
  if (listen_fd >= 0) ::shutdown(listen_fd, SHUT_RDWR);
  if (accept_thread_.joinable()) accept_thread_.join();
  if (listen_fd >= 0) ::close(listen_fd);
  // shutdown() unblocks every reader stuck in recv; each handler then
  // closes its own fd and deregisters.
  {
    std::unique_lock lock(conn_mu_);
    for (int fd : conn_fds_) ::shutdown(fd, SHUT_RDWR);
    conn_done_.wait(lock, [this] { return conn_fds_.empty(); });
  }
  workers_.reset();  // joins handler threads
}

}  // namespace dbsherlock::service
