#ifndef DBSHERLOCK_SERVICE_SERVER_H_
#define DBSHERLOCK_SERVICE_SERVER_H_

#include <atomic>
#include <condition_variable>
#include <functional>
#include <memory>
#include <mutex>
#include <set>
#include <string>
#include <thread>

#include "common/parallel.h"
#include "common/status.h"

namespace dbsherlock::service {

class Service;

/// One request line -> one response line (no trailing newline). Sets
/// *quit to close the connection once the response is sent. Every
/// connection calls it from its own thread, so it must be thread-safe.
using LineHandler =
    std::function<std::string(const std::string& line, bool* quit)>;

/// The TCP front door of both dbsherlockd modes (DESIGN.md §15): `serve`
/// runs it with ServiceHandler, `route` with fleet::Router's proxy. The
/// server knows the line framing and nothing of the verbs: each request
/// line goes to the handler and its answer goes back on the same
/// connection, in order.
///
/// One thread per connection: the accept loop hands each connection to a
/// common::ThreadPool worker (the pool grows to the live count), which
/// reads, dispatches and writes until the peer leaves. Accepts past
/// max_connections are shed with a RETRY_AFTER line instead of growing
/// threads without bound; the idle timeout and the line cap keep a
/// slow or hostile peer from holding a worker or its memory forever.
class Server {
 public:
  struct Options {
    std::string host = "127.0.0.1";
    /// 0 binds an ephemeral port; read the real one from port().
    int port = 0;
    /// Connections beyond this are shed (RETRY_AFTER + close) at accept.
    size_t max_connections = 64;
    /// Slow-loris guard: a connection that sends nothing for this long is
    /// closed (its worker is a finite resource). 0 = wait forever.
    int idle_timeout_ms = 0;
    /// Per-connection line-buffer cap; a longer request line gets
    /// ERR ParseError and the connection is closed.
    size_t max_line_bytes = 1 << 20;
    /// Answers every request line; required.
    LineHandler handler;
  };

  /// Binds, listens, and starts the accept loop.
  static common::Result<std::unique_ptr<Server>> Start(Options options);

  ~Server();

  Server(const Server&) = delete;
  Server& operator=(const Server&) = delete;

  /// The bound port (resolves Options::port == 0).
  int port() const { return port_; }

  /// Stops accepting, shuts down live connections, and waits for their
  /// handlers to finish. Does NOT stop what the handler talks to (its
  /// owner does).
  void Stop();

 private:
  explicit Server(Options options);

  void AcceptLoop();
  void HandleConnection(int fd);

  Options options_;
  /// Atomic: AcceptLoop reads it per iteration while Stop() swaps in -1.
  std::atomic<int> listen_fd_{-1};
  int port_ = 0;
  std::atomic<bool> stopping_{false};
  std::thread accept_thread_;

  /// Handler tasks run here; grown to the live-connection count so a
  /// blocking reader never starves another connection.
  std::unique_ptr<common::ThreadPool> workers_;

  std::mutex conn_mu_;
  std::condition_variable conn_done_;
  std::set<int> conn_fds_;
};

/// dbsherlockd serve's dispatcher: parses each request line with wire.h
/// and answers it from `service`, which must outlive the handler.
LineHandler ServiceHandler(Service& service);

}  // namespace dbsherlock::service

#endif  // DBSHERLOCK_SERVICE_SERVER_H_
