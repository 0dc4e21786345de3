// Conversation tests for the one connection engine (service/server.h),
// which carries both `dbsherlockd serve` and `dbsherlockd route`: a fixed
// wire script must come back as a pinned transcript, byte for byte, however
// the bytes arrive — pipelined, split across many small writes, or through
// short reads and writes — and through the router too. Also a half-closed
// (EOF-drain) peer, a slow-loris client that must not stall anyone else,
// and accept-shed past max_connections.

#include <gtest/gtest.h>

#include <arpa/inet.h>
#include <netinet/in.h>
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstring>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/faultenv.h"
#include "common/strings.h"
#include "fleet/router.h"
#include "service/model_store.h"
#include "service/server.h"
#include "service/service.h"

namespace dbsherlock::service {
namespace {

/// A raw TCP client: exact bytes out, exact bytes in. The Client class
/// would hide the framing this test is about.
class RawConn {
 public:
  ~RawConn() { Close(); }

  bool Connect(int port) {
    fd_ = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd_ < 0) return false;
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_port = htons(static_cast<uint16_t>(port));
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    return ::connect(fd_, reinterpret_cast<sockaddr*>(&addr),
                     sizeof(addr)) == 0;
  }

  bool SendAll(const std::string& bytes) {
    size_t done = 0;
    while (done < bytes.size()) {
      ssize_t w = ::send(fd_, bytes.data() + done, bytes.size() - done,
                         MSG_NOSIGNAL);
      if (w <= 0) return false;
      done += static_cast<size_t>(w);
    }
    return true;
  }

  void ShutdownWrite() { ::shutdown(fd_, SHUT_WR); }

  /// Reads until EOF or `timeout_ms` of silence; returns the bytes seen.
  std::string ReadToEof(int timeout_ms = 5000) {
    std::string out;
    char chunk[4096];
    for (;;) {
      pollfd p{fd_, POLLIN, 0};
      if (::poll(&p, 1, timeout_ms) <= 0) break;
      ssize_t r = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (r <= 0) break;
      out.append(chunk, static_cast<size_t>(r));
    }
    return out;
  }

  /// Reads until `n` newline-terminated lines have arrived (or timeout).
  std::string ReadLines(size_t n, int timeout_ms = 5000) {
    std::string out;
    char chunk[4096];
    auto deadline = std::chrono::steady_clock::now() +
                    std::chrono::milliseconds(timeout_ms);
    while (static_cast<size_t>(
               std::count(out.begin(), out.end(), '\n')) < n) {
      int left = static_cast<int>(
          std::chrono::duration_cast<std::chrono::milliseconds>(
              deadline - std::chrono::steady_clock::now())
              .count());
      if (left <= 0) break;
      pollfd p{fd_, POLLIN, 0};
      if (::poll(&p, 1, left) <= 0) break;
      ssize_t r = ::recv(fd_, chunk, sizeof(chunk), 0);
      if (r <= 0) break;
      out.append(chunk, static_cast<size_t>(r));
    }
    return out;
  }

  void Close() {
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
  }

 private:
  int fd_ = -1;
};

/// One self-contained daemon stack (volatile store + service + server).
struct Stack {
  std::unique_ptr<DurableModelStore> store;
  std::unique_ptr<Service> service;
  std::unique_ptr<Server> server;

  static Stack Start(size_t max_connections = 16) {
    Stack s;
    auto store = DurableModelStore::Open({});
    EXPECT_TRUE(store.ok()) << store.status().ToString();
    s.store = std::move(*store);
    Service::Options service_options;
    service_options.store = s.store.get();
    service_options.ingest_workers = 1;
    service_options.diagnosis_workers = 1;
    s.service = std::make_unique<Service>(service_options);
    Server::Options server_options;
    server_options.handler = ServiceHandler(*s.service);
    server_options.max_connections = max_connections;
    auto server = Server::Start(server_options);
    EXPECT_TRUE(server.ok()) << server.status().ToString();
    s.server = std::move(*server);
    return s;
  }

  int port() const { return server->port(); }

  void Stop() {
    if (server != nullptr) server->Stop();
    if (service != nullptr) service->Stop();
  }
};

/// A deterministic conversation: HELLO, fresh APPENDSEQs, FLUSH (so the
/// replays below observe a settled durable state), a resumed HELLO, an
/// idempotent replay, a parse error, and QUIT. Every response line is a
/// pure function of the script, pinned in kTranscript.
const char kScript[] =
    "PING\n"
    "HELLO t0 m0:num,m1:num\n"
    "APPENDSEQ t0 1 1 4,8\n"
    "APPENDSEQ t0 2 2 5,9\n"
    "APPENDSEQ t0 3 3 6,10\n"
    "FLUSH t0\n"
    "HELLO t0 m0:num,m1:num\n"
    "APPENDSEQ t0 2 2 5,9\n"
    "NO_SUCH_VERB at all\n"
    "FLUSH t0\n"
    "QUIT\n";
const size_t kScriptResponses = 11;
/// The server's exact answer to kScript, one line per request. The
/// replay acks with the tenant's running sequence, not the resent one.
const char kTranscript[] =
    "OK pong\n"
    "OK tenant t0 attrs 2\n"
    "OK 1\n"
    "OK 2\n"
    "OK 3\n"
    "OK flushed\n"
    "OK tenant t0 attrs 2\n"
    "OK 3 replayed\n"
    "ERR InvalidArgument unknown verb: NO_SUCH_VERB\n"
    "OK flushed\n"
    "OK bye\n";

/// Sends `segments` (with optional pauses between them) and returns all
/// response bytes until the server closes or goes quiet.
std::string Converse(int port,
                     const std::vector<std::pair<std::string, int>>& segments) {
  RawConn conn;
  EXPECT_TRUE(conn.Connect(port));
  for (const auto& [bytes, sleep_ms] : segments) {
    EXPECT_TRUE(conn.SendAll(bytes));
    if (sleep_ms > 0) {
      std::this_thread::sleep_for(std::chrono::milliseconds(sleep_ms));
    }
  }
  std::string out = conn.ReadLines(kScriptResponses);
  out += conn.ReadToEof(200);
  return out;
}

TEST(FleetParityTest, PipelinedScriptMatchesPinnedTranscript) {
  Stack stack = Stack::Start();
  EXPECT_EQ(Converse(stack.port(), {{kScript, 0}}), kTranscript);
  stack.Stop();
}

TEST(FleetParityTest, PartialLineWritesReassembleIdentically) {
  // The same script dribbled in awkward fragments — splits mid-verb,
  // mid-number, and between the '\r'-less line end and the next verb.
  Stack stack = Stack::Start();
  std::string script(kScript);
  std::vector<std::pair<std::string, int>> segments;
  const size_t kFragment = 7;
  for (size_t at = 0; at < script.size(); at += kFragment) {
    segments.emplace_back(script.substr(at, kFragment), 2);
  }
  EXPECT_EQ(Converse(stack.port(), segments), kTranscript);
  stack.Stop();
}

TEST(FleetParityTest, RouterRelaysThePinnedTranscript) {
  // `route` runs the same engine with its proxy as the handler: PING,
  // QUIT and the parse error are answered by the router, everything else
  // by the shard, and the client cannot tell the difference.
  Stack shard = Stack::Start();
  fleet::Router::Options router_options;
  router_options.shards = {common::StrFormat("127.0.0.1:%d", shard.port())};
  auto router = fleet::Router::Start(router_options);
  ASSERT_TRUE(router.ok()) << router.status().ToString();
  EXPECT_EQ(Converse((*router)->port(), {{kScript, 0}}), kTranscript);
  (*router)->Stop();
  shard.Stop();
}

TEST(FleetParityTest, HalfClosedPeerStillGetsPipelinedAnswers) {
  // shutdown(SHUT_WR) right after the script: the server must drain the
  // buffered requests and answer them all before closing (EOF is not an
  // abort).
  Stack stack = Stack::Start();
  RawConn conn;
  ASSERT_TRUE(conn.Connect(stack.port()));
  ASSERT_TRUE(conn.SendAll("PING\nPING\nPING\n"));
  conn.ShutdownWrite();
  EXPECT_EQ(conn.ReadToEof(), "OK pong\nOK pong\nOK pong\n");
  stack.Stop();
}

TEST(FleetParityTest, SlowLorisDoesNotStallOtherClients) {
  // A client dribbling one byte at a time holds a connection open for
  // seconds. That costs it one worker thread, not the server: a normal
  // client running alongside finishes its requests at full speed.
  Stack stack = Stack::Start();
  std::atomic<bool> loris_ok{false};
  std::thread loris([&] {
    RawConn conn;
    if (!conn.Connect(stack.port())) return;
    const std::string line = "PING\n";
    for (char c : line) {
      if (!conn.SendAll(std::string(1, c))) return;
      std::this_thread::sleep_for(std::chrono::milliseconds(150));
    }
    loris_ok = conn.ReadLines(1) == "OK pong\n";
  });

  auto started = std::chrono::steady_clock::now();
  RawConn fast;
  ASSERT_TRUE(fast.Connect(stack.port()));
  for (int i = 0; i < 50; ++i) {
    ASSERT_TRUE(fast.SendAll("PING\n"));
    ASSERT_EQ(fast.ReadLines(1), "OK pong\n") << "iteration " << i;
  }
  double fast_ms = std::chrono::duration_cast<std::chrono::milliseconds>(
                       std::chrono::steady_clock::now() - started)
                       .count();
  // The loris needs ~750ms just to spell PING; 50 sequential round-trips
  // beside it finish far sooner unless it wedged a handler.
  EXPECT_LT(fast_ms, 500.0);
  loris.join();
  EXPECT_TRUE(loris_ok) << "slow-loris request was dropped, not served";
  stack.Stop();
}

TEST(FleetParityTest, AcceptShedBeyondMaxConnections) {
  Stack stack = Stack::Start(/*max_connections=*/2);
  RawConn a, b;
  ASSERT_TRUE(a.Connect(stack.port()));
  ASSERT_TRUE(a.SendAll("PING\n"));
  ASSERT_EQ(a.ReadLines(1), "OK pong\n");
  ASSERT_TRUE(b.Connect(stack.port()));
  ASSERT_TRUE(b.SendAll("PING\n"));
  ASSERT_EQ(b.ReadLines(1), "OK pong\n");

  // Third connection: shed with a RETRY_AFTER hint and closed, no thread
  // spawned, no silent hang.
  RawConn c;
  ASSERT_TRUE(c.Connect(stack.port()));
  std::string shed = c.ReadToEof();
  EXPECT_NE(shed.find("RETRY_AFTER"), std::string::npos) << "got: " << shed;

  // Closing a live connection frees its slot — the count must track
  // closes, or this accept is shed too and the fleet never recovers.
  a.Close();
  for (int attempt = 0;; ++attempt) {
    RawConn d;
    ASSERT_TRUE(d.Connect(stack.port()));
    ASSERT_TRUE(d.SendAll("PING\n"));
    std::string got = d.ReadLines(1);
    if (got == "OK pong\n") break;
    ASSERT_LT(attempt, 50) << "slot never freed after close: " << got;
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
  }
  stack.Stop();
}

TEST(FleetParityTest, ShortReadWriteFaultScheduleKeepsTranscript) {
  // Short reads and short writes exercise the server's partial-I/O loops;
  // the conversation must still come out byte for byte.
  ASSERT_TRUE(common::faultenv::InstallSchedule(
                  "seed=11;srv.recv=short@0.4;srv.send=short@0.4")
                  .ok());
  Stack stack = Stack::Start();
  std::string got = Converse(stack.port(), {{kScript, 0}});
  stack.Stop();
  ASSERT_TRUE(common::faultenv::InstallSchedule("").ok());
  EXPECT_EQ(got, kTranscript);
}

}  // namespace
}  // namespace dbsherlock::service
