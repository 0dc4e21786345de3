#ifndef PERFBENCH_DAEMON_H_
#define PERFBENCH_DAEMON_H_

#include <sys/types.h>

#include <string>
#include <vector>

#include "common/status.h"

namespace perfbench {

/// One dbsherlockd child process (`serve` or `route`). Start blocks until
/// the daemon prints `LISTENING <port>`; its stderr goes to `log_path`.
/// The destructor kills and reaps a daemon that was never stopped, so no
/// child outlives the benchmark.
class Daemon {
 public:
  Daemon() = default;
  ~Daemon();
  Daemon(const Daemon&) = delete;
  Daemon& operator=(const Daemon&) = delete;

  dbsherlock::common::Status Start(const std::string& binary,
                                   const std::vector<std::string>& args,
                                   const std::string& log_path);

  /// SIGTERM, then wait for a clean (exit 0) drain.
  dbsherlock::common::Status Stop();

  /// Peak resident set (VmHWM) so far, in MB; 0 when unreadable.
  double PeakRssMb() const;

  int port() const { return port_; }
  pid_t pid() const { return pid_; }
  std::string address() const { return "127.0.0.1:" + std::to_string(port_); }

 private:
  pid_t pid_ = -1;
  int out_fd_ = -1;
  int port_ = 0;
};

}  // namespace perfbench

#endif  // PERFBENCH_DAEMON_H_
