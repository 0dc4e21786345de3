#include "daemon.h"

#include <fcntl.h>
#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>

namespace perfbench {

using dbsherlock::common::Status;

Daemon::~Daemon() {
  if (pid_ > 0) {
    kill(pid_, SIGKILL);
    waitpid(pid_, nullptr, 0);
  }
  if (out_fd_ >= 0) close(out_fd_);
}

Status Daemon::Start(const std::string& binary,
                     const std::vector<std::string>& args,
                     const std::string& log_path) {
  int out[2];
  if (pipe(out) != 0) return Status::IoError("pipe failed");
  int log_fd = open(log_path.c_str(), O_WRONLY | O_CREAT | O_APPEND, 0644);
  if (log_fd < 0) return Status::IoError("cannot open " + log_path);
  pid_t pid = fork();
  if (pid < 0) return Status::IoError("fork failed");
  if (pid == 0) {
    dup2(out[1], STDOUT_FILENO);
    dup2(log_fd, STDERR_FILENO);
    close(out[0]);
    close(out[1]);
    close(log_fd);
    std::vector<char*> argv;
    argv.push_back(const_cast<char*>(binary.c_str()));
    for (const std::string& a : args) argv.push_back(const_cast<char*>(a.c_str()));
    argv.push_back(nullptr);
    execv(binary.c_str(), argv.data());
    _exit(127);
  }
  close(out[1]);
  close(log_fd);
  pid_ = pid;
  out_fd_ = out[0];
  // Read the handshake line byte by byte (it is the daemon's first stdout
  // output); EOF means it died before listening.
  std::string line;
  char c;
  while (read(out_fd_, &c, 1) == 1) {
    if (c == '\n') break;
    line += c;
  }
  if (line.rfind("LISTENING ", 0) != 0) {
    return Status::Internal("daemon did not start (see " + log_path + ")");
  }
  port_ = std::atoi(line.c_str() + 10);
  return Status::OK();
}

Status Daemon::Stop() {
  if (pid_ <= 0) return Status::OK();
  kill(pid_, SIGTERM);
  int status = 0;
  waitpid(pid_, &status, 0);
  pid_ = -1;
  if (out_fd_ >= 0) close(out_fd_);
  out_fd_ = -1;
  if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
    return Status::Internal("daemon did not exit cleanly");
  }
  return Status::OK();
}

double Daemon::PeakRssMb() const {
  if (pid_ <= 0) return 0.0;
  std::ifstream in("/proc/" + std::to_string(pid_) + "/status");
  std::string key;
  while (in >> key) {
    if (key == "VmHWM:") {
      double kb = 0;
      in >> kb;
      return kb / 1024.0;
    }
  }
  return 0.0;
}

}  // namespace perfbench
