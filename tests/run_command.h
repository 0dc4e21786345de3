#ifndef DBSHERLOCK_TESTS_RUN_COMMAND_H_
#define DBSHERLOCK_TESTS_RUN_COMMAND_H_

// Shell runner for the CLI integration tests (cli_test, service_cli_test).

#include <sys/wait.h>

#include <array>
#include <cstdio>
#include <string>

struct RunResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr
};

/// Runs `command` through the shell and captures its exit code and its
/// interleaved stdout and stderr.
inline RunResult RunCommand(const std::string& command) {
  RunResult result;
  FILE* pipe = popen((command + " 2>&1").c_str(), "r");
  if (pipe == nullptr) return result;
  std::array<char, 4096> buffer;
  size_t n;
  while ((n = fread(buffer.data(), 1, buffer.size(), pipe)) > 0) {
    result.output.append(buffer.data(), n);
  }
  int status = pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

#endif  // DBSHERLOCK_TESTS_RUN_COMMAND_H_
