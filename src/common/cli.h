#ifndef DBSHERLOCK_COMMON_CLI_H_
#define DBSHERLOCK_COMMON_CLI_H_

// Command-line plumbing shared by the dbsherlock and dbsherlockd binaries:
// one flag parser and one exit-code policy (the README's exit-code table).

#include <map>
#include <string>

#include "common/status.h"

namespace dbsherlock::common {

/// Minimal `--flag value` argument map; a bare `--flag` reads as "true".
/// A positional argument, or a number that does not parse, exits 2 (usage).
class Args {
 public:
  /// Parses argv[first, argc).
  Args(int argc, char** argv, int first);

  std::string Get(const std::string& name,
                  const std::string& fallback = "") const;
  double GetDouble(const std::string& name, double fallback) const;
  bool Has(const std::string& name) const { return values_.contains(name); }

 private:
  std::map<std::string, std::string> values_;
};

/// Exit code for a failed Status: one distinct code per StatusCode so
/// scripts can branch on the failure class without parsing stderr.
/// (0 = success, 1 = generic failure, 2 = usage; documented in README.)
int ExitCodeFor(const Status& status);

/// Prints "error: <status>" to stderr and exits with ExitCodeFor(status).
[[noreturn]] void Die(const Status& status);

}  // namespace dbsherlock::common

#endif  // DBSHERLOCK_COMMON_CLI_H_
