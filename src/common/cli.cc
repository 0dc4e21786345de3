#include "common/cli.h"

#include <cstdio>
#include <cstdlib>

#include "common/strings.h"

namespace dbsherlock::common {

Args::Args(int argc, char** argv, int first) {
  for (int i = first; i < argc; ++i) {
    std::string arg = argv[i];
    if (arg.rfind("--", 0) != 0) {
      std::fprintf(stderr, "unexpected argument: %s\n", arg.c_str());
      std::exit(2);
    }
    std::string name = arg.substr(2);
    if (i + 1 < argc && std::string(argv[i + 1]).rfind("--", 0) != 0) {
      values_[name] = argv[++i];
    } else {
      values_[name] = "true";
    }
  }
}

std::string Args::Get(const std::string& name,
                      const std::string& fallback) const {
  auto it = values_.find(name);
  return it == values_.end() ? fallback : it->second;
}

double Args::GetDouble(const std::string& name, double fallback) const {
  auto it = values_.find(name);
  if (it == values_.end()) return fallback;
  auto parsed = ParseDouble(it->second);
  if (!parsed.ok()) {
    std::fprintf(stderr, "--%s: %s\n", name.c_str(),
                 parsed.status().ToString().c_str());
    std::exit(2);
  }
  return *parsed;
}

int ExitCodeFor(const Status& status) {
  switch (status.code()) {
    case StatusCode::kOk: return 0;
    case StatusCode::kInvalidArgument: return 3;
    case StatusCode::kNotFound: return 4;
    case StatusCode::kOutOfRange: return 5;
    case StatusCode::kFailedPrecondition: return 6;
    case StatusCode::kIoError: return 7;
    case StatusCode::kParseError: return 8;
    case StatusCode::kDeadlineExceeded: return 10;
    case StatusCode::kResourceExhausted: return 11;
    case StatusCode::kInternal: return 9;
  }
  return 1;
}

void Die(const Status& status) {
  std::fprintf(stderr, "error: %s\n", status.ToString().c_str());
  std::exit(ExitCodeFor(status));
}

}  // namespace dbsherlock::common
