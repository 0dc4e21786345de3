#ifndef DBSHERLOCK_TESTS_GOLDEN_H_
#define DBSHERLOCK_TESTS_GOLDEN_H_

// Byte-for-byte golden files (query_golden_test, paper_golden_test). The
// including target defines DBSHERLOCK_GOLDEN_DIR, the directory its
// goldens live in. Regenerate intentionally with DBSHERLOCK_UPDATE_GOLDEN=1.

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#ifndef DBSHERLOCK_GOLDEN_DIR
#error "build must define DBSHERLOCK_GOLDEN_DIR"
#endif

inline bool UpdateGolden() {
  const char* env = std::getenv("DBSHERLOCK_UPDATE_GOLDEN");
  return env != nullptr && env[0] != '\0' && env[0] != '0';
}

inline std::string ReadFileOrEmpty(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return "";
  std::ostringstream out;
  out << in.rdbuf();
  return out.str();
}

/// Expects `got` to equal DBSHERLOCK_GOLDEN_DIR/`name`; rewrites the file
/// instead when DBSHERLOCK_UPDATE_GOLDEN is set.
inline void CompareToGolden(const std::string& name, const std::string& got) {
  std::string path = std::string(DBSHERLOCK_GOLDEN_DIR) + "/" + name;
  if (UpdateGolden()) {
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << got;
    return;
  }
  std::string want = ReadFileOrEmpty(path);
  ASSERT_FALSE(want.empty())
      << path << " missing — regenerate with DBSHERLOCK_UPDATE_GOLDEN=1";
  EXPECT_EQ(got, want)
      << name << " drifted; if the change is intentional, regenerate with "
      << "DBSHERLOCK_UPDATE_GOLDEN=1\n--- got ---\n"
      << got;
}

#endif  // DBSHERLOCK_TESTS_GOLDEN_H_
