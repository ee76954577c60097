// Shared golden-file workflow for the test suites. A golden pins output that
// must not drift; an intentional change regenerates it:
//
//   DTPM_REGEN_GOLDEN=1 ./test_<suite>
//
// then commit the rewritten files with the change that caused the drift.
// DTPM_REGEN_GOLDEN=0 (or empty) means "explicitly off", not "set".
#pragma once

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

namespace dtpm::golden {

inline bool regenerating() {
  const char* flag = std::getenv("DTPM_REGEN_GOLDEN");
  return flag != nullptr && *flag != '\0' && std::string(flag) != "0";
}

/// Compares `actual` byte for byte against the text golden at `path`, or
/// rewrites the golden (and skips the test) when regenerating. `suite` names
/// the test binary in the regeneration hint.
inline void expect_text_matches(const std::string& path,
                                const std::string& actual,
                                const std::string& suite) {
  if (regenerating()) {
    std::ofstream out(path, std::ios::binary);
    ASSERT_TRUE(out.good()) << "cannot write " << path;
    out << actual;
    GTEST_SKIP() << "regenerated " << path << "; commit the new golden";
  }
  std::ifstream in(path, std::ios::binary);
  ASSERT_TRUE(in.good()) << "missing golden " << path
                         << "\nRegenerate with DTPM_REGEN_GOLDEN=1 ./" << suite;
  std::ostringstream expected;
  expected << in.rdbuf();
  EXPECT_EQ(expected.str(), actual)
      << path << " drifted.\nRegenerate with DTPM_REGEN_GOLDEN=1 ./" << suite
      << " if intentional.";
}

}  // namespace dtpm::golden
