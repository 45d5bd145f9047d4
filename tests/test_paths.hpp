/// \file test_paths.hpp
/// \brief Scratch paths private to one test process. Two suites on one host
/// (a release and a sanitizer build, say) run the same tests at the same
/// time; a fixed name under the temp directory would let one delete the
/// other's files mid-test.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>

namespace felis::test {

/// `<temp dir>/<name>.<pid>`.
inline std::string scratch_path(const std::string& name) {
  return (std::filesystem::temp_directory_path() /
          (name + "." + std::to_string(::getpid())))
      .string();
}

/// scratch_path(prefix + the running test's name): one path per test.
inline std::string test_scratch_dir(const std::string& prefix) {
  return scratch_path(
      prefix + ::testing::UnitTest::GetInstance()->current_test_info()->name());
}

}  // namespace felis::test
