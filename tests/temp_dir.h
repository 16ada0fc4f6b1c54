// Scratch directory for tests that serve with a WAL or write snapshots.
#pragma once

#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>

#include "io/snapshot_format.h"

namespace hetsched {

// Fresh directory under the test's cwd (the build tree), removed on
// destruction — WAL/snapshot files never leak between tests or runs.
class TempDir {
 public:
  explicit TempDir(const std::string& tag)
      : path_(tag + "-" + std::to_string(::getpid())) {
    std::filesystem::remove_all(path_);
    EXPECT_TRUE(io::ensure_dir(path_));
  }
  ~TempDir() { std::filesystem::remove_all(path_); }
  const std::string& path() const { return path_; }

 private:
  std::string path_;
};

}  // namespace hetsched
