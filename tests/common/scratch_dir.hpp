#pragma once
// A per-test state directory that cleans up after itself: created fresh
// under the system temp dir (TMPDIR is honoured) and removed, with
// everything in it, when the object goes out of scope. Declare it before
// any daemon or store that writes into it, so those stop first.
//
// Only the creating process removes the directory: a forked child that
// unwinds (or a crash-test child killed mid-write) leaves it to the parent.

#include <gtest/gtest.h>

#include <unistd.h>

#include <filesystem>
#include <string>
#include <string_view>
#include <system_error>

namespace repro::test_util {

class ScratchDir {
 public:
  /// Creates `<temp dir>/<prefix>_XXXXXX`.
  explicit ScratchDir(std::string_view prefix) : owner_(::getpid()) {
    std::string templ =
        (std::filesystem::temp_directory_path() / (std::string(prefix) + "_XXXXXX")).string();
    const char* dir = ::mkdtemp(templ.data());
    EXPECT_NE(dir, nullptr) << "mkdtemp failed for " << templ;
    path_ = templ;
  }
  ~ScratchDir() {
    if (::getpid() != owner_) return;
    std::error_code ignored;
    std::filesystem::remove_all(path_, ignored);
  }
  ScratchDir(const ScratchDir&) = delete;
  ScratchDir& operator=(const ScratchDir&) = delete;

  [[nodiscard]] const std::string& path() const noexcept { return path_; }

 private:
  std::string path_;
  pid_t owner_;
};

}  // namespace repro::test_util
