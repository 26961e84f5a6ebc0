#ifndef SISG_TESTS_SUITE_DIR_H_
#define SISG_TESTS_SUITE_DIR_H_

#include <errno.h>  // program_invocation_short_name
#include <gtest/gtest.h>
#include <unistd.h>

#include <filesystem>
#include <string>
#include <system_error>

namespace sisg {

/// This process's scratch directory, `<gtest temp dir>/<binary>.<pid>`,
/// created on first use and removed when the process exits: every file a
/// suite writes lives in it, so copies of a suite running side by side (the
/// pinned-dispatch reruns, `ctest -j`) never share a path.
inline const std::string& SuiteDir() {
  struct Dir {
    pid_t owner = ::getpid();
    std::string path = ::testing::TempDir() + program_invocation_short_name +
                       "." + std::to_string(owner);
    Dir() { std::filesystem::create_directories(path); }
    ~Dir() {
      if (::getpid() != owner) return;  // a forked child exiting
      std::error_code ec;
      std::filesystem::remove_all(path, ec);
    }
  };
  static const Dir dir;
  return dir.path;
}

/// SuiteDir()/`name`, with whatever an earlier test left there removed.
inline std::string SuitePath(const std::string& name) {
  const std::string path = SuiteDir() + "/" + name;
  std::error_code ec;
  std::filesystem::remove_all(path, ec);
  return path;
}

}  // namespace sisg

#endif  // SISG_TESTS_SUITE_DIR_H_
