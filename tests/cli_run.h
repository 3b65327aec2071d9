// Runs the shipped command-line tools from the end-to-end suites and
// reads what they print. The binaries are found through QCM_BIN_DIR,
// which CMake compiles in as the build directory, so a fresh build always
// tests its own artifacts.
//
// Files a case wants kept go under ::testing::TempDir(), which honours
// gtest's TEST_TMPDIR: CI points it at a dir it uploads, so a failing
// case's worker logs, and one merged cluster trace, outlive the run.

#ifndef QCM_TESTS_CLI_RUN_H_
#define QCM_TESTS_CLI_RUN_H_

#include <dirent.h>
#include <gtest/gtest.h>
#include <limits.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <ostream>
#include <sstream>
#include <string>
#include <vector>

#ifndef QCM_BIN_DIR
#define QCM_BIN_DIR "."
#endif

namespace qcm {

struct RunResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr
};

/// Runs QCM_BIN_DIR/<tool> with `args` through the shell and captures its
/// stdout and stderr together. `env` ("NAME=value ...") prefixes the
/// command line.
inline RunResult RunTool(const std::string& tool, const std::string& args,
                         const std::string& env = "") {
  RunResult result;
  const std::string command = env + (env.empty() ? "" : " ") +
                              QCM_BIN_DIR + "/" + tool + " " + args +
                              " 2>&1";
  FILE* pipe = ::popen(command.c_str(), "r");
  if (pipe == nullptr) return result;
  char buf[4096];
  size_t n;
  while ((n = std::fread(buf, 1, sizeof(buf), pipe)) > 0) {
    result.output.append(buf, n);
  }
  const int status = ::pclose(pipe);
  result.exit_code = WIFEXITED(status) ? WEXITSTATUS(status) : -1;
  return result;
}

inline std::string ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// The 16 hex digits of the "result-digest: " line both miners print, or
/// "" without one.
inline std::string Digest(const std::string& output) {
  const std::string needle = "result-digest: ";
  const size_t pos = output.find(needle);
  if (pos == std::string::npos) return "";
  return output.substr(pos + needle.size(), 16);
}

/// The path after `label` in qcm_cluster's "(logs in D, checkpoints in D,
/// spill in D)" line, up to the next ',' or ')'.
inline std::string PrintedDir(const std::string& output,
                              const std::string& label) {
  const size_t at = output.find(label);
  if (at == std::string::npos) return "";
  const size_t begin = at + label.size();
  return output.substr(begin, output.find_first_of(",)", begin) - begin);
}

/// Every live process that holds a file under `dir` open, as "pid P:
/// PATH". A qcm_cluster worker holds its log open until it exits, so once
/// the launcher has returned, an entry under the run's log dir is a
/// worker that outlived it. Scoped to one run's dir, the check never sees
/// the workers of a test running beside it.
inline std::vector<std::string> ProcessesHoldingFilesUnder(
    const std::string& dir) {
  const std::string prefix =
      std::filesystem::weakly_canonical(dir).string() + "/";
  std::vector<std::string> holders;
  DIR* procs = ::opendir("/proc");
  if (procs == nullptr) return {"cannot list /proc"};
  while (const dirent* proc = ::readdir(procs)) {
    const std::string pid = proc->d_name;
    if (pid.find_first_not_of("0123456789") != std::string::npos) continue;
    const std::string fd_dir = "/proc/" + pid + "/fd";
    DIR* fds = ::opendir(fd_dir.c_str());
    if (fds == nullptr) continue;  // gone since the listing
    while (const dirent* fd = ::readdir(fds)) {
      char target[PATH_MAX];
      const ssize_t n = ::readlink((fd_dir + "/" + fd->d_name).c_str(),
                                   target, sizeof(target) - 1);
      if (n <= 0) continue;
      target[n] = '\0';
      if (std::string(target).rfind(prefix, 0) == 0) {
        holders.push_back("pid " + pid + ": " + target);
        break;
      }
    }
    ::closedir(fds);
  }
  ::closedir(procs);
  return holders;
}

/// A network model every digest-parity case runs under: instant delivery,
/// and CommFabric's modelled 2 ms latency, whose asynchronous delivery
/// path the instant one skips. `flags` is appended to every miner run.
struct NetModel {
  const char* name;
  const char* flags;
};

inline constexpr NetModel kNetModels[] = {
    {"instant", ""},
    {"latency", " --net-latency 0.002"},
};

inline std::string NetModelName(
    const ::testing::TestParamInfo<NetModel>& info) {
  return info.param.name;
}

inline void PrintTo(const NetModel& model, std::ostream* os) {
  *os << model.name;
}

}  // namespace qcm

#endif  // QCM_TESTS_CLI_RUN_H_
