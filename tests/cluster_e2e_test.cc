// End-to-end multi-process test (the PR's acceptance criterion): fork a
// real 3-process `qcm_cluster` run on an example graph and assert its
// maximal quasi-clique set is bit-identical -- same canonical result
// file, same digest -- to the in-process cluster of `qcm_mine`. This
// drives the actual shipped binaries (launcher, workers, TCP mesh,
// distributed termination, report merging), not a test harness replica.
//
// The binaries are located via QCM_BIN_DIR (compiled in by CMake as the
// build directory); ctest runs from there, so a fresh build always tests
// its own artifacts.

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

namespace {

#ifndef QCM_BIN_DIR
#define QCM_BIN_DIR "."
#endif

std::string BinDir() { return QCM_BIN_DIR; }

struct RunResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr
};

RunResult RunCommand(const std::string& command) {
  RunResult result;
  FILE* pipe = ::popen((command + " 2>&1").c_str(), "r");
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

std::string ReadFile(const std::string& path) {
  std::ifstream in(path);
  std::stringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

/// Extracts the "result-digest: <hex>" line both tools print.
std::string Digest(const std::string& output) {
  const std::string needle = "result-digest: ";
  const size_t pos = output.find(needle);
  if (pos == std::string::npos) return "";
  return output.substr(pos + needle.size(), 16);
}

constexpr char kGraphSpec[] =
    "n=1500,communities=5,size=9..13,density=0.95";
constexpr char kMiningFlags[] = "--gamma 0.85 --min-size 8 --seed 3";

TEST(ClusterE2ETest, ThreeProcessClusterBitIdenticalToSimulatedMode) {
  const std::string single_out = ::testing::TempDir() + "/qcm_single.txt";
  const std::string cluster_out = ::testing::TempDir() + "/qcm_cluster.txt";

  const RunResult single = RunCommand(
      BinDir() + "/qcm_mine --gen-planted " + kGraphSpec + " " +
      kMiningFlags + " --machines 3 --threads 2 --output " + single_out);
  ASSERT_EQ(single.exit_code, 0) << single.output;

  const RunResult cluster = RunCommand(
      BinDir() + "/qcm_cluster --gen-planted " + kGraphSpec + " " +
      kMiningFlags + " --workers 3 --threads 2 --output " + cluster_out);
  ASSERT_EQ(cluster.exit_code, 0) << cluster.output;

  // Same digest on stderr...
  const std::string single_digest = Digest(single.output);
  const std::string cluster_digest = Digest(cluster.output);
  ASSERT_EQ(single_digest.size(), 16u) << single.output;
  EXPECT_EQ(single_digest, cluster_digest)
      << "single:\n" << single.output << "\ncluster:\n" << cluster.output;

  // ...and byte-identical canonical result files with real content.
  const std::string single_results = ReadFile(single_out);
  const std::string cluster_results = ReadFile(cluster_out);
  ASSERT_FALSE(single_results.empty()) << single.output;
  EXPECT_EQ(single_results, cluster_results);

  std::remove(single_out.c_str());
  std::remove(cluster_out.c_str());
}

/// Pulls the integer after `"key": ` out of a stats-json blob (first
/// occurrence -- pass a search start to skip to the "merged" object).
long long JsonCounter(const std::string& json, const std::string& key,
                      size_t from = 0) {
  const std::string needle = "\"" + key + "\": ";
  const size_t pos = json.find(needle, from);
  if (pos == std::string::npos) return -1;
  return std::atoll(json.c_str() + pos + needle.size());
}

// Out-of-core acceptance: pack once with qcm_pack, hand the snapshot to a
// 3-process cluster whose per-rank adjacency budget (8 KiB) is a tiny
// fraction of the partition, and require the digest to stay bit-identical
// to resident qcm_mine while the budgeted list cache demonstrably churns
// (evictions > 0 in the merged report).
TEST(ClusterE2ETest, BudgetedSnapshotClusterBitIdenticalUnderEviction) {
  const std::string snap_path = ::testing::TempDir() + "/qcm_e2e.qcsr";
  const std::string json_path = ::testing::TempDir() + "/qcm_oocsr.json";
  const std::string log_dir = ::testing::TempDir() + "/qcm_oocsr_logs";

  const RunResult packed = RunCommand(
      BinDir() + "/qcm_pack --gen-planted " + kGraphSpec +
      " --seed 3 --page-size 4096 --verify --output " + snap_path);
  ASSERT_EQ(packed.exit_code, 0) << packed.output;

  const RunResult single = RunCommand(
      BinDir() + "/qcm_mine --gen-planted " + kGraphSpec + " " +
      kMiningFlags + " --machines 3 --threads 2");
  ASSERT_EQ(single.exit_code, 0) << single.output;

  const RunResult cluster = RunCommand(
      BinDir() + "/qcm_cluster --gen-planted " + kGraphSpec + " " +
      kMiningFlags + " --workers 3 --threads 2 --snapshot " + snap_path +
      " --graph-memory-budget 8192 --log-dir " +
      log_dir + " --stats-json " + json_path);
  ASSERT_EQ(cluster.exit_code, 0) << cluster.output;

  const std::string single_digest = Digest(single.output);
  ASSERT_EQ(single_digest.size(), 16u) << single.output;
  EXPECT_EQ(single_digest, Digest(cluster.output))
      << "single:\n" << single.output << "\ncluster:\n" << cluster.output;

  // The merged report must show lists read and evicted under the budget.
  const std::string json = ReadFile(json_path);
  const size_t merged_at = json.find("\"merged\"");
  ASSERT_NE(merged_at, std::string::npos) << json;
  EXPECT_GT(JsonCounter(json, "graph_page_ins", merged_at), 0) << json;
  EXPECT_GT(JsonCounter(json, "graph_page_evictions", merged_at), 0)
      << json;

  // Workers mapped the snapshot instead of materializing the graph.
  const std::string worker_log = ReadFile(log_dir + "/worker0.log");
  EXPECT_NE(worker_log.find("snapshot"), std::string::npos) << worker_log;
  EXPECT_NE(worker_log.find("mapped"), std::string::npos) << worker_log;

  std::remove(snap_path.c_str());
  std::remove(json_path.c_str());
}

// Same budgeted snapshot machinery, single-worker topology: the list
// cache must not depend on partitioning to stay bit-identical.
TEST(ClusterE2ETest, SingleWorkerBudgetedClusterMatchesResident) {
  const RunResult single = RunCommand(
      BinDir() + "/qcm_mine --gen-planted " + kGraphSpec + " " +
      kMiningFlags + " --machines 1 --threads 2");
  ASSERT_EQ(single.exit_code, 0) << single.output;

  const RunResult cluster = RunCommand(
      BinDir() + "/qcm_cluster --gen-planted " + kGraphSpec + " " +
      kMiningFlags + " --workers 1 --threads 2 --graph-memory-budget 8192 "
      "--stats");
  ASSERT_EQ(cluster.exit_code, 0) << cluster.output;
  // The launcher packed the graph itself (no --snapshot given), and its
  // --stats report the peak RSS of the load and of the k-core step.
  EXPECT_NE(cluster.output.find("packed"), std::string::npos)
      << cluster.output;
  EXPECT_NE(cluster.output.find("\nmemory: peak RSS "), std::string::npos)
      << cluster.output;

  const std::string single_digest = Digest(single.output);
  ASSERT_EQ(single_digest.size(), 16u) << single.output;
  EXPECT_EQ(single_digest, Digest(cluster.output))
      << "single:\n" << single.output << "\ncluster:\n" << cluster.output;
}

/// The path after `label` in the launcher's "(logs in D, checkpoints in
/// D)" line, up to the next ',' or ')'.
std::string PrintedDir(const std::string& output, const std::string& label) {
  const size_t at = output.find(label);
  if (at == std::string::npos) return "";
  const size_t begin = at + label.size();
  return output.substr(begin, output.find_first_of(",)", begin) - begin);
}

// Without --log-dir the launcher makes its own temp dir for the worker
// logs and the packed graph; a clean run removes it, as it does its own
// checkpoint dir.
TEST(ClusterE2ETest, CleanRunRemovesItsOwnDirs) {
  const RunResult cluster = RunCommand(
      BinDir() + "/qcm_cluster --gen-planted " + kGraphSpec + " " +
      kMiningFlags + " --workers 2 --threads 1");
  ASSERT_EQ(cluster.exit_code, 0) << cluster.output;
  const std::string log_dir = PrintedDir(cluster.output, "logs in ");
  const std::string ckpt_dir = PrintedDir(cluster.output, "checkpoints in ");
  ASSERT_FALSE(log_dir.empty()) << cluster.output;
  ASSERT_FALSE(ckpt_dir.empty()) << cluster.output;
  EXPECT_FALSE(std::filesystem::exists(log_dir)) << log_dir << " was left";
  EXPECT_FALSE(std::filesystem::exists(ckpt_dir)) << ckpt_dir << " was left";
}

TEST(ClusterE2ETest, StatsJsonIsEmittedAndMergesRanks) {
  const std::string json_path = ::testing::TempDir() + "/qcm_stats.json";
  const RunResult cluster = RunCommand(
      BinDir() + "/qcm_cluster --gen-planted " + kGraphSpec + " " +
      kMiningFlags + " --workers 3 --threads 1 --stats-json " + json_path);
  ASSERT_EQ(cluster.exit_code, 0) << cluster.output;
  const std::string json = ReadFile(json_path);
  EXPECT_NE(json.find("\"ranks\""), std::string::npos);
  EXPECT_NE(json.find("\"merged\""), std::string::npos);
  EXPECT_NE(json.find("\"tasks_completed\""), std::string::npos);
  EXPECT_NE(json.find("\"cache_hit_ratio\""), std::string::npos);

  // The merged raw candidate count is the ranks' total, not what is left
  // after the candidates move on to the maximality filter.
  const size_t merged_at = json.find("\"merged\"");
  ASSERT_NE(merged_at, std::string::npos) << json;
  long long rank_total = 0;
  int ranks = 0;
  for (size_t at = json.find("\"raw_result_sets\"");
       at != std::string::npos && at < merged_at;
       at = json.find("\"raw_result_sets\"", at + 1)) {
    rank_total += JsonCounter(json, "raw_result_sets", at);
    ++ranks;
  }
  EXPECT_EQ(ranks, 3) << json;
  const long long merged = JsonCounter(json, "raw_result_sets", merged_at);
  EXPECT_GT(merged, 0) << json;
  EXPECT_EQ(merged, rank_total) << json;
  std::remove(json_path.c_str());
}

// qcm_mine's --stats-json counts every candidate the kernel emitted
// (mining_emitted), those their own task's filter dropped
// (mining_subsumed), and the rest, which reach the engine's result list
// (raw_result_sets); --no-filter prints exactly the rest.
TEST(ClusterE2ETest, MineStatsJsonCountsRawCandidates) {
  const std::string json_path = ::testing::TempDir() + "/qcm_mine_stats.json";
  for (const std::string filter : {"", " --no-filter"}) {
    const RunResult mined = RunCommand(
        BinDir() + "/qcm_mine --gen-planted " + kGraphSpec + " " +
        kMiningFlags + " --machines 3 --threads 1 --stats-json " +
        json_path + filter);
    ASSERT_EQ(mined.exit_code, 0) << mined.output;
    const std::string json = ReadFile(json_path);
    const long long raw = JsonCounter(json, "raw_result_sets");
    const long long subsumed = JsonCounter(json, "mining_subsumed");
    EXPECT_GT(raw, 0) << json;
    EXPECT_GT(subsumed, 0) << json;
    EXPECT_EQ(raw + subsumed, JsonCounter(json, "mining_emitted")) << json;
    if (!filter.empty()) {
      EXPECT_NE(mined.output.find(std::to_string(raw) +
                                  " candidate quasi-cliques"),
                std::string::npos)
          << mined.output;
    }
  }
  std::remove(json_path.c_str());
}

}  // namespace
