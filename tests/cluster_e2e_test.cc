// End-to-end tests of the shipped binaries: real `qcm_cluster` runs
// (launcher, qcm_worker processes, TCP mesh, distributed termination,
// report merging) next to `qcm_mine` and `qcm_pack` runs on the same
// graph. Every way of mining it -- in-process or 3-process, dense or
// scalar kernels, the serial reference miner, a packed snapshot, resident
// or budgeted out-of-core adjacency -- must yield the bit-identical
// maximal set (same digest; same canonical result file), with instant
// and with modelled 2 ms network delivery. A launcher must also leave no
// worker process and no dir of its own behind.

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <map>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "cli_run.h"
#include "graph/edge_io.h"
#include "graph/kcore.h"

namespace qcm {
namespace {

constexpr char kGraphSpec[] =
    "n=1500,communities=5,size=9..13,density=0.95";
constexpr char kMiningFlags[] = "--gamma 0.85 --min-size 8 --seed 3";
/// The k-core those flags mine: ceil(0.85 * (8 - 1)).
constexpr unsigned kCoreK = 6;

/// The suite's planted graph and mining flags.
std::string Planted() {
  return std::string("--gen-planted ") + kGraphSpec + " " + kMiningFlags;
}

/// The first line of `output` that starts with `prefix`, or "".
std::string Line(const std::string& output, const std::string& prefix) {
  std::istringstream lines(output);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind(prefix, 0) == 0) return line;
  }
  return "";
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

using Counters = std::map<std::string, long long>;

/// The "counters" objects of a --stats-json report that open in [from,
/// to), in file order.
std::vector<Counters> CounterBlocks(const std::string& json, size_t from = 0,
                                    size_t to = std::string::npos) {
  std::vector<Counters> blocks;
  const std::string open = "\"counters\": {";
  for (size_t at = json.find(open, from); at < to;
       at = json.find(open, at + 1)) {
    const size_t end = json.find('}', at);
    Counters& counters = blocks.emplace_back();
    for (size_t key = json.find('"', at + open.size()); key < end;) {
      const size_t key_end = json.find('"', key + 1);
      // Skip the `":` after the key.
      counters[json.substr(key + 1, key_end - key - 1)] =
          std::atoll(json.c_str() + key_end + 2);
      key = json.find('"', key_end + 1);
    }
  }
  return blocks;
}

std::set<std::string> Keys(const Counters& counters) {
  std::set<std::string> keys;
  for (const auto& [key, value] : counters) keys.insert(key);
  return keys;
}

/// The digest-parity cases, each run under every network model.
class ClusterParityTest : public ::testing::TestWithParam<NetModel> {
 protected:
  void SetUp() override {
    dir_ = ::testing::TempDir() + "/cluster_e2e_" + GetParam().name;
    std::filesystem::create_directories(dir_);
  }

  /// Runs `tool` on `args` under this case's network model.
  RunResult Run(const std::string& tool, const std::string& args) const {
    return RunTool(tool, args + GetParam().flags);
  }

  /// The case's own dir under TempDir(); its worker logs stay there.
  std::string dir_;
};

// One maximal set, however it is mined: qcm_mine's in-process cluster
// (dense kernels, then scalar ones), its serial reference miner, both
// again from a qcm_pack snapshot, a real 3-process qcm_cluster (dense,
// then scalar), and that cluster on the snapshot with an 8 KiB adjacency
// budget per rank all print the same digest, and the two resident
// clusters write the same canonical result file.
TEST_P(ClusterParityTest, EveryDeploymentMinesTheBitIdenticalSet) {
  const std::string single_out = dir_ + "/single.txt";
  const RunResult single =
      Run("qcm_mine", Planted() + " --machines 3 --threads 2 --stats "
                                  "--output " + single_out);
  ASSERT_EQ(single.exit_code, 0) << single.output;
  const std::string digest = Digest(single.output);
  ASSERT_EQ(digest.size(), 16u) << single.output;
  // The default run engages the word-parallel dense kernels, so the
  // scalar run below compares two kernel paths, not one with itself.
  unsigned long long dense_tasks = 0;
  EXPECT_EQ(std::sscanf(Line(single.output, "kernels: ").c_str(),
                        "kernels: %llu dense", &dense_tasks),
            1)
      << single.output;
  EXPECT_GT(dense_tasks, 0u) << single.output;
  // --stats reports the peak RSS after the load and after the k-core.
  EXPECT_TRUE(std::regex_match(
      Line(single.output, "memory: "),
      std::regex(R"(memory: peak RSS \d+\.\d [KMGT]?B after load, )"
                 R"(\d+\.\d [KMGT]?B after k-core)")))
      << single.output;
  // The engine mined in degeneracy order, and every set it mapped back to
  // the input's ids arrived sorted: none needed a re-sort, which Release
  // builds would otherwise do without a word.
  EXPECT_NE(Line(single.output, "canonicalize: ").find(", 0 re-sorted,"),
            std::string::npos)
      << single.output;

  const std::string snapshot = dir_ + "/graph.qcsr";
  const RunResult packed = RunTool(
      "qcm_pack", std::string("--gen-planted ") + kGraphSpec +
                      " --seed 3 --verify --output " + snapshot);
  ASSERT_EQ(packed.exit_code, 0) << packed.output;
  const std::string from_snapshot = "--input-snapshot " + snapshot +
                                    " --gamma 0.85 --min-size 8";
  std::vector<std::string> mine_args = {
      Planted() + " --machines 3 --threads 2 --dense-threshold 0",
      from_snapshot + " --machines 3 --threads 2"};
  // The serial miner never touches the fabric: one network model covers it.
  if (std::string(GetParam().flags).empty()) {
    mine_args.push_back(Planted() + " --serial");
    mine_args.push_back(from_snapshot + " --serial");
  }
  for (const std::string& args : mine_args) {
    SCOPED_TRACE(args);
    const RunResult mined = Run("qcm_mine", args);
    ASSERT_EQ(mined.exit_code, 0) << mined.output;
    EXPECT_EQ(Digest(mined.output), digest) << mined.output;
  }

  const std::string log_dir = dir_ + "/logs";
  const std::string cluster_out = dir_ + "/cluster.txt";
  const std::string json_path = dir_ + "/stats.json";
  const std::string cluster_args = Planted() +
                                   " --workers 3 --threads 2 --log-dir " +
                                   log_dir;
  const RunResult cluster =
      Run("qcm_cluster", cluster_args + " --stats --stats-json " +
                             json_path + " --output " + cluster_out);
  ASSERT_EQ(cluster.exit_code, 0) << cluster.output;
  EXPECT_EQ(Digest(cluster.output), digest)
      << "single:\n" << single.output << "\ncluster:\n" << cluster.output;
  const std::string single_results = ReadFile(single_out);
  ASSERT_FALSE(single_results.empty()) << single.output;
  EXPECT_EQ(ReadFile(cluster_out), single_results);
  // No worker outlived its launcher.
  EXPECT_EQ(ProcessesHoldingFilesUnder(log_dir), std::vector<std::string>{});

  // The launcher packed only the input's k-core, in its own compact ids:
  // fewer edges (the reduction engaged) and fewer vertices (the ids were
  // compacted) than the input, and its packed line counts that core. A
  // k-core's degeneracy is at least k.
  unsigned core_vertices = 0, input_vertices = 0, degeneracy = 0;
  unsigned long long core_edges = 0, input_edges = 0;
  ASSERT_EQ(std::sscanf(Line(cluster.output, "k-core: ").c_str(),
                        "k-core: %u of %u vertices, %llu of %llu edges, "
                        "degeneracy %u",
                        &core_vertices, &input_vertices, &core_edges,
                        &input_edges, &degeneracy),
            5)
      << cluster.output;
  EXPECT_LT(core_vertices, input_vertices) << cluster.output;
  EXPECT_LT(core_edges, input_edges) << cluster.output;
  EXPECT_GE(degeneracy, kCoreK) << cluster.output;
  EXPECT_LT(degeneracy, core_vertices) << cluster.output;
  EXPECT_NE(Line(cluster.output, "qcm_cluster: packed ")
                .find("(" + std::to_string(core_vertices) + " vertices, " +
                      std::to_string(core_edges) + " edges)"),
            std::string::npos)
      << cluster.output;

  // The report lists the three ranks' counters, then the merge's. Every
  // rank carries the merge's counter keys, and the merged task and raw
  // candidate counts are the ranks' sums.
  const std::string json = ReadFile(json_path);
  EXPECT_NE(json.find("\"cache_hit_ratio\""), std::string::npos) << json;
  const size_t ranks_at = json.find("\"ranks\": [");
  const size_t merged_at = json.find("\"merged\": {");
  ASSERT_NE(ranks_at, std::string::npos) << json;
  ASSERT_NE(merged_at, std::string::npos) << json;
  EXPECT_TRUE(CounterBlocks(json, 0, ranks_at).empty()) << json;
  const std::vector<Counters> ranks = CounterBlocks(json, ranks_at, merged_at);
  ASSERT_EQ(ranks.size(), 3u) << json;
  const std::vector<Counters> merged_blocks = CounterBlocks(json, merged_at);
  ASSERT_EQ(merged_blocks.size(), 1u) << json;
  const Counters& merged = merged_blocks[0];
  ASSERT_EQ(merged.count("tasks_completed"), 1u) << json;
  long long tasks = 0;
  for (int r = 0; r < 3; ++r) {
    EXPECT_EQ(Keys(ranks[r]), Keys(merged)) << "rank " << r;
    tasks += ranks[r].at("tasks_completed");
  }
  EXPECT_EQ(merged.at("tasks_completed"), tasks) << json;
  // The cluster line's spill count is the merged report's.
  unsigned long long cluster_tasks = 0, spilled = 0;
  ASSERT_EQ(std::sscanf(Line(cluster.output, "cluster: ").c_str(),
                        "cluster: %*d workers, %llu tasks, spill %llu tasks/",
                        &cluster_tasks, &spilled),
            2)
      << cluster.output;
  EXPECT_EQ(static_cast<long long>(cluster_tasks), tasks) << cluster.output;
  ASSERT_EQ(merged.count("spilled_tasks"), 1u) << json;
  EXPECT_EQ(static_cast<long long>(spilled), merged.at("spilled_tasks"))
      << cluster.output;
  long long rank_candidates = 0;
  int rank_reports = 0;
  for (size_t at = json.find("\"raw_result_sets\"", ranks_at);
       at < merged_at; at = json.find("\"raw_result_sets\"", at + 1)) {
    rank_candidates += JsonCounter(json, "raw_result_sets", at);
    ++rank_reports;
  }
  EXPECT_EQ(rank_reports, 3) << json;
  // The merged raw candidate count is the ranks' total, not what is left
  // after the candidates move on to the maximality filter.
  const long long merged_candidates =
      JsonCounter(json, "raw_result_sets", merged_at);
  EXPECT_GT(merged_candidates, 0) << json;
  EXPECT_EQ(merged_candidates, rank_candidates) << json;
  // Every fabric message left as exactly one data frame, and a write
  // carries at most one frame.
  EXPECT_EQ(merged.at("net_flush_frames"),
            merged.at("msg_sent_pull_request") +
                merged.at("msg_sent_pull_response") +
                merged.at("msg_sent_steal_batch"))
      << json;
  EXPECT_GE(merged.at("net_flushes"), merged.at("net_flush_frames")) << json;

  const RunResult scalar =
      Run("qcm_cluster", cluster_args + " --dense-threshold 0");
  ASSERT_EQ(scalar.exit_code, 0) << scalar.output;
  EXPECT_EQ(Digest(scalar.output), digest) << scalar.output;
  EXPECT_EQ(ProcessesHoldingFilesUnder(log_dir), std::vector<std::string>{});

  // Out-of-core: the qcm_pack snapshot as the run's only graph source, and
  // a per-rank adjacency budget that is a tiny fraction of the partition.
  const std::string budgeted_logs = dir_ + "/budgeted_logs";
  const std::string budgeted_json = dir_ + "/budgeted.json";
  const RunResult budgeted = Run(
      "qcm_cluster", "--snapshot " + snapshot +
                         " --gamma 0.85 --min-size 8 --workers 3 --threads 2 "
                         "--graph-memory-budget 8192 --log-dir " +
                         budgeted_logs + " --stats-json " + budgeted_json);
  ASSERT_EQ(budgeted.exit_code, 0) << budgeted.output;
  EXPECT_EQ(Digest(budgeted.output), digest) << budgeted.output;
  EXPECT_EQ(ProcessesHoldingFilesUnder(budgeted_logs),
            std::vector<std::string>{});
  // The merged report shows lists read and evicted under the budget.
  const std::string budgeted_report = ReadFile(budgeted_json);
  const std::vector<Counters> budgeted_merged = CounterBlocks(
      budgeted_report, budgeted_report.find("\"merged\": {"));
  ASSERT_EQ(budgeted_merged.size(), 1u) << budgeted_report;
  EXPECT_GT(budgeted_merged[0].at("graph_page_ins"), 0) << budgeted_report;
  EXPECT_GT(budgeted_merged[0].at("graph_page_evictions"), 0)
      << budgeted_report;
  // Workers mapped the snapshot instead of materializing the graph.
  const std::string worker_log = ReadFile(budgeted_logs + "/worker0.log");
  EXPECT_NE(worker_log.find("snapshot"), std::string::npos) << worker_log;
  EXPECT_NE(worker_log.find("mapped"), std::string::npos) << worker_log;
}

INSTANTIATE_TEST_SUITE_P(Net, ClusterParityTest,
                         ::testing::ValuesIn(kNetModels), NetModelName);

// Same budgeted snapshot machinery, single-worker topology: the list
// cache must not depend on partitioning to stay bit-identical.
TEST(ClusterE2ETest, SingleWorkerBudgetedClusterMatchesResident) {
  const RunResult single =
      RunTool("qcm_mine", Planted() + " --machines 1 --threads 2");
  ASSERT_EQ(single.exit_code, 0) << single.output;

  const RunResult cluster = RunTool(
      "qcm_cluster", Planted() + " --workers 1 --threads 2 "
                                 "--graph-memory-budget 8192 --stats "
                                 "--log-dir " +
                         ::testing::TempDir() + "/cluster_e2e_one_worker");
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

// The engine launchers mine the k-core in degeneracy order, the serial
// miner in input order. On a file whose hub comes first in the input but
// last in the degeneracy order -- three 10-vertex near-cliques (each
// vertex misses one edge), a hub adjacent to all 30, and a tail outside
// the core -- qcm_mine's engine path, qcm_mine --serial and qcm_cluster
// still print one digest.
TEST(ClusterE2ETest, DegeneracyOrderKeepsTheDigestOfAReorderedFile) {
  const std::string path = ::testing::TempDir() + "/cluster_e2e_hub.txt";
  {
    std::ofstream out(path);
    for (int first = 1; first <= 21; first += 10) {
      for (int i = 0; i < 10; ++i) {
        out << "0 " << first + i << "\n";
        for (int j = i + 1; j < 10; ++j) {
          if (j != i + 5) out << first + i << " " << first + j << "\n";
        }
      }
    }
    for (int v = 31; v < 36; ++v) out << v - 1 << " " << v << "\n";
  }
  auto loaded = LoadEdgeList(path);
  ASSERT_TRUE(loaded.ok()) << loaded.status().ToString();
  const KCore core = OrderByDegeneracy(CompactKCore(loaded->graph, kCoreK));
  ASSERT_EQ(core.ids.size(), 31u);
  EXPECT_FALSE(std::is_sorted(core.ids.begin(), core.ids.end()));
  EXPECT_EQ(core.ids.back(), 0u) << "the hub is not last";

  const std::string flags = "--input " + path + " --gamma 0.85 --min-size 8";
  const RunResult serial = RunTool("qcm_mine", flags + " --serial");
  ASSERT_EQ(serial.exit_code, 0) << serial.output;
  const std::string digest = Digest(serial.output);
  ASSERT_EQ(digest.size(), 16u) << serial.output;
  EXPECT_NE(serial.output.find("3 maximal quasi-cliques"), std::string::npos)
      << serial.output;
  const RunResult engine =
      RunTool("qcm_mine", flags + " --machines 2 --threads 2");
  ASSERT_EQ(engine.exit_code, 0) << engine.output;
  EXPECT_EQ(Digest(engine.output), digest) << engine.output;
  const std::string log_dir = ::testing::TempDir() + "/cluster_e2e_hub_logs";
  const RunResult cluster = RunTool(
      "qcm_cluster", flags + " --workers 2 --threads 1 --log-dir " + log_dir);
  ASSERT_EQ(cluster.exit_code, 0) << cluster.output;
  EXPECT_EQ(Digest(cluster.output), digest) << cluster.output;
  EXPECT_EQ(ProcessesHoldingFilesUnder(log_dir), std::vector<std::string>{});
  std::remove(path.c_str());
}

/// Runs every way of mining an edge-list file with --gamma 0.9 --min-size
/// 6 -- qcm_mine's engine and its serial miner, qcm_cluster, and qcm_pack
/// followed by qcm_mine --input-snapshot and by qcm_cluster --snapshot --
/// and expects each to write exactly `want`, in the file's own ids, and
/// all of them to print one digest.
void ExpectEveryToolWrites(const std::string& dir, const std::string& file,
                           const std::string& want) {
  const std::string flags = " --gamma 0.9 --min-size 6";
  const std::string snapshot = dir + "/graph.qcsr";
  const RunResult packed =
      RunTool("qcm_pack", "--input " + file + " --output " + snapshot);
  ASSERT_EQ(packed.exit_code, 0) << packed.output;
  const struct {
    const char* tool;
    std::string args;
  } runs[] = {
      {"qcm_mine", "--input " + file + " --machines 2 --threads 1"},
      {"qcm_mine", "--input " + file + " --serial"},
      {"qcm_cluster", "--input " + file + " --workers 2 --threads 1"},
      {"qcm_mine", "--input-snapshot " + snapshot + " --machines 2"},
      {"qcm_cluster", "--snapshot " + snapshot + " --workers 2 --threads 1"},
  };
  std::string digest;
  for (size_t i = 0; i < std::size(runs); ++i) {
    SCOPED_TRACE(std::string(runs[i].tool) + " " + runs[i].args);
    const std::string out = dir + "/out" + std::to_string(i) + ".txt";
    const std::string logs = dir + "/logs" + std::to_string(i);
    std::string args = runs[i].args + flags + " --output " + out;
    if (std::string(runs[i].tool) == "qcm_cluster") args += " --log-dir " + logs;
    const RunResult run = RunTool(runs[i].tool, args);
    ASSERT_EQ(run.exit_code, 0) << run.output;
    EXPECT_EQ(ReadFile(out), want) << run.output;
    if (i == 0) digest = Digest(run.output);
    ASSERT_EQ(digest.size(), 16u) << run.output;
    EXPECT_EQ(Digest(run.output), digest) << run.output;
    EXPECT_EQ(ProcessesHoldingFilesUnder(logs), std::vector<std::string>{});
  }
}

// Results name the input file's own ids. In a file whose ids start at 1,
// have gaps and reach past 2^32, two planted 6-cliques -- one on ids
// 1000 .. 6000, one from 7 up to 2^64-1 -- mine as exactly those ids from
// every tool (a path from id 1 joins them but is no quasi-clique). A
// gap-free file from 1, the usual SNAP shape, prints ids from 1.
TEST(ClusterE2ETest, ResultsNameTheInputFilesOwnIds) {
  const std::string dir = ::testing::TempDir() + "/cluster_e2e_file_ids";
  std::filesystem::create_directories(dir);
  const auto write = [&](const std::string& name,
                         const std::vector<std::vector<uint64_t>>& cliques,
                         const std::vector<uint64_t>& path) {
    std::ofstream out(dir + "/" + name);
    out << "# FromNodeId\tToNodeId\n";
    for (const std::vector<uint64_t>& clique : cliques) {
      for (size_t i = 0; i < clique.size(); ++i) {
        for (size_t j = i + 1; j < clique.size(); ++j) {
          out << clique[j] << "\t" << clique[i] << "\n";
        }
      }
    }
    for (size_t i = 1; i < path.size(); ++i) {
      out << path[i - 1] << "\t" << path[i] << "\n";
    }
    return dir + "/" + name;
  };
  const std::vector<uint64_t> low = {1000, 2000, 3000, 4000, 5000, 6000};
  const std::vector<uint64_t> high = {7,
                                      (uint64_t{1} << 32) + 5,
                                      uint64_t{1} << 33,
                                      1'000'000'000'000,
                                      (uint64_t{1} << 40) + 1,
                                      UINT64_MAX};
  {
    SCOPED_TRACE("ids with gaps");
    ExpectEveryToolWrites(
        dir, write("sparse.txt", {high, low}, {1, 3, 8, 1000, 20, 7}),
        "7 4294967301 8589934592 1000000000000 1099511627777 "
        "18446744073709551615\n"
        "1000 2000 3000 4000 5000 6000\n");
  }
  {
    SCOPED_TRACE("a gap-free run from 1");
    ExpectEveryToolWrites(
        dir,
        write("run_from_one.txt", {{1, 2, 3, 4, 5, 6}, {8, 9, 10, 11, 12, 13}},
              {6, 7, 8}),
        "1 2 3 4 5 6\n8 9 10 11 12 13\n");
  }
}

// The benchmark's layer driver, built against this library: its gen and
// layers subcommands run on a small planted graph, and the digest it
// reports (the reference every timed benchmark run is checked against)
// is the one qcm_mine's engine and qcm_cluster print for the same file.
// The file's ids are 0 .. n-1, as in the benchmark's, so the driver's
// result file has qcm_mine's bytes too.
TEST(ClusterE2ETest, LayerDriverDigestMatchesTheMiners) {
  const std::string dir = ::testing::TempDir() + "/cluster_e2e_driver";
  std::filesystem::create_directories(dir);
  const std::string graph = dir + "/graph.txt";
  const RunResult gen = RunTool(
      "qcm_layer_driver",
      std::string("gen --spec ") + kGraphSpec + " --seed 3 --out " + graph);
  ASSERT_EQ(gen.exit_code, 0) << gen.output;
  const std::string mining = " --gamma 0.85 --min-size 8";
  const RunResult layers = RunTool(
      "qcm_layer_driver", "layers --input " + graph + mining +
                              " --filter-passes 2 --output " + dir +
                              "/serial.txt --pack " + dir + "/graph.qcsr");
  ASSERT_EQ(layers.exit_code, 0) << layers.output;
  const std::string digest = Digest(layers.output);
  ASSERT_EQ(digest.size(), 16u) << layers.output;
  EXPECT_NE(layers.output.find("\"digest\": \"" + digest + "\""),
            std::string::npos)
      << layers.output;

  const RunResult mine =
      RunTool("qcm_mine", "--input " + graph + mining +
                              " --machines 2 --threads 1 --output " + dir +
                              "/mine.txt");
  ASSERT_EQ(mine.exit_code, 0) << mine.output;
  EXPECT_EQ(Digest(mine.output), digest) << mine.output;
  const std::string serial = ReadFile(dir + "/serial.txt");
  EXPECT_FALSE(serial.empty());
  EXPECT_EQ(serial, ReadFile(dir + "/mine.txt"));
  const std::string logs = dir + "/logs";
  const RunResult cluster =
      RunTool("qcm_cluster", "--input " + graph + mining +
                                 " --workers 2 --threads 1 --log-dir " + logs);
  ASSERT_EQ(cluster.exit_code, 0) << cluster.output;
  EXPECT_EQ(Digest(cluster.output), digest) << cluster.output;
  EXPECT_EQ(ProcessesHoldingFilesUnder(logs), std::vector<std::string>{});
}

// Without --log-dir or --checkpoint-dir the launcher makes its own temp
// dirs for the worker logs and the packed graph, and for the checkpoints,
// and always one for the job's spill files; a clean run removes all
// three, and none of its workers outlives it.
TEST(ClusterE2ETest, CleanRunRemovesItsOwnDirs) {
  const RunResult cluster = RunTool(
      "qcm_cluster", Planted() + " --workers 2 --threads 1");
  ASSERT_EQ(cluster.exit_code, 0) << cluster.output;
  for (const char* label : {"logs in ", "checkpoints in ", "spill in "}) {
    const std::string dir = PrintedDir(cluster.output, label);
    ASSERT_FALSE(dir.empty()) << label << "\n" << cluster.output;
    EXPECT_FALSE(std::filesystem::exists(dir)) << dir << " was left";
  }
  EXPECT_EQ(ProcessesHoldingFilesUnder(PrintedDir(cluster.output, "logs in ")),
            std::vector<std::string>{});
}

// qcm_mine's --stats-json counts every candidate the kernel emitted
// (mining_emitted), those their own task's filter dropped
// (mining_subsumed), and the rest, which reach the engine's result list
// (raw_result_sets); --no-filter prints exactly the rest.
TEST(ClusterE2ETest, MineStatsJsonCountsRawCandidates) {
  const std::string json_path = ::testing::TempDir() + "/qcm_mine_stats.json";
  for (const std::string filter : {"", " --no-filter"}) {
    const RunResult mined =
        RunTool("qcm_mine", Planted() + " --machines 3 --threads 1 "
                                        "--stats-json " +
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
}  // namespace qcm
