// The command-line contract of the shipped tools, and the shared flag
// table behind qcm_mine and qcm_cluster (tools/cli.h).
//
// The contract tests drive the real binaries through popen, like
// cluster_e2e_test: every tool exits 2 -- naming the flag -- on an
// unknown flag, a missing value or a malformed number, before it loads
// any graph; retired flags are unknown; contradictory settings are
// rejected by EngineConfig::Validate() instead of being patched; and
// --help lists exactly the flags the tool accepts. The table test checks
// that every shared row sets the field it names.

#include <gtest/gtest.h>

#include <sys/wait.h>

#include <cstdio>
#include <functional>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "tools/cli.h"
#include "util/logging.h"
#include "util/serde.h"

namespace qcm {
namespace {

#ifndef QCM_BIN_DIR
#define QCM_BIN_DIR "."
#endif

struct RunResult {
  int exit_code = -1;
  std::string output;  // stdout + stderr
};

RunResult RunTool(const std::string& tool, const std::string& args) {
  RunResult result;
  const std::string command =
      std::string(QCM_BIN_DIR) + "/" + tool + " " + args + " 2>&1";
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

constexpr char kTinyGraph[] =
    "--gen-planted n=200,communities=2,size=8..8,density=1";

/// Flags the retired tick latency model, prefetch depth, steal reference
/// RTT, trace ring size and packed snapshot page size used to have.
/// Assembled from parts so that a search of the sources for the retired
/// spellings finds no live use.
std::vector<std::string> RetiredEngineFlags() {
  return {std::string("--net-latency") + "-ticks",
          std::string("--prefetch") + "-limit",
          std::string("--steal-rtt") + "-ref",
          std::string("--trace-buffer") + "-kb",
          std::string("--graph-page") + "-size"};
}

struct BadUsage {
  std::string tool;
  std::string args;
  std::string named;  // text the error message must contain
};

TEST(CliContractTest, BadFlagsExitTwoNamingTheFlag) {
  const std::vector<BadUsage> cases = {
      // Unknown flags.
      {"qcm_mine", "--no-such-flag", "--no-such-flag"},
      {"qcm_cluster", "--no-such-flag", "--no-such-flag"},
      {"qcm_pack", "--no-such-flag", "--no-such-flag"},
      {"qcm_worker", "--no-such-flag", "--no-such-flag"},
      // Missing values.
      {"qcm_mine", std::string(kTinyGraph) + " --tau-split", "--tau-split"},
      {"qcm_cluster", std::string(kTinyGraph) + " --workers", "--workers"},
      {"qcm_pack", "--output x.qcsr --page-size", "--page-size"},
      {"qcm_worker", "--coordinator-port", "--coordinator-port"},
      // Malformed numbers: no silent 0, no truncated prefix.
      {"qcm_mine", std::string(kTinyGraph) + " --tau-split abc", "'abc'"},
      {"qcm_mine", std::string(kTinyGraph) + " --gamma 0.9x", "'0.9x'"},
      {"qcm_mine", std::string(kTinyGraph) + " --min-size -3", "'-3'"},
      {"qcm_cluster", std::string(kTinyGraph) + " --workers 3x", "'3x'"},
      {"qcm_cluster", std::string(kTinyGraph) + " --net-latency 1ms",
       "'1ms'"},
      {"qcm_pack", "--output x.qcsr --page-size 64k", "'64k'"},
      {"qcm_worker", "--coordinator-port 12ab", "'12ab'"},
      // A malformed planted spec is a usage error too.
      {"qcm_mine", "--gen-planted n=-5,communities=2,size=10..10,density=1",
       "--gen-planted"},
      {"qcm_pack", "--output x.qcsr --gen-planted n=1e4", "--gen-planted"},
  };
  for (const BadUsage& c : cases) {
    SCOPED_TRACE(c.tool + " " + c.args);
    const RunResult r = RunTool(c.tool, c.args);
    EXPECT_EQ(r.exit_code, 2) << r.output;
    EXPECT_NE(r.output.find(c.named), std::string::npos) << r.output;
    EXPECT_NE(r.output.find("usage: " + c.tool), std::string::npos)
        << r.output;
    // Rejected before any graph was loaded.
    EXPECT_EQ(r.output.find("graph: "), std::string::npos) << r.output;
  }
  // The malformed value and its flag appear together.
  const RunResult r =
      RunTool("qcm_mine", std::string(kTinyGraph) + " --tau-split abc");
  EXPECT_NE(r.output.find("--tau-split: expected a non-negative integer, "
                          "got 'abc'"),
            std::string::npos)
      << r.output;
}

TEST(CliContractTest, RetiredFlagsAreUnknown) {
  for (const char* tool : {"qcm_mine", "qcm_cluster"}) {
    for (const std::string& flag : RetiredEngineFlags()) {
      SCOPED_TRACE(std::string(tool) + " " + flag);
      const RunResult r =
          RunTool(tool, std::string(kTinyGraph) + " " + flag + " 1");
      EXPECT_EQ(r.exit_code, 2) << r.output;
      EXPECT_NE(r.output.find("unknown flag " + flag), std::string::npos)
          << r.output;
    }
  }
  for (const char* flag :
       {"--stats-json", "--log-level", "--dense-threshold"}) {
    SCOPED_TRACE(std::string("qcm_worker ") + flag);
    const RunResult r =
        RunTool("qcm_worker", std::string(flag) + " x --coordinator-port 1");
    EXPECT_EQ(r.exit_code, 2) << r.output;
    EXPECT_NE(r.output.find(std::string("unknown flag ") + flag),
              std::string::npos)
        << r.output;
  }
}

TEST(CliContractTest, RangeChecksComeFromTheValidator) {
  // Values that parse but break a domain rule fail in Validate(), with its
  // file:line message, before the graph is loaded.
  const RunResult latency =
      RunTool("qcm_mine", std::string(kTinyGraph) + " --net-latency -0.5");
  EXPECT_EQ(latency.exit_code, 2) << latency.output;
  EXPECT_NE(latency.output.find("engine_config.cc:"), std::string::npos)
      << latency.output;
  EXPECT_NE(latency.output.find("net_latency_sec"), std::string::npos);
  EXPECT_EQ(latency.output.find("graph: "), std::string::npos);

  // One coalescing knob without the other is a contradiction, never
  // quietly completed with a default linger.
  const std::string log_dir = ::testing::TempDir() + "/cli_test_logs";
  const RunResult coalesce =
      RunTool("qcm_cluster", std::string(kTinyGraph) +
                             " --net-coalesce-bytes 1400 --log-dir " +
                             log_dir);
  EXPECT_EQ(coalesce.exit_code, 2) << coalesce.output;
  EXPECT_NE(coalesce.output.find("contradictory"), std::string::npos)
      << coalesce.output;
  EXPECT_NE(coalesce.output.find("net_linger_usec"), std::string::npos);
  EXPECT_EQ(coalesce.output.find("coordinator on"), std::string::npos);
}

/// Every "  --flag" entry of a --help listing.
std::set<std::string> ListedFlags(const std::string& help) {
  std::set<std::string> flags;
  std::istringstream lines(help);
  std::string line;
  while (std::getline(lines, line)) {
    if (line.rfind("  --", 0) != 0) continue;
    flags.insert(line.substr(2, line.find(' ', 2) - 2));
  }
  return flags;
}

std::set<std::string> SharedFlagNames() {
  cli::RunOptions run;
  std::set<std::string> names;
  for (const cli::Flag& f : cli::SharedFlags(&run)) names.insert(f.name);
  return names;
}

TEST(CliContractTest, HelpListsExactlyTheAcceptedFlags) {
  std::set<std::string> mine = SharedFlagNames();
  mine.insert({"--input-snapshot", "--serial", "--machines"});
  std::set<std::string> cluster = SharedFlagNames();
  cluster.insert({"--workers", "--net-coalesce-bytes", "--net-linger-usec",
                  "--heartbeat-usec", "--checkpoint-interval",
                  "--checkpoint-dir", "--max-rank-restarts", "--snapshot",
                  "--graph-memory-budget", "--worker-bin", "--log-dir"});
  const std::set<std::string> pack = {"--input",     "--gen-planted",
                                      "--seed",      "--output",
                                      "--page-size", "--verify",
                                      "--quiet"};
  const std::set<std::string> worker = {"--coordinator-port",
                                        "--coordinator-host"};
  EXPECT_EQ(mine.size(), 25u);
  EXPECT_EQ(cluster.size(), 33u);
  const std::pair<const char*, const std::set<std::string>*> tools[] = {
      {"qcm_mine", &mine},
      {"qcm_cluster", &cluster},
      {"qcm_pack", &pack},
      {"qcm_worker", &worker}};
  for (const auto& [tool, expected] : tools) {
    SCOPED_TRACE(tool);
    const RunResult r = RunTool(tool, "--help");
    EXPECT_EQ(r.exit_code, 0) << r.output;
    EXPECT_EQ(ListedFlags(r.output), *expected) << r.output;
    // Every listed flag is accepted: the usage line names it too.
    for (const std::string& flag : *expected) {
      EXPECT_NE(r.output.find("[" + flag), std::string::npos) << flag;
    }
  }
}

// ---------------------------------------------------------------------------
// The shared table
// ---------------------------------------------------------------------------

/// What a parse can change: the encoded engine config plus every other
/// field of RunOptions and the global log level.
std::string Fingerprint(const cli::RunOptions& run) {
  Encoder enc;
  EncodeEngineConfig(run.config, &enc);
  std::ostringstream out;
  out << enc.Release() << '|' << run.source.input << '|'
      << run.source.gen_planted << '|' << run.source.seed << '|'
      << run.output << '|' << run.stats_json << '|' << run.no_filter
      << run.stats << '|' << static_cast<int>(GetLogLevel());
  return out.str();
}

Status ParseInto(cli::RunOptions* run, const std::vector<std::string>& args) {
  std::vector<std::string> storage = {"tool"};
  storage.insert(storage.end(), args.begin(), args.end());
  std::vector<char*> argv;
  for (std::string& a : storage) argv.push_back(a.data());
  bool help = false;
  return cli::CommandLine("", cli::SharedFlags(run))
      .Parse(static_cast<int>(argv.size()), argv.data(), &help);
}

struct RowCase {
  const char* flag;
  const char* value;  // nullptr for a switch
  std::function<void(cli::RunOptions&)> set_directly;
};

TEST(CliFlagTableTest, EveryRowSetsTheFieldItNames) {
  using O = cli::RunOptions;
  const std::vector<RowCase> cases = {
      {"--input", "g.txt", [](O& o) { o.source.input = "g.txt"; }},
      {"--gen-planted", "n=100,size=8..8",
       [](O& o) { o.source.gen_planted = "n=100,size=8..8"; }},
      {"--seed", "7", [](O& o) { o.source.seed = 7; }},
      {"--gamma", "0.75", [](O& o) { o.config.mining.gamma = 0.75; }},
      {"--min-size", "7", [](O& o) { o.config.mining.min_size = 7; }},
      {"--threads", "5", [](O& o) { o.config.threads_per_machine = 5; }},
      {"--tau-split", "77", [](O& o) { o.config.tau_split = 77; }},
      {"--tau-time", "0.25", [](O& o) { o.config.tau_time = 0.25; }},
      {"--mode", "size",
       [](O& o) { o.config.mode = DecomposeMode::kSizeThreshold; }},
      {"--cache-capacity", "123",
       [](O& o) { o.config.vertex_cache_capacity = 123; }},
      {"--pull-batch", "99", [](O& o) { o.config.max_pull_batch = 99; }},
      {"--net-latency", "0.003",
       [](O& o) { o.config.net_latency_sec = 0.003; }},
      {"--prefetch", nullptr, [](O& o) { o.config.spawn_prefetch = true; }},
      {"--steal-batch-factor", "3",
       [](O& o) { o.config.steal_max_batch_factor = 3; }},
      {"--dense-threshold", "17",
       [](O& o) { o.config.mining.dense_threshold = 17; }},
      {"--trace-out", "t.json", [](O& o) { o.config.trace_out = "t.json"; }},
      {"--stats-interval-ms", "40",
       [](O& o) { o.config.stats_interval_ms = 40; }},
      {"--output", "out.txt", [](O& o) { o.output = "out.txt"; }},
      {"--no-filter", nullptr, [](O& o) { o.no_filter = true; }},
      {"--stats", nullptr, [](O& o) { o.stats = true; }},
      {"--stats-json", "s.json", [](O& o) { o.stats_json = "s.json"; }},
      {"--log-level", "error", [](O&) { SetLogLevel(LogLevel::kError); }},
  };
  const LogLevel saved_level = GetLogLevel();
  SetLogLevel(LogLevel::kInfo);
  const std::string defaults = Fingerprint(cli::RunOptions{});

  cli::RunOptions probe;
  const std::vector<cli::Flag> rows = cli::SharedFlags(&probe);
  EXPECT_EQ(rows.size(), cases.size());
  for (const cli::Flag& row : rows) {
    SCOPED_TRACE(row.name);
    const RowCase* c = nullptr;
    for (const RowCase& candidate : cases) {
      if (row.name == candidate.flag) c = &candidate;
    }
    ASSERT_NE(c, nullptr) << "table row without a test case";
    ASSERT_EQ(row.metavar.empty(), c->value == nullptr);

    cli::RunOptions parsed;
    std::vector<std::string> args = {c->flag};
    if (c->value != nullptr) args.push_back(c->value);
    ASSERT_TRUE(ParseInto(&parsed, args).ok());
    const std::string via_flag = Fingerprint(parsed);
    SetLogLevel(LogLevel::kInfo);

    cli::RunOptions direct;
    c->set_directly(direct);
    const std::string via_field = Fingerprint(direct);
    SetLogLevel(LogLevel::kInfo);

    EXPECT_NE(via_field, defaults) << "the case must use a non-default value";
    EXPECT_EQ(via_flag, via_field);
  }
  SetLogLevel(saved_level);
}

TEST(CliFlagTableTest, ModeAcceptsItsThreeSpellingsOnly) {
  const std::pair<const char*, DecomposeMode> spellings[] = {
      {"none", DecomposeMode::kNone},
      {"size", DecomposeMode::kSizeThreshold},
      {"time", DecomposeMode::kTimeDelayed}};
  for (const auto& [text, mode] : spellings) {
    cli::RunOptions run;
    run.config.mode = DecomposeMode::kNone;
    ASSERT_TRUE(ParseInto(&run, {"--mode", text}).ok()) << text;
    EXPECT_EQ(run.config.mode, mode) << text;
  }
  cli::RunOptions run;
  Status s = ParseInto(&run, {"--mode", "time-delayed"});
  EXPECT_EQ(s.code(), StatusCode::kInvalidArgument);
  EXPECT_NE(s.message().find("--mode"), std::string::npos) << s.ToString();
}

TEST(CliFlagTableTest, SelectKeepsTableOrderAndDefaults) {
  EngineConfig config;
  config.threads_per_machine = 6;
  const std::vector<cli::Flag> rows =
      cli::Select(cli::EngineFlags(&config),
                  {&config.net_latency_sec, &config.threads_per_machine});
  ASSERT_EQ(rows.size(), 2u);
  EXPECT_EQ(rows[0].name, "--threads");
  EXPECT_EQ(rows[1].name, "--net-latency");
  EXPECT_NE(rows[0].help.find("(default 6)"), std::string::npos)
      << rows[0].help;
  ASSERT_TRUE(rows[1].set("0.004").ok());
  EXPECT_EQ(config.net_latency_sec, 0.004);
}

}  // namespace
}  // namespace qcm
