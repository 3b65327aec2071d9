// The command-line contract of the shipped tools, and the shared flag
// table behind qcm_mine and qcm_cluster (tools/cli.h).
//
// The contract tests drive the real binaries through popen (cli_run.h),
// like cluster_e2e_test: every tool exits 2 -- naming the flag -- on an
// unknown flag, a missing value, a malformed number or no single graph
// source, before it loads any graph; retired flags are unknown;
// contradictory settings are rejected by EngineConfig::Validate() instead
// of being patched; a results or stats file that cannot be written in
// full exits 1, and so does a launcher dir that cannot be made, before
// the load; qcm_mine prints one "graph: " line, whose counts parse,
// before its "k-core: " line; and --help lists exactly the flags the tool
// accepts. The table test checks that every shared row sets the field it
// names.

#include <gtest/gtest.h>

#include <sys/stat.h>

#include <cstdio>
#include <functional>
#include <set>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "cli_run.h"
#include "tools/cli.h"
#include "util/logging.h"
#include "util/serde.h"

namespace qcm {
namespace {

constexpr char kTinyGraph[] =
    "--gen-planted n=200,communities=2,size=8..8,density=1";

/// Flags the retired tick latency model, prefetch depth, steal reference
/// RTT, trace ring size, packed snapshot page size, spawn-time prefetch
/// and latency-scaled steal batches used to have. Assembled from parts so
/// that a search of the sources for the retired spellings finds no live
/// use.
std::vector<std::string> RetiredEngineFlags() {
  return {std::string("--net-latency") + "-ticks",
          std::string("--prefetch") + "-limit",
          std::string("--steal-rtt") + "-ref",
          std::string("--trace-buffer") + "-kb",
          std::string("--graph-page") + "-size",
          std::string("--pre") + "fetch",
          std::string("--steal-batch") + "-factor"};
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
      {"qcm_pack", "--output x.qcsr --seed", "--seed"},
      {"qcm_worker", "--coordinator-port", "--coordinator-port"},
      // Malformed numbers: no silent 0, no truncated prefix.
      {"qcm_mine", std::string(kTinyGraph) + " --tau-split abc", "'abc'"},
      {"qcm_mine", std::string(kTinyGraph) + " --gamma 0.9x", "'0.9x'"},
      {"qcm_mine", std::string(kTinyGraph) + " --min-size -3", "'-3'"},
      {"qcm_cluster", std::string(kTinyGraph) + " --workers 3x", "'3x'"},
      {"qcm_cluster", std::string(kTinyGraph) + " --net-latency 1ms",
       "'1ms'"},
      {"qcm_pack", "--output x.qcsr --seed 7x", "'7x'"},
      {"qcm_worker", "--coordinator-port 12ab", "'12ab'"},
      // A malformed planted spec is a usage error too.
      {"qcm_mine", "--gen-planted n=-5,communities=2,size=10..10,density=1",
       "--gen-planted"},
      {"qcm_pack", "--output x.qcsr --gen-planted n=1e4", "--gen-planted"},
      // Exactly one graph source; qcm_cluster's --snapshot is one.
      {"qcm_mine", "--gamma 0.9", "exactly one of --input / "
                                  "--input-snapshot / --gen-planted"},
      {"qcm_cluster", "--workers 2", "exactly one of --input / --snapshot / "
                                     "--gen-planted"},
      {"qcm_cluster", "--snapshot g.qcsr " + std::string(kTinyGraph),
       "exactly one of --input / --snapshot / --gen-planted"},
      {"qcm_pack", "--output x.qcsr", "exactly one of --input / "
                                      "--gen-planted"},
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
  // Every writer pads a packed snapshot to the one default page size.
  const std::string page_size = std::string("--page") + "-size";
  const RunResult pack = RunTool(
      "qcm_pack", std::string(kTinyGraph) + " --output x.qcsr " + page_size +
                      " 4096");
  EXPECT_EQ(pack.exit_code, 2) << pack.output;
  EXPECT_NE(pack.output.find("unknown flag " + page_size), std::string::npos)
      << pack.output;
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

  // A cluster-only knob is checked by the same validator, before any
  // worker starts.
  const std::string log_dir = ::testing::TempDir() + "/cli_test_logs";
  const RunResult checkpoint =
      RunTool("qcm_cluster", std::string(kTinyGraph) +
                             " --checkpoint-interval 0 --log-dir " + log_dir);
  EXPECT_EQ(checkpoint.exit_code, 2) << checkpoint.output;
  EXPECT_NE(checkpoint.output.find("engine_config.cc:"), std::string::npos)
      << checkpoint.output;
  EXPECT_NE(checkpoint.output.find("checkpoint_interval_sec"),
            std::string::npos);
  EXPECT_EQ(checkpoint.output.find("coordinator on"), std::string::npos);
}

TEST(CliContractTest, UnwritableTargetsExitOne) {
  // Every write to /dev/full fails with ENOSPC, usually only when stdio
  // flushes its buffer at close; no dir can be made under /dev/null.
  struct stat st {};
  ASSERT_EQ(::stat("/dev/full", &st), 0);
  ASSERT_TRUE(S_ISCHR(st.st_mode));
  const std::string snapshot = ::testing::TempDir() + "/cli_test.qcsr";
  const RunResult packed =
      RunTool("qcm_pack", std::string(kTinyGraph) + " --output " + snapshot);
  ASSERT_EQ(packed.exit_code, 0) << packed.output;
  // The two 8-cliques are the results, so the file is not empty.
  const std::string mine = std::string(kTinyGraph) + " --min-size 8";
  const std::string cluster =
      mine + " --log-dir " + ::testing::TempDir() + "/cli_test_logs";
  struct FailedRun {
    std::string tool;
    std::string args;
    std::string named;  // text the error message must contain
    bool before_load;   // the run fails before it loads or forks
  };
  const std::vector<FailedRun> cases = {
      {"qcm_mine", mine + " --output /dev/full", "error writing /dev/full",
       false},
      {"qcm_mine", mine + " --stats-json /dev/full",
       "error writing /dev/full", false},
      {"qcm_cluster", cluster + " --output /dev/full",
       "error writing /dev/full", false},
      {"qcm_cluster", cluster + " --stats-json /dev/full",
       "error writing /dev/full", false},
      {"qcm_cluster", cluster + " --checkpoint-dir /dev/null/ckpt",
       "cannot create checkpoint directory /dev/null/ckpt", true},
      {"qcm_cluster", mine + " --log-dir /dev/null/logs",
       "cannot create log directory /dev/null/logs", true},
      {"qcm_cluster",
       "--snapshot " + snapshot + " --min-size 8 --log-dir /dev/null/logs",
       "cannot create log directory /dev/null/logs", true},
  };
  for (const FailedRun& c : cases) {
    SCOPED_TRACE(c.tool + " " + c.args);
    const RunResult r = RunTool(c.tool, c.args);
    EXPECT_EQ(r.exit_code, 1) << r.output;
    EXPECT_NE(r.output.find(c.named), std::string::npos) << r.output;
    if (c.before_load) {
      EXPECT_EQ(r.output.find("packed"), std::string::npos) << r.output;
      EXPECT_EQ(r.output.find("coordinator on"), std::string::npos)
          << r.output;
    }
  }
}

/// The lines of `output` that start with `prefix`, in order, each with
/// its offset in `output`.
std::vector<std::pair<size_t, std::string>> LinesStartingWith(
    const std::string& output, const std::string& prefix) {
  std::vector<std::pair<size_t, std::string>> lines;
  for (size_t at = 0; at < output.size();) {
    size_t end = output.find('\n', at);
    if (end == std::string::npos) end = output.size();
    if (output.compare(at, prefix.size(), prefix) == 0) {
      lines.emplace_back(at, output.substr(at, end - at));
    }
    at = end + 1;
  }
  return lines;
}

// qcm_mine prints exactly one "graph: " line once its graph is loaded,
// before its "k-core: " line: the benchmark reads its setup time off that
// line. An edge list the engine mines loads through the k-core prefilter,
// so the line counts the file's vertices, its edge lines and the edges
// the prefilter kept, which the k-core line starts from; --serial loads
// the file whole and counts its edges.
TEST(CliContractTest, GraphLineComesOnceBeforeTheKCoreLine) {
  // Two 9-cliques on ids 10-18 (each edge once) and 20-28 (both ways), a
  // path 28, 30, 31, ..., 40, and a self-loop on 5: 30 ids, 120 edge
  // lines, 83 edges. The flags mine the 8-core: the two cliques.
  std::string text = "# two cliques and a tail\n5 5\n28 30\n";
  for (int a = 0; a < 9; ++a) {
    for (int b = a + 1; b < 9; ++b) {
      text += std::to_string(10 + a) + " " + std::to_string(10 + b) + "\n";
      text += std::to_string(20 + a) + " " + std::to_string(20 + b) + "\n";
      text += std::to_string(20 + b) + " " + std::to_string(20 + a) + "\n";
    }
  }
  for (int v = 30; v < 40; ++v) {
    text += std::to_string(v) + " " + std::to_string(v + 1) + "\n";
  }
  const std::string input = ::testing::TempDir() + "/cli_test_graph.txt";
  FILE* f = std::fopen(input.c_str(), "w");
  ASSERT_NE(f, nullptr) << input;
  std::fputs(text.c_str(), f);
  std::fclose(f);
  const std::string flags = "--input " + input + " --gamma 0.9 --min-size 9";

  const RunResult engine =
      RunTool("qcm_mine", flags + " --machines 2 --threads 1 --stats");
  ASSERT_EQ(engine.exit_code, 0) << engine.output;
  const auto graph_lines = LinesStartingWith(engine.output, "graph: ");
  const auto core_lines = LinesStartingWith(engine.output, "k-core: ");
  ASSERT_EQ(graph_lines.size(), 1u) << engine.output;
  ASSERT_EQ(core_lines.size(), 1u) << engine.output;
  EXPECT_LT(graph_lines[0].first, core_lines[0].first) << engine.output;
  unsigned vertices = 0, k = 0;
  unsigned long long lines = 0, kept = 0;
  ASSERT_EQ(std::sscanf(graph_lines[0].second.c_str(),
                        "graph: %u vertices, %llu edge lines, %llu kept by "
                        "the k = %u prefilter",
                        &vertices, &lines, &kept, &k),
            4)
      << engine.output;
  EXPECT_EQ(vertices, 30u);
  EXPECT_EQ(lines, 120u);
  EXPECT_EQ(kept, 72u);  // the path's edges and the self-loop are dropped
  EXPECT_EQ(k, 8u);
  unsigned core_vertices = 0, input_vertices = 0, degeneracy = 0;
  unsigned long long core_edges = 0, input_edges = 0;
  ASSERT_EQ(std::sscanf(core_lines[0].second.c_str(),
                        "k-core: %u of %u vertices, %llu of %llu edges, "
                        "degeneracy %u",
                        &core_vertices, &input_vertices, &core_edges,
                        &input_edges, &degeneracy),
            5)
      << engine.output;
  EXPECT_EQ(core_vertices, 18u);
  EXPECT_EQ(input_vertices, vertices);
  EXPECT_EQ(core_edges, 72u);
  EXPECT_EQ(input_edges, kept);
  EXPECT_EQ(degeneracy, 8u);

  const RunResult serial = RunTool("qcm_mine", flags + " --serial --stats");
  ASSERT_EQ(serial.exit_code, 0) << serial.output;
  const auto serial_lines = LinesStartingWith(serial.output, "graph: ");
  ASSERT_EQ(serial_lines.size(), 1u) << serial.output;
  unsigned long long edges = 0;
  ASSERT_EQ(std::sscanf(serial_lines[0].second.c_str(),
                        "graph: %u vertices, %llu edges", &vertices, &edges),
            2)
      << serial.output;
  EXPECT_EQ(vertices, 30u);
  EXPECT_EQ(edges, 83u);
  EXPECT_EQ(serial.output.find("edge lines"), std::string::npos);
  EXPECT_TRUE(LinesStartingWith(serial.output, "k-core: ").empty());
  EXPECT_NE(Digest(serial.output), "");
  EXPECT_EQ(Digest(serial.output), Digest(engine.output));
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
  cluster.insert({"--workers", "--checkpoint-interval", "--checkpoint-dir",
                  "--max-rank-restarts", "--snapshot", "--graph-memory-budget",
                  "--worker-bin", "--log-dir"});
  const std::set<std::string> pack = {"--input",  "--gen-planted",
                                      "--seed",   "--output",
                                      "--verify", "--quiet"};
  const std::set<std::string> worker = {"--coordinator-port",
                                        "--coordinator-host"};
  EXPECT_EQ(mine.size(), 23u);
  EXPECT_EQ(cluster.size(), 28u);
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
