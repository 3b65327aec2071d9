// The command-line layer of the tools: one table of the engine and mining
// flags qcm_mine and qcm_cluster share, the strict parser every tool runs
// its flag list through, generated --help, the one loader for an
// edge-list-or-planted graph source, and the k-core reduction both
// launchers apply to it.
//
// A flag row names the flag, the field it sets and its help; the field's
// value at table-build time is the default the help shows. Values go
// through ParseNumber (util/parse.h), so "--tau-split abc" exits 2 naming
// the flag and the value instead of mining with tau_split = 0. Rows only
// parse: every range and contradiction check on an engine knob lives in
// EngineConfig::Validate() / MiningOptions::Validate(), which the tools
// run before they mine.

#ifndef QCM_TOOLS_CLI_H_
#define QCM_TOOLS_CLI_H_

#include <cstdint>
#include <cstdio>
#include <functional>
#include <initializer_list>
#include <string>
#include <type_traits>
#include <vector>

#include "graph/edge_io.h"
#include "graph/kcore.h"
#include "gthinker/engine_config.h"
#include "util/parse.h"
#include "util/status.h"

namespace qcm::cli {

/// One command-line flag.
struct Flag {
  std::string name;     // as typed, leading dashes included
  std::string metavar;  // "N"; empty for a switch, which takes no value
  std::string help;     // ends in "(default ...)" for a valued field
  /// The field the row sets (null for global state such as the log
  /// level); Select() picks rows by it.
  const void* target = nullptr;
  /// Stores the parsed value; a switch is called with an empty string.
  std::function<Status(const std::string& value)> set;
};

/// A valued row that parses its text with ParseNumber into `*field`.
template <typename T>
Flag Number(const char* name, const char* metavar, T* field,
            const char* help) {
  std::string shown;
  if constexpr (std::is_floating_point_v<T>) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%g", *field);
    shown = buf;
  } else {
    shown = std::to_string(*field);
  }
  return {name, metavar, std::string(help) + " (default " + shown + ")",
          field,
          [field](const std::string& v) { return ParseNumber(v, field); }};
}

/// A valued row that stores its text verbatim.
Flag Text(const char* name, const char* metavar, std::string* field,
          const char* help);

/// A row without a value that sets `*field` to true.
Flag Switch(const char* name, bool* field, const char* help);

/// The rows of `flags` that set one of `targets`, in table order.
std::vector<Flag> Select(const std::vector<Flag>& flags,
                         std::initializer_list<const void*> targets);

/// Where a tool's graph comes from: a SNAP edge list or a
/// planted-community spec (graph/generators.h ParsePlantedSpec).
struct GraphSource {
  std::string input;
  std::string gen_planted;
  uint64_t seed = 1;
};

/// --input, --gen-planted (its spec is checked while parsing) and --seed.
std::vector<Flag> GraphSourceFlags(GraphSource* source);

/// InvalidArgument unless exactly one graph source is set: --input or
/// --gen-planted, or a tool's own snapshot flag `snapshot_flag` (whose
/// value is `snapshot`), for a tool that also reads a packed .qcsr.
Status CheckGraphSource(const GraphSource& source,
                        const char* snapshot_flag = nullptr,
                        const std::string& snapshot = "");

/// Loads the edge list, or generates the planted graph, of a source that
/// passed CheckGraphSource. original_ids maps the graph back to the edge
/// list's ids (free for a gap-free file) and is the identity for a planted
/// graph; the tools print their results through it. A `min_degree` k > 0
/// is for a caller that mines only the k-core: an edge list then loads
/// through LoadEdgeList's prefilter, which keeps every vertex but only
/// the edges that may lie in the k-core. A planted graph is whole.
StatusOr<LoadedGraph> LoadGraphSource(const GraphSource& source,
                                      uint32_t min_degree = 0);

/// The k-core the engine mines, in its own compact id space and in
/// degeneracy order (CompactKCore, then OrderByDegeneracy, graph/kcore.h),
/// k = config.mining.MinDegreeK(). `graph` is freed between the two steps.
/// With `stats`, prints "k-core: K of N vertices, E of M edges,
/// degeneracy D" and "memory: peak RSS X after load, Y after k-core" (the
/// process's VmHWM before and after the step) to stderr. N and M count
/// `graph`: for an edge list loaded with min_degree k, N is the file's
/// vertex count and M the edges its prefilter kept, not the file's.
KCore MinedKCore(Graph graph, const EngineConfig& config, bool stats);

/// --output PATH, with a tool-specific meaning.
Flag OutputFlag(std::string* path, const char* help);

/// The engine and mining knobs both launchers expose, bound to `config`.
std::vector<Flag> EngineFlags(EngineConfig* config);

/// Everything the shared table of qcm_mine and qcm_cluster sets.
struct RunOptions {
  EngineConfig config;
  GraphSource source;
  std::string output;
  std::string stats_json;
  bool no_filter = false;
  bool stats = false;
};

/// The shared table: GraphSourceFlags, EngineFlags, and the result and
/// reporting flags (--output, --no-filter, --stats, --stats-json,
/// --log-level, which applies the level as it parses).
std::vector<Flag> SharedFlags(RunOptions* run);

/// A tool's flag list plus its one-line description.
class CommandLine {
 public:
  CommandLine(std::string about, std::vector<Flag> flags);

  /// Parses argv[1..]. Sets `*help` and stops at --help / -h. An unknown
  /// flag, a missing value, or a value its row rejects is
  /// InvalidArgument naming the flag (and the value).
  Status Parse(int argc, char** argv, bool* help) const;

  /// Parse() for main(): --help prints Help() to stdout and exits 0; an
  /// error goes to Fail().
  void ParseOrExit(int argc, char** argv);

  /// Prints "<tool>: <message>" and the usage line to stderr, exits 2.
  [[noreturn]] void Fail(const std::string& message) const;

 private:
  std::string Usage() const;
  /// Usage line, description, and one line per flag.
  std::string Help() const;

  std::string tool_;
  std::string about_;
  std::vector<Flag> flags_;
};

}  // namespace qcm::cli

#endif  // QCM_TOOLS_CLI_H_
