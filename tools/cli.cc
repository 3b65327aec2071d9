#include "tools/cli.h"

#include <cstdlib>
#include <cstring>
#include <utility>

#include "graph/generators.h"
#include "util/logging.h"
#include "util/mem.h"

namespace qcm::cli {

namespace {

/// Appends `words` to `out`, breaking lines before column 79 and
/// indenting continuation lines by `indent` spaces.
void Wrap(const std::string& words, size_t indent, size_t column,
          std::string* out) {
  size_t pos = 0;
  while (pos < words.size()) {
    size_t end = words.find(' ', pos);
    if (end == std::string::npos) end = words.size();
    const size_t len = end - pos;
    if (column > indent && column + 1 + len > 78) {
      *out += "\n" + std::string(indent, ' ');
      column = indent;
    } else if (column > indent) {
      *out += ' ';
      ++column;
    }
    out->append(words, pos, len);
    column += len;
    pos = end + 1;
  }
}

/// "--flag METAVAR", or "--flag" for a switch.
std::string Synopsis(const Flag& f) {
  return f.metavar.empty() ? f.name : f.name + " " + f.metavar;
}

}  // namespace

Flag Text(const char* name, const char* metavar, std::string* field,
          const char* help) {
  std::string text = help;
  if (!field->empty()) text += " (default " + *field + ")";
  return {name, metavar, text, field, [field](const std::string& v) {
            *field = v;
            return Status::OK();
          }};
}

Flag Switch(const char* name, bool* field, const char* help) {
  return {name, "", help, field, [field](const std::string&) {
            *field = true;
            return Status::OK();
          }};
}

std::vector<Flag> Select(const std::vector<Flag>& flags,
                         std::initializer_list<const void*> targets) {
  std::vector<Flag> out;
  for (const Flag& f : flags) {
    for (const void* t : targets) {
      if (f.target == t) out.push_back(f);
    }
  }
  return out;
}

std::vector<Flag> GraphSourceFlags(GraphSource* source) {
  return {
      Text("--input", "PATH", &source->input,
           "SNAP edge list ('#' comments, \"u v\" lines)"),
      {"--gen-planted", "SPEC",
       "synthetic planted-community graph, comma-separated n=, "
       "communities=, size=LO..HI, density=, overlap=, edges= (ER "
       "background)",
       &source->gen_planted,
       [source](const std::string& v) {
         QCM_RETURN_IF_ERROR(ParsePlantedSpec(v, source->seed).status());
         source->gen_planted = v;
         return Status::OK();
       }},
      Number("--seed", "N", &source->seed, "generator seed"),
  };
}

Status CheckGraphSource(const GraphSource& source, const char* snapshot_flag,
                        const std::string& snapshot) {
  const int sources = !source.input.empty() + !source.gen_planted.empty() +
                      !snapshot.empty();
  if (sources != 1) {
    const std::string flags =
        snapshot_flag == nullptr
            ? "--input / --gen-planted"
            : "--input / " + std::string(snapshot_flag) + " / --gen-planted";
    return Status::InvalidArgument("exactly one of " + flags +
                                   " is required");
  }
  return Status::OK();
}

StatusOr<LoadedGraph> LoadGraphSource(const GraphSource& source,
                                      uint32_t min_degree) {
  if (!source.input.empty()) return LoadEdgeList(source.input, min_degree);
  auto spec = ParsePlantedSpec(source.gen_planted, source.seed);
  if (!spec.ok()) return spec.status();
  LoadedGraph loaded;
  QCM_ASSIGN_OR_RETURN(loaded.graph, GenPlantedCommunities(*spec));
  return loaded;
}

KCore MinedKCore(Graph graph, const EngineConfig& config, bool stats) {
  const uint64_t load_peak = stats ? PeakRssBytes() : 0;
  const uint32_t input_vertices = graph.NumVertices();
  const uint64_t input_edges = graph.NumEdges();
  KCore compact = CompactKCore(graph, config.mining.MinDegreeK());
  // Freed first, so the ordering step's two cores never sit beside it.
  graph = Graph();
  KCore core = OrderByDegeneracy(std::move(compact));
  if (stats) {
    std::fprintf(stderr,
                 "k-core: %u of %u vertices, %llu of %llu edges, "
                 "degeneracy %u\n",
                 core.graph.NumVertices(), input_vertices,
                 static_cast<unsigned long long>(core.graph.NumEdges()),
                 static_cast<unsigned long long>(input_edges),
                 core.degeneracy);
    std::fprintf(stderr, "memory: peak RSS %s after load, %s after k-core\n",
                 HumanBytes(load_peak).c_str(),
                 HumanBytes(PeakRssBytes()).c_str());
  }
  return core;
}

Flag OutputFlag(std::string* path, const char* help) {
  return Text("--output", "PATH", path, help);
}

std::vector<Flag> EngineFlags(EngineConfig* c) {
  Flag mode{"--mode", "M",
            std::string("task decomposition: none | size | time (default ") +
                DecomposeModeName(c->mode) + ")",
            &c->mode, [c](const std::string& v) {
              for (DecomposeMode m :
                   {DecomposeMode::kNone, DecomposeMode::kSizeThreshold,
                    DecomposeMode::kTimeDelayed}) {
                if (v == DecomposeModeName(m)) {
                  c->mode = m;
                  return Status::OK();
                }
              }
              return Status::InvalidArgument(
                  "expected none, size or time, got '" + v + "'");
            }};
  return {
      Number("--gamma", "F", &c->mining.gamma,
             "minimum degree ratio gamma, in [0.5, 1]"),
      Number("--min-size", "N", &c->mining.min_size,
             "minimum result size tau_size"),
      Number("--threads", "N", &c->threads_per_machine,
             "mining threads per machine"),
      Number("--tau-split", "N", &c->tau_split,
             "a task with |ext(S)| above N is big (global queue)"),
      Number("--tau-time", "F", &c->tau_time,
             "seconds a task mines before time-delayed decomposition"),
      std::move(mode),
      Number("--cache-capacity", "N", &c->vertex_cache_capacity,
             "per-machine LRU vertex-cache entries; 0 disables caching"),
      Number("--pull-batch", "N", &c->max_pull_batch,
             "max vertex ids per batched pull"),
      Number("--net-latency", "F", &c->net_latency_sec,
             "modeled delivery delay in seconds of every cross-machine "
             "message"),
      Number("--dense-threshold", "N", &c->mining.dense_threshold,
             "task subgraphs with <= N vertices run the bitset kernels; 0 "
             "forces the scalar CSR path (results are bit-identical either "
             "way)"),
      Text("--trace-out", "PATH", &c->trace_out,
           "record a Chrome trace-event timeline (Perfetto) of the run"),
      Number("--stats-interval-ms", "N", &c->stats_interval_ms,
             "telemetry sampling cadence; 0 disables"),
  };
}

std::vector<Flag> SharedFlags(RunOptions* run) {
  std::vector<Flag> flags = GraphSourceFlags(&run->source);
  const std::vector<Flag> engine = EngineFlags(&run->config);
  flags.insert(flags.end(), engine.begin(), engine.end());
  Flag log_level{"--log-level", "L",
                 "debug | info | warning | error | off (also set by the "
                 "QCM_LOG_LEVEL environment variable; default info)",
                 nullptr, [](const std::string& v) {
                   LogLevel level;
                   if (!ParseLogLevel(v, &level)) {
                     return Status::InvalidArgument("unknown log level '" +
                                                    v + "'");
                   }
                   SetLogLevel(level);
                   return Status::OK();
                 }};
  flags.insert(flags.end(),
               {OutputFlag(&run->output,
                           "write one result per line (\"v1 v2 ...\") in "
                           "canonical order"),
                Switch("--no-filter", &run->no_filter,
                       "report raw candidates (skip the maximality filter)"),
                Switch("--stats", &run->stats,
                       "print engine and pruning statistics"),
                Text("--stats-json", "PATH", &run->stats_json,
                     "write the EngineReport as JSON ('-' = stdout)"),
                std::move(log_level)});
  return flags;
}

CommandLine::CommandLine(std::string about, std::vector<Flag> flags)
    : about_(std::move(about)), flags_(std::move(flags)) {}

Status CommandLine::Parse(int argc, char** argv, bool* help) const {
  *help = false;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    if (arg == "--help" || arg == "-h") {
      *help = true;
      return Status::OK();
    }
    const Flag* flag = nullptr;
    for (const Flag& f : flags_) {
      if (f.name == arg) flag = &f;
    }
    if (flag == nullptr) {
      return Status::InvalidArgument("unknown flag " + arg);
    }
    if (flag->metavar.empty()) {
      QCM_RETURN_IF_ERROR(flag->set(""));
      continue;
    }
    if (i + 1 >= argc) {
      return Status::InvalidArgument(arg + " requires a value (" +
                                     flag->metavar + ")");
    }
    const std::string value = argv[++i];
    if (Status s = flag->set(value); !s.ok()) {
      return Status::InvalidArgument("bad value for " + arg + ": " +
                                     s.message());
    }
  }
  return Status::OK();
}

void CommandLine::ParseOrExit(int argc, char** argv) {
  const char* slash = std::strrchr(argv[0], '/');
  tool_ = slash != nullptr ? slash + 1 : argv[0];
  bool help = false;
  if (Status s = Parse(argc, argv, &help); !s.ok()) Fail(s.message());
  if (help) {
    std::fputs(Help().c_str(), stdout);
    std::exit(0);
  }
}

void CommandLine::Fail(const std::string& message) const {
  std::fprintf(stderr, "%s: %s\n%s", tool_.c_str(), message.c_str(),
               Usage().c_str());
  std::exit(2);
}

std::string CommandLine::Usage() const {
  const std::string head = "usage: " + tool_;
  std::string out = head;
  size_t column = head.size();
  for (const Flag& f : flags_) {
    // One "[--flag VALUE]" item never breaks across lines.
    const std::string item = "[" + Synopsis(f) + "]";
    if (column + 1 + item.size() > 78) {
      out += "\n" + std::string(head.size(), ' ');
      column = head.size();
    }
    out += " " + item;
    column += 1 + item.size();
  }
  return out + "\n";
}

std::string CommandLine::Help() const {
  std::string out = Usage() + "\n";
  Wrap(about_, 0, 0, &out);
  out += "\n\nflags:\n";
  constexpr size_t kHelpColumn = 28;
  for (const Flag& f : flags_) {
    const std::string head = "  " + Synopsis(f);
    if (head.size() + 2 > kHelpColumn) {
      out += head + "\n" + std::string(kHelpColumn, ' ');
    } else {
      out += head + std::string(kHelpColumn - head.size(), ' ');
    }
    Wrap(f.help, kHelpColumn, kHelpColumn, &out);
    out += "\n";
  }
  return out;
}

}  // namespace qcm::cli
