// qcm_mine: command-line maximal quasi-clique miner.
//
// Load a SNAP-format edge list (or generate a synthetic graph), mine all
// maximal gamma-quasi-cliques serially or on the simulated G-thinker
// cluster, and write results / statistics.
//
// Usage:
//   qcm_mine --input graph.txt --gamma 0.9 --min-size 10 [options]
//   qcm_mine --gen-planted n=5000,communities=10,size=16..20,density=0.95
//            --gamma 0.9 --min-size 12 --machines 2 --threads 2
//
// Options:
//   --input PATH          SNAP edge list ('#' comments, "u v" lines)
//   --input-snapshot PATH qcm_pack .qcsr snapshot (checksummed binary
//                         CSR; loads without text parsing)
//   --gen-planted SPEC    synthetic planted-community graph (see below)
//   --gamma F             degree threshold in [0.5, 1]      (default 0.9)
//   --min-size N          minimum result size tau_size      (default 10)
//   --serial              single-thread reference miner
//   --machines N          simulated machines                (default 2)
//   --threads N           mining threads per machine        (default 2)
//   --tau-split N         big-task |ext(S)| threshold       (default 100)
//   --tau-time F          time-delayed timeout seconds      (default 0.01)
//   --mode M              none | size | time                (default time)
//   --cache-capacity N    per-machine LRU vertex-cache entries; 0
//                         disables caching                  (default 65536)
//   --pull-batch N        max vertex ids per batched pull   (default 2048)
//   --net-latency F       modeled delivery delay in seconds applied to
//                         every cross-machine message       (default 0)
//   --net-latency-ticks N delivery delay in destination service ticks
//                                                           (default 0)
//   --prefetch            spawn-time pull prefetch: spawned tasks request
//                         their 1-hop frontier through the fabric before
//                         first schedule (results are bit-identical with
//                         the stage on or off)              (default off)
//   --prefetch-limit N    max tasks parked in the prefetch stage per
//                         machine                           (default 64)
//   --steal-rtt-ref F     link RTT (seconds) granting the steal planner
//                         one extra batch of per-move cap   (default 1e-3)
//   --steal-batch-factor N  hard cap multiplier for latency-scaled steal
//                         batches                           (default 8)
//   --dense-threshold N   task subgraphs with <= N vertices run the
//                         word-parallel bitset kernels (adjacency bitmap
//                         rows + popcount pruning); 0 forces the scalar
//                         CSR path everywhere. Results are bit-identical
//                         either way.                       (default 4096)
//   --output PATH         write one result per line ("v1 v2 ..."), in
//                         canonical order (sets sorted lexicographically)
//   --no-filter           report raw candidates (skip maximality filter)
//   --stats               print engine/pruning statistics
//   --stats-json PATH     write the EngineReport as JSON ("-" = stdout)
//   --trace-out PATH      record a Chrome trace-event timeline of the run
//                         (load in Perfetto / chrome://tracing); tracing
//                         is off without this flag and results are
//                         bit-identical either way
//   --trace-buffer-kb N   per-thread trace ring size        (default 256)
//   --stats-interval-ms N telemetry sampling cadence; 0 disables
//                                                           (default 500)
//   --log-level L         debug|info|warning|error|off (also settable via
//                         the QCM_LOG_LEVEL env var)        (default info)
//   --seed N              generator seed                    (default 1)
//
// The stderr summary always includes "result-digest: <16 hex>" -- the
// canonical-order FNV digest of the result set, comparable across serial,
// simulated and multi-process (qcm_cluster) runs.
//
// SPEC for --gen-planted: comma-separated key=value pairs --
//   n, communities, size=LO..HI, density, overlap, edges (ER background).

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <vector>

#include "graph/csr_snapshot.h"
#include "graph/edge_io.h"
#include "graph/generators.h"
#include "mining/parallel_miner.h"
#include "quick/maximality_filter.h"
#include "quick/serial_miner.h"
#include "util/logging.h"
#include "util/mem.h"
#include "util/trace.h"

namespace {

using namespace qcm;

struct Args {
  std::string input;
  std::string input_snapshot;
  std::string gen_planted;
  double gamma = 0.9;
  uint32_t min_size = 10;
  bool serial = false;
  int machines = 2;
  int threads = 2;
  uint32_t tau_split = 100;
  double tau_time = 0.01;
  std::string mode = "time";
  size_t cache_capacity = 1 << 16;
  size_t pull_batch = 2048;
  double net_latency_sec = 0.0;
  uint64_t net_latency_ticks = 0;
  bool prefetch = false;
  size_t prefetch_limit = 64;
  double steal_rtt_ref = 1e-3;
  uint64_t steal_batch_factor = 8;
  int64_t dense_threshold = MiningOptions{}.dense_threshold;
  std::string output;
  bool no_filter = false;
  bool stats = false;
  std::string stats_json;
  std::string trace_out;
  int64_t trace_buffer_kb = EngineConfig{}.trace_buffer_kb;
  int64_t stats_interval_ms = EngineConfig{}.stats_interval_ms;
  std::string log_level;
  uint64_t seed = 1;
};

void Usage() {
  std::fprintf(stderr,
               "usage: qcm_mine (--input PATH | --input-snapshot PATH | "
               "--gen-planted SPEC)\n"
               "                [--gamma F] [--min-size N]\n"
               "                [--serial | --machines N --threads N] "
               "[--tau-split N] [--tau-time F]\n"
               "                [--mode none|size|time] [--output PATH] "
               "[--no-filter] [--stats] [--seed N]\n");
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    std::string a = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", flag);
        return nullptr;
      }
      return argv[++i];
    };
    if (a == "--input") {
      const char* v = next("--input");
      if (!v) return false;
      args->input = v;
    } else if (a == "--input-snapshot") {
      const char* v = next("--input-snapshot");
      if (!v) return false;
      args->input_snapshot = v;
    } else if (a == "--gen-planted") {
      const char* v = next("--gen-planted");
      if (!v) return false;
      args->gen_planted = v;
    } else if (a == "--gamma") {
      const char* v = next("--gamma");
      if (!v) return false;
      args->gamma = std::atof(v);
    } else if (a == "--min-size") {
      const char* v = next("--min-size");
      if (!v) return false;
      args->min_size = static_cast<uint32_t>(std::atoi(v));
    } else if (a == "--serial") {
      args->serial = true;
    } else if (a == "--machines") {
      const char* v = next("--machines");
      if (!v) return false;
      args->machines = std::atoi(v);
    } else if (a == "--threads") {
      const char* v = next("--threads");
      if (!v) return false;
      args->threads = std::atoi(v);
    } else if (a == "--tau-split") {
      const char* v = next("--tau-split");
      if (!v) return false;
      args->tau_split = static_cast<uint32_t>(std::atoi(v));
    } else if (a == "--tau-time") {
      const char* v = next("--tau-time");
      if (!v) return false;
      args->tau_time = std::atof(v);
    } else if (a == "--mode") {
      const char* v = next("--mode");
      if (!v) return false;
      args->mode = v;
    } else if (a == "--cache-capacity") {
      const char* v = next("--cache-capacity");
      if (!v) return false;
      args->cache_capacity = static_cast<size_t>(std::atoll(v));
    } else if (a == "--net-latency") {
      const char* v = next("--net-latency");
      if (!v) return false;
      args->net_latency_sec = std::atof(v);
      if (args->net_latency_sec < 0) {
        std::fprintf(stderr, "--net-latency must be >= 0\n");
        return false;
      }
    } else if (a == "--net-latency-ticks") {
      const char* v = next("--net-latency-ticks");
      if (!v) return false;
      const long long ticks = std::atoll(v);
      if (ticks < 0) {
        std::fprintf(stderr, "--net-latency-ticks must be >= 0\n");
        return false;
      }
      args->net_latency_ticks = static_cast<uint64_t>(ticks);
    } else if (a == "--pull-batch") {
      const char* v = next("--pull-batch");
      if (!v) return false;
      args->pull_batch = static_cast<size_t>(std::atoll(v));
    } else if (a == "--prefetch") {
      args->prefetch = true;
    } else if (a == "--prefetch-limit") {
      const char* v = next("--prefetch-limit");
      if (!v) return false;
      const long long limit = std::atoll(v);
      if (limit < 0) {
        std::fprintf(stderr, "--prefetch-limit must be >= 0\n");
        return false;
      }
      args->prefetch_limit = static_cast<size_t>(limit);
    } else if (a == "--steal-rtt-ref") {
      const char* v = next("--steal-rtt-ref");
      if (!v) return false;
      args->steal_rtt_ref = std::atof(v);
    } else if (a == "--steal-batch-factor") {
      const char* v = next("--steal-batch-factor");
      if (!v) return false;
      const long long factor = std::atoll(v);
      if (factor < 1) {
        std::fprintf(stderr, "--steal-batch-factor must be >= 1\n");
        return false;
      }
      args->steal_batch_factor = static_cast<uint64_t>(factor);
    } else if (a == "--dense-threshold") {
      const char* v = next("--dense-threshold");
      if (!v) return false;
      const long long threshold = std::atoll(v);
      if (threshold < 0) {
        std::fprintf(stderr,
                     "--dense-threshold must be >= 0 (0 disables the dense "
                     "bitset kernels)\n");
        return false;
      }
      args->dense_threshold = threshold;
    } else if (a == "--output") {
      const char* v = next("--output");
      if (!v) return false;
      args->output = v;
    } else if (a == "--no-filter") {
      args->no_filter = true;
    } else if (a == "--stats") {
      args->stats = true;
    } else if (a == "--stats-json") {
      const char* v = next("--stats-json");
      if (!v) return false;
      args->stats_json = v;
    } else if (a == "--trace-out") {
      const char* v = next("--trace-out");
      if (!v) return false;
      args->trace_out = v;
    } else if (a == "--trace-buffer-kb") {
      const char* v = next("--trace-buffer-kb");
      if (!v) return false;
      args->trace_buffer_kb = std::atoll(v);
      if (args->trace_buffer_kb < 1) {
        std::fprintf(stderr, "--trace-buffer-kb must be >= 1\n");
        return false;
      }
    } else if (a == "--stats-interval-ms") {
      const char* v = next("--stats-interval-ms");
      if (!v) return false;
      args->stats_interval_ms = std::atoll(v);
      if (args->stats_interval_ms < 0) {
        std::fprintf(stderr, "--stats-interval-ms must be >= 0\n");
        return false;
      }
    } else if (a == "--log-level") {
      const char* v = next("--log-level");
      if (!v) return false;
      args->log_level = v;
    } else if (a == "--seed") {
      const char* v = next("--seed");
      if (!v) return false;
      args->seed = static_cast<uint64_t>(std::atoll(v));
    } else if (a == "--help" || a == "-h") {
      Usage();
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", a.c_str());
      return false;
    }
  }
  const int sources = (args->input.empty() ? 0 : 1) +
                      (args->input_snapshot.empty() ? 0 : 1) +
                      (args->gen_planted.empty() ? 0 : 1);
  if (sources != 1) {
    std::fprintf(stderr,
                 "exactly one of --input / --input-snapshot / "
                 "--gen-planted is required\n");
    return false;
  }
  if (args->serial && !args->stats_json.empty()) {
    std::fprintf(stderr,
                 "--stats-json requires the engine (not --serial)\n");
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    Usage();
    return 2;
  }
  if (!args.log_level.empty()) {
    LogLevel level;
    if (!ParseLogLevel(args.log_level, &level)) {
      std::fprintf(stderr, "unknown --log-level %s\n",
                   args.log_level.c_str());
      return 2;
    }
    SetLogLevel(level);
  }
  if (!args.trace_out.empty()) {
    trace::Start(static_cast<size_t>(args.trace_buffer_kb));
    trace::SetThreadName("main");
  }

  // ---- Load or generate the graph. ----
  Graph graph;
  if (!args.input.empty()) {
    auto loaded = LoadEdgeList(args.input);
    if (!loaded.ok()) {
      std::fprintf(stderr, "load failed: %s\n",
                   loaded.status().ToString().c_str());
      return 1;
    }
    graph = std::move(loaded->graph);
  } else if (!args.input_snapshot.empty()) {
    // Resident load from a qcm_pack .qcsr: no text parsing, checksummed.
    auto snap = CsrSnapshot::Open(args.input_snapshot);
    if (!snap.ok()) {
      std::fprintf(stderr, "snapshot open failed: %s\n",
                   snap.status().ToString().c_str());
      return 1;
    }
    auto materialized = (*snap)->ToGraph();
    if (!materialized.ok()) {
      std::fprintf(stderr, "snapshot load failed: %s\n",
                   materialized.status().ToString().c_str());
      return 1;
    }
    graph = std::move(materialized).value();
  } else {
    auto spec = ParsePlantedSpec(args.gen_planted, args.seed);
    if (!spec.ok()) {
      std::fprintf(stderr, "%s\n", spec.status().ToString().c_str());
      return 2;
    }
    auto generated = GenPlantedCommunities(spec.value());
    if (!generated.ok()) {
      std::fprintf(stderr, "generation failed: %s\n",
                   generated.status().ToString().c_str());
      return 1;
    }
    graph = std::move(generated).value();
  }
  std::fprintf(stderr, "graph: %u vertices, %lu edges\n",
               graph.NumVertices(),
               static_cast<unsigned long>(graph.NumEdges()));

  MiningOptions mining;
  mining.gamma = args.gamma;
  mining.min_size = args.min_size;
  mining.dense_threshold = args.dense_threshold;

  std::vector<VertexSet> candidates;
  std::string stats_json;
  double seconds = 0;
  if (args.serial) {
    VectorSink sink;
    SerialMiner miner(mining);
    auto report = miner.Run(graph, &sink);
    if (!report.ok()) {
      std::fprintf(stderr, "mining failed: %s\n",
                   report.status().ToString().c_str());
      return 1;
    }
    candidates = std::move(sink.results());
    seconds = report->total_seconds;
    if (args.stats) {
      std::fprintf(stderr,
                   "serial: %lu roots, %lu search nodes, %lu candidates, "
                   "k-core %lu, build %.3f s, mine %.3f s\n",
                   static_cast<unsigned long>(report->roots_processed),
                   static_cast<unsigned long>(report->stats.nodes_explored),
                   static_cast<unsigned long>(report->stats.emitted),
                   static_cast<unsigned long>(report->kcore_size),
                   report->build_seconds, report->mine_seconds);
      std::fprintf(
          stderr,
          "kernels: %lu dense / %lu sparse tasks, %lu bitset words "
          "touched\n",
          static_cast<unsigned long>(report->stats.dense_tasks),
          static_cast<unsigned long>(report->stats.sparse_tasks),
          static_cast<unsigned long>(report->stats.bitset_words_touched));
    }
  } else {
    EngineConfig config;
    config.mining = mining;
    config.num_machines = args.machines;
    config.threads_per_machine = args.threads;
    config.tau_split = args.tau_split;
    config.tau_time = args.tau_time;
    config.vertex_cache_capacity = args.cache_capacity;
    config.max_pull_batch = args.pull_batch;
    config.net_latency_sec = args.net_latency_sec;
    config.net_latency_ticks = args.net_latency_ticks;
    config.spawn_prefetch = args.prefetch;
    config.prefetch_limit = args.prefetch_limit;
    config.steal_rtt_reference_sec = args.steal_rtt_ref;
    config.steal_max_batch_factor = args.steal_batch_factor;
    config.trace_out = args.trace_out;
    config.trace_buffer_kb = args.trace_buffer_kb;
    config.stats_interval_ms = args.stats_interval_ms;
    if (args.mode == "none") {
      config.mode = DecomposeMode::kNone;
    } else if (args.mode == "size") {
      config.mode = DecomposeMode::kSizeThreshold;
    } else if (args.mode == "time") {
      config.mode = DecomposeMode::kTimeDelayed;
    } else {
      std::fprintf(stderr, "unknown --mode %s\n", args.mode.c_str());
      return 2;
    }
    // The raw candidates are filtered once, below, like the serial ones.
    ParallelMiner miner(config);
    auto report = miner.RunUnfiltered(graph);
    if (!report.ok()) {
      std::fprintf(stderr, "mining failed: %s\n",
                   report.status().ToString().c_str());
      return 1;
    }
    seconds = report->wall_seconds;
    // Rendered while the report still holds the candidates it counts.
    if (!args.stats_json.empty()) stats_json = EngineReportJson(*report);
    candidates = std::move(report->results);
    if (args.stats) {
      const EngineReport& r = *report;
      std::fprintf(stderr,
                   "engine: %lu tasks (%lu big/%lu small), spill %lu "
                   "tasks/%s, steals %lu, cache %lu/%lu (%.1f%% hit), busy "
                   "max/min %.2f, peak RSS %s\n",
                   static_cast<unsigned long>(r.counters.tasks_completed),
                   static_cast<unsigned long>(r.counters.big_tasks),
                   static_cast<unsigned long>(r.counters.small_tasks),
                   static_cast<unsigned long>(r.counters.spilled_tasks),
                   HumanBytes(r.counters.spill_bytes_written).c_str(),
                   static_cast<unsigned long>(r.counters.stolen_tasks),
                   static_cast<unsigned long>(r.counters.cache_hits),
                   static_cast<unsigned long>(r.counters.cache_misses),
                   100.0 * r.counters.CacheHitRatio(), r.BusyImbalance(),
                   HumanBytes(r.peak_rss_bytes).c_str());
      std::fprintf(stderr,
                   "pulls: %lu suspensions, %lu rounds, %lu batches, %lu "
                   "vertices/%s pulled, %lu pin hits\n",
                   static_cast<unsigned long>(r.counters.task_suspensions),
                   static_cast<unsigned long>(r.counters.pull_rounds),
                   static_cast<unsigned long>(r.counters.pull_batches),
                   static_cast<unsigned long>(r.counters.pulled_vertices),
                   HumanBytes(r.counters.pull_bytes).c_str(),
                   static_cast<unsigned long>(r.counters.pin_hits));
      std::fprintf(
          stderr,
          "prefetch: %lu tasks staged, %lu vertices issued, %lu pins at "
          "first schedule, %lu first-round pin hits\n",
          static_cast<unsigned long>(r.counters.prefetch_tasks),
          static_cast<unsigned long>(r.counters.prefetch_issued),
          static_cast<unsigned long>(r.counters.first_schedule_pins),
          static_cast<unsigned long>(r.counters.prefetch_hits));
      const int req = static_cast<int>(MessageType::kPullRequest);
      const int resp = static_cast<int>(MessageType::kPullResponse);
      const int steal = static_cast<int>(MessageType::kStealBatch);
      std::fprintf(
          stderr,
          "comm: %lu msgs (%lu req/%lu resp/%lu steal), %s sent, "
          "mean delivery %.3f ms, overlap %.1f%%, peak in-flight %s, "
          "peak depth %lu, steal master %.3f s idle/%.3f s active\n",
          static_cast<unsigned long>(r.counters.MessagesSent()),
          static_cast<unsigned long>(r.counters.msg_sent[req]),
          static_cast<unsigned long>(r.counters.msg_sent[resp]),
          static_cast<unsigned long>(r.counters.msg_sent[steal]),
          HumanBytes(r.counters.MessageBytes()).c_str(),
          1e3 * r.counters.MeanDeliveryLatencySeconds(),
          100.0 * r.counters.MessageOverlapRatio(),
          HumanBytes(r.counters.msg_inflight_bytes_peak).c_str(),
          static_cast<unsigned long>(r.counters.msg_queue_depth_peak),
          1e-6 * static_cast<double>(r.counters.steal_idle_usec),
          1e-6 * static_cast<double>(r.counters.steal_active_usec));
      std::fprintf(
          stderr,
          "kernels: %lu dense / %lu sparse tasks, %lu bitset words "
          "touched\n",
          static_cast<unsigned long>(r.mining.dense_tasks),
          static_cast<unsigned long>(r.mining.sparse_tasks),
          static_cast<unsigned long>(r.mining.bitset_words_touched));
    }
  }

  std::vector<VertexSet> results =
      args.no_filter ? std::move(candidates)
                     : FilterMaximal(std::move(candidates));
  std::fprintf(stderr, "%zu %s quasi-cliques in %.3f s\n", results.size(),
               args.no_filter ? "candidate" : "maximal", seconds);
  // Canonical order + digest + output file, shared with qcm_cluster so
  // the two tools' bytes are comparable by construction.
  CanonicalizeStats canon;
  auto digest = EmitCanonicalResults(&results, args.output, &canon);
  if (!digest.ok()) {
    std::fprintf(stderr, "%s\n", digest.status().ToString().c_str());
    return 1;
  }
  if (args.stats) {
    std::fprintf(stderr,
                 "canonicalize: %lu sets already sorted, %lu re-sorted, "
                 "vector sort %s, ~%lu comparisons saved\n",
                 static_cast<unsigned long>(canon.sets_already_sorted),
                 static_cast<unsigned long>(canon.sets_resorted),
                 canon.vector_sort_skipped ? "skipped" : "needed",
                 static_cast<unsigned long>(canon.comparisons_saved));
  }

  if (!args.stats_json.empty()) {
    FILE* f = args.stats_json == "-" ? stdout
                                     : std::fopen(args.stats_json.c_str(),
                                                  "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s for writing\n",
                   args.stats_json.c_str());
      return 1;
    }
    std::fputs(stats_json.c_str(), f);
    if (f != stdout) std::fclose(f);
  }

  // Single-process run: the whole timeline is local, so merge straight
  // from the in-memory rings (no fragment files).
  if (!args.trace_out.empty()) {
    std::vector<std::string> events;
    const std::string drained = trace::DrainJsonLines(/*pid=*/0);
    size_t start = 0;
    while (start < drained.size()) {
      size_t end = drained.find('\n', start);
      if (end == std::string::npos) end = drained.size();
      if (end > start) events.push_back(drained.substr(start, end - start));
      start = end + 1;
    }
    Status ts = trace::MergeFragments({}, events, args.trace_out);
    if (!ts.ok()) {
      std::fprintf(stderr, "trace write failed: %s\n",
                   ts.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "trace: %s (%zu events, %lu dropped)\n",
                 args.trace_out.c_str(), events.size(),
                 static_cast<unsigned long>(trace::DroppedRecords()));
  }
  return 0;
}
