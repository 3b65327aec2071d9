// qcm_mine: command-line maximal quasi-clique miner.
//
// Load a SNAP-format edge list, a qcm_pack snapshot, or a synthetic
// planted-community graph, mine all maximal gamma-quasi-cliques serially
// or on the G-thinker cluster -- --machines ranks as threads of this
// process, over loopback TCP under the cluster coordinator, all serving
// the loaded graph's k-core in its own compact ids, numbered in
// degeneracy order (net/local_cluster.h, graph/kcore.h) -- and write
// results in the input's ids: the edge list's own (a gap-free file maps
// by offset, any other through one table), the snapshot's original-ids
// section, or a planted graph's ids.
//
//   qcm_mine --input graph.txt --gamma 0.9 --min-size 10
//   qcm_mine --gen-planted n=5000,communities=10,size=16..20,density=0.95
//            --gamma 0.9 --min-size 12 --machines 2 --threads 2
//
// `qcm_mine --help` lists every flag. The engine and mining flags are
// the table shared with qcm_cluster (tools/cli.h); --machines, --serial
// and --input-snapshot are this tool's own.
//
// The stderr summary always includes "result-digest: <16 hex>" -- the
// canonical-order FNV digest of the result set, comparable across serial,
// in-process and multi-process (qcm_cluster) runs -- and, once the graph
// is loaded, one "graph: " line: "N vertices, L edge lines, E kept by the
// k = K prefilter" for an edge list the engine mines, "N vertices, M
// edges" otherwise.

#include <cstdio>
#include <string>
#include <vector>

#include "graph/csr_snapshot.h"
#include "gthinker/comm.h"
#include "mining/qc_app.h"
#include "net/local_cluster.h"
#include "quick/maximality_filter.h"
#include "quick/serial_miner.h"
#include "tools/cli.h"
#include "util/mem.h"
#include "util/output.h"
#include "util/trace.h"

namespace {

using namespace qcm;

/// The graph to mine and the map from its ids to the input's, which the
/// results are printed through: the edge list's map, the snapshot's
/// original-ids section, or the identity for a planted graph. An edge list
/// loaded for a k-core (min_degree k > 0) holds only the edges its
/// prefilter kept.
StatusOr<LoadedGraph> LoadGraph(const cli::GraphSource& source,
                                const std::string& input_snapshot,
                                uint32_t min_degree) {
  if (input_snapshot.empty()) return cli::LoadGraphSource(source, min_degree);
  // Resident load from a qcm_pack .qcsr: no text parsing, checksummed.
  QCM_ASSIGN_OR_RETURN(std::shared_ptr<CsrSnapshot> snap,
                       CsrSnapshot::Open(input_snapshot));
  auto graph = snap->ToGraph();
  if (!graph.ok()) return graph.status();
  return LoadedGraph{std::move(graph).value(), snap->OriginalIds()};
}

}  // namespace

int main(int argc, char** argv) {
  cli::RunOptions run;
  run.config.num_machines = 2;
  EngineConfig& config = run.config;
  std::string input_snapshot;
  bool serial = false;
  std::vector<cli::Flag> flags = cli::SharedFlags(&run);
  flags.insert(flags.end(),
               {cli::Text("--input-snapshot", "PATH", &input_snapshot,
                          "qcm_pack .qcsr snapshot (checksummed binary CSR; "
                          "loads without text parsing)"),
                cli::Switch("--serial", &serial,
                            "single-thread reference miner"),
                cli::Number("--machines", "N", &config.num_machines,
                            "in-process ranks")});
  cli::CommandLine cmd(
      "Mines every maximal gamma-quasi-clique of one graph: exactly one of "
      "--input, --input-snapshot or --gen-planted names it.",
      std::move(flags));
  cmd.ParseOrExit(argc, argv);
  const cli::GraphSource& source = run.source;
  if (Status s =
          cli::CheckGraphSource(source, "--input-snapshot", input_snapshot);
      !s.ok()) {
    cmd.Fail(s.message());
  }
  if (serial && !run.stats_json.empty()) {
    cmd.Fail("--stats-json requires the engine (not --serial)");
  }
  if (Status valid = config.Validate(); !valid.ok()) {
    cmd.Fail("invalid configuration: " + valid.ToString());
  }
  if (!config.trace_out.empty()) {
    trace::Start(trace::kRingKb);
    trace::SetThreadName("main");
  }

  // (T1) The engine mines the k-core only: an edge list loads through the
  // k-core prefilter (--serial loads it whole), and the graph is reduced
  // below to its own compact ids in degeneracy order, then freed before
  // mining; `to_input` maps results back. (SerialMiner masks its own ego
  // builds instead, and mines in input order: the oracle order.)
  auto loaded = LoadGraph(source, input_snapshot,
                          serial ? 0 : config.mining.MinDegreeK());
  if (!loaded.ok()) {
    std::fprintf(stderr, "graph load failed: %s\n",
                 loaded.status().ToString().c_str());
    return 1;
  }
  Graph graph = std::move(loaded->graph);
  const IdMap file_ids = std::move(loaded->original_ids);
  if (loaded->prefilter_k > 0) {
    std::fprintf(stderr,
                 "graph: %u vertices, %llu edge lines, %llu kept by the "
                 "k = %u prefilter\n",
                 graph.NumVertices(),
                 static_cast<unsigned long long>(loaded->edge_lines),
                 static_cast<unsigned long long>(graph.NumEdges()),
                 loaded->prefilter_k);
  } else {
    std::fprintf(stderr, "graph: %u vertices, %lu edges\n",
                 graph.NumVertices(),
                 static_cast<unsigned long>(graph.NumEdges()));
  }
  std::vector<VertexId> to_input;
  if (!serial) {
    KCore core = cli::MinedKCore(std::move(graph), config, run.stats);
    graph = std::move(core.graph);
    to_input = std::move(core.ids);
  }

  std::vector<VertexSet> candidates;
  std::string stats_json;
  std::vector<std::string> stats_events;
  double seconds = 0;
  if (serial) {
    VectorSink sink;
    SerialMiner miner(config.mining);
    auto report = miner.Run(graph, &sink);
    if (!report.ok()) {
      std::fprintf(stderr, "mining failed: %s\n",
                   report.status().ToString().c_str());
      return 1;
    }
    candidates = std::move(sink.results());
    seconds = report->total_seconds;
    if (run.stats) {
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
    // With --trace-out, the coordinator's samples of every rank's status
    // become counter tracks (pid = rank) of the timeline.
    StatusSampler on_sample;
    if (!config.trace_out.empty()) {
      on_sample = [&](uint64_t ts_usec,
                      const std::vector<RankStatus>& statuses) {
        AppendStatsCounterEvents(ts_usec, statuses, &stats_events);
      };
    }
    // The raw candidates are filtered once, below, like the serial ones.
    QCApp app(config);
    auto report = RunLocalCluster(graph, config, &app, std::move(on_sample));
    if (!report.ok()) {
      std::fprintf(stderr, "mining failed: %s\n",
                   report.status().ToString().c_str());
      return 1;
    }
    MapToInputIds(to_input, &*report);
    seconds = report->wall_seconds;
    // Rendered while the report still holds the candidates it counts.
    if (!run.stats_json.empty()) stats_json = EngineReportJson(*report);
    candidates = std::move(report->results);
    if (run.stats) {
      const EngineReport& r = *report;
      std::fprintf(stderr,
                   "engine: %lu tasks, queue admissions %lu big/%lu small, "
                   "spill %lu tasks/%s, steals %lu, cache %lu/%lu (%.1f%% "
                   "hit), busy max/min %.2f, peak RSS %s\n",
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
      const int req = static_cast<int>(MessageType::kPullRequest);
      const int resp = static_cast<int>(MessageType::kPullResponse);
      const int steal = static_cast<int>(MessageType::kStealBatch);
      std::fprintf(
          stderr,
          "comm: %lu msgs (%lu req/%lu resp/%lu steal), %s sent, "
          "mean delivery %.3f ms, overlap %.1f%%, peak in-flight %s, "
          "peak depth %lu\n",
          static_cast<unsigned long>(r.counters.MessagesSent()),
          static_cast<unsigned long>(r.counters.msg_sent[req]),
          static_cast<unsigned long>(r.counters.msg_sent[resp]),
          static_cast<unsigned long>(r.counters.msg_sent[steal]),
          HumanBytes(r.counters.MessageBytes()).c_str(),
          1e3 * r.counters.MeanDeliveryLatencySeconds(),
          100.0 * r.counters.MessageOverlapRatio(),
          HumanBytes(r.counters.msg_inflight_bytes_peak).c_str(),
          static_cast<unsigned long>(r.counters.msg_queue_depth_peak));
      std::fprintf(
          stderr,
          "kernels: %lu dense / %lu sparse tasks, %lu bitset words "
          "touched\n",
          static_cast<unsigned long>(r.mining.dense_tasks),
          static_cast<unsigned long>(r.mining.sparse_tasks),
          static_cast<unsigned long>(r.mining.bitset_words_touched));
      std::fprintf(stderr,
                   "candidates: %lu emitted, %lu subsumed within their "
                   "task, %zu raw\n",
                   static_cast<unsigned long>(r.mining.emitted),
                   static_cast<unsigned long>(r.mining.subsumed),
                   candidates.size());
    }
  }

  std::vector<VertexSet> results =
      run.no_filter ? std::move(candidates)
                     : FilterMaximal(std::move(candidates));
  std::fprintf(stderr, "%zu %s quasi-cliques in %.3f s\n", results.size(),
               run.no_filter ? "candidate" : "maximal", seconds);
  // Canonical order + digest + output file in the input's ids, shared
  // with qcm_cluster so the two tools' bytes are comparable by
  // construction.
  CanonicalizeStats canon;
  auto digest = EmitCanonicalResults(&results, run.output, file_ids, &canon);
  if (!digest.ok()) {
    std::fprintf(stderr, "%s\n", digest.status().ToString().c_str());
    return 1;
  }
  if (run.stats) {
    std::fprintf(stderr,
                 "canonicalize: %lu sets already sorted, %lu re-sorted, "
                 "vector sort %s, ~%lu comparisons saved\n",
                 static_cast<unsigned long>(canon.sets_already_sorted),
                 static_cast<unsigned long>(canon.sets_resorted),
                 canon.vector_sort_skipped ? "skipped" : "needed",
                 static_cast<unsigned long>(canon.comparisons_saved));
  }

  if (!run.stats_json.empty()) {
    if (Status s = WriteOutput(run.stats_json, stats_json); !s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      return 1;
    }
  }

  // Single-process run: the whole timeline is local, so merge straight
  // from the in-memory rings (no fragment files).
  if (!config.trace_out.empty()) {
    StatusOr<size_t> events = trace::MergeFragments(
        {}, trace::DrainJsonLines(/*pid=*/0), stats_events,
        config.trace_out);
    if (!events.ok()) {
      std::fprintf(stderr, "trace write failed: %s\n",
                   events.status().ToString().c_str());
      return 1;
    }
    std::fprintf(stderr, "trace: %s (%zu events, %lu dropped)\n",
                 config.trace_out.c_str(), events.value(),
                 static_cast<unsigned long>(trace::DroppedRecords()));
  }
  return 0;
}
