// qcm_cluster: launcher for the real multi-process deployment.
//
// Spawns N qcm_worker processes (one per machine), distributes the run
// configuration over the wire handshake, masters load balancing,
// distributed termination detection, and rank recovery from the
// coordinator side, then merges every rank's EngineReport and raw
// candidate results, applies the maximality postprocessing once over the
// union, and prints the canonical result digest -- which must be
// bit-identical to a single-process `qcm_mine` run on the same input
// (asserted by tests/cluster_e2e_test.cc and tools/check_smoke.sh), even
// when a worker is killed mid-run and recovered from its checkpoint.
//
// Usage:
//   qcm_cluster (--input PATH | --gen-planted SPEC) --workers N
//               [--threads N] [--gamma F] [--min-size N] [--tau-split N]
//               [--tau-time F] [--mode none|size|time]
//               [--cache-capacity N] [--pull-batch N] [--net-latency F]
//               [--net-latency-ticks N]
//               [--net-coalesce-bytes N] [--net-linger-usec N]
//               [--prefetch] [--prefetch-limit N] [--steal-rtt-ref F]
//               [--steal-batch-factor N] [--dense-threshold N]
//               [--heartbeat-usec N] [--checkpoint-interval F]
//               [--checkpoint-dir DIR] [--max-rank-restarts N]
//               [--seed N] [--output PATH] [--no-filter] [--stats]
//               [--stats-json PATH] [--worker-bin PATH] [--log-dir DIR]
//               [--trace-out PATH] [--trace-buffer-kb N]
//               [--stats-interval-ms N] [--log-level L]
//               [--snapshot PATH.qcsr]
//               [--graph-memory-budget BYTES] [--graph-page-size BYTES]
//
// Graph distribution: the launcher packs the input into a .qcsr snapshot
// ONCE (<log-dir>/graph.qcsr) and ships only the path; workers mmap it
// and fault in just their partition's pages, so no rank ever materializes
// the full graph. --snapshot reuses a qcm_pack output instead, and
// --graph-memory-budget caps each rank's resident adjacency bytes
// (evicted pages refault on demand -- out-of-core mining).
//
// --trace-out records one MERGED Chrome trace-event timeline of the whole
// cluster (launcher recovery phases + every rank's spans + kStats counter
// tracks; pid = rank). Workers write <path>.rank<R>.jsonl fragments which
// the launcher stitches into <path> after the run and deletes. While the
// run is live, the kStats stream also drives a one-line telemetry ticker
// on stderr (cadence --stats-interval-ms; 0 disables both).
// --log-level sets the launcher's level; workers inherit QCM_LOG_LEVEL
// from the environment.
//
// Worker stdout/stderr are redirected to <log-dir>/worker<rank>.log
// (a replacement incarnation logs to worker<rank>.r<restart>.log so the
// dead incarnation's last words survive; default log dir: a fresh temp
// dir, path printed) so a crashed rank's story is always on disk for CI
// to upload.
//
// Fault-injection hook (CI smoke): QCM_SMOKE_KILL_RANK=<r> makes the
// launcher SIGKILL rank r's worker once it verifiably holds pending
// work, exercising the detection -> kPeerDown -> relaunch -> checkpoint
// replay -> kPeerUp recovery path end to end. The final digest must be
// identical to an uninjected run. The worker reads the same variable: in
// its first incarnation, rank r parks the comper of its first compute
// round until the kill lands, so the rank keeps pending work -- and the
// cluster cannot terminate -- until the launcher has seen it and fired.

#include <libgen.h>
#include <limits.h>
#include <sys/stat.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "graph/csr_snapshot.h"
#include "graph/edge_io.h"
#include "graph/generators.h"
#include "gthinker/metrics.h"
#include "net/coordinator.h"
#include "net/job_spec.h"
#include "quick/maximality_filter.h"
#include "util/logging.h"
#include "util/mem.h"
#include "util/serde.h"
#include "util/timer.h"
#include "util/trace.h"

namespace {

using namespace qcm;

struct Args {
  EngineConfig config;
  /// Exactly one of these names the graph the launcher packs.
  std::string input;        // SNAP edge-list path
  std::string gen_planted;  // planted-community generator spec
  uint64_t seed = 1;        // generator seed (ignored for --input)
  int workers = 3;
  std::string output;
  /// Pre-packed .qcsr to ship to workers (skips the launcher pack step).
  std::string snapshot;
  bool no_filter = false;
  bool stats = false;
  std::string stats_json;
  std::string worker_bin;
  std::string log_dir;
  std::string checkpoint_dir;
  int max_rank_restarts = 2;
  std::string mode = "time";
  /// --net-coalesce-bytes given without an explicit --net-linger-usec:
  /// the linger falls back to the classic ~100 us bound instead of
  /// tripping the linger-without-coalescing validation.
  bool linger_defaulted = false;
};

void Usage() {
  std::fprintf(stderr,
               "usage: qcm_cluster (--input PATH | --gen-planted SPEC) "
               "--workers N [--threads N]\n"
               "                   [mining/engine flags, see file header] "
               "[--output PATH]\n"
               "                   [--heartbeat-usec N] "
               "[--checkpoint-interval F] [--checkpoint-dir DIR]\n"
               "                   [--max-rank-restarts N] "
               "[--worker-bin PATH] [--log-dir DIR]\n"
               "                   [--snapshot PATH.qcsr] "
               "[--graph-memory-budget BYTES] [--graph-page-size BYTES]\n");
}

bool ParseArgs(int argc, char** argv, Args* args) {
  EngineConfig& config = args->config;
  for (int i = 1; i < argc; ++i) {
    const std::string a = argv[i];
    auto next = [&](const char* flag) -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "%s requires a value\n", flag);
        return nullptr;
      }
      return argv[++i];
    };
    const char* v = nullptr;
    if (a == "--input") {
      if ((v = next("--input")) == nullptr) return false;
      args->input = v;
    } else if (a == "--gen-planted") {
      if ((v = next("--gen-planted")) == nullptr) return false;
      args->gen_planted = v;
    } else if (a == "--workers") {
      if ((v = next("--workers")) == nullptr) return false;
      args->workers = std::atoi(v);
    } else if (a == "--threads") {
      if ((v = next("--threads")) == nullptr) return false;
      config.threads_per_machine = std::atoi(v);
    } else if (a == "--gamma") {
      if ((v = next("--gamma")) == nullptr) return false;
      config.mining.gamma = std::atof(v);
    } else if (a == "--min-size") {
      if ((v = next("--min-size")) == nullptr) return false;
      config.mining.min_size = static_cast<uint32_t>(std::atoi(v));
    } else if (a == "--dense-threshold") {
      if ((v = next("--dense-threshold")) == nullptr) return false;
      const long long threshold = std::atoll(v);
      if (threshold < 0) {
        std::fprintf(stderr,
                     "--dense-threshold must be >= 0 (0 disables the dense "
                     "bitset kernels)\n");
        return false;
      }
      config.mining.dense_threshold = threshold;
    } else if (a == "--tau-split") {
      if ((v = next("--tau-split")) == nullptr) return false;
      config.tau_split = static_cast<uint32_t>(std::atoi(v));
    } else if (a == "--tau-time") {
      if ((v = next("--tau-time")) == nullptr) return false;
      config.tau_time = std::atof(v);
    } else if (a == "--mode") {
      if ((v = next("--mode")) == nullptr) return false;
      args->mode = v;
    } else if (a == "--cache-capacity") {
      if ((v = next("--cache-capacity")) == nullptr) return false;
      config.vertex_cache_capacity = static_cast<size_t>(std::atoll(v));
    } else if (a == "--pull-batch") {
      if ((v = next("--pull-batch")) == nullptr) return false;
      config.max_pull_batch = static_cast<size_t>(std::atoll(v));
    } else if (a == "--net-latency") {
      if ((v = next("--net-latency")) == nullptr) return false;
      config.net_latency_sec = std::atof(v);
      if (config.net_latency_sec < 0) {
        std::fprintf(stderr, "--net-latency must be >= 0\n");
        return false;
      }
    } else if (a == "--net-latency-ticks") {
      if ((v = next("--net-latency-ticks")) == nullptr) return false;
      const long long ticks = std::atoll(v);
      if (ticks < 0) {
        // A blind cast would wrap to a near-infinite delay and hang the
        // cluster; reject loudly instead.
        std::fprintf(stderr, "--net-latency-ticks must be >= 0\n");
        return false;
      }
      config.net_latency_ticks = static_cast<uint64_t>(ticks);
    } else if (a == "--net-coalesce-bytes") {
      if ((v = next("--net-coalesce-bytes")) == nullptr) return false;
      config.net_coalesce_bytes = std::atoll(v);
      args->linger_defaulted = config.net_linger_usec == 0;
    } else if (a == "--net-linger-usec") {
      if ((v = next("--net-linger-usec")) == nullptr) return false;
      config.net_linger_usec = std::atoll(v);
      args->linger_defaulted = false;
    } else if (a == "--prefetch") {
      config.spawn_prefetch = true;
    } else if (a == "--prefetch-limit") {
      if ((v = next("--prefetch-limit")) == nullptr) return false;
      const long long limit = std::atoll(v);
      if (limit < 0) {
        std::fprintf(stderr, "--prefetch-limit must be >= 0\n");
        return false;
      }
      config.prefetch_limit = static_cast<size_t>(limit);
    } else if (a == "--steal-rtt-ref") {
      if ((v = next("--steal-rtt-ref")) == nullptr) return false;
      config.steal_rtt_reference_sec = std::atof(v);
    } else if (a == "--steal-batch-factor") {
      if ((v = next("--steal-batch-factor")) == nullptr) return false;
      const long long factor = std::atoll(v);
      if (factor < 1) {
        std::fprintf(stderr, "--steal-batch-factor must be >= 1\n");
        return false;
      }
      config.steal_max_batch_factor = static_cast<uint64_t>(factor);
    } else if (a == "--heartbeat-usec") {
      if ((v = next("--heartbeat-usec")) == nullptr) return false;
      const long long usec = std::atoll(v);
      if (usec < 0) {
        std::fprintf(stderr, "--heartbeat-usec must be >= 0\n");
        return false;
      }
      config.heartbeat_usec = usec;
    } else if (a == "--checkpoint-interval") {
      if ((v = next("--checkpoint-interval")) == nullptr) return false;
      config.checkpoint_interval_sec = std::atof(v);
      if (config.checkpoint_interval_sec <= 0) {
        std::fprintf(stderr, "--checkpoint-interval must be > 0\n");
        return false;
      }
    } else if (a == "--checkpoint-dir") {
      if ((v = next("--checkpoint-dir")) == nullptr) return false;
      args->checkpoint_dir = v;
    } else if (a == "--max-rank-restarts") {
      if ((v = next("--max-rank-restarts")) == nullptr) return false;
      args->max_rank_restarts = std::atoi(v);
      if (args->max_rank_restarts < 0) {
        std::fprintf(stderr, "--max-rank-restarts must be >= 0\n");
        return false;
      }
    } else if (a == "--snapshot") {
      if ((v = next("--snapshot")) == nullptr) return false;
      args->snapshot = v;
    } else if (a == "--graph-memory-budget") {
      if ((v = next("--graph-memory-budget")) == nullptr) return false;
      config.graph_memory_budget = std::atoll(v);
    } else if (a == "--graph-page-size") {
      if ((v = next("--graph-page-size")) == nullptr) return false;
      config.graph_page_size = std::atoll(v);
    } else if (a == "--seed") {
      if ((v = next("--seed")) == nullptr) return false;
      args->seed = static_cast<uint64_t>(std::atoll(v));
    } else if (a == "--output") {
      if ((v = next("--output")) == nullptr) return false;
      args->output = v;
    } else if (a == "--no-filter") {
      args->no_filter = true;
    } else if (a == "--stats") {
      args->stats = true;
    } else if (a == "--stats-json") {
      if ((v = next("--stats-json")) == nullptr) return false;
      args->stats_json = v;
    } else if (a == "--trace-out") {
      if ((v = next("--trace-out")) == nullptr) return false;
      config.trace_out = v;
    } else if (a == "--trace-buffer-kb") {
      if ((v = next("--trace-buffer-kb")) == nullptr) return false;
      config.trace_buffer_kb = std::atoll(v);
    } else if (a == "--stats-interval-ms") {
      if ((v = next("--stats-interval-ms")) == nullptr) return false;
      config.stats_interval_ms = std::atoll(v);
    } else if (a == "--log-level") {
      if ((v = next("--log-level")) == nullptr) return false;
      LogLevel level;
      if (!ParseLogLevel(v, &level)) {
        std::fprintf(stderr, "unknown --log-level %s\n", v);
        return false;
      }
      SetLogLevel(level);
    } else if (a == "--worker-bin") {
      if ((v = next("--worker-bin")) == nullptr) return false;
      args->worker_bin = v;
    } else if (a == "--log-dir") {
      if ((v = next("--log-dir")) == nullptr) return false;
      args->log_dir = v;
    } else if (a == "--help" || a == "-h") {
      Usage();
      std::exit(0);
    } else {
      std::fprintf(stderr, "unknown flag: %s\n", a.c_str());
      return false;
    }
  }
  if (args->input.empty() == args->gen_planted.empty()) {
    std::fprintf(stderr,
                 "exactly one of --input / --gen-planted is required\n");
    return false;
  }
  if (args->workers < 1 || args->workers > 64) {
    std::fprintf(stderr, "--workers must be in [1, 64]\n");
    return false;
  }
  if (args->linger_defaulted && config.net_coalesce_bytes > 0) {
    config.net_linger_usec = 100;
  }
  // NOTE: config.Validate() runs in main() AFTER the launcher pack step
  // fills in config.graph_snapshot -- validating here would flag the
  // budget-without-snapshot contradiction on every budgeted run.
  if (args->mode == "none") {
    config.mode = DecomposeMode::kNone;
  } else if (args->mode == "size") {
    config.mode = DecomposeMode::kSizeThreshold;
  } else if (args->mode == "time") {
    config.mode = DecomposeMode::kTimeDelayed;
  } else {
    std::fprintf(stderr, "unknown --mode %s\n", args->mode.c_str());
    return false;
  }
  config.num_machines = args->workers;
  return true;
}

/// Default worker binary: qcm_worker next to this executable.
std::string DefaultWorkerBin() {
  char buf[PATH_MAX];
  const ssize_t n = ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
  if (n <= 0) return "./qcm_worker";
  buf[n] = '\0';
  return std::string(::dirname(buf)) + "/qcm_worker";
}

struct WorkerProcess {
  pid_t pid = -1;
  std::string log_path;
  bool reaped = false;
  int wstatus = 0;
  /// Replacement incarnations spawned for this rank so far.
  int restarts = 0;
};

void KillAll(std::vector<WorkerProcess>* workers) {
  for (WorkerProcess& w : *workers) {
    if (w.pid > 0 && !w.reaped) ::kill(w.pid, SIGKILL);
  }
}

void PrintLogTails(const std::vector<WorkerProcess>& workers) {
  for (const WorkerProcess& w : workers) {
    std::fprintf(stderr, "---- %s ----\n", w.log_path.c_str());
    if (FILE* f = std::fopen(w.log_path.c_str(), "r")) {
      // Last 2 KiB is plenty for a crash message.
      std::fseek(f, 0, SEEK_END);
      const long size = std::ftell(f);
      std::fseek(f, size > 2048 ? size - 2048 : 0, SEEK_SET);
      char buf[2049];
      const size_t n = std::fread(buf, 1, sizeof(buf) - 1, f);
      buf[n] = '\0';
      std::fputs(buf, stderr);
      std::fclose(f);
    }
  }
}

std::string JsonEscape(const std::string& s) {
  std::string out;
  for (char c : s) {
    if (c == '"' || c == '\\') out += '\\';
    out += c;
  }
  return out;
}

}  // namespace

int main(int argc, char** argv) {
  Args args;
  if (!ParseArgs(argc, argv, &args)) {
    Usage();
    return 2;
  }
  const std::string worker_bin =
      args.worker_bin.empty() ? DefaultWorkerBin() : args.worker_bin;
  if (::access(worker_bin.c_str(), X_OK) != 0) {
    std::fprintf(stderr, "worker binary not executable: %s\n",
                 worker_bin.c_str());
    return 2;
  }
  std::string log_dir = args.log_dir;
  if (log_dir.empty()) {
    char templ[] = "/tmp/qcm_cluster_XXXXXX";
    char* dir = ::mkdtemp(templ);
    if (dir == nullptr) {
      std::fprintf(stderr, "cannot create log directory\n");
      return 1;
    }
    log_dir = dir;
  } else {
    ::mkdir(log_dir.c_str(), 0755);
  }

  // Pack the graph ONCE in the launcher and ship only the snapshot path:
  // workers mmap <log-dir>/graph.qcsr instead of each re-parsing /
  // regenerating and materializing the full graph. --snapshot reuses a
  // pre-packed file.
  EngineConfig& config = args.config;
  if (!args.snapshot.empty()) {
    config.graph_snapshot = args.snapshot;
  } else {
    WallTimer pack_timer;
    Graph full;
    std::vector<uint64_t> original_ids;
    CsrWriteOptions opts;
    opts.page_size = static_cast<uint32_t>(config.graph_page_size);
    if (!args.input.empty()) {
      auto loaded = LoadEdgeList(args.input);
      if (!loaded.ok()) {
        std::fprintf(stderr, "graph load failed: %s\n",
                     loaded.status().ToString().c_str());
        return 1;
      }
      full = std::move(loaded->graph);
      original_ids = std::move(loaded->original_ids);
    } else {
      auto parsed = ParsePlantedSpec(args.gen_planted, args.seed);
      if (!parsed.ok()) {
        std::fprintf(stderr, "bad planted spec: %s\n",
                     parsed.status().ToString().c_str());
        return 1;
      }
      auto generated = GenPlantedCommunities(parsed.value());
      if (!generated.ok()) {
        std::fprintf(stderr, "graph generation failed: %s\n",
                     generated.status().ToString().c_str());
        return 1;
      }
      full = std::move(generated).value();
      opts.build_seed = args.seed;
    }
    config.graph_snapshot = log_dir + "/graph.qcsr";
    Status packed =
        WriteCsrSnapshot(full, original_ids, config.graph_snapshot, opts);
    if (!packed.ok()) {
      std::fprintf(stderr, "snapshot pack failed: %s\n",
                   packed.ToString().c_str());
      return 1;
    }
    std::fprintf(stderr,
                 "qcm_cluster: packed %s (%u vertices, %llu edges) in "
                 "%.3f s\n",
                 config.graph_snapshot.c_str(), full.NumVertices(),
                 static_cast<unsigned long long>(full.NumEdges()),
                 pack_timer.Seconds());
    // `full` is dropped here -- the launcher, like the workers, does not
    // hold a resident graph during the run.
  }
  // Early, launcher-side sanity check (metadata checksums only) so a bad
  // --snapshot path fails before N workers are forked. The file's actual
  // page size wins over the flag: a pre-packed --snapshot may have been
  // built with a different --page-size, and the budget validation below
  // must check against what the workers will map.
  {
    auto snap = CsrSnapshot::Open(config.graph_snapshot);
    if (!snap.ok()) {
      std::fprintf(stderr, "snapshot open failed: %s\n",
                   snap.status().ToString().c_str());
      return 1;
    }
    config.graph_page_size = (*snap)->page_size();
  }
  // Surface contradictory settings with the validator's file:line message
  // instead of shipping them to every worker first. Runs after the pack
  // step so graph_snapshot / graph_memory_budget are seen together.
  if (Status valid = config.Validate(); !valid.ok()) {
    std::fprintf(stderr, "invalid configuration: %s\n",
                 valid.ToString().c_str());
    return 2;
  }

  // Checkpoint root shared by every rank (each keeps rank<R>/log under
  // it). A launcher-owned temp dir is removed on success; a caller-
  // provided one is left alone.
  std::string ckpt_dir = args.checkpoint_dir;
  bool owns_ckpt_dir = false;
  if (ckpt_dir.empty()) {
    char templ[] = "/tmp/qcm_ckpt_XXXXXX";
    char* dir = ::mkdtemp(templ);
    if (dir == nullptr) {
      std::fprintf(stderr, "cannot create checkpoint directory\n");
      return 1;
    }
    ckpt_dir = dir;
    owns_ckpt_dir = true;
  } else {
    ::mkdir(ckpt_dir.c_str(), 0755);
  }
  config.checkpoint_dir = ckpt_dir;

  // Launcher-side tracing must be live before the coordinator runs so
  // recovery spans (rank_declared_dead, recover_*) land in a ring. The
  // workers start their own rings from the job spec.
  const std::string trace_out = config.trace_out;
  if (!trace_out.empty()) {
    trace::Start(static_cast<size_t>(config.trace_buffer_kb));
    trace::SetThreadName("launcher");
  }

  // Bind the control-plane listener before spawning anyone.
  CoordinatorConfig coord_config;
  coord_config.world_size = args.workers;
  coord_config.config_blob = EncodeJobSpec(config);
  coord_config.steal_period_sec =
      config.enable_stealing && args.workers >= 2
          ? config.steal_period_sec
          : 0.0;
  coord_config.steal_batch_cap = config.batch_size;
  coord_config.steal_rtt_reference_sec =
      config.steal_rtt_reference_sec;
  coord_config.steal_max_batch_factor =
      config.steal_max_batch_factor;
  coord_config.max_rank_restarts = args.max_rank_restarts;
  // Liveness deadline: many heartbeat periods of slack (slow CI, TSan),
  // but never so long that a hung rank stalls the run indefinitely.
  // Child-exit detection (the watchdog below) catches clean crashes far
  // faster; the deadline is the backstop for wedged-but-alive processes.
  coord_config.heartbeat_deadline_sec =
      config.heartbeat_usec > 0
          ? std::max(1.0, 50.0 * 1e-6 *
                              static_cast<double>(
                                  config.heartbeat_usec))
          : 0.0;
  auto listening = Coordinator::Listen(std::move(coord_config));
  if (!listening.ok()) {
    std::fprintf(stderr, "coordinator listen failed: %s\n",
                 listening.status().ToString().c_str());
    return 1;
  }
  std::unique_ptr<Coordinator> coordinator = std::move(listening).value();
  std::fprintf(stderr,
               "qcm_cluster: coordinator on 127.0.0.1:%u, spawning %d "
               "workers (logs in %s, checkpoints in %s)\n",
               coordinator->port(), args.workers, log_dir.c_str(),
               ckpt_dir.c_str());

  // Worker process table, shared between the main thread, the child
  // watchdog, the recovery callbacks, and the fault-injection hook.
  const std::string port_str = std::to_string(coordinator->port());
  std::vector<WorkerProcess> workers(args.workers);
  // The coordinator assigns ranks in CONNECT order, which need not match
  // the spawn order this table is indexed by. rank_slot[r] maps rank r to
  // its process-table slot; filled from the coordinator's rank->pid map
  // (kHello carries the pid) once the handshake completes. Guarded by
  // workers_mu.
  std::vector<int> rank_slot(args.workers, -1);
  std::mutex workers_mu;

  // Forks one worker for `rank`; returns false on fork failure. The
  // caller holds workers_mu (or is still single-threaded).
  auto spawn_worker = [&](int rank) -> bool {
    WorkerProcess& w = workers[rank];
    w.log_path = log_dir + "/worker" + std::to_string(rank) +
                 (w.restarts > 0 ? ".r" + std::to_string(w.restarts) : "") +
                 ".log";
    const pid_t pid = ::fork();
    if (pid < 0) {
      std::fprintf(stderr, "fork failed: %s\n", std::strerror(errno));
      return false;
    }
    if (pid == 0) {
      if (FILE* log = std::fopen(w.log_path.c_str(), "w")) {
        ::dup2(::fileno(log), STDOUT_FILENO);
        ::dup2(::fileno(log), STDERR_FILENO);
      }
      ::execl(worker_bin.c_str(), worker_bin.c_str(), "--coordinator-port",
              port_str.c_str(), static_cast<char*>(nullptr));
      std::fprintf(stderr, "execl %s failed: %s\n", worker_bin.c_str(),
                   std::strerror(errno));
      ::_exit(127);
    }
    w.pid = pid;
    w.reaped = false;
    w.wstatus = 0;
    return true;
  };

  for (int i = 0; i < args.workers; ++i) {
    if (!spawn_worker(i)) {
      KillAll(&workers);
      return 1;
    }
  }

  // Recovery callbacks: the coordinator's RunToCompletion thread calls
  // these inline while replacing a dead rank.
  coordinator->SetRecoveryCallbacks(
      [&](int rank) {
        // Guarantee the old incarnation is dead and reaped before the
        // survivors are told so.
        pid_t pid = -1;
        int slot = -1;
        {
          std::lock_guard<std::mutex> lock(workers_mu);
          slot = rank_slot[rank];
          if (slot >= 0 && !workers[slot].reaped) pid = workers[slot].pid;
        }
        if (pid > 0) {
          ::kill(pid, SIGKILL);
          int wstatus = 0;
          ::waitpid(pid, &wstatus, 0);
          std::lock_guard<std::mutex> lock(workers_mu);
          workers[slot].reaped = true;
          workers[slot].wstatus = wstatus;
        }
      },
      [&](int rank) -> Status {
        std::lock_guard<std::mutex> lock(workers_mu);
        const int slot = rank_slot[rank];
        if (slot < 0) {
          return Status::Internal("no process slot mapped for rank " +
                                  std::to_string(rank));
        }
        ++workers[slot].restarts;
        if (!spawn_worker(slot)) {
          return Status::IOError("relaunch fork failed for rank " +
                                 std::to_string(rank));
        }
        std::fprintf(stderr,
                     "qcm_cluster: relaunched rank %d (pid %d, attempt %d, "
                     "log %s)\n",
                     rank, static_cast<int>(workers[slot].pid),
                     workers[slot].restarts,
                     workers[slot].log_path.c_str());
        return Status::OK();
      });

  // Live telemetry: every kStats frame updates the per-rank snapshot the
  // ticker prints from and, when tracing, appends pre-formatted counter
  // event lines ("ph":"C", pid = rank) for the merged timeline. The
  // callback runs on per-rank receiver threads.
  std::mutex stats_mu;
  std::vector<WireStatsSample> latest_stats(args.workers);
  std::vector<bool> stats_seen(args.workers, false);
  std::vector<std::string> stats_events;
  coordinator->SetStatsCallback(
      [&](int rank, const WireStatsSample& sample) {
        std::lock_guard<std::mutex> lock(stats_mu);
        latest_stats[rank] = sample;
        stats_seen[rank] = true;
        if (trace_out.empty()) return;
        // ~7 small lines per sample per rank; a day-long run at the
        // default 500 ms cadence stays well under typical trace sizes,
        // but cap the buffer so a pathological cadence cannot eat RAM.
        if (stats_events.size() > 2'000'000) return;
        auto counter = [&](const char* name, uint64_t value) {
          stats_events.push_back(
              "{\"name\":\"" + std::string(name) +
              "\",\"cat\":\"stats\",\"ph\":\"C\",\"ts\":" +
              std::to_string(sample.ts_usec) +
              ",\"pid\":" + std::to_string(rank) +
              ",\"tid\":0,\"args\":{\"value\":" + std::to_string(value) +
              "}}");
        };
        counter("queue_depth", sample.queue_depth);
        counter("inflight_bytes", sample.inflight_bytes);
        counter("busy_compers", sample.busy_compers);
        counter("tasks_completed", sample.tasks_completed);
        counter("cache_hits", sample.cache_hits);
        counter("cache_misses", sample.cache_misses);
        counter("pending_tasks",
                sample.pending < 0
                    ? 0
                    : static_cast<uint64_t>(sample.pending));
      });

  // Child watchdog: a worker that dies mid-run is routed into the
  // coordinator's recovery path (before the handshake completes there is
  // nothing to recover into, so it still fails the run promptly).
  std::atomic<bool> run_done{false};
  std::atomic<bool> handshake_done{false};
  std::thread watchdog([&] {
    while (!run_done.load()) {
      for (size_t i = 0; i < workers.size(); ++i) {
        pid_t pid = -1;
        {
          std::lock_guard<std::mutex> lock(workers_mu);
          if (workers[i].pid <= 0 || workers[i].reaped) continue;
          pid = workers[i].pid;
        }
        int wstatus = 0;
        if (::waitpid(pid, &wstatus, WNOHANG) == pid) {
          bool stale = false;
          {
            std::lock_guard<std::mutex> lock(workers_mu);
            // The recovery callback may have reaped and replaced this
            // pid between our snapshot and now.
            if (workers[i].pid != pid || workers[i].reaped) {
              stale = true;
            } else {
              workers[i].reaped = true;
              workers[i].wstatus = wstatus;
            }
          }
          if (stale) continue;
          const bool clean =
              WIFEXITED(wstatus) && WEXITSTATUS(wstatus) == 0;
          if (clean) continue;
          const std::string how =
              WIFSIGNALED(wstatus)
                  ? "signal " + std::to_string(WTERMSIG(wstatus))
                  : "status " + std::to_string(WEXITSTATUS(wstatus));
          if (!handshake_done.load()) {
            coordinator->Abort("worker process " + std::to_string(i) +
                               " died during bring-up (" + how + ")");
          } else {
            // Translate the process slot back to the rank the coordinator
            // knows it as.
            int rank = -1;
            {
              std::lock_guard<std::mutex> lock(workers_mu);
              for (int r = 0; r < args.workers; ++r) {
                if (rank_slot[r] == static_cast<int>(i)) rank = r;
              }
            }
            if (rank < 0) continue;
            std::fprintf(stderr,
                         "qcm_cluster: rank %d process died (%s)\n", rank,
                         how.c_str());
            coordinator->OnRankDeath(rank);
          }
        }
      }
      std::this_thread::sleep_for(std::chrono::milliseconds(20));
    }
  });

  // Fault injection for the CI smoke: SIGKILL the named rank once it
  // verifiably holds pending work, so recovery happens mid-mining. The
  // victim's first incarnation stalls one compute round until this fires
  // (see the file header), so its last status keeps pending > 0 and the
  // poll below cannot miss it. Statuses are only acted on once the
  // handshake has mapped ranks to process slots.
  std::thread killer;
  if (const char* kill_rank_env = std::getenv("QCM_SMOKE_KILL_RANK")) {
    const int kill_rank = std::atoi(kill_rank_env);
    if (kill_rank >= 0 && kill_rank < args.workers) {
      killer = std::thread([&, kill_rank] {
        while (!run_done.load()) {
          WireRankStatus status;
          if (handshake_done.load() &&
              coordinator->SnapshotStatus(kill_rank, &status) &&
              status.pending > 0) {
            pid_t pid = -1;
            {
              std::lock_guard<std::mutex> lock(workers_mu);
              const int slot = rank_slot[kill_rank];
              if (slot >= 0 && !workers[slot].reaped &&
                  workers[slot].restarts == 0) {
                pid = workers[slot].pid;
              }
            }
            if (pid > 0) {
              std::fprintf(stderr,
                           "qcm_cluster: fault injection: SIGKILL rank %d "
                           "(pid %d)\n",
                           kill_rank, static_cast<int>(pid));
              ::kill(pid, SIGKILL);
            }
            return;
          }
          std::this_thread::sleep_for(std::chrono::milliseconds(2));
        }
      });
    } else {
      std::fprintf(stderr,
                   "qcm_cluster: ignoring QCM_SMOKE_KILL_RANK=%s (out of "
                   "range)\n",
                   kill_rank_env);
    }
  }

  // Live one-line ticker: a cross-rank rollup of the latest kStats
  // samples, printed at the sampling cadence once the first sample lands.
  std::thread ticker;
  if (config.stats_interval_ms > 0) {
    ticker = std::thread([&] {
      const int64_t interval_ms =
          std::max<int64_t>(config.stats_interval_ms, 250);
      int64_t slept_ms = 0;
      while (!run_done.load()) {
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        slept_ms += 20;
        if (slept_ms < interval_ms) continue;
        slept_ms = 0;
        unsigned long long pending = 0, queue = 0, busy = 0, inflight = 0,
                           hits = 0, misses = 0, tasks = 0;
        int seen = 0;
        {
          std::lock_guard<std::mutex> lock(stats_mu);
          for (int r = 0; r < args.workers; ++r) {
            if (!stats_seen[r]) continue;
            ++seen;
            const WireStatsSample& s = latest_stats[r];
            if (s.pending > 0) pending += s.pending;
            queue += s.queue_depth;
            busy += s.busy_compers;
            inflight += s.inflight_bytes;
            hits += s.cache_hits;
            misses += s.cache_misses;
            tasks += s.tasks_completed;
          }
        }
        if (seen == 0) continue;
        const double hit_pct =
            hits + misses == 0
                ? 100.0
                : 100.0 * static_cast<double>(hits) /
                      static_cast<double>(hits + misses);
        std::fprintf(stderr,
                     "telemetry: %d/%d ranks | pending %llu | big-queue "
                     "%llu | busy %llu compers | in-flight %llu B | "
                     "cache-hit %.1f%% | %llu tasks done\n",
                     seen, args.workers, pending, queue, busy, inflight,
                     hit_pct, tasks);
      }
    });
  }

  // Handshake, then drive the run to global termination.
  Status run_status = coordinator->RunHandshake();
  if (run_status.ok()) {
    // Resolve which forked process ended up with which rank (connect
    // order decides) BEFORE releasing the watchdog/killer onto the
    // recovery path.
    std::lock_guard<std::mutex> lock(workers_mu);
    for (int r = 0; r < args.workers; ++r) {
      const uint64_t pid = coordinator->RankPid(r);
      for (int s = 0; s < args.workers; ++s) {
        if (static_cast<uint64_t>(workers[s].pid) == pid) rank_slot[r] = s;
      }
    }
    handshake_done.store(true);
  }
  std::vector<std::string> report_blobs;
  if (run_status.ok()) {
    auto reports = coordinator->RunToCompletion();
    run_status = reports.status();
    if (reports.ok()) report_blobs = std::move(reports).value();
  }
  const uint64_t steal_commands = coordinator->steal_commands_issued();
  const std::vector<Coordinator::RecoveryEvent> recoveries =
      coordinator->recovery_events();
  const std::vector<int> restarts = coordinator->restarts();
  run_done.store(true);
  watchdog.join();
  if (killer.joinable()) killer.join();
  if (ticker.joinable()) ticker.join();
  coordinator->Close();

  // Reap every live worker; a nonzero exit of a CURRENT incarnation fails
  // the run (superseded incarnations died by design and were already
  // reaped by the watchdog or the kill callback).
  bool workers_ok = true;
  for (int i = 0; i < args.workers; ++i) {
    WorkerProcess& w = workers[i];
    if (!w.reaped) {
      if (!run_status.ok()) ::kill(w.pid, SIGKILL);
      ::waitpid(w.pid, &w.wstatus, 0);
      w.reaped = true;
    }
    const bool clean = WIFEXITED(w.wstatus) && WEXITSTATUS(w.wstatus) == 0;
    if (!clean && run_status.ok()) {
      std::fprintf(stderr, "qcm_cluster: worker %d exited abnormally (%s)\n",
                   i,
                   WIFSIGNALED(w.wstatus)
                       ? ("signal " + std::to_string(WTERMSIG(w.wstatus)))
                             .c_str()
                       : ("status " +
                          std::to_string(WEXITSTATUS(w.wstatus)))
                             .c_str());
      workers_ok = false;
    }
  }
  if (!run_status.ok() || !workers_ok) {
    std::fprintf(stderr, "qcm_cluster: FAILED -- %s\n",
                 run_status.ok() ? "worker exit failure"
                                 : run_status.ToString().c_str());
    PrintLogTails(workers);
    std::fprintf(stderr, "qcm_cluster: checkpoints kept in %s\n",
                 ckpt_dir.c_str());
    return 1;
  }

  // Merge the per-rank reports and postprocess the union of candidates.
  std::vector<EngineReport> rank_reports(report_blobs.size());
  for (size_t r = 0; r < report_blobs.size(); ++r) {
    Decoder dec(report_blobs[r]);
    Status s = DecodeEngineReport(&dec, &rank_reports[r]);
    if (!s.ok()) {
      std::fprintf(stderr, "qcm_cluster: corrupt report from rank %zu: %s\n",
                   r, s.ToString().c_str());
      return 1;
    }
  }
  EngineReport merged = MergeEngineReports(rank_reports);
  const size_t raw_candidates = merged.results.size();
  // Rendered while the report still holds the candidates it counts.
  const std::string merged_json =
      args.stats_json.empty() ? "" : EngineReportJson(merged);
  size_t duplicates_suppressed = 0;
  std::vector<VertexSet> results =
      args.no_filter
          ? std::move(merged.results)
          : FilterMaximal(std::move(merged.results), &duplicates_suppressed);

  std::fprintf(stderr, "%zu %s quasi-cliques in %.3f s\n", results.size(),
               args.no_filter ? "candidate" : "maximal",
               merged.wall_seconds);
  // Canonical order + digest + output file, shared with qcm_mine so the
  // digest-parity gate compares one implementation against itself.
  auto digest = EmitCanonicalResults(&results, args.output);
  if (!digest.ok()) {
    std::fprintf(stderr, "%s\n", digest.status().ToString().c_str());
    return 1;
  }
  if (args.stats) {
    std::fprintf(
        stderr,
        "cluster: %d workers, %llu tasks, %llu stolen (%llu steal "
        "commands), %llu pulled vertices, %llu raw candidates\n",
        args.workers,
        static_cast<unsigned long long>(merged.counters.tasks_completed),
        static_cast<unsigned long long>(merged.counters.stolen_tasks),
        static_cast<unsigned long long>(steal_commands),
        static_cast<unsigned long long>(merged.counters.pulled_vertices),
        static_cast<unsigned long long>(raw_candidates));
    std::fprintf(
        stderr,
        "graph: %llu page pins, %llu page-ins, %llu evictions, "
        "%llu inline-served, fault stall %.1f ms; aggregate peak rss %s\n",
        static_cast<unsigned long long>(merged.counters.graph_page_pins),
        static_cast<unsigned long long>(merged.counters.graph_page_ins),
        static_cast<unsigned long long>(
            merged.counters.graph_page_evictions),
        static_cast<unsigned long long>(
            merged.counters.graph_inline_served),
        static_cast<double>(merged.counters.graph_fault_stall_usec) / 1e3,
        HumanBytes(merged.peak_rss_bytes).c_str());
  }
  if (!recoveries.empty()) {
    for (const auto& e : recoveries) {
      std::fprintf(stderr,
                   "recovery: rank %d epoch %u via %s (detected after "
                   "%llu us, rewired in %.3f s)\n",
                   e.rank, e.epoch, e.method.c_str(),
                   static_cast<unsigned long long>(
                       e.detection_latency_usec),
                   e.recovery_sec);
    }
    std::fprintf(stderr,
                 "recovery: %zu duplicate candidates suppressed by the "
                 "maximality filter\n",
                 duplicates_suppressed);
  }

  // Stitch the per-rank fragments, the launcher's own events (recovery
  // spans, under a pid past every rank), the kStats counter tracks, and
  // rank-naming metadata into ONE Perfetto-loadable timeline.
  if (!trace_out.empty()) {
    std::vector<std::string> fragments;
    for (int r = 0; r < args.workers; ++r) {
      fragments.push_back(trace_out + ".rank" + std::to_string(r) +
                          ".jsonl");
    }
    std::vector<std::string> extra;
    {
      std::lock_guard<std::mutex> lock(stats_mu);
      extra = std::move(stats_events);
    }
    const int launcher_pid = args.workers;
    const std::string drained = trace::DrainJsonLines(launcher_pid);
    for (size_t start = 0; start < drained.size();) {
      size_t end = drained.find('\n', start);
      if (end == std::string::npos) end = drained.size();
      if (end > start) extra.push_back(drained.substr(start, end - start));
      start = end + 1;
    }
    for (int r = 0; r <= args.workers; ++r) {
      const std::string label =
          r == args.workers ? "launcher" : "rank" + std::to_string(r);
      extra.push_back(
          "{\"name\":\"process_name\",\"ph\":\"M\",\"ts\":0,\"pid\":" +
          std::to_string(r) + ",\"tid\":0,\"args\":{\"name\":\"" + label +
          "\"}}");
    }
    Status merge_status = trace::MergeFragments(fragments, extra, trace_out);
    if (merge_status.ok()) {
      for (const std::string& f : fragments) ::remove(f.c_str());
      std::fprintf(stderr,
                   "trace: %s (%d rank fragments merged, %llu launcher "
                   "records dropped)\n",
                   trace_out.c_str(), args.workers,
                   static_cast<unsigned long long>(trace::DroppedRecords()));
    } else {
      std::fprintf(stderr, "trace merge failed: %s\n",
                   merge_status.ToString().c_str());
    }
  }

  if (!args.stats_json.empty()) {
    // One JSON object per rank plus the merged totals and the recovery
    // story, so CI can chart per-rank balance and fault-tolerance
    // overhead without re-deriving them.
    std::string json = "{\n  \"ranks\": [\n";
    for (size_t r = 0; r < rank_reports.size(); ++r) {
      json += EngineReportJson(rank_reports[r]);
      if (r + 1 < rank_reports.size()) json += ",";
      json += "\n";
    }
    json += "  ],\n  \"merged\": " + merged_json + ",\n";
    json += "  \"recovery\": {\n    \"restarts\": [";
    for (size_t r = 0; r < restarts.size(); ++r) {
      json += std::to_string(restarts[r]);
      if (r + 1 < restarts.size()) json += ", ";
    }
    json += "],\n    \"duplicates_suppressed\": " +
            std::to_string(duplicates_suppressed) + ",\n";
    json += "    \"events\": [";
    for (size_t e = 0; e < recoveries.size(); ++e) {
      const auto& ev = recoveries[e];
      json += std::string(e == 0 ? "" : ", ") + "{\"rank\": " +
              std::to_string(ev.rank) +
              ", \"epoch\": " + std::to_string(ev.epoch) +
              ", \"method\": \"" + JsonEscape(ev.method) + "\"" +
              ", \"detection_latency_usec\": " +
              std::to_string(ev.detection_latency_usec) +
              ", \"recovery_sec\": " + std::to_string(ev.recovery_sec) +
              "}";
    }
    json += "]\n  }\n}\n";
    FILE* f = args.stats_json == "-"
                  ? stdout
                  : std::fopen(args.stats_json.c_str(), "w");
    if (f == nullptr) {
      std::fprintf(stderr, "cannot open %s for writing\n",
                   args.stats_json.c_str());
      return 1;
    }
    std::fputs(json.c_str(), f);
    if (f != stdout) std::fclose(f);
  }

  if (owns_ckpt_dir) {
    std::error_code ec;
    std::filesystem::remove_all(ckpt_dir, ec);
  }
  return 0;
}
