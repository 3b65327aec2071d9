// qcm_cluster: launcher for the real multi-process deployment.
//
// Spawns N qcm_worker processes (one per machine), distributes the run
// configuration over the wire handshake, masters load balancing,
// distributed termination detection, and rank recovery from the
// coordinator side, then merges every rank's EngineReport and raw
// candidate results, applies the maximality postprocessing once over the
// union, and prints the canonical result digest -- which must be
// bit-identical to a single-process `qcm_mine` run on the same input
// (asserted by tests/cluster_e2e_test.cc), even when a worker is killed
// mid-run and recovered from its checkpoint (tests/recovery_test.cc).
//
//   qcm_cluster --gen-planted n=4000,communities=8,size=12..16,density=0.95
//               --gamma 0.85 --min-size 9 --workers 3 --threads 2
//
// `qcm_cluster --help` lists every flag. The engine and mining flags are
// the table shared with qcm_mine (tools/cli.h) and mean the same thing
// here; --workers, the checkpoint, restart, snapshot and graph-budget
// knobs, --log-dir and --worker-bin are this tool's own. Flags only
// parse: the whole configuration is checked once, by
// EngineConfig::Validate(), before any worker starts, so e.g. a zero
// --checkpoint-interval is rejected, not patched.
//
// Graph distribution: the launcher packs the input's k-core
// (CompactKCore and OrderByDegeneracy, graph/kcore.h: only the k-core
// vertices, renumbered to 0..|core|-1 in degeneracy order, and the edges
// between them) into a .qcsr snapshot ONCE (<log-dir>/graph.qcsr) and
// ships only the path; workers mmap it and read just their partition's
// lists, so no rank ever materializes the graph. Every rank, checkpoint
// and recovery of the job works in the packed ids; the launcher maps the
// merged results back to the input's, and prints them in the input file's
// own ids through the loader's map (graph/edge_io.h). --snapshot, the
// third graph source, ships a qcm_pack output as given instead, with the
// identity map, and prints through its original-ids section: the
// launcher never loads its adjacency, so that run is neither reduced nor
// reordered, and mines in file order (its results are the same, its ranks
// just spawn and pull more). And --graph-memory-budget caps the
// bytes each rank keeps of its own lists: a budgeted rank reads a list
// from the file with pread whenever its LRU of lists misses (out-of-core
// mining).
//
// --trace-out records one MERGED Chrome trace-event timeline of the whole
// cluster (launcher recovery phases + every rank's spans + counter tracks
// sampled from the ranks' statuses; pid = rank). Workers write
// <path>.rank<R>.jsonl fragments which the launcher stitches into <path>
// after the run and deletes. While the run is live, the same samples
// print a telemetry line on stderr, at most every 250 ms (sampling
// cadence --stats-interval-ms; 0 disables both).
// --log-level sets the launcher's level; workers inherit QCM_LOG_LEVEL
// from the environment, and every rank's EngineReport comes back inside
// the launcher's --stats-json.
//
// Worker stdout/stderr are redirected to <log-dir>/worker<rank>.log
// (a replacement incarnation logs to worker<rank>.r<restart>.log so the
// dead incarnation's last words survive) so a crashed rank's story is
// always on disk for CI to upload. The log and checkpoint dirs are made
// before the graph loads, and a dir that cannot be made fails the run
// there, naming it. The default log dir is a fresh temp dir (path
// printed), removed with the packed graph in it unless the run fails
// after its workers start; a --log-dir is never removed. Every rank and
// incarnation of the job spills into one launcher-made temp dir (files
// prefixed w<rank>_), removed on every exit: a SIGKILLed worker never
// cleans up after itself.
//
// Fault-injection hook (tests/recovery_test.cc): QCM_SMOKE_KILL_RANK=<r>
// makes the launcher SIGKILL rank r's worker once it verifiably holds
// pending work, exercising the detection -> kPeerDown -> relaunch ->
// checkpoint replay -> kPeerUp recovery path end to end. The final digest
// must be identical to an uninjected run. The worker reads the same
// variable: in its first incarnation, rank r parks the comper of its
// first compute round until the kill lands, so the rank keeps pending
// work -- and the cluster cannot terminate -- until the launcher has seen
// it and fired.

#include <libgen.h>
#include <limits.h>
#include <sys/types.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <condition_variable>
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
#include "gthinker/metrics.h"
#include "net/coordinator.h"
#include "net/job_spec.h"
#include "net/local_cluster.h"
#include "quick/maximality_filter.h"
#include "tools/cli.h"
#include "util/mem.h"
#include "util/output.h"
#include "util/serde.h"
#include "util/timer.h"
#include "util/trace.h"

namespace {

using namespace qcm;

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

/// Makes the run's `what` directory: `*dir` when the caller named one (it
/// may exist already), else a fresh temp dir from `temp_template`, which
/// sets `*owned`. False, having said which dir and why, if it cannot.
bool MakeRunDir(const char* what, std::string temp_template,
                std::string* dir, bool* owned) {
  std::error_code ec;
  if (!dir->empty()) {
    std::filesystem::create_directory(*dir, ec);
  } else if (::mkdtemp(temp_template.data()) != nullptr) {
    *dir = temp_template;
    *owned = true;
  } else {
    ec.assign(errno, std::generic_category());
  }
  if (ec) {
    std::fprintf(stderr, "qcm_cluster: cannot create %s %s: %s\n", what,
                 dir->empty() ? temp_template.c_str() : dir->c_str(),
                 ec.message().c_str());
    return false;
  }
  return true;
}

}  // namespace

int main(int argc, char** argv) {
  cli::RunOptions run;
  EngineConfig& config = run.config;
  config.num_machines = 3;
  int max_rank_restarts = 2;
  std::string worker_bin = DefaultWorkerBin();
  std::string log_dir;
  std::vector<cli::Flag> flags = cli::SharedFlags(&run);
  flags.insert(
      flags.end(),
      {cli::Number("--workers", "N", &config.num_machines,
                   "worker processes (one machine each), at most 64"),
       cli::Number("--checkpoint-interval", "F",
                   &config.checkpoint_interval_sec,
                   "seconds between flushes of each rank's progress log"),
       cli::Text("--checkpoint-dir", "DIR", &config.checkpoint_dir,
                 "shared checkpoint root (default: a temp dir removed "
                 "after a clean run)"),
       cli::Number("--max-rank-restarts", "N", &max_rank_restarts,
                   "replacement incarnations allowed per rank"),
       cli::Text("--snapshot", "PATH", &config.graph_snapshot,
                 "a qcm_pack .qcsr to ship as given, not reduced to its "
                 "k-core"),
       cli::Number("--graph-memory-budget", "BYTES",
                   &config.graph_memory_budget,
                   "per-rank budget for the rank's cached adjacency "
                   "lists; 0 = unbounded"),
       cli::Text("--worker-bin", "PATH", &worker_bin, "qcm_worker binary"),
       cli::Text("--log-dir", "DIR", &log_dir,
                 "worker logs and the packed graph (default: a temp dir "
                 "removed unless the run fails after its workers start)")});
  cli::CommandLine cmd(
      "Mines every maximal gamma-quasi-clique of one graph with one "
      "qcm_worker process per machine; exactly one of --input, --snapshot "
      "or --gen-planted names the graph.",
      std::move(flags));
  cmd.ParseOrExit(argc, argv);
  if (Status s = cli::CheckGraphSource(run.source, "--snapshot",
                                       config.graph_snapshot);
      !s.ok()) {
    cmd.Fail(s.message());
  }
  const int num_workers = config.num_machines;
  if (num_workers < 1 || num_workers > 64) {
    cmd.Fail("--workers must be in [1, 64]");
  }
  if (max_rank_restarts < 0) cmd.Fail("--max-rank-restarts must be >= 0");
  if (::access(worker_bin.c_str(), X_OK) != 0) {
    std::fprintf(stderr, "worker binary not executable: %s\n",
                 worker_bin.c_str());
    return 2;
  }
  // The log dir (worker logs and the packed graph), the checkpoint root
  // shared by every rank (each keeps rank<R>/log under it) and the spill
  // dir every rank and incarnation shares, all made before the graph
  // loads. A launcher-made log or checkpoint dir is removed on every exit
  // but a failure after the workers start, which keeps both and says
  // where; a caller-provided one is left alone. The spill dir goes on
  // every exit: a SIGKILLed worker leaves its files behind.
  bool owns_log_dir = false;
  bool owns_ckpt_dir = false;
  bool owns_spill_dir = false;
  auto remove_spill_dir = [&] {
    std::error_code ec;
    if (owns_spill_dir) std::filesystem::remove_all(config.spill_dir, ec);
  };
  auto remove_owned_dirs = [&] {
    std::error_code ec;
    if (owns_log_dir) std::filesystem::remove_all(log_dir, ec);
    if (owns_ckpt_dir) {
      std::filesystem::remove_all(config.checkpoint_dir, ec);
    }
    remove_spill_dir();
  };
  auto keep_dirs_after_failure = [&] {
    remove_spill_dir();
    std::fprintf(stderr,
                 "qcm_cluster: logs kept in %s, checkpoints kept in %s\n",
                 log_dir.c_str(), config.checkpoint_dir.c_str());
  };
  if (!MakeRunDir("log directory", "/tmp/qcm_cluster_XXXXXX", &log_dir,
                  &owns_log_dir) ||
      !MakeRunDir("checkpoint directory", "/tmp/qcm_ckpt_XXXXXX",
                  &config.checkpoint_dir, &owns_ckpt_dir) ||
      !MakeRunDir("spill directory", "/tmp/qcm_spill_XXXXXX",
                  &config.spill_dir, &owns_spill_dir)) {
    remove_owned_dirs();
    return 1;
  }

  // Workers mmap one .qcsr snapshot instead of each re-parsing or
  // regenerating the graph: the launcher packs <log-dir>/graph.qcsr once
  // below, or ships a --snapshot file. A pre-packed file is opened now
  // (metadata checksums only) so a bad path fails before N workers are
  // forked. The results are printed through `file_ids`: the loader's map,
  // or a --snapshot file's original-ids section.
  const bool pack = config.graph_snapshot.empty();
  IdMap file_ids;
  if (pack) {
    config.graph_snapshot = log_dir + "/graph.qcsr";
  } else {
    auto snap = CsrSnapshot::Open(config.graph_snapshot);
    if (!snap.ok()) {
      std::fprintf(stderr, "snapshot open failed: %s\n",
                   snap.status().ToString().c_str());
      remove_owned_dirs();
      return 1;
    }
    file_ids = (*snap)->OriginalIds();
  }

  // The whole configuration, checked once with the validator's
  // file:line message before the graph is loaded or any worker starts.
  if (Status valid = config.Validate(); !valid.ok()) {
    std::fprintf(stderr, "invalid configuration: %s\n",
                 valid.ToString().c_str());
    remove_owned_dirs();
    return 2;
  }
  // Launcher-side tracing must be live before the pack step (its k-core
  // span) and the coordinator (recovery spans: rank_declared_dead,
  // recover_*). The workers start their own rings from the job spec.
  const std::string trace_out = config.trace_out;
  if (!trace_out.empty()) {
    trace::Start(trace::kRingKb);
    trace::SetThreadName("launcher");
  }
  // Mined id -> input id: the packed core's map, or the identity (empty)
  // for a --snapshot file.
  std::vector<VertexId> to_input;
  if (pack) {
    WallTimer pack_timer;
    // An edge list loads through the k-core prefilter: only the edges that
    // may lie in the core are built into a CSR.
    auto loaded = cli::LoadGraphSource(run.source, config.mining.MinDegreeK());
    if (!loaded.ok()) {
      std::fprintf(stderr, "graph load failed: %s\n",
                   loaded.status().ToString().c_str());
      remove_owned_dirs();
      return 1;
    }
    // (T1) Only the k-core is packed, in its own compact ids in degeneracy
    // order, so no rank spawns, pulls or reads a vertex outside it, and
    // every per-vertex section and array is core-sized. The original-ids
    // section names each packed vertex by its id in the input file.
    KCore core = cli::MinedKCore(std::move(loaded->graph), config, run.stats);
    file_ids = std::move(loaded->original_ids);
    IdMap packed_ids;
    packed_ids.ids.reserve(core.ids.size());
    for (const VertexId v : core.ids) packed_ids.ids.push_back(file_ids[v]);
    CsrWriteOptions opts;
    if (!run.source.gen_planted.empty()) opts.build_seed = run.source.seed;
    Status packed = WriteCsrSnapshot(core.graph, packed_ids,
                                     config.graph_snapshot, opts);
    if (!packed.ok()) {
      std::fprintf(stderr, "snapshot pack failed: %s\n",
                   packed.ToString().c_str());
      remove_owned_dirs();
      return 1;
    }
    std::fprintf(stderr,
                 "qcm_cluster: packed %s (%u vertices, %llu edges) in "
                 "%.3f s\n",
                 config.graph_snapshot.c_str(), core.graph.NumVertices(),
                 static_cast<unsigned long long>(core.graph.NumEdges()),
                 pack_timer.Seconds());
    to_input = std::move(core.ids);
    // The graphs are dropped here -- the launcher, like the workers, does
    // not hold a resident graph during the run.
  }

  // Bind the control-plane listener before spawning anyone. Its status
  // deadline is the backstop for wedged-but-alive workers; the child
  // watchdog below catches crashes far faster.
  CoordinatorConfig coord_config = CoordinatorConfigFor(config);
  coord_config.config_blob = EncodeJobSpec(config);
  coord_config.max_rank_restarts = max_rank_restarts;
  // Live telemetry: each coordinator sample of the ranks' statuses
  // appends pre-formatted counter event lines ("ph":"C", pid = rank) for
  // the merged timeline when tracing, and prints a cross-rank telemetry
  // line at most every 250 ms. Called on the RunToCompletion thread (this
  // one).
  std::vector<std::string> stats_events;
  uint64_t telemetry_printed_usec = static_cast<uint64_t>(NowMicros());
  coord_config.on_sample = [&](uint64_t ts_usec,
                               const std::vector<RankStatus>& statuses) {
    // ~7 small lines per sample per rank; a day-long run at the default
    // 500 ms cadence stays well under typical trace sizes, but cap the
    // buffer so a pathological cadence cannot eat RAM.
    if (!trace_out.empty() && stats_events.size() <= 2'000'000) {
      AppendStatsCounterEvents(ts_usec, statuses, &stats_events);
    }
    if (ts_usec < telemetry_printed_usec + 250'000) return;
    telemetry_printed_usec = ts_usec;
    unsigned long long pending = 0, queue = 0, busy = 0, inflight = 0,
                       hits = 0, misses = 0, tasks = 0;
    for (const RankStatus& st : statuses) {
      if (st.pending > 0) pending += st.pending;
      queue += st.pending_big;
      busy += st.busy_compers;
      inflight += st.inflight_bytes;
      hits += st.cache_hits;
      misses += st.cache_misses;
      tasks += st.tasks_completed;
    }
    const double hit_pct = hits + misses == 0
                               ? 100.0
                               : 100.0 * static_cast<double>(hits) /
                                     static_cast<double>(hits + misses);
    std::fprintf(stderr,
                 "telemetry: %zu ranks | pending %llu | big-queue %llu | "
                 "busy %llu compers | in-flight %llu B | cache-hit %.1f%% | "
                 "%llu tasks done\n",
                 statuses.size(), pending, queue, busy, inflight, hit_pct,
                 tasks);
  };
  auto listening = Coordinator::Listen(std::move(coord_config));
  if (!listening.ok()) {
    std::fprintf(stderr, "coordinator listen failed: %s\n",
                 listening.status().ToString().c_str());
    remove_owned_dirs();
    return 1;
  }
  std::unique_ptr<Coordinator> coordinator = std::move(listening).value();
  std::fprintf(stderr,
               "qcm_cluster: coordinator on 127.0.0.1:%u, spawning %d "
               "workers (logs in %s, checkpoints in %s, spill in %s)\n",
               coordinator->port(), num_workers, log_dir.c_str(),
               config.checkpoint_dir.c_str(), config.spill_dir.c_str());

  // Worker process table, shared between the main thread, the child
  // watchdog, the recovery callbacks, and the fault-injection hook.
  const std::string port_str = std::to_string(coordinator->port());
  std::vector<WorkerProcess> workers(num_workers);
  // The coordinator assigns ranks in CONNECT order, which need not match
  // the spawn order this table is indexed by. rank_slot[r] maps rank r to
  // its process-table slot; filled from the coordinator's rank->pid map
  // (kHello carries the pid) once the handshake completes. Guarded by
  // workers_mu.
  std::vector<int> rank_slot(num_workers, -1);
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

  for (int i = 0; i < num_workers; ++i) {
    if (!spawn_worker(i)) {
      KillAll(&workers);
      keep_dirs_after_failure();
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

  // Child watchdog: a worker that dies mid-run is routed into the
  // coordinator's recovery path (before the handshake completes there is
  // nothing to recover into, so it still fails the run promptly).
  std::atomic<bool> run_done{false};
  std::atomic<bool> handshake_done{false};
  // The launcher's helper threads poll between naps; ending the run wakes
  // them at once, so joining them never waits out a nap.
  std::mutex run_done_mu;
  std::condition_variable run_done_cv;
  // Sleeps up to `ms` or until the run is done.
  auto nap_until_done = [&](int64_t ms) {
    std::unique_lock<std::mutex> lock(run_done_mu);
    run_done_cv.wait_for(lock, std::chrono::milliseconds(ms),
                         [&] { return run_done.load(); });
  };
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
              for (int r = 0; r < num_workers; ++r) {
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
      nap_until_done(20);
    }
  });

  // Fault injection for the recovery test: SIGKILL the named rank once it
  // verifiably holds pending work, so recovery happens mid-mining. The
  // victim's first incarnation stalls one compute round until this fires
  // (see the file header), so its last status keeps pending > 0 and the
  // poll below cannot miss it. Statuses are only acted on once the
  // handshake has mapped ranks to process slots.
  std::thread killer;
  if (const char* kill_rank_env = std::getenv("QCM_SMOKE_KILL_RANK")) {
    int kill_rank = -1;
    if (ParseNumber(kill_rank_env, &kill_rank).ok() && kill_rank >= 0 &&
        kill_rank < num_workers) {
      killer = std::thread([&, kill_rank] {
        while (!run_done.load()) {
          RankStatus status;
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
          nap_until_done(2);
        }
      });
    } else {
      std::fprintf(stderr,
                   "qcm_cluster: ignoring QCM_SMOKE_KILL_RANK=%s (not a "
                   "rank)\n",
                   kill_rank_env);
    }
  }

  // Handshake, then drive the run to global termination.
  Status run_status = coordinator->RunHandshake();
  if (run_status.ok()) {
    // Resolve which forked process ended up with which rank (connect
    // order decides) BEFORE releasing the watchdog/killer onto the
    // recovery path.
    std::lock_guard<std::mutex> lock(workers_mu);
    for (int r = 0; r < num_workers; ++r) {
      const uint64_t pid = coordinator->RankPid(r);
      for (int s = 0; s < num_workers; ++s) {
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
  {
    std::lock_guard<std::mutex> lock(run_done_mu);
    run_done.store(true);
  }
  run_done_cv.notify_all();
  watchdog.join();
  if (killer.joinable()) killer.join();
  coordinator->Close();

  // Reap every live worker; a nonzero exit of a CURRENT incarnation fails
  // the run (superseded incarnations died by design and were already
  // reaped by the watchdog or the kill callback).
  bool workers_ok = true;
  for (int i = 0; i < num_workers; ++i) {
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
    keep_dirs_after_failure();
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
      keep_dirs_after_failure();
      return 1;
    }
  }
  // Per-rank JSON is rendered before the merge moves the candidates out.
  std::vector<std::string> rank_json;
  if (!run.stats_json.empty()) {
    for (const EngineReport& r : rank_reports) {
      rank_json.push_back(EngineReportJson(r));
    }
  }
  EngineReport merged = MergeEngineReports(std::move(rank_reports));
  MapToInputIds(to_input, &merged);
  const size_t raw_candidates = merged.results.size();
  // Rendered while the report still holds the candidates it counts.
  const std::string merged_json =
      run.stats_json.empty() ? "" : EngineReportJson(merged);
  size_t duplicates_suppressed = 0;
  std::vector<VertexSet> results =
      run.no_filter
          ? std::move(merged.results)
          : FilterMaximal(std::move(merged.results), &duplicates_suppressed);

  std::fprintf(stderr, "%zu %s quasi-cliques in %.3f s\n", results.size(),
               run.no_filter ? "candidate" : "maximal",
               merged.wall_seconds);
  // Canonical order + digest + output file in the input's ids, shared
  // with qcm_mine so the digest-parity gate compares one implementation
  // against itself.
  auto digest = EmitCanonicalResults(&results, run.output, file_ids);
  if (!digest.ok()) {
    std::fprintf(stderr, "%s\n", digest.status().ToString().c_str());
    remove_owned_dirs();
    return 1;
  }
  if (run.stats) {
    std::fprintf(
        stderr,
        "cluster: %d workers, %llu tasks, spill %llu tasks/%s, %llu stolen "
        "(%llu steal commands), %llu pulled vertices, %llu raw candidates "
        "(%llu emitted, %llu subsumed within their task)\n",
        num_workers,
        static_cast<unsigned long long>(merged.counters.tasks_completed),
        static_cast<unsigned long long>(merged.counters.spilled_tasks),
        HumanBytes(merged.counters.spill_bytes_written).c_str(),
        static_cast<unsigned long long>(merged.counters.stolen_tasks),
        static_cast<unsigned long long>(steal_commands),
        static_cast<unsigned long long>(merged.counters.pulled_vertices),
        static_cast<unsigned long long>(raw_candidates),
        static_cast<unsigned long long>(merged.mining.emitted),
        static_cast<unsigned long long>(merged.mining.subsumed));
    std::fprintf(
        stderr,
        "graph: %llu list reads, %llu from file, %llu evictions, "
        "pread %.1f ms; aggregate peak rss %s\n",
        static_cast<unsigned long long>(merged.counters.graph_page_pins),
        static_cast<unsigned long long>(merged.counters.graph_page_ins),
        static_cast<unsigned long long>(
            merged.counters.graph_page_evictions),
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
  // spans, under a pid past every rank), the sampled counter tracks, and
  // rank-naming metadata into ONE Perfetto-loadable timeline.
  if (!trace_out.empty()) {
    std::vector<std::string> fragments;
    for (int r = 0; r < num_workers; ++r) {
      fragments.push_back(trace_out + ".rank" + std::to_string(r) +
                          ".jsonl");
    }
    std::vector<std::string> extra = std::move(stats_events);
    for (int r = 0; r <= num_workers; ++r) {
      const std::string label =
          r == num_workers ? "launcher" : "rank" + std::to_string(r);
      extra.push_back(
          "{\"name\":\"process_name\",\"ph\":\"M\",\"ts\":0,\"pid\":" +
          std::to_string(r) + ",\"tid\":0,\"args\":{\"name\":\"" + label +
          "\"}}");
    }
    const StatusOr<size_t> merged = trace::MergeFragments(
        fragments, trace::DrainJsonLines(/*pid=*/num_workers), extra,
        trace_out);
    if (merged.ok()) {
      for (const std::string& f : fragments) ::remove(f.c_str());
      std::fprintf(stderr,
                   "trace: %s (%d rank fragments merged, %llu launcher "
                   "records dropped)\n",
                   trace_out.c_str(), num_workers,
                   static_cast<unsigned long long>(trace::DroppedRecords()));
    } else {
      std::fprintf(stderr, "trace merge failed: %s\n",
                   merged.status().ToString().c_str());
    }
  }

  if (!run.stats_json.empty()) {
    // One JSON object per rank plus the merged totals and the recovery
    // story, so CI can chart per-rank balance and fault-tolerance
    // overhead without re-deriving them.
    std::string json = "{\n  \"ranks\": [\n";
    for (size_t r = 0; r < rank_json.size(); ++r) {
      json += rank_json[r];
      if (r + 1 < rank_json.size()) json += ",";
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
    if (Status s = WriteOutput(run.stats_json, json); !s.ok()) {
      std::fprintf(stderr, "%s\n", s.ToString().c_str());
      remove_owned_dirs();
      return 1;
    }
  }

  remove_owned_dirs();
  return 0;
}
