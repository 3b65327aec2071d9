// qcm_cluster: launcher for the real multi-process deployment.
//
// Runs one qcm_worker process per machine, distributes the run
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
// the coordinator records from the ranks' sampled statuses; pid = rank).
// Workers write <path>.rank<R>.jsonl fragments which the launcher stitches
// into <path> after the run and deletes. While the run is live, the same
// samples print a telemetry line on stderr, at most every 250 ms (sampling
// cadence --stats-interval-ms; 0 disables both).
// --log-level sets the launcher's level; workers inherit QCM_LOG_LEVEL
// from the environment, and every rank's EngineReport comes back inside
// the launcher's --stats-json.
//
// Bring-up is one launch path: the coordinator starts every rank it
// admits through the launch callback below, ranks 0..N-1 one at a time
// and a replacement after a death, and the next connection it accepts is
// that rank's. So rank r's worker is forked into workers[r], and its
// stdout/stderr go to <log-dir>/worker<r>.log (a replacement logs to
// worker<r>.r<k>.log, k its epoch, so the dead incarnation's last words
// survive): a crashed rank's story is on disk, under its rank, for CI to
// upload. A worker that exits before the handshake is over fails the run
// at once, naming its rank; after it, a dead worker's closed control
// connection is the coordinator's `disconnect`.
//
// The log and checkpoint dirs are made before the graph loads, and a dir
// that cannot be made fails the run there, naming it. The default log
// dir is a fresh temp dir (path printed), removed with the packed graph
// in it unless the run fails after its workers start; a --log-dir is
// never removed. Every rank and incarnation of the job spills into one
// launcher-made temp dir (files prefixed w<rank>_), removed on every
// exit: a SIGKILLed worker never cleans up after itself.
//
// SIGTERM and SIGINT fail the run through that same exit (workers killed
// and reaped, spill dir removed, kept dirs named, exit 1 naming the
// signal): main() blocks both before any thread starts, and one thread
// takes them with sigwait() once the coordinator listens (a signal during
// the load is taken then). Workers ignore SIGINT: a terminal's ^C reaches
// the whole process group, and a worker it killed would be recovered.
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
#include <pthread.h>
#include <signal.h>
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

/// The current incarnation of one rank's worker (pid -1 until launched).
struct WorkerProcess {
  pid_t pid = -1;
  std::string log_path;
  /// 0 for the first launch, k for the rank's k-th replacement.
  uint32_t epoch = 0;
  bool reaped = false;
  int wstatus = 0;
};

/// "status N" or "signal N", from a waitpid status.
std::string HowExited(int wstatus) {
  return WIFSIGNALED(wstatus)
             ? "signal " + std::to_string(WTERMSIG(wstatus))
             : "status " + std::to_string(WEXITSTATUS(wstatus));
}

void PrintLogTails(const std::vector<WorkerProcess>& workers) {
  for (const WorkerProcess& w : workers) {
    if (w.log_path.empty()) continue;  // never launched
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

/// Fails the run on the first SIGTERM or SIGINT, which main() blocked
/// before any thread started: this thread takes it with sigwait() and
/// aborts the coordinator. The destructor wakes and joins the thread.
class StopOnSignal {
 public:
  StopOnSignal(const sigset_t& signals, Coordinator* coordinator)
      : thread_([this, signals, coordinator] {
          int sig = 0;
          if (::sigwait(&signals, &sig) != 0 || done_.load()) return;
          coordinator->Abort(std::string("stopped by ") +
                             (sig == SIGINT ? "SIGINT" : "SIGTERM"));
        }) {}

  ~StopOnSignal() {
    done_.store(true);
    ::pthread_kill(thread_.native_handle(), SIGTERM);
    thread_.join();
  }

  StopOnSignal(const StopOnSignal&) = delete;
  StopOnSignal& operator=(const StopOnSignal&) = delete;

 private:
  std::atomic<bool> done_{false};
  std::thread thread_;
};

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
  // Blocked before any thread starts, so that only StopOnSignal's
  // sigwait() takes them (see the file comment).
  sigset_t stop_signals;
  sigset_t worker_mask;  // the mask this process started with
  sigemptyset(&stop_signals);
  sigaddset(&stop_signals, SIGTERM);
  sigaddset(&stop_signals, SIGINT);
  ::pthread_sigmask(SIG_BLOCK, &stop_signals, &worker_mask);

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
    Status packed =
        WriteCsrSnapshot(core.graph, packed_ids, config.graph_snapshot);
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

  // Worker process table, index = rank: the coordinator's launch callback
  // forks rank r into workers[r]. Shared between the coordinator's thread
  // (launch, kill), the bring-up watchdog and the fault-injection hook.
  std::vector<WorkerProcess> workers(num_workers);
  std::mutex workers_mu;
  std::string port_str;  // the coordinator's, once it listens

  // The control-plane listener is bound before anyone is launched. Its
  // status deadline is the backstop for wedged-but-alive workers; a worker
  // that dies closes its control connection, which the coordinator sees
  // at once.
  CoordinatorConfig coord_config = CoordinatorConfigFor(config);
  coord_config.config_blob = EncodeJobSpec(config);
  coord_config.max_rank_restarts = max_rank_restarts;
  // Forks rank `rank`'s worker, logging to worker<rank>.log, or to
  // worker<rank>.r<epoch>.log for a replacement so the dead incarnation's
  // last words survive. Called on the coordinator's thread.
  coord_config.launch = [&](int rank, uint32_t epoch) -> Status {
    const std::string log_path =
        log_dir + "/worker" + std::to_string(rank) +
        (epoch > 0 ? ".r" + std::to_string(epoch) : "") + ".log";
    const pid_t pid = ::fork();
    if (pid < 0) {
      return Status::IOError("fork failed for rank " + std::to_string(rank) +
                             ": " + std::strerror(errno));
    }
    if (pid == 0) {
      ::sigprocmask(SIG_SETMASK, &worker_mask, nullptr);
      std::signal(SIGINT, SIG_IGN);
      if (FILE* log = std::fopen(log_path.c_str(), "w")) {
        ::dup2(::fileno(log), STDOUT_FILENO);
        ::dup2(::fileno(log), STDERR_FILENO);
      }
      ::execl(worker_bin.c_str(), worker_bin.c_str(), "--coordinator-port",
              port_str.c_str(), static_cast<char*>(nullptr));
      std::fprintf(stderr, "execl %s failed: %s\n", worker_bin.c_str(),
                   std::strerror(errno));
      ::_exit(127);
    }
    {
      std::lock_guard<std::mutex> lock(workers_mu);
      workers[rank] = WorkerProcess{pid, log_path, epoch};
    }
    if (epoch > 0) {
      std::fprintf(stderr,
                   "qcm_cluster: relaunched rank %d (pid %d, attempt %u, "
                   "log %s)\n",
                   rank, static_cast<int>(pid), epoch, log_path.c_str());
    }
    return Status::OK();
  };
  // Guarantees rank `rank`'s current incarnation is dead and reaped
  // before the survivors are told so. Setting it turns recovery on.
  coord_config.kill = [&](int rank) {
    pid_t pid = -1;
    {
      std::lock_guard<std::mutex> lock(workers_mu);
      if (!workers[rank].reaped) pid = workers[rank].pid;
    }
    if (pid <= 0) return;
    ::kill(pid, SIGKILL);
    int wstatus = 0;
    ::waitpid(pid, &wstatus, 0);
    std::lock_guard<std::mutex> lock(workers_mu);
    workers[rank].reaped = true;
    workers[rank].wstatus = wstatus;
  };
  // Live telemetry: a cross-rank line from the coordinator's samples of
  // the ranks' statuses, at most every 250 ms (the coordinator records
  // the samples' counter tracks itself). Called on the RunToCompletion
  // thread (this one).
  uint64_t telemetry_printed_usec = static_cast<uint64_t>(NowMicros());
  coord_config.on_sample = [&](uint64_t ts_usec,
                               const std::vector<RankStatus>& statuses) {
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
  const StopOnSignal stop_on_signal(stop_signals, coordinator.get());
  port_str = std::to_string(coordinator->port());
  std::fprintf(stderr,
               "qcm_cluster: coordinator on 127.0.0.1:%u, spawning %d "
               "workers (logs in %s, checkpoints in %s, spill in %s)\n",
               coordinator->port(), num_workers, log_dir.c_str(),
               config.checkpoint_dir.c_str(), config.spill_dir.c_str());

  // The helper threads below poll between naps; `done` ends one and wakes
  // it at once, so joining it never waits out a nap.
  std::mutex nap_mu;
  std::condition_variable nap_cv;
  auto nap_until = [&](const std::atomic<bool>& done, int64_t ms) {
    std::unique_lock<std::mutex> lock(nap_mu);
    nap_cv.wait_for(lock, std::chrono::milliseconds(ms),
                    [&] { return done.load(); });
  };
  auto end_thread = [&](std::atomic<bool>& done, std::thread& thread) {
    {
      std::lock_guard<std::mutex> lock(nap_mu);
      done.store(true);
    }
    nap_cv.notify_all();
    if (thread.joinable()) thread.join();
  };

  // Bring-up watchdog: a worker that exits before the handshake is over,
  // with any status (0 included), would leave the coordinator waiting for
  // a connection or a kReady that never comes, so it fails the run at
  // once, naming the rank. It stops when the handshake returns, before
  // any recovery can reap a worker too.
  std::atomic<bool> bring_up_done{false};
  std::thread watchdog([&] {
    while (!bring_up_done.load()) {
      for (int rank = 0; rank < num_workers; ++rank) {
        pid_t pid = -1;
        {
          std::lock_guard<std::mutex> lock(workers_mu);
          if (workers[rank].reaped) continue;
          pid = workers[rank].pid;
        }
        int wstatus = 0;
        if (pid <= 0 || ::waitpid(pid, &wstatus, WNOHANG) != pid) continue;
        {
          std::lock_guard<std::mutex> lock(workers_mu);
          workers[rank].reaped = true;
          workers[rank].wstatus = wstatus;
        }
        coordinator->Abort("rank " + std::to_string(rank) +
                           " exited during bring-up (" + HowExited(wstatus) +
                           ")");
      }
      nap_until(bring_up_done, 20);
    }
  });
  Status run_status = coordinator->RunHandshake();
  end_thread(bring_up_done, watchdog);

  // Fault injection for the recovery test: SIGKILL the named rank once it
  // verifiably holds pending work, so recovery happens mid-mining. The
  // victim's first incarnation stalls one compute round until this fires
  // (see the file header), so its last status keeps pending > 0 and the
  // poll below cannot miss it.
  std::atomic<bool> run_done{false};
  std::thread killer;
  if (const char* kill_rank_env = std::getenv("QCM_SMOKE_KILL_RANK")) {
    int kill_rank = -1;
    if (ParseNumber(kill_rank_env, &kill_rank).ok() && kill_rank >= 0 &&
        kill_rank < num_workers) {
      killer = std::thread([&, kill_rank] {
        while (!run_done.load()) {
          RankStatus status;
          if (coordinator->SnapshotStatus(kill_rank, &status) &&
              status.pending > 0) {
            pid_t pid = -1;
            {
              std::lock_guard<std::mutex> lock(workers_mu);
              const WorkerProcess& w = workers[kill_rank];
              if (!w.reaped && w.epoch == 0) pid = w.pid;
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
          nap_until(run_done, 2);
        }
      });
    } else {
      std::fprintf(stderr,
                   "qcm_cluster: ignoring QCM_SMOKE_KILL_RANK=%s (not a "
                   "rank)\n",
                   kill_rank_env);
    }
  }

  // Drive the run to global termination.
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
  end_thread(run_done, killer);
  coordinator->Close();

  // Reap every launched worker; a nonzero exit of a CURRENT incarnation
  // fails the run (superseded incarnations died by design and were
  // already reaped by the kill callback).
  bool workers_ok = true;
  for (int rank = 0; rank < num_workers; ++rank) {
    WorkerProcess& w = workers[rank];
    if (w.pid <= 0) continue;  // never launched: the bring-up failed first
    if (!w.reaped) {
      if (!run_status.ok()) ::kill(w.pid, SIGKILL);
      ::waitpid(w.pid, &w.wstatus, 0);
      w.reaped = true;
    }
    const bool clean = WIFEXITED(w.wstatus) && WEXITSTATUS(w.wstatus) == 0;
    if (!clean && run_status.ok()) {
      std::fprintf(stderr, "qcm_cluster: rank %d exited abnormally (%s)\n",
                   rank, HowExited(w.wstatus).c_str());
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

  // Stitch the per-rank fragments and the launcher's own events (recovery
  // spans and the sampled counter tracks) into ONE Perfetto-loadable
  // timeline, each process labeled: rank<R>, and the launcher under a pid
  // past every rank.
  if (!trace_out.empty()) {
    std::vector<std::string> fragments;
    std::vector<std::string> names;
    for (int r = 0; r < num_workers; ++r) {
      fragments.push_back(trace::FragmentPath(trace_out, r));
      names.push_back("rank" + std::to_string(r));
    }
    names.push_back("launcher");
    const StatusOr<trace::MergeSummary> merged = trace::MergeFragments(
        fragments, trace::DrainJsonLines(/*pid=*/num_workers), names,
        trace_out);
    if (merged.ok()) {
      for (const std::string& f : fragments) ::remove(f.c_str());
      std::fprintf(stderr,
                   "trace: %s (%d rank fragments merged, %zu events, %llu "
                   "records dropped)\n",
                   trace_out.c_str(), num_workers, merged->events,
                   static_cast<unsigned long long>(merged->dropped_records));
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
