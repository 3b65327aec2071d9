#include "gthinker/engine.h"

#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>

#include "net/wire.h"
#include "quick/mining_context.h"
#include "sched/steal_planner.h"
#include "util/logging.h"
#include "util/mem.h"
#include "util/serde.h"
#include "util/timer.h"
#include "util/trace.h"

namespace qcm {

// ---------------------------------------------------------------------------
// Worker: one simulated machine.
// ---------------------------------------------------------------------------

struct Engine::Worker {
  int id = 0;
  std::unique_ptr<DataService> data;
  std::unique_ptr<PullBroker> broker;         // batched vertex pulls
  std::unique_ptr<SpillManager> small_spill;  // L_small
  std::unique_ptr<SpillManager> big_spill;    // L_big
  std::unique_ptr<GlobalQueue> global_queue;  // Q_global
  std::unique_ptr<Scheduler> sched;           // the machine's policy object
  /// Compers of this machine currently inside App::Compute; sampled by
  /// the CommFabric at enqueue time for the overlap-ratio metric.
  std::atomic<int> busy_compers{0};

  /// Pending big tasks = Q_global + L_big (the quantity the steal master
  /// balances across machines).
  uint64_t PendingBig() const {
    return global_queue->ApproxSize() + big_spill->PendingTasks();
  }
};

// ---------------------------------------------------------------------------
// Comper: one mining thread. A thin driver of the machine's Scheduler --
// it owns the thread-local LocalQueue and implements the ComputeContext
// the application UDFs run against; every scheduling decision (routing,
// spawn batching, prefetch, park/resume, spilling, lifecycle) happens in
// the sched layer.
// ---------------------------------------------------------------------------

class Engine::Comper : public ComputeContext {
 public:
  Comper(Engine* engine, Worker* worker, int machine, int thread)
      : engine_(engine), worker_(worker) {
    metrics_.machine = machine;
    metrics_.thread = thread;
    // Pre-size the materialization scratch so the first task already runs
    // allocation-free over the full vertex-id space.
    ego_scratch_.Reset(engine_->table_->NumVertices());
  }

  void Run() {
    if (trace::Enabled()) {
      char buf[32];
      std::snprintf(buf, sizeof(buf), "comper%d.%d", metrics_.machine,
                    metrics_.thread);
      trace::SetThreadName(buf);
    }
    Scheduler* sched = worker_->sched.get();
    while (!engine_->done_.load()) {
      sched->ServiceFabric(engine_->fabric_.get(), local_);
      TaskPtr task = sched->NextTask(local_, *this);
      if (task != nullptr) {
        WallTimer busy;
        const bool first_round = !task->sched_info().computed_once;
        active_task_ = task.get();
        active_task_first_round_ = first_round;
        const size_t sink_before = sink_.results().size();
        worker_->busy_compers.fetch_add(1, std::memory_order_relaxed);
        ComputeStatus status;
        {
          QCM_TRACE_SPAN(trace::kLifecycle, "compute", task->root());
          status = engine_->app_->Compute(*task, *this);
        }
        worker_->busy_compers.fetch_sub(1, std::memory_order_relaxed);
        active_task_ = nullptr;
        metrics_.busy_seconds += busy.Seconds();
        ++metrics_.tasks_processed;
        // Checkpoint the round's results BEFORE the lifecycle sees the
        // round's completion: the log's append order is what guarantees a
        // root-done record is never durable ahead of its subtree's
        // results.
        if (engine_->ckpt_log_ != nullptr) {
          const auto& results = sink_.results();
          for (size_t i = sink_before; i < results.size(); ++i) {
            engine_->ckpt_log_->AppendResult(results[i]);
          }
        }
        sched->OnComputeResult(std::move(task), status, local_);
        continue;
      }
      // No work found anywhere: maybe everything is finished; otherwise
      // nap briefly (other threads hold decomposable or suspended tasks).
      WallTimer idle;
      engine_->MaybeFinish();
      if (!engine_->done_.load()) {
        std::this_thread::sleep_for(std::chrono::microseconds(100));
      }
      metrics_.idle_seconds += idle.Seconds();
    }
  }

  // ---- ComputeContext ----

  AdjRef Fetch(VertexId v) override {
    if (active_task_ != nullptr && !worker_->data->IsLocal(v)) {
      if (const auto* pin = active_task_->pulls().Find(v)) {
        CountPinHit();
        return AdjRef{
            std::span<const VertexId>((*pin)->data(), (*pin)->size()), *pin};
      }
    }
    return worker_->data->Fetch(v);
  }

  bool Request(VertexId v) override {
    QCM_CHECK(active_task_ != nullptr)
        << "Request() outside a compute round";
    if (worker_->data->IsLocal(v)) return true;
    TaskPullState& pulls = active_task_->pulls();
    if (pulls.Find(v) != nullptr) {
      CountPinHit();
      return true;
    }
    if (auto cached = worker_->data->TryCached(v)) {
      // Pin the cache copy so a later Fetch cannot lose it to eviction.
      pulls.Pin(v, std::move(cached));
      return true;
    }
    pulls.Want(v);
    return false;
  }

  uint32_t Degree(VertexId v) override { return worker_->data->Degree(v); }

  void AddTask(TaskPtr task) override {
    worker_->sched->SubmitNew(std::move(task), local_);
  }

  ResultSink& sink() override { return sink_; }
  ThreadMetrics& metrics() override { return metrics_; }
  EgoScratch& ego_scratch() override { return ego_scratch_; }
  MiningScratch* mining_scratch() override { return &mining_scratch_; }
  const EngineConfig& config() const override { return engine_->config_; }

  ThreadMetrics metrics_;
  VectorSink sink_;

 private:
  /// A read served by a task-held pin; when it happens in the first
  /// compute round of a prefetched task, it is a read the spawn-time
  /// prefetch turned from a suspension-and-transfer into a pin hit.
  void CountPinHit() {
    engine_->counters_.pin_hits.fetch_add(1, std::memory_order_relaxed);
    if (active_task_first_round_ && active_task_->sched_info().prefetched) {
      engine_->counters_.prefetch_hits.fetch_add(1,
                                                 std::memory_order_relaxed);
    }
  }

  Engine* engine_;
  Worker* worker_;
  Task* active_task_ = nullptr;  // task currently in Compute (pull target)
  bool active_task_first_round_ = false;
  LocalQueue local_;
  EgoScratch ego_scratch_;
  MiningScratch mining_scratch_;
};

namespace {

/// Serializes a stolen batch into a kStealBatch payload, moving each
/// task's lifecycle to kStolen (the receiver rehydrates kStolen->kReady).
/// Shared by the in-process steal master and the coordinator-commanded
/// steal path so the wire format and lifecycle recording cannot drift.
/// With checkpointing on, shipping a task taints its root: the subtree's
/// completion is no longer locally observable, so the root must never be
/// checkpointed as done.
std::string EncodeStealBatchPayload(const std::vector<TaskPtr>& tasks,
                                    EngineCounters* counters,
                                    RootProgress* root_progress) {
  Encoder enc;
  enc.PutU32(static_cast<uint32_t>(tasks.size()));
  for (const TaskPtr& t : tasks) {
    if (root_progress != nullptr) root_progress->Taint(t->root());
    AdvanceTaskState(*t, TaskState::kStolen, &counters->lifecycle);
    t->Encode(&enc);
  }
  return enc.Release();
}

/// Mirrors a telemetry sample into local trace counter tracks (the
/// per-rank half of the kStats stream; the coordinator renders the
/// cluster-wide half from the frames themselves).
void RecordStatsCounters(const WireStatsSample& s) {
  if (!trace::Enabled()) return;
  trace::EmitCounter(QCM_TRACE_NAME("queue_depth"), trace::kStats,
                     s.queue_depth);
  trace::EmitCounter(QCM_TRACE_NAME("inflight_bytes"), trace::kStats,
                     s.inflight_bytes);
  trace::EmitCounter(QCM_TRACE_NAME("busy_compers"), trace::kStats,
                     s.busy_compers);
  trace::EmitCounter(QCM_TRACE_NAME("tasks_completed"), trace::kStats,
                     s.tasks_completed);
  trace::EmitCounter(QCM_TRACE_NAME("cache_hits"), trace::kStats,
                     s.cache_hits);
  trace::EmitCounter(QCM_TRACE_NAME("cache_misses"), trace::kStats,
                     s.cache_misses);
  trace::EmitCounter(
      QCM_TRACE_NAME("pending_tasks"), trace::kStats,
      static_cast<uint64_t>(s.pending < 0 ? 0 : s.pending));
}

}  // namespace

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

Engine::Engine(const Graph* graph, EngineConfig config, App* app)
    : graph_(graph), config_(std::move(config)), app_(app) {}

Engine::Engine(std::unique_ptr<VertexTable> table, EngineConfig config,
               App* app, Transport* transport)
    : graph_(nullptr),
      config_(std::move(config)),
      app_(app),
      transport_(transport),
      table_(std::move(table)) {}

Engine::~Engine() {
  if (owns_spill_dir_ && !spill_dir_.empty()) {
    ::rmdir(spill_dir_.c_str());
  }
}

bool Engine::SpawnExhausted() const {
  for (const auto& worker : workers_) {
    if (!worker->sched->SpawnExhausted()) return false;
  }
  return true;
}

void Engine::MaybeFinish() {
  // Distributed mode: local quiescence proves nothing -- a peer may still
  // route work here. The coordinator's distributed detection (fed by
  // StatusLoop) is the only authority that may set done_.
  if (distributed()) return;
  // Order matters: a spawner increments active_spawners_ before claiming a
  // cursor slot, so reading spawners==0 after cursors-exhausted guarantees
  // no task materializes after our pending_ read.
  if (!SpawnExhausted()) return;
  if (active_spawners_.load() != 0) return;
  if (pending_.load() != 0) return;
  done_.store(true);
}

WireStatsSample Engine::SampleStats() const {
  WireStatsSample s;
  s.epoch = distributed() ? transport_->epoch() : 0;
  s.ts_usec = static_cast<uint64_t>(NowMicros());
  for (const auto& w : workers_) {
    s.queue_depth += w->PendingBig();
    s.busy_compers += static_cast<uint32_t>(
        std::max(0, w->busy_compers.load(std::memory_order_relaxed)));
  }
  s.inflight_bytes =
      counters_.msg_inflight_bytes.load(std::memory_order_relaxed);
  s.cache_hits = counters_.cache_hits.load(std::memory_order_relaxed);
  s.cache_misses = counters_.cache_misses.load(std::memory_order_relaxed);
  s.tasks_completed =
      counters_.tasks_completed.load(std::memory_order_relaxed);
  s.pending = pending_.load();
  return s;
}

void Engine::StatsSamplerLoop() {
  trace::SetThreadName("stats_sampler");
  const int64_t interval_usec = config_.stats_interval_ms * 1000;
  while (!done_.load()) {
    RecordStatsCounters(SampleStats());
    // Sleep one interval in small slices so termination is not delayed.
    int64_t slept = 0;
    while (!done_.load() && slept < interval_usec) {
      const int64_t slice = std::min<int64_t>(1000, interval_usec - slept);
      std::this_thread::sleep_for(std::chrono::microseconds(slice));
      slept += slice;
    }
  }
}

void Engine::StatusLoop() {
  // Publish this rank's termination inputs until the coordinator declares
  // global quiescence. Read order mirrors MaybeFinish: spawn state first,
  // then processed frames, then pending -- the transport snapshots its
  // per-peer sent counters after all of these inside PublishStatus --
  // combined with the wire-boundary pending accounting this keeps
  // in-flight work visible in every snapshot the coordinator can
  // assemble.
  trace::SetThreadName("status_loop");
  uint64_t last_stats_usec = 0;
  const uint64_t stats_interval_usec =
      config_.stats_interval_ms > 0
          ? static_cast<uint64_t>(config_.stats_interval_ms) * 1000
          : 0;
  for (;;) {
    RankStatus status;
    status.spawn_done = SpawnExhausted() && active_spawners_.load() == 0;
    status.processed_from.resize(processed_from_.size());
    for (size_t r = 0; r < processed_from_.size(); ++r) {
      status.processed_from[r] =
          processed_from_[r].load(std::memory_order_acquire);
    }
    status.pending = pending_.load();
    status.pending_big = workers_[0]->PendingBig();
    // Mean observed delivery latency so far: the coordinator's input to
    // latency-aware steal planning (it cannot see our fabric directly).
    uint64_t delivered = 0;
    for (int t = 0; t < kNumMessageTypes; ++t) {
      delivered += counters_.msg_delivered[t].load(std::memory_order_relaxed);
    }
    status.delivery_latency_usec =
        delivered == 0
            ? 0
            : counters_.msg_latency_usec_sum.load(std::memory_order_relaxed) /
                  delivered;
    transport_->PublishStatus(status);
    if (stats_interval_usec > 0) {
      const uint64_t now = static_cast<uint64_t>(NowMicros());
      if (now - last_stats_usec >= stats_interval_usec) {
        last_stats_usec = now;
        // The coordinator renders these into the merged trace's counter
        // tracks (and the launcher ticker); recording them locally too
        // would double every track in the merged timeline.
        transport_->PublishStats(SampleStats());
      }
    }
    if (done_.load()) return;
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
}

void Engine::ReinjectStealPayload(std::string payload, bool add_pending) {
  auto count = StealBatchTaskCount(payload);
  QCM_CHECK(count.ok()) << "corrupt retained steal batch: "
                        << count.status().ToString();
  if (add_pending) pending_.fetch_add(count.value());
  counters_.replayed_tasks.fetch_add(count.value(),
                                     std::memory_order_relaxed);
  fabric_->Inject(MessageType::kStealBatch, first_machine(),
                  std::move(payload));
}

void Engine::OnPeerDown(int peer) {
  // The transport joined the dead incarnation's receive thread before
  // invoking this hook, so no new frame from it can arrive. Its requests
  // still at the responder are dropped (their responses could only be
  // dropped too) and any one being answered finishes first, so
  // processed_from_[peer] is quiescent here and the reset pairs exactly
  // with the transport's sent_to[peer] reset.
  const size_t dropped = fabric_->DropRequestsFrom(peer);
  processed_from_[peer].store(0, std::memory_order_release);
  if (dropped > 0) {
    QCM_ILOG << "rank " << first_machine() << ": dropped " << dropped
             << " queued pull request(s) from dead rank " << peer;
  }
  std::vector<std::string> retained;
  {
    std::lock_guard<std::mutex> lock(retained_mu_);
    retained.swap(retained_steals_[peer]);
  }
  for (std::string& payload : retained) {
    // These tasks left pending_ when their batch shipped; they re-enter
    // it now and are mined here. Parts the dead rank already finished
    // come back as exact duplicates for the final dedup.
    ReinjectStealPayload(std::move(payload), /*add_pending=*/true);
  }
  if (!retained.empty()) {
    QCM_ILOG << "rank " << first_machine() << ": re-injected "
             << retained.size() << " steal batch(es) shipped to dead rank "
             << peer;
  }
}

void Engine::OnPeerUp(int peer) {
  // Pulls that were in flight toward the dead incarnation died with it;
  // ask the replacement (same partition) again. Parked tasks stayed
  // counted in pending_ throughout, so termination never raced past
  // them.
  const size_t requeued = workers_[0]->broker->RequeueInflightFor(peer);
  if (requeued > 0) {
    QCM_ILOG << "rank " << first_machine() << ": re-requesting "
             << requeued << " vertex pull(s) from recovered rank " << peer;
  }
}

void Engine::OnWireData(int src, uint8_t type, std::string payload,
                        uint64_t wire_transit_usec) {
  QCM_CHECK(type <= static_cast<uint8_t>(MessageType::kStealBatch))
      << "unknown fabric message type " << static_cast<int>(type)
      << " from rank " << src;
  const MessageType mtype = static_cast<MessageType>(type);
  if (mtype == MessageType::kStealBatch) {
    // The batch's tasks enter this process's pending accounting before
    // the frame counts as processed (transport.h's counting discipline).
    auto count = StealBatchTaskCount(payload);
    QCM_CHECK(count.ok()) << "corrupt steal batch from rank " << src << ": "
                          << count.status().ToString();
    pending_.fetch_add(count.value());
    // Close the cross-rank flow arrow the donor opened (id = payload
    // fingerprint, so both ends agree without extra wire bytes).
    if (trace::Enabled()) {
      trace::EmitFlow(trace::EventType::kFlowEnd,
                      QCM_TRACE_NAME("steal_flow"), trace::kLifecycle,
                      Fingerprint(payload));
    }
  }
  // A pull request counts as processed only once the responder has sent
  // its response (the on_served hook in Run).
  if (mtype != MessageType::kPullRequest) {
    processed_from_[src].fetch_add(1, std::memory_order_acq_rel);
  }
  fabric_->Inject(mtype, src, std::move(payload), wire_transit_usec);
}

void Engine::OnStealCommand(int receiver, uint64_t want) {
  QCM_CHECK(receiver >= 0 && receiver < config_.num_machines &&
            receiver != first_machine())
      << "steal command with bad receiver " << receiver;
  if (want == 0 || done_.load()) return;
  std::vector<TaskPtr> tasks = workers_[0]->global_queue->StealBatch(want);
  if (tasks.empty()) return;  // the coordinator's estimate was stale
  std::string payload =
      EncodeStealBatchPayload(tasks, &counters_, root_progress_.get());
  const uint64_t bytes = payload.size();
  // Retention-before-ship: a copy of the batch enters retained_steals_
  // under the same mutex OnPeerDown drains, so whichever of the two runs
  // second sees the other's effect -- the batch is either re-injected by
  // the hook (and our send below is silently dropped by the transport)
  // or shipped to a live receiver. Tasks can never fall between.
  {
    std::lock_guard<std::mutex> lock(retained_mu_);
    if (!transport_->PeerAlive(receiver)) {
      // The receiver died between the coordinator's command and now:
      // keep the batch as local work (pending_ was never decremented).
      ReinjectStealPayload(std::move(payload), /*add_pending=*/false);
      return;
    }
    retained_steals_[receiver].push_back(payload);
  }
  // Send first (the frame is counted as sent before the wire write), only
  // then drop the tasks from this process's pending accounting: the
  // coordinator always sees the batch as either local work or an
  // unprocessed frame, never as nothing.
  if (trace::Enabled()) {
    trace::EmitFlow(trace::EventType::kFlowStart,
                    QCM_TRACE_NAME("steal_flow"), trace::kLifecycle,
                    Fingerprint(payload));
  }
  fabric_->Send(MessageType::kStealBatch, first_machine(), receiver,
                std::move(payload));
  pending_.fetch_sub(static_cast<int64_t>(tasks.size()));
  counters_.steal_events.fetch_add(1, std::memory_order_relaxed);
  counters_.stolen_tasks.fetch_add(tasks.size(), std::memory_order_relaxed);
  counters_.steal_bytes.fetch_add(bytes, std::memory_order_relaxed);
}

void Engine::StealLoop() {
  // Nothing will ever be stolen: exit instead of waking every period
  // forever (Engine::Run does not even spawn the thread in this case,
  // but keep the guard for direct callers).
  if (!config_.enable_stealing || workers_.size() < 2) return;

  trace::SetThreadName("steal_loop");
  WallTimer lifetime;
  double active_seconds = 0.0;
  while (!done_.load()) {
    // Sleep one balancing period in small slices so termination is not
    // delayed by a long period.
    WallTimer napped;
    while (!done_.load() && napped.Seconds() < config_.steal_period_sec) {
      std::this_thread::sleep_for(std::chrono::microseconds(
          std::min<int64_t>(1000, static_cast<int64_t>(
                                      config_.steal_period_sec * 1e6) + 1)));
    }
    if (done_.load()) break;

    // Periodic balancing round: the shared steal planner (the same plan
    // the cluster Coordinator runs, paper §5) computes the moves, sized
    // per link by the RTT EWMAs the fabric feeds -- larger, rarer
    // batches on slow links.
    WallTimer active;
    std::vector<uint64_t> counts(workers_.size());
    for (size_t i = 0; i < workers_.size(); ++i) {
      counts[i] = workers_[i]->PendingBig();
    }
    StealPlannerOptions opts;
    opts.base_batch = config_.batch_size;
    opts.rtt_reference_sec = config_.steal_rtt_reference_sec;
    opts.max_batch_factor = config_.steal_max_batch_factor;
    for (const StealMove& move : PlanSteals(counts, opts, rtt_.get())) {
      std::vector<TaskPtr> tasks =
          workers_[move.donor]->global_queue->StealBatch(move.want);
      if (tasks.empty()) continue;  // the plan's estimate was stale

      // Serialize the batch into one kStealBatch message; the fabric
      // delivers it into the receiver's global queue on a later service,
      // so the transfer overlaps with mining on both ends instead
      // of blocking this thread. The tasks remain counted in pending_
      // throughout the flight, so termination cannot race past them.
      std::string payload =
          EncodeStealBatchPayload(tasks, &counters_, root_progress_.get());
      const uint64_t bytes = payload.size();
      fabric_->Send(MessageType::kStealBatch, move.donor, move.receiver,
                    std::move(payload));
      counters_.steal_events.fetch_add(1, std::memory_order_relaxed);
      counters_.stolen_tasks.fetch_add(tasks.size(),
                                       std::memory_order_relaxed);
      counters_.steal_bytes.fetch_add(bytes, std::memory_order_relaxed);
    }
    active_seconds += active.Seconds();
  }
  counters_.steal_active_usec.fetch_add(
      static_cast<uint64_t>(active_seconds * 1e6),
      std::memory_order_relaxed);
  counters_.steal_idle_usec.fetch_add(
      static_cast<uint64_t>(
          std::max(0.0, lifetime.Seconds() - active_seconds) * 1e6),
      std::memory_order_relaxed);
}

StatusOr<EngineReport> Engine::Run() {
  if (ran_) {
    return Status::InvalidArgument("Engine::Run may only be called once");
  }
  ran_ = true;
  QCM_RETURN_IF_ERROR(config_.Validate());
  if (distributed()) {
    if (config_.num_machines != transport_->world_size()) {
      return Status::InvalidArgument(
          "num_machines (" + std::to_string(config_.num_machines) +
          ") must equal the transport world size (" +
          std::to_string(transport_->world_size()) + ")");
    }
    QCM_CHECK(table_ != nullptr && table_->partitioned() &&
              table_->local_rank() == transport_->rank() &&
              table_->NumMachines() == config_.num_machines)
        << "distributed engine needs a matching partitioned vertex table";
  }

  // Spill directory.
  if (config_.spill_dir.empty()) {
    char templ[] = "/tmp/qcm_spill_XXXXXX";
    char* dir = ::mkdtemp(templ);
    if (dir == nullptr) {
      return Status::IOError("cannot create spill directory");
    }
    spill_dir_ = dir;
    owns_spill_dir_ = true;
  } else {
    spill_dir_ = config_.spill_dir;
    ::mkdir(spill_dir_.c_str(), 0755);
  }

  // Durable progress checkpointing (distributed mode only: the recovery
  // protocol that consumes it lives in the cluster coordinator). A
  // replacement incarnation (epoch > 0) replays its predecessor's log
  // before mining: replayed results join the final report, fully-mined
  // roots are skipped at spawn time.
  if (distributed() && !config_.checkpoint_dir.empty()) {
    ckpt_log_ = std::make_unique<CheckpointLog>();
    CheckpointLog::LoadResult replay;
    const std::string dir = config_.checkpoint_dir + "/rank" +
                            std::to_string(transport_->rank());
    QCM_RETURN_IF_ERROR(ckpt_log_->Open(dir, transport_->epoch(),
                                        config_.checkpoint_interval_sec,
                                        &replay));
    recovered_results_ = std::move(replay.results);
    completed_roots_ = std::move(replay.completed_roots);
    counters_.recovered_results.store(recovered_results_.size(),
                                      std::memory_order_relaxed);
    root_progress_ = std::make_unique<RootProgress>(ckpt_log_.get());
    if (transport_->epoch() > 0) {
      QCM_ILOG << "rank " << transport_->rank() << " epoch "
               << transport_->epoch() << ": replayed " << replay.records
               << " checkpoint record(s) (" << recovered_results_.size()
               << " results, " << completed_roots_.size()
               << " completed roots, " << replay.torn_bytes
               << " torn bytes discarded)";
    }
  }

  WallTimer wall;
  if (!distributed()) {
    table_ = std::make_unique<VertexTable>(graph_, config_.num_machines);
  }
  fabric_ = std::make_unique<CommFabric>(
      config_.num_machines, config_.net_latency_sec, &counters_,
      transport_);
  // Per-link delivery-latency EWMAs, measured off fabric message
  // timestamps; the steal planner sizes batches from them. Alpha 0.25:
  // converge within a few deliveries yet absorb one-off stalls.
  rtt_ = std::make_unique<LinkRttTracker>(config_.num_machines, 0.25);
  fabric_->SetRttTracker(rtt_.get());
  // Machines hosted by this process: all of them when simulated, exactly
  // the transport's rank when distributed.
  std::vector<int> local_machines;
  if (distributed()) {
    local_machines.push_back(transport_->rank());
  } else {
    for (int m = 0; m < config_.num_machines; ++m) {
      local_machines.push_back(m);
    }
  }
  workers_.clear();
  for (int m : local_machines) {
    auto w = std::make_unique<Worker>();
    w->id = m;
    w->data = std::make_unique<DataService>(
        table_.get(), m, config_.vertex_cache_capacity, &counters_);
    w->broker = std::make_unique<PullBroker>(
        w->data.get(), m, config_.max_pull_batch, &counters_);
    w->small_spill = std::make_unique<SpillManager>(
        spill_dir_, "w" + std::to_string(m) + "_small", &counters_);
    w->big_spill = std::make_unique<SpillManager>(
        spill_dir_, "w" + std::to_string(m) + "_big", &counters_);
    w->global_queue = std::make_unique<GlobalQueue>(
        config_.global_queue_capacity, config_.batch_size,
        w->big_spill.get(), app_, &counters_);
    Scheduler::Deps deps;
    deps.machine = m;
    deps.config = &config_;
    deps.app = app_;
    deps.table = table_.get();
    deps.data = w->data.get();
    deps.broker = w->broker.get();
    deps.global_queue = w->global_queue.get();
    deps.small_spill = w->small_spill.get();
    deps.counters = &counters_;
    deps.pending = &pending_;
    deps.active_spawners = &active_spawners_;
    deps.root_progress = root_progress_.get();
    deps.completed_roots =
        root_progress_ != nullptr ? &completed_roots_ : nullptr;
    w->sched = std::make_unique<Scheduler>(deps);
    workers_.push_back(std::move(w));
  }
  fabric_->SetBusyProbe([this](int machine) {
    for (const auto& w : workers_) {
      if (w->id == machine) {
        return w->busy_compers.load(std::memory_order_relaxed);
      }
    }
    return 0;
  });

  if (distributed()) {
    transport_->SetDataHandler(
        [this](int src, uint8_t type, std::string payload,
               uint64_t wire_transit_usec) {
          OnWireData(src, type, std::move(payload), wire_transit_usec);
        });
    processed_from_ =
        std::vector<std::atomic<uint64_t>>(config_.num_machines);
    retained_steals_.resize(config_.num_machines);
    Transport::ControlHooks hooks;
    hooks.on_terminate = [this] { done_.store(true); };
    hooks.on_steal_command = [this](int receiver, uint64_t want) {
      OnStealCommand(receiver, want);
    };
    hooks.on_peer_down = [this](int peer) { OnPeerDown(peer); };
    hooks.on_peer_up = [this](int peer) { OnPeerUp(peer); };
    transport_->SetControlHooks(std::move(hooks));
    transport_->ConfigureCoalescing(
        {config_.net_coalesce_bytes, config_.net_linger_usec});
    QCM_RETURN_IF_ERROR(transport_->Start());
  }

  // The process's one pull responder answers every hosted machine's peer
  // requests (any that arrived since Start wait in its queue); in
  // distributed mode an answered request then counts as processed
  // (transport.h). Stopped below once the compers have joined.
  fabric_->StartResponder(
      [this](int owner, const std::string& request) {
        return workers_[owner - first_machine()]->broker->ServeRequest(
            request);
      },
      [this](int src) {
        if (distributed()) {
          processed_from_[src].fetch_add(1, std::memory_order_acq_rel);
        }
      });

  std::vector<std::unique_ptr<Comper>> compers;
  for (const auto& w : workers_) {
    for (int t = 0; t < config_.threads_per_machine; ++t) {
      compers.push_back(std::make_unique<Comper>(this, w.get(), w->id, t));
    }
  }

  std::vector<std::thread> threads;
  threads.reserve(compers.size() + 1);
  for (auto& comper : compers) {
    threads.emplace_back([&comper] { comper->Run(); });
  }
  // Simulated mode runs the in-process steal master (when it could ever
  // move work); distributed mode instead reports status upward and lets
  // the coordinator master steals and termination.
  std::thread control_thread;
  if (distributed()) {
    control_thread = std::thread([this] { StatusLoop(); });
  } else if (config_.enable_stealing && workers_.size() >= 2) {
    control_thread = std::thread([this] { StealLoop(); });
  }
  // Distributed mode samples from StatusLoop; simulated mode needs its
  // own cadence thread, and only when the samples have somewhere to go
  // (the trace).
  std::thread stats_thread;
  if (!distributed() && trace::Enabled() && config_.stats_interval_ms > 0) {
    stats_thread = std::thread([this] { StatsSamplerLoop(); });
  }
  for (std::thread& t : threads) t.join();
  if (control_thread.joinable()) control_thread.join();
  if (stats_thread.joinable()) stats_thread.join();
  fabric_->StopResponder();

  if (distributed() && !transport_->healthy()) {
    return Status::Aborted(
        "transport failed before global termination; partial mining state "
        "discarded");
  }
  QCM_CHECK(pending_.load() == 0) << "engine finished with pending tasks";
  // Every meaningful message holds a pending task (parked or stolen), so
  // a clean shutdown leaves the fabric -- inboxes and responder queue --
  // empty; drain defensively and fail loudly if the invariant broke rather
  // than silently losing work.
  for (const auto& worker : workers_) {
    auto leftover = fabric_->Drain(worker->id);
    QCM_CHECK(leftover.empty())
        << "engine finished with " << leftover.size()
        << " undelivered fabric message(s) for machine " << worker->id
        << " (first type: "
        << MessageTypeName(leftover.front().type) << ")";
  }

  // Final checkpoint flush, then freeze the log's totals into the
  // counters before the snapshot below captures them.
  if (ckpt_log_ != nullptr) {
    ckpt_log_->Flush();
    counters_.checkpoint_flushes.store(ckpt_log_->flushes(),
                                       std::memory_order_relaxed);
    counters_.checkpoint_bytes.store(ckpt_log_->bytes_appended(),
                                     std::memory_order_relaxed);
  }

  // Aggregate the report.
  EngineReport report;
  report.wall_seconds = wall.Seconds();
  report.counters = EngineCountersSnapshot::From(counters_);
  if (distributed()) {
    // Shutdown's forced flush has not run yet, but the engine only gets
    // here after termination drained every frame, so the buffers are
    // already empty and the stats are final.
    report.counters.AddFlushStats(transport_->FlushStats());
  }
  if (table_ != nullptr && table_->paged_store() != nullptr) {
    report.counters.AddPagedStoreStats(table_->paged_store()->stats());
  }
  report.peak_rss_bytes = PeakRssBytes();

  std::unordered_map<VertexId, RootTaskAgg> root_aggs;
  for (auto& comper : compers) {
    ThreadMetrics& tm = comper->metrics_;
    report.mining.Add(tm.mining_stats);
    report.threads.push_back(ThreadSummary{
        .machine = tm.machine,
        .thread = tm.thread,
        .busy_seconds = tm.busy_seconds,
        .idle_seconds = tm.idle_seconds,
        .mining_seconds = tm.mining_seconds,
        .materialize_seconds = tm.materialize_seconds,
        .tasks_processed = tm.tasks_processed,
    });
    report.total_busy_seconds += tm.busy_seconds;
    report.total_idle_seconds += tm.idle_seconds;
    report.total_mining_seconds += tm.mining_seconds;
    report.total_materialize_seconds += tm.materialize_seconds;
    report.total_build_seconds += tm.build_seconds;
    for (auto& set : comper->sink_.results()) {
      report.results.push_back(std::move(set));
    }
    for (const auto& [root, agg] : tm.root_agg) {
      RootTaskAgg& merged = root_aggs[root];
      merged.root = root;
      merged.mining_seconds += agg.mining_seconds;
      merged.tasks += agg.tasks;
      if (agg.subgraph_vertices != 0) {
        merged.subgraph_vertices = agg.subgraph_vertices;
        merged.subgraph_edges = agg.subgraph_edges;
      }
    }
  }
  report.root_tasks.reserve(root_aggs.size());
  for (auto& [root, agg] : root_aggs) {
    report.root_tasks.push_back(agg);
  }
  // Results replayed from a crashed predecessor's checkpoint join the
  // freshly mined ones; overlap between the two (roots the predecessor
  // finished partially) is exact duplicates the downstream FilterMaximal
  // dedup removes, which is what keeps the final digest crash-invariant.
  for (VertexSet& s : recovered_results_) {
    report.results.push_back(std::move(s));
  }
  recovered_results_.clear();

  // All spill files should have been consumed; clean up defensively.
  for (auto& worker : workers_) {
    worker->small_spill->RemoveAll();
    worker->big_spill->RemoveAll();
  }
  return report;
}

}  // namespace qcm
