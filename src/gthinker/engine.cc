#include "gthinker/engine.h"

#include <sys/stat.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <thread>

#include "quick/mining_context.h"
#include "util/logging.h"
#include "util/mem.h"
#include "util/serde.h"
#include "util/timer.h"
#include "util/trace.h"

namespace qcm {

// ---------------------------------------------------------------------------
// Comper: one mining thread. A thin driver of the machine's Scheduler --
// it owns the thread-local TaskQueue (spilling to the machine's L_small)
// and implements the ComputeContext the application UDFs run against;
// every scheduling decision (routing, spawn batching, park/resume,
// lifecycle) happens in the sched layer.
// ---------------------------------------------------------------------------

class Engine::Comper : public ComputeContext {
 public:
  Comper(Engine* engine, int thread)
      : engine_(engine),
        local_(engine->config_.local_queue_capacity,
               engine->config_.batch_size, engine->small_spill_.get(),
               engine->app_) {
    metrics_.machine = engine->rank_;
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
    Scheduler* sched = engine_->sched_.get();
    while (!engine_->done_.load()) {
      sched->ServiceFabric(engine_->fabric_.get(), local_);
      TaskPtr task = sched->NextTask(local_, *this);
      if (task != nullptr) {
        WallTimer busy;
        active_task_ = task.get();
        const size_t sink_before = sink_.results().size();
        engine_->busy_compers_.fetch_add(1, std::memory_order_relaxed);
        ComputeStatus status;
        {
          QCM_TRACE_SPAN(trace::kLifecycle, "compute", task->root());
          status = engine_->app_->Compute(*task, *this);
        }
        engine_->busy_compers_.fetch_sub(1, std::memory_order_relaxed);
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
      // No work found here: nap briefly. Only the coordinator can tell
      // whether the whole cluster is done (a peer may still send work).
      WallTimer idle;
      std::this_thread::sleep_for(std::chrono::microseconds(100));
      metrics_.idle_seconds += idle.Seconds();
    }
  }

  // ---- ComputeContext ----

  AdjRef Fetch(VertexId v) override {
    if (active_task_ != nullptr && !engine_->table_->IsLocal(v)) {
      if (const auto* pin = active_task_->pulls().Find(v)) {
        engine_->counters_.pin_hits.fetch_add(1, std::memory_order_relaxed);
        return AdjRef{
            std::span<const VertexId>((*pin)->data(), (*pin)->size()), *pin};
      }
    }
    return engine_->broker_->Fetch(v);
  }

  bool Request(VertexId v) override {
    QCM_CHECK(active_task_ != nullptr)
        << "Request() outside a compute round";
    if (engine_->table_->IsLocal(v)) return true;
    TaskPullState& pulls = active_task_->pulls();
    if (pulls.Find(v) != nullptr) {
      engine_->counters_.pin_hits.fetch_add(1, std::memory_order_relaxed);
      return true;
    }
    if (auto cached = engine_->broker_->TryCached(v)) {
      // Pin the cache copy so a later Fetch cannot lose it to eviction.
      pulls.Pin(v, std::move(cached));
      return true;
    }
    pulls.Want(v);
    return false;
  }

  uint32_t Degree(VertexId v) override { return engine_->table_->Degree(v); }

  void AddTask(TaskPtr task) override {
    engine_->sched_->SubmitNew(std::move(task), local_);
  }

  ResultSink& sink() override { return sink_; }
  ThreadMetrics& metrics() override { return metrics_; }
  EgoScratch& ego_scratch() override { return ego_scratch_; }
  MiningScratch* mining_scratch() override { return &mining_scratch_; }
  const EngineConfig& config() const override { return engine_->config_; }

  ThreadMetrics metrics_;
  VectorSink sink_;

 private:
  Engine* engine_;
  Task* active_task_ = nullptr;  // task currently in Compute (pull target)
  TaskQueue local_;
  EgoScratch ego_scratch_;
  MiningScratch mining_scratch_;
};

// ---------------------------------------------------------------------------
// Engine
// ---------------------------------------------------------------------------

Engine::Engine(std::unique_ptr<VertexTable> table, EngineConfig config,
               App* app, Transport* transport)
    : config_(std::move(config)),
      app_(app),
      transport_(transport),
      rank_(transport->rank()),
      table_(std::move(table)) {}

Engine::~Engine() = default;

uint64_t Engine::PendingBig() const {
  return global_queue_->ApproxSize() + big_spill_->PendingTasks();
}

void Engine::StatusLoop() {
  // Publish this rank's status until the coordinator declares global
  // quiescence. Read order of the termination inputs: spawn state first
  // (a spawner increments active_spawners_ before claiming a cursor slot,
  // so reading spawners == 0 after the cursor is exhausted proves no task
  // materializes later), then processed frames, then pending -- the
  // transport snapshots its per-peer sent counters after all of these
  // inside PublishStatus. Combined with the wire-boundary pending
  // accounting this keeps in-flight work visible in every snapshot the
  // coordinator can assemble.
  trace::SetThreadName("status_loop");
  for (;;) {
    RankStatus status;
    status.spawn_done =
        sched_->SpawnExhausted() && active_spawners_.load() == 0;
    status.processed_from.resize(processed_from_.size());
    for (size_t r = 0; r < processed_from_.size(); ++r) {
      status.processed_from[r] =
          processed_from_[r].load(std::memory_order_acquire);
    }
    status.pending = pending_.load();
    status.pending_big = PendingBig();
    // Telemetry the coordinator samples for the trace's counter tracks
    // and qcm_cluster's telemetry line.
    status.busy_compers = static_cast<uint32_t>(
        std::max(0, busy_compers_.load(std::memory_order_relaxed)));
    status.inflight_bytes =
        counters_.msg_inflight_bytes.load(std::memory_order_relaxed);
    status.cache_hits = counters_.cache_hits.load(std::memory_order_relaxed);
    status.cache_misses =
        counters_.cache_misses.load(std::memory_order_relaxed);
    status.tasks_completed =
        counters_.tasks_completed.load(std::memory_order_relaxed);
    transport_->PublishStatus(status);
    if (done_.load()) return;
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
}

void Engine::ReinjectStealPayload(const std::string& payload,
                                  bool add_pending) {
  auto tasks = DecodeTaskBatch(payload, *app_);
  QCM_CHECK(tasks.ok()) << "corrupt retained steal batch: "
                        << tasks.status().ToString();
  if (add_pending) pending_.fetch_add(tasks->size());
  counters_.replayed_tasks.fetch_add(tasks->size(),
                                     std::memory_order_relaxed);
  global_queue_->PushStolenFront(std::move(tasks).value());
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
    QCM_ILOG << "rank " << rank_ << ": dropped " << dropped
             << " queued pull request(s) from dead rank " << peer;
  }
  std::vector<std::string> retained;
  {
    std::lock_guard<std::mutex> lock(retained_mu_);
    retained.swap(retained_steals_[peer]);
  }
  for (const std::string& payload : retained) {
    // These tasks left pending_ when their batch shipped; they re-enter
    // it now and are mined here. Parts the dead rank already finished
    // come back as exact duplicates for the final dedup.
    ReinjectStealPayload(payload, /*add_pending=*/true);
  }
  if (!retained.empty()) {
    QCM_ILOG << "rank " << rank_ << ": re-injected " << retained.size()
             << " steal batch(es) shipped to dead rank " << peer;
  }
}

void Engine::OnPeerUp(int peer) {
  // Pulls that were in flight toward the dead incarnation died with it;
  // ask the replacement (same partition) again. Parked tasks stayed
  // counted in pending_ throughout, so termination never raced past
  // them.
  const size_t requeued = broker_->RequeueInflightFor(peer);
  if (requeued > 0) {
    QCM_ILOG << "rank " << rank_ << ": re-requesting " << requeued
             << " vertex pull(s) from recovered rank " << peer;
  }
}

void Engine::OnWireData(int src, uint8_t type, std::string payload,
                        uint64_t wire_transit_usec) {
  QCM_CHECK(type <= static_cast<uint8_t>(MessageType::kStealBatch))
      << "unknown fabric message type " << static_cast<int>(type)
      << " from rank " << src;
  const MessageType mtype = static_cast<MessageType>(type);
  if (mtype == MessageType::kStealBatch) {
    // The batch's tasks enter this engine's pending accounting before the
    // frame counts as processed (transport.h's counting discipline).
    auto count = TaskBatchCount(payload);
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
            receiver != rank_)
      << "steal command with bad receiver " << receiver;
  if (want == 0 || done_.load()) return;
  std::vector<TaskPtr> tasks = global_queue_->StealBatch(want);
  if (tasks.empty()) return;  // the coordinator's estimate was stale
  // With checkpointing on, shipping a task taints its root: the subtree's
  // completion is no longer locally observable, so the root must never be
  // checkpointed as done.
  if (root_progress_ != nullptr) {
    for (const TaskPtr& t : tasks) root_progress_->Taint(t->root());
  }
  std::string payload = EncodeTaskBatch(tasks);
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
      ReinjectStealPayload(payload, /*add_pending=*/false);
      return;
    }
    retained_steals_[receiver].push_back(payload);
  }
  // Send first (the frame is counted as sent before the wire write), only
  // then drop the tasks from this engine's pending accounting: the
  // coordinator always sees the batch as either local work or an
  // unprocessed frame, never as nothing.
  if (trace::Enabled()) {
    trace::EmitFlow(trace::EventType::kFlowStart,
                    QCM_TRACE_NAME("steal_flow"), trace::kLifecycle,
                    Fingerprint(payload));
  }
  fabric_->Send(MessageType::kStealBatch, receiver, std::move(payload));
  pending_.fetch_sub(static_cast<int64_t>(tasks.size()));
  counters_.steal_events.fetch_add(1, std::memory_order_relaxed);
  counters_.stolen_tasks.fetch_add(tasks.size(), std::memory_order_relaxed);
  counters_.steal_bytes.fetch_add(bytes, std::memory_order_relaxed);
}

StatusOr<EngineReport> Engine::Run() {
  if (ran_) {
    return Status::InvalidArgument("Engine::Run may only be called once");
  }
  ran_ = true;
  QCM_RETURN_IF_ERROR(config_.Validate());
  if (config_.num_machines != transport_->world_size()) {
    return Status::InvalidArgument(
        "num_machines (" + std::to_string(config_.num_machines) +
        ") must equal the transport world size (" +
        std::to_string(transport_->world_size()) + ")");
  }
  QCM_CHECK(table_ != nullptr && table_->rank() == rank_ &&
            table_->NumMachines() == config_.num_machines)
      << "engine needs the vertex table of its own rank";

  // Spill directory: the job's launcher makes one and removes it, since a
  // SIGKILLed rank never gets to.
  if (config_.spill_dir.empty()) {
    return Status::InvalidArgument("engine needs a spill directory");
  }
  ::mkdir(config_.spill_dir.c_str(), 0755);

  // Durable progress checkpointing (the recovery protocol that consumes
  // it lives in the cluster coordinator). A replacement incarnation
  // (epoch > 0) replays its predecessor's log before mining: replayed
  // results join the final report, fully-mined roots are skipped at spawn
  // time.
  if (!config_.checkpoint_dir.empty()) {
    ckpt_log_ = std::make_unique<CheckpointLog>();
    CheckpointLog::LoadResult replay;
    const std::string dir =
        config_.checkpoint_dir + "/rank" + std::to_string(rank_);
    QCM_RETURN_IF_ERROR(ckpt_log_->Open(dir, transport_->epoch(),
                                        config_.checkpoint_interval_sec,
                                        &replay));
    recovered_results_ = std::move(replay.results);
    completed_roots_ = std::move(replay.completed_roots);
    counters_.recovered_results.store(recovered_results_.size(),
                                      std::memory_order_relaxed);
    root_progress_ = std::make_unique<RootProgress>(ckpt_log_.get());
    if (transport_->epoch() > 0) {
      QCM_ILOG << "rank " << rank_ << " epoch " << transport_->epoch()
               << ": replayed " << replay.records
               << " checkpoint record(s) (" << recovered_results_.size()
               << " results, " << completed_roots_.size()
               << " completed roots, " << replay.torn_bytes
               << " torn bytes discarded)";
    }
  }

  WallTimer wall;
  fabric_ = std::make_unique<CommFabric>(config_.net_latency_sec, &counters_,
                                         transport_);
  broker_ = std::make_unique<PullBroker>(
      table_.get(), config_.vertex_cache_capacity, config_.max_pull_batch,
      &counters_);
  const std::string prefix = "w" + std::to_string(rank_);
  small_spill_ =
      std::make_unique<SpillManager>(config_.spill_dir, prefix + "_small",
                                     &counters_);
  big_spill_ =
      std::make_unique<SpillManager>(config_.spill_dir, prefix + "_big",
                                     &counters_);
  global_queue_ = std::make_unique<GlobalQueue>(
      config_.global_queue_capacity, config_.batch_size, big_spill_.get(),
      app_);
  Scheduler::Deps deps;
  deps.config = &config_;
  deps.app = app_;
  deps.table = table_.get();
  deps.broker = broker_.get();
  deps.global_queue = global_queue_.get();
  deps.counters = &counters_;
  deps.pending = &pending_;
  deps.active_spawners = &active_spawners_;
  deps.root_progress = root_progress_.get();
  deps.completed_roots =
      root_progress_ != nullptr ? &completed_roots_ : nullptr;
  sched_ = std::make_unique<Scheduler>(deps);
  fabric_->SetBusyProbe(
      [this] { return busy_compers_.load(std::memory_order_relaxed); });

  transport_->SetDataHandler([this](int src, uint8_t type,
                                    std::string payload,
                                    uint64_t wire_transit_usec) {
    OnWireData(src, type, std::move(payload), wire_transit_usec);
  });
  processed_from_ = std::vector<std::atomic<uint64_t>>(config_.num_machines);
  retained_steals_.resize(config_.num_machines);
  Transport::ControlHooks hooks;
  hooks.on_terminate = [this] { done_.store(true); };
  hooks.on_steal_command = [this](int receiver, uint64_t want) {
    OnStealCommand(receiver, want);
  };
  hooks.on_peer_down = [this](int peer) { OnPeerDown(peer); };
  hooks.on_peer_up = [this](int peer) { OnPeerUp(peer); };
  transport_->SetControlHooks(std::move(hooks));
  QCM_RETURN_IF_ERROR(transport_->Start());

  // The pull responder answers peers' requests (any that arrived since
  // Start wait in its queue); an answered request then counts as
  // processed (transport.h). Stopped below once the compers have joined.
  fabric_->StartResponder(
      [this](const std::string& request) {
        return broker_->ServeRequest(request);
      },
      [this](int src) {
        processed_from_[src].fetch_add(1, std::memory_order_acq_rel);
      });

  std::vector<std::unique_ptr<Comper>> compers;
  for (int t = 0; t < config_.threads_per_machine; ++t) {
    compers.push_back(std::make_unique<Comper>(this, t));
  }
  std::vector<std::thread> threads;
  threads.reserve(compers.size() + 1);
  for (auto& comper : compers) {
    threads.emplace_back([&comper] { comper->Run(); });
  }
  threads.emplace_back([this] { StatusLoop(); });
  for (std::thread& t : threads) t.join();
  fabric_->StopResponder();

  if (!transport_->healthy()) {
    return Status::Aborted(
        "transport failed before global termination; partial mining state "
        "discarded");
  }
  QCM_CHECK(pending_.load() == 0) << "engine finished with pending tasks";
  // Every meaningful message holds a pending task (parked or stolen), so
  // a clean shutdown leaves the fabric -- inbox and responder queue --
  // empty; drain defensively and fail loudly if the invariant broke rather
  // than silently losing work.
  auto leftover = fabric_->Drain();
  QCM_CHECK(leftover.empty())
      << "engine finished with " << leftover.size()
      << " undelivered fabric message(s) on rank " << rank_
      << " (first type: " << MessageTypeName(leftover.front().type) << ")";

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
  // Every sender (the compers, the pull responder) has stopped, so the
  // transport's write stats are final.
  report.counters.AddFlushStats(transport_->FlushStats());
  table_->AddGraphCounters(&report.counters);
  report.peak_rss_bytes = PeakRssBytes();

  for (auto& comper : compers) {
    ThreadMetrics& tm = comper->metrics_;
    report.counters.scratch_bytes =
        std::max(report.counters.scratch_bytes,
                 comper->ego_scratch().MemoryBytes() +
                     comper->mining_scratch()->MemoryBytes());
    report.mining.Add(tm.mining_stats);
    report.threads.push_back(static_cast<const ThreadSummary&>(tm));
    for (auto& set : comper->sink_.results()) {
      report.results.push_back(std::move(set));
    }
    for (const auto& [root, agg] : tm.root_agg) {
      report.root_tasks.push_back(agg);
    }
  }
  // A root's subtasks may have run on several compers.
  FoldRootTasks(&report.root_tasks);
  // Results replayed from a crashed predecessor's checkpoint join the
  // freshly mined ones; overlap between the two (roots the predecessor
  // finished partially) is exact duplicates the downstream FilterMaximal
  // dedup removes, which is what keeps the final digest crash-invariant.
  for (VertexSet& s : recovered_results_) {
    report.results.push_back(std::move(s));
  }
  recovered_results_.clear();

  // All spill files should have been consumed; clean up defensively.
  small_spill_->RemoveAll();
  big_spill_->RemoveAll();
  return report;
}

}  // namespace qcm
