#include "gthinker/vertex_table.h"

#include <algorithm>

#include "util/logging.h"
#include "util/serde.h"
#include "util/trace.h"

namespace qcm {

VertexTable::VertexTable(const Graph* graph, int num_machines)
    : graph_(graph), num_machines_(num_machines), owned_(num_machines) {
  for (VertexId v = 0; v < graph_->NumVertices(); ++v) {
    owned_[Owner(v)].push_back(v);
  }
}

VertexTable::VertexTable(std::shared_ptr<CsrSnapshot> snapshot,
                         int num_machines, int local_rank,
                         uint64_t graph_memory_budget)
    : graph_(nullptr),
      num_machines_(num_machines),
      local_rank_(local_rank),
      owned_(num_machines),
      snapshot_(std::move(snapshot)) {
  QCM_CHECK(snapshot_ != nullptr);
  QCM_CHECK(local_rank >= -1 && local_rank < num_machines)
      << "bad local rank " << local_rank << "/" << num_machines;
  const uint32_t n = snapshot_->NumVertices();
  for (VertexId v = 0; v < n; ++v) {
    owned_[Owner(v)].push_back(v);
  }
  PagedStoreConfig store_config;
  store_config.memory_budget_bytes = graph_memory_budget;
  store_config.num_machines = num_machines;
  store_config.local_rank = local_rank;
  paged_ = std::make_unique<PagedAdjacencyStore>(snapshot_, store_config);
}

std::span<const VertexId> VertexTable::Adjacency(VertexId v) const {
  if (graph_ != nullptr) return graph_->Neighbors(v);
  QCM_CHECK(local_rank_ < 0 || Owner(v) == local_rank_)
      << "adjacency of vertex " << v << " (owner " << Owner(v)
      << ") read on rank " << local_rank_
      << ": remote adjacency does not exist in a partitioned table";
  return paged_->Adjacency(v);
}

DataService::DataService(const VertexTable* table, int machine,
                         size_t cache_capacity, EngineCounters* counters)
    : table_(table), machine_(machine), cache_(cache_capacity, counters) {}

AdjRef DataService::Fetch(VertexId v) {
  if (IsLocal(v)) {
    return AdjRef{table_->Adjacency(v), nullptr};
  }
  auto cached = cache_.Lookup(v);
  QCM_CHECK(cached != nullptr)
      << "synchronous remote fetch of vertex " << v << " on machine "
      << machine_
      << ": vertex was never Request()ed/pinned (pull-protocol violation)";
  return AdjRef{std::span<const VertexId>(cached->data(), cached->size()),
                std::move(cached)};
}

PullBroker::PullBroker(DataService* data, int machine, size_t max_batch,
                       EngineCounters* counters)
    : data_(data),
      machine_(machine),
      max_batch_(std::max<size_t>(max_batch, 1)),
      counters_(counters) {}

void PullBroker::Park(TaskPtr task) {
  std::vector<VertexId> wanted = task->pulls().TakeWanted();
  // A task may Request() the same vertex twice in one round; count each
  // id once so delivery bookkeeping matches pinning.
  std::sort(wanted.begin(), wanted.end());
  wanted.erase(std::unique(wanted.begin(), wanted.end()), wanted.end());

  std::lock_guard<std::mutex> lock(mu_);
  const uint64_t id = next_id_++;
  Parked parked;
  parked.task = std::move(task);
  for (VertexId v : wanted) {
    // Served since the task suspended (by another task's pull): pin
    // without any transfer or waiting.
    if (auto cached = data_->cache().Lookup(v, /*count_stats=*/false)) {
      parked.task->pulls().Pin(v, std::move(cached));
      continue;
    }
    waiters_[v].push_back(id);
    ++parked.remaining;
    if (inflight_.insert(v).second) pending_.push_back(v);
  }
  if (parked.remaining == 0) {
    // Everything was locally servable after all; hand the task back on
    // the next pump (Park cannot return it -- the comper moved on).
    ready_.push_back(std::move(parked.task));
    return;
  }
  // A park is a cache-miss stall: the task now waits on `remaining`
  // uncached remote adjacencies.
  QCM_TRACE_INSTANT(trace::kPull, "pull_park",
                    static_cast<uint32_t>(parked.remaining));
  parked_.emplace(id, std::move(parked));
}

std::vector<TaskPtr> PullBroker::PumpRequests(CommFabric* fabric) {
  std::unique_lock<std::mutex> lock(mu_, std::try_to_lock);
  if (!lock.owns_lock()) return {};
  std::vector<TaskPtr> ready = std::move(ready_);
  ready_.clear();
  if (pending_.empty()) return ready;

  std::vector<VertexId> pending = std::move(pending_);
  pending_.clear();
  // Emitted retroactively below only when a batch actually goes out --
  // PumpRequests is polled from idle compers and must not flood the ring.
  const uint64_t round_begin_usec =
      trace::Enabled() ? trace::TraceNowMicros() : 0;

  // Recheck the cache: ids cached since they were queued (by another
  // task's pull round) are served without a message.
  const VertexTable& table = data_->table();
  std::vector<std::vector<VertexId>> groups(table.NumMachines());
  for (VertexId v : pending) {
    if (auto cached = data_->cache().Lookup(v, /*count_stats=*/false)) {
      inflight_.erase(v);
      auto it = waiters_.find(v);
      if (it != waiters_.end()) {
        for (uint64_t id : it->second) {
          auto p = parked_.find(id);
          if (p == parked_.end()) continue;
          p->second.task->pulls().Pin(v, cached);
          if (--p->second.remaining == 0) {
            ready.push_back(std::move(p->second.task));
            parked_.erase(p);
          }
        }
        waiters_.erase(it);
      }
      continue;
    }
    groups[table.Owner(v)].push_back(v);
  }

  // One batched request message per owner machine, split at max_batch.
  uint64_t batches_sent = 0;
  for (size_t owner = 0; owner < groups.size(); ++owner) {
    std::vector<VertexId>& group = groups[owner];
    if (group.empty()) continue;
    std::sort(group.begin(), group.end());
    for (size_t off = 0; off < group.size(); off += max_batch_) {
      const size_t n = std::min(max_batch_, group.size() - off);
      Encoder enc;
      enc.PutU32Span(group.data() + off, n);
      fabric->Send(MessageType::kPullRequest, machine_,
                   static_cast<int>(owner), enc.Release());
      ++batches_sent;
    }
  }
  if (counters_ != nullptr && batches_sent > 0) {
    counters_->pull_batches.fetch_add(batches_sent,
                                      std::memory_order_relaxed);
    counters_->pull_rounds.fetch_add(1, std::memory_order_relaxed);
  }
  if (batches_sent > 0 && trace::Enabled()) {
    trace::EmitSpan(QCM_TRACE_NAME("pull_round"), trace::kPull,
                    round_begin_usec,
                    trace::TraceNowMicros() - round_begin_usec,
                    static_cast<uint32_t>(batches_sent));
  }
  return ready;
}

std::string PullBroker::ServeRequest(const std::string& request_payload)
    const {
  Decoder dec(request_payload);
  std::vector<VertexId> ids;
  Status s = dec.GetU32Vector(&ids);
  QCM_CHECK(s.ok()) << "corrupt pull request: " << s.ToString();
  QCM_TRACE_SPAN(trace::kPull, "pull_serve",
                 static_cast<uint32_t>(ids.size()));

  const VertexTable& table = data_->table();
  Encoder enc;
  enc.PutU32Vector(ids);
  uint64_t adj_bytes = 0;
  for (VertexId v : ids) {
    auto adj = table.Adjacency(v);
    enc.PutU32Span(adj.data(), adj.size());
    adj_bytes += adj.size() * sizeof(VertexId);
  }
  if (counters_ != nullptr) {
    counters_->pulled_vertices.fetch_add(ids.size(),
                                         std::memory_order_relaxed);
    counters_->pull_bytes.fetch_add(adj_bytes, std::memory_order_relaxed);
  }
  return enc.Release();
}

std::vector<TaskPtr> PullBroker::AcceptResponse(
    const std::string& response_payload) {
  Decoder dec(response_payload);
  std::vector<VertexId> ids;
  Status s = dec.GetU32Vector(&ids);
  QCM_CHECK(s.ok()) << "corrupt pull response: " << s.ToString();

  QCM_TRACE_SPAN(trace::kPull, "pull_accept",
                 static_cast<uint32_t>(ids.size()));
  std::vector<TaskPtr> ready;
  std::lock_guard<std::mutex> lock(mu_);
  for (VertexId v : ids) {
    std::vector<VertexId> adj;
    s = dec.GetU32Vector(&adj);
    QCM_CHECK(s.ok()) << "corrupt pull response: " << s.ToString();
    auto copy =
        std::make_shared<const std::vector<VertexId>>(std::move(adj));
    data_->cache().Insert(v, copy);
    inflight_.erase(v);
    auto it = waiters_.find(v);
    if (it == waiters_.end()) continue;
    for (uint64_t id : it->second) {
      auto p = parked_.find(id);
      if (p == parked_.end()) continue;
      p->second.task->pulls().Pin(v, copy);
      if (--p->second.remaining == 0) {
        ready.push_back(std::move(p->second.task));
        parked_.erase(p);
      }
    }
    waiters_.erase(it);
  }
  return ready;
}

size_t PullBroker::RequeueInflightFor(int owner) {
  std::lock_guard<std::mutex> lock(mu_);
  std::unordered_set<VertexId> queued(pending_.begin(), pending_.end());
  size_t requeued = 0;
  for (VertexId v : inflight_) {
    if (data_->table().Owner(v) != owner) continue;
    if (!queued.insert(v).second) continue;  // already awaiting a pump
    pending_.push_back(v);
    ++requeued;
  }
  return requeued;
}

size_t PullBroker::ParkedCount() const {
  std::lock_guard<std::mutex> lock(mu_);
  return parked_.size() + ready_.size();
}

size_t PullBroker::InFlightVertices() const {
  std::lock_guard<std::mutex> lock(mu_);
  return inflight_.size();
}

}  // namespace qcm
