#include "gthinker/vertex_table.h"

#include <algorithm>
#include <atomic>
#include <unordered_set>

#include "util/logging.h"
#include "util/serde.h"
#include "util/timer.h"
#include "util/trace.h"

namespace qcm {

namespace {

/// The vertices of an n-vertex graph that `rank` owns, ascending.
std::vector<VertexId> RankVertices(uint32_t n, int num_machines, int rank) {
  QCM_CHECK(rank >= 0 && rank < num_machines)
      << "bad rank " << rank << "/" << num_machines;
  std::vector<VertexId> owned;
  for (uint64_t v = static_cast<uint64_t>(rank); v < n;
       v += static_cast<uint64_t>(num_machines)) {
    owned.push_back(static_cast<VertexId>(v));
  }
  return owned;
}

/// What a budgeted table charges for caching a list of `degree` entries.
uint64_t ListCharge(size_t degree) {
  return degree * sizeof(VertexId) + kListChargeOverhead;
}

/// The counters the broker's remote cache counts into; none for a null
/// `counters`.
VertexCache::Counters RemoteCacheCounters(EngineCounters* counters) {
  if (counters == nullptr) return {};
  return {&counters->cache_hits, &counters->cache_misses,
          &counters->cache_evictions};
}

}  // namespace

VertexTable::VertexTable(uint32_t num_vertices, const uint64_t* offsets,
                         const VertexId* adj, int num_machines, int rank)
    : num_vertices_(num_vertices),
      offsets_(offsets),
      adj_(adj),
      num_machines_(num_machines),
      rank_(rank),
      owned_(RankVertices(num_vertices, num_machines, rank)) {}

VertexTable::VertexTable(const Graph* graph, int num_machines, int rank)
    : VertexTable(graph->NumVertices(), graph->offsets().data(),
                  graph->adjacency().data(), num_machines, rank) {}

// Budgeted snapshot mode's list cache and the counters behind the
// report's graph_* fields. `max_charge` is the charge of the largest
// owned list: the cache shards only if every shard can hold it, so any
// list within the budget is cached.
struct VertexTable::ListCache {
  ListCache(uint64_t budget, uint64_t max_charge)
      : cache(budget, {&hits, &reads, &evictions}, max_charge) {}

  std::atomic<uint64_t> hits{0};
  std::atomic<uint64_t> reads{0};  // lists read from the file
  std::atomic<uint64_t> evictions{0};
  std::atomic<uint64_t> pread_nsec{0};
  VertexCache cache;
};

VertexTable::VertexTable(std::shared_ptr<CsrSnapshot> snapshot,
                         int num_machines, int rank,
                         uint64_t graph_memory_budget)
    : VertexTable(snapshot->NumVertices(), snapshot->offsets(),
                  snapshot->adjacency(), num_machines, rank) {
  snapshot_ = std::move(snapshot);
  if (graph_memory_budget > 0) {
    uint32_t max_degree = 0;
    for (VertexId v : owned_) max_degree = std::max(max_degree, Degree(v));
    lists_ = std::make_unique<ListCache>(graph_memory_budget,
                                         ListCharge(max_degree));
  }
}

VertexTable::~VertexTable() = default;

AdjRef VertexTable::Adjacency(VertexId v) const {
  QCM_CHECK(IsLocal(v))
      << "adjacency of vertex " << v << " (owner " << Owner(v)
      << ") read on rank " << rank_
      << ": remote adjacency does not exist in a partitioned table";
  if (lists_ == nullptr) {
    return AdjRef{{adj_ + offsets_[v], adj_ + offsets_[v + 1]}, nullptr};
  }

  VertexCache::AdjPtr list = lists_->cache.Lookup(v);
  if (list == nullptr) {
    // A miss reads the list outside any lock; two threads missing on the
    // same vertex both read it, and the later insert replaces the earlier.
    // The graph_page_ins and graph_fault_stall_usec rows count and time the
    // read, which runs inside the caller's compute or pull_serve span.
    auto copy = std::make_shared<std::vector<VertexId>>(Degree(v));
    WallTimer read;
    const Status s = snapshot_->ReadNeighbors(v, copy.get());
    lists_->pread_nsec.fetch_add(static_cast<uint64_t>(read.Seconds() * 1e9),
                                 std::memory_order_relaxed);
    QCM_CHECK(s.ok()) << "budgeted adjacency read on rank " << rank_
                      << " failed: " << s.ToString();
    lists_->cache.Insert(v, copy, ListCharge(copy->size()));
    list = std::move(copy);
  }
  const std::span<const VertexId> adj(*list);
  return AdjRef{adj, std::move(list)};
}

uint64_t VertexTable::CachedBytes() const {
  return lists_ != nullptr ? lists_->cache.ApproxCharge() : 0;
}

void VertexTable::AddGraphCounters(EngineCountersSnapshot* out) const {
  if (lists_ == nullptr) return;
  const uint64_t hits = lists_->hits.load(std::memory_order_relaxed);
  const uint64_t reads = lists_->reads.load(std::memory_order_relaxed);
  out->graph_page_pins += hits + reads;
  out->graph_page_ins += reads;
  out->graph_page_evictions +=
      lists_->evictions.load(std::memory_order_relaxed);
  out->graph_fault_stall_usec +=
      lists_->pread_nsec.load(std::memory_order_relaxed) / 1000;
}

PullBroker::PullBroker(const VertexTable* table, size_t cache_capacity,
                       size_t max_batch, EngineCounters* counters)
    : table_(table),
      cache_(cache_capacity, RemoteCacheCounters(counters)),
      max_batch_(std::max<size_t>(max_batch, 1)),
      counters_(counters) {}

AdjRef PullBroker::Fetch(VertexId v) {
  if (table_->IsLocal(v)) return table_->Adjacency(v);
  auto cached = cache_.Lookup(v);
  QCM_CHECK(cached != nullptr)
      << "synchronous remote fetch of vertex " << v << " on machine "
      << table_->rank()
      << ": vertex was never Request()ed/pinned (pull-protocol violation)";
  return AdjRef{std::span<const VertexId>(cached->data(), cached->size()),
                std::move(cached)};
}

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
    if (auto cached = cache_.Lookup(v, /*count_stats=*/false)) {
      parked.task->pulls().Pin(v, std::move(cached));
      continue;
    }
    auto [it, first] = waiters_.try_emplace(v);
    it->second.push_back(id);
    ++parked.remaining;
    if (first) pending_.push_back(v);
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
  std::vector<std::vector<VertexId>> groups(table_->NumMachines());
  for (VertexId v : pending) {
    if (auto cached = cache_.Lookup(v, /*count_stats=*/false)) {
      DeliverLocked(v, cached, &ready);
      continue;
    }
    groups[table_->Owner(v)].push_back(v);
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
      fabric->Send(MessageType::kPullRequest, static_cast<int>(owner),
                   enc.Release());
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

  Encoder enc;
  enc.PutU32Vector(ids);
  uint64_t adj_bytes = 0;
  for (VertexId v : ids) {
    const AdjRef ref = table_->Adjacency(v);
    enc.PutU32Span(ref.adj.data(), ref.adj.size());
    adj_bytes += ref.adj.size() * sizeof(VertexId);
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
    cache_.Insert(v, copy, /*charge=*/1);
    DeliverLocked(v, copy, &ready);
  }
  return ready;
}

void PullBroker::DeliverLocked(VertexId v, const TaskPullState::AdjPtr& adj,
                               std::vector<TaskPtr>* ready) {
  auto it = waiters_.find(v);
  if (it == waiters_.end()) return;
  for (uint64_t id : it->second) {
    auto p = parked_.find(id);
    if (p == parked_.end()) continue;
    p->second.task->pulls().Pin(v, adj);
    if (--p->second.remaining == 0) {
      ready->push_back(std::move(p->second.task));
      parked_.erase(p);
    }
  }
  waiters_.erase(it);
}

size_t PullBroker::RequeueInflightFor(int owner) {
  std::lock_guard<std::mutex> lock(mu_);
  std::unordered_set<VertexId> queued(pending_.begin(), pending_.end());
  size_t requeued = 0;
  for (const auto& [v, task_ids] : waiters_) {
    if (table_->Owner(v) != owner) continue;
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
  return waiters_.size();
}

}  // namespace qcm
