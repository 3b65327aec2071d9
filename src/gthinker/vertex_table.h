// The distributed graph store (paper §5, Figure 8), one machine's view:
//   * VertexTable -- the machine's "local vertex table": its hash
//     partition of the graph (the vertices it owns) plus every vertex's
//     degree. Under a graph memory budget its own lists live in a bounded
//     cache too, read from the .qcsr file one list per miss.
//   * DataService -- the per-machine facade tasks fetch through: local
//     vertices resolve to the local table, remote ones to the bounded
//     VertexCache. A remote vertex is readable only once the pull
//     protocol has delivered it (cached here, or pinned into the task);
//     a cold read that skipped Request() is a loud error in every
//     deployment.
//   * PullBroker -- the request/response protocol endpoint of a machine:
//     tasks suspended on missing vertices park here; a request pump
//     aggregates every outstanding id into one batched kPullRequest
//     CommFabric message per remote machine, the owner's pull-responder
//     thread serves it into a kPullResponse as soon as it is due (never a
//     comper -- they keep mining), and accepting the response populates
//     the cache, pins the adjacencies into the waiting tasks, and releases
//     tasks whose every request has been delivered.

#ifndef QCM_GTHINKER_VERTEX_TABLE_H_
#define QCM_GTHINKER_VERTEX_TABLE_H_

#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <unordered_set>
#include <vector>

#include "gthinker/comm.h"
#include "gthinker/metrics.h"
#include "gthinker/task.h"
#include "gthinker/vertex_cache.h"
#include "graph/csr_snapshot.h"
#include "graph/graph.h"

namespace qcm {

/// Heap bytes a budgeted VertexTable charges per cached list on top of the
/// list's own adjacency bytes: the vector and its allocation, the
/// shared_ptr control block, and the LRU's list node and hash-map entry
/// (155-176 B measured with glibc on x86-64, for lists of 1-30 entries).
/// The budget bounds the sum of the charges, so it bounds the heap the
/// cache holds, not only the list bytes.
inline constexpr uint64_t kListChargeOverhead = 176;

/// One rank's partition of an immutable graph hash-partitioned across
/// machines (vertex v is owned by rank v % num_machines).
///
/// Degree is vertex metadata every rank reads (spawn thresholds and
/// frontier qualification read remote degrees); adjacency is served for
/// the rank's own vertices only, and reading a remote vertex's adjacency
/// fails loudly -- exactly the discipline the pull protocol must satisfy.
/// Two storage backends share this interface:
///   * a resident Graph, shared read-only by every rank of the process
///     (the in-process launcher, net/local_cluster.h);
///   * a mmap'd .qcsr snapshot, as a cluster worker process opens it.
///     Under a graph memory budget the rank reads its own lists one at a
///     time with pread into a VertexCache whose total charge (list bytes
///     plus kListChargeOverhead each) the budget bounds; the adjacency
///     section of the mapping is then never read. Any list whose charge
///     fits the budget is cached, hubs included: the cache shards only
///     when every shard holds the largest owned list.
class VertexTable {
 public:
  /// Rank `rank`'s partition of a resident graph. `graph` must outlive
  /// the table.
  VertexTable(const Graph* graph, int num_machines, int rank);

  /// Rank `rank`'s partition served out of a mmap'd .qcsr snapshot -- no
  /// transient full Graph is ever built, so startup peak RSS is the owned
  /// slice plus replicated metadata. `graph_memory_budget` > 0 bounds the
  /// cached adjacency bytes as above; 0 serves lists straight from the
  /// mapping.
  VertexTable(std::shared_ptr<CsrSnapshot> snapshot, int num_machines,
              int rank, uint64_t graph_memory_budget);

  ~VertexTable();

  int Owner(VertexId v) const {
    return static_cast<int>(v % static_cast<uint32_t>(num_machines_));
  }

  int NumMachines() const { return num_machines_; }

  /// The rank whose adjacency this partition holds.
  int rank() const { return rank_; }

  bool IsLocal(VertexId v) const { return Owner(v) == rank_; }

  /// Adjacency of v, which must be owned by this rank (QCM_CHECK -- a
  /// remote adjacency is not served here). Thread-safe. The pin is null,
  /// and no lock is taken, unless the table is budgeted: then it keeps the
  /// cached copy alive for as long as the caller holds it, whatever the
  /// cache evicts meanwhile. A failed read aborts, naming the file, the
  /// vertex and the offset.
  AdjRef Adjacency(VertexId v) const;

  uint32_t Degree(VertexId v) const {
    return graph_ != nullptr ? graph_->Degree(v) : snapshot_->Degree(v);
  }

  uint32_t NumVertices() const {
    return graph_ != nullptr ? graph_->NumVertices()
                             : snapshot_->NumVertices();
  }

  /// Vertices this rank owns, ascending.
  const std::vector<VertexId>& OwnedVertices() const { return owned_; }

  /// Non-null in snapshot mode.
  const CsrSnapshot* snapshot() const { return snapshot_.get(); }

  /// Charge currently cached by a budgeted table (0 otherwise); never
  /// more than the budget.
  uint64_t CachedBytes() const;

  /// Adds the budgeted read counters to the report's graph_* fields
  /// (metrics.h); a table that is not budgeted adds nothing.
  void AddGraphCounters(EngineCountersSnapshot* out) const;

 private:
  struct ListCache;

  const Graph* graph_;  // resident backend; null in snapshot mode
  int num_machines_;
  int rank_;
  std::vector<VertexId> owned_;

  // Snapshot-mode storage: degrees live in the mapping, and so do the
  // lists unless `lists_` (budgeted mode only) caches them.
  std::shared_ptr<CsrSnapshot> snapshot_;
  std::unique_ptr<ListCache> lists_;
};

/// Per-machine data access facade over the machine's own table.
class DataService {
 public:
  /// The remote cache holds up to `cache_capacity` lists and counts its
  /// traffic in `counters`' cache_* fields (nowhere if `counters` is
  /// null).
  DataService(const VertexTable* table, size_t cache_capacity,
              EngineCounters* counters);

  bool IsLocal(VertexId v) const { return table_->IsLocal(v); }

  /// Immediate vertex read: the local table's list or the cached remote
  /// copy, either one pinned for as long as the caller holds the AdjRef.
  /// Task pins are consulted by the comper before it reaches this layer.
  /// Anything else is a pull-protocol violation (the caller never
  /// Request()ed v) and fails a QCM_CHECK -- also over a resident graph
  /// that another rank of the process holds, so a UDF that skips the
  /// protocol fails in-process tests too.
  AdjRef Fetch(VertexId v);

  /// Cache-only probe (counts hit/miss); null on miss.
  VertexCache::AdjPtr TryCached(VertexId v) { return cache_.Lookup(v); }

  uint32_t Degree(VertexId v) const { return table_->Degree(v); }

  const VertexTable& table() const { return *table_; }
  VertexCache& cache() { return cache_; }

 private:
  const VertexTable* table_;
  VertexCache cache_;
};

/// One machine's endpoint of the pull protocol (paper §5): the "request"
/// side parks suspended tasks and pumps batched kPullRequest messages
/// onto the CommFabric; the "respond" side serves a peer's request from
/// the local vertex table (called on the fabric's pull-responder thread,
/// concurrently with the compers); accepting a kPullResponse pins the
/// delivered adjacencies and releases the tasks whose pulls completed.
/// Transfer time is whatever the fabric's latency model says -- tasks stay
/// parked (still counted in Engine::pending_) until delivery.
class PullBroker {
 public:
  /// `data` is this machine's DataService (responses populate its cache);
  /// `max_batch` caps ids per batched request message.
  PullBroker(DataService* data, size_t max_batch, EngineCounters* counters);

  /// Parks `task` until every id in its TaskPullState wanted-set has been
  /// delivered. The wanted-set is consumed (deduplicated; ids already in
  /// the cache are pinned immediately). A task whose every want was
  /// servable locally is returned by the next PumpRequests call.
  void Park(TaskPtr task);

  /// Sends one batched kPullRequest per remote machine covering every id
  /// not yet requested (rechecking the cache first, so ids cached since
  /// they were parked transfer nothing), and returns the tasks that
  /// became ready without a transfer. Non-blocking: returns empty when
  /// another thread holds the broker.
  std::vector<TaskPtr> PumpRequests(CommFabric* fabric);

  /// Owner side: serves a kPullRequest payload (U32Vector of ids) from
  /// the local table into a kPullResponse payload. Thread-safe: reads
  /// only the local table (and atomic counters).
  std::string ServeRequest(const std::string& request_payload) const;

  /// Requester side: accepts a kPullResponse payload -- inserts every
  /// delivered adjacency into the vertex cache, pins it into the waiting
  /// tasks, and returns the tasks whose outstanding pulls all completed.
  std::vector<TaskPtr> AcceptResponse(const std::string& response_payload);

  /// Recovery path: re-queues every in-flight vertex id owned by
  /// `owner` for the next request pump. The request (or its response)
  /// died with the owner's old incarnation; its replacement holds the
  /// same partition and can serve the same ids again. Returns how many
  /// ids were re-queued. Idempotent per id: an id whose response arrives
  /// before the re-sent request is simply served twice, and the second
  /// response finds no waiters.
  size_t RequeueInflightFor(int owner);

  /// Tasks currently parked (including ready ones not yet collected).
  size_t ParkedCount() const;

  /// Distinct vertex ids with an outstanding (sent, undelivered) request.
  size_t InFlightVertices() const;

 private:
  struct Parked {
    TaskPtr task;
    /// Wanted ids not yet pinned; the task resumes when this hits 0.
    size_t remaining = 0;
  };

  DataService* data_;
  size_t max_batch_;
  EngineCounters* counters_;

  mutable std::mutex mu_;
  uint64_t next_id_ = 0;
  std::unordered_map<uint64_t, Parked> parked_;
  /// Tasks whose pulls all completed, awaiting the next pump.
  std::vector<TaskPtr> ready_;
  /// vertex id -> parked-task ids waiting on it.
  std::unordered_map<VertexId, std::vector<uint64_t>> waiters_;
  /// Ids queued for the next request pump (insertion order).
  std::vector<VertexId> pending_;
  /// Ids whose kPullRequest is queued or in flight (dedup across tasks
  /// and pumps); erased when the response delivers.
  std::unordered_set<VertexId> inflight_;
};

}  // namespace qcm

#endif  // QCM_GTHINKER_VERTEX_TABLE_H_
