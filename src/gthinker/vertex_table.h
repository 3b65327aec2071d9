// The distributed graph store of the simulation (paper §5, Figure 8):
//   * VertexTable -- the graph hash-partitioned across machines; each
//     machine's "local vertex table" is the set of vertices it owns.
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
#include "graph/paged_adjacency.h"

namespace qcm {

/// Hash partitioning of an immutable graph across machines.
///
/// Two storage modes share one interface:
///   * Simulated (in-process) mode wraps the full shared Graph -- every
///     machine's adjacency is readable because every "machine" lives in
///     this process.
///   * Snapshot mode serves a mmap'd .qcsr snapshot. A process-per-machine
///     worker opens it for its own rank only: degree is vertex metadata
///     every process reads (spawn thresholds and frontier qualification
///     read remote degrees), while reading a remote vertex's adjacency
///     fails loudly -- exactly the discipline the pull protocol must
///     satisfy.
class VertexTable {
 public:
  /// Simulated mode: the full graph, hash-partitioned across
  /// `num_machines` in-process machines. `graph` must outlive the table.
  VertexTable(const Graph* graph, int num_machines);

  /// Snapshot mode: serves degrees and adjacency straight out of a
  /// mmap'd .qcsr snapshot -- no transient full Graph is ever built, so
  /// startup peak RSS is the owned slice plus replicated metadata.
  /// `local_rank` >= 0 serves only that rank's adjacency (remote reads
  /// fail loudly); -1 serves every vertex. `graph_memory_budget` > 0
  /// bounds resident adjacency bytes via the PagedAdjacencyStore; 0 keeps
  /// the partition's pages resident on use.
  VertexTable(std::shared_ptr<CsrSnapshot> snapshot, int num_machines,
              int local_rank, uint64_t graph_memory_budget);

  int Owner(VertexId v) const {
    return static_cast<int>(v % static_cast<uint32_t>(num_machines_));
  }

  int NumMachines() const { return num_machines_; }

  /// True for a snapshot table opened for one rank (only that rank's
  /// adjacency is readable). Simulated and serve-every-vertex snapshot
  /// tables report false.
  bool partitioned() const { return local_rank_ >= 0; }

  /// The rank whose adjacency this partition holds (-1 when unpartitioned).
  int local_rank() const { return local_rank_; }

  /// Adjacency of v. Partitioned tables: v must be owned by the local
  /// rank (QCM_CHECK -- a remote adjacency is not served here).
  std::span<const VertexId> Adjacency(VertexId v) const;

  uint32_t Degree(VertexId v) const {
    return graph_ != nullptr ? graph_->Degree(v) : snapshot_->Degree(v);
  }

  uint32_t NumVertices() const {
    return graph_ != nullptr ? graph_->NumVertices()
                             : snapshot_->NumVertices();
  }

  /// Vertices owned by `machine`, ascending.
  const std::vector<VertexId>& OwnedVertices(int machine) const {
    return owned_[machine];
  }

  /// Non-null in snapshot mode.
  const CsrSnapshot* snapshot() const { return snapshot_.get(); }

  /// Non-null in snapshot mode: the paged local store (paging may be
  /// disabled inside it when the budget is 0).
  PagedAdjacencyStore* paged_store() const { return paged_.get(); }

 private:
  const Graph* graph_;  // simulated mode; null in snapshot mode
  int num_machines_;
  int local_rank_ = -1;
  std::vector<std::vector<VertexId>> owned_;

  // Snapshot-mode storage: degrees/adjacency live in the mapping; the
  // paged store manages adjacency residency under the budget.
  std::shared_ptr<CsrSnapshot> snapshot_;
  std::unique_ptr<PagedAdjacencyStore> paged_;
};

/// Per-machine data access facade.
class DataService {
 public:
  DataService(const VertexTable* table, int machine, size_t cache_capacity,
              EngineCounters* counters);

  bool IsLocal(VertexId v) const { return table_->Owner(v) == machine_; }

  /// Immediate vertex read: the local table span or the cached remote
  /// copy. Task pins are consulted by the comper before it reaches this
  /// layer. Anything else is a pull-protocol violation (the caller never
  /// Request()ed v) and fails a QCM_CHECK -- in simulated mode too, where
  /// the owner's adjacency would be readable, so a UDF that skips the
  /// protocol fails in-process tests instead of only on a cluster worker.
  AdjRef Fetch(VertexId v);

  /// Cache-only probe (counts hit/miss); null on miss.
  VertexCache::AdjPtr TryCached(VertexId v) { return cache_.Lookup(v); }

  uint32_t Degree(VertexId v) const { return table_->Degree(v); }

  const VertexTable& table() const { return *table_; }
  VertexCache& cache() { return cache_; }

 private:
  const VertexTable* table_;
  int machine_;
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
  /// `machine` is its id (message source); `max_batch` caps ids per
  /// batched request message.
  PullBroker(DataService* data, int machine, size_t max_batch,
             EngineCounters* counters);

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
  /// only the immutable table (and atomic counters).
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
  int machine_;
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
