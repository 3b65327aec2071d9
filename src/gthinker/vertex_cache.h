// The per-machine vertex cache of the pull-based compute model (paper §5,
// Figure 8): a capacity-bounded, sharded LRU cache of remote adjacency
// lists. Every batched pull response lands here, so a vertex pulled for
// one task is served to every later task on the machine without another
// network transfer.
//
// Entries are handed out as shared_ptrs ("pins"): eviction drops the
// cache's reference, but a task holding a pin keeps the adjacency alive
// for as long as it needs it -- the simulation analogue of G-thinker's
// rule that cached vertices in use by a comper are not evictable.
//
// A capacity of 0 disables caching entirely: Lookup always misses and
// Insert is a no-op, forcing every remote access onto the pull/transfer
// path (used to measure the cache's benefit, and by tests).

#ifndef QCM_GTHINKER_VERTEX_CACHE_H_
#define QCM_GTHINKER_VERTEX_CACHE_H_

#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <utility>
#include <vector>

#include "gthinker/metrics.h"
#include "graph/graph.h"

namespace qcm {

class VertexCache {
 public:
  using AdjPtr = std::shared_ptr<const std::vector<VertexId>>;

  /// `capacity_entries` bounds the number of cached adjacency lists per
  /// machine; 0 disables the cache. `counters` may be null. Small caches
  /// (< kShardThreshold entries) use a single shard so eviction order is
  /// exactly LRU; larger ones shard by vertex id to cut lock contention.
  VertexCache(size_t capacity_entries, EngineCounters* counters);

  VertexCache(const VertexCache&) = delete;
  VertexCache& operator=(const VertexCache&) = delete;

  /// Returns the cached adjacency of v (refreshing its LRU position), or
  /// null on a miss. Counts a cache hit or miss unless `count_stats` is
  /// false (internal re-probes, e.g. the broker checking whether a queued
  /// request got cached meanwhile, must not double-count the demand).
  AdjPtr Lookup(VertexId v, bool count_stats = true);

  /// Inserts (or refreshes) v, evicting least-recently-used entries while
  /// over capacity. No-op when the cache is disabled.
  void Insert(VertexId v, AdjPtr adj);

  /// Total entries currently cached (sums shards; approximate only in the
  /// sense that shards are locked one at a time).
  size_t ApproxSize() const;

  size_t capacity() const { return capacity_; }
  bool enabled() const { return capacity_ > 0; }

 private:
  /// Below this capacity a single shard keeps eviction globally ordered.
  static constexpr size_t kShardThreshold = 1024;
  static constexpr size_t kMaxShards = 8;

  struct Shard {
    mutable std::mutex mu;
    /// Front = most recently used.
    std::list<std::pair<VertexId, AdjPtr>> lru;
    std::unordered_map<VertexId,
                       std::list<std::pair<VertexId, AdjPtr>>::iterator>
        map;
  };

  // Only remote vertices are ever cached, and ownership is v %
  // num_machines -- a raw modulo here would alias with that partition and
  // leave most shards unreachable. Mix the id first (murmur3 finalizer).
  Shard& ShardFor(VertexId v) {
    uint64_t x = v;
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    return *shards_[x % shards_.size()];
  }

  size_t capacity_ = 0;
  size_t capacity_per_shard_ = 0;
  EngineCounters* counters_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace qcm

#endif  // QCM_GTHINKER_VERTEX_CACHE_H_
