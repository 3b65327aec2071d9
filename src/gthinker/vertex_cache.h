// The per-machine vertex cache of the pull-based compute model (paper §5,
// Figure 8): a capacity-bounded, sharded LRU cache of adjacency lists.
// It serves two owners:
//   * The machine's PullBroker caches remote adjacency here. Every batched
//     pull response lands in it, so a vertex pulled for one task is served
//     to every later task on the machine without another network transfer.
//     Each entry is charged 1, so the capacity counts lists.
//   * A VertexTable under a graph memory budget caches its own lists here,
//     read one at a time from the .qcsr file. Each entry is charged its
//     heap bytes, so the capacity is the budget.
//
// Entries are handed out as shared_ptrs ("pins"): eviction drops the
// cache's reference, but a reader holding a pin keeps the adjacency alive
// for as long as it needs it -- the analogue of G-thinker's rule that
// cached vertices in use by a comper are not evictable.
//
// A capacity of 0 disables caching entirely: Lookup always misses and
// Insert is a no-op, forcing every remote access onto the pull/transfer
// path (used to measure the cache's benefit, and by tests).

#ifndef QCM_GTHINKER_VERTEX_CACHE_H_
#define QCM_GTHINKER_VERTEX_CACHE_H_

#include <atomic>
#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "graph/graph.h"

namespace qcm {

class VertexCache {
 public:
  using AdjPtr = std::shared_ptr<const std::vector<VertexId>>;

  /// Where the cache counts its traffic; the owner supplies them, and any
  /// may be null.
  struct Counters {
    std::atomic<uint64_t>* hits = nullptr;
    std::atomic<uint64_t>* misses = nullptr;
    std::atomic<uint64_t>* evictions = nullptr;
  };

  /// `capacity` bounds the total charge of the cached entries per
  /// machine; 0 disables the cache. `max_charge` is the largest charge the
  /// owner will insert. A large cache (>= kShardThreshold) shards by vertex
  /// id to cut lock contention, each shard holding an equal part of the
  /// capacity, but only when that part still holds a `max_charge` entry;
  /// otherwise a single shard keeps eviction order exactly LRU and caches
  /// every entry the capacity can hold.
  VertexCache(uint64_t capacity, Counters counters, uint64_t max_charge = 1);

  VertexCache(const VertexCache&) = delete;
  VertexCache& operator=(const VertexCache&) = delete;

  /// Returns the cached adjacency of v (refreshing its LRU position), or
  /// null on a miss. Counts a hit or miss unless `count_stats` is false
  /// (internal re-probes, e.g. the broker checking whether a queued
  /// request got cached meanwhile, must not double-count the demand).
  AdjPtr Lookup(VertexId v, bool count_stats = true);

  /// Inserts (or refreshes) v with the given charge, then evicts least-
  /// recently-used entries while the shard's charge exceeds its part of
  /// the capacity. No-op when the cache is disabled, or when the charge
  /// alone exceeds that part or 4 GiB (the caller's pin still serves the
  /// read).
  void Insert(VertexId v, AdjPtr adj, uint64_t charge);

  /// Total charge currently cached -- the entry count when every entry is
  /// charged 1 (sums shards; approximate only in the sense that shards are
  /// locked one at a time).
  uint64_t ApproxCharge() const;

  uint64_t capacity() const { return capacity_; }
  bool enabled() const { return capacity_ > 0; }

 private:
  /// Below this capacity a single shard keeps eviction globally ordered.
  static constexpr uint64_t kShardThreshold = 1024;
  static constexpr size_t kMaxShards = 8;

  // 32-bit charge: an entry is no larger than a bare (id, pin) pair.
  struct Entry {
    VertexId v;
    uint32_t charge;
    AdjPtr adj;
  };

  struct Shard {
    mutable std::mutex mu;
    /// Front = most recently used.
    std::list<Entry> lru;
    std::unordered_map<VertexId, std::list<Entry>::iterator> map;
    uint64_t charge = 0;
  };

  // Ownership is v % num_machines, so either owner caches ids that skip
  // whole residue classes (only its peers' ids, or only its own) -- a raw
  // modulo here would alias with that partition and leave most shards
  // unreachable. Mix the id first (murmur3 finalizer).
  Shard& ShardFor(VertexId v) {
    uint64_t x = v;
    x ^= x >> 33;
    x *= 0xff51afd7ed558ccdULL;
    x ^= x >> 33;
    return *shards_[x % shards_.size()];
  }

  static void Count(std::atomic<uint64_t>* counter) {
    if (counter != nullptr) counter->fetch_add(1, std::memory_order_relaxed);
  }

  uint64_t capacity_ = 0;
  uint64_t capacity_per_shard_ = 0;
  Counters counters_;
  std::vector<std::unique_ptr<Shard>> shards_;
};

}  // namespace qcm

#endif  // QCM_GTHINKER_VERTEX_CACHE_H_
