#include "gthinker/vertex_cache.h"

#include <algorithm>

namespace qcm {

VertexCache::VertexCache(size_t capacity_entries, EngineCounters* counters)
    : capacity_(capacity_entries), counters_(counters) {
  const size_t num_shards =
      capacity_ >= kShardThreshold ? kMaxShards : 1;
  shards_.reserve(num_shards);
  for (size_t i = 0; i < num_shards; ++i) {
    shards_.push_back(std::make_unique<Shard>());
  }
  capacity_per_shard_ = std::max<size_t>(capacity_ / num_shards, 1);
}

VertexCache::AdjPtr VertexCache::Lookup(VertexId v, bool count_stats) {
  if (enabled()) {
    Shard& shard = ShardFor(v);
    std::lock_guard<std::mutex> lock(shard.mu);
    auto it = shard.map.find(v);
    if (it != shard.map.end()) {
      // Refresh: move to the most-recently-used position.
      shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
      if (count_stats && counters_ != nullptr) {
        counters_->cache_hits.fetch_add(1, std::memory_order_relaxed);
      }
      return it->second->second;
    }
  }
  if (count_stats && counters_ != nullptr) {
    counters_->cache_misses.fetch_add(1, std::memory_order_relaxed);
  }
  return nullptr;
}

void VertexCache::Insert(VertexId v, AdjPtr adj) {
  if (!enabled()) return;
  Shard& shard = ShardFor(v);
  std::lock_guard<std::mutex> lock(shard.mu);
  auto it = shard.map.find(v);
  if (it != shard.map.end()) {
    it->second->second = std::move(adj);
    shard.lru.splice(shard.lru.begin(), shard.lru, it->second);
    return;
  }
  shard.lru.emplace_front(v, std::move(adj));
  shard.map.emplace(v, shard.lru.begin());
  while (shard.lru.size() > capacity_per_shard_) {
    shard.map.erase(shard.lru.back().first);
    shard.lru.pop_back();
    if (counters_ != nullptr) {
      counters_->cache_evictions.fetch_add(1, std::memory_order_relaxed);
    }
  }
}

size_t VertexCache::ApproxSize() const {
  size_t total = 0;
  for (const auto& shard : shards_) {
    std::lock_guard<std::mutex> lock(shard->mu);
    total += shard->map.size();
  }
  return total;
}

}  // namespace qcm
